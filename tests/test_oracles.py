import hashlib
import random
from itertools import combinations, product
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from cochain_tuza.certify import certify
from cochain_tuza.generators import (
    count_monotone_sequences,
    random_cochain,
    unrank_monotone_sequence,
)
from cochain_tuza.graphs import (
    GeneralGraph,
    HittingSet,
    TrianglePacking,
    build_cochain,
    enumerate_triangles,
    verify_hitting,
    verify_packing,
)
from cochain_tuza.oracles import _incidence, exact_nu, exact_tau
from cochain_tuza.packings import feder_count

from conftest import (
    brute_nu,
    brute_tau,
    brute_triangles,
    complete_graph,
    monotone_sequences,
)


def _check_incidence(g: GeneralGraph) -> None:
    tris, edges, tri_edges, tri_masks, edge_tris = _incidence(g)
    assert list(tris) == brute_triangles(g)
    assert list(edges) == sorted(g.edges)
    bit = {e: 1 << i for i, e in enumerate(edges)}
    for (a, b, c), idx, mask in zip(tris, tri_edges, tri_masks):
        assert [edges[i] for i in idx] == [(a, b), (a, c), (b, c)]
        assert mask == bit[(a, b)] | bit[(a, c)] | bit[(b, c)]
    for i, e in enumerate(edges):
        through = sum(1 << ti for ti, t in enumerate(tris) if set(e) <= set(t))
        assert edge_tris[i] == through


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incidence_matches_brute_force_triangles(data):
    n = data.draw(st.integers(0, 8))
    edges = [
        e for e in combinations(range(n), 2) if data.draw(st.booleans())
    ]
    _check_incidence(GeneralGraph.from_edges(n, edges))


def test_incidence_of_empty_and_triangle_free_graphs():
    # the empty graph, and the triangle-free 5-cycle, whose edges lie in no
    # triangle
    for g in (
        GeneralGraph.from_edges(0, []),
        GeneralGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    ):
        _check_incidence(g)
        tris, _, _, _, edge_tris = _incidence(g)
        assert tris == () and not any(edge_tris)


def test_small_clique_values():
    k3, k4 = complete_graph(3), complete_graph(4)
    assert exact_nu(k3).value == 1 and exact_tau(k3).value == 1
    assert exact_nu(k4).value == 1 and exact_tau(k4).value == 2
    assert exact_nu(complete_graph(7)).value == 7
    # cross-check against the independent subset-enumeration oracles
    assert brute_nu(k4) == 1 and brute_tau(k4) == 2


def test_triangle_free_graph():
    g = GeneralGraph.from_edges(4, [(0, 1), (2, 3)])
    assert exact_tau(g).value == 0
    assert exact_nu(g).value == 0


def test_witnesses_always_verify():
    for n in range(3, 9):
        g = complete_graph(n)
        r_nu, r_tau = exact_nu(g), exact_tau(g)
        assert r_nu.proven and r_tau.proven
        assert isinstance(r_nu.witness, TrianglePacking)
        assert isinstance(r_tau.witness, HittingSet)
        assert verify_packing(g, r_nu.witness)
        assert verify_hitting(g, r_tau.witness)
        assert r_nu.value == len(r_nu.witness)
        assert r_tau.value == len(r_tau.witness)


def test_nu_matches_feder_counts():
    for n in range(1, 11):
        g = complete_graph(n)
        r = exact_nu(g)
        assert r.proven and r.value == feder_count(n).count


def test_budget_exhaustion_never_reports_proven():
    # a dense n = 10 co-chain graph whose tau search needs far more than 40
    # nodes (complete graphs are proven at the root)
    g = build_cochain(4, 6, (6, 6, 5, 4)).to_general()
    true_tau = exact_tau(g)
    assert true_tau.proven
    r = exact_tau(g, budget=40)
    assert not r.proven
    assert verify_hitting(g, r.witness)  # still a feasible upper bound
    assert r.value >= true_tau.value
    r2 = exact_nu(g, budget=3)
    assert not r2.proven and verify_packing(g, r2.witness)


def test_explored_counts_the_nodes_within_the_budget():
    g = build_cochain(4, 6, (6, 6, 5, 4)).to_general()
    for oracle in (exact_tau, exact_nu):
        full = oracle(g)
        assert full.proven and 1 < full.explored
        for budget in (0, 1, 3, 40, full.explored - 1, full.explored, 10**6):
            r = oracle(g, budget)
            assert r.proven == (budget >= full.explored)
            assert r.explored == min(budget, full.explored)


def test_nu_proven_on_random_8_8_cochain_graphs():
    rng = random.Random(0)
    for _ in range(3):
        g = random_cochain(rng, 8, 8)
        h = g.to_general()
        r = exact_nu(h, 5_000)
        assert r.proven
        assert verify_packing(h, r.witness) and len(r.witness) == r.value
        assert certify(g, "guided").p_size <= r.value


def test_duality_on_exhaustive_small_cochain_instances():
    # nu <= tau <= 3 nu, and tau <= 2 nu (the conjecture itself), proven on
    # every even-sided instance with at most 10 vertices
    pairs = (
        (2, 2), (2, 4), (4, 2), (2, 6), (6, 2),
        (4, 4), (2, 8), (8, 2), (4, 6), (6, 4),
    )
    for l_size, m_size in pairs:
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t).to_general()
            r_nu, r_tau = exact_nu(g), exact_tau(g)
            assert r_nu.proven and r_tau.proven
            assert r_nu.value <= r_tau.value <= 3 * r_nu.value
            assert r_tau.value <= 2 * r_nu.value


def test_against_brute_force_on_small_cochain_instances():
    for l_size, m_size in ((2, 2), (2, 4), (4, 2)):
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t).to_general()
            assert exact_nu(g).value == brute_nu(g)
            if len(enumerate_triangles(g)) > 0:
                assert exact_tau(g).value == brute_tau(g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_duality_on_random_graphs(data):
    n = data.draw(st.integers(3, 7))
    edges = [
        e for e in combinations(range(n), 2) if data.draw(st.booleans())
    ]
    g = GeneralGraph.from_edges(n, edges)
    r_nu, r_tau = exact_nu(g), exact_tau(g)
    assert r_nu.proven and r_tau.proven
    assert r_nu.value <= r_tau.value <= 3 * r_nu.value
    assert r_nu.value == brute_nu(g)


def test_tau_complete_closed_form_matches_brute_force():
    for r in range(3, 7):
        expected = brute_tau(complete_graph(r), cap=comb(r, 2))
        assert comb(r, 2) - r * r // 4 == expected


def test_complete_graphs_are_proven_at_the_root():
    for r in range(3, 13):
        g = complete_graph(r)
        res = exact_tau(g)
        assert res.proven and res.value == comb(r, 2) - r * r // 4
        assert res.explored == 1
        assert verify_hitting(g, res.witness)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tau_matches_brute_force_on_random_graphs(data):
    n = data.draw(st.integers(3, 6))
    edges = [
        e for e in combinations(range(n), 2) if data.draw(st.booleans())
    ]
    g = GeneralGraph.from_edges(n, edges)
    r_tau = exact_tau(g)
    assert r_tau.proven
    assert verify_hitting(g, r_tau.witness) and len(r_tau.witness) == r_tau.value
    assert r_tau.value == brute_tau(g, cap=len(edges))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tau_matches_brute_force_on_twin_blow_ups(data):
    # each vertex of a random base graph becomes a clique of 1-3 true twins,
    # joined to every twin of its base neighbours, under shuffled labels: the
    # graphs on which exact_tau's twin rule skips branches
    k = data.draw(st.integers(2, 4))
    base = [e for e in combinations(range(k), 2) if data.draw(st.booleans())]
    blocks, n = [], 0
    for i in range(k):
        size = data.draw(st.integers(1, min(3, 6 - n - (k - 1 - i))))
        blocks.append(range(n, n + size))
        n += size
    perm = data.draw(st.permutations(range(n)))
    pairs = [(i, i) for i in range(k)] + base
    edges = {
        (min(perm[u], perm[v]), max(perm[u], perm[v]))
        for i, j in pairs
        for u in blocks[i]
        for v in blocks[j]
        if u != v
    }
    g = GeneralGraph.from_edges(n, edges)
    r_tau = exact_tau(g)
    assert r_tau.proven
    assert verify_hitting(g, r_tau.witness) and len(r_tau.witness) == r_tau.value
    assert r_tau.value == brute_tau(g, cap=len(edges))


def test_tau_on_k6_minus_an_edge():
    # K_6 minus an edge has twin pairs whose removed edges differ inside the
    # search; a twin rule that skipped without comparing them fails here
    for missing in combinations(range(6), 2):
        g = GeneralGraph.from_edges(
            6, [e for e in combinations(range(6), 2) if e != missing]
        )
        r_tau = exact_tau(g)
        assert r_tau.proven and verify_hitting(g, r_tau.witness)
        assert r_tau.value == len(r_tau.witness) == brute_tau(g, cap=14)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_oracles_ignore_vertex_labels(data):
    n = data.draw(st.integers(3, 8))
    edges = [
        e for e in combinations(range(n), 2) if data.draw(st.booleans())
    ]
    perm = data.draw(st.permutations(range(n)))
    g = GeneralGraph.from_edges(n, edges)
    h = GeneralGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    for oracle in (exact_tau, exact_nu):
        r_g, r_h = oracle(g), oracle(h)
        assert r_g.proven and r_h.proven
        assert r_g.value == r_h.value


def _values_digest(instances) -> tuple[int, int, int, str, str]:
    """(graphs, tau nodes, nu nodes, SHA-256 of one "L M thresholds tau nu"
    line per graph, SHA-256 of one line of tau's sorted witness edges per
    graph) over the given (L, M, thresholds), both oracles proven."""
    graphs = tau_nodes = nu_nodes = 0
    h, w = hashlib.sha256(), hashlib.sha256()
    for l_size, m_size, t in instances:
        G = build_cochain(l_size, m_size, t).to_general()
        tau, nu = exact_tau(G), exact_nu(G)
        assert tau.proven and nu.proven
        graphs += 1
        tau_nodes += tau.explored
        nu_nodes += nu.explored
        h.update(f"{l_size} {m_size} {list(t)} {tau.value} {nu.value}\n".encode())
        w.update(f"{tau.witness.sorted_edges()}\n".encode())
    return graphs, tau_nodes, nu_nodes, h.hexdigest(), w.hexdigest()


def test_oracle_work_on_the_even_sided_census_is_pinned():
    # tau and nu on every even-sided co-chain graph with sides in {2, 4, 6}
    # and n <= 10, and the nodes explored: a refactor of the search must not
    # move them, and a new pruning rule must move only the node counts
    instances = [
        (l_size, m_size, t)
        for l_size, m_size in product((2, 4, 6), repeat=2)
        if l_size + m_size <= 10
        for t in monotone_sequences(l_size, m_size)
    ]
    # the witness digest holds while only pruning changes, and breaks when
    # the search order does
    assert _values_digest(instances) == (
        582,
        15978,
        12643,
        "508a388a3248170c2520018db6c36d6485639537c5572f8b744301efcabe619a",
        "024581c7c16cbeb08f7989a598155e461edc654f5f707fcbb4a6ad1e08ac5311",
    )


def test_oracle_values_on_every_8th_6_6_graph_are_pinned():
    # the (6, 6) census by rank, every 8th graph: n = 12, where the tau
    # search branches deepest; values only, so that pruning may move nodes
    instances = [
        (6, 6, unrank_monotone_sequence(r, 6, 6))
        for r in range(0, count_monotone_sequences(6, 6), 8)
    ]
    graphs, _, _, digest, _ = _values_digest(instances)
    assert (graphs, digest) == (
        116,
        "70b7391a37b961988d03bd26e3ba5df9e00177ff4bd3dffee71c388a006e2874",
    )
