import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochain_tuza.recipes import group_intervals
from cochain_tuza.generators import random_cochain
from cochain_tuza.graphs import (
    CaseProfile,
    GeneralGraph,
    HittingSet,
    TrianglePacking,
    build_cochain,
    enumerate_triangles,
    profile,
    verify_hitting,
    verify_packing,
)

from conftest import (
    brute_triangles,
    complete_graph,
    monotone_sequences,
    reference_groups,
)

FIGURE_GRAPH = build_cochain(4, 8, (8, 5, 4, 2))


def test_build_figure_instance():
    g = FIGURE_GRAPH
    G = g.to_general()
    # c_1 sees every d, c_4 only the two most connected
    assert all(G.has_edge(g.c(1), g.d(j)) for j in range(1, 9))
    assert {j for j in range(1, 9) if G.has_edge(g.c(4), g.d(j))} == {7, 8}
    assert {j for j in range(1, 9) if G.has_edge(g.c(2), g.d(j))} == {4, 5, 6, 7, 8}
    # both sides are cliques
    assert G.is_clique(g.side_l()) and G.is_clique(g.side_m())


def test_build_full_thresholds_is_complete_graph():
    g = build_cochain(2, 2, (2, 2))
    G = g.to_general()
    assert len(G.edges) == 6 and G.n == 4


def test_to_general_masks_match_the_checked_constructor():
    # to_general derives its masks from the thresholds without a check; the
    # public constructor, fed the edges the thresholds define, must agree
    def checked(g):
        L, n = g.l_size, g.n
        edges = set(combinations(range(L), 2)) | set(combinations(range(L, n), 2))
        edges |= {
            (i - 1, L + j - 1)
            for i in range(1, L + 1)
            for j in range(1, g.m_size + 1)
            if g.cross_adjacent(i, j)
        }
        return GeneralGraph(n, frozenset(edges))

    rng = random.Random(7)
    graphs = [
        build_cochain(l_size, m_size, t)
        for l_size, m_size in product((0, 2, 4, 6, 8), repeat=2)
        for t in monotone_sequences(l_size, m_size)
    ]
    graphs += [
        random_cochain(rng, 2 * rng.randint(5, 20), 2 * rng.randint(5, 20))
        for _ in range(300)
    ]
    for g in graphs:
        fast, ref = g.to_general(), checked(g)
        assert (fast.n, fast.adj) == (ref.n, ref.adj), g
        assert fast.edges == ref.edges, g


def test_build_rejects_increasing_thresholds():
    with pytest.raises(ValueError):
        build_cochain(2, 2, (1, 2))


def test_build_rejects_out_of_range_and_length_mismatch():
    with pytest.raises(ValueError):
        build_cochain(2, 2, (3, 0))
    with pytest.raises(ValueError):
        build_cochain(3, 2, (2, 1))


def test_profile_figure_instance():
    assert profile(FIGURE_GRAPH).as_tuple() == (2, 4, 3, 5)


def test_profile_disjoint_and_complete():
    assert profile(build_cochain(4, 6, (0,) * 4)).as_tuple() == (2, 3, 0, 0)
    assert profile(build_cochain(4, 6, (6,) * 4)).as_tuple() == (2, 3, 4, 6)


def test_profile_rejects_odd_sides():
    with pytest.raises(ValueError):
        profile(build_cochain(3, 4, (4, 2, 0)))


def test_case_profile_invariants():
    with pytest.raises(ValueError):
        CaseProfile(2, 2, 3, 1)  # x_ell >= ell but x_m < m
    with pytest.raises(ValueError):
        CaseProfile(2, 2, 5, 4)  # x_ell out of range


def test_enumerate_triangles_small_cliques():
    assert len(enumerate_triangles(complete_graph(3))) == 1
    assert len(enumerate_triangles(complete_graph(4))) == 4


def test_enumerate_triangles_matches_brute_force_on_figure():
    G = FIGURE_GRAPH.to_general()
    assert enumerate_triangles(G) == brute_triangles(G)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_triangle_count_matches_brute_force(data):
    l_size = data.draw(st.integers(0, 5))
    m_size = data.draw(st.integers(0, 5))
    thresholds = []
    bound = m_size
    for _ in range(l_size):
        bound = data.draw(st.integers(0, bound))
        thresholds.append(bound)
    G = build_cochain(l_size, m_size, thresholds).to_general()
    assert enumerate_triangles(G) == brute_triangles(G)


def test_verify_packing_examples():
    k4 = complete_graph(4)
    assert verify_packing(k4, [(0, 1, 2)])
    # any two triangles of K_4 share an edge
    assert not verify_packing(k4, [(0, 1, 2), (0, 1, 3)])
    assert not verify_packing(k4, [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(ValueError):
        verify_packing(k4, [(0, 1, 9)])
    # a packing object is checked in sorted form too: (1, 0, 2) and (0, 1, 3)
    # share the edge {0, 1}, however the triangles are written
    unsorted = TrianglePacking._trusted(frozenset({(1, 0, 2), (0, 1, 3)}))
    assert not verify_packing(k4, unsorted)
    assert not verify_packing(k4, [(1, 0, 2), (0, 1, 3)])


def test_verify_hitting_examples():
    k4 = complete_graph(4)
    assert verify_hitting(k4, [(0, 1), (2, 3)])  # a perfect matching suffices
    assert not verify_hitting(k4, [(0, 1)])
    assert not verify_hitting(complete_graph(3), [])
    with pytest.raises(ValueError):
        verify_hitting(k4, [(0, 17)])
    # an edge hits its triangles in either orientation
    assert verify_hitting(complete_graph(3), HittingSet(frozenset({(1, 0)})))
    assert verify_hitting(complete_graph(3), [(1, 0)])


def _brute_hits(g, h):
    """Independent check: no triangle of g keeps all three edges once h,
    in either orientation, is removed."""
    removed = {(min(u, v), max(u, v)) for u, v in h}
    return all(
        removed & {(a, b), (a, c), (b, c)} for a, b, c in enumerate_triangles(g)
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_hitting_matches_brute_force(data):
    n = data.draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    density = data.draw(st.sampled_from((0.3, 0.6, 0.9)))
    edges = [e for e in pairs if data.draw(st.floats(0, 1)) < density]
    g = GeneralGraph(n, edges)
    # mostly edges of g, plus a few pairs that g lacks (they remove nothing)
    h = [e for e in edges if data.draw(st.booleans())]
    h += data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    expected = _brute_hits(g, h)
    assert verify_hitting(g, HittingSet.of(h)) == expected
    assert verify_hitting(g, h) == expected
    assert verify_hitting(g, [(v, u) for u, v in h]) == expected


def test_verify_hitting_on_a_non_bipartite_remainder():
    # C5 on 0..4 plus a triangle 4-5-6 hanging off it: the remainder is not
    # bipartite whatever h removes from the triangle, so the colour classes
    # hold edges of the C5 that must not be mistaken for triangles
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    g = GeneralGraph.from_edges(7, c5 + [(4, 5), (4, 6), (5, 6)])
    assert not verify_hitting(g, [])
    assert not verify_hitting(g, c5)
    for e in ((4, 5), (6, 4), (5, 6)):
        assert verify_hitting(g, [e])
        assert verify_hitting(g, HittingSet.of([e]))
    # C5 with a chord (0, 2) has the one triangle 0-1-2
    chorded = GeneralGraph.from_edges(5, c5 + [(0, 2)])
    assert not verify_hitting(chorded, [(3, 4)])
    assert verify_hitting(chorded, [(1, 2)])


def test_hitting_sets_from_edges_and_masks_agree():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 12)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        masks = [0] * (n + rng.randint(0, 3))  # trailing empty masks
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        from_masks = HittingSet._from_masks(masks)
        for h in (
            HittingSet(frozenset(edges)),
            HittingSet.of([(v, u) for u, v in edges]),
            HittingSet({(v, u) for u, v in edges}),
        ):
            assert h == from_masks and hash(h) == hash(from_masks)
            assert len(h) == len(from_masks) == len(edges)
            assert h.sorted_edges() == from_masks.sorted_edges() == sorted(edges)
            assert h.edges == from_masks.edges == frozenset(edges)
    assert HittingSet.of([(0, 1)]) != HittingSet.of([(0, 2)])
    with pytest.raises(ValueError):
        HittingSet(frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        HittingSet(frozenset({(-1, 2)}))
    # a vertex outside the host raises, as for raw edges
    with pytest.raises(ValueError):
        verify_hitting(complete_graph(4), HittingSet.of([(1, 4)]))


def test_triangle_packing_type_rejects_shared_edges():
    with pytest.raises(ValueError):
        TrianglePacking.of([(0, 1, 2), (0, 1, 3)])
    with pytest.raises(ValueError):
        TrianglePacking(frozenset({(1, 0, 2), (0, 1, 3)}))
    # the error names the first shared edge in sorted order
    with pytest.raises(ValueError, match=r"share edge \(1, 2\)"):
        TrianglePacking.of([(1, 2, 4), (0, 1, 2), (1, 2, 3), (0, 3, 4), (3, 4, 5)])
    assert len(TrianglePacking.of([(2, 1, 0), (4, 3, 0), (5, 3, 1)])) == 3


def test_triangle_packing_stores_triangles_sorted():
    # the checked constructor stores each triangle sorted, as HittingSet
    # stores each edge canonical, so orientation does not affect equality
    p = TrianglePacking(frozenset({(2, 1, 0), (0, 3, 4)}))
    assert p.sorted_triangles() == [(0, 1, 2), (0, 3, 4)]
    assert p == TrianglePacking.of([(0, 1, 2), (4, 3, 0)])


def test_hitting_set_normalizes_edges():
    h = HittingSet.of([(3, 1), (1, 3), (0, 2)])
    assert h.sorted_edges() == [(0, 2), (1, 3)]


def test_x_m_shortcut_equals_direct_set_computation():
    # profile() reads x_m = t_ell and x_ell = #{t_i >= m} off the thresholds;
    # the group table's X sets must match the membership definitions
    for l_size, m_size in ((2, 2), (2, 4), (4, 4), (4, 6), (6, 4)):
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t)
            p = profile(g)
            ref = reference_groups(g)
            groups = group_intervals(*p.as_tuple())
            (lo, hi), = groups["X_m"]
            assert ref["X_m"] == tuple(range(lo, hi)) and len(ref["X_m"]) == p.x_m
            (lo, hi), = groups["X_ell"]
            assert ref["X_ell"] == tuple(range(lo, hi)) and len(ref["X_ell"]) == p.x_ell


def test_x_iff_property_exhaustive():
    # x_ell >= ell iff x_m >= m over exhaustive small profiles
    for l_size, m_size in ((2, 2), (2, 4), (4, 2), (4, 4), (4, 6)):
        for t in monotone_sequences(l_size, m_size):
            p = profile(build_cochain(l_size, m_size, t))
            assert (p.x_ell >= p.ell) == (p.x_m >= p.m)
