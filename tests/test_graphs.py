import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import brute_triangles, complete_graph, monotone_sequences

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


def test_triangle_packing_type_rejects_shared_edges():
    with pytest.raises(ValueError):
        TrianglePacking.of([(0, 1, 2), (0, 1, 3)])
    with pytest.raises(ValueError):
        TrianglePacking(frozenset({(1, 0, 2), (0, 1, 3)}))


def test_hitting_set_normalizes_edges():
    h = HittingSet.of([(3, 1), (1, 3), (0, 2)])
    assert h.sorted_edges() == [(0, 2), (1, 3)]


def test_x_m_shortcut_equals_direct_set_computation():
    # x_m = t_ell must match the membership definition of X_m
    for l_size, m_size in ((2, 2), (2, 4), (4, 4), (4, 6), (6, 4)):
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t)
            G = g.to_general()
            l_top = g.l_top()
            direct = [
                v
                for v in g.side_m()
                if all(G.has_edge(v, c) for c in l_top)
            ]
            assert tuple(direct) == g.x_m_vertices()
            direct_xl = [
                v
                for v in g.side_l()
                if all(G.has_edge(v, d) for d in g.m_bot())
            ]
            assert tuple(direct_xl) == g.x_l_vertices()


def test_x_iff_property_exhaustive():
    # x_ell >= ell iff x_m >= m over exhaustive small profiles
    for l_size, m_size in ((2, 2), (2, 4), (4, 2), (4, 4), (4, 6)):
        for t in monotone_sequences(l_size, m_size):
            p = profile(build_cochain(l_size, m_size, t))
            assert (p.x_ell >= p.ell) == (p.x_m >= p.m)
