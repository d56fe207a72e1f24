import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochain_tuza import recognition
from cochain_tuza.graphs import CoChainGraph, GeneralGraph, build_cochain
from cochain_tuza.recognition import (
    IncomparableNeighborhoods,
    OddComplementCycle,
    RecognitionFailure,
    RecognizedCoChain,
    recognize_cochain,
)


def _cycle(n: int) -> GeneralGraph:
    return GeneralGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complement(g: GeneralGraph) -> GeneralGraph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return GeneralGraph.from_edges(g.n, edges)


def test_rejects_complement_of_c5():
    result = recognize_cochain(_complement(_cycle(5)))
    assert isinstance(result, RecognitionFailure)
    assert isinstance(result.witness, OddComplementCycle)
    cyc = result.witness.vertices
    assert len(cyc) % 2 == 1 and len(cyc) >= 3


def test_accepts_two_disjoint_edges():
    g = GeneralGraph.from_edges(4, [(0, 1), (2, 3)])
    result = recognize_cochain(g)
    assert isinstance(result, RecognizedCoChain)
    assert result.graph.thresholds == (0, 0)
    assert {result.graph.l_size, result.graph.m_size} == {2}


def test_rejects_c4_with_incomparable_witness():
    result = recognize_cochain(_cycle(4))
    assert isinstance(result, RecognitionFailure)
    w = result.witness
    assert isinstance(w, IncomparableNeighborhoods)
    g = _cycle(4)
    # witness quadruple induces a C_4: a~b, a_only~b_only, a~a_only, b~b_only
    assert g.has_edge(w.a, w.b) and g.has_edge(w.a_only, w.b_only)
    assert g.has_edge(w.a, w.a_only) and g.has_edge(w.b, w.b_only)
    assert not g.has_edge(w.a, w.b_only) and not g.has_edge(w.b, w.a_only)


def test_accepts_complete_graph():
    result = recognize_cochain(GeneralGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]))
    assert isinstance(result, RecognizedCoChain)
    assert result.graph.n == 4


def _assert_isomorphic_encoding(g: GeneralGraph, rec: RecognizedCoChain) -> None:
    order = rec.vertex_order
    assert sorted(order) == list(range(g.n))
    for a in range(g.n):
        for b in range(a + 1, g.n):
            assert rec.graph.has_edge(a, b) == g.has_edge(order[a], order[b])


def test_figure_instance_roundtrip_under_permutation():
    g = build_cochain(4, 8, (8, 5, 4, 2)).to_general()
    rng = random.Random(5)
    perm = list(range(g.n))
    rng.shuffle(perm)
    shuffled = GeneralGraph.from_edges(
        g.n, ((perm[u], perm[v]) for u, v in g.edges)
    )
    result = recognize_cochain(shuffled)
    assert isinstance(result, RecognizedCoChain)
    _assert_isomorphic_encoding(shuffled, result)
    assert len(shuffled.edges) == len(result.graph.to_general().edges)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_roundtrip_random_threshold_sequences(data):
    l_size = data.draw(st.integers(0, 6))
    m_size = data.draw(st.integers(0, 6))
    thresholds = []
    bound = m_size
    for _ in range(l_size):
        bound = data.draw(st.integers(0, bound))
        thresholds.append(bound)
    g = build_cochain(l_size, m_size, thresholds).to_general()
    perm = data.draw(st.permutations(range(g.n)))
    shuffled = GeneralGraph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))
    result = recognize_cochain(shuffled)
    assert isinstance(result, RecognizedCoChain)
    _assert_isomorphic_encoding(shuffled, result)


def test_figure_thresholds_recovered_exactly_without_permutation():
    # the parity-aware placement of universal vertices recovers the
    # canonical encoding of the identity-labeled instance
    g = build_cochain(4, 8, (8, 5, 4, 2))
    result = recognize_cochain(g.to_general())
    assert isinstance(result, RecognizedCoChain)
    assert (result.graph.l_size, result.graph.m_size) == (4, 8)
    assert result.graph.thresholds == (8, 5, 4, 2)


def test_interior_thresholds_recovered_exactly():
    # no universal vertices and no empty cross-neighborhoods: the threshold
    # sequence itself is recovered (up to ties, absent here)
    g = build_cochain(4, 6, (5, 4, 2, 1))
    result = recognize_cochain(g.to_general())
    assert isinstance(result, RecognizedCoChain)
    assert result.graph.l_size == 4 and result.graph.m_size == 6
    assert result.graph.thresholds == (5, 4, 2, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_graphs_never_misclassified(data):
    n = data.draw(st.integers(1, 7))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if data.draw(st.booleans())
    ]
    g = GeneralGraph.from_edges(n, edges)
    result = recognize_cochain(g)
    if isinstance(result, RecognizedCoChain):
        _assert_isomorphic_encoding(g, result)
    else:
        w = result.witness
        if isinstance(w, OddComplementCycle):
            cyc = w.vertices
            assert len(cyc) % 2 == 1
            for i, u in enumerate(cyc):  # consecutive complement edges
                v = cyc[(i + 1) % len(cyc)]
                assert not g.has_edge(u, v) and u != v
        else:
            assert isinstance(w, IncomparableNeighborhoods)
            assert g.has_edge(w.a, w.a_only) and not g.has_edge(w.b, w.a_only)
            assert g.has_edge(w.b, w.b_only) and not g.has_edge(w.a, w.b_only)


def test_inconsistent_encoding_is_an_error(monkeypatch):
    # an encoding that drops a cross edge must not be returned
    def lowered_first_threshold(l_size, m_size, thresholds):
        return CoChainGraph(l_size, m_size, (thresholds[0] - 1,) + thresholds[1:])

    monkeypatch.setattr(recognition, "CoChainGraph", lowered_first_threshold)
    g = build_cochain(2, 2, (2, 1)).to_general()
    with pytest.raises(RuntimeError, match="inconsistent encoding"):
        recognize_cochain(g)


def test_inconsistent_d_side_order_is_an_error(monkeypatch):
    # the thresholds stay right, but two d's of different cross-degree trade
    # places in the vertex order: the encoding no longer reproduces g
    g = build_cochain(4, 4, (3, 2, 1, 1)).to_general()
    rec = recognize_cochain(g)
    assert isinstance(rec, RecognizedCoChain)
    L = rec.graph.l_size
    c_side = sum(1 << v for v in rec.vertex_order[:L])
    d_first, d_last = rec.vertex_order[L], rec.vertex_order[-1]
    assert (g.adj[d_first] & c_side).bit_count() < (g.adj[d_last] & c_side).bit_count()
    check = recognition._check_encoding

    def swapped_d_order(graph, found, order):
        check(graph, found, order[:L] + (d_last,) + order[L + 1 : -1] + (d_first,))

    monkeypatch.setattr(recognition, "_check_encoding", swapped_d_order)
    with pytest.raises(RuntimeError, match="inconsistent encoding"):
        recognize_cochain(g)
