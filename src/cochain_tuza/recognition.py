"""Recognition of co-chain graphs from arbitrary edge lists.

A graph is co-chain iff its complement is bipartite (co-bipartite) and that
bipartite complement is a chain graph, i.e. contains no induced 2K_2.  The
recognizer exploits the component structure of the complement:

* complement-isolated vertices are exactly the universal vertices of the
  input and may join either side;
* every complement edge crosses the side partition, so at most one
  complement component may contain edges - two such components immediately
  yield an induced 2K_2 in the complement (an induced C_4 in the input);
* the unique nontrivial component, if any, has a forced 2-coloring, and the
  input is co-chain iff the cross-neighborhoods along one color class are
  nested.

Failure is a value, never an exception: either an odd complement cycle
(complement not bipartite) or an incomparable-neighborhood quadruple, which
always forms an induced C_4 in the input.

Canonicalization: universal vertices are placed on the second (d) side,
except that when the vertex count is even one universal vertex moves to the
first side if that is what makes both sides even (the regime the certifier
handles).  Ties between equal-neighborhood vertices are broken by original
vertex id, and the color class containing the smallest original id becomes
the c-side.  Which side a universal vertex lands on is genuinely ambiguous
(swapping two universal vertices across sides is an automorphism), so
round-trips recover the input only up to that symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import CoChainGraph, GeneralGraph, _bits, edge


@dataclass(frozen=True)
class OddComplementCycle:
    """Odd cycle in the complement: the input is not even co-bipartite."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class IncomparableNeighborhoods:
    """Vertices a, b with inclusion-incomparable neighborhoods.

    a_only is adjacent to a but not b; b_only to b but not a.  Together with
    the edges (a, b) and (a_only, b_only) the four vertices induce a C_4, so
    no co-chain orientation of the input exists.
    """

    a: int
    b: int
    a_only: int
    b_only: int


@dataclass(frozen=True)
class RecognitionFailure:
    reason: str
    witness: OddComplementCycle | IncomparableNeighborhoods


@dataclass(frozen=True)
class RecognizedCoChain:
    """A co-chain encoding plus the relabeling that produced it.

    vertex_order[k] is the original id of the recognized graph's vertex k
    (c-side first, then d-side).
    """

    graph: CoChainGraph
    vertex_order: tuple[int, ...]


def _two_color(
    comp_adj: list[int], vertices: list[int]
) -> tuple[list[int], list[int]] | OddComplementCycle:
    """BFS 2-coloring of one complement component (vertices[0] is the root)."""
    root = vertices[0]
    color = {root: 0}
    parent: dict[int, int] = {root: -1}
    order = [root]
    sides: tuple[list[int], list[int]] = ([root], [])
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for w in _bits(comp_adj[u]):
            if w not in color:
                color[w] = 1 - color[u]
                parent[w] = u
                sides[color[w]].append(w)
                order.append(w)
            elif color[w] == color[u]:
                # same-color BFS edge closes an odd cycle through the LCA
                pu = [u]
                while parent[pu[-1]] != -1:
                    pu.append(parent[pu[-1]])
                depth = {v: i for i, v in enumerate(pu)}
                pw = [w]
                while pw[-1] not in depth:
                    pw.append(parent[pw[-1]])
                meet = depth[pw[-1]]
                cycle = pu[: meet + 1] + list(reversed(pw[:-1]))
                return OddComplementCycle(tuple(cycle))
    return sides


def _components(comp_adj: list[int], n: int) -> list[list[int]]:
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s] or comp_adj[s] == 0:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in _bits(comp_adj[u]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def recognize_cochain(
    g: GeneralGraph,
) -> RecognizedCoChain | RecognitionFailure:
    """Recognize g as a co-chain graph or return a rejection witness."""
    n = g.n
    if n == 0:
        return RecognizedCoChain(CoChainGraph(0, 0, ()), ())
    full = (1 << n) - 1
    comp_adj = [full & ~g.adj[v] & ~(1 << v) for v in range(n)]
    universal = [v for v in range(n) if comp_adj[v] == 0]

    comps = _components(comp_adj, n)
    colorings: list[tuple[list[int], list[int]]] = []
    for comp in comps:
        res = _two_color(comp_adj, comp)
        if isinstance(res, OddComplementCycle):
            return RecognitionFailure("complement is not bipartite", res)
        colorings.append(res)

    if len(colorings) >= 2:
        # one complement edge from each of two components induces a 2K_2
        # in the complement; report it as an incomparable pair
        (a_side, a_other), (b_side, b_other) = colorings[0], colorings[1]
        a, x = a_side[0], next(_bits(comp_adj[a_side[0]]))
        b, y = b_side[0], next(_bits(comp_adj[b_side[0]]))
        return RecognitionFailure(
            "two complement components carry edges",
            IncomparableNeighborhoods(a=a, b=b, a_only=y, b_only=x),
        )

    if colorings:
        side_a, side_b = colorings[0]
        if min(side_b) < min(side_a):
            side_a, side_b = side_b, side_a
    else:
        side_a, side_b = [], []

    # universal vertices may join either side; put them on the second side
    # except for the minimum needed to give both sides even size (possible
    # exactly when the total is even), lowest ids first
    k1 = 0
    if n % 2 == 0 and len(side_a) % 2 == 1 and universal:
        k1 = 1
    side_a = sorted(side_a + sorted(universal)[:k1])
    side_d = sorted(set(side_b) | set(sorted(universal)[k1:]))
    d_mask = 0
    for v in side_d:
        d_mask |= 1 << v

    # nestedness along the c-side: sort by cross-degree, check containment
    ordered = sorted(side_a, key=lambda v: (-(g.adj[v] & d_mask).bit_count(), v))
    for u, v in zip(ordered, ordered[1:]):
        nu, nv = g.adj[u] & d_mask, g.adj[v] & d_mask
        if nv & ~nu:
            x = next(_bits(nv & ~nu))
            y = next(_bits(nu & ~nv))
            return RecognitionFailure(
                "cross-neighborhoods are not nested",
                IncomparableNeighborhoods(a=u, b=v, a_only=y, b_only=x),
            )

    # d-side ordered by growing cross-neighborhood, ties by original id
    c_mask = 0
    for v in ordered:
        c_mask |= 1 << v
    d_ordered = sorted(side_d, key=lambda v: ((g.adj[v] & c_mask).bit_count(), v))

    thresholds = tuple((g.adj[v] & d_mask).bit_count() for v in ordered)
    found = CoChainGraph(len(ordered), len(d_ordered), thresholds)
    order = tuple(ordered + d_ordered)

    # the threshold encoding must reproduce the input exactly
    encoded = {edge(order[a], order[b]) for a, b in found.to_general().edges}
    if encoded != g.edges:
        u, v = min(encoded ^ g.edges)
        raise RuntimeError(
            f"recognition produced an inconsistent encoding (vertices {u}, {v})"
        )
    return RecognizedCoChain(found, order)
