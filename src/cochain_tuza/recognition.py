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

Everything runs on vertex masks: the complement's components are coloured by
breadth-first search one level at a time, and the encoding found is checked
to reproduce the input with one mask comparison per vertex, so a call costs
O(n) mask operations plus the two sorts by cross-degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import CoChainGraph, GeneralGraph, _bits


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


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _two_color(comp_adj: list[int], root: int) -> tuple[int, int] | OddComplementCycle:
    """The colour classes of root's complement component as vertex masks,
    root's class first, from a breadth-first search by levels; or an odd
    cycle, when a complement edge joins two vertices of one level (the only
    place two vertices of one colour can meet)."""
    levels = []
    seen = frontier = 1 << root
    while frontier:
        levels.append(frontier)
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= comp_adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    for depth, level in enumerate(levels):
        for u in _bits(level):
            if comp_adj[u] & level:
                return OddComplementCycle(_odd_cycle(comp_adj, levels, depth, u))
    return sum(levels[0::2]), sum(levels[1::2])


def _odd_cycle(
    comp_adj: list[int], levels: list[int], depth: int, u: int
) -> tuple[int, ...]:
    """The cycle closed by the edge from u to its lowest neighbour w on
    u's level: both walk up one level at a time until they meet."""
    a, b = [u], [_lowest(comp_adj[u] & levels[depth])]
    while a[-1] != b[-1]:
        depth -= 1
        a.append(_lowest(comp_adj[a[-1]] & levels[depth]))
        b.append(_lowest(comp_adj[b[-1]] & levels[depth]))
    return tuple(a + b[-2::-1])


def recognize_cochain(
    g: GeneralGraph,
) -> RecognizedCoChain | RecognitionFailure:
    """Recognize g as a co-chain graph or return a rejection witness."""
    n = g.n
    if n == 0:
        return RecognizedCoChain(CoChainGraph(0, 0, ()), ())
    full = (1 << n) - 1
    comp_adj = [full ^ g.adj[v] ^ 1 << v for v in range(n)]
    universal = [v for v in range(n) if comp_adj[v] == 0]

    # the complement's components with edges, lowest vertex first
    colorings: list[tuple[int, int]] = []
    pending = full
    for v in universal:
        pending ^= 1 << v
    while pending:
        res = _two_color(comp_adj, _lowest(pending))
        if isinstance(res, OddComplementCycle):
            return RecognitionFailure("complement is not bipartite", res)
        colorings.append(res)
        pending &= ~(res[0] | res[1])

    if len(colorings) >= 2:
        # one complement edge from each of two components induces a 2K_2
        # in the complement; report it as an incomparable pair
        a, b = _lowest(colorings[0][0]), _lowest(colorings[1][0])
        x, y = _lowest(comp_adj[a]), _lowest(comp_adj[b])
        return RecognitionFailure(
            "two complement components carry edges",
            IncomparableNeighborhoods(a=a, b=b, a_only=y, b_only=x),
        )

    # the class of the component's lowest vertex is the c-side; universal
    # vertices may join either side: put them on the d-side except for the
    # minimum needed to give both sides even size (possible exactly when
    # the total is even), lowest ids first
    c_side = colorings[0][0] if colorings else 0
    if n % 2 == 0 and c_side.bit_count() % 2 == 1 and universal:
        c_side |= 1 << universal[0]
    d_side = full ^ c_side

    # nestedness along the c-side: sort by cross-degree, check containment
    ordered = sorted(_bits(c_side), key=lambda v: (-(g.adj[v] & d_side).bit_count(), v))
    for u, v in zip(ordered, ordered[1:]):
        nu, nv = g.adj[u] & d_side, g.adj[v] & d_side
        if nv & ~nu:
            x, y = _lowest(nv & ~nu), _lowest(nu & ~nv)
            return RecognitionFailure(
                "cross-neighborhoods are not nested",
                IncomparableNeighborhoods(a=u, b=v, a_only=y, b_only=x),
            )

    # d-side ordered by growing cross-neighborhood, ties by original id
    d_ordered = sorted(_bits(d_side), key=lambda v: ((g.adj[v] & c_side).bit_count(), v))

    thresholds = tuple((g.adj[v] & d_side).bit_count() for v in ordered)
    found = CoChainGraph(len(ordered), len(d_ordered), thresholds)
    order = tuple(ordered + d_ordered)
    _check_encoding(g, found, order)
    return RecognizedCoChain(found, order)


def _check_encoding(
    g: GeneralGraph, found: CoChainGraph, order: tuple[int, ...]
) -> None:
    """Raise unless ``found``, its vertex k named order[k], is exactly g.

    One mask comparison per vertex: c_i's mask must be the other c's plus
    the d's holding the last t_i places of the d-side, and d_j's mask must
    contain the other d's; the rest of a d's mask is then fixed by the
    symmetry of g's masks.
    """
    L = found.l_size
    c_mask = d_mask = 0
    for v in order[:L]:
        c_mask |= 1 << v
    # d_suffix[t]: the original ids of the t most connected d's
    d_suffix = [0]
    for v in reversed(order[L:]):
        d_mask |= 1 << v
        d_suffix.append(d_mask)
    adj = g.adj
    for v, t in zip(order, found.thresholds):
        if adj[v] != c_mask ^ 1 << v | d_suffix[t]:
            raise _inconsistent(g, v, c_mask ^ 1 << v | d_suffix[t])
    for v in order[L:]:
        if adj[v] & d_mask != d_mask ^ 1 << v:
            raise _inconsistent(g, v, d_mask ^ 1 << v)


def _inconsistent(g: GeneralGraph, v: int, expected: int) -> RuntimeError:
    u = _lowest(g.adj[v] ^ expected)
    return RuntimeError(
        f"recognition produced an inconsistent encoding (vertices {min(u, v)}, {max(u, v)})"
    )
