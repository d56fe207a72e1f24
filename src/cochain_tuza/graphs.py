"""Threshold-encoded co-chain graphs and triangle packing/hitting primitives.

A co-bipartite graph splits into two cliques; it is a co-chain graph when, in
addition, the cross-neighborhoods on each side are linearly ordered by
inclusion.  Writing the first clique as c_1..c_L with shrinking neighborhoods
and the second as d_1..d_M with growing neighborhoods, the whole graph is
captured by one nonincreasing *threshold sequence* t_1 >= ... >= t_L, where
t_i = |N(c_i) inter {d_1..d_M}|: c_i is adjacent to exactly the t_i most
connected d-vertices, i.e. c_i ~ d_j iff j > M - t_i.

The threshold sequence is the single source of truth for adjacency here;
adjacency is always computed from it, never stored redundantly.

Vertex numbering is fixed throughout the package: c_i is vertex i-1 and d_j is
vertex L + j - 1.  For even side sizes L = 2*ell and M = 2*m the index halves
are oriented so that the *top* half of the c-side (c_1..c_ell) and the
*bottom* half of the d-side (d_{m+1}..d_{2m}) are the most connected halves.
X_ell collects the c-vertices adjacent to all of the d-side's bottom half
(equivalently t_i >= m, a prefix of the c's), and X_m the d-vertices adjacent
to all of the c-side's top half (the t_ell most connected d's).

All values are immutable after construction; every operation is a pure
function of its inputs.

Graphs and hitting sets are their per-vertex bitmasks (ints): bit v of
vertex u's mask is the pair {u, v}.  The public constructors check what they
are given: ``GeneralGraph(n, edges)`` range-checks every edge,
``HittingSet(edges)`` rejects self-loops and negative ids, and
``TrianglePacking(...)`` rejects triangles that share an edge.  Code inside
the package builds witnesses it constructs canonical and disjoint by design
(``CoChainGraph.to_general``, T1 and T2, clique and apex packings, the
certifier's recipes) through trusted constructors that skip those checks;
``certify.make_certificate`` then checks each returned witness once, with
``verify_hitting`` (O(n + monochromatic edges) mask operations) and
``verify_packing``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def triangle(a: int, b: int, c: int) -> Triangle:
    """Canonical sorted form of a triangle."""
    t = tuple(sorted((a, b, c)))
    if len(set(t)) != 3:
        raise ValueError(f"triangle vertices not distinct: {t}")
    return t  # type: ignore[return-value]


def triangle_edges(t: Triangle) -> tuple[Edge, Edge, Edge]:
    a, b, c = t
    return ((a, b), (a, c), (b, c))


@dataclass(frozen=True, init=False)
class GeneralGraph:
    """Simple undirected graph on vertices 0..n-1.

    The graph is its per-vertex adjacency bitmasks (ints), which equality
    and hashing compare.  The frozen set of canonical edges is kept as
    given to the constructor, or derived from the masks on first use for a
    graph built from masks.
    """

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        edges = frozenset(edges)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge {(u, v)} out of range or not canonical")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(masks))
        self.__dict__["edges"] = edges

    def __repr__(self) -> str:
        return f"GeneralGraph(n={self.n}, edges={self.edges!r})"

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "GeneralGraph":
        return cls(n, frozenset(edge(u, v) for u, v in edges))

    @classmethod
    def _from_masks(cls, adj: tuple[int, ...]) -> "GeneralGraph":
        """The graph of symmetric, loop-free masks over vertices 0..len-1
        that the caller has derived; nothing is re-checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", adj)
        return g

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(_mask_edges(self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.adj[u] >> v & 1)

    def edge_list(self) -> list[Edge]:
        return sorted(self.edges)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """Whether every two of the given vertices are adjacent (a repeated
        or out-of-range vertex among two or more is not)."""
        vs = list(vertices)
        if len(vs) < 2:
            return True
        mask = 0
        for v in vs:
            mask |= 1 << v
        if mask.bit_count() != len(vs) or mask >> self.n:
            return False
        adj = self.adj
        for v in vs:
            if (adj[v] | 1 << v) & mask != mask:
                return False
        return True

    def complete_between(self, left: Iterable[int], right: Iterable[int]) -> bool:
        rmask = 0
        for v in right:
            rmask |= 1 << v
        adj = self.adj
        for u in left:
            if adj[u] & rmask != rmask:
                return False
        return True


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_edges(masks: Sequence[int]) -> list[Edge]:
    """The edges of symmetric per-vertex masks, canonical and sorted."""
    out = []
    for u, mask in enumerate(masks):
        higher = mask >> (u + 1) << (u + 1)
        while higher:
            low = higher & -higher
            out.append((u, low.bit_length() - 1))
            higher ^= low
    return out


@dataclass(frozen=True)
class CaseProfile:
    """The parameter tuple (ell, m, x_ell, x_m) driving the case dispatch.

    ell and m are the half-side sizes; x_ell and x_m the sizes of X_ell and
    X_m.  For every even-sided co-chain graph x_ell >= ell holds iff
    x_m >= m, and the constructor rejects tuples violating that.
    """

    ell: int
    m: int
    x_ell: int
    x_m: int

    def __post_init__(self) -> None:
        if self.ell < 0 or self.m < 0:
            raise ValueError("half sizes must be nonnegative")
        if not 0 <= self.x_ell <= 2 * self.ell:
            raise ValueError(f"x_ell={self.x_ell} out of range [0, {2 * self.ell}]")
        if not 0 <= self.x_m <= 2 * self.m:
            raise ValueError(f"x_m={self.x_m} out of range [0, {2 * self.m}]")
        if (self.x_ell >= self.ell) != (self.x_m >= self.m):
            raise ValueError(
                f"profile {self.as_tuple()} violates x_ell >= ell <=> x_m >= m"
            )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.ell, self.m, self.x_ell, self.x_m)


@dataclass(frozen=True)
class CoChainGraph:
    """Co-chain graph given by side sizes and the threshold sequence.

    thresholds[i] is the cross-degree of c_{i+1}; the sequence must be
    nonincreasing (nested neighborhoods) with values in [0, m_size].
    """

    l_size: int
    m_size: int
    thresholds: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        for v in (self.l_size, self.m_size, *self.thresholds):
            if type(v) is not int:
                raise ValueError(f"sizes and thresholds must be int, got {v!r}")
        if self.l_size < 0 or self.m_size < 0:
            raise ValueError("side sizes must be nonnegative")
        if len(self.thresholds) != self.l_size:
            raise ValueError(
                f"need {self.l_size} thresholds, got {len(self.thresholds)}"
            )
        for t in self.thresholds:
            if not 0 <= t <= self.m_size:
                raise ValueError(f"threshold {t} out of range [0, {self.m_size}]")
        for a, b in zip(self.thresholds, self.thresholds[1:]):
            if a < b:
                raise ValueError(
                    f"thresholds must be nonincreasing, got {self.thresholds}"
                )

    # -- vertex numbering ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.l_size + self.m_size

    def c(self, i: int) -> int:
        """Vertex id of c_i (1-based)."""
        if not 1 <= i <= self.l_size:
            raise ValueError(f"c_{i} out of range")
        return i - 1

    def d(self, j: int) -> int:
        """Vertex id of d_j (1-based)."""
        if not 1 <= j <= self.m_size:
            raise ValueError(f"d_{j} out of range")
        return self.l_size + j - 1

    def side_l(self) -> tuple[int, ...]:
        return tuple(range(self.l_size))

    def side_m(self) -> tuple[int, ...]:
        return tuple(range(self.l_size, self.n))

    # -- adjacency ----------------------------------------------------------

    def cross_adjacent(self, i: int, j: int) -> bool:
        """Whether c_i ~ d_j (1-based indices on both sides)."""
        return j > self.m_size - self.thresholds[i - 1]

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        u, v = min(u, v), max(u, v)
        if v < self.l_size:
            return True
        if u >= self.l_size:
            return True
        return self.cross_adjacent(u + 1, v - self.l_size + 1)

    def adjacency_masks(self) -> list[int]:
        """Per-vertex adjacency masks, computed from the thresholds, which
        the constructor has checked."""
        L, M, n = self.l_size, self.m_size, self.n
        side_l = (1 << L) - 1
        side_m = ((1 << n) - 1) ^ side_l
        masks = [0] * n
        for i, t in enumerate(self.thresholds):
            # c_{i+1} sees the t most connected d's, vertices n-t..n-1
            masks[i] = side_l ^ (1 << i) | ((1 << t) - 1) << (n - t)
        # d_{j+1} sees the prefix of c's with threshold >= M - j, which
        # grows with j because the thresholds are nonincreasing
        k = 0
        for j in range(M):
            while k < L and self.thresholds[k] >= M - j:
                k += 1
            masks[L + j] = side_m ^ (1 << (L + j)) | (1 << k) - 1
        return masks

    def to_general(self) -> GeneralGraph:
        """The graph on vertices 0..n-1, with ``adjacency_masks``."""
        return GeneralGraph._from_masks(tuple(self.adjacency_masks()))


def build_cochain(
    l_size: int, m_size: int, thresholds: Iterable[int]
) -> CoChainGraph:
    """Construct a co-chain graph, rejecting invalid threshold sequences."""
    return CoChainGraph(l_size, m_size, tuple(thresholds))


def profile(g: CoChainGraph) -> CaseProfile:
    """Case parameters (ell, m, x_ell, x_m) of an even-sided co-chain graph,
    read off the thresholds: X_ell is the c's with t_i >= m, and X_m the
    t_ell d's that c_ell sees (all of them when the c-side is empty).
    ``recipes.group_intervals`` turns the profile into vertex groups."""
    if g.l_size % 2 or g.m_size % 2:
        raise ValueError(f"even side sizes required, got ({g.l_size}, {g.m_size})")
    ell, m = g.l_size // 2, g.m_size // 2
    x_ell = sum(t >= m for t in g.thresholds)
    x_m = g.thresholds[ell - 1] if ell else g.m_size
    return CaseProfile(ell, m, x_ell, x_m)


# ---------------------------------------------------------------------------
# Triangle packings and hitting sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrianglePacking:
    """Pairwise edge-disjoint triangles, given in any vertex order, stored sorted."""

    triangles: frozenset[Triangle]

    def __post_init__(self) -> None:
        # used[a]: the partners b > a of the edges (a, b) already packed
        used: dict[int, int] = {}
        canonical = True
        for t in self.triangles:
            a, b, c = t
            if not a < b < c:
                a, b, c = triangle(a, b, c)
                canonical = False
            if a < 0:
                raise ValueError(f"negative vertex id in triangle {t}")
            bc, cbit = 1 << b | 1 << c, 1 << c
            ua, ub = used.get(a, 0), used.get(b, 0)
            if ua & bc or ub & cbit:
                raise ValueError(f"triangles share edge {self._first_shared_edge()}")
            used[a] = ua | bc
            used[b] = ub | cbit
        if not canonical:
            object.__setattr__(
                self, "triangles", frozenset(triangle(*t) for t in self.triangles)
            )

    def _first_shared_edge(self) -> Edge | None:
        """The first edge two triangles share, in sorted order, to name it."""
        seen: set[Edge] = set()
        for t in sorted(triangle(*t) for t in self.triangles):
            for e in triangle_edges(t):
                if e in seen:
                    return e
                seen.add(e)
        return None

    @classmethod
    def of(cls, triangles: Iterable[tuple[int, int, int]]) -> "TrianglePacking":
        return cls(frozenset(triangle(*t) for t in triangles))

    @classmethod
    def _trusted(cls, triangles: frozenset[Triangle]) -> "TrianglePacking":
        """The packing of triangles that the caller built canonical and
        edge-disjoint; nothing is re-checked here, so a certificate holding
        it must still pass ``verify_packing``."""
        p = object.__new__(cls)
        object.__setattr__(p, "triangles", triangles)
        return p

    def __len__(self) -> int:
        return len(self.triangles)

    def sorted_triangles(self) -> list[Triangle]:
        return sorted(self.triangles)

    def used_edges(self) -> set[Edge]:
        return {e for t in self.triangles for e in triangle_edges(t)}


@dataclass(frozen=True, init=False)
class HittingSet:
    """An edge set meant to intersect every triangle of a host graph.

    The set is its per-vertex masks, which equality and hashing compare:
    bit v of ``masks[u]`` is set iff {u, v} is in the set, and trailing empty
    masks are dropped, so equal sets have equal masks whatever the host.
    The constructor takes edges in either orientation.  The frozen set of
    canonical edges is kept as given to the constructor when every edge is
    canonical, or derived from the masks on first use.
    """

    masks: tuple[int, ...]

    def __init__(self, edges: Iterable[Edge]) -> None:
        edges = frozenset(edges)
        masks = [0] * (max(map(max, edges)) + 1 if edges else 0)
        canonical = True
        for u, v in edges:
            if not 0 <= u < v:
                if u == v or u < 0 or v < 0:
                    raise ValueError(f"edge {(u, v)} is a self-loop or has a negative end")
                canonical = False
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "masks", tuple(masks))
        if canonical:
            self.__dict__["edges"] = edges
            self.__dict__["_size"] = len(edges)

    def __repr__(self) -> str:
        return f"HittingSet(edges={self.edges!r})"

    @classmethod
    def of(cls, edges: Iterable[tuple[int, int]]) -> "HittingSet":
        return cls(frozenset(edge(u, v) for u, v in edges))

    @classmethod
    def _from_masks(cls, masks: Sequence[int]) -> "HittingSet":
        """The set of the symmetric, loop-free masks that the caller has
        derived; nothing is re-checked."""
        k = len(masks)
        while k and not masks[k - 1]:
            k -= 1
        h = object.__new__(cls)
        object.__setattr__(h, "masks", tuple(masks[:k]))
        return h

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(_mask_edges(self.masks))

    @cached_property
    def _size(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) >> 1

    def __len__(self) -> int:
        return self._size

    def sorted_edges(self) -> list[Edge]:
        return _mask_edges(self.masks)


def enumerate_triangles(g: GeneralGraph) -> list[Triangle]:
    """All 3-cliques of g, each once, in lexicographic order."""
    out: list[Triangle] = []
    for u, v in sorted(g.edges):
        common = g.adj[u] & g.adj[v] & ~((1 << (v + 1)) - 1)
        for w in _bits(common):
            out.append((u, v, w))
    return out


def _out_of_range(g: GeneralGraph, v: int) -> ValueError:
    return ValueError(f"vertex id {v} out of range [0, {g.n})")


def verify_packing(
    g: GeneralGraph, p: TrianglePacking | Iterable[tuple[int, int, int]]
) -> bool:
    """True iff all triangles exist in g and are pairwise edge-disjoint.

    Accepts a TrianglePacking or a raw collection of triangles and checks
    both the same way, in one pass over g's adjacency masks: every triangle
    is put in sorted form (a repeated vertex raises ValueError), its edges
    must be in g and not in an earlier triangle.  A vertex id outside g
    raises ValueError, wherever it occurs.
    """
    tris = p.triangles if isinstance(p, TrianglePacking) else p
    adj, n = g.adj, g.n
    # used[a]: the partners b > a of the edges (a, b) already packed
    used = [0] * n
    ok = True
    for t in tris:
        a, b, c = t
        if not a < b < c:
            a, b, c = sorted(t)
            if a == b or b == c:
                raise ValueError(f"triangle vertices not distinct: {(a, b, c)}")
        if a < 0 or c >= n:
            raise _out_of_range(g, a if a < 0 else c)
        if ok:
            bc, cbit = 1 << b | 1 << c, 1 << c
            if adj[a] & bc != bc or not adj[b] & cbit or (used[a] & bc or used[b] & cbit):
                ok = False
            else:
                used[a] |= bc
                used[b] |= cbit
    return ok


def verify_hitting(
    g: GeneralGraph, h: HittingSet | Iterable[tuple[int, int]]
) -> bool:
    """True iff g minus the edge set h has no triangle.

    Accepts a HittingSet or a raw collection of edges (a self-loop raises
    ValueError there); an edge counts in either orientation, and one absent
    from g removes nothing.  A vertex id outside g raises ValueError.

    Works on g's adjacency masks in O(n + monochromatic edges) mask
    operations: clear h by mask, 2-colour the rest by breadth-first search,
    then look for a common neighbour only across the edges inside one colour
    class.  Any 2-colouring gives two vertices of a triangle the same colour,
    so every triangle has such an edge; when the rest is bipartite there is
    none to scan.
    """
    n = g.n
    rest = list(g.adj)
    if isinstance(h, HittingSet):
        hm = h.masks
        if len(hm) > n:  # the last mask is nonempty: a vertex >= n has an edge
            raise _out_of_range(g, len(hm) - 1)
        for u in range(len(hm)):
            rest[u] &= ~hm[u]
    else:
        for u, v in h:
            u, v = edge(u, v)
            if u < 0 or v >= n:
                raise _out_of_range(g, u if u < 0 else v)
            rest[u] &= ~(1 << v)
            rest[v] &= ~(1 << u)
    # BFS levels alternate colours; `even` collects the even levels
    unseen = (1 << n) - 1
    even = 0
    while unseen:
        frontier = unseen & -unseen  # the root of the next component
        parity = 0
        while frontier:
            unseen ^= frontier
            if not parity:
                even |= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rest[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & unseen
            parity ^= 1
    odd = ~even
    for u in range(n):
        ru = rest[u]
        same = ru & (even if even >> u & 1 else odd) & (-1 << (u + 1))
        while same:
            low = same & -same
            if ru & rest[low.bit_length() - 1]:
                return False
            same ^= low
    return True
