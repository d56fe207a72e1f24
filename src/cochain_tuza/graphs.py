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

The public constructors check what they are given: ``GeneralGraph(n, edges)``
range-checks every edge, and ``TrianglePacking(...)`` rejects triangles that
share an edge.  Code inside the package builds witnesses it constructs
canonical and disjoint by design (``CoChainGraph.to_general``, clique and
apex packings, the certifier's recipes) through trusted constructors that
skip those checks; ``certify.make_certificate`` then checks each returned
witness once, with ``verify_hitting`` and ``verify_packing``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

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
        return frozenset(
            (u, v)
            for u in range(self.n)
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1))
        )

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

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

    def swapped(self) -> "CaseProfile":
        """Profile of the same graph with the two sides exchanged."""
        return CaseProfile(self.m, self.ell, self.x_m, self.x_ell)


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

    def to_general(self) -> GeneralGraph:
        """The graph on vertices 0..n-1, its masks computed from the
        thresholds, which the constructor has checked."""
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
        return GeneralGraph._from_masks(tuple(masks))

    # -- even-sided structure ------------------------------------------------

    def _require_even(self) -> None:
        if self.l_size % 2 or self.m_size % 2:
            raise ValueError(
                f"even side sizes required, got ({self.l_size}, {self.m_size})"
            )

    def l_top(self) -> tuple[int, ...]:
        self._require_even()
        return tuple(range(self.l_size // 2))

    def l_bot(self) -> tuple[int, ...]:
        self._require_even()
        return tuple(range(self.l_size // 2, self.l_size))

    def m_top(self) -> tuple[int, ...]:
        self._require_even()
        return tuple(range(self.l_size, self.l_size + self.m_size // 2))

    def m_bot(self) -> tuple[int, ...]:
        self._require_even()
        return tuple(range(self.l_size + self.m_size // 2, self.n))

    def x_l_vertices(self) -> tuple[int, ...]:
        """X_ell: c's adjacent to the whole bottom half of the d-side (a prefix)."""
        self._require_even()
        m = self.m_size // 2
        return tuple(i for i, t in enumerate(self.thresholds) if t >= m)

    def x_m_vertices(self) -> tuple[int, ...]:
        """X_m: d's adjacent to the whole top half of the c-side (a suffix)."""
        self._require_even()
        if self.l_size == 0:
            return self.side_m()
        t_ell = self.thresholds[self.l_size // 2 - 1]
        return tuple(range(self.n - t_ell, self.n))


def build_cochain(
    l_size: int, m_size: int, thresholds: Iterable[int]
) -> CoChainGraph:
    """Construct a co-chain graph, rejecting invalid threshold sequences."""
    return CoChainGraph(l_size, m_size, tuple(thresholds))


def profile(g: CoChainGraph) -> CaseProfile:
    """Case parameters (ell, m, x_ell, x_m) of an even-sided co-chain graph."""
    g._require_even()
    ell, m = g.l_size // 2, g.m_size // 2
    x_ell = len(g.x_l_vertices())
    x_m = len(g.x_m_vertices())
    return CaseProfile(ell, m, x_ell, x_m)


# ---------------------------------------------------------------------------
# Triangle packings and hitting sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrianglePacking:
    """A set of pairwise edge-disjoint triangles."""

    triangles: frozenset[Triangle]

    def __post_init__(self) -> None:
        seen: set[Edge] = set()
        for t in sorted(triangle(*t) for t in self.triangles):
            for e in triangle_edges(t):
                if e in seen:
                    raise ValueError(f"triangles share edge {e}")
                seen.add(e)

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


@dataclass(frozen=True)
class HittingSet:
    """An edge set meant to intersect every triangle of a host graph."""

    edges: frozenset[Edge]

    @classmethod
    def of(cls, edges: Iterable[tuple[int, int]]) -> "HittingSet":
        return cls(frozenset(edge(u, v) for u, v in edges))

    def __len__(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


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
    from g removes nothing.  A vertex id outside g raises ValueError.  One
    pass over g's adjacency masks: clear h's edges, then look for a
    remaining edge whose ends keep a common neighbor.
    """
    edges_h = h.edges if isinstance(h, HittingSet) else [edge(u, v) for u, v in h]
    masks = list(g.adj)
    n = g.n
    for u, v in edges_h:
        if not (0 <= u < n and 0 <= v < n):
            raise _out_of_range(g, v if 0 <= u < n else u)
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
    for u in range(n):
        mu = masks[u]
        higher = mu >> (u + 1) << (u + 1)
        while higher:
            low = higher & -higher
            if mu & masks[low.bit_length() - 1]:
                return False
            higher ^= low
    return True
