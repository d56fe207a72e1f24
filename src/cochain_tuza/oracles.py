"""Exact branch-and-bound oracles for tau and nu on small graphs.

These solvers are the independent ground truth that every certificate is
checked against, so they deliberately use no result from the constructive
modules.  Upper bounds for the packing search come from edge counts and the
degree bound sum_v floor(deg(v)/2) (each triangle at v consumes two edges at
v).  Lower bounds for the hitting search are the largest of three: a greedy
packing of edge-disjoint uncovered triangles; greedy vertex-disjoint cliques
of the remaining graph, each scored by tau(K_r) = C(r, 2) - floor(r^2 / 4);
and Mantel's bound on the live edges, those still in an uncovered triangle.
The hitting search starts from the better of two feasible hitting sets: a
greedy one, and the triangle edges inside the two sides of a local-search
maximum cut, which is optimal on complete and near-complete graphs.

Both searches are complete: nu branches on the lowest-index undecided edge
(use it in one of its remaining triangles, or never use it), tau branches on
an uncovered triangle with the fewest removable edges, keeping already-tried
edges to avoid symmetric duplicates.  A node budget caps the total work; on
exhaustion the best feasible witness found so far is returned with
proven=False, never a false optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    GeneralGraph,
    HittingSet,
    TrianglePacking,
    enumerate_triangles,
)

DEFAULT_BUDGET = 10**8


@dataclass
class ExactResult:
    value: int
    witness: TrianglePacking | HittingSet
    explored: int
    proven: bool


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int) -> None:
        self.left = limit

    def tick(self) -> bool:
        self.left -= 1
        return self.left >= 0


def _edge_index(g: GeneralGraph) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    edges = sorted(g.edges)
    return edges, {e: i for i, e in enumerate(edges)}


def exact_nu(g: GeneralGraph, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Maximum triangle packing size, with an optimal packing as witness."""
    tris = enumerate_triangles(g)
    if not tris:
        return ExactResult(0, TrianglePacking(frozenset()), 0, True)
    edges, eidx = _edge_index(g)
    n_edges = len(edges)
    full = (1 << n_edges) - 1
    tri_masks = []
    for a, b, c in tris:
        tri_masks.append(
            1 << eidx[(a, b)] | 1 << eidx[(a, c)] | 1 << eidx[(b, c)]
        )
    edge_tris: list[list[int]] = [[] for _ in range(n_edges)]
    for ti, mask in enumerate(tri_masks):
        m = mask
        while m:
            low = m & -m
            edge_tris[low.bit_length() - 1].append(ti)
            m ^= low
    vmask = [0] * g.n
    for i, (u, v) in enumerate(edges):
        vmask[u] |= 1 << i
        vmask[v] |= 1 << i

    # greedy incumbent: lexicographic first-fit
    best: list[int] = []
    used = 0
    for ti, mask in enumerate(tri_masks):
        if not mask & used:
            best.append(ti)
            used |= mask
    best_size = len(best)

    bgt = _Budget(budget)
    aborted = False

    def upper(dead: int, count: int) -> int:
        free = n_edges - (dead & full).bit_count()
        ub1 = count + free // 3
        degsum = sum((vmask[v] & ~dead).bit_count() // 2 for v in range(g.n))
        return min(ub1, count + degsum // 3)

    def dfs(used: int, excluded: int, chosen: list[int]) -> None:
        nonlocal best, best_size, aborted
        if aborted:
            return
        if not bgt.tick():
            aborted = True
            return
        dead = used | excluded
        # propagate: skip edges with no remaining triangle, find branch edge
        e = 0
        feasible: list[int] = []
        while e < n_edges:
            bit = 1 << e
            if not dead & bit:
                feasible = [
                    ti for ti in edge_tris[e] if not tri_masks[ti] & dead
                ]
                if feasible:
                    break
                excluded |= bit
                dead |= bit
            e += 1
        if e == n_edges:
            if len(chosen) > best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        if upper(dead, len(chosen)) <= best_size:
            return
        for ti in feasible:
            chosen.append(ti)
            dfs(used | tri_masks[ti], excluded, chosen)
            chosen.pop()
            if aborted:
                return
        dfs(used, excluded | (1 << e), chosen)

    dfs(0, 0, [])
    witness = TrianglePacking.of(tris[ti] for ti in best)
    return ExactResult(best_size, witness, budget - bgt.left, not aborted)


# -- exact tau --------------------------------------------------------------


def tau_complete(r: int) -> int:
    """tau(K_r) = C(r, 2) - floor(r^2 / 4).

    By Mantel's theorem a triangle-free graph on r vertices has at most
    floor(r^2 / 4) edges, so every hitting set of K_r removes at least the
    rest; removing the edges inside both halves of a balanced bipartition
    removes exactly that many.
    """
    return r * (r - 1) // 2 - r * r // 4


def _greedy_cliques(adj: list[int], vertices: int) -> list[int]:
    """Greedy vertex-disjoint cliques (sizes >= 3) in the graph given by adj."""
    sizes = []
    avail = vertices
    while avail:
        best_v, best_d = -1, -1
        m = avail
        while m:
            low = m & -m
            v = low.bit_length() - 1
            d = (adj[v] & avail).bit_count()
            if d > best_d:
                best_v, best_d = v, d
            m ^= low
        clique = 1 << best_v
        cand = adj[best_v] & avail
        size = 1
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            clique |= low
            size += 1
            cand &= adj[w]
        avail &= ~clique
        if size >= 3:
            sizes.append(size)
    return sizes


def _max_cut_sides(adj: list[int]) -> int:
    """Local-search maximum cut from the empty side: a vertex mask whose every
    vertex has at least as many neighbours across the cut as on its own side."""
    side = 0
    moved = True
    while moved:  # each move grows the cut, so this terminates
        moved = False
        for v, nbrs in enumerate(adj):
            own = side if side >> v & 1 else ~side
            if 2 * (nbrs & own).bit_count() > nbrs.bit_count():
                side ^= 1 << v
                moved = True
    return side


def exact_tau(g: GeneralGraph, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Minimum triangle hitting size, with an optimal hitting set as witness.

    Branch and bound over edge removals; a node's uncovered triangles are
    exactly the triangles of the graph with its removed edges deleted.

    Mantel bound: let E_L be the edges that lie in an uncovered triangle and
    V_L their endpoints.  Every triangle of the graph (V_L, E_L) is uncovered,
    so a hitting set H leaves E_L minus H triangle-free on |V_L| vertices,
    which by Mantel's theorem has at most floor(|V_L|^2 / 4) edges: at least
    |E_L| - floor(|V_L|^2 / 4) more edges must go.

    Bipartite incumbent: no triangle has all three edges across a cut, so the
    triangle edges inside the two sides hit every triangle.
    """
    tris = enumerate_triangles(g)
    if not tris:
        return ExactResult(0, HittingSet(frozenset()), 0, True)
    edges, eidx = _edge_index(g)
    n_edges = len(edges)
    tri_edge_ids = []
    tri_masks = []
    tri_verts = []
    edge_tris = [0] * n_edges  # bitmask of the triangles through each edge
    for ti, (a, b, c) in enumerate(tris):
        ids = (eidx[(a, b)], eidx[(a, c)], eidx[(b, c)])
        tri_edge_ids.append(ids)
        tri_masks.append((1 << ids[0]) | (1 << ids[1]) | (1 << ids[2]))
        tri_verts.append((1 << a) | (1 << b) | (1 << c))
        for e in ids:
            edge_tris[e] |= 1 << ti
    all_tris = (1 << len(tris)) - 1

    # greedy incumbent: repeatedly remove the edge in most uncovered triangles
    alive = all_tris
    greedy: list[int] = []
    while alive:
        e_best, most = -1, 0
        for e in range(n_edges):
            hits = (edge_tris[e] & alive).bit_count()
            if hits > most:
                e_best, most = e, hits
        greedy.append(e_best)
        alive &= ~edge_tris[e_best]

    # bipartite incumbent: the triangle edges inside the sides of a cut
    tri_adj = [0] * g.n
    for e in range(n_edges):
        if edge_tris[e]:
            u, v = edges[e]
            tri_adj[u] |= 1 << v
            tri_adj[v] |= 1 << u
    side = _max_cut_sides(tri_adj)
    bipartite = [
        e
        for e in range(n_edges)
        if edge_tris[e] and (side >> edges[e][0] & 1) == (side >> edges[e][1] & 1)
    ]
    best = min(greedy, bipartite, key=len)
    best_size = len(best)

    bgt = _Budget(budget)
    aborted = False
    removed: list[int] = []

    def dfs(unc: int, kept_mask: int, adj: list[int]) -> None:
        nonlocal best, best_size, aborted
        if not bgt.tick():
            aborted = True
            return
        depth = len(removed)
        if not unc:
            if depth < best_size:
                best = list(removed)
                best_size = depth
            return
        room = best_size - depth  # a bound >= room prunes this node
        if room <= 1:
            return  # an uncovered triangle needs one more edge
        # one pass over the uncovered triangles: an edge-disjoint greedy
        # packing, the live edges and vertices, and the branch triangle
        # (fail-first: fewest removable edges)
        used = packed = live_e = live_v = 0
        pick, pick_free = -1, 4
        m = unc
        while m:
            low = m & -m
            ti = low.bit_length() - 1
            m ^= low
            tm = tri_masks[ti]
            live_e |= tm
            live_v |= tri_verts[ti]
            if not tm & used:
                used |= tm
                packed += 1
            free = 3 - (tm & kept_mask).bit_count()
            if free < pick_free:
                if free == 0:
                    return  # all its edges are kept: infeasible branch
                pick, pick_free = ti, free
        if packed >= room:
            return
        r = live_v.bit_count()
        if live_e.bit_count() - r * r // 4 >= room:
            return
        if sum(tau_complete(s) for s in _greedy_cliques(adj, live_v)) >= room:
            return
        branch_edges = [
            e for e in tri_edge_ids[pick] if not kept_mask & (1 << e)
        ]
        branch_edges.sort(key=lambda e: -(edge_tris[e] & unc).bit_count())
        kept_here = 0
        for e in branch_edges:
            u, v = edges[e]
            child = adj.copy()
            child[u] &= ~(1 << v)
            child[v] &= ~(1 << u)
            removed.append(e)
            dfs(unc & ~edge_tris[e], kept_mask | kept_here, child)
            removed.pop()
            if aborted:
                return
            kept_here |= 1 << e

    dfs(all_tris, 0, list(g.adj))
    witness = HittingSet.of(edges[e] for e in best)
    return ExactResult(best_size, witness, budget - bgt.left, not aborted)
