"""Exact branch-and-bound oracles for tau and nu on small graphs.

These solvers are the independent ground truth that every certificate is
checked against, so they deliberately use no result from the constructive
modules.  Both keep the triangles still in play as a bitmask and branch
fail-first.  The packing search branches on the live edge in the fewest
alive triangles (pack one of them, or exclude the edge) and bounds what is
left by the live edges and live degrees.  The hitting search branches on an
uncovered triangle with the fewest free edges, prunes with a greedy packing
that is disjoint on free edges, with Mantel's bound on the edges still in an
uncovered triangle and with Mantel's bound on each clique of an
edge-disjoint clique cover, and starts from the better of a greedy hitting
set and the triangle edges inside the sides of a local-search maximum cut,
which is optimal on complete and near-complete graphs.  Its greedy packing
takes the triangles through a kept edge first: they have fewer free edges,
so they block fewer of the others.  The order moves only that bound, never
the branch triangle or the branch order, so the witnesses are those of an
index-order packing; greedy is not monotone in its order, so at a single
node the bound can come out one weaker, though in total it prunes more.
It skips a branch that a swap of two true twins (equal closed
neighbourhoods) maps onto an earlier sibling; it finds the twins in its
input graph itself, so it works on any graph, co-chain or not.  A node budget caps the total work; on
exhaustion the best feasible witness found so far is returned with
proven=False, never a false optimum, and ``explored`` counts the nodes
expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    Edge,
    GeneralGraph,
    HittingSet,
    Triangle,
    TrianglePacking,
    _bits,
    edge,
    enumerate_triangles,
)

DEFAULT_BUDGET = 10**8


@dataclass
class ExactResult:
    value: int
    witness: TrianglePacking | HittingSet
    explored: int
    proven: bool


@lru_cache(maxsize=1)
def _incidence(
    g: GeneralGraph,
) -> tuple[
    tuple[Triangle, ...],
    tuple[Edge, ...],
    tuple[tuple[int, int, int], ...],
    tuple[int, ...],
    tuple[int, ...],
]:
    """Both oracles' incidence: the triangles of g in lexicographic order, its
    sorted edges (edge i is bit i), each triangle abc as its edge indices
    (ab, ac, bc), which ascend, and as the mask of those edges, and each edge
    as the mask of the triangles through it.

    Callers run the two oracles back to back on one graph, so the last
    graph's incidence is kept; it is all tuples, so no caller can change it.
    """
    tris = enumerate_triangles(g)
    edges = g.edge_list()
    eidx = {e: i for i, e in enumerate(edges)}
    tri_edges = []
    tri_masks = []
    edge_tris = [0] * len(edges)
    for ti, (a, b, c) in enumerate(tris):
        ab, ac, bc = eidx[(a, b)], eidx[(a, c)], eidx[(b, c)]
        tri_edges.append((ab, ac, bc))
        tri_masks.append(1 << ab | 1 << ac | 1 << bc)
        bit = 1 << ti
        edge_tris[ab] |= bit
        edge_tris[ac] |= bit
        edge_tris[bc] |= bit
    return (
        tuple(tris),
        tuple(edges),
        tuple(tri_edges),
        tuple(tri_masks),
        tuple(edge_tris),
    )


def exact_nu(g: GeneralGraph, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Maximum triangle packing size, with an optimal packing as witness.

    A node's state is the bitmask of its alive triangles, those that share
    no edge with a packed triangle and contain no excluded edge.  Its live
    edges are the edges of alive triangles; every triangle the node can still
    add uses three live edges, two of them at each of its vertices, so it
    adds at most min(|live edges| // 3, sum_v floor(live_deg(v) / 2) // 3).
    """
    tris, edges, tri_edges, tri_masks, edge_tris = _incidence(g)
    if not tris:
        return ExactResult(0, TrianglePacking(frozenset()), 0, True)
    # conflict[t]: the triangles sharing an edge with t, t included
    conflict = [edge_tris[a] | edge_tris[b] | edge_tris[c] for a, b, c in tri_edges]
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

    left = budget  # nodes the search may still expand
    aborted = False
    chosen: list[int] = []

    def dfs(alive: int) -> None:
        nonlocal best, best_size, aborted, left
        if left <= 0:
            aborted = True
            return
        left -= 1
        count = len(chosen)
        if not alive:
            if count > best_size:
                best = list(chosen)
                best_size = count
            return
        live_e = 0
        m = alive
        while m:
            low = m & -m
            live_e |= tri_masks[low.bit_length() - 1]
            m ^= low
        room = best_size - count  # a bound <= room prunes this node
        if live_e.bit_count() // 3 <= room:
            return
        if sum((vm & live_e).bit_count() // 2 for vm in vmask) // 3 <= room:
            return
        # fail-first: the live edge in the fewest alive triangles
        pick_tris, fewest = 0, len(tris) + 1
        m = live_e
        while m:
            low = m & -m
            e = low.bit_length() - 1
            m ^= low
            through = edge_tris[e] & alive
            k = through.bit_count()
            if k < fewest:
                pick_tris, fewest = through, k
                if k == 1:
                    break
        # pack the triangle that kills the fewest alive ones first, so good
        # packings (and tight incumbents) are found early
        for ti in sorted(
            _bits(pick_tris), key=lambda t: (conflict[t] & alive).bit_count()
        ):
            chosen.append(ti)
            dfs(alive & ~conflict[ti])
            chosen.pop()
            if aborted:
                return
        dfs(alive & ~pick_tris)

    dfs((1 << len(tris)) - 1)
    witness = TrianglePacking.of(tris[ti] for ti in best)
    return ExactResult(best_size, witness, budget - left, not aborted)


# -- exact tau --------------------------------------------------------------


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


def _twin_classes(adj: tuple[int, ...]) -> list[int]:
    """Each vertex's true-twin class, named by its least vertex: true twins
    have equal closed neighbourhoods, so they are adjacent, and exchanging
    two of them is an automorphism of the graph."""
    first: dict[int, int] = {}
    return [first.setdefault(nbrs | 1 << v, v) for v, nbrs in enumerate(adj)]


def _clique_cover(adj: list[int], edge_bit: dict[Edge, int]) -> list[tuple[int, int]]:
    """Edge-disjoint cliques of the graph adj, as (edge mask, floor(q^2 / 4))
    for a clique on q vertices: greedily, a maximal clique grown from the
    vertex of highest degree that still lies on a triangle of the edges not
    yet taken, each step adding the candidate with the most candidate
    neighbours, until the edges left hold no triangle."""
    rest = list(adj)
    cover = []
    while True:
        start, most = -1, 0
        for v, nbrs in enumerate(rest):
            if nbrs.bit_count() > most and any(rest[w] & nbrs for w in _bits(nbrs)):
                start, most = v, nbrs.bit_count()
        if start < 0:
            return cover
        clique, cand = [start], rest[start]
        while cand:
            w = max(_bits(cand), key=lambda u: (rest[u] & cand).bit_count())
            clique.append(w)
            cand &= rest[w]
        mask = 0
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                mask |= edge_bit[edge(u, v)]
                rest[u] &= ~(1 << v)
                rest[v] &= ~(1 << u)
        cover.append((mask, len(clique) ** 2 // 4))


def exact_tau(g: GeneralGraph, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Minimum triangle hitting size, with an optimal hitting set as witness.

    Branch and bound over edge removals; a node's uncovered triangles are
    exactly the triangles of the graph with its removed edges deleted.  A
    node is its removed edge set R and its kept edge set K, the edges that
    an earlier sibling branch of it or of an ancestor removed, which are
    never removed below it.  So the subtree of a node holds the hitting sets
    H with R in H and K disjoint from H.

    Twin rule: let x and y be true twins (equal closed neighbourhoods) and
    corners of the branch triangle xyz, such that for every other vertex w,
    R holds xw exactly when it holds yw, and so does K.  The swap (x y) is
    then an automorphism that fixes R and K and maps yz to xz.  If xz comes first among the
    branches, the swap maps every H of the branch "remove yz" (which keeps
    xz and every earlier branch edge) to a hitting set of the same size in
    the branch "remove xz": xy, the only other earlier branch edge, is fixed.
    So the later branch is skipped, and its edge is still kept by the
    siblings that follow it.  Among the fail-first ties the branch triangle
    is one with two twin corners, where there is one.

    Packing bound: kept edges are never removed below a node, so each
    uncovered triangle needs one of its free edges removed.  Triangles whose
    free edges are pairwise disjoint need distinct removed edges, so a
    greedy set of them is a lower bound on the edges still to remove.  The
    greedy pass takes the triangles through a kept edge first (a node
    carries their mask beside K), then the rest, each group in index order:
    a triangle with one or two free edges blocks fewer others.  A triangle
    has fewer than three free edges exactly when it holds a kept edge, so
    the fail-first pick, the first triangle with the fewest free edges in
    index order, is the same in both orders, and the twin rule and the
    branch order read only the pick, R, K and the uncovered triangles.  The
    tree is therefore the index-order one, and a valid bound prunes only
    subtrees without a better hitting set, so the incumbents, the value and
    the witness are those of any other valid bound.  Greedy is not monotone
    in its order, so at a single node this packing can come out one smaller
    than the index-order one; over a search it prunes more.  The pass
    returns as soon as its count reaches the room under the incumbent:
    after the kept-edge triangles, or at any fresh triangle it packs (the
    pick is fixed before the fresh ones).  The count only grows along the
    pass, so a node is pruned exactly when the whole pass would prune it.

    Mantel bound: let E_L be the edges that lie in an uncovered triangle and
    V_L their endpoints.  Every triangle of the graph (V_L, E_L) is uncovered,
    so a hitting set H leaves E_L minus H triangle-free on |V_L| vertices,
    which by Mantel's theorem has at most floor(|V_L|^2 / 4) edges: at least
    |E_L| - floor(|V_L|^2 / 4) more edges must go.

    Clique bound: the root splits the triangle edges greedily into
    edge-disjoint cliques.  H leaves at most floor(|Q|^2 / 4) edges of a
    clique Q, so it removes at least |E(Q) minus R| - floor(|Q|^2 / 4) more
    of them, and the cliques share no edge, so these counts add up.

    Bipartite incumbent: no triangle has all three edges across a cut, so the
    triangle edges inside the two sides hit every triangle.
    """
    tris, edges, tri_edges, tri_masks, edge_tris = _incidence(g)
    if not tris:
        return ExactResult(0, HittingSet(frozenset()), 0, True)
    n_edges = len(edges)
    tri_verts = [1 << a | 1 << b | 1 << c for a, b, c in tris]
    all_tris = (1 << len(tris)) - 1

    # greedy incumbent: repeatedly remove the edge in most uncovered triangles
    alive = all_tris
    greedy: list[int] = []
    while alive:
        hits = [(et & alive).bit_count() for et in edge_tris]
        e_best = hits.index(max(hits))
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

    cliques = _clique_cover(tri_adj, {e: 1 << i for i, e in enumerate(edges)})
    twin = _twin_classes(g.adj)
    # the triangles with two twin corners, which fail-first ties prefer
    twin_tris = 0
    for ti, (a, b, c) in enumerate(tris):
        if twin[a] == twin[b] or twin[a] == twin[c] or twin[b] == twin[c]:
            twin_tris |= 1 << ti
    # per branch triangle, built when the search first branches on it: its
    # corner pairs (x, y) of true twins, each with the later of its edges xz
    # and yz.  Where the twin rule applies, the swap fixes the uncovered
    # triangles, so the two edges tie in the sort key of the branch order,
    # and the stable sort keeps them in edge order
    twin_pairs: dict[int, list[tuple[int, int, int]]] = {}
    # bit w of removed_at[v] (kept_at[v]): the edge vw is removed (kept) at
    # the node the search is in; set on the way down, cleared on the way up
    removed_at = [0] * g.n
    kept_at = [0] * g.n

    left = budget  # nodes the search may still expand
    aborted = False

    def dfs(unc: int, kept_mask: int, kept_tris: int, removed_mask: int) -> None:
        nonlocal best, best_size, aborted, left
        if left <= 0:
            aborted = True
            return
        left -= 1
        depth = removed_mask.bit_count()
        if not unc:
            if depth < best_size:
                best = list(_bits(removed_mask))
                best_size = depth
            return
        room = best_size - depth  # a bound >= room prunes this node
        if room <= 1:
            return  # an uncovered triangle needs one more edge
        need = 0
        for mask, keep in cliques:
            over = (mask & ~removed_mask).bit_count() - keep
            if over > 0:
                need += over
        if need >= room:
            return
        # one pass over the uncovered triangles, those through a kept edge
        # first: a greedy packing disjoint on free edges, the live edges and
        # vertices, and the branch triangle (fail-first: fewest free edges,
        # then one with two twin corners)
        used = packed = live_e = live_v = 0
        pick, pick_free = -1, 3
        free_mask = ~kept_mask
        m = unc & kept_tris
        while m:
            low = m & -m
            ti = low.bit_length() - 1
            m ^= low
            tm = tri_masks[ti]
            live_e |= tm
            live_v |= tri_verts[ti]
            fm = tm & free_mask
            if not fm & used:
                used |= fm
                packed += 1
            free = fm.bit_count()
            if free < pick_free:
                if free == 0:
                    return  # all its edges are kept: infeasible branch
                pick, pick_free = ti, free
        if packed >= room:
            return
        fresh = unc & ~kept_tris  # all three edges free
        if pick < 0:
            pick = (fresh & -fresh).bit_length() - 1
        m = fresh
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
                if packed >= room:
                    return
        r = live_v.bit_count()
        if live_e.bit_count() - r * r // 4 >= room:
            return
        if not twin_tris >> pick & 1:  # a tie with two twin corners wins
            # only fresh triangles have three free edges
            if pick_free == 3:
                m = fresh & twin_tris
                if m:
                    pick = (m & -m).bit_length() - 1
            else:
                m = unc & kept_tris & twin_tris
                while m:
                    low = m & -m
                    ti = low.bit_length() - 1
                    m ^= low
                    if (tri_masks[ti] & free_mask).bit_count() == pick_free:
                        pick = ti
                        break
        pairs = twin_pairs.get(pick)
        if pairs is None:
            a, b, c = tris[pick]
            ab, ac, bc = tri_edges[pick]
            pairs = twin_pairs[pick] = [
                (x, y, max(e1, e2))
                for x, y, e1, e2 in ((a, b, ac, bc), (a, c, ab, bc), (b, c, ab, ac))
                if twin[x] == twin[y]
            ]
        skip = 0  # the branch edges the twin rule skips
        for x, y, later in pairs:
            bx, by = 1 << x, 1 << y
            if (
                removed_at[x] & ~by == removed_at[y] & ~bx
                and kept_at[x] & ~by == kept_at[y] & ~bx
            ):
                skip |= 1 << later
        branch_edges = list(_bits(tri_masks[pick] & free_mask))
        branch_edges.sort(key=lambda e: -(edge_tris[e] & unc).bit_count())
        kept_here = kt = 0  # kt: the triangles through an edge of kept_here
        for e in branch_edges:
            u, v = edges[e]
            if not skip >> e & 1:
                removed_at[u] ^= 1 << v
                removed_at[v] ^= 1 << u
                dfs(
                    unc & ~edge_tris[e],
                    kept_mask | kept_here,
                    kept_tris | kt,
                    removed_mask | 1 << e,
                )
                removed_at[u] ^= 1 << v
                removed_at[v] ^= 1 << u
                if aborted:
                    break
            kept_here |= 1 << e
            kt |= edge_tris[e]
            kept_at[u] ^= 1 << v
            kept_at[v] ^= 1 << u
        for e in _bits(kept_here):
            u, v = edges[e]
            kept_at[u] ^= 1 << v
            kept_at[v] ^= 1 << u

    dfs(all_tris, 0, 0, 0)
    witness = HittingSet.of(edges[e] for e in best)
    return ExactResult(best_size, witness, budget - left, not aborted)
