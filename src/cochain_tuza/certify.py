"""Constructive tau <= 2*nu certificates for even-sided co-chain graphs.

A certificate pairs a verified triangle hitting set H with a verified
edge-disjoint triangle packing P; since tau <= |H| and |P| <= nu, the check
|H| <= 2|P| witnesses tau <= 2*nu on the instance.

Guided mode drives the full case analysis on the profile (ell, m, x_ell,
x_m).  ``_route`` is that analysis as a function of the profile alone: it
names the case and the leaf (an ordered tuple of recipe ids, the side swap,
the refined P7 or "small"), and ``_guided`` settles every recipe leaf with
one loop: the first recipe that builds and reaches |H| <= 2|P| is the
certificate, else ``CertificationFailure``; no profile is scored at run
time.  The hitting set follows the section: for x_ell >= ell (Section 3.1)
it is T1 (the edges inside A = top-ell + bot-m and inside B = bot-ell +
top-m), paired with P1..P12; for x_ell < ell (Section 3.2) it is T2 (all
within-half edges plus all X_ell/bot-m and X_m/top-ell edges), paired with
P13..P19.  Both are built as vertex masks in O(n) from
``recipes.group_intervals``, the one statement of the halves and the X
sets.  The analysis defers a few finite corners (sides <= 6) to external
results; ``_guided`` settles each such "small" leaf with the largest packing
any recipe builds against the section's hitting set, both polished when
their ratio fails, never by a silent gap and never through the portfolio.

Portfolio mode (``_portfolio``), the fallback outside the paper's even
sides, takes the smallest of a list of candidate hitting sets and the
largest of a list of candidate packings, guided's among them; the ratio may
fail.  Guided and portfolio modes call no exact oracle; only exact mode
does, and only it raises ``BudgetExhausted``.

The recipes that are plain unions of clique and apex packings are declared
once, in ``recipes.RECIPES``, and the case search derives its
profile-level bounds from the same rows.  P5', P6, P10' (the P10 row plus
an absorption scan), P18 and P19 need unused edges or a missing edge
located in the graph, and stay as code in ``_CODE_RECIPES``.  ``_build``
builds either kind by id, a table row from the profile's vertex groups with
``_clique_triangles``/``_side_triangles``.  A recipe whose preconditions
fail raises ``RecipeInapplicable``.

Every packing is realized, not assumed: wherever the analysis asserts that
some edge or perfect matching was left unused, the construction locates one
by scanning (relabeling within a packed clique, or a scan over the unused
cross pairs) and fails if it is absent.  Guided mode checks the realized
sizes directly instead of trusting the symbolic bound chains.  ``certify``
builds the host graph once and verifies both witnesses against it once,
through ``make_certificate``, just before it returns; the constructions
below it return unverified certificates.  On an edge list the one check is
against the input graph, after the certificate of the recognized co-chain
graph is relabeled into its vertex ids.  Recipes pass plain lists of
sorted triangles, and each certificate gets one packing object, built by
the trusted constructor without a check of its own.  A side swap builds the
packing on the mirror graph (the conjugate thresholds) and relabels only
its triangles by the reversal v -> n-1-v, which keeps them sorted; the
reversal maps the mirror's T1 and T2 onto g's own, so the hitting set is
always g's.  The check of the hitting set costs O(n + monochromatic edges)
mask operations (see ``graphs.verify_hitting``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .casesearch import (
    evaluate_case_functions,  # noqa: F401  (perfbench's trace wraps it on this module)
)
from .graphs import (
    CoChainGraph,
    Edge,
    GeneralGraph,
    HittingSet,
    Triangle,
    TrianglePacking,
    _bits,
    edge,
    enumerate_triangles,
    profile,
    triangle,
    triangle_edges,
    verify_hitting,
    verify_packing,
)
from .oracles import DEFAULT_BUDGET, exact_nu, exact_tau
from .packings import (
    _clique_triangles,
    _side_triangles,
    feder_count,
    pack_clique,
    pack_side,  # noqa: F401  (perfbench's trace wraps it on this module)
)
from .recipes import (
    EXCEPTIONAL_ROUTES,
    F_RECIPE_IDS,
    RECIPES,
    Clique,
    Intervals,
    group_intervals,
    t2_size,
)
from .recognition import RecognitionFailure, recognize_cochain

#: a clique order bound kept for callers that still pass it as ``max_n`` to
#: ``pack_clique``; no certifier path reads it, because every order is
#: built at its Feder count
RECIPE_CLIQUE_CAP = 128

ORACLE_BUDGET_ENV = "COCHAIN_TUZA_ORACLE_BUDGET"


class PreconditionError(ValueError):
    """A mode was invoked outside its stated preconditions."""


class CertificationFailure(RuntimeError):
    """No valid certificate was produced; names the failing case."""

    def __init__(self, case: str, details: str = "") -> None:
        self.case = case
        self.details = details
        super().__init__(f"{case}: {details}" if details else case)


class BudgetExhausted(CertificationFailure):
    """An exact oracle ran out of its node budget before proving optimality."""


class RecipeInapplicable(Exception):
    """A packing recipe's structural preconditions do not hold here."""


def oracle_budget() -> int:
    """The oracle node budget: COCHAIN_TUZA_ORACLE_BUDGET, a nonnegative
    integer (else ``PreconditionError``), if set, else ``DEFAULT_BUDGET``."""
    raw = os.environ.get(ORACLE_BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise PreconditionError(f"{ORACLE_BUDGET_ENV} must be a nonnegative integer, got {raw!r}")


@dataclass(frozen=True)
class Certificate:
    hitting: HittingSet
    packing: TrianglePacking
    method: str

    @property
    def h_size(self) -> int:
        return len(self.hitting)

    @property
    def p_size(self) -> int:
        return len(self.packing)

    @property
    def ratio_ok(self) -> bool:
        return self.h_size <= 2 * self.p_size


def make_certificate(
    host: GeneralGraph,
    hitting: HittingSet,
    packing: TrianglePacking,
    method: str,
) -> Certificate:
    """The certificate of two witnesses, after checking both against the host.

    Raises ``CertificationFailure`` naming ``method`` if the hitting set
    misses a triangle of the host or the packing uses an edge it lacks.
    ``certify`` calls this once per certificate.
    """
    if not verify_hitting(host, hitting):
        raise CertificationFailure(method, "hitting set does not hit all triangles")
    if not verify_packing(host, packing):
        raise CertificationFailure(method, "packing uses edges absent from the host")
    return Certificate(hitting, packing, method)


# ---------------------------------------------------------------------------
# Hitting sets T1 and T2
# ---------------------------------------------------------------------------


def _group_mask(groups: dict[str, Intervals], name: str) -> int:
    """The vertex mask of a group of ``group_intervals`` (disjoint intervals)."""
    return sum((1 << hi) - (1 << lo) for lo, hi in groups[name])


def build_T1(g: CoChainGraph) -> HittingSet:
    """The edges of g inside A = top-ell + bot-m and inside B = bot-ell +
    top-m: all within-half edges plus the top-ell/bot-m and bot-ell/top-m
    cross edges present in g.  A hitting set for every even-sided co-chain
    graph, as masks in O(n) from the adjacency masks and the halves of
    ``group_intervals``; with one side empty it splits the other side's
    clique into its halves."""
    prof = profile(g)
    ell, m, xl, xm = prof.as_tuple()
    groups = group_intervals(ell, m, xl, xm)
    a = _group_mask(groups, "l_top") | _group_mask(groups, "m_bot")
    b = ((1 << g.n) - 1) ^ a
    h = HittingSet._from_masks(
        [mask & (a if a >> u & 1 else b) for u, mask in enumerate(g.adjacency_masks())]
    )
    if xl >= ell:
        bound = ell * m + (xl - ell) * (xm - m) + m * (m - 1) + ell * (ell - 1)
        if len(h) > bound:
            raise RuntimeError(f"T1 has {len(h)} edges, above {bound} at {prof}")
    return h


def build_T2(g: CoChainGraph) -> HittingSet:
    """All within-half edges plus all X_ell/bot-m and X_m/top-ell edges, as
    masks in O(n) from the groups of ``group_intervals``.

    Requires x_ell < ell; the size then equals ``recipes.t2_size``
    exactly.
    """
    prof = profile(g)
    if prof.x_ell >= prof.ell:
        raise PreconditionError(f"T2 requires x_ell < ell, got profile {prof}")
    groups = group_intervals(*prof.as_tuple())
    l_top, l_bot, m_top, m_bot, x_l, x_m = (
        _group_mask(groups, name)
        for name in ("l_top", "l_bot", "m_top", "m_bot", "X_ell", "X_m")
    )
    masks = []
    for u in range(g.n):
        bit = 1 << u
        if bit & l_top:
            mask = l_top | x_m | (m_bot if bit & x_l else 0)
        elif bit & l_bot:
            mask = l_bot | (m_bot if bit & x_l else 0)
        elif bit & m_top:
            mask = m_top | (l_top if bit & x_m else 0)
        else:
            mask = m_bot | x_l | (l_top if bit & x_m else 0)
        masks.append(mask ^ bit)
    h = HittingSet._from_masks(masks)
    expected = t2_size(prof)
    if len(h) != expected:
        raise RuntimeError(f"T2 has {len(h)} edges, not {expected} at {prof}")
    return h


# ---------------------------------------------------------------------------
# Side swap (exchanging the roles of the two cliques)
# ---------------------------------------------------------------------------


def swap_sides(g: CoChainGraph) -> tuple[CoChainGraph, tuple[int, ...]]:
    """The same graph with sides exchanged, plus the new->old vertex map.

    The new threshold sequence is the conjugate partition of the old one.
    The map is the reversal v -> n-1-v: d_M, ..., d_1 become the new c's and
    c_L, ..., c_1 the new d's.
    """
    L, M = g.l_size, g.m_size
    new_t = []
    k = L  # the thresholds are nonincreasing: count those >= i from the end
    for i in range(1, M + 1):
        while k and g.thresholds[k - 1] < i:
            k -= 1
        new_t.append(k)
    return CoChainGraph(M, L, tuple(new_t)), tuple(range(L + M - 1, -1, -1))


def _map_certificate(cert: Certificate, order: Sequence[int]) -> Certificate:
    """The same certificate with every vertex v renamed order[v].

    order is a bijection, so the renamed witnesses are again a hitting set
    and an edge-disjoint packing; they are built canonical without a check,
    and ``make_certificate`` on the renamed host is the one check.
    """
    masks = [0] * len(order)
    for u, mask in enumerate(cert.hitting.masks):
        image = 0
        for v in _bits(mask):
            image |= 1 << order[v]
        masks[order[u]] = image
    packing = TrianglePacking._trusted(
        frozenset(
            triangle(order[a], order[b], order[c]) for a, b, c in cert.packing.triangles
        )
    )
    return Certificate(HittingSet._from_masks(masks), packing, cert.method)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _used_edges(tris: Iterable[Triangle]) -> set[Edge]:
    out: set[Edge] = set()
    for a, b, c in tris:
        out.update(((a, b), (a, c), (b, c)))
    return out


def _clique_packing(ctx: "_Ctx", verts: Sequence[int]) -> list[Triangle]:
    vs = sorted(set(verts))
    if not ctx.G.is_clique(vs):
        raise RecipeInapplicable(f"vertices {vs} do not induce a clique")
    return _clique_triangles(vs)


def _side_packing(
    host: GeneralGraph, S: Iterable[int], K: Iterable[int]
) -> list[Triangle]:
    try:
        return _side_triangles(S, K, host)
    except ValueError as exc:
        raise RecipeInapplicable(str(exc)) from exc


def _clique_packing_unused_at(
    ctx: "_Ctx", verts: Sequence[int], target: Edge
) -> list[Triangle]:
    """Pack the clique on verts, relabeled so the target pair stays unused.

    Any permutation of the clique's vertices maps packings to packings, so an
    unused edge found by scanning can be moved onto the requested pair.
    """
    vs = sorted(set(verts))
    target = edge(*target)
    if target[0] not in vs or target[1] not in vs:
        raise ValueError(f"target pair {target} not inside the clique")
    return _free_pair(vs, _clique_packing(ctx, vs), target)


def _transposition(a: int, b: int) -> Callable[[int], int]:
    """The permutation exchanging the values a and b."""
    return lambda v: b if v == a else a if v == b else v


def _free_pair(
    vs: Sequence[int], tris: list[Triangle], target: Edge
) -> list[Triangle]:
    """tris, a packing of the clique on vs, relabeled so that the pair target
    is unused; raises CertificationFailure if tris uses every pair."""
    used = _used_edges(tris)
    leave = [edge(u, v) for u, v in combinations(vs, 2) if edge(u, v) not in used]
    if not leave:
        raise CertificationFailure(
            "unused-edge-scan", f"clique on {len(vs)} vertices has no unused edge"
        )
    chosen = target if target in leave else leave[0]
    # t1 = (chosen[0] target[0]), then t2 = (t1(chosen[1]) target[1]): the
    # composite sends chosen[0] to target[0] and chosen[1] to target[1]
    t1 = _transposition(chosen[0], target[0])
    t2 = _transposition(t1(chosen[1]), target[1])
    perm = {v: t2(t1(v)) for v in vs}
    mapped = [triangle(perm[a], perm[b], perm[c]) for a, b, c in tris]
    if target in _used_edges(mapped):
        raise RuntimeError(f"relabeling failed to free the pair {target}")
    return mapped


# ---------------------------------------------------------------------------
# The packing recipes
# ---------------------------------------------------------------------------


@dataclass
class _Ctx:
    g: CoChainGraph
    G: GeneralGraph
    ell: int
    m: int
    xl: int
    xm: int
    #: the profile's named vertex groups, as recipes.group_intervals
    groups: dict[str, Intervals]

    @classmethod
    def of(cls, g: CoChainGraph, G: GeneralGraph | None = None) -> "_Ctx":
        """The context of g; G, if given, must be ``g.to_general()``."""
        prof = profile(g).as_tuple()
        G = g.to_general() if G is None else G
        return cls(g, G, *prof, group_intervals(*prof))

    def vertices(self, group: str) -> tuple[int, ...]:
        return tuple(v for lo, hi in self.groups[group] for v in range(lo, hi))

    @cached_property
    def t1(self) -> HittingSet:
        """``build_T1(g)``, built at most once per context."""
        return build_T1(self.g)

    @cached_property
    def t2(self) -> HittingSet:
        """``build_T2(g)``, built at most once per context."""
        return build_T2(self.g)


def _term_packings(rid: str, ctx: _Ctx) -> list[list[Triangle]]:
    """Build the table recipe ``rid``: one packing per term, in table order."""
    recipe = RECIPES[rid]
    if recipe.applies is not None and not recipe.applies(
        ctx.ell, ctx.m, ctx.xl, ctx.xm
    ):
        raise RecipeInapplicable(f"{rid} needs {recipe.needs}")
    parts = []
    for term in recipe.terms:
        if isinstance(term, Clique):
            parts.append(_clique_packing(ctx, ctx.vertices(term.group)))
        else:
            parts.append(
                _side_packing(
                    ctx.G, ctx.vertices(term.apexes), ctx.vertices(term.clique)
                )
            )
    return parts


def _build(rid: str, ctx: _Ctx) -> list[Triangle]:
    """Build recipe ``rid``: a ``_CODE_RECIPES`` entry, or a ``RECIPES`` row."""
    if rid in _CODE_RECIPES:
        return _CODE_RECIPES[rid](ctx)
    return [t for part in _term_packings(rid, ctx) for t in part]


def _extend(
    ctx: _Ctx, base: list[Triangle], extra: list[Triangle], tag: str
) -> list[Triangle]:
    """base plus extra triangles whose edges are in the host and unused."""
    used = _used_edges(base)
    for t in extra:
        for e_ in triangle_edges(t):
            if not ctx.G.has_edge(*e_) or e_ in used:
                raise RecipeInapplicable(f"{tag}: edge {e_} unavailable")
            used.add(e_)
    return base + extra


def _p5_prime(ctx: _Ctx) -> list[Triangle]:
    # ell = 2, m = 4, x_ell = 2*ell, x_m = 2*m
    if not (ctx.ell == 2 and ctx.m == 4 and ctx.xl == 4 and ctx.xm == 8):
        raise RecipeInapplicable("P5' needs profile (2, 4, 4, 8)")
    g = ctx.g
    c1, c2, c3, c4 = g.c(1), g.c(2), g.c(3), g.c(4)
    d_last = g.d(g.m_size)
    base = _clique_packing_unused_at(ctx, ctx.vertices("l_top+X_m"), (c1, c2))
    return _extend(
        ctx, base, [triangle(c1, c2, c3), triangle(c3, c4, d_last)], "P5'"
    )


def _two_cliques_plus_two(
    ctx: _Ctx, bridge_j: int, pair_j: tuple[int, int], tag: str
) -> list[Triangle]:
    """Shared body of P6 and P19: pack both side cliques, then add the two
    triangles {c1, c2, d_bridge} and {c1, d_pair} over relabeled unused edges."""
    if ctx.ell < 2 or ctx.m < 3:
        raise RecipeInapplicable(f"{tag} needs ell >= 2 and m >= 3")
    g = ctx.g
    c1, c2 = g.c(1), g.c(2)
    pair_d = (g.d(pair_j[0]), g.d(pair_j[1]))
    base = _clique_packing_unused_at(
        ctx, ctx.vertices("side_l"), (c1, c2)
    ) + _clique_packing_unused_at(ctx, ctx.vertices("side_m"), pair_d)
    extra = [triangle(c1, c2, g.d(bridge_j)), triangle(c1, *pair_d)]
    return _extend(ctx, base, extra, tag)


def _p6(ctx: _Ctx) -> list[Triangle]:
    # bridge through the least-connected bottom vertex, pair at the top end
    return _two_cliques_plus_two(ctx, ctx.m + 1, (2 * ctx.m - 1, 2 * ctx.m), "P6")


def _p10_prime(ctx: _Ctx) -> list[Triangle]:
    """P10 extended by one triangle per X_m vertex above the bottom half.

    Each extra triangle {c, d', dd} takes an unused top-ell/bot-m edge c-d'
    and an unused within-m edge d'-dd.  For odd halves the unused cross edges
    form perfect matchings (one bye per apex of the near-1-factorization);
    for even halves they form stars at the one unassigned apex.  A scan finds
    them either way; without them the recipe does not apply.
    """
    tris = _build("P10", ctx)
    xm_high = ctx.vertices("X_m-m_bot")
    if not xm_high:
        return tris
    used = _used_edges(tris)
    m_bot, l_top = ctx.vertices("m_bot"), ctx.vertices("l_top")
    for dd in xm_high:
        placed = False
        for d_bot in reversed(m_bot):
            if (edge(d_bot, dd) in used) or not ctx.G.has_edge(d_bot, dd):
                continue
            for c in l_top:
                e1, e2, e3 = edge(c, d_bot), edge(d_bot, dd), edge(c, dd)
                if (
                    ctx.G.has_edge(*e1)
                    and ctx.G.has_edge(*e3)
                    and e1 not in used
                    and e3 not in used
                ):
                    used.update((e1, e2, e3))
                    tris.append(triangle(c, d_bot, dd))
                    placed = True
                    break
            if placed:
                break
        if not placed:
            raise RecipeInapplicable(f"P10': no unused edge pair to absorb vertex {dd}")
    return tris


def _p18(ctx: _Ctx) -> list[Triangle]:
    # K_ell-top union K_m-bot is a clique minus exactly one edge here
    g = ctx.g
    if not (ctx.ell - ctx.xl == 1 and ctx.m - ctx.xm == 1):
        raise RecipeInapplicable("P18 needs ell - x_ell = 1 and m - x_m = 1")
    missing = edge(g.c(ctx.ell), g.d(ctx.m + 1))
    if ctx.G.has_edge(*missing):
        raise RuntimeError(f"P18: edge {missing} present although x_ell = ell - 1")
    l_top, m_bot = ctx.vertices("l_top"), ctx.vertices("m_bot")
    verts = l_top + m_bot
    for u, v in combinations(verts, 2):
        if (u, v) != missing and not ctx.G.has_edge(u, v):
            raise RecipeInapplicable(f"P18: extra missing edge {(u, v)}")
    full = _clique_triangles(verts)  # l_top and m_bot: sorted, distinct
    if feder_count(len(verts)).k:
        # an unused pair exists; moved onto the missing edge, it costs no
        # triangle, whatever the triangles of the clique packing are
        full = _free_pair(verts, full, missing)
    near = [t for t in full if not (missing[0] in t and missing[1] in t)]
    return (
        near
        + _side_packing(ctx.G, m_bot, ctx.vertices("m_top"))
        + _side_packing(ctx.G, l_top, ctx.vertices("l_bot"))
    )


def _p19(ctx: _Ctx) -> list[Triangle]:
    if ctx.xl < 1 or ctx.xm < 1:
        raise RecipeInapplicable("P19 needs nonempty X_ell and X_m")
    return _two_cliques_plus_two(ctx, 2 * ctx.m, (ctx.m + 1, ctx.m + 2), "P19")


#: the recipes that are not a plain union of table terms
_CODE_RECIPES: dict[str, Callable[[_Ctx], list[Triangle]]] = {
    "P5'": _p5_prime,
    "P6": _p6,
    "P10'": _p10_prime,
    "P18": _p18,
    "P19": _p19,
}


# ---------------------------------------------------------------------------
# Certify: guided, portfolio, exact
# ---------------------------------------------------------------------------


def _finish(tris: Iterable[Triangle], tag: str, hitting: HittingSet) -> Certificate:
    cert = Certificate(hitting, TrianglePacking._trusted(frozenset(tris)), tag)
    if not cert.ratio_ok:
        raise CertificationFailure(
            tag, f"realized sizes violate the ratio: |H|={cert.h_size}, |P|={cert.p_size}"
        )
    return cert


def _exact_certificate(G: GeneralGraph, tag: str) -> Certificate:
    budget = oracle_budget()
    r_tau = exact_tau(G, budget)
    if not r_tau.proven:
        raise BudgetExhausted(tag, "oracle budget exhausted")
    r_nu = exact_nu(G, budget)
    if not r_nu.proven:
        raise BudgetExhausted(tag, "oracle budget exhausted")
    if not isinstance(r_tau.witness, HittingSet):
        raise CertificationFailure(tag, "tau oracle returned no hitting set")
    if not isinstance(r_nu.witness, TrianglePacking):
        raise CertificationFailure(tag, "nu oracle returned no packing")
    return Certificate(r_tau.witness, r_nu.witness, tag)


def _polish(
    G: GeneralGraph, hitting: HittingSet, tris: list[Triangle]
) -> tuple[list[Triangle], HittingSet]:
    """tris extended to a maximal packing, first fit over the triangles of
    G, and hitting cut down to a minimal hitting set, by dropping edges in
    sorted order while every triangle keeps an edge."""
    packing = list(tris)
    used = _used_edges(packing)
    through: dict[Edge, list[Triangle]] = {}
    for t in enumerate_triangles(G):
        edges = triangle_edges(t)
        if used.isdisjoint(edges):
            packing.append(t)
            used.update(edges)
        for e in edges:
            through.setdefault(e, []).append(t)
    kept = set(hitting.edges)
    for e in sorted(hitting.edges):
        kept.discard(e)
        if any(kept.isdisjoint(triangle_edges(t)) for t in through.get(e, ())):
            kept.add(e)
    return packing, HittingSet(frozenset(kept))


def _largest_packing(ctx: _Ctx) -> tuple[str, list[Triangle]]:
    """The largest packing over "trivial" and every applicable recipe, as
    (id, triangles); a tie goes to the greater id."""
    packings: list[tuple[str, list[Triangle]]] = [("trivial", [])]
    for rid in (*RECIPES, *_CODE_RECIPES):
        try:
            packings.append((rid, _build(rid, ctx)))
        except RecipeInapplicable:
            continue
    return max(packings, key=lambda tp: (len(tp[1]), tp[0]))


def _refined_T1(ctx: _Ctx) -> HittingSet:
    """T1 minus the edge c_ell d_{m+1}, valid when every triangle through it
    has its third vertex in the top-ell or bot-m half (checked at runtime)."""
    u, v = ctx.g.c(ctx.ell), ctx.g.d(ctx.m + 1)
    safe = _group_mask(ctx.groups, "l_top") | _group_mask(ctx.groups, "m_bot")
    unsafe = ctx.G.adj[u] & ctx.G.adj[v] & ~safe
    if unsafe:
        w = (unsafe & -unsafe).bit_length() - 1
        raise CertificationFailure(
            "3.1-case1-P7-refined",
            f"triangle through deleted edge via vertex {w} is uncovered",
        )
    masks = list(ctx.t1.masks)
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    return HittingSet._from_masks(masks)


Leaf = str | tuple[str, ...]


def _route(ell: int, m: int, xl: int, xm: int) -> tuple[str, Leaf]:
    """The case and the leaf the analysis reaches at a profile with
    ell, m >= 1; it reads the profile alone.

    A leaf is a tuple of recipe ids, tried in order until one reaches the
    ratio, "swap" (route the mirror profile (m, ell, x_m, x_ell) and relabel
    its packings), "small" (a finite corner the analysis defers) or
    "P7-refined" (P7 with T1 minus one edge).  Section 3.1 (x_ell >= ell)
    pairs its recipes with T1; Section 3.2 pairs the T2 recipes
    ``F_RECIPE_IDS`` with T2, except at the profiles of
    ``EXCEPTIONAL_ROUTES``, whose entry is the leaf.
    """
    if xl >= ell:
        if ell == 1:
            if m <= 3:
                return "3.1-l1", "small"
            return "3.1-l1", ("P1",) if xl == 1 else ("P2",)
        if m == 1 or ell > m:
            return "3.1", "swap"
        if xl <= m:
            return "3.1-case1", _case1(ell, m, xl, xm)
        if xm <= m + ell:
            return "3.1-case2.1", _case21(ell, m, xl, xm)
        # subcase 2.2: x_m > m + ell forces m > ell; at m = ell + 1, x_m = 2m
        return "3.1-case2.2", ("P12",) if m - ell >= 2 or xl == 2 * ell else ("P4",)
    if ell + xm > m + xl:
        return "3.2", "swap"
    case = "3.2.1" if xm + xl < ell - xl else "3.2.2"
    return case, EXCEPTIONAL_ROUTES.get((ell, m, xl, xm), F_RECIPE_IDS)


def _case1(ell: int, m: int, xl: int, xm: int) -> Leaf:
    """x_ell >= ell, 2 <= ell <= m, x_ell <= m."""
    if xm - m >= ell:
        if xm < 2 * m or ell >= 3:
            return ("P3",)
        # ell == 2, x_m == 2m
        if m == 2:
            return "small"
        if xl == 2:
            return ("P3",)
        # x_ell is 3, or 4 == 2*ell <= m
        return ("P4",) if xl == 3 or m >= 5 else ("P5'",)
    # min(x_m - m, ell) = x_m - m
    if xl > ell:
        return ("P3",)
    # x_ell == ell
    if ell + m == 5:
        return ("P6",)
    if m - ell >= 1 or ell >= 4:
        return ("P7",)
    if ell == 2:  # ell == m == 2
        return "small"
    # ell == m == x_ell == 3
    return "P7-refined" if xm == 3 else ("P8",)


def _case21(ell: int, m: int, xl: int, xm: int) -> Leaf:
    """x_ell >= ell, 2 <= ell <= m, x_ell > m, x_m <= m + ell."""
    if m - ell >= 2:
        return ("P3",)
    if m - ell == 1:
        if xl < 2 * ell:
            return ("P3",)
        # P9 needs X_ell + X_m to be a clique; else the cross block is
        # incomplete and P2 settles it
        return ("P2",) if xm - m <= ell - 1 else ("P9", "P2")
    # m == ell
    return ("P10'",) if ell % 2 == 0 or xl > ell + 1 or xm > ell else ("P11",)


def _guided(g: CoChainGraph, G: GeneralGraph, ctx: _Ctx | None = None) -> Certificate:
    """The case analysis on g, whose general form is G; unverified.

    ``_route`` picks the leaf from the profile.  A recipe leaf is settled
    by one loop: each recipe is built in order, an inapplicable one is
    skipped, and the first whose realized packing reaches |H| <= 2|P|
    against the section's hitting set is the certificate; if none does,
    ``CertificationFailure`` names the case and the profile.  A "small"
    leaf pairs ``_largest_packing`` with that hitting set, ``_polish``ed if
    short of the ratio.  The graph decides only which recipe of the leaf
    that is, and whether the refined T1 covers the triangles through its
    dropped edge.  The hitting set is always g's own T1 or T2: a "swap"
    leaf routes the mirror profile once, builds that leaf's packings on the
    mirror graph and relabels only their triangles by v -> n-1-v, which
    maps the mirror's T1 and T2 onto g's.  ctx, if given, is the context of
    g; its T1 and T2 are reused.
    """
    if g.l_size % 2 or g.m_size % 2:
        raise PreconditionError(
            f"guided mode requires even sides, got ({g.l_size}, {g.m_size})"
        )
    if g.n == 0:
        return Certificate(
            HittingSet(frozenset()), TrianglePacking._trusted(frozenset()), "empty"
        )
    if g.l_size == 0 or g.m_size == 0:
        # the graph is one clique, and T1 splits it into its halves
        side = g.side_m() if g.l_size == 0 else g.side_l()
        return _finish(pack_clique(side).triangles, "degenerate-clique", build_T1(g))

    ctx = _Ctx.of(g, G) if ctx is None else ctx
    hitting = ctx.t1 if ctx.xl >= ctx.ell else ctx.t2
    pctx, suffix, r = ctx, "", g.n - 1
    case, leaf = _route(ctx.ell, ctx.m, ctx.xl, ctx.xm)
    if leaf == "swap":
        pctx, suffix = _Ctx.of(swap_sides(g)[0]), "/swapped"
        case, leaf = _route(pctx.ell, pctx.m, pctx.xl, pctx.xm)
        if leaf == "swap":
            raise RuntimeError("guided dispatch swapped sides twice")

    def in_g(tris: list[Triangle]) -> Iterable[Triangle]:
        """Triangles built on pctx, in g's labels (sorted ones stay sorted)."""
        return ((r - c, r - b, r - a) for a, b, c in tris) if pctx is not ctx else tris

    if leaf == "small":
        rid, tris = _largest_packing(pctx)
        tris, tag = list(in_g(tris)), f"{case}-small[{rid}]"
        if len(hitting) > 2 * len(tris):
            tris, hitting = _polish(ctx.G, hitting, tris)
            tag += "+polish"
        return _finish(tris, tag + suffix, hitting)
    if leaf == "P7-refined":
        # reached at (3, 3, 3, 3) only, which never swaps
        hitting, rids, tag = _refined_T1(ctx), ("P7",), f"{case}-{leaf}"
    else:
        rids, tag = leaf, ""
    for rid in rids:
        try:
            tris = _build(rid, pctx)
        except RecipeInapplicable:
            continue
        if len(hitting) <= 2 * len(tris):
            return Certificate(
                hitting,
                TrianglePacking._trusted(frozenset(in_g(tris))),
                (tag or f"{case}-{rid}") + suffix,
            )
    raise CertificationFailure(
        case,
        f"no recipe of {rids} reaches |H| <= 2|P| at profile "
        f"{(pctx.ell, pctx.m, pctx.xl, pctx.xm)}",
    )


def _portfolio(g: CoChainGraph, G: GeneralGraph) -> Certificate:
    """The smallest hitting set and the largest packing among the candidates
    on g, whose general form is G; unverified, and the ratio may fail.

    The hitting sets are T1 and T2 (when x_ell < ell) if both sides are
    even and nonempty, the empty set if G is triangle-free (else every
    edge) and guided's; the packings are the largest recipe packing (the
    two side cliques when a side is odd or empty) and guided's.  The first
    smallest (largest) in that order wins.
    """
    hittings: list[HittingSet] = []
    ctx: _Ctx | None = None
    if g.l_size and g.m_size and not (g.l_size % 2 or g.m_size % 2):
        ctx = _Ctx.of(g, G)
        hittings.append(ctx.t1)
        if ctx.xl < ctx.ell:
            hittings.append(ctx.t2)
        packings = [_largest_packing(ctx)[1]]
    else:
        # no recipe applies; the two sides are vertex-disjoint cliques
        packings = [_clique_triangles(g.side_l()) + _clique_triangles(g.side_m())]
    adj = G.adj
    # an edge (u, v), u < v, with a common neighbour is a triangle
    if any(
        adj[u] & adj[v]
        for u, mask in enumerate(adj)
        for v in _bits(mask >> (u + 1) << (u + 1))
    ):
        hittings.append(HittingSet._from_masks(adj))
    else:
        hittings.append(HittingSet(frozenset()))
    try:
        cert = _guided(g, G, ctx)
        hittings.append(cert.hitting)
        packings.append(list(cert.packing.triangles))
    except (PreconditionError, CertificationFailure):
        pass
    best_p = max(packings, key=len)
    return Certificate(
        min(hittings, key=len), TrianglePacking._trusted(frozenset(best_p)), "portfolio"
    )


def certify(g: CoChainGraph | GeneralGraph, mode: str = "guided") -> Certificate:
    """Produce a (hitting set, packing) certificate for tau <= 2*nu.

    guided    -- dispatch the case analysis on the profile; raises
                 CertificationFailure rather than returning ratio_ok=False.
    portfolio -- the smallest hitting set and the largest packing among the
                 candidates of ``_portfolio``, guided's certificate among
                 them whenever guided mode settles g (ratio_ok may be False).
    exact     -- optimal tau and nu witnesses from the oracles.

    A ``GeneralGraph`` (an edge list) is first recognized as a co-chain
    graph, else PreconditionError; the certificate of the recognized graph
    comes back in g's own vertex labels.  In every mode both witnesses are
    checked against g once, here, and a witness that fails the check raises
    CertificationFailure.
    """
    host = order = None
    if isinstance(g, GeneralGraph):
        recognized = recognize_cochain(g)
        if isinstance(recognized, RecognitionFailure):
            raise PreconditionError(
                f"input is not a co-chain graph ({recognized.reason}; "
                f"witness {recognized.witness})"
            )
        host, g, order = g, recognized.graph, recognized.vertex_order
    G = g.to_general()
    if mode == "guided":
        cert = _guided(g, G)
    elif mode == "portfolio":
        cert = _portfolio(g, G)
    elif mode == "exact":
        cert = _exact_certificate(G, "exact")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if order is not None:
        cert, G = _map_certificate(cert, order), host
    return make_certificate(G, cert.hitting, cert.packing, cert.method)
