"""Constructive tau <= 2*nu certificates for even-sided co-chain graphs.

A certificate pairs a verified triangle hitting set H with a verified
edge-disjoint triangle packing P; since tau <= |H| and |P| <= nu, the check
|H| <= 2|P| witnesses tau <= 2*nu on the instance.

Guided mode drives the full case analysis on the profile (ell, m, x_ell,
x_m).  For x_ell >= ell the hitting set is T1 (all within-half edges plus
the cross edges top-ell/bot-m and bot-ell/top-m) and the packing is chosen
among the constructions P1..P12; for x_ell < ell the hitting set is T2 (all
within-half edges plus all X_ell/bot-m and X_m/top-ell edges) paired with
P13..P19.  The analysis defers a few corners to external results; those are
handled here by the portfolio and, on small instances, by the exact oracles,
never by a silent gap.

The recipes that are plain unions of clique and apex packings are declared
once, in ``casesearch.RECIPES``; ``_build`` assembles any of them from the
profile's vertex groups with ``pack_clique``/``pack_side``, and the case
search derives its profile-level bounds from the same rows.  P5', P6, P10'
(the P10 row plus an absorption scan), P18 and P19 need unused edges or a
missing edge located in the graph, and stay as code.  A recipe whose
preconditions fail raises ``RecipeInapplicable``.

Every packing is realized, not assumed: wherever the analysis asserts that
some edge or perfect matching was left unused, the construction locates one
by scanning (relabeling within a packed clique, or a scan over the unused
cross pairs) and fails if it is absent.  Guided mode checks the realized
sizes directly instead of trusting the symbolic bound chains.  ``certify``
builds the host graph once and verifies both witnesses against it once,
through ``make_certificate``, just before it returns; the constructions
below it return unverified certificates.  Recipes pass plain lists of
sorted triangles, and each certificate gets one packing object, built by
the trusted constructor without a check of its own.  A side swap relabels
the certificate by the reversal v -> n-1-v, which keeps edges and
triangles sorted; the swapped host comes from the conjugate thresholds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .casesearch import (
    F_RECIPE_IDS,
    RECIPES,
    Clique,
    Intervals,
    evaluate_case_functions,
    group_intervals,
)
from .graphs import (
    CoChainGraph,
    Edge,
    GeneralGraph,
    HittingSet,
    Triangle,
    TrianglePacking,
    edge,
    enumerate_triangles,  # noqa: F401  (perfbench's trace wraps it on this module)
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

#: a clique order bound kept for callers that still pass it as ``max_n`` to
#: ``pack_clique``; no certifier path reads it, because every order is
#: built at its Feder count
RECIPE_CLIQUE_CAP = 128

#: largest instance the exact fallback will attempt in guided mode
EXACT_FALLBACK_MAX_VERTICES = 12

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
    raw = os.environ.get(ORACLE_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_BUDGET


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
    ``certify`` calls this once per certificate; so does the CLI for a
    certificate relabeled into an input file's vertex ids.
    """
    if not verify_hitting(host, hitting):
        raise CertificationFailure(method, "hitting set does not hit all triangles")
    if not verify_packing(host, packing):
        raise CertificationFailure(method, "packing uses edges absent from the host")
    return Certificate(hitting, packing, method)


# ---------------------------------------------------------------------------
# Hitting sets T1 and T2
# ---------------------------------------------------------------------------


def _within_half_edges(g: CoChainGraph) -> list[Edge]:
    parts = (g.l_top(), g.l_bot(), g.m_top(), g.m_bot())
    return [e for part in parts for e in combinations(part, 2)]


def build_T1(g: CoChainGraph) -> HittingSet:
    """All within-half edges plus the top-ell/bot-m and bot-ell/top-m cross
    edges present in g.  A hitting set for every even-sided co-chain graph."""
    edges = _within_half_edges(g)
    n, ell = g.n, g.l_size // 2
    mid = n - g.m_size // 2  # first vertex of the bottom half of the d-side
    for u, t in enumerate(g.thresholds):
        # u sees the t most connected d's, vertices n-t..n-1
        if u < ell:
            edges.extend((u, v) for v in range(max(n - t, mid), n))
        else:
            edges.extend((u, v) for v in range(n - t, mid))
    h = HittingSet(frozenset(edges))
    prof = profile(g)
    ell, m, xl, xm = prof.as_tuple()
    if xl >= ell:
        bound = (
            ell * m
            + (xl - ell) * (xm - m)
            + 2 * (m * (m - 1) // 2)
            + 2 * (ell * (ell - 1) // 2)
        )
        if len(h) > bound:
            raise RuntimeError(f"T1 has {len(h)} edges, above {bound} at {prof}")
    return h


def build_T2(g: CoChainGraph) -> HittingSet:
    """All within-half edges plus all X_ell/bot-m and X_m/top-ell edges.

    Requires x_ell < ell; the size then equals
    2*binom(m,2) + 2*binom(ell,2) + m*x_ell + ell*x_m - x_ell*x_m exactly.
    """
    prof = profile(g)
    ell, m, xl, xm = prof.as_tuple()
    if xl >= ell:
        raise PreconditionError(f"T2 requires x_ell < ell, got profile {prof}")
    edges = _within_half_edges(g)
    edges += [(u, v) for u in g.x_l_vertices() for v in g.m_bot()]
    edges += [(u, v) for u in g.l_top() for v in g.x_m_vertices()]
    h = HittingSet(frozenset(edges))
    expected = (
        2 * (m * (m - 1) // 2)
        + 2 * (ell * (ell - 1) // 2)
        + m * xl
        + ell * xm
        - xl * xm
    )
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


def _reversed_edges(edges: frozenset[Edge], n: int) -> frozenset[Edge]:
    """edges relabeled by v -> n-1-v; sorted edges stay sorted."""
    r = n - 1
    return frozenset((r - v, r - u) for u, v in edges)


def _reversed(cert: Certificate, n: int) -> Certificate:
    """cert relabeled by the side swap's map v -> n-1-v and tagged; sorted
    triangles stay sorted, so the packing is carried over unchecked."""
    r = n - 1
    return Certificate(
        HittingSet(_reversed_edges(cert.hitting.edges, n)),
        TrianglePacking._trusted(
            frozenset((r - c, r - b, r - a) for a, b, c in cert.packing.triangles)
        ),
        cert.method + "/swapped",
    )


def _map_certificate(cert: Certificate, order: Sequence[int]) -> Certificate:
    """The same certificate with every vertex v renamed order[v]."""
    hitting = HittingSet.of((order[u], order[v]) for u, v in cert.hitting.edges)
    packing = TrianglePacking.of(
        (order[a], order[b], order[c]) for a, b, c in cert.packing.triangles
    )
    return Certificate(hitting, packing, cert.method)


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
    perm = {v: v for v in vs}

    def transpose(a: int, b: int) -> None:
        if a != b:
            for key, val in list(perm.items()):
                if val == a:
                    perm[key] = b
                elif val == b:
                    perm[key] = a

    transpose(chosen[0], target[0])
    # track where chosen[1] went under the first transposition
    second = (
        chosen[1]
        if chosen[1] not in (chosen[0], target[0])
        else (target[0] if chosen[1] == chosen[0] else chosen[0])
    )
    transpose(second, target[1])
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
    #: the profile's named vertex groups, as casesearch.group_intervals
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


def _recipe_context(g: CoChainGraph, G: GeneralGraph) -> _Ctx | None:
    """The context of g, or None when g has an odd or an empty side and so
    no recipe applies; G must be ``g.to_general()``."""
    if g.l_size % 2 or g.m_size % 2 or not (g.l_size and g.m_size):
        return None
    return _Ctx.of(g, G)


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

_F_RECIPES: list[tuple[str, Callable[[_Ctx], list[Triangle]]]] = [
    (rid, partial(_build, rid)) for rid in F_RECIPE_IDS
]

_PORTFOLIO_RECIPES: list[tuple[str, Callable[[_Ctx], list[Triangle]]]] = [
    (rid, partial(_build, rid)) for rid in RECIPES
] + list(_CODE_RECIPES.items())


# ---------------------------------------------------------------------------
# Certify: guided, portfolio, exact
# ---------------------------------------------------------------------------


def _finish(
    ctx: _Ctx, tris: list[Triangle], tag: str, hitting: HittingSet
) -> Certificate:
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


def _deferred(ctx: _Ctx, tag: str) -> Certificate:
    """Cases the analysis delegates to external results: portfolio first,
    exact oracles on small instances, otherwise an explicit failure."""
    cand = _portfolio_core(ctx.g, ctx.G, ctx)
    if cand.ratio_ok:
        recipe = cand.method.removeprefix("portfolio")
        return Certificate(cand.hitting, cand.packing, f"portfolio({tag}){recipe}")
    if ctx.G.n <= EXACT_FALLBACK_MAX_VERTICES:
        return _exact_certificate(ctx.G, f"exact-fallback({tag})")
    raise CertificationFailure(
        tag, "portfolio failed and the instance is too large for exact fallback"
    )


def _refined_T1(ctx: _Ctx) -> HittingSet:
    """T1 minus the edge c_ell d_{m+1}, valid when every triangle through it
    has its third vertex in the top-ell or bot-m half (checked at runtime)."""
    g = ctx.g
    u, v = g.c(ctx.ell), g.d(ctx.m + 1)
    safe = set(ctx.vertices("l_top") + ctx.vertices("m_bot"))
    for w in range(ctx.G.n):
        if w not in (u, v) and ctx.G.has_edge(u, w) and ctx.G.has_edge(v, w):
            if w not in safe:
                raise CertificationFailure(
                    "3.1-case1-P7-refined",
                    f"triangle through deleted edge via vertex {w} is uncovered",
                )
    return HittingSet(ctx.t1.edges - {edge(u, v)})


def _single_clique_certificate(g: CoChainGraph) -> Certificate:
    """Degenerate instances where one side is empty: the graph is one clique;
    splitting it into halves gives the hitting set."""
    side = g.side_m() if g.l_size == 0 else g.side_l()
    half = len(side) // 2
    hitting = HittingSet(
        frozenset(combinations(side[:half], 2)) | frozenset(combinations(side[half:], 2))
    )
    cert = Certificate(hitting, pack_clique(side), "degenerate-clique")
    if not cert.ratio_ok:
        raise CertificationFailure("degenerate-clique", "ratio failed")
    return cert


#: how 3.2.2 settles each exceptional profile: a bespoke recipe, the
#: small-instance route the analysis defers to Puleo's results, or the side
#: swap onto the mirror profile (2, 3, 1, 2)
_EXCEPTIONAL_ROUTES: dict[tuple[int, int, int, int], str] = {
    (1, 2, 0, 1): "deferred",
    (2, 1, 1, 0): "deferred",
    (2, 2, 1, 1): "deferred",
    (2, 5, 1, 4): "P18",
    (5, 2, 4, 1): "P18",
    (3, 4, 2, 3): "P18",
    (4, 3, 3, 2): "P18",
    (3, 6, 2, 5): "P18",
    (6, 3, 5, 2): "P18",
    (2, 3, 1, 2): "P19",
    (3, 3, 2, 1): "P19",
    (3, 2, 2, 1): "swap",
}


def _guided(
    g: CoChainGraph, G: GeneralGraph, ctx: _Ctx | None = None, depth: int = 0
) -> Certificate:
    """The case analysis on g, whose general form is G; unverified.

    ctx, if given, is the context of g; its T1 is reused.
    """
    if depth > 3:
        raise RuntimeError("guided dispatch did not terminate")
    if g.l_size % 2 or g.m_size % 2:
        raise PreconditionError(
            f"guided mode requires even sides, got ({g.l_size}, {g.m_size})"
        )
    if g.n == 0:
        return Certificate(
            HittingSet(frozenset()), TrianglePacking._trusted(frozenset()), "empty"
        )
    if g.l_size == 0 or g.m_size == 0:
        return _single_clique_certificate(g)

    ctx = _Ctx.of(g, G) if ctx is None else ctx
    ell, m, xl, xm = ctx.ell, ctx.m, ctx.xl, ctx.xm

    def swapped() -> Certificate:
        sg = swap_sides(g)[0]
        sctx = _Ctx.of(sg)
        if "t1" in vars(ctx):
            # the swap maps each side's top half onto the other side's bottom
            # half, so T1 is invariant: relabel the T1 already built
            sctx.t1 = HittingSet(_reversed_edges(ctx.t1.edges, g.n))
        return _reversed(_guided(sg, sctx.G, sctx, depth + 1), g.n)

    try:
        if xl >= ell:
            if ell == 1:
                if m <= 3:
                    return _deferred(ctx, "3.1-l1-small")
                if xl == 1:
                    return _finish(ctx, _build("P1", ctx), "3.1-l1-P1", ctx.t1)
                return _finish(ctx, _build("P2", ctx), "3.1-l1-P2", ctx.t1)
            if m == 1 or ell > m:
                return swapped()
            if xl <= m:
                return _guided_case1(ctx)
            return _guided_case2(ctx)
        # x_ell < ell
        if ell + xm > m + xl:
            return swapped()
        if xm + xl < ell - xl:
            t2 = build_T2(g)
            tris = _build("P13", ctx)
            if len(t2) <= 2 * len(tris):
                return _finish(ctx, tris, "3.2.1-P13", t2)
            return _deferred(ctx, "3.2.1-small")
        return _guided_322(ctx, swapped)
    except RecipeInapplicable as exc:
        raise CertificationFailure("guided", f"recipe preconditions failed: {exc}")


def _guided_case1(ctx: _Ctx) -> Certificate:
    """x_ell >= ell, 2 <= ell <= m, x_ell <= m."""
    ell, m, xl, xm = ctx.ell, ctx.m, ctx.xl, ctx.xm
    t1 = ctx.t1
    if xm - m >= ell:
        if xm < 2 * m or ell >= 3:
            return _finish(ctx, _build("P3", ctx), "3.1-case1-P3", t1)
        # ell == 2, x_m == 2m
        if m == 2:
            return _deferred(ctx, "3.1-case1-small")
        if xl == 2:
            return _finish(ctx, _build("P3", ctx), "3.1-case1-P3", t1)
        if xl == 3:
            return _finish(ctx, _build("P4", ctx), "3.1-case1-P4", t1)
        # x_ell == 4 == 2*ell <= m
        if m >= 5:
            return _finish(ctx, _build("P4", ctx), "3.1-case1-P4", t1)
        return _finish(ctx, _p5_prime(ctx), "3.1-case1-P5'", t1)
    # min(x_m - m, ell) = x_m - m
    if xl > ell:
        return _finish(ctx, _build("P3", ctx), "3.1-case1-P3", t1)
    # x_ell == ell
    if ell + m == 5:
        return _finish(ctx, _p6(ctx), "3.1-case1-P6", t1)
    if m - ell >= 1 or ell >= 4:
        return _finish(ctx, _build("P7", ctx), "3.1-case1-P7", t1)
    if ell == 2:  # ell == m == 2
        return _deferred(ctx, "3.1-case1-small")
    # ell == m == x_ell == 3
    if xm == 3:
        return _finish(ctx, _build("P7", ctx), "3.1-case1-P7-refined", _refined_T1(ctx))
    return _finish(ctx, _build("P8", ctx), "3.1-case1-P8", t1)


def _guided_case2(ctx: _Ctx) -> Certificate:
    """x_ell >= ell, 2 <= ell <= m, x_ell > m."""
    ell, m, xl, xm = ctx.ell, ctx.m, ctx.xl, ctx.xm
    t1 = ctx.t1
    if xm <= m + ell:  # subcase 2.1
        if m - ell >= 2:
            return _finish(ctx, _build("P3", ctx), "3.1-case2.1-P3", t1)
        if m - ell == 1:
            if xl < 2 * ell:
                return _finish(ctx, _build("P3", ctx), "3.1-case2.1-P3", t1)
            if xm - m <= ell - 1:
                return _finish(ctx, _build("P2", ctx), "3.1-case2.1-P2", t1)
            # x_m = m + ell: either the cross block is incomplete (T1 is
            # one edge smaller, realized) or X_ell union X_m is a clique
            try:
                return _finish(ctx, _build("P9", ctx), "3.1-case2.1-P9", t1)
            except RecipeInapplicable:
                return _finish(ctx, _build("P2", ctx), "3.1-case2.1-P2", t1)
        # m == ell
        if ell % 2 == 0:
            return _deferred(ctx, "3.1-case2.1-balanced-even")
        if xl > ell + 1 or xm > ell:
            return _finish(ctx, _p10_prime(ctx), "3.1-case2.1-P10'", t1)
        return _finish(ctx, _build("P11", ctx), "3.1-case2.1-P11", t1)
    # subcase 2.2: x_m > m + ell (forces m > ell)
    if m - ell >= 2:
        return _finish(ctx, _build("P12", ctx), "3.1-case2.2-P12", t1)
    # m = ell + 1, x_m = 2m
    if xl == 2 * ell:
        return _finish(ctx, _build("P12", ctx), "3.1-case2.2-P12", t1)
    return _finish(ctx, _build("P4", ctx), "3.1-case2.2-P4", t1)


def _guided_322(ctx: _Ctx, swapped: Callable[[], Certificate]) -> Certificate:
    """x_ell < ell, ell + x_m <= m + x_ell, x_m + x_ell >= ell - x_ell."""
    g = ctx.g
    prof = (ctx.ell, ctx.m, ctx.xl, ctx.xm)
    if ctx.ell > 10 or ctx.m > 10:
        return _finish(ctx, _build("P13", ctx), "3.2.2-P13", build_T2(g))
    report = evaluate_case_functions(profile(g))
    if report.passing:
        idx = max(report.passing, key=lambda i: (report.f_values[i], -i))
        tag, fn = _F_RECIPES[idx]
        return _finish(ctx, fn(ctx), f"3.2.2-{tag}", build_T2(g))
    # the exceptional profiles
    route = _EXCEPTIONAL_ROUTES.get(prof)
    if route in _CODE_RECIPES:
        return _finish(ctx, _CODE_RECIPES[route](ctx), f"3.2.2-{route}", build_T2(g))
    if route == "deferred":
        return _deferred(ctx, "3.2.2-small")
    if route == "swap":
        return swapped()
    raise CertificationFailure(
        "3.2.2-unexpected-exceptional", f"no construction for profile {prof}"
    )


def _portfolio_core(
    g: CoChainGraph, G: GeneralGraph, ctx: _Ctx | None = None
) -> Certificate:
    """Best hitting set and best packing over every applicable construction
    on g, whose general form is G; unverified, and the ratio may fail.

    ctx, if given, is the context of g; its T1 is reused.
    """
    hittings: list[tuple[str, HittingSet]] = []
    packings: list[tuple[str, list[Triangle]]] = [("trivial", [])]
    adj = G.adj
    if not any(adj[u] & adj[v] for u, v in G.edges):
        hittings.append(("trivial", HittingSet(frozenset())))
    else:
        hittings.append(("all-edges", HittingSet(G.edges)))
    ctx = _recipe_context(g, G) if ctx is None else ctx
    if ctx is not None:
        hittings.append(("T1", ctx.t1))
        if ctx.xl < ctx.ell:
            hittings.append(("T2", build_T2(g)))
        for tag, fn in _PORTFOLIO_RECIPES:
            try:
                tris = fn(ctx)
            except RecipeInapplicable:
                continue
            packings.append((tag, tris))
    else:
        # no recipe applies; the two sides are vertex-disjoint cliques
        tris = _clique_triangles(g.side_l()) + _clique_triangles(g.side_m())
        packings.append(("side-cliques", tris))
    h_tag, best_h = min(hittings, key=lambda th: (len(th[1]), th[0]))
    p_tag, best_p = max(packings, key=lambda tp: (len(tp[1]), tp[0]))
    return Certificate(
        best_h, TrianglePacking._trusted(frozenset(best_p)), f"portfolio[{p_tag}+{h_tag}]"
    )


def certify(g: CoChainGraph, mode: str = "guided") -> Certificate:
    """Produce a (hitting set, packing) certificate for tau <= 2*nu.

    guided    -- dispatch the case analysis on the profile; raises
                 CertificationFailure rather than returning ratio_ok=False.
    portfolio -- try everything applicable, return min-hitting + max-packing
                 (ratio_ok may be False).
    exact     -- optimal tau and nu witnesses from the oracles.

    In every mode both witnesses are checked against g once, here, and a
    witness that fails the check raises CertificationFailure.
    """
    G = g.to_general()
    if mode == "guided":
        cert = _guided(g, G)
    elif mode == "portfolio":
        ctx = _recipe_context(g, G)
        candidates = [_portfolio_core(g, G, ctx)]
        try:
            candidates.append(_guided(g, G, ctx))
        except (PreconditionError, CertificationFailure):
            pass
        best_h = min((c.hitting for c in candidates), key=len)
        best_p = max((c.packing for c in candidates), key=len)
        cert = Certificate(best_h, best_p, "portfolio")
    elif mode == "exact":
        cert = _exact_certificate(G, "exact")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return make_certificate(G, cert.hitting, cert.packing, cert.method)
