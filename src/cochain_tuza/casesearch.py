"""The packing-recipe table, the exhaustive case search over (ell, m, x_ell,
x_m), and the inequality audit.

A packing recipe is a union of clique packings p(K_n) and apex-over-matching
packings p(S, K) over named vertex groups (top and bottom halves, X_ell,
X_m and a few derived groups).  ``RECIPES`` declares each pure-term recipe
once: an optional profile precondition plus its terms ``Clique(group)`` and
``Side(S, K)``.  ``group_intervals`` maps a profile to every group's
vertices as half-open intervals of vertex ids, so the one declaration gives
both the construction (the certifier packs the intervals' vertices) and the
profile-level lower bound (the interval lengths feed the count bounds).

For profiles with x_ell < ell the certificate pairs the hitting set T2 with
one of the eight T2 recipes (P13, P14, P15^l, P15^m, P16^l, P16^m, P17^l,
P17^m).  Scaling by 6 keeps all arithmetic in integers: f_i = 6*|P_recipe| -
3*|T2|, and a recipe settles a profile when f_i > -3 (then 2|P| - |T2| >= 0
by integrality).

The search enumerates all constrained profiles with ell, m <= limit and
collects the tuples where every f_i fails.  Which exact lower-bound variant
goes into each term is not fully pinned by the analysis, so the variant
choice is explicit here (BoundStrategy) and the search can report the
outcome under every variant instead of silently picking one:

* clique terms: "exact" uses the exact deficiency k(n) of the maximum
  packing of K_n (these packings are constructed, so the recipe realizes the
  value); "universal" uses the all-n bound (binom(n,2) - n/2 - 3/2)/3;
  "observation" uses the best of the three always-valid relaxations.
* apex terms: with the even-|K| form enabled, p(S, K) is scored as
  max((|K|-1)/2 * min(|S|, |K|), [|K| even] |K|/2 * min(|S|, |K|-1)),
  exactly what the matching-assignment construction realizes.

The default strategy (exact cliques, even form on) reproduces the published
list of 12 exceptional tuples; the audit report also evaluates the others.
``EXCEPTIONAL_ROUTES`` maps each to the certifier's leaf for it (the recipe
P18 or P19, the "small" deferral or the "swap"); ``EXPECTED_EXCEPTIONAL`` is
its key set.

``_domain_violation`` defines the search domain and guards the input of
``evaluate_case_functions``.  ``_row_domain`` is its closed form: on each
(ell, m) row it lists x_ell < ell and, for each, the interval of x_m the
three conditions leave, in the filter's order, so the search and the
audit's 3.2.2 chain visit only domain profiles; the tests check the two
against each other on every row up to 40.  Two scorers turn group sizes
into f-values.  The reference, ``evaluate_case_functions``, reads the group
table at its one profile and sums each recipe's term bounds, every distinct
term scored once.  ``search_exceptional`` tabulates its strategy's bounds
up to 2*limit (no group is larger) and scores whole rows: each group size
is one affine form in (ell, m, x_ell, x_m) on the box x_ell <= ell,
x_m <= m, fixed by five reads of the group table per call, so which
f-recipe terms vary with (x_ell, x_m) is decided once per call.  A row
evaluates the forms at (ell, m), checks them by one more read, scores its
constant terms and keeps the others as (base, per x_ell, per x_m) planes;
each profile then walks the recipes in order, scoring only the varying
terms of the recipe at hand, and stops at the first that passes (almost
always P13, whose two half-packings are row constants).  Nothing is kept
between calls.

``audit_inequalities`` replays every displayed inequality chain of the case
analysis step by step over its case-condition range, in exact arithmetic,
and reports each violated step.  Every step returns its two sides as
``int``s: where the displayed chain divides, the step declares the common
denominator d and returns both sides times d.  A step under a guard
returns None where the guard fails.  A step's signature names the leading
parameters it reads; one that reads fewer than its domain's tuples hold is
evaluated once per distinct prefix, and its value stands for every tuple
under that prefix.  A recorded violation stores the full parameter tuple
and both sides as ``Fraction`` (divided by d).  Violations indicate slack
in a written chain, never in a certificate: the certifier checks realized
sizes directly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Callable, Iterable, Iterator

from .graphs import CaseProfile
from .packings import feder_count

#: the published exceptional profiles, each settled by the recipe P18 or P19,
#: by the small-instance route the analysis defers to Puleo's results, or by
#: the side swap onto the mirror (2, 3, 1, 2); each value is the certifier's
#: leaf for the profile, a recipe leaf being a tuple of recipe ids
EXCEPTIONAL_ROUTES: dict[tuple[int, int, int, int], str | tuple[str, ...]] = {
    (1, 2, 0, 1): "small",
    (2, 1, 1, 0): "small",
    (2, 2, 1, 1): "small",
    (2, 5, 1, 4): ("P18",),
    (5, 2, 4, 1): ("P18",),
    (3, 4, 2, 3): ("P18",),
    (4, 3, 3, 2): ("P18",),
    (3, 6, 2, 5): ("P18",),
    (6, 3, 5, 2): ("P18",),
    (2, 3, 1, 2): ("P19",),
    (3, 3, 2, 1): ("P19",),
    (3, 2, 2, 1): "swap",
}
EXPECTED_EXCEPTIONAL: frozenset[tuple[int, int, int, int]] = frozenset(EXCEPTIONAL_ROUTES)


# ---------------------------------------------------------------------------
# The recipe table
# ---------------------------------------------------------------------------

Intervals = tuple[tuple[int, int], ...]


def group_intervals(ell: int, m: int, xl: int, xm: int) -> dict[str, Intervals]:
    """Every named vertex group of the profile as half-open id intervals.

    The numbering is that of graphs.py: c_i is vertex i-1, d_j is vertex
    2*ell + j - 1; X_ell is the prefix of x_ell c's and X_m the suffix of x_m
    d's.  A name, read left to right, joins groups or single vertices with
    '+' and removes them with '-'.
    """
    L = 2 * ell
    n = L + 2 * m
    l_top, l_bot = (0, ell), (ell, L)
    m_top, m_bot = (L, L + m), (L + m, n)
    x_l, x_m = (0, xl), (n - xm, n)
    return {
        "l_top": (l_top,),
        "l_bot": (l_bot,),
        "m_top": (m_top,),
        "m_bot": (m_bot,),
        "side_l": ((0, L),),
        "side_m": ((L, n),),
        "X_ell": (x_l,),
        "X_m": (x_m,),
        "X_ell+m_bot": (x_l, m_bot),
        "l_top+X_m": (l_top, x_m),
        "X_ell+X_m": (x_l, x_m),
        "X_ell-l_top": ((ell, max(xl, ell)),),
        "X_m-m_bot": ((n - max(xm, m), L + m),),
        "l_top-X_ell": ((min(xl, ell), ell),),
        "side_l-X_ell": ((xl, L),),
        "l_top-X_ell+m_bot-X_m": ((min(xl, ell), ell), (L + m, max(L + m, n - xm))),
        # P8 moves d_m into the bottom half of the d-side
        "X_ell+m_bot+d_m": (x_l, (L + m - 1, n)),
        "m_top-d_m": ((L, L + m - 1),),
        # P17^l moves d_2m into the top half, P17^m moves c_1 into the bottom
        "m_bot-d_2m": ((L + m, n - 1),),
        "m_top+d_2m": (m_top, (n - 1, n)),
        "l_top-c_1": ((1, ell),),
        "l_bot+c_1": ((0, 1), l_bot),
    }


GROUP_NAMES = tuple(group_intervals(1, 1, 0, 0))


@dataclass(frozen=True)
class Clique:
    """p(K_n): a maximum packing of the clique on a vertex group."""

    group: str


@dataclass(frozen=True)
class Side:
    """p(S, K): apexes from group S over matchings of the clique on group K."""

    apexes: str
    clique: str


Term = Clique | Side


@dataclass(frozen=True)
class Recipe:
    """A packing assembled from terms, paired with hitting set T1 or T2.

    ``applies`` is a precondition on the profile (ell, m, x_ell, x_m),
    stated in words by ``needs``; the terms' own structural requirements
    (a clique group, apexes complete to the clique) are checked on the
    graph when the recipe is built.
    """

    hitting: str
    terms: tuple[Term, ...]
    applies: Callable[[int, int, int, int], bool] | None = None
    needs: str = ""


_HALF_M = Side("m_bot", "m_top")
_HALF_L = Side("l_top", "l_bot")

RECIPES: dict[str, Recipe] = {
    "P1": Recipe("T1", (Clique("side_m"),)),
    "P2": Recipe("T1", (Clique("X_ell+m_bot"), _HALF_M)),
    "P3": Recipe(
        "T1",
        (Side("X_ell", "m_bot"), Side("X_m-m_bot", "l_top"), _HALF_M, _HALF_L),
    ),
    "P4": Recipe("T1", (Clique("l_top+X_m"), _HALF_L)),
    "P7": Recipe(
        "T1",
        (Clique("X_ell+m_bot"), _HALF_L, _HALF_M),
        lambda ell, m, xl, xm: xl <= ell,
        "X_ell inside the top half",
    ),
    "P8": Recipe(
        "T1",
        (Clique("X_ell+m_bot+d_m"), _HALF_L, Side("m_bot", "m_top-d_m")),
        lambda ell, m, xl, xm: xl <= ell and xm > m,
        "X_ell inside the top half and d_m inside X_m",
    ),
    "P9": Recipe("T1", (Clique("X_ell+X_m"),)),
    "P10": Recipe(
        "T1",
        (_HALF_M, _HALF_L, Side("m_bot", "l_top"), Side("X_ell-l_top", "m_bot")),
        lambda ell, m, xl, xm: xl >= ell,
        "x_ell >= ell",
    ),
    "P11": Recipe(
        "T1", (Clique("X_ell+m_bot"), Side("X_ell", "side_l-X_ell"), _HALF_M)
    ),
    "P12": Recipe(
        "T1",
        (Side("m_bot", "X_ell"), Side("l_top", "X_m-m_bot"), Side("m_top", "m_bot")),
    ),
    "P13": Recipe(
        "T2",
        (Clique("X_ell+m_bot"), Side("X_ell+X_m", "l_top-X_ell"), _HALF_M, _HALF_L),
        lambda ell, m, xl, xm: xl <= ell,
        "X_ell inside the top half",
    ),
    "P14": Recipe(
        "T2", (_HALF_M, _HALF_L, Side("l_top-X_ell+m_bot-X_m", "X_ell+X_m"))
    ),
    "P15l": Recipe("T2", (Clique("l_top"), Side("X_ell", "m_bot"), _HALF_M, _HALF_L)),
    "P15m": Recipe("T2", (Clique("m_bot"), Side("X_m", "l_top"), _HALF_M, _HALF_L)),
    "P16l": Recipe("T2", (Clique("side_l"), Side("X_ell", "m_bot"), _HALF_M)),
    "P16m": Recipe("T2", (Clique("side_m"), Side("X_m", "l_top"), _HALF_L)),
    "P17l": Recipe(
        "T2",
        (
            Clique("side_l"),
            Side("X_ell", "m_bot-d_2m"),
            Side("m_bot-d_2m", "m_top+d_2m"),
        ),
    ),
    "P17m": Recipe(
        "T2",
        (
            Clique("side_m"),
            Side("X_m", "l_top-c_1"),
            Side("l_top-c_1", "l_bot+c_1"),
        ),
    ),
}

F_RECIPE_IDS = tuple(rid for rid, r in RECIPES.items() if r.hitting == "T2")

# each term as the indices of its groups in GROUP_NAMES: (K,) or (S, K)
_COMPILED: dict[str, tuple[tuple[int, ...], ...]] = {
    rid: tuple(
        (GROUP_NAMES.index(t.group),)
        if isinstance(t, Clique)
        else (GROUP_NAMES.index(t.apexes), GROUP_NAMES.index(t.clique))
        for t in r.terms
    )
    for rid, r in RECIPES.items()
}
# the distinct terms of the f-recipes, and each f-recipe as indices into them
_F_TERM_GROUPS = tuple(dict.fromkeys(t for rid in F_RECIPE_IDS for t in _COMPILED[rid]))
_F_TERMS = tuple(
    tuple(_F_TERM_GROUPS.index(t) for t in _COMPILED[rid]) for rid in F_RECIPE_IDS
)


@dataclass(frozen=True)
class BoundStrategy:
    """Which lower-bound variant feeds each term of the f-functions."""

    clique_variant: str = "exact"  # exact | universal | observation
    even_form: bool = True

    def describe(self) -> str:
        return f"clique={self.clique_variant},even_form={self.even_form}"


DEFAULT_STRATEGY = BoundStrategy()

ALL_STRATEGIES = (
    BoundStrategy("exact", True),
    BoundStrategy("observation", True),
    BoundStrategy("universal", True),
    BoundStrategy("universal", False),
)


def _clique_bound6(strategy: BoundStrategy, n: int) -> int:
    """6 times a lower bound on the maximum triangle packing of K_n."""
    if n <= 2:
        return 0
    pairs2 = n * (n - 1)  # 2 * binom(n, 2)
    if strategy.clique_variant == "exact":
        return 2 * (comb(n, 2) - feder_count(n).k)
    if strategy.clique_variant == "universal":
        return pairs2 - n - 3
    if strategy.clique_variant == "observation":
        best = pairs2 - n - 3
        if n % 2 == 1:
            best = max(best, pairs2 - 8)
        if n != 5:
            best = max(best, pairs2 - n - 2)
        return max(best, 0)
    raise ValueError(f"unknown clique variant {strategy.clique_variant!r}")


def _side_bound6(strategy: BoundStrategy, s: int, k: int) -> int:
    """6 times a lower bound on p(S, K) with |S| = s apexes over a k-clique."""
    if k < 2 or s < 1:
        return 0
    bound = 3 * (k - 1) * min(s, k)
    if strategy.even_form and k % 2 == 0:
        bound = max(bound, 3 * k * min(s, k - 1))
    return bound


def t2_size(p: CaseProfile) -> int:
    """|T2| = 2*binom(m,2) + 2*binom(ell,2) + m*x_ell + ell*x_m - x_ell*x_m."""
    return _t2_size(*p.as_tuple())


def _t2_size(ell: int, m: int, xl: int, xm: int) -> int:
    return 2 * comb(m, 2) + 2 * comb(ell, 2) + m * xl + ell * xm - xl * xm


def _group_sizes(ell: int, m: int, xl: int, xm: int) -> list[int]:
    """Size of every group of GROUP_NAMES at the profile, in that order."""
    sizes = []
    for intervals in group_intervals(ell, m, xl, xm).values():
        size = 0
        for lo, hi in intervals:
            size += hi - lo
        sizes.append(size)
    return sizes


def _term_bounds6(
    terms: tuple[tuple[int, ...], ...], sizes: list[int], strategy: BoundStrategy
) -> list[int]:
    return [
        _clique_bound6(strategy, sizes[t[0]])
        if len(t) == 1
        else _side_bound6(strategy, sizes[t[0]], sizes[t[1]])
        for t in terms
    ]


def recipe_term_bounds(
    recipe: str, p: CaseProfile, strategy: BoundStrategy = DEFAULT_STRATEGY
) -> list[int]:
    """6 times the profile-level lower bound of each of the recipe's terms."""
    if recipe not in _COMPILED:
        raise ValueError(f"unknown recipe id {recipe!r}")
    return _term_bounds6(_COMPILED[recipe], _group_sizes(*p.as_tuple()), strategy)


def recipe_lower_bound(
    recipe: str, p: CaseProfile, strategy: BoundStrategy = DEFAULT_STRATEGY
) -> int:
    """6 times the certified lower bound on the recipe's packing size."""
    return sum(recipe_term_bounds(recipe, p, strategy))


# the size forms of GROUP_NAMES and, per f-recipe, its constant and its
# varying terms, each term as in _COMPILED
_Terms = tuple[tuple[int, ...], ...]
_Plan = tuple[list[tuple[int, ...]], tuple[tuple[_Terms, _Terms], ...]]
# a compiled row: per f-recipe, (constant, varying clique planes, varying
# (apex, clique) plane pairs); a plane is (base, per x_ell, per x_m)
_Plane = tuple[int, int, int]
_Row = tuple[tuple[int, tuple[_Plane, ...], tuple[tuple[_Plane, _Plane], ...]], ...]


def _size_forms() -> list[tuple[int, ...]]:
    """Every group size of GROUP_NAMES as an affine form (c, a, b, p, q):
    the size c + a*ell + b*m + p*x_ell + q*x_m.

    On the closed box 0 <= x_ell <= ell, 0 <= x_m <= m every max and min in
    ``group_intervals`` resolves one way: max(x_ell, ell) = ell,
    min(x_ell, ell) = x_ell and max(2*ell + m, n - x_m) = n - x_m.  So each
    size is one affine form there, the same on every (ell, m) row, and five
    reads of the table fix it: at (1, 1, 0, 0) and one step along each
    parameter.  ``_compile_row`` checks the forms on every row.
    """
    base = _group_sizes(1, 1, 0, 0)
    steps = [
        _group_sizes(*point)
        for point in ((2, 1, 0, 0), (1, 2, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1))
    ]
    forms = []
    for g, size in enumerate(base):
        a, b, p, q = [step[g] - size for step in steps]
        forms.append((size - a - b, a, b, p, q))
    return forms


def _row_plan() -> _Plan:
    """The size forms, and each f-recipe's terms split once for all rows: a
    term varies when one of its groups has a nonzero x_ell or x_m
    coefficient, and is constant on every row otherwise."""
    forms = _size_forms()
    moving = {g for g, (*_, p, q) in enumerate(forms) if p or q}
    return forms, tuple(
        (
            tuple(t for t in _COMPILED[rid] if moving.isdisjoint(t)),
            tuple(t for t in _COMPILED[rid] if not moving.isdisjoint(t)),
        )
        for rid in F_RECIPE_IDS
    )


def _compile_row(
    ell: int, m: int, plan: _Plan, clique6: list[int], side6: list[list[int]]
) -> _Row:
    """Each f-recipe's terms on the (ell, m) row, split as ``plan`` says.

    The forms, evaluated at (ell, m), are checked by one read of the group
    table at (ell - 1, m - 1): a table that breaks the argument of
    ``_size_forms`` raises RuntimeError.  Constant terms are scored from one
    strategy's bound tables ``clique6[n]``/``side6[s][k]``; varying terms
    are kept as planes, which ``search_exceptional`` interpolates.
    """
    forms, split = plan
    planes = [(c + a * ell + b * m, p, q) for c, a, b, p, q in forms]
    xl, xm = ell - 1, m - 1
    if _group_sizes(ell, m, xl, xm) != [s + p * xl + q * xm for s, p, q in planes]:
        raise RuntimeError(f"group sizes are not affine in (x_ell, x_m) at {ell, m}")
    row = []
    for fixed, vary in split:
        const = 0
        for t in fixed:
            size = planes[t[0]][0]
            const += clique6[size] if len(t) == 1 else side6[size][planes[t[1]][0]]
        cliques = tuple([planes[t[0]] for t in vary if len(t) == 1])
        sides = tuple([(planes[t[0]], planes[t[1]]) for t in vary if len(t) == 2])
        row.append((const, cliques, sides))
    return tuple(row)


@dataclass(frozen=True)
class CaseFunctionReport:
    profile: CaseProfile
    f_values: tuple[int, ...]
    passing: frozenset[int]
    strategy: BoundStrategy = DEFAULT_STRATEGY

    @property
    def exceptional(self) -> bool:
        """Whether no recipe passes at the profile."""
        return not self.passing


def _domain_violation(ell: int, m: int, xl: int, xm: int) -> str | None:
    """The first condition of the 3.2.2 search domain the profile breaks.

    None means the profile is in the domain.  This is the definition of the
    domain and the input check of ``evaluate_case_functions``;
    ``_row_domain`` enumerates the same profiles in closed form.
    """
    if not (xl < ell and xm < m):
        return "x_ell < ell, x_m < m"
    if ell + xm > m + xl:
        return "ell + x_m <= m + x_ell"
    if ell - xl > xm + xl:
        return "ell - x_ell <= x_m + x_ell"
    return None


def _row_domain(ell: int, m: int) -> Iterator[tuple[int, int]]:
    """(x_ell, x_m) of every search-domain profile at (ell, m), in the order
    of ``product(range(ell), range(m))``.

    The closed form of ``_domain_violation`` on the row: x_ell < ell, and
    x_m runs from ell - 2*x_ell (ell - x_ell <= x_m + x_ell) to the smaller
    of m - 1 (x_m < m) and m - ell + x_ell (ell + x_m <= m + x_ell).
    """
    for xl in range(ell):
        for xm in range(max(0, ell - 2 * xl), min(m - 1, m - ell + xl) + 1):
            yield xl, xm


def _search_domain(limit: int) -> Iterator[tuple[int, int, int, int]]:
    """(ell, m, x_ell, x_m) of every search-domain profile with ell, m <= limit."""
    for ell, m in product(range(1, limit + 1), repeat=2):
        for xl, xm in _row_domain(ell, m):
            yield ell, m, xl, xm


def evaluate_case_functions(
    p: CaseProfile, strategy: BoundStrategy = DEFAULT_STRATEGY
) -> CaseFunctionReport:
    """f_1..f_8 at a profile; a recipe passes when its f-value exceeds -3.

    The reference scorer: the group table is read at the profile, each
    distinct term of the f-recipes is scored once by the bound functions,
    and f_i is the sum of recipe i's term bounds minus 3|T2|.
    """
    tup = p.as_tuple()
    broken = _domain_violation(*tup)
    if broken is not None:
        raise ValueError(f"profile {tup} must satisfy {broken}")
    bounds = _term_bounds6(_F_TERM_GROUPS, _group_sizes(*tup), strategy)
    t2_3 = 3 * _t2_size(*tup)
    values = tuple([sum([bounds[i] for i in terms]) - t2_3 for terms in _F_TERMS])
    passing = frozenset(i for i, v in enumerate(values) if v > -3)
    return CaseFunctionReport(p, values, passing, strategy)


def constrained_profiles(limit: int) -> Iterator[CaseProfile]:
    """All search-domain profiles with ell, m <= limit."""
    return (CaseProfile(*t) for t in _search_domain(limit))


def search_exceptional(
    limit: int = 10, strategy: BoundStrategy = DEFAULT_STRATEGY
) -> set[CaseProfile]:
    """Profiles in the constrained domain where every f_i fails (<= -3).

    The strategy's term bounds (up to 2*limit, the largest group size) and
    ``_row_plan`` are made once per call, each (ell, m) row is compiled
    once, and 3|T2| is taken at x_ell = x_m = 0, so a profile adds only
    3*(m*x_ell + ell*x_m - x_ell*x_m).  Each profile walks the recipes in
    order, scoring only the varying terms of the recipe at hand, and stops
    at the first recipe that passes.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    top = 2 * limit + 1
    clique6 = [_clique_bound6(strategy, n) for n in range(top)]
    side6 = [[_side_bound6(strategy, s, k) for k in range(top)] for s in range(top)]
    plan = _row_plan()
    found = set()
    for ell, m in product(range(1, limit + 1), repeat=2):
        row = _compile_row(ell, m, plan, clique6, side6)
        row_t2_3 = 3 * _t2_size(ell, m, 0, 0)
        for xl, xm in _row_domain(ell, m):
            t2_3 = row_t2_3 + 3 * (m * xl + ell * xm - xl * xm)
            # f_1..f_8 in order: 6 times the recipe's bound minus 3|T2|
            for const, cliques, sides in row:
                f = const - t2_3
                for b, a, c in cliques:
                    f += clique6[b + a * xl + c * xm]
                for (sb, sa, sc), (kb, ka, kc) in sides:
                    f += side6[sb + sa * xl + sc * xm][kb + ka * xl + kc * xm]
                if f > -3:
                    break
            else:
                found.add(CaseProfile(ell, m, xl, xm))
    return found


# ---------------------------------------------------------------------------
# Numeric audit of the displayed inequality chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepViolation:
    chain: str
    step: str
    params: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ChainReport:
    chain: str
    checked: int
    violations: tuple[StepViolation, ...]


@dataclass(frozen=True)
class AuditReport:
    max_half: int
    chains: tuple[ChainReport, ...]

    @property
    def violations(self) -> list[StepViolation]:
        return [v for c in self.chains for v in c.violations]


_Step = Callable[..., tuple[int, int] | None]


@dataclass(frozen=True)
class _Chain:
    """One displayed chain: a parameter domain plus ordered >= steps.

    Each step is (name, fn, d): fn maps the leading parameters it names to
    d*lhs and d*rhs as ``int``s, and the audit records a violation whenever
    lhs < rhs.  A step that names fewer parameters than the domain's tuples
    hold reads their prefix; the audit evaluates it once per run of tuples
    with that prefix, and a domain lists its tuples grouped by prefix (each
    is a nest of loops), so once per distinct prefix.  A step that holds
    only under a guard returns None where the guard fails, and the audit
    skips it there.
    """

    anchor: str
    domain: Callable[[int], Iterable[tuple[int, ...]]]
    steps: tuple[tuple[str, _Step, int], ...]

    def __post_init__(self) -> None:
        for name, fn, _ in self.steps:
            code = fn.__code__
            if code.co_argcount == 0 or code.co_flags & inspect.CO_VARARGS:
                raise ValueError(f"step {name!r} must name each parameter it reads")


def _dom_case1(limit: int) -> Iterable[tuple[int, ...]]:
    # x_ell >= ell, 2 <= ell <= m, x_ell <= min(m, 2 ell), m <= x_m <= 2 m
    for ell in range(2, limit + 1):
        for m in range(ell, limit + 1):
            for xl in range(ell, min(m, 2 * ell) + 1):
                for xm in range(m, 2 * m + 1):
                    yield ell, m, xl, xm


def _dom_case1_min_ell(limit: int) -> Iterable[tuple[int, ...]]:
    # case 1 with x_m - m >= ell
    for ell in range(2, limit + 1):
        for m in range(ell, limit + 1):
            for xl in range(ell, min(m, 2 * ell) + 1):
                for xm in range(m + ell, 2 * m + 1):
                    yield ell, m, xl, xm


def _dom_case1_min_xm(limit: int) -> Iterable[tuple[int, ...]]:
    # case 1 with x_m - m < ell and x_ell > ell
    for ell in range(2, limit + 1):
        for m in range(ell, limit + 1):
            for xl in range(ell + 1, min(m, 2 * ell) + 1):
                for xm in range(m, min(m + ell, 2 * m + 1)):
                    yield ell, m, xl, xm


def _dom_case21(limit: int) -> Iterable[tuple[int, ...]]:
    # case 2.1: x_ell > m, x_m <= m + ell, 2 <= ell <= m
    for ell in range(2, limit + 1):
        for m in range(ell, limit + 1):
            for xl in range(m + 1, 2 * ell + 1):
                for xm in range(m, min(m + ell, 2 * m) + 1):
                    yield ell, m, xl, xm


def _dom_case22(limit: int) -> Iterable[tuple[int, ...]]:
    # case 2.2: x_ell > m, x_m > m + ell, 2 <= ell < m
    for ell in range(2, limit + 1):
        for m in range(ell + 1, limit + 1):
            for xl in range(m + 1, 2 * ell + 1):
                for xm in range(m + ell + 1, 2 * m + 1):
                    yield ell, m, xl, xm


def _dom_321(limit: int) -> Iterable[tuple[int, ...]]:
    # x_ell < ell, x_m < m, ell + x_m <= m + x_ell, x_m + x_ell < ell - x_ell
    for ell in range(1, limit + 1):
        for m in range(1, limit + 1):
            for xl in range(ell):
                for xm in range(min(m - 1, m - ell + xl, ell - 2 * xl - 1) + 1):
                    yield ell, m, xl, xm


def _build_chains() -> list[_Chain]:
    chains: list[_Chain] = []

    def chain(anchor, domain, *steps):
        # a step is (name, fn), or (name, fn, d) with a positive int d
        steps = tuple(step if len(step) == 3 else (*step, 1) for step in steps)
        chains.append(_Chain(anchor, domain, steps))

    def p3_master(ell, m, xl, xm):
        return (
            (m - 1) * min(xl, m)
            + (ell - 1) * min(xm - m, ell)
            - ell * m
            - (xl - ell) * (xm - m)
        )

    # case 1 master reduction of the P3 bound
    chain(
        "(m-1)*min{x_l,m}",
        _dom_case1,
        (
            "case1-reduction",
            lambda ell, m, xl, xm: (
                p3_master(ell, m, xl, xm),
                (xl - ell) * (2 * m - xm) + (ell - 1) * min(xm - m, ell) - xl,
            ),
        ),
    )

    # case 1, min = ell branch
    chain(
        "(x_l-l)*(2m-x_m)",
        _dom_case1_min_ell,
        (
            "xm<2m:val>=(l-2)l",
            lambda ell, m, xl, xm: (
                (xl - ell) * (2 * m - xm) + (ell - 1) * ell - xl,
                (ell - 2) * ell if xm < 2 * m else (ell - 3) * ell,
            ),
        ),
        (
            "l>=3,xm=2m:nonneg",
            lambda ell, m, xl, xm: (
                ((ell - 1) * ell - xl, 0) if xm == 2 * m and ell >= 3 else None
            ),
        ),
    )

    # case 1, min = x_m - m, x_ell > ell
    chain(
        "case1 x_l>l slack",
        _dom_case1_min_xm,
        (
            "val>=m-x_l>=0",
            lambda ell, m, xl, xm: (
                (xl - ell) * (2 * m - xm) + (ell - 1) * (xm - m) - xl,
                m - xl,
            ),
        ),
    )

    # The P7, P2, P9, P11, l = 1 and both P4 chains divide by 3; their steps
    # declare d = 3, so a displayed 2/3 * (binom(n, 2) - n/2 - 1) reads
    # 2 * binom(n, 2) - n - 2 and a displayed (...)/3 reads (...).

    # P7 chain
    def dom_p7(limit):
        for ell in range(2, limit + 1):
            for m in range(ell, limit + 1):
                if ell + m != 5:
                    yield (ell, m)

    chain(
        "(m-l)^2+(m-2)(l-2)-6",
        dom_p7,
        (
            "identity",
            lambda ell, m: (
                2 * comb(ell + m, 2) - (ell + m) - 2 - 3 * ell * m,
                (m - ell) ** 2 + (m - 2) * (ell - 2) - 6,
            ),
            3,
        ),
        (
            "m-l>=2 or l>=4 => >= -2/3",
            lambda ell, m: (
                ((m - ell) ** 2 + (m - 2) * (ell - 2) - 6, -2)
                if m - ell >= 2 or (m == ell and ell >= 4)
                else None
            ),
            3,
        ),
        (
            "m-l=1,l>=3: odd-n form >= -2/3",
            lambda ell, m: (
                (
                    2 * (comb(2 * ell + 1, 2) - 4) - 3 * ell * (ell + 1),
                    ell * ell - ell - 8,
                )
                if m - ell == 1
                else None
            ),
            3,
        ),
    )

    # case 2.1 master identity and m-l >= 2 slack
    chain(
        "m*(m-l-1)",
        _dom_case21,
        (
            "identity",
            lambda ell, m, xl, xm: (
                (m - 1) * m + (ell - 1) * (xm - m) - ell * m - (xl - ell) * (xm - m),
                m * (m - ell - 1) + (xm - m) * (2 * ell - 1 - xl),
            ),
        ),
        (
            "m-l>=2 => >= 2m-x_m",
            lambda ell, m, xl, xm: (
                (m * (m - ell - 1) + (xm - m) * (2 * ell - 1 - xl), 2 * m - xm)
                if m - ell >= 2
                else None
            ),
        ),
    )

    # case 2.1, m = l + 1, x_l = 2l: the P2 chain
    def dom_p2_21(limit):
        for ell in range(2, limit):
            m = ell + 1
            if m <= limit:
                for xm in range(m, min(m + ell, 2 * m) + 1):
                    yield (ell, m, 2 * ell, xm)

    chain(
        "l^2-1-l*(x_m-m)",
        dom_p2_21,
        (
            "identity",
            lambda ell, m, xl, xm: (
                2 * comb(3 * ell + 1, 2)
                - (3 * ell + 1)
                - 2
                - 3 * (ell * (ell + 1) + 2 * comb(ell, 2) + (xm - m) * ell),
                3 * (ell * ell - 1 - ell * (xm - m)),
            ),
            3,
        ),
        (
            "x_m-m<=l-1 => >=0",
            lambda ell, m, xl, xm: (
                (ell * ell - 1 - ell * (xm - m), 0) if xm - m <= ell - 1 else None
            ),
        ),
    )

    # P9 chain (m = l + 1, x_l = 2l, x_m = 2m - 1)
    def dom_p9(limit):
        for ell in range(2, limit):
            if ell + 1 <= limit:
                yield (ell,)

    chain(
        "P9: (4l^2+l-8)/3 >= 10/3",
        dom_p9,
        (
            "identity",
            lambda ell: (
                2 * (comb(4 * ell + 1, 2) - 4) - 3 * (4 * ell * ell + ell),
                4 * ell * ell + ell - 8,
            ),
            3,
        ),
        (
            ">=10/3",
            lambda ell: (4 * ell * ell + ell - 8, 10),
            3,
        ),
    )

    # P10' chain (subcase 2.1, l = m odd, x_l > l)
    def dom_p10(limit):
        for ell in range(3, limit + 1, 2):
            for xl in range(ell + 1, 2 * ell + 1):
                for xm in range(ell, 2 * ell + 1):
                    yield (ell, xl, xm)

    def p10_expr(ell, xl, xm):
        return (
            2 * comb(ell, 2)
            + (ell - 1) * min(xl - ell, ell)
            + 2 * (xm - ell)
            - ell * ell
            - (xl - ell) * (xm - ell)
        )

    chain(
        "(x_l-l-1)*(2l-1-x_m)",
        dom_p10,
        (
            "identity",
            lambda ell, xl, xm: (
                p10_expr(ell, xl, xm),
                (xl - ell - 1) * (2 * ell - 1 - xm) + xm - ell - 1,
            ),
        ),
        (
            "x_l>l+1 => >= l-2",
            lambda ell, xl, xm: (
                (p10_expr(ell, xl, xm), ell - 2) if xl > ell + 1 else None
            ),
        ),
        (
            "x_l>l+1 => >= 0 (used conclusion)",
            lambda ell, xl, xm: (
                (p10_expr(ell, xl, xm), 0) if xl > ell + 1 else None
            ),
        ),
        (
            "x_l=l+1,x_m>l => >= x_m-l-1 >= 0",
            lambda ell, xl, xm: (
                (p10_expr(ell, xl, xm), xm - ell - 1)
                if xl == ell + 1 and xm > ell
                else None
            ),
        ),
    )

    # P11 chain (l = m = x_m, x_l = l + 1, l odd >= 3)
    def dom_p11(limit):
        for ell in range(3, limit + 1, 2):
            yield (ell,)

    chain(
        "1/3(l^2-4l-2)",
        dom_p11,
        (
            "identity",
            lambda ell: (
                2 * (comb(2 * ell + 1, 2) - 4)
                + 3 * ((ell - 1) * (ell - 2) - ell * (ell - 1) - ell * ell),
                ell * ell - 4 * ell - 2,
            ),
            3,
        ),
        (
            "l>=5 => >=1",
            lambda ell: (ell * ell - 4 * ell - 2, 3) if ell >= 5 else None,
            3,
        ),
        (
            "l=3 exact-K7 form >= 1",
            lambda ell: (
                (
                    2 * comb(2 * ell + 1, 2)
                    + 3 * ((ell - 1) * (ell - 2) - ell * (ell - 1) - ell * ell),
                    3,
                )
                if ell == 3
                else None
            ),
            3,
        ),
    )

    # P12 chain (subcase 2.2)
    def p12_line1(ell, m, xl, xm):
        return (
            (xl - 1) * min(m, xl)
            + (xm - m - 1) * min(ell, xm - m)
            - ell * m
            - (xl - ell) * (xm - m)
            - ell * (ell - 1)
        )

    def p12_line2(ell, m, xl, xm):
        return (
            (xl - 1) * m
            + (xm - m - 1) * ell
            - ell * m
            - (xl - ell) * (xm - m)
            - ell * (ell - 1)
        )

    chain(
        "(m-l)^2-(m-l)-1",
        _dom_case22,
        (
            "min-substitution",
            lambda ell, m, xl, xm: (
                p12_line1(ell, m, xl, xm),
                p12_line2(ell, m, xl, xm),
            ),
        ),
        (
            "identity-2",
            lambda ell, m, xl, xm: (
                p12_line2(ell, m, xl, xm),
                (xm - m) * (2 * ell - xl) - ell * ell - ell * m - m + m * xl,
            ),
        ),
        (
            "substitutions => (m-l)^2-(m-l)-1",
            lambda ell, m, xl, xm: (
                (xm - m) * (2 * ell - xl) - ell * ell - ell * m - m + m * xl,
                (m - ell) ** 2 - (m - ell) - 1,
            ),
        ),
        (
            "m-l>=2 => >=1",
            lambda ell, m: (
                ((m - ell) ** 2 - (m - ell) - 1, 1) if m - ell >= 2 else None
            ),
        ),
    )

    # ell = 1 chains (P1 and P2)
    def dom_l1(limit):
        return ((m,) for m in range(4, limit + 1))

    chain(
        "l=1: (m^2-4m-2)/3",
        dom_l1,
        (
            "P1-identity",
            lambda m: (
                2 * (comb(2 * m, 2) - m - 1) - 3 * m * m,
                m * m - 4 * m - 2,
            ),
            3,
        ),
        (
            "P2-identity",
            lambda m: (
                2 * comb(m + 2, 2) - (m + 2) - 2 + 3 * (m * (m - 1) - m * m - m),
                m * m - 4 * m - 2,
            ),
            3,
        ),
        (
            ">= -2/3",
            lambda m: (m * m - 4 * m - 2, -2),
            3,
        ),
    )

    # case 1 P4 chain
    def dom_p4(limit):
        for m in range(3, limit + 1):
            for xl in (3, 4):
                if xl <= m:
                    yield (m, xl)

    chain(
        "case1-P4: (m^2-2-m(3x_l-7))/3",
        dom_p4,
        (
            "identity",
            lambda m, xl: (
                2 * (comb(2 * m + 2, 2) - m - 2) - 3 * (m * m + m * (xl - 1)),
                m * m - 2 - m * (3 * xl - 7),
            ),
            3,
        ),
        (
            "x_l=3 => >=1/3",
            lambda m, xl: (m * m - 2 * m - 2, 1) if xl == 3 else None,
            3,
        ),
        (
            "x_l=4,m>=5 => >=-2/3",
            lambda m, xl: (m * m - 5 * m - 2, -2) if xl == 4 and m >= 5 else None,
            3,
        ),
    )

    # subcase 2.2 P4 chain (m = l + 1, x_m = 2m, x_l <= 2l - 1)
    def dom_p4_22(limit):
        for ell in range(2, limit):
            if ell + 1 <= limit:
                for xl in range(ell + 2, 2 * ell):
                    yield (ell, xl)

    chain(
        "case2.2-P4: (3l^2-2)/3-(l+1)(x_l-l)",
        dom_p4_22,
        (
            "identity",
            lambda ell, xl: (
                2 * comb(3 * ell + 2, 2)
                - (3 * ell + 2)
                - 2
                - 3 * (2 * comb(ell + 1, 2) + ell * (ell + 1) + (ell + 1) * (xl - ell)),
                3 * ell * ell - 2 - 3 * (ell + 1) * (xl - ell),
            ),
            3,
        ),
        (
            "x_l<=2l-1 => >=1/3",
            lambda ell, xl: (3 * ell * ell - 2 - 3 * (ell + 1) * (xl - ell), 1),
            3,
        ),
    )

    # subcase 2.2, x_l = 2l even-form chain value = l
    def dom_even22(limit):
        return ((ell,) for ell in range(2, limit))

    chain(
        "case2.2 even-form value = l",
        dom_even22,
        (
            "identity",
            lambda ell: (
                2 * ell * (ell + 1)
                + ell * ell
                - ell * (ell + 1)
                - ell * (ell + 1)
                - ell * (ell - 1),
                ell,
            ),
        ),
    )

    # 3.2.1 derived linear inequalities and the final rational chain
    def f321_rhs1(ell, m, xl, xm):
        return (m + xl) * (m + xl - 2) - 3 + 3 * (ell - xl - 1) * (xm + xl) - (
            3 * m * xl + 3 * ell * xm - 3 * xl * xm
        )

    def f321_quad(ell, m, xl, xm):
        return (
            m * m
            - 2 * m
            - m * xl
            - 3
            - (2 * xl * xl + 5 * xl + 3 * xm - 3 * ell * xl)
        )

    chain(
        "3.2.1: derived bounds",
        _dom_321,
        (
            "expand-identity",
            lambda ell, m, xl, xm: (
                f321_rhs1(ell, m, xl, xm),
                f321_quad(ell, m, xl, xm),
            ),
        ),
        (
            "2m-x_l >= 7/2 x_m + l/2 + 3/2",
            lambda ell, m, xl, xm: (2 * (2 * m - xl), 7 * xm + ell + 3),
            2,
        ),
        (
            "2m-x_l-2 >= 7/2 x_m",
            lambda ell, m, xl, xm: (2 * (2 * m - xl - 2), 7 * xm),
            2,
        ),
        (
            "final: quad >= 49x_m^2/16+15x_l^2/4+3x_mx_l-3x_m-3x_l-4",
            lambda ell, m, xl, xm: (
                16 * f321_quad(ell, m, xl, xm),
                49 * xm * xm
                + 60 * xl * xl
                + 48 * xm * xl
                - 48 * xm
                - 48 * xl
                - 64,
            ),
            16,
        ),
    )

    # 3.2.2 large-parameter reduction
    def f322_start(ell, m, xl, xm):
        return (
            (m + xl) * (m + xl - 2)
            - 3
            + 3 * (ell - xl) * (ell - xl - 1)
            - 3 * (m * xl + ell * xm - xl * xm)
        )

    def f322_quad(ell, m, xl):
        return (
            m * m
            - 2 * m
            - 3
            + 6 * ell * ell
            - 3 * ell
            - 3 * ell * m
            + 7 * xl * xl
            - xl * (12 * ell - 2 * m - 1)
        )

    def f322_vertex28(ell, m):
        # 28 times the vertex value
        return 24 * ell * ell + 24 * m * m - 60 * m - 60 * ell - 36 * ell * m - 85

    # 28000 * (-3 + 1/1000)
    above_minus_3 = -3 * 28000 + 28

    chain(
        "24l^2+24m^2-60m-60l-36lm-85",
        _search_domain,
        (
            "x_m substitution",
            lambda ell, m, xl, xm: (
                f322_start(ell, m, xl, xm),
                f322_quad(ell, m, xl),
            ),
        ),
        (
            "quadratic vertex bound",
            lambda ell, m, xl: (28 * f322_quad(ell, m, xl), f322_vertex28(ell, m)),
            28,
        ),
        (
            "max(l,m)>=11 => > -3",
            lambda ell, m: (
                (1000 * f322_vertex28(ell, m), above_minus_3)
                if max(ell, m) >= 11
                else None
            ),
            28000,
        ),
    )

    return chains


_CHAINS = _build_chains()


def _on_prefix(fn: _Step, arity: int) -> _Step:
    """fn for tuples of ``arity`` parameters: fn itself if it reads them all,
    else fn on the prefix it reads, evaluated again only when that changes."""
    k = fn.__code__.co_argcount
    if k >= arity:
        return fn
    key = sides = None

    def step(*params):
        nonlocal key, sides
        if params[:k] != key:
            key = params[:k]
            sides = fn(*key)
        return sides

    return step


def audit_inequalities(max_half: int = 25) -> AuditReport:
    """Evaluate every displayed chain over its case-condition range."""
    if max_half < 1:
        raise ValueError("max_half must be at least 1")
    reports = []
    for chain in _CHAINS:
        violations: list[StepViolation] = []
        checked = 0
        steps = None
        for params in chain.domain(max_half):
            if steps is None:  # the domain's tuple length is known from here
                arity = len(params)
                steps = [(name, _on_prefix(fn, arity), d) for name, fn, d in chain.steps]
            checked += 1
            for name, fn, d in steps:
                sides = fn(*params)  # None: a guarded step that does not apply
                if sides is not None and sides[0] < sides[1]:
                    lhs, rhs = Fraction(sides[0], d), Fraction(sides[1], d)
                    violations.append(
                        StepViolation(chain.anchor, name, tuple(params), lhs, rhs)
                    )
        reports.append(ChainReport(chain.anchor, checked, tuple(violations)))
    return AuditReport(max_half, tuple(reports))
