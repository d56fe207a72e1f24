"""The exhaustive case search over (ell, m, x_ell, x_m).

For profiles with x_ell < ell the certificate pairs the hitting set T2 with
one of the eight T2 recipes of ``recipes.F_RECIPE_IDS``.  Scaling by 6
keeps all arithmetic in integers: f_i = 6*|P_recipe| - 3*|T2|, and a recipe
settles a profile when f_i > -3 (then 2|P| - |T2| >= 0 by integrality).

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
list of 12 exceptional tuples; ``EXPECTED_EXCEPTIONAL`` is the key set of
``recipes.EXCEPTIONAL_ROUTES``.

Two scorers turn group sizes into f-values.  The reference,
``evaluate_case_functions``, reads the group table at its one profile and
sums each recipe's term bounds, every distinct term scored once.
``search_exceptional`` tabulates its strategy's bounds up to 2*limit (no
group is larger) and scores whole rows of ``recipes._row_domain``: each
group size is one affine form in (ell, m, x_ell, x_m) on the box
x_ell <= ell, x_m <= m, fixed by five reads of the group table per call, so
which f-recipe terms vary with (x_ell, x_m) is decided once per call.  A
row evaluates the forms at (ell, m), checks them by one more read, scores
its constant terms and keeps the others as (base, per x_ell, per x_m)
planes; each profile then walks the recipes in order, scoring only the
varying terms of the recipe at hand, and stops at the first that passes
(almost always P13, whose two half-packings are row constants).  Nothing is
kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterator

from .audit import audit_inequalities  # noqa: F401  (perfbench calls and wraps it here)
from .graphs import CaseProfile
from .packings import feder_count
from .recipes import (
    EXCEPTIONAL_ROUTES,
    F_RECIPE_IDS,
    GROUP_NAMES,
    RECIPES,
    Clique,
    _domain_violation,
    _row_domain,
    _search_domain,
    _t2_size,
    group_intervals,
)

EXPECTED_EXCEPTIONAL: frozenset[tuple[int, int, int, int]] = frozenset(EXCEPTIONAL_ROUTES)


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
