"""The packing-recipe table the certifier builds from, and the 3.2.2 domain.

A packing recipe is a union of clique packings p(K_n) and apex-over-matching
packings p(S, K) over named vertex groups (top and bottom halves, X_ell,
X_m and a few derived groups).  ``RECIPES`` declares each pure-term recipe
once: an optional profile precondition plus its terms ``Clique(group)`` and
``Side(S, K)``.  ``group_intervals`` maps a profile to every group's
vertices as half-open intervals of vertex ids, so the one declaration gives
both the construction (the certifier packs the intervals' vertices) and the
profile-level lower bound (``group_sizes``, the one sum of the interval
lengths, feeds the count bounds of ``casesearch`` and the certifier's table
sizes).  The T2 recipes, ``F_RECIPE_IDS``, are P13, P14, P15^l, P15^m,
P16^l, P16^m, P17^l and P17^m; ``t2_size`` is |T2| at a profile.

``EXCEPTIONAL_ROUTES`` maps each published exceptional tuple to the
certifier's leaf for it (the recipe P18 or P19, the "small" deferral or the
"swap").

``_domain_violation`` defines the 3.2.2 search domain and guards the input
of ``casesearch.evaluate_case_functions``.  ``_row_domain`` is its closed
form: on each (ell, m) row it lists each x_ell < ell with the nonempty
``range`` of x_m the three conditions leave, in the filter's order.  The
search, the audit's 3.2.2 chain (through ``_search_domain``) and
``casesearch.constrained_profiles`` all walk these rows, so they visit only
domain profiles; the tests check the rows against the filter on every
(ell, m) up to 40.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Callable, Iterator

from .graphs import CaseProfile

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


def group_sizes(groups: dict[str, Intervals]) -> dict[str, int]:
    """The size of each group of a ``group_intervals`` dict, in
    ``GROUP_NAMES`` order: the total length of its disjoint intervals."""
    sizes = {}
    for name, intervals in groups.items():
        size = 0
        for lo, hi in intervals:
            size += hi - lo
        sizes[name] = size
    return sizes


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


def t2_size(p: CaseProfile) -> int:
    """|T2| = 2*binom(m,2) + 2*binom(ell,2) + m*x_ell + ell*x_m - x_ell*x_m."""
    return _t2_size(*p.as_tuple())


def _t2_size(ell: int, m: int, xl: int, xm: int) -> int:
    return 2 * comb(m, 2) + 2 * comb(ell, 2) + m * xl + ell * xm - xl * xm


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


def _row_domain(ell: int, m: int) -> Iterator[tuple[int, range]]:
    """(x_ell, x_ms) for each x_ell with a search-domain profile at (ell, m):
    those profiles are the (x_ell, x_m) with x_m in the nonempty ``x_ms``, in
    the order of ``product(range(ell), range(m))``.

    The closed form of ``_domain_violation`` on the row.  With x_ell < ell,
    ell + x_m <= m + x_ell already gives x_m < m, so x_m runs from
    max(0, ell - 2*x_ell) (ell - x_ell <= x_m + x_ell) to m - ell + x_ell.
    That interval is nonempty exactly when x_ell >= ell - m and
    3*x_ell >= 2*ell - m, so x_ell starts at the larger of 0, ell - m and
    the ceiling of (2*ell - m)/3.
    """
    for xl in range(max(0, ell - m, -((m - 2 * ell) // 3)), ell):
        yield xl, range(max(0, ell - 2 * xl), m - ell + xl + 1)


def _search_domain(limit: int) -> Iterator[tuple[tuple[int, int, int], range]]:
    """The search domain with ell, m <= limit as rows ((ell, m, x_ell), x_ms):
    its profiles are (ell, m, x_ell, x_m) with x_m in ``x_ms``."""
    for ell, m in product(range(1, limit + 1), repeat=2):
        for xl, xms in _row_domain(ell, m):
            yield (ell, m, xl), xms
