"""Numeric audit of the displayed inequality chains of the case analysis.

``audit_inequalities`` replays every displayed inequality chain step by
step over its case-condition range, in exact arithmetic, and reports each
violated step.  Every step returns its two sides as ``int``s: where the
displayed chain divides, the step declares the common denominator d and
returns both sides times d.  A step under a guard returns None where the
guard fails.

A chain's domain lists its parameter tuples as rows (prefix, xs): the
tuples (*prefix, x) for x in the ascending ``range`` xs.  The audit replays
one row at a time and skips an empty one.  A step that reads a prefix of
the tuples is evaluated once per distinct prefix, and its value stands for
every tuple under it; a step that reads them all is bound to the row's
prefix and evaluated at each x.  A recorded violation stores the full
parameter tuple and both sides as ``Fraction`` (divided by d), in (tuple,
step) order.  Violations indicate slack in a written chain, never in a
certificate: the certifier checks realized sizes directly.  The 3.2.2 chain
runs over ``recipes._search_domain``, the rows the search walks.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable, Iterable, Iterator

from .recipes import _search_domain


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
#: a domain row (prefix, xs): the parameter tuples (*prefix, x), x in xs
_Row = tuple[tuple[int, ...], range]


@dataclass(frozen=True)
class _Chain:
    """One displayed chain: a parameter domain plus ordered >= steps.

    Each step is (name, fn, d): fn maps the leading parameters it names to
    d*lhs and d*rhs as ``int``s, and the audit records a violation whenever
    lhs < rhs.  The domain maps the audit limit to rows (prefix, xs).  A
    step that names fewer parameters than the tuples hold reads a prefix of
    the row's prefix; a domain lists its rows grouped by prefix (each is a
    nest of loops), so such a step is evaluated once per distinct prefix.
    A step that names more raises ValueError on the first row.  A step that
    holds only under a guard returns None where the guard fails, and the
    audit skips it there.
    """

    anchor: str
    domain: Callable[[int], Iterable[_Row]]
    steps: tuple[tuple[str, _Step, int], ...]

    def __post_init__(self) -> None:
        for name, fn, _ in self.steps:
            code = fn.__code__
            if code.co_argcount == 0 or code.co_flags & inspect.CO_VARARGS:
                raise ValueError(f"step {name!r} must name each parameter it reads")


def _dom_case1(limit: int) -> Iterator[_Row]:
    # x_ell >= ell, 2 <= ell <= m, x_ell <= min(m, 2 ell), m <= x_m <= 2 m
    for ell in range(2, limit + 1):
        for m in range(ell, limit + 1):
            for xl in range(ell, min(m, 2 * ell) + 1):
                yield (ell, m, xl), range(m, 2 * m + 1)


def _dom_case1_min_ell(limit: int) -> Iterator[_Row]:
    # case 1 with x_m - m >= ell
    for ell in range(2, limit + 1):
        for m in range(ell, limit + 1):
            for xl in range(ell, min(m, 2 * ell) + 1):
                yield (ell, m, xl), range(m + ell, 2 * m + 1)


def _dom_case1_min_xm(limit: int) -> Iterator[_Row]:
    # case 1 with x_m - m < ell and x_ell > ell
    for ell in range(2, limit + 1):
        for m in range(ell, limit + 1):
            for xl in range(ell + 1, min(m, 2 * ell) + 1):
                yield (ell, m, xl), range(m, min(m + ell, 2 * m + 1))


def _dom_case21(limit: int) -> Iterator[_Row]:
    # case 2.1: x_ell > m, x_m <= m + ell, 2 <= ell <= m
    for ell in range(2, limit + 1):
        for m in range(ell, limit + 1):
            for xl in range(m + 1, 2 * ell + 1):
                yield (ell, m, xl), range(m, min(m + ell, 2 * m) + 1)


def _dom_case22(limit: int) -> Iterator[_Row]:
    # case 2.2: x_ell > m, x_m > m + ell, 2 <= ell < m
    for ell in range(2, limit + 1):
        for m in range(ell + 1, limit + 1):
            for xl in range(m + 1, 2 * ell + 1):
                yield (ell, m, xl), range(m + ell + 1, 2 * m + 1)


def _dom_321(limit: int) -> Iterator[_Row]:
    # x_ell < ell, x_m < m, ell + x_m <= m + x_ell, x_m + x_ell < ell - x_ell;
    # x_m = 0 is in the row exactly when ell - m <= x_ell <= (ell - 1) / 2
    for ell in range(1, limit + 1):
        for m in range(1, limit + 1):
            for xl in range(max(0, ell - m), (ell + 1) // 2):
                top = min(m - 1, m - ell + xl, ell - 2 * xl - 1)
                yield (ell, m, xl), range(top + 1)


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
        # 2 <= ell <= m, ell + m != 5: the m on either side of 5 - ell
        for ell in range(2, limit + 1):
            yield (ell,), range(ell, min(5 - ell, limit + 1))
            yield (ell,), range(max(ell, 6 - ell), limit + 1)

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
            yield (ell, m, 2 * ell), range(m, min(m + ell, 2 * m) + 1)

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
        yield (), range(2, limit)

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
                yield (ell, xl), range(ell, 2 * ell + 1)

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
        yield (), range(3, limit + 1, 2)

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
        yield (), range(4, limit + 1)

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
            yield (m,), range(3, min(4, m) + 1)

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
            yield (ell,), range(ell + 2, 2 * ell)

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
        yield (), range(2, limit)

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


def _replay(chain: _Chain, max_half: int) -> ChainReport:
    """Replay one chain over its domain, one row at a time."""
    violations: list[StepViolation] = []
    checked = 0
    steps: list[tuple[int, int, _Step]] | None = None  # (index, reads, fn)
    last: dict[int, tuple] = {}  # prefix step index -> (prefix read, sides)
    for prefix, xs in chain.domain(max_half):
        if steps is None:  # the tuple length is known from the first row
            steps = []
            for i, (name, fn, _) in enumerate(chain.steps):
                k = fn.__code__.co_argcount
                if k > len(prefix) + 1:
                    raise ValueError(
                        f"chain {chain.anchor!r}: step {name!r} reads {k} "
                        f"parameters, but its domain's tuples hold {len(prefix) + 1}"
                    )
                steps.append((i, k, fn))
        if not xs:
            continue
        checked += len(xs)
        failed = []  # (x, step index, sides)
        for i, k, fn in steps:
            if k <= len(prefix):  # reads a prefix: once per distinct prefix
                key = prefix[:k]
                if i not in last or last[i][0] != key:
                    last[i] = key, fn(*key)
                sides = last[i][1]
                if sides is not None and sides[0] < sides[1]:
                    failed += [(x, i, sides) for x in xs]
                continue
            bound = partial(fn, *prefix)
            for x in xs:
                sides = bound(x)  # None: a guarded step that does not apply
                if sides is not None and sides[0] < sides[1]:
                    failed.append((x, i, sides))
        if failed:
            failed.sort()  # (tuple, step) order: no two entries share (x, i)
            for x, i, (lhs, rhs) in failed:
                name, _, d = chain.steps[i]
                params = (*prefix, x)
                lhs, rhs = Fraction(lhs, d), Fraction(rhs, d)
                violations.append(StepViolation(chain.anchor, name, params, lhs, rhs))
    return ChainReport(chain.anchor, checked, tuple(violations))


def audit_inequalities(max_half: int = 25) -> AuditReport:
    """Evaluate every displayed chain over its case-condition range."""
    if max_half < 1:
        raise ValueError("max_half must be at least 1")
    return AuditReport(max_half, tuple(_replay(chain, max_half) for chain in _CHAINS))
