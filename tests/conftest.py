"""Shared helpers: exhaustive profile enumeration, brute-force oracles, and
canonical realizations of case profiles as concrete instances."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from cochain_tuza.graphs import CoChainGraph, GeneralGraph, build_cochain


def monotone_sequences(length: int, max_value: int) -> Iterator[tuple[int, ...]]:
    """All nonincreasing sequences of the given length over 0..max_value."""
    if length == 0:
        yield ()
        return

    def rec(prefix: list[int], bound: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for v in range(bound, -1, -1):
            yield from rec(prefix + [v], v)

    yield from rec([], max_value)


def reference_groups(g: CoChainGraph) -> dict[str, tuple[int, ...]]:
    """The halves and X sets of an even-sided g from their definitions, not
    from the package's group table: each half an index range, X_ell the c's
    adjacent to all of bot-m, X_m the d's adjacent to all of top-ell."""
    L, n = g.l_size, g.n
    ell, mid = L // 2, L + g.m_size // 2
    halves = {
        "l_top": tuple(range(ell)),
        "l_bot": tuple(range(ell, L)),
        "m_top": tuple(range(L, mid)),
        "m_bot": tuple(range(mid, n)),
    }
    return {
        **halves,
        "X_ell": tuple(c for c in range(L) if all(g.has_edge(c, d) for d in halves["m_bot"])),
        "X_m": tuple(d for d in range(L, n) if all(g.has_edge(c, d) for c in halves["l_top"])),
    }


def complete_graph(n: int) -> GeneralGraph:
    return GeneralGraph.from_edges(n, combinations(range(n), 2))


def brute_triangles(g: GeneralGraph) -> list[tuple[int, int, int]]:
    """Independent triangle oracle: scan all vertex triples."""
    return [
        (a, b, c)
        for a, b, c in combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    ]


def brute_tau(g: GeneralGraph, cap: int = 6) -> int:
    """Independent minimum-hitting oracle: enumerate edge subsets by size."""
    tris = brute_triangles(g)
    if not tris:
        return 0
    edges = sorted(g.edges)
    for k in range(1, cap + 1):
        for subset in combinations(edges, k):
            chosen = set(subset)
            if all(
                any(e in chosen for e in ((a, b), (a, c), (b, c)))
                for a, b, c in tris
            ):
                return k
    raise AssertionError(f"brute tau cap {cap} too small")


def brute_nu(g: GeneralGraph) -> int:
    """Independent maximum-packing oracle: depth-first over triangle subsets."""
    tris = brute_triangles(g)

    def rec(i: int, used: frozenset) -> int:
        if i == len(tris):
            return 0
        best = rec(i + 1, used)
        a, b, c = tris[i]
        es = {(a, b), (a, c), (b, c)}
        if not es & used:
            best = max(best, 1 + rec(i + 1, used | es))
        return best

    return rec(0, frozenset())


def realize_profile(ell: int, m: int, xl: int, xm: int) -> CoChainGraph:
    """Canonical maximal-completeness instance with the given profile."""
    if xl >= ell:
        thresholds = (
            [2 * m] * (ell - 1) + [xm] * (xl - ell + 1) + [0] * (2 * ell - xl)
        )
    else:
        thresholds = [2 * m] * xl + [xm] * (2 * ell - xl)
    return build_cochain(2 * ell, 2 * m, thresholds)


def random_realization(
    rng: random.Random, ell: int, m: int, xl: int, xm: int
) -> CoChainGraph:
    """A random instance with the given profile (x_ell < ell regime)."""
    assert xl < ell and xm < m

    def monotone_block(size: int, lo: int, hi: int) -> list[int]:
        return sorted((rng.randint(lo, hi) for _ in range(size)), reverse=True)

    thresholds = (
        monotone_block(xl, m, 2 * m)
        + monotone_block(ell - 1 - xl, xm, m - 1)
        + [xm]
        + monotone_block(ell, 0, xm)
    )
    return build_cochain(2 * ell, 2 * m, thresholds)
