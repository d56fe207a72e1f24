"""Constructive triangle-packing primitives.

Three building blocks recur in every certificate:

* ``one_factorization`` - the round-robin (circle method) partition of an
  even complete graph into perfect matchings, and its near-1-factorization
  variant for odd orders (one bye vertex per round);

* ``pack_side`` - packings of the join of a clique K with an apex set S in
  which every triangle takes one K-edge and one S-apex: whole matchings of a
  (near-)1-factorization of K are assigned to distinct apexes, which realizes
  the bounds |P| >= (|K|-1)/2 * min(|S|, |K|) and, for even |K|,
  |P| >= |K|/2 * min(|S|, |K|-1);

* ``pack_clique`` - maximum packings of complete graphs whose sizes hit the
  exact Feder-Subi counts (binom(n,2) - k)/3 with the deficiency k dictated
  by n mod 6.

For ``pack_clique`` the counts are the contract and the construction method
is free.  n = 1, 3 mod 6 use direct Steiner triple systems (the Bose
construction over an idempotent quasigroup for 3 mod 6, the Skolem
construction over a half-idempotent quasigroup for 1 mod 6); n = 0, 2 mod 6
delete one point from a Steiner system of order n + 1, which turns the
deleted point's triples into the perfect-matching leave; n = 5 mod 6 uses
the "6t+5 construction" of a pairwise balanced design with one block of
size 5, whose block is split into two triangles (a 4-cycle leave); n = 4
mod 6 deletes one point of the 4-cycle leave of K_{n+1} (n + 1 = 5 mod 6),
which leaves n/2 + 1 edges.  Every construction is deterministic and every
order is supported.  Every constructed packing is checked against the Feder
count and for edge-disjoint coverage before it is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Iterable, Sequence

from .graphs import Edge, GeneralGraph, Triangle, TrianglePacking, edge, triangle


class UnsupportedCliqueSize(ValueError):
    """Raised when pack_clique is asked for an order beyond a caller's cap."""


@dataclass(frozen=True)
class CliquePackingCount:
    """Exact maximum packing size of K_n: count = (binom(n,2) - k) / 3."""

    n: int
    k: int
    count: int


def feder_count(n: int) -> CliquePackingCount:
    """Deficiency k and maximum triangle-packing size of K_n (n mod 6 cases)."""
    if n < 1:
        raise ValueError("clique order must be positive")
    r = n % 6
    if r in (1, 3):
        k = 0
    elif r == 5:
        k = 4
    elif r in (0, 2):
        k = n // 2
    else:  # r == 4
        k = n // 2 + 1
    pairs = comb(n, 2)
    if (pairs - k) % 3:
        raise RuntimeError(f"deficiency {k} leaves a non-multiple of 3 at n = {n}")
    return CliquePackingCount(n, k, (pairs - k) // 3)


# ---------------------------------------------------------------------------
# 1-factorizations
# ---------------------------------------------------------------------------


def one_factorization(vertices: Sequence[int]) -> list[list[Edge]]:
    """Round-robin 1-factorization of the complete graph on an even vertex set.

    Returns n-1 perfect matchings of n/2 edges whose union is all pairs.
    """
    vs = sorted(vertices)
    n = len(vs)
    if n < 2 or n % 2:
        raise ValueError(f"even vertex count >= 2 required, got {n}")
    rounds = []
    hub = n - 1
    for r in range(n - 1):
        matching = [edge(vs[hub], vs[r])]
        for k in range(1, n // 2):
            a = (r + k) % (n - 1)
            b = (r - k) % (n - 1)
            matching.append(edge(vs[a], vs[b]))
        rounds.append(sorted(matching))
    return rounds


def near_one_factorization(vertices: Sequence[int]) -> list[tuple[list[Edge], int]]:
    """Near-1-factorization of an odd complete graph.

    Returns n rounds of (n-1)/2 edges; round r pairs {r+k, r-k} mod n and
    leaves vertex r as the bye.  Each edge occurs in exactly one round.
    """
    vs = sorted(vertices)
    n = len(vs)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"odd vertex count required, got {n}")
    rounds = []
    for r in range(n):
        matching = [
            edge(vs[(r + k) % n], vs[(r - k) % n]) for k in range(1, n // 2 + 1)
        ]
        rounds.append((sorted(matching), vs[r]))
    return rounds


# ---------------------------------------------------------------------------
# Apex-over-matching packings (clique K complete to apex set S)
# ---------------------------------------------------------------------------


def pack_side(
    S: Iterable[int], K: Iterable[int], host: GeneralGraph
) -> TrianglePacking:
    """Pack triangles of the form (apex in S) + (edge of the clique K).

    Preconditions (checked): K induces a clique in host, S and K are
    disjoint, and S is complete to K.  Matching i of the (near-)
    1-factorization of K goes to the i-th smallest S-vertex; leftover
    matchings stay unused, which later constructions rely on.
    """
    return TrianglePacking(frozenset(_side_triangles(S, K, host)))


def _side_triangles(
    S: Iterable[int], K: Iterable[int], host: GeneralGraph
) -> list[Triangle]:
    """``pack_side`` as a list of sorted triangles, built without a packing
    object; the preconditions are checked alike, with the same errors."""
    s_sorted = sorted(set(S))
    k_sorted = sorted(set(K))
    if set(s_sorted) & set(k_sorted):
        raise ValueError("apex set and clique must be disjoint")
    if not host.is_clique(k_sorted):
        raise ValueError("K does not induce a clique in the host graph")
    if not host.complete_between(s_sorted, k_sorted):
        raise ValueError("S is not complete to K in the host graph")
    if len(k_sorted) < 2 or not s_sorted:
        return []
    # distinct apexes over the distinct matchings of a (near-)1-factorization
    # share no edge; each matching edge a < b is placed around its apex
    return [
        (apex, a, b) if apex < a else (a, apex, b) if apex < b else (a, b, apex)
        for apex, m in zip(s_sorted, _side_rounds(len(k_sorted)))
        for a, b in ((k_sorted[i], k_sorted[j]) for i, j in m)
    ]


@cache
def _side_rounds(n: int) -> tuple[tuple[Edge, ...], ...]:
    """The matchings of ``one_factorization`` (even n) or
    ``near_one_factorization`` (odd n) on 0..n-1, built once per order;
    ``pack_side`` relabels them onto its sorted clique, which keeps every
    pair sorted."""
    if n % 2 == 0:
        return tuple(map(tuple, one_factorization(range(n))))
    return tuple(tuple(m) for m, _bye in near_one_factorization(range(n)))


# ---------------------------------------------------------------------------
# Maximum clique packings at the Feder-Subi counts
# ---------------------------------------------------------------------------


def _bose_sts(t: int) -> list[Triangle]:
    """Steiner triple system of order 6t+3 (points Z_{2t+1} x {0,1,2}).

    Uses the idempotent commutative quasigroup i*j = (i+j)(t+1) mod (2t+1).
    """
    q = 2 * t + 1
    inv2 = t + 1  # 2 * (t+1) = 1 mod q

    def pt(i: int, col: int) -> int:
        return col * q + i

    triples = [triangle(pt(i, 0), pt(i, 1), pt(i, 2)) for i in range(q)]
    for col in range(3):
        for i in range(q):
            for j in range(i + 1, q):
                k = (i + j) * inv2 % q
                triples.append(triangle(pt(i, col), pt(j, col), pt(k, (col + 1) % 3)))
    return triples


def _skolem_sts(t: int) -> list[Triangle]:
    """Steiner triple system of order 6t+1 (points Z_{2t} x {0,1,2} + one).

    Uses the half-idempotent commutative quasigroup obtained by relabeling
    the Z_{2t} addition table: i*j = s/2 if s = i+j mod 2t is even, else
    t + (s-1)/2.
    """
    if t == 0:
        return []
    q = 2 * t
    inf = 3 * q  # the extra point

    def star(i: int, j: int) -> int:
        s = (i + j) % q
        return s // 2 if s % 2 == 0 else t + (s - 1) // 2

    def pt(i: int, col: int) -> int:
        return col * q + i

    triples = [triangle(pt(i, 0), pt(i, 1), pt(i, 2)) for i in range(t)]
    for col in range(3):
        for i in range(t):
            triples.append(triangle(inf, pt(t + i, col), pt(i, (col + 1) % 3)))
    for col in range(3):
        for i in range(q):
            for j in range(i + 1, q):
                triples.append(
                    triangle(pt(i, col), pt(j, col), pt(star(i, j), (col + 1) % 3))
                )
    return triples


def _sts(n: int) -> list[Triangle]:
    """Steiner triple system on points 0..n-1 (n = 1 or 3 mod 6)."""
    if n % 6 == 3:
        return _bose_sts((n - 3) // 6)
    if n % 6 == 1:
        return _skolem_sts((n - 1) // 6)
    raise ValueError(f"no Steiner triple system of order {n}")


def _pbd5_packing(t: int) -> list[Triangle]:
    """Maximum packing of K_{6t+5} with a 4-cycle leave.

    The "6t+5 construction" of a pairwise balanced design with one block of
    size 5: points (x, i) -> i*q + x for x in Z_q, i in Z_3 (q = 2t+1), plus
    inf1 = 3q and inf2 = 3q+1, over the idempotent commutative quasigroup
    x o y = (t+1)(x+y) mod q and the permutation alpha that fixes 0 and
    cycles 1 -> 2 -> ... -> 2t -> 1.  The triples {(x,i), (y,i),
    (alpha(x o y), i+1)} cover every pair except the skew pairs
    {(x,i), (alpha x, i+1)} and the pairs inside {inf1, inf2, (0,0), (0,1),
    (0,2)}.  For x != 0 the skew pairs form cycles of the even length
    lcm(2t, 3), whose edges are closed with inf1 and inf2 alternately; the
    block of size 5 becomes {inf1, inf2, (0,0)} and {inf1, (0,1), (0,2)},
    which leaves the 4-cycle inf2 (0,1) (0,0) (0,2).
    """
    q = 2 * t + 1
    inf1, inf2 = 3 * q, 3 * q + 1

    def alpha(x: int) -> int:
        return x % (2 * t) + 1 if x else 0

    def pt(x: int, i: int) -> int:
        return i % 3 * q + x

    triples = [triangle(inf1, inf2, pt(0, 0)), triangle(inf1, pt(0, 1), pt(0, 2))]
    for i in range(3):
        for x in range(q):
            for y in range(x + 1, q):
                z = alpha((x + y) * (t + 1) % q)
                triples.append(triangle(pt(x, i), pt(y, i), pt(z, i + 1)))
    # every skew cycle passes through column 0; walk each one from there
    seen: set[tuple[int, int]] = set()
    for x0 in range(1, q):
        x, i, k = x0, 0, 0
        while (x, i) not in seen:
            seen.add((x, i))
            apex = inf1 if k % 2 == 0 else inf2
            triples.append(triangle(apex, pt(x, i), pt(alpha(x), i + 1)))
            x, i, k = alpha(x), (i + 1) % 3, k + 1
    return triples


def _delete_leave_point(n: int, tris: Sequence[Triangle]) -> list[Triangle]:
    """Packing of K_{n-1} from a maximum packing of K_n, n = 5 mod 6.

    Every vertex of K_n has even degree n - 1 and each triangle through it
    takes two of its edges, so every leave degree is even: the 4-edge leave
    is a 4-cycle.  Deleting its largest vertex v drops the (n - 3)/2
    triangles through v, which leaves the Feder count of K_{n-1}; the
    survivors are relabeled to 0..n-2.
    """
    degree = [n - 1] * n
    for t in tris:
        for u in t:
            degree[u] -= 2
    on_cycle = [u for u in range(n) if degree[u]]
    if len(on_cycle) != 4 or any(degree[u] != 2 for u in on_cycle):
        raise RuntimeError(f"K_{n} packing leave is not a 4-cycle")
    v = on_cycle[-1]
    return [
        triangle(*(u - (u > v) for u in t)) for t in tris if v not in t
    ]


_CLIQUE_PACK_CACHE: dict[int, tuple[Triangle, ...]] = {}


def _canonical_clique_packing(n: int) -> tuple[Triangle, ...]:
    """Feder-optimal packing of K_n on points 0..n-1, memoized and verified."""
    if n in _CLIQUE_PACK_CACHE:
        return _CLIQUE_PACK_CACHE[n]
    if n < 3:
        tris: list[Triangle] = []
    elif n % 6 in (1, 3):
        tris = _sts(n)
    elif n % 6 in (0, 2):
        # drop the triples through one point of STS(n+1); the partner pairs
        # of the deleted point become the perfect-matching leave
        tris = [t for t in _sts(n + 1) if n not in t]
    elif n % 6 == 4:
        tris = _delete_leave_point(n + 1, _canonical_clique_packing(n + 1))
    else:  # n = 5 mod 6
        tris = _pbd5_packing((n - 5) // 6)

    expected = feder_count(n).count if n >= 1 else 0
    if len(tris) != expected:
        raise RuntimeError(
            f"K_{n} packing has size {len(tris)}, expected {expected}"
        )
    seen: set[Edge] = set()
    for t in tris:
        for p in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            if p in seen or not (0 <= p[0] < p[1] < n):
                raise RuntimeError(f"K_{n} packing reuses or exceeds edge {p}")
            seen.add(p)
    packed = tuple(sorted(tris))
    _CLIQUE_PACK_CACHE[n] = packed
    return packed


def pack_clique(
    vertices: Sequence[int], max_n: int | None = None
) -> TrianglePacking:
    """Edge-disjoint triangle packing of the clique on ``vertices`` whose size
    equals ``feder_count(len(vertices)).count`` exactly.

    Every order is supported; a caller that passes ``max_n`` gets
    UnsupportedCliqueSize for orders beyond it.  The packing relabels the
    verified cached packing of K_n, so it is built without a second check.
    """
    vs = sorted(set(vertices))
    if max_n is not None and len(vs) > max_n:
        raise UnsupportedCliqueSize(
            f"clique order {len(vs)} exceeds the supported bound {max_n}"
        )
    return TrianglePacking._trusted(frozenset(_clique_triangles(vs)))


def _clique_triangles(vs: Sequence[int]) -> list[Triangle]:
    """The cached packing of K_n relabeled onto the sorted distinct vertices
    vs; an increasing relabeling keeps every triangle sorted, and the list
    in lexicographic order."""
    return [
        (vs[a], vs[b], vs[c]) for a, b, c in _canonical_clique_packing(len(vs))
    ]
