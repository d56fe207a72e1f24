from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochain_tuza import packings
from cochain_tuza.graphs import GeneralGraph, verify_packing
from cochain_tuza.packings import (
    UnsupportedCliqueSize,
    feder_count,
    near_one_factorization,
    one_factorization,
    pack_clique,
    pack_side,
)


def test_feder_count_table():
    assert (feder_count(7).k, feder_count(7).count) == (0, 7)
    assert (feder_count(6).k, feder_count(6).count) == (3, 4)
    assert (feder_count(4).k, feder_count(4).count) == (3, 1)
    assert (feder_count(1).k, feder_count(1).count) == (0, 0)
    for n in range(1, 17):
        r = feder_count(n)
        assert r.count == (comb(n, 2) - r.k) // 3
        assert (comb(n, 2) - r.k) % 3 == 0


def test_one_factorization_examples():
    assert len(one_factorization(range(2))) == 1
    assert one_factorization(range(2))[0] == [(0, 1)]
    f4 = one_factorization(range(4))
    assert len(f4) == 3 and all(len(m) == 2 for m in f4)
    f8 = one_factorization(range(8))
    assert len(f8) == 7
    union = {e for m in f8 for e in m}
    assert len(union) == 28


def test_one_factorization_exhaustive_coverage():
    for n in range(2, 21, 2):
        rounds = one_factorization(range(n))
        assert len(rounds) == n - 1
        seen = set()
        for matching in rounds:
            assert len(matching) == n // 2
            touched = [v for e in matching for v in e]
            assert len(set(touched)) == n  # perfect
            for e in matching:
                assert e not in seen
                seen.add(e)
        assert len(seen) == n * (n - 1) // 2


def test_one_factorization_rejects_odd():
    with pytest.raises(ValueError):
        one_factorization(range(5))


def test_near_one_factorization_covers_all_edges_with_distinct_byes():
    for n in range(1, 16, 2):
        rounds = near_one_factorization(range(n))
        assert len(rounds) == n
        seen = set()
        byes = set()
        for matching, bye in rounds:
            assert len(matching) == (n - 1) // 2
            assert bye not in {v for e in matching for v in e}
            byes.add(bye)
            for e in matching:
                assert e not in seen
                seen.add(e)
        assert len(seen) == n * (n - 1) // 2 and len(byes) == n


def _side_host(s: int, k: int) -> tuple[GeneralGraph, list[int], list[int]]:
    """K-clique of size k complete to an independent set of size s."""
    K = list(range(k))
    S = list(range(k, k + s))
    edges = list(combinations(K, 2)) + [(u, v) for u in S for v in K]
    return GeneralGraph.from_edges(k + s, edges), S, K


def test_pack_side_examples():
    host, S, K = _side_host(1, 2)
    assert len(pack_side(S, K, host)) == 1
    host, S, K = _side_host(3, 4)
    assert len(pack_side(S, K, host)) >= 6
    host, S, K = _side_host(5, 4)
    assert len(pack_side(S, K, host)) >= 6


def test_pack_side_bounds_exhaustive():
    # both bound forms, for all clique and apex sizes up to 12
    for k in range(2, 13):
        for s in range(0, 13):
            host, S, K = _side_host(s, k)
            p = pack_side(S, K, host)
            assert verify_packing(host, p)
            # every triangle takes one apex and one clique edge
            for t in p.sorted_triangles():
                assert sum(1 for v in t if v in set(S)) == 1
            assert 2 * len(p) >= (k - 1) * min(s, k)
            if k % 2 == 0:
                assert 2 * len(p) >= k * min(s, k - 1)


def test_pack_side_unused_matching_guarantee():
    # |S| <= |K| - 2 with |K| even leaves at least one whole matching unused
    for k in range(4, 13, 2):
        for s in range(1, k - 1):
            host, S, K = _side_host(s, k)
            tris = pack_side(S, K, host).triangles
            used = {e for t in tris for e in combinations(t, 2)}
            assert any(
                all(e not in used for e in matching)
                for matching in one_factorization(K)
            )


def test_side_count_is_the_size_the_side_packing_realizes():
    # the one statement of p(S, K)'s size, which the certifier's table sizes
    # and the case search's apex bounds read, against the construction on a
    # complete host: apexes below the clique, and apexes interleaved with it
    host = GeneralGraph.from_edges(32, combinations(range(32), 2))
    for s in range(1, 11):
        for k in range(13):
            below = (range(s), range(s, s + k))
            # apexes 0, 2, ..., 2s - 2; the clique's first ids are the odd
            # ones between them
            woven = (
                range(0, 2 * s, 2),
                [v for v in range(2 * s + k) if v % 2 or v >= 2 * s][:k],
            )
            for S, K in (below, woven):
                built = packings._side_triangles(S, K, host)
                assert packings.side_count(s, k) == len(built), (s, k, list(S))
    assert packings.side_count(0, 12) == 0


def test_pack_side_rejects_bad_inputs():
    host, S, K = _side_host(2, 3)
    with pytest.raises(ValueError):
        pack_side(S + [K[0]], K, host)  # overlap
    incomplete = GeneralGraph.from_edges(5, list(combinations(range(3), 2)) + [(3, 0)])
    with pytest.raises(ValueError):
        pack_side([3, 4], [0, 1, 2], incomplete)


def test_pack_clique_examples():
    assert len(pack_clique(range(3))) == 1
    p7 = pack_clique(range(7))
    assert len(p7) == 7  # a Steiner triple system on 7 points
    assert {e for t in p7.sorted_triangles() for e in combinations(t, 2)} == set(
        combinations(range(7), 2)
    )
    assert len(pack_clique(range(9))) == 12


def test_pack_clique_feder_equality_up_to_default_cap():
    for n in range(1, 21):
        verts = list(range(100, 100 + n))
        host = GeneralGraph.from_edges(
            100 + n, combinations(verts, 2)
        )
        p = pack_clique(verts)
        assert len(p) == feder_count(n).count if n >= 1 else 0
        assert verify_packing(host, p)


def test_pack_clique_respects_cap():
    # no cap by default; only a caller's explicit max_n bounds the order
    assert len(pack_clique(range(21))) == feder_count(21).count
    with pytest.raises(UnsupportedCliqueSize):
        pack_clique(range(21), max_n=20)
    assert len(pack_clique(range(25), max_n=32)) == feder_count(25).count


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10))
def test_pack_side_verifies_and_hits_construction_size(k, s):
    host, S, K = _side_host(s, k)
    p = pack_side(S, K, host)
    matchings = k - 1 if k % 2 == 0 else k
    per = k // 2 if k % 2 == 0 else (k - 1) // 2
    assert len(p) == min(s, matchings) * per
    assert verify_packing(host, p)


def test_pack_clique_mod4_orders_hit_the_feder_count():
    for n in [*range(4, 65, 6), 124]:
        host = GeneralGraph.from_edges(n, combinations(range(n), 2))
        p = pack_clique(range(n))
        assert len(p) == feder_count(n).count, n
        assert verify_packing(host, p), n


def test_mod5_orders_hit_the_feder_count_with_a_4_cycle_leave():
    for n in range(5, 204, 6):
        host = GeneralGraph.from_edges(n, combinations(range(n), 2))
        p = pack_clique(range(n))
        assert len(p) == feder_count(n).count, n
        assert verify_packing(host, p), n
        # raises unless the leave is a 4-cycle
        packings._delete_leave_point(n, p.sorted_triangles())


def test_cold_clique_builds_are_deterministic():
    # every order up to 300 builds from a cold cache, its Feder count and
    # disjointness checked by explicit raises, twice to the same triangles
    builds = []
    for _ in range(2):
        packings._canonical_clique_packing.cache_clear()
        builds.append(
            [
                pack_clique(range(n)).sorted_triangles()
                for n in range(1, 301)
            ]
        )
    assert builds[0] == builds[1]


def test_leave_point_deletion_rejects_a_leave_that_is_not_a_4_cycle():
    with pytest.raises(RuntimeError, match="4-cycle"):
        packings._delete_leave_point(5, [])
