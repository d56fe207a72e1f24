import importlib
from collections import Counter
from itertools import product
from math import comb

import pytest

from cochain_tuza.casesearch import EXPECTED_EXCEPTIONAL, RECIPES, Clique
from cochain_tuza.certify import (
    _CODE_RECIPES,
    _EXCEPTIONAL_ROUTES,
    _PORTFOLIO_RECIPES,
    BudgetExhausted,
    CertificationFailure,
    PreconditionError,
    RecipeInapplicable,
    _Ctx,
    _portfolio_core,
    _term_packings,
    build_T1,
    build_T2,
    certify,
    swap_sides,
)
from cochain_tuza.generators import fuzz_instances
from cochain_tuza.graphs import (
    CoChainGraph,
    TrianglePacking,
    build_cochain,
    profile,
    verify_hitting,
    verify_packing,
)
from cochain_tuza.oracles import exact_nu, exact_tau
from cochain_tuza.packings import feder_count

from conftest import monotone_sequences, realize_profile

FIGURE_GRAPH = build_cochain(4, 8, (8, 5, 4, 2))


def _assert_valid(g, cert):
    G = g.to_general()
    assert verify_hitting(G, cert.hitting)
    assert verify_packing(G, cert.packing)
    assert cert.h_size == len(cert.hitting) and cert.p_size == len(cert.packing)
    assert cert.ratio_ok == (cert.h_size <= 2 * cert.p_size)


# -- hitting sets -----------------------------------------------------------


def test_T1_on_figure_instance():
    h = build_T1(FIGURE_GRAPH)
    assert verify_hitting(FIGURE_GRAPH.to_general(), h)
    # ell*m + (x_ell-ell)(x_m-m) + 2 binom(m,2) + 2 binom(ell,2)
    assert len(h) <= 8 + 1 + 12 + 2


def test_T1_on_complete_join_of_two_edges():
    g = build_cochain(2, 2, (2, 2))  # K_4
    h = build_T1(g)
    assert verify_hitting(g.to_general(), h)


def test_T1_disjoint_cliques_is_within_half_only():
    g = build_cochain(4, 6, (0, 0, 0, 0))
    h = build_T1(g)
    assert len(h) == 2 * comb(2, 2) + 2 * comb(3, 2)
    assert verify_hitting(g.to_general(), h)


def test_T2_size_formula():
    g = realize_profile(3, 3, 2, 1)
    assert profile(g).as_tuple() == (3, 3, 2, 1)
    h = build_T2(g)
    assert len(h) == 6 + 6 + 6 + 3 - 2  # = 19
    assert verify_hitting(g.to_general(), h)

    g0 = build_cochain(4, 6, (0, 0, 0, 0))
    assert len(build_T2(g0)) == 2 * comb(3, 2) + 2 * comb(2, 2)


def test_T2_requires_small_x_ell():
    with pytest.raises(PreconditionError):
        build_T2(FIGURE_GRAPH)  # x_ell = 3 >= ell = 2


def test_T2_verifies_on_exhaustive_small_instances():
    for t in monotone_sequences(4, 4):
        g = build_cochain(4, 4, t)
        if profile(g).x_ell < profile(g).ell:
            assert verify_hitting(g.to_general(), build_T2(g))


def test_T1_verifies_on_exhaustive_small_instances():
    # build_T1 does not check itself; certify's one check would catch a miss
    # late, so the hitting property is pinned here directly
    for l_size, m_size in product((0, 2, 4, 6), repeat=2):
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t)
            if profile(g).x_ell >= profile(g).ell:
                assert verify_hitting(g.to_general(), build_T1(g)), (l_size, m_size, t)


# -- swap -------------------------------------------------------------------


def test_swap_sides_is_an_isomorphism():
    for t in monotone_sequences(3, 4):
        g = build_cochain(3, 4, t)
        sg, order = swap_sides(g)
        assert (sg.l_size, sg.m_size) == (4, 3)
        G, SG = g.to_general(), sg.to_general()
        for a in range(G.n):
            for b in range(a + 1, G.n):
                assert SG.has_edge(a, b) == G.has_edge(order[a], order[b])


def test_swap_sides_swaps_profile():
    p = profile(FIGURE_GRAPH)
    sp = profile(swap_sides(FIGURE_GRAPH)[0])
    assert sp.as_tuple() == (p.m, p.ell, p.x_m, p.x_ell)


# -- guided certification ---------------------------------------------------


def test_figure_instance_certifies_with_oracle_crosscheck():
    cert = certify(FIGURE_GRAPH, "guided")
    _assert_valid(FIGURE_GRAPH, cert)
    assert cert.ratio_ok
    G = FIGURE_GRAPH.to_general()
    r_tau, r_nu = exact_tau(G), exact_nu(G)
    assert r_tau.proven and r_nu.proven
    assert r_tau.value <= cert.h_size
    assert cert.p_size <= r_nu.value
    assert r_tau.value <= 2 * r_nu.value


def test_k4_as_cochain_defers_to_small_instance_route():
    g = build_cochain(2, 2, (2, 2))
    cert = certify(g, "guided")
    _assert_valid(g, cert)
    assert (cert.h_size, cert.p_size) == (2, 1)


def test_empty_graph():
    cert = certify(build_cochain(0, 0, ()), "guided")
    assert cert.h_size == 0 and cert.p_size == 0 and cert.ratio_ok


def test_single_side_graph():
    g = build_cochain(0, 6, ())
    cert = certify(g, "guided")
    _assert_valid(g, cert)
    assert cert.ratio_ok


def test_guided_rejects_odd_sides():
    with pytest.raises(PreconditionError):
        certify(build_cochain(3, 4, (4, 2, 0)), "guided")


def test_p19_packing_contains_the_named_triangles():
    g = realize_profile(3, 3, 2, 1)
    cert = certify(g, "guided")
    assert cert.method == "3.2.2-P19"
    tris = set(cert.packing.triangles)
    c1, c2 = g.c(1), g.c(2)
    d4, d5, d6 = g.d(4), g.d(5), g.d(6)
    assert (c1, c2, d6) in tris  # bridge triangle over the unused side edge
    assert tuple(sorted((c1, d4, d5))) in tris
    _assert_valid(g, cert)


def test_p19_symmetric_profile_goes_through_swap():
    g = realize_profile(3, 2, 2, 1)
    cert = certify(g, "guided")
    assert cert.method.endswith("/swapped")
    _assert_valid(g, cert)
    assert cert.ratio_ok


def test_p18_path_on_exceptional_profiles():
    for tup in ((2, 5, 1, 4), (3, 4, 2, 3), (3, 6, 2, 5)):
        g = realize_profile(*tup)
        assert profile(g).as_tuple() == tup
        cert = certify(g, "guided")
        assert cert.method == "3.2.2-P18"
        _assert_valid(g, cert)
        assert cert.ratio_ok


def _instance_with_method(l_size, m_size, thresholds, expected_method):
    g = build_cochain(l_size, m_size, thresholds)
    cert = certify(g, "guided")
    assert cert.method == expected_method, (cert.method, expected_method)
    _assert_valid(g, cert)
    assert cert.ratio_ok
    return cert


def test_named_case_paths_are_reachable():
    # ell = 1 packings over the whole m-side
    _instance_with_method(2, 8, (8, 2), "3.1-l1-P1")
    _instance_with_method(2, 8, (8, 8), "3.1-l1-P2")
    # case 1
    _instance_with_method(4, 8, (8, 5, 4, 2), "3.1-case1-P3")
    _instance_with_method(4, 8, (8, 8, 4, 3), "3.1-case1-P4")
    _instance_with_method(4, 6, (6, 4, 2, 0), "3.1-case1-P6")
    _instance_with_method(4, 10, (10, 5, 4, 0), "3.1-case1-P7")
    _instance_with_method(6, 6, (3, 3, 3, 2, 1, 0), "3.1-case1-P7-refined")
    _instance_with_method(6, 6, (4, 4, 4, 2, 1, 0), "3.1-case1-P8")
    # case 2
    _instance_with_method(4, 6, (5, 5, 5, 5), "3.1-case2.1-P9")
    _instance_with_method(4, 6, (5, 5, 5, 3), "3.1-case2.1-P2")
    _instance_with_method(6, 6, (6, 5, 4, 3, 3, 1), "3.1-case2.1-P10'")
    _instance_with_method(6, 6, (3, 3, 3, 3, 0, 0), "3.1-case2.1-P11")
    _instance_with_method(6, 10, (10, 9, 9, 5, 5, 5), "3.1-case2.2-P12")
    _instance_with_method(6, 8, (8, 8, 8, 4, 4, 3), "3.1-case2.2-P4")
    # x_ell < ell
    _instance_with_method(8, 8, (8, 0, 0, 0, 0, 0, 0, 0), "3.2.1-P13")


def test_balanced_even_deferral_names_its_recipe():
    _instance_with_method(
        4, 4, (4, 3, 2, 1), "portfolio(3.1-case2.1-balanced-even)[P10'+T1]"
    )


def test_p5_prime_instance():
    g = build_cochain(4, 8, (8, 8, 8, 8))
    assert profile(g).as_tuple() == (2, 4, 4, 8)
    cert = certify(g, "guided")
    assert cert.method == "3.1-case1-P5'"
    _assert_valid(g, cert)


def test_refined_T1_drops_exactly_one_edge():
    g = build_cochain(6, 6, (3, 3, 3, 2, 1, 0))
    cert = certify(g, "guided")
    assert cert.method == "3.1-case1-P7-refined"
    t1 = build_T1(g)
    assert cert.h_size == len(t1) - 1


def test_guided_exhaustive_small_profiles():
    for l_size, m_size in product((2, 4), (2, 4, 6)):
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t)
            cert = certify(g, "guided")
            _assert_valid(g, cert)
            assert cert.ratio_ok, (l_size, m_size, t, cert.method)


def test_guided_exhaustive_sides_up_to_8():
    # the theorem's claim at desk scale: every threshold profile with both
    # sides at most 8 gets a valid ratio certificate
    count = 0
    for l_size, m_size in product((2, 4, 6, 8), repeat=2):
        for t in monotone_sequences(l_size, m_size):
            cert = certify(build_cochain(l_size, m_size, t), "guided")
            assert cert.ratio_ok, (l_size, m_size, t, cert.method)
            count += 1
    assert count == 21462


def test_large_cliques_certify_at_the_feder_count():
    # P7's clique X_ell + m_bot has order 80, 200 (2 mod 6) and 131 (5 mod 6,
    # the direct 6t+5 construction); every order is packed at its Feder count
    for g, order in (
        (build_cochain(80, 80, (40,) * 40 + (0,) * 40), 80),
        (build_cochain(200, 200, (100,) * 100 + (0,) * 100), 200),
        (build_cochain(130, 132, (66,) * 65 + (0,) * 65), 131),
    ):
        cert = certify(g, "guided")
        assert cert.method == "3.1-case1-P7" and cert.ratio_ok, cert.method
        _assert_valid(g, cert)
        terms = _term_packings("P7", _Ctx.of(g))
        assert cert.p_size == sum(map(len, terms))
        cliques = [
            part
            for term, part in zip(RECIPES["P7"].terms, terms)
            if isinstance(term, Clique)
        ]
        assert [len(part) for part in cliques] == [feder_count(order).count]


# -- portfolio and exact ----------------------------------------------------


def test_portfolio_dominates_guided():
    for l_size, m_size in ((2, 4), (4, 4), (4, 6)):
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t)
            guided = certify(g, "guided")
            port = certify(g, "portfolio")
            _assert_valid(g, port)
            assert port.h_size <= guided.h_size
            assert port.p_size >= guided.p_size


def test_portfolio_accepts_odd_sided_cochain():
    g = build_cochain(1, 3, (2,))
    cert = certify(g, "portfolio")
    _assert_valid(g, cert)


def test_exact_mode_matches_oracles():
    g = build_cochain(2, 2, (2, 2))
    cert = certify(g, "exact")
    assert (cert.h_size, cert.p_size) == (2, 1)
    assert cert.ratio_ok


def test_exact_mode_budget_exhaustion_is_reported(monkeypatch):
    monkeypatch.setenv("COCHAIN_TUZA_ORACLE_BUDGET", "3")
    g = build_cochain(4, 6, (6, 6, 6, 6))
    with pytest.raises(CertificationFailure, match="budget"):
        certify(g, "exact")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        certify(FIGURE_GRAPH, "heuristic")


def test_exact_mode_skips_nu_once_tau_is_unproven(monkeypatch):
    # the package binds the name ``certify`` to the function, so fetch the module
    certify_module = importlib.import_module("cochain_tuza.certify")

    def nu_must_not_run(*args, **kwargs):
        raise AssertionError("exact_nu ran after exact_tau came back unproven")

    monkeypatch.setenv("COCHAIN_TUZA_ORACLE_BUDGET", "3")
    monkeypatch.setattr(certify_module, "exact_nu", nu_must_not_run)
    with pytest.raises(BudgetExhausted):
        certify(build_cochain(4, 6, (6, 6, 5, 4)), "exact")


def test_exceptional_routes_cover_exactly_the_exceptional_profiles():
    assert set(_EXCEPTIONAL_ROUTES) == EXPECTED_EXCEPTIONAL


def test_portfolio_recipes_build_or_report_inapplicable():
    # a recipe either yields a valid packing or raises RecipeInapplicable;
    # any other exception is a bug the portfolio must not swallow
    for l_size, m_size in product((2, 4, 6), repeat=2):
        if l_size + m_size > 8:
            continue
        for t in monotone_sequences(l_size, m_size):
            ctx = _Ctx.of(build_cochain(l_size, m_size, t))
            for tag, fn in _PORTFOLIO_RECIPES:
                try:
                    tris = fn(ctx)
                except RecipeInapplicable:
                    continue
                assert verify_packing(ctx.G, tris), (tag, l_size, m_size, t)


def test_certify_verifies_each_witness_once(monkeypatch):
    # certify is the one check point: per call, each witness is verified once
    # against a host graph built once, plus once for a side-swapped instance
    certify_module = importlib.import_module("cochain_tuza.certify")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("verify_hitting", "verify_packing"):
        monkeypatch.setattr(
            certify_module, name, counted(name, getattr(certify_module, name))
        )
    monkeypatch.setattr(
        CoChainGraph, "to_general", counted("to_general", CoChainGraph.to_general)
    )
    monkeypatch.setattr(
        TrianglePacking,
        "__post_init__",
        counted("packing_checks", TrianglePacking.__post_init__),
    )

    def hosts_built(g, mode):
        calls.clear()
        cert = certify(g, mode)
        assert (calls["verify_hitting"], calls["verify_packing"]) == (1, 1), (
            g, mode, cert.method, calls,
        )
        return cert, calls["to_general"]

    methods = set()
    for l_size, m_size in product((0, 2, 4, 6, 8), repeat=2):
        if l_size + m_size > 8:
            continue
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t)
            cert, built = hosts_built(g, "guided")
            allowed = 1 + ("/swapped" in cert.method)
            assert built <= allowed, (g, cert.method, built)
            methods.add(cert.method)
            # no packing is checked on construction; only the exact oracle's
            # own witness, on the fallback path, is built by the checked
            # constructor
            oracle = cert.method.startswith("exact-fallback(")
            assert calls["packing_checks"] == oracle, (g, cert.method, calls)
            # portfolio mode also runs guided dispatch, swap included
            _, built = hosts_built(g, "portfolio")
            assert built <= allowed, (g, "portfolio", built)
            assert calls["packing_checks"] == oracle, (g, "portfolio", calls)
            if g.n <= 6:
                _, built = hosts_built(g, "exact")
                assert built == 1, (g, "exact", built)
    assert "empty" in methods and "degenerate-clique" in methods
    assert any(m.endswith("/swapped") for m in methods)
    assert any(m.startswith("portfolio(") for m in methods)
    assert any(m.startswith("exact-fallback(") for m in methods)


def test_guided_certify_builds_T1_at_most_once(monkeypatch):
    # the deferral hands its context, and with it T1, to the portfolio, and
    # the refined P7 path trims the context's T1 instead of building another
    certify_module = importlib.import_module("cochain_tuza.certify")
    built = []

    def counted(g):
        built.append(g)
        return build_T1(g)

    monkeypatch.setattr(certify_module, "build_T1", counted)
    deferred = refined = 0
    for g in fuzz_instances(1, 2000, 16):
        built.clear()
        cert = certify(g, "guided")
        assert len(built) <= 1, (g, cert.method, len(built))
        deferred += cert.method.startswith("portfolio(")
        refined += "P7-refined" in cert.method
    assert deferred >= 40 and refined >= 1, (deferred, refined)


def test_portfolio_certify_builds_T1_at_most_once(monkeypatch):
    # portfolio mode hands one context to the portfolio and to guided
    # dispatch, and a side swap relabels the T1 already built
    certify_module = importlib.import_module("cochain_tuza.certify")
    built = []

    def counted(g):
        built.append(g)
        return build_T1(g)

    monkeypatch.setattr(certify_module, "build_T1", counted)
    swapped = 0
    for g in fuzz_instances(1, 300, 8):
        built.clear()
        certify(g, "portfolio")
        assert len(built) <= 1, (g, len(built))
        swapped += "/swapped" in certify(g, "guided").method
    assert swapped >= 50, swapped


def test_portfolio_packs_both_sides_of_an_odd_sided_cochain():
    g = build_cochain(3, 4, (4, 2, 0))
    cert = certify(g, "portfolio")
    _assert_valid(g, cert)
    assert cert.p_size >= 2
    # a side of order 131 > 128 is packed at its Feder count like any other
    g = build_cochain(131, 4, (0,) * 131)
    cert = certify(g, "portfolio")
    _assert_valid(g, cert)
    assert cert.p_size == feder_count(131).count + feder_count(4).count
    core = _portfolio_core(g, g.to_general())
    assert core.method == "portfolio[side-cliques+all-edges]"
    assert core.p_size == cert.p_size


def test_p18_loses_a_clique_triangle_only_when_the_clique_packing_has_no_leave():
    # the missing edge takes an unused pair of the clique packing when there
    # is one, so the recipe's size does not depend on which triangles it has
    for ell, m in product(range(2, 9), repeat=2):
        ctx = _Ctx.of(realize_profile(ell, m, ell - 1, m - 1))
        tris = _CODE_RECIPES["P18"](ctx)
        clique = set(ctx.vertices("l_top") + ctx.vertices("m_bot"))
        inside = sum(1 for t in tris if clique.issuperset(t))
        full = feder_count(ell + m)
        assert inside == full.count - (full.k == 0), (ell, m)
