import hashlib
import importlib
import json
import random
from collections import Counter
from itertools import chain, combinations, product
from math import comb

import pytest

from cochain_tuza.casesearch import recipe_lower_bound
from cochain_tuza.certify import (
    _CODE_RECIPES,
    _CODE_SIZES,
    BudgetExhausted,
    CertificationFailure,
    PreconditionError,
    RecipeInapplicable,
    _build,
    _Ctx,
    _largest_packing,
    _refined_T1,
    _route,
    _table_size,
    _term_packings,
    _term_size,
    build_T1,
    build_T2,
    certify,
    oracle_budget,
    swap_sides,
)
from cochain_tuza.cli import EXIT_VERIFY
from cochain_tuza.cli import main as cli_main
from cochain_tuza.fileio import certificate_document, write_cochain, write_general
from cochain_tuza.generators import (
    count_monotone_sequences,
    fuzz_instances,
    random_cochain,
    unrank_monotone_sequence,
)
from cochain_tuza.graphs import (
    CaseProfile,
    CoChainGraph,
    GeneralGraph,
    TrianglePacking,
    build_cochain,
    profile,
    verify_hitting,
    verify_packing,
)
from cochain_tuza.oracles import DEFAULT_BUDGET, exact_nu, exact_tau
from cochain_tuza.packings import feder_count
from cochain_tuza.recipes import (
    EXCEPTIONAL_ROUTES,
    F_RECIPE_IDS,
    RECIPES,
    Clique,
    t2_size,
)
from cochain_tuza.recognition import recognize_cochain

from conftest import (
    complete_graph,
    monotone_sequences,
    random_realization,
    realize_profile,
    reference_groups,
)

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


def _t1_blocks(g):
    """T1 written out from its definition: every within-half edge plus the
    top-ell/bot-m and bot-ell/top-m cross edges of g."""
    G, ref = g.to_general(), reference_groups(g)
    edges = {e for half in _halves(ref) for e in combinations(half, 2)}
    edges |= {(u, v) for u in ref["l_top"] for v in ref["m_bot"] if G.has_edge(u, v)}
    edges |= {(u, v) for u in ref["l_bot"] for v in ref["m_top"] if G.has_edge(u, v)}
    return edges


def _t2_blocks(g):
    """T2 written out from its definition: every within-half edge plus all
    X_ell/bot-m and X_m/top-ell edges."""
    ref = reference_groups(g)
    edges = {e for half in _halves(ref) for e in combinations(half, 2)}
    edges |= {(u, v) for u in ref["X_ell"] for v in ref["m_bot"]}
    edges |= {(u, v) for u in ref["l_top"] for v in ref["X_m"]}
    return edges


def _halves(ref):
    return ref["l_top"], ref["l_bot"], ref["m_top"], ref["m_bot"]


def test_T1_and_T2_equal_their_block_definitions_exhaustively():
    # the mask builders against the definitions as edge lists, on every
    # co-chain graph with even sides up to 8; T1 is also the cut of g into
    # A = top-ell + bot-m and B = bot-ell + top-m, and the side swap's
    # reversal v -> n-1-v maps g's T1 and T2 onto the swapped graph's, which
    # is why guided mode relabels only the packing of a swapped leaf
    t2_count = 0
    for l_size, m_size in product((0, 2, 4, 6, 8), repeat=2):
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t)
            t1 = build_T1(g)
            assert t1.edges == _t1_blocks(g), g
            ref = reference_groups(g)
            a = set(ref["l_top"] + ref["m_bot"])
            inside = {(u, v) for u, v in g.to_general().edges if (u in a) == (v in a)}
            assert t1.edges == inside, g
            sg, r = swap_sides(g)[0], g.n - 1
            assert {(r - v, r - u) for u, v in t1.edges} == build_T1(sg).edges, g
            if profile(g).x_ell < profile(g).ell:
                t2 = build_T2(g)
                assert t2.edges == _t2_blocks(g), g
                assert {(r - v, r - u) for u, v in t2.edges} == build_T2(sg).edges, g
                t2_count += 1
    assert t2_count > 5000, t2_count


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
    # balanced-even (ell = m even, x_ell > ell) is no longer deferred to the
    # portfolio: guided mode names the P10' recipe itself
    _instance_with_method(4, 4, (4, 3, 2, 1), "3.1-case2.1-P10'")


def test_balanced_even_profiles_certify_with_p10_prime():
    # every profile with ell = m even and x_ell > ell, up to ell = 16: P10'
    # alone reaches the ratio against T1 on the canonical realization
    graphs, slacks = 0, []
    for ell in range(2, 17, 2):
        for xl, xm in product(range(ell + 1, 2 * ell + 1), range(ell, 2 * ell + 1)):
            cert = certify(realize_profile(ell, ell, xl, xm), "guided")
            assert cert.method == "3.1-case2.1-P10'", (ell, xl, xm, cert.method)
            graphs += 1
            slacks.append(2 * cert.p_size - cert.h_size)
    assert graphs == 888 and min(slacks) == 0, (graphs, min(slacks))


def test_small_deferral_is_polished_without_the_oracle_budget(monkeypatch):
    # the largest packing, P7, fails the ratio against T1 here; the polish
    # settles it, so a one-node oracle budget stops exact mode only
    monkeypatch.setenv("COCHAIN_TUZA_ORACLE_BUDGET", "1")
    cert = _instance_with_method(4, 4, (4, 2, 1, 1), "3.1-case1-small[P7]+polish")
    assert (cert.h_size, cert.p_size) == (7, 4)
    g = build_cochain(4, 4, (4, 2, 1, 1))
    assert certify(g, "portfolio").ratio_ok
    with pytest.raises(BudgetExhausted):
        certify(g, "exact")


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


def test_route_settles_every_profile_up_to_30_from_the_profile_alone():
    # every valid profile with 1 <= ell, m <= 30: the leaf is in the
    # vocabulary; a recipe leaf is a nonempty tuple of recipe ids, each table
    # recipe's precondition holds and its hitting set follows the section;
    # and a swap lands on a profile that does not swap
    kinds = Counter()
    for ell, m in product(range(1, 31), repeat=2):
        for xl, xm in product(range(2 * ell + 1), range(2 * m + 1)):
            if (xl >= ell) != (xm >= m):
                continue
            case, leaf = _route(ell, m, xl, xm)
            assert case.startswith("3.1") == (xl >= ell), (ell, m, xl, xm, case)
            if isinstance(leaf, tuple):
                assert leaf and set(leaf) <= {*RECIPES, *_CODE_RECIPES}, leaf
                for rid in set(leaf) & set(RECIPES):
                    recipe = RECIPES[rid]
                    assert recipe.applies is None or recipe.applies(ell, m, xl, xm), rid
                    assert (recipe.hitting == "T1") == (xl >= ell), (ell, m, xl, xm, rid)
                kinds["code" if set(leaf) & set(_CODE_RECIPES) else "table"] += 1
            elif leaf == "swap":
                assert _route(m, ell, xm, xl)[1] != "swap", (ell, m, xl, xm)
                kinds["swap"] += 1
            else:
                assert leaf in ("small", "P7-refined"), leaf
                kinds[leaf] += 1
    assert sum(kinds.values()) == 461250
    assert set(kinds) == {"table", "code", "swap", "small", "P7-refined"}


def test_section_32_certifies_with_the_first_recipe_the_reference_bound_passes():
    # every Section 3.2 profile with ell, m <= 12 that neither swaps nor is
    # exceptional: table recipes realize their exact-strategy bound, so the
    # guided loop settles on the first T2 recipe with f > -3, on the
    # canonical and on a random realization alike
    rng = random.Random(19)
    graphs = 0
    for ell, m in product(range(1, 13), repeat=2):
        for xl, xm in product(range(ell), range(m)):
            tup = (ell, m, xl, xm)
            if ell + xm > m + xl or tup in EXCEPTIONAL_ROUTES:
                continue
            p = CaseProfile(*tup)
            rid = next(
                r for r in F_RECIPE_IDS if recipe_lower_bound(r, p) - 3 * t2_size(p) > -3
            )
            case = "3.2.1" if xm + xl < ell - xl else "3.2.2"
            for g in (realize_profile(*tup), random_realization(rng, *tup)):
                assert profile(g).as_tuple() == tup
                assert certify(g, "guided").method == f"{case}-{rid}", (tup, rid)
                graphs += 1
    assert graphs == 6710


@pytest.mark.parametrize(
    "g",
    [
        FIGURE_GRAPH,  # 3.1-case1, P3
        build_cochain(6, 6, (3, 3, 3, 2, 1, 0)),  # 3.1-case1, P7-refined
        build_cochain(4, 6, (5, 5, 5, 5)),  # 3.1-case2.1, P9 then P2
        build_cochain(8, 8, (8, 0, 0, 0, 0, 0, 0, 0)),  # 3.2.1
        realize_profile(3, 3, 2, 1),  # 3.2.2, P19
        realize_profile(4, 6, 2, 3),  # 3.2.2, the T2 recipes
    ],
)
def test_a_leaf_without_a_buildable_recipe_fails_naming_its_case(monkeypatch, tmp_path, g):
    certify_module = importlib.import_module("cochain_tuza.certify")

    def inapplicable(rid, ctx):
        raise RecipeInapplicable(f"{rid} forced off")

    monkeypatch.setattr(certify_module, "_build", inapplicable)
    case = _route(*profile(g).as_tuple())[0]
    with pytest.raises(CertificationFailure) as failure:
        certify(g, "guided")
    assert failure.value.case == case
    assert str(profile(g).as_tuple()) in failure.value.details
    path = tmp_path / "g.json"
    write_cochain(path, g)
    assert cli_main(["certify", str(path)]) == EXIT_VERIFY


def test_refined_T1_refuses_a_triangle_outside_the_safe_halves():
    # on a host where c_ell d_{m+1} has common neighbours outside top-ell and
    # bot-m, dropping it would leave a triangle: the first such vertex is named
    ctx = _Ctx.of(build_cochain(6, 6, (3, 3, 3, 2, 1, 0)))
    ctx.G = complete_graph(12)
    with pytest.raises(CertificationFailure, match="via vertex 3 is uncovered"):
        _refined_T1(ctx)


def test_guided_exhaustive_small_profiles():
    for l_size, m_size in product((2, 4), (2, 4, 6)):
        for t in monotone_sequences(l_size, m_size):
            g = build_cochain(l_size, m_size, t)
            cert = certify(g, "guided")
            _assert_valid(g, cert)
            assert cert.ratio_ok, (l_size, m_size, t, cert.method)


def test_guided_exhaustive_sides_up_to_8(monkeypatch):
    # the theorem's claim at desk scale: every threshold profile with both
    # sides at most 8 gets a valid ratio certificate, and neither an exact
    # oracle nor the portfolio is called; every finite "small" profile lies
    # in this range
    certify_module = importlib.import_module("cochain_tuza.certify")

    def must_not_run(*args, **kwargs):
        raise AssertionError("guided mode called an exact oracle or the portfolio")

    for name in ("exact_tau", "exact_nu", "_portfolio"):
        monkeypatch.setattr(certify_module, name, must_not_run)
    count = polished = swapped = 0
    digest = hashlib.sha256()
    for l_size, m_size in product((2, 4, 6, 8), repeat=2):
        for t in monotone_sequences(l_size, m_size):
            cert = certify(build_cochain(l_size, m_size, t), "guided")
            assert cert.ratio_ok, (l_size, m_size, t, cert.method)
            count += 1
            polished += cert.method.endswith("+polish")
            swapped += cert.method.endswith("/swapped")
            doc = json.dumps(certificate_document(cert), sort_keys=True) + "\n"
            digest.update(doc.encode())
    assert count == 21462
    assert polished == 23
    assert swapped == 4430
    # pins every "small" and every swapped certificate, whose packings are
    # built on the mirror graph and relabeled against g's own T1 or T2
    assert digest.hexdigest() == (
        "5412349182d2de243f8975d33ccbc412b7f6d563417adafc5a45803dcf87848b"
    )


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


@pytest.mark.parametrize(
    "thresholds, tup, method",
    [
        # ell = m = 256 even and x_ell > ell: balanced-even settles with P10'
        ([512] * 255 + [257] * 4 + [0] * 253, (256, 256, 259, 257), "3.1-case2.1-P10'"),
        # ell + x_m > m + x_ell: the mirror's packing, relabeled against g's T2
        ([512] * 10 + [200] * 246 + [0] * 256, (256, 256, 10, 200), "3.2.2-P13/swapped"),
    ],
    ids=["balanced-even", "swapped-P13"],
)
def test_guided_leaf_at_n_1024(thresholds, tup, method):
    g = build_cochain(512, 512, thresholds)
    assert profile(g).as_tuple() == tup
    cert = certify(g, "guided")
    assert cert.method == method and cert.ratio_ok


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


@pytest.mark.parametrize("value, budget", [("", DEFAULT_BUDGET), ("0", 0), (" 7 ", 7)])
def test_oracle_budget_reads_a_nonnegative_integer(monkeypatch, value, budget):
    monkeypatch.setenv("COCHAIN_TUZA_ORACLE_BUDGET", value)
    assert oracle_budget() == budget


@pytest.mark.parametrize("value", ["abc", "-3", "2.0"])
def test_oracle_budget_rejects_other_values_naming_the_variable(monkeypatch, value):
    monkeypatch.setenv("COCHAIN_TUZA_ORACLE_BUDGET", value)
    with pytest.raises(PreconditionError, match="COCHAIN_TUZA_ORACLE_BUDGET"):
        oracle_budget()
    with pytest.raises(PreconditionError, match="COCHAIN_TUZA_ORACLE_BUDGET"):
        certify(build_cochain(2, 2, (2, 2)), "exact")


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


def test_portfolio_recipes_build_or_report_inapplicable():
    # a recipe either yields a valid packing or raises RecipeInapplicable;
    # any other exception is a bug the portfolio must not swallow
    for l_size, m_size in product((2, 4, 6), repeat=2):
        if l_size + m_size > 8:
            continue
        for t in monotone_sequences(l_size, m_size):
            ctx = _Ctx.of(build_cochain(l_size, m_size, t))
            for rid in (*RECIPES, *_CODE_RECIPES):
                try:
                    tris = _build(rid, ctx)
                except RecipeInapplicable:
                    continue
                assert verify_packing(ctx.G, tris), (rid, l_size, m_size, t)


def _census_contexts():
    """The context of every even-sided co-chain graph with sides in {2, 4, 6}.
    The census is closed under ``swap_sides``, so the mirror context a
    swapped leaf builds on is some graph's own context here."""
    for l_size, m_size in product((2, 4, 6), repeat=2):
        for t in monotone_sequences(l_size, m_size):
            yield _Ctx.of(build_cochain(l_size, m_size, t))


def test_table_sizes_are_the_sizes_the_rows_realize():
    # the count model the case search scores and _largest_packing sorts by:
    # every term of every table row that builds packs its _term_size, so the
    # row packs its _table_size
    rows = 0
    for ctx in _census_contexts():
        for rid, recipe in RECIPES.items():
            try:
                parts = _term_packings(rid, ctx)
            except RecipeInapplicable:
                continue
            rows += 1
            sizes = [_term_size(term, ctx.sizes) for term in recipe.terms]
            assert [len(part) for part in parts] == sizes, (rid, ctx)
            assert sum(sizes) == _table_size(rid, ctx), (rid, ctx)
    assert rows == 23049, rows


def test_code_sizes_are_the_sizes_the_code_recipes_realize():
    # the code recipes' twin of the test above: every code recipe that builds
    # packs its _CODE_SIZES entry, read off the group sizes alone, so that
    # _largest_packing can rank it with the table rows before building it;
    # P5' needs the profile (2, 4, 4, 8), so sides (4, 8) join the census
    built = Counter()
    sides_4_8 = (_Ctx.of(build_cochain(4, 8, t)) for t in monotone_sequences(4, 8))
    for ctx in chain(_census_contexts(), sides_4_8):
        for rid, build in _CODE_RECIPES.items():
            try:
                tris = build(ctx)
            except RecipeInapplicable:
                continue
            built[rid] += 1
            assert len(tris) == _CODE_SIZES[rid](ctx), (rid, ctx)
    assert built == {"P5'": 15, "P6": 1327, "P10'": 1267, "P18": 218, "P19": 1520}, built


def test_largest_packing_equals_building_every_recipe():
    # _largest_packing builds table rows largest first until one builds; the
    # reference builds every recipe and keeps the largest packing, a tie
    # going to the greater id
    for ctx in _census_contexts():
        fresh = _Ctx.of(ctx.g)
        packings = [("trivial", [])]
        for rid in (*RECIPES, *_CODE_RECIPES):
            try:
                packings.append((rid, _build(rid, fresh)))
            except RecipeInapplicable:
                continue
        reference = max(packings, key=lambda tp: (len(tp[1]), tp[0]))
        assert _largest_packing(ctx) == reference, (ctx.g, reference[0])


def test_a_table_row_off_its_table_size_is_refused(monkeypatch):
    certify_module = importlib.import_module("cochain_tuza.certify")
    monkeypatch.setattr(certify_module, "_table_size", lambda rid, ctx: 0)
    with pytest.raises(RuntimeError, match="P3 packs 14 triangles, not its table size 0"):
        _build("P3", _Ctx.of(FIGURE_GRAPH))


def test_certify_verifies_each_witness_once(monkeypatch, tmp_path):
    # certify is the one check point: per call, each witness is verified once
    # against a host graph built once, plus once for a side-swapped instance
    certify_module = importlib.import_module("cochain_tuza.certify")
    calls = Counter()
    checked_hosts = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name.startswith("verify_"):
                checked_hosts.append((name, args[0]))
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
            # no packing is checked on construction
            assert calls["packing_checks"] == 0, (g, cert.method, calls)
            # portfolio mode also runs guided dispatch, swap included
            _, built = hosts_built(g, "portfolio")
            assert built <= allowed, (g, "portfolio", built)
            assert calls["packing_checks"] == 0, (g, "portfolio", calls)
            if g.n <= 6:
                _, built = hosts_built(g, "exact")
                assert built == 1, (g, "exact", built)
    assert "empty" in methods and "degenerate-clique" in methods
    assert any(m.endswith("/swapped") for m in methods)
    assert any("-small[" in m for m in methods)
    assert any(m.endswith("+polish") for m in methods)

    # cochain-tuza certify on a vertex-permuted edge-list file: certify
    # relabels the recognized graph's certificate into the file's ids and
    # checks it once, on the input host; the relabeling builds no packing
    # through the checking constructor
    rng = random.Random(3)
    for g in (FIGURE_GRAPH, build_cochain(6, 4, (4, 3, 3, 1, 0, 0))):
        perm = list(range(g.n))
        rng.shuffle(perm)
        host = GeneralGraph.from_edges(
            g.n, ((perm[u], perm[v]) for u, v in g.to_general().edges)
        )
        canonical = recognize_cochain(host).graph.to_general()
        assert canonical != host
        path = tmp_path / "g.json"
        write_general(path, host)
        calls.clear()
        checked_hosts.clear()
        assert cli_main(["certify", str(path), "--out", str(tmp_path / "c.json")]) == 0
        assert calls["packing_checks"] == 0, calls
        assert checked_hosts == [("verify_hitting", host), ("verify_packing", host)]


def test_certify_takes_an_edge_list_in_its_own_labels(monkeypatch):
    # certify recognizes an edge list, relabels the recognized graph's
    # certificate into the input's ids and checks each witness once, there
    certify_module = importlib.import_module("cochain_tuza.certify")
    checks = []

    def counted(name, fn):
        def wrapper(host, witness):
            checks.append((name, host))
            return fn(host, witness)

        return wrapper

    for name in ("verify_hitting", "verify_packing"):
        monkeypatch.setattr(certify_module, name, counted(name, getattr(certify_module, name)))
    rng = random.Random(5)
    for l_size, m_size in ((2, 4), (4, 4), (6, 2), (8, 12)):
        g = random_cochain(rng, l_size, m_size)
        perm = list(range(g.n))
        rng.shuffle(perm)
        host = GeneralGraph.from_edges(
            g.n, ((perm[u], perm[v]) for u, v in g.to_general().edges)
        )
        rec = recognize_cochain(host)
        order = rec.vertex_order
        for mode in ("guided", "portfolio"):
            inner = certify(rec.graph, mode)
            checks.clear()
            cert = certify(host, mode)
            assert checks == [("verify_hitting", host), ("verify_packing", host)]
            assert verify_hitting(host, cert.hitting) and verify_packing(host, cert.packing)
            assert cert.method == inner.method
            assert cert.hitting.edges == {
                tuple(sorted((order[u], order[v]))) for u, v in inner.hitting.edges
            }
            assert cert.packing.triangles == {
                tuple(sorted((order[a], order[b], order[c])))
                for a, b, c in inner.packing.triangles
            }
    c4 = GeneralGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(PreconditionError, match="^input is not a co-chain graph"):
        certify(c4)


def test_guided_certify_builds_T1_at_most_once(monkeypatch):
    # the refined P7 path trims the context's T1 instead of building another,
    # and guided mode never reaches the portfolio: balanced-even (ell = m
    # even, x_ell > ell) is the P10' leaf
    certify_module = importlib.import_module("cochain_tuza.certify")
    built = []
    t1 = certify_module._t1

    def counted(*args):
        # the context builds T1 through _t1, and so does build_T1
        built.append(args)
        return t1(*args)

    def portfolio_must_not_run(*args, **kwargs):
        raise AssertionError("guided mode called the portfolio")

    monkeypatch.setattr(certify_module, "_t1", counted)
    monkeypatch.setattr(certify_module, "_portfolio", portfolio_must_not_run)
    balanced_even = refined = 0
    for g in fuzz_instances(1, 2000, 16):
        built.clear()
        cert = certify(g, "guided")
        assert len(built) <= 1, (g, cert.method, len(built))
        ell, m, xl, _ = profile(g).as_tuple()
        if ell == m and ell % 2 == 0 and xl > ell:
            assert cert.method == "3.1-case2.1-P10'", (g, cert.method)
            balanced_even += 1
        refined += "P7-refined" in cert.method
    assert balanced_even == 21 and refined >= 1, (balanced_even, refined)


def test_portfolio_certify_builds_T1_at_most_once(monkeypatch):
    # portfolio mode hands one context to the portfolio and to guided
    # dispatch, and a side swap reuses g's own T1
    certify_module = importlib.import_module("cochain_tuza.certify")
    built = []
    t1 = certify_module._t1

    def counted(*args):
        # the context builds T1 through _t1, and so does build_T1
        built.append(args)
        return t1(*args)

    monkeypatch.setattr(certify_module, "_t1", counted)
    swapped = 0
    for g in fuzz_instances(1, 300, 8):
        built.clear()
        certify(g, "portfolio")
        assert len(built) <= 1, (g, len(built))
        swapped += "/swapped" in certify(g, "guided").method
    assert swapped >= 50, swapped


def test_portfolio_certify_builds_T2_at_most_once(monkeypatch):
    # the portfolio and guided dispatch share the context's T2, and a side
    # swap at x_ell < ell reuses g's own T2
    certify_module = importlib.import_module("cochain_tuza.certify")
    built = []
    t2 = certify_module._t2

    def counted(*args):
        # the context builds T2 through _t2, and so does build_T2
        built.append(args)
        return t2(*args)

    monkeypatch.setattr(certify_module, "_t2", counted)
    with_t2 = swapped = 0
    for g in fuzz_instances(1, 300, 8):
        built.clear()
        certify(g, "portfolio")
        assert len(built) <= 1, (g, len(built))
        if built:
            with_t2 += 1
            swapped += "/swapped" in certify(g, "guided").method
    assert with_t2 >= 50 and swapped >= 10, (with_t2, swapped)


def test_portfolio_builds_each_recipe_at_most_once_per_context(monkeypatch):
    # _largest_packing builds recipes on g's context and guided dispatch
    # takes its leaf from the same context; a swapped leaf builds on the
    # mirror's own context.  Recipes share terms, and each term too is built
    # at most once per context (a context's host graph is its own)
    certify_module = importlib.import_module("cochain_tuza.certify")
    builds = Counter()
    terms = Counter()
    contexts = []  # held, so that no two contexts share an id

    def count(ctx, rid):
        contexts.append(ctx)
        builds[id(ctx), rid] += 1

    clique_packing = certify_module._clique_packing
    side_packing = certify_module._side_packing

    def clique_term(ctx, verts):
        contexts.append(ctx.G)
        terms[id(ctx.G), tuple(verts)] += 1
        return clique_packing(ctx, verts)

    def side_term(host, S, K):
        contexts.append(host)
        terms[id(host), tuple(S), tuple(K)] += 1
        return side_packing(host, S, K)

    monkeypatch.setattr(certify_module, "_clique_packing", clique_term)
    monkeypatch.setattr(certify_module, "_side_packing", side_term)

    term_packings = certify_module._term_packings

    def table_recipe(rid, ctx):
        count(ctx, rid)
        return term_packings(rid, ctx)

    def code_recipe(rid, build):
        def counted(ctx):
            count(ctx, rid)
            return build(ctx)

        return counted

    monkeypatch.setattr(certify_module, "_term_packings", table_recipe)
    for rid, build in _CODE_RECIPES.items():
        monkeypatch.setitem(_CODE_RECIPES, rid, code_recipe(rid, build))
    swapped = 0
    for g in fuzz_instances(1, 200, 8):
        certify(g, "portfolio")
        swapped += "/swapped" in certify(g, "guided").method
    assert builds and max(builds.values()) == 1, builds.most_common(3)
    assert terms and max(terms.values()) == 1, terms.most_common(3)
    assert swapped >= 30, swapped


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


def test_p18_loses_a_clique_triangle_only_when_the_clique_packing_has_no_leave():
    # the missing edge takes an unused pair of the clique packing when there
    # is one, so the recipe's size does not depend on which triangles it has
    for ell, m in product(range(2, 9), repeat=2):
        ctx = _Ctx.of(realize_profile(ell, m, ell - 1, m - 1))
        tris = _build("P18", ctx)
        clique = set(ctx.vertices("l_top") + ctx.vertices("m_bot"))
        inside = sum(1 for t in tris if clique.issuperset(t))
        full = feder_count(ell + m)
        assert inside == full.count - (full.k == 0), (ell, m)


@pytest.mark.parametrize(
    "count, max_half, expected",
    [
        pytest.param(
            1000, 8, "4d538700e1194ad8405d604918b1bf67743de1413d1068e2975300dfd1469de0",
            id="1000x8",
        ),
        # guided recipe loops with max(ell, m) above 10
        pytest.param(
            3000, 16, "20b7b747c3ddd7cbe21234c4e9f2e0b3ebba69559bf913c6ed6a09606846b3e0",
            id="3000x16",
        ),
    ],
)
def test_certificates_are_pinned(monkeypatch, count, max_half, expected):
    # SHA-256 of every guided, then portfolio, certificate document over a
    # fixed fuzz stream; a refactor of the certifier must leave it unchanged.
    # Both modes meet the ratio, and neither scores a profile: guided
    # dispatch builds and checks recipes
    def scorer_must_not_run(*args, **kwargs):
        raise AssertionError("certify called evaluate_case_functions")

    for name in ("cochain_tuza.certify", "cochain_tuza.casesearch"):
        monkeypatch.setattr(
            importlib.import_module(name), "evaluate_case_functions", scorer_must_not_run
        )
    digest = hashlib.sha256()
    for g in fuzz_instances(1, count, max_half):
        for mode in ("guided", "portfolio"):
            cert = certify(g, mode)
            assert cert.ratio_ok, (g, mode, cert.method)
            doc = certificate_document(cert)
            digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == expected


def test_portfolio_certificates_off_the_even_sides_are_pinned():
    # SHA-256 of the portfolio certificate document of every co-chain graph
    # with sides at most 7 and an odd or an empty side, where no recipe
    # applies and the two fuzz-stream pins do not reach
    digest = hashlib.sha256()
    count = ok = 0
    for l_size, m_size in product(range(8), repeat=2):
        if l_size and m_size and not (l_size % 2 or m_size % 2):
            continue
        for rank in range(count_monotone_sequences(l_size, m_size)):
            t = unrank_monotone_sequence(rank, l_size, m_size)
            cert = certify(build_cochain(l_size, m_size, t), "portfolio")
            doc = certificate_document(cert)
            digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
            count += 1
            ok += cert.ratio_ok
    assert (count, ok) == (11363, 15)
    assert (
        digest.hexdigest()
        == "0f971daa7dbeacc06bab46879a581052b937f8925faf5a3aab29e58380038b11"
    )
