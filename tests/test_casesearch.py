import ast
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from cochain_tuza import audit, casesearch
from cochain_tuza.audit import (
    _Chain,
    _dom_321,
    _dom_case1,
    _dom_case1_min_ell,
    _dom_case1_min_xm,
    audit_inequalities,
)
from cochain_tuza.casesearch import (
    ALL_STRATEGIES,
    EXPECTED_EXCEPTIONAL,
    constrained_profiles,
    evaluate_case_functions,
    recipe_lower_bound,
    recipe_term_bounds,
    search_exceptional,
    _COMPILED,
    _clique_bound6,
    _compile_row,
    _group_sizes,
    _row_plan,
    _side_bound6,
    _size_forms,
)
from cochain_tuza.recipes import (
    GROUP_NAMES,
    RECIPES,
    group_intervals,
    t2_size,
    F_RECIPE_IDS,
    _domain_violation,
    _row_domain,
)
from cochain_tuza.certify import (
    RecipeInapplicable,
    _build,
    _Ctx,
    _term_packings,
    build_T2,
    certify,
)
from cochain_tuza.generators import random_cochain
from cochain_tuza.graphs import CaseProfile, profile, verify_packing

from conftest import random_realization, realize_profile, reference_groups


def test_search_reproduces_published_tuples():
    found = {p.as_tuple() for p in search_exceptional(10)}
    assert found == set(EXPECTED_EXCEPTIONAL)


def test_search_to_thirty_finds_only_the_published_tuples():
    # 94,920 profiles: the finite half of the profile-level rules, to 30
    found = {p.as_tuple() for p in search_exceptional(30)}
    assert found == set(EXPECTED_EXCEPTIONAL)


def test_table_search_agrees_with_the_report_path():
    # the per-call tables and the first-pass exit decide exactly as the
    # full f_1..f_8 report does, under every strategy
    profiles = list(constrained_profiles(12))
    for strategy in ALL_STRATEGIES:
        found = search_exceptional(12, strategy)
        for p in profiles:
            assert (p in found) == evaluate_case_functions(p, strategy).exceptional, (
                p,
                strategy,
            )


def test_interpolated_sizes_equal_the_table_everywhere():
    # every point of the closed box 0 <= x_ell <= ell, 0 <= x_m <= m with
    # ell, m <= 20 (52,900 points), each read directly
    forms = _size_forms()
    count = 0
    for ell, m in product(range(1, 21), repeat=2):
        for xl, xm in product(range(ell + 1), range(m + 1)):
            sizes = [c + a * ell + b * m + p * xl + q * xm for c, a, b, p, q in forms]
            assert sizes == _group_sizes(ell, m, xl, xm), (ell, m, xl, xm)
            count += 1
    assert count == 52_900


def test_search_reads_the_group_table_five_times_plus_once_per_row(monkeypatch):
    table = casesearch.group_intervals
    reads = 0

    def counted(ell, m, xl, xm):
        nonlocal reads
        reads += 1
        return table(ell, m, xl, xm)

    monkeypatch.setattr(casesearch, "group_intervals", counted)
    search_exceptional(20)
    assert reads == 5 + 20 * 20


def test_row_code_agrees_with_the_report_path():
    # at every profile to 20 under every strategy, the compiled (ell, m) row
    # walked with the search's bound tables gives the report's f-values, and
    # both equal each recipe's term bounds (read from the group table at the
    # profile) summed here, minus 3|T2|
    profiles = [p.as_tuple() for p in constrained_profiles(20)]
    sizes = {tup: _group_sizes(*tup) for tup in profiles}
    plan = _row_plan()
    for strategy in ALL_STRATEGIES:
        clique_t = [_clique_bound6(strategy, n) for n in range(41)]
        side_t = [[_side_bound6(strategy, s, k) for k in range(41)] for s in range(41)]

        def by_terms(rid, sz):
            return sum(
                clique_t[sz[t[0]]] if len(t) == 1 else side_t[sz[t[0]]][sz[t[1]]]
                for t in _COMPILED[rid]
            )

        rows = {}
        for tup in profiles:
            ell, m, xl, xm = tup
            if (ell, m) not in rows:
                rows[ell, m] = _compile_row(ell, m, plan, clique_t, side_t)
            t2_3 = 3 * t2_size(CaseProfile(*tup))
            walked = []
            for const, cliques, sides in rows[ell, m]:
                f = const - t2_3
                for b, a, c in cliques:
                    f += clique_t[b + a * xl + c * xm]
                for (sb, sa, sc), (kb, ka, kc) in sides:
                    f += side_t[sb + sa * xl + sc * xm][kb + ka * xl + kc * xm]
                walked.append(f)
            summed = [by_terms(rid, sizes[tup]) - t2_3 for rid in F_RECIPE_IDS]
            report = list(evaluate_case_functions(CaseProfile(*tup), strategy).f_values)
            assert walked == summed == report, (tup, strategy)


def test_non_affine_group_trips_the_guard(monkeypatch):
    table = casesearch.group_intervals

    def bent(ell, m, xl, xm):
        groups = table(ell, m, xl, xm)
        groups["X_ell+X_m"] = ((0, min(xl, xm)),)
        return groups

    monkeypatch.setattr(casesearch, "group_intervals", bent)
    with pytest.raises(RuntimeError, match="not affine"):
        search_exceptional(5)


def _module_tree(module):
    return ast.parse((Path(casesearch.__file__).parent / f"{module}.py").read_text())


def _sibling_imports(module):
    """{sibling module: names imported from it} over a package module's
    ``from . import`` and ``from .x import`` statements."""
    tree = _module_tree(module)
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    found.setdefault(alias.name, set())
            else:
                found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_modules_import_along_the_layers():
    # the recipe table stands on the graph types alone, the audit on the
    # table's domain alone, and certify takes every table name from the
    # table; it binds the reference scorer only for the benchmark's trace
    assert set(_sibling_imports("recipes")) == {"graphs"}
    assert set(_sibling_imports("audit")) == {"recipes"}
    table = set()
    for node in _module_tree("recipes").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            table.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            table.update(t.id for t in targets if isinstance(t, ast.Name))
    assert {"RECIPES", "group_intervals", "EXCEPTIONAL_ROUTES", "_row_domain"} <= table
    imports = _sibling_imports("certify")
    assert imports["casesearch"] == {"evaluate_case_functions"}
    assert imports["recipes"] <= table
    for module, names in imports.items():
        if module != "recipes":
            assert not names & table, (module, names & table)


def test_row_domain_is_the_closed_form_of_the_domain_filter():
    for ell, m in product(range(1, 41), repeat=2):
        filtered = [
            (xl, xm)
            for xl, xm in product(range(ell), range(m))
            if _domain_violation(ell, m, xl, xm) is None
        ]
        assert list(_row_domain(ell, m)) == filtered, (ell, m)


def test_audit_subdomains_are_the_closed_forms_of_their_filters():
    limit = 30
    case1 = list(_dom_case1(limit))
    assert list(_dom_case1_min_ell(limit)) == [
        (ell, m, xl, xm) for ell, m, xl, xm in case1 if xm - m >= ell
    ]
    assert list(_dom_case1_min_xm(limit)) == [
        (ell, m, xl, xm) for ell, m, xl, xm in case1 if xm - m < ell and xl > ell
    ]
    assert list(_dom_321(limit)) == [
        (ell, m, xl, xm)
        for ell, m in product(range(1, limit + 1), repeat=2)
        for xl, xm in product(range(ell), range(m))
        if ell + xm <= m + xl and xm + xl < ell - xl
    ]


def test_search_limit_one_is_empty():
    assert search_exceptional(1) == set()


def test_exceptional_set_is_swap_symmetric():
    # closed under side swap wherever the swapped tuple is in the search
    # domain (the domain itself carries the |K_2| >= |K_1| normalization)
    found = search_exceptional(10)
    domain = set(constrained_profiles(10))
    for p in found:
        swapped = CaseProfile(p.m, p.ell, p.x_m, p.x_ell)
        if swapped in domain:
            assert swapped in found
    # the named symmetric pair
    assert CaseProfile(2, 3, 1, 2) in found and CaseProfile(3, 2, 2, 1) in found


def test_named_exceptional_examples():
    assert evaluate_case_functions(CaseProfile(2, 3, 1, 2)).exceptional
    assert evaluate_case_functions(CaseProfile(1, 2, 0, 1)).exceptional
    rep = evaluate_case_functions(CaseProfile(3, 3, 1, 1))
    assert not rep.exceptional
    assert 6 in rep.passing  # P17^l settles this profile
    assert rep.f_values[6] > -3


def test_evaluate_rejects_out_of_domain_profiles():
    with pytest.raises(ValueError, match="x_ell < ell, x_m < m"):
        evaluate_case_functions(CaseProfile(2, 2, 2, 2))  # x_ell = ell
    with pytest.raises(ValueError, match=r"ell \+ x_m <= m \+ x_ell"):
        evaluate_case_functions(CaseProfile(4, 2, 1, 1))  # ell + x_m > m + x_ell
    with pytest.raises(ValueError, match=r"ell - x_ell <= x_m \+ x_ell"):
        evaluate_case_functions(CaseProfile(3, 3, 0, 0))  # case 3.2.1


def test_t2_size_example():
    assert t2_size(CaseProfile(3, 3, 2, 1)) == 19


def test_recipe_lower_bound_specializes_at_zero_x():
    # with x_ell = x_m = 0, P13 reduces to the clique and within-half terms:
    # 6*p(K_3) = 6, the apex term vanishes, each half term gives 6*binom(3,2)
    p = CaseProfile(3, 3, 0, 0)
    assert recipe_lower_bound("P13", p) == 6 + 18 + 18


def test_recipe_lower_bound_at_most_realized_size():
    rng = random.Random(20240817)
    per_recipe = 200
    for rid in F_RECIPE_IDS:
        checked = 0
        while checked < per_recipe:
            ell = rng.randint(1, 6)
            m = rng.randint(1, 6)
            xl = rng.randrange(ell)
            xm = rng.randrange(m)
            if ell + xm > m + xl or ell - xl > xm + xl:
                continue
            g = random_realization(rng, ell, m, xl, xm)
            prof = profile(g)
            assert prof.as_tuple() == (ell, m, xl, xm)
            ctx = _Ctx.of(g)
            tris = _build(rid, ctx)
            assert verify_packing(ctx.G, tris)
            assert 6 * len(tris) >= recipe_lower_bound(rid, prof), (
                rid,
                prof.as_tuple(),
                len(tris),
            )
            checked += 1


def _graph_level_groups(g):
    """Every table group, built from the graph's own vertex sets."""
    ref = reference_groups(g)
    lt, lb, mt, mb = (set(ref[h]) for h in ("l_top", "l_bot", "m_top", "m_bot"))
    side_l, side_m = set(g.side_l()), set(g.side_m())
    xl, xm = set(ref["X_ell"]), set(ref["X_m"])
    d_m, d_2m, c_1 = g.d(g.m_size // 2), g.d(g.m_size), g.c(1)
    return {
        "l_top": lt,
        "l_bot": lb,
        "m_top": mt,
        "m_bot": mb,
        "side_l": side_l,
        "side_m": side_m,
        "X_ell": xl,
        "X_m": xm,
        "X_ell+m_bot": xl | mb,
        "l_top+X_m": lt | xm,
        "X_ell+X_m": xl | xm,
        "X_ell-l_top": xl - lt,
        "X_m-m_bot": xm - mb,
        "l_top-X_ell": lt - xl,
        "side_l-X_ell": side_l - xl,
        "l_top-X_ell+m_bot-X_m": (lt - xl) | (mb - xm),
        "X_ell+m_bot+d_m": xl | mb | {d_m},
        "m_top-d_m": mt - {d_m},
        "m_bot-d_2m": mb - {d_2m},
        "m_top+d_2m": mt | {d_2m},
        "l_top-c_1": lt - {c_1},
        "l_bot+c_1": lb | {c_1},
    }


def test_groups_match_graph_level_vertex_sets():
    rng = random.Random(20261018)
    regimes = set()
    for _ in range(300):
        g = random_cochain(rng, 2 * rng.randint(1, 6), 2 * rng.randint(1, 6))
        p = profile(g)
        regimes.add(p.x_ell >= p.ell)
        ctx = _Ctx.of(g)
        intervals = group_intervals(*p.as_tuple())
        expected = _graph_level_groups(g)
        assert tuple(expected) == GROUP_NAMES
        for name, verts in expected.items():
            got = ctx.vertices(name)
            assert set(got) == verts and len(got) == len(verts), (name, p)
            # the bound's group size is the construction's vertex count
            assert sum(hi - lo for lo, hi in intervals[name]) == len(verts), (name, p)
    assert regimes == {True, False}


def test_table_recipes_meet_their_bounds_term_by_term():
    rng = random.Random(20261019)
    built = set()
    for _ in range(300):
        g = random_cochain(rng, 2 * rng.randint(1, 5), 2 * rng.randint(1, 5))
        p = profile(g)
        ctx = _Ctx.of(g)
        for rid in RECIPES:
            try:
                parts = _term_packings(rid, ctx)
            except RecipeInapplicable:
                continue
            built.add(rid)
            assert verify_packing(ctx.G, [t for part in parts for t in part])
            for strategy in ALL_STRATEGIES:
                bounds = recipe_term_bounds(rid, p, strategy)
                assert len(bounds) == len(parts)
                for i, (part, bound) in enumerate(zip(parts, bounds)):
                    assert 6 * len(part) >= bound, (rid, i, p, strategy)
    assert built == set(RECIPES)


def test_recipe_lower_bound_unknown_id():
    with pytest.raises(ValueError):
        recipe_lower_bound("P99", CaseProfile(2, 2, 1, 1))


def test_f_values_certified_by_realized_packings():
    # on concrete maximal-completeness instances, a passing f-recipe yields
    # a packing beating T2
    for p in constrained_profiles(5):
        rep = evaluate_case_functions(p)
        g = realize_profile(*p.as_tuple())
        ctx = _Ctx.of(g)
        t2 = build_T2(g)
        for i in sorted(rep.passing):
            tris = _build(F_RECIPE_IDS[i], ctx)
            assert 2 * len(tris) >= len(t2), (p.as_tuple(), F_RECIPE_IDS[i])


def test_exceptional_profiles_certify_on_realizing_graphs():
    for tup in sorted(EXPECTED_EXCEPTIONAL):
        g = realize_profile(*tup)
        assert profile(g).as_tuple() == tup
        cert = certify(g, "guided")
        assert cert.ratio_ok, tup


def test_weaker_strategies_only_grow_the_exceptional_set():
    base = search_exceptional(6)
    for strategy in ALL_STRATEGIES:
        found = search_exceptional(6, strategy)
        assert base <= found


# -- inequality audit --------------------------------------------------------

KNOWN_SLACK = ("(x_l-l-1)*(2l-1-x_m)", "x_l>l+1 => >= l-2")


def test_audit_runs_clean_except_known_slack():
    report = audit_inequalities(25)
    assert sum(c.checked for c in report.chains) == 153_310
    assert len(report.violations) == 144
    for v in report.violations:
        assert (v.chain, v.step) == KNOWN_SLACK, v
    # the 3.2.2 chain runs over exactly the search domain, as filtered
    (c322,) = [c for c in report.chains if c.chain.startswith("24l^2")]
    in_domain = sum(
        1
        for ell, m in product(range(1, 26), repeat=2)
        for xl, xm in product(range(ell), range(m))
        if _domain_violation(ell, m, xl, xm) is None
    )
    assert c322.checked == in_domain == 46_524
    # the slack is real: it appears at, e.g., a complete balanced join
    assert any(v.params == (3, 6, 6) for v in report.violations)


def test_audit_violating_parameters_still_certify():
    # paper slack lives only in the symbolic chain, never in certificates
    report = audit_inequalities(9)
    seen = set()
    for v in report.violations:
        ell, xl, xm = v.params
        if (ell, xl, xm) in seen or ell > 5:
            continue
        seen.add((ell, xl, xm))
        g = realize_profile(ell, ell, xl, xm)
        cert = certify(g, "guided")
        assert cert.ratio_ok, v.params


def test_audit_values_are_exact_rationals():
    report = audit_inequalities(6)
    for v in report.violations:
        assert isinstance(v.lhs, Fraction) and isinstance(v.rhs, Fraction)


def test_step_denominator_scales_a_recorded_violation(monkeypatch):
    chain = _Chain("scaled", lambda limit: [(1,)], (("half", lambda x: (x, 3), 2),))
    monkeypatch.setattr(audit, "_CHAINS", [chain])
    (v,) = audit_inequalities(1).violations
    assert (v.chain, v.step, v.params) == ("scaled", "half", (1,))
    assert (v.lhs, v.rhs) == (Fraction(1, 2), Fraction(3, 2))


def test_a_prefix_step_runs_once_per_prefix_and_reports_every_tuple(monkeypatch):
    domain = list(product(range(3), range(3), range(2)))
    calls = []

    def prefix(a, b):
        calls.append((a, b))
        return a, b  # fails where a < b

    chain = _Chain(
        "prefix",
        lambda limit: iter(domain),
        (
            ("first", lambda a, b, c: (c, 1), 1),  # fails where c = 0
            ("prefix", prefix, 1),
            ("last", lambda a, b, c: (a, 2), 1),  # fails where a < 2
        ),
    )
    monkeypatch.setattr(audit, "_CHAINS", [chain])
    (report,) = audit_inequalities(1).chains
    assert calls == list(dict.fromkeys(t[:2] for t in domain))
    assert report.checked == len(domain)
    expected = [
        (name, t)
        for t in domain
        for name, (lhs, rhs) in (
            ("first", (t[2], 1)),
            ("prefix", t[:2]),
            ("last", (t[0], 2)),
        )
        if lhs < rhs
    ]
    assert [(v.step, v.params) for v in report.violations] == expected
    failing = [v.params for v in report.violations if v.step == "prefix"]
    assert failing == [t for t in domain if t[0] < t[1]]
    assert len(failing) == 2 * 3  # three failing prefixes, two tuples under each


@pytest.mark.parametrize("fn", [lambda *params: (0, 0), lambda: (0, 0)])
def test_a_step_must_name_the_parameters_it_reads(fn):
    with pytest.raises(ValueError, match="must name each parameter"):
        _Chain("bad", lambda limit: [(1,)], (("step", fn, 1),))
