"""Per-layer metrics of the traced run.

``install`` wraps the package's public functions where the calling module
binds them; ``per_layer`` turns the recorded spans into the metrics listed
in ``PER_LAYER``; ``repeat_counts`` gives the counts that two traced runs at
one seed must reproduce exactly.  Every metric is reported on every
workload, as 0 where the workload never reaches the layer.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Any

from tracing import Tracer

#: (name, unit) of every per-layer metric, in output order
PER_LAYER: list[tuple[str, str]] = [
    ("graphs.verify_hitting.calls_per_op", "count"),
    ("graphs.verify_hitting.self_ms_per_op", "ms"),
    ("graphs.verify_hitting.calls_per_certificate", "count"),
    ("graphs.verify_packing.calls_per_op", "count"),
    ("graphs.verify_packing.self_ms_per_op", "ms"),
    ("graphs.verify_packing.calls_per_certificate", "count"),
    ("graphs.enumerate_triangles.calls_per_op", "count"),
    ("graphs.enumerate_triangles.self_ms_per_op", "ms"),
    ("graphs.to_general.calls_per_op", "count"),
    ("graphs.to_general.self_ms_per_op", "ms"),
    ("packings.pack_side.calls_per_op", "count"),
    ("packings.pack_side.self_ms_per_op", "ms"),
    ("packings.pack_clique.calls_per_op", "count"),
    ("packings.pack_clique.self_ms_per_op", "ms"),
    ("packings.pack_clique.cold_s.mod4", "s"),
    ("packings.pack_clique.cold_s.mod5", "s"),
    ("packings.pack_clique.cold_s.mod0_2", "s"),
    ("packings.pack_clique.cold_s.mod1_3", "s"),
    ("certify.self_ms_per_op", "ms"),
    ("certify.guided_ms_per_op", "ms"),
    ("certify.portfolio_mode_ms_per_op", "ms"),
    ("certify.build_T1.calls_per_op", "count"),
    ("certify.build_T1.self_ms_per_op", "ms"),
    ("certify.build_T2.calls_per_op", "count"),
    ("certify.build_T2.self_ms_per_op", "ms"),
    ("certify.path_share.recipe", "ratio"),
    ("certify.path_share.portfolio", "ratio"),
    ("certify.path_share.exact_fallback", "ratio"),
    ("certify.path_share.swapped", "ratio"),
    ("certify.portfolio_ms_p50", "ms"),
    ("certify.slack_min", "count"),
    ("certify.slack_mean", "count"),
    ("recognition.recognize_cochain.calls_per_op", "count"),
    ("recognition.recognize_cochain.self_ms_per_call", "ms"),
    *(
        (f"oracles.{fn}.{q}", unit)
        for fn in ("exact_tau", "exact_nu")
        for q, unit in (
            ("calls", "count"),
            ("s_per_op", "s"),
            ("nodes", "count"),
            ("nodes_per_s", "1/s"),
            ("p95_ms", "ms"),
            ("unproven", "count"),
        )
    ),
    ("casesearch.evaluate_case_functions.bulk_us_per_call", "us"),
    ("casesearch.evaluate_case_functions.certify_us_per_call", "us"),
    ("casesearch.evaluate_case_functions.certify_calls_per_op", "count"),
    ("casesearch.search_exceptional.profiles_per_s", "1/s"),
    ("casesearch.audit_inequalities.s", "s"),
    ("casesearch.audit_inequalities.tuples_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
]

#: n mod 6 classes of the cold clique build: hill climb (4, 5), point
#: deletion from a Steiner triple system (0, 2), Steiner triple system (1, 3)
COLD_CLASSES = {"mod4": (4,), "mod5": (5,), "mod0_2": (0, 2), "mod1_3": (1, 3)}

GUIDED = "certify.certify[guided]"


def _certify_span(args: tuple, kwargs: dict) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "guided")
    return f"certify.certify[{mode}]"


def _certificate_info(cert) -> list:
    return [cert.method, cert.h_size, cert.p_size]


def _oracle_info(result) -> list:
    return [result.explored, result.proven]


def install(tracer: Tracer) -> None:
    """Wrap the public functions at the names their callers look up.

    ``importlib.import_module`` is needed because the package's
    ``__init__`` binds the name ``certify`` to the function, shadowing the
    submodule for ``import cochain_tuza.certify as ...``.
    """
    mod = importlib.import_module
    certify_mod = mod("cochain_tuza.certify")
    casesearch = mod("cochain_tuza.casesearch")
    oracles = mod("cochain_tuza.oracles")

    tracer.patch(certify_mod, "certify", _certify_span, _certificate_info)
    for attr, name in (
        ("verify_hitting", "graphs.verify_hitting"),
        ("verify_packing", "graphs.verify_packing"),
        ("enumerate_triangles", "graphs.enumerate_triangles"),
        ("pack_clique", "packings.pack_clique"),
        ("pack_side", "packings.pack_side"),
        ("build_T1", "certify.build_T1"),
        ("build_T2", "certify.build_T2"),
        ("evaluate_case_functions", "casesearch.evaluate_case_functions[certify]"),
    ):
        tracer.patch(certify_mod, attr, name)
    for owner in (certify_mod, oracles):
        tracer.patch(owner, "exact_tau", "oracles.exact_tau", _oracle_info)
        tracer.patch(owner, "exact_nu", "oracles.exact_nu", _oracle_info)
    tracer.patch(mod("cochain_tuza.graphs").CoChainGraph, "to_general", "graphs.to_general")
    tracer.patch(mod("cochain_tuza.recognition"), "recognize_cochain",
                 "recognition.recognize_cochain")
    tracer.patch(casesearch, "evaluate_case_functions",
                 "casesearch.evaluate_case_functions[bulk]")
    tracer.patch(casesearch, "search_exceptional", "casesearch.search_exceptional")
    tracer.patch(casesearch, "audit_inequalities", "casesearch.audit_inequalities",
                 lambda report: sum(c.checked for c in report.chains))


_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "infos": [], "by_outer": {}}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _guided_certificates(summary: dict) -> list[tuple[str, int, int, float]]:
    row = summary.get(GUIDED, _EMPTY)
    return [
        (info[0], info[1], info[2], dur)
        for info, dur in zip(row["infos"], row["durations"])
        if info is not None
    ]


def _path(method: str) -> str:
    if method.startswith("portfolio("):
        return "portfolio"
    if method.startswith("exact-fallback("):
        return "exact_fallback"
    return "recipe"


def repeat_counts(summary: dict) -> dict[str, Any]:
    """Counts that must repeat exactly across traced runs at one seed."""
    guided = _guided_certificates(summary)
    paths: dict[str, int] = {}
    for method, *_ in guided:
        paths[_path(method)] = paths.get(_path(method), 0) + 1
        if "/swapped" in method:
            paths["swapped"] = paths.get("swapped", 0) + 1
    slacks = [2 * p - h for _, h, p, _ in guided]
    counts: dict[str, Any] = {
        "calls": {name: row["calls"] for name, row in sorted(summary.items())},
        "paths": dict(sorted(paths.items())),
        "guided": len(guided),
        "slack_min": min(slacks, default=0),
        "slack_sum": sum(slacks),
    }
    for fn in ("exact_tau", "exact_nu"):
        infos = [i for i in summary.get(f"oracles.{fn}", _EMPTY)["infos"] if i]
        counts[f"{fn}.nodes"] = sum(i[0] for i in infos)
        counts[f"{fn}.unproven"] = sum(1 for i in infos if not i[1])
    return counts


def per_layer(
    summary: dict,
    ops: int,
    cold: dict[int, float],
    search_profiles: int,
) -> dict[str, float]:
    """Every metric of PER_LAYER but the tracing overhead, from one traced
    pass of ``ops`` operations."""
    def row(name: str) -> dict:
        return summary.get(name, _EMPTY)

    out: dict[str, float] = {}

    def per_op(name: str) -> None:
        out[f"{name}.calls_per_op"] = row(name)["calls"] / ops
        out[f"{name}.self_ms_per_op"] = row(name)["self_s"] * 1e3 / ops

    for name in ("graphs.verify_hitting", "graphs.verify_packing",
                 "graphs.enumerate_triangles", "graphs.to_general",
                 "packings.pack_side", "packings.pack_clique",
                 "certify.build_T1", "certify.build_T2"):
        per_op(name)
    certify_calls = sum(r["calls"] for n, r in summary.items() if n.startswith("certify.certify["))
    for fn in ("verify_hitting", "verify_packing"):
        # calls made inside certify itself, without the caller's own checks
        inside = sum(c for n, c in row(f"graphs.{fn}")["by_outer"].items()
                     if n.startswith("certify.certify["))
        out[f"graphs.{fn}.calls_per_certificate"] = _ratio(inside, certify_calls)
    for label, residues in COLD_CLASSES.items():
        out[f"packings.pack_clique.cold_s.{label}"] = sum(
            s for n, s in cold.items() if int(n) % 6 in residues
        )

    certify_rows = [r for n, r in summary.items() if n.startswith("certify.certify[")]
    out["certify.self_ms_per_op"] = sum(r["self_s"] for r in certify_rows) * 1e3 / ops
    out["certify.guided_ms_per_op"] = row(GUIDED)["total_s"] * 1e3 / ops
    out["certify.portfolio_mode_ms_per_op"] = (
        row("certify.certify[portfolio]")["total_s"] * 1e3 / ops
    )
    counts = repeat_counts(summary)
    guided = _guided_certificates(summary)
    for path in ("recipe", "portfolio", "exact_fallback", "swapped"):
        out[f"certify.path_share.{path}"] = _ratio(counts["paths"].get(path, 0), len(guided))
    portfolio_ms = [dur * 1e3 for method, _, _, dur in guided if _path(method) == "portfolio"]
    out["certify.portfolio_ms_p50"] = statistics.median(portfolio_ms) if portfolio_ms else 0.0
    out["certify.slack_min"] = float(counts["slack_min"])
    out["certify.slack_mean"] = _ratio(counts["slack_sum"], len(guided))

    r = row("recognition.recognize_cochain")
    out["recognition.recognize_cochain.calls_per_op"] = r["calls"] / ops
    out["recognition.recognize_cochain.self_ms_per_call"] = _ratio(r["self_s"] * 1e3, r["calls"])

    for fn in ("exact_tau", "exact_nu"):
        r = row(f"oracles.{fn}")
        durations = sorted(r["durations"])
        out[f"oracles.{fn}.calls"] = float(r["calls"])
        out[f"oracles.{fn}.s_per_op"] = r["total_s"] / ops
        out[f"oracles.{fn}.nodes"] = float(counts[f"{fn}.nodes"])
        out[f"oracles.{fn}.nodes_per_s"] = _ratio(counts[f"{fn}.nodes"], r["total_s"])
        out[f"oracles.{fn}.p95_ms"] = percentile(durations, 95) * 1e3
        out[f"oracles.{fn}.unproven"] = float(counts[f"{fn}.unproven"])

    for caller in ("bulk", "certify"):
        r = row(f"casesearch.evaluate_case_functions[{caller}]")
        out[f"casesearch.evaluate_case_functions.{caller}_us_per_call"] = _ratio(
            r["total_s"] * 1e6, r["calls"]
        )
    out["casesearch.evaluate_case_functions.certify_calls_per_op"] = (
        row("casesearch.evaluate_case_functions[certify]")["calls"] / ops
    )
    r = row("casesearch.search_exceptional")
    out["casesearch.search_exceptional.profiles_per_s"] = _ratio(
        r["calls"] * search_profiles, r["total_s"]
    )
    r = row("casesearch.audit_inequalities")
    out["casesearch.audit_inequalities.s"] = _ratio(r["total_s"], r["calls"])
    out["casesearch.audit_inequalities.tuples_per_s"] = _ratio(
        sum(i for i in r["infos"] if i), r["total_s"]
    )
    return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]
