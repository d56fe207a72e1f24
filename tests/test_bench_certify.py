"""Smoke test of the scale harness ``tools/bench_certify.py``."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_certify.py"


def _harness():
    spec = importlib.util.spec_from_file_location("bench_certify", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_reports_every_path_at_a_tiny_n(tmp_path):
    # each path's instance certifies by that path, in a fresh interpreter
    harness = _harness()
    doc = harness.run((16,), (8,), repeats=1)
    out = tmp_path / "BENCH_certify.json"
    out.write_text(json.dumps(doc))
    doc = json.loads(out.read_text())
    rows = doc["certify"]["16"]
    assert {path: row["method"] for path, row in rows.items()} == harness.PATHS
    assert all(row["certify_s"] >= 0 and row["peak_rss_mb"] > 0 for row in rows.values())
    verify = doc["verify_packing"]["8"]
    assert verify["triangles"] == 8
    assert verify["ns_per_triangle"] > 0 and verify["kept_ns_per_triangle"] > 0
    # both edge-list routes certify the permuted P13/swapped instance; the
    # recognizer numbers its sides either way round
    edge_list = doc["edge_list"]["16"]
    assert edge_list["method"] in (harness.PATHS["P13"], harness.PATHS["P13/swapped"])
    assert edge_list["triangles"] > 0 and edge_list["hitting_edges"] > 0
    assert edge_list["certify_s"] >= 0 and edge_list["round_trip_s"] >= 0
    census = doc["census"]
    assert census["graphs"] == 582
    assert census["guided_s"] > 0 and census["portfolio_s"] > 0
    # per portfolio call: the recipes _largest_packing tries until one
    # applies (on g, and on the mirror for a swapped "small" leaf), plus the
    # recipes of guided's leaf; building every code recipe would read 5.4
    assert 0 < census["table_builds_per_portfolio_call"] <= 6
    assert 0 < census["code_builds_per_portfolio_call"] < 3


def test_harness_sizes_are_the_stated_scales():
    harness = _harness()
    assert harness.CERTIFY_SIZES == (512, 1024, 2048)
    assert harness.VERIFY_SIZES == (64, 1024, 2048)
    assert set(harness.PATHS) == {"P13", "P13/swapped", "P10'", "P3", "P7"}
    assert (harness.CENSUS_SIDES, harness.CENSUS_MAX_N) == ((2, 4, 6), 10)
