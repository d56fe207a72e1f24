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
    assert verify["triangles"] == 8 and verify["ns_per_triangle"] > 0
    census = doc["census"]
    assert census["graphs"] == 582
    assert census["guided_s"] > 0 and census["portfolio_s"] > 0
    # per portfolio call: the table rows _largest_packing tries until one
    # applies (on g, and on the mirror for a swapped "small" leaf), plus the
    # rows of guided's leaf
    assert 0 < census["table_builds_per_portfolio_call"] <= 6


def test_harness_sizes_are_the_stated_scales():
    harness = _harness()
    assert harness.CERTIFY_SIZES == (512, 1024, 2048)
    assert harness.VERIFY_SIZES == (64, 1024, 2048)
    assert set(harness.PATHS) == {"P13", "P13/swapped", "P10'", "P3", "P7"}
    assert (harness.CENSUS_SIDES, harness.CENSUS_MAX_N) == ((2, 4, 6), 10)
