"""Smoke test of the oracle harness ``tools/bench_oracles.py``."""

import importlib.util
import json
from pathlib import Path

from cochain_tuza.generators import count_monotone_sequences

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_oracles.py"


def _harness():
    spec = importlib.util.spec_from_file_location("bench_oracles", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_reports_the_2_2_class(tmp_path):
    harness = _harness()
    doc = harness.run({"census-2x2": harness.census([(2, 2)])}, repeats=2)
    out = tmp_path / "BENCH_oracles.json"
    out.write_text(json.dumps(doc))
    row = json.loads(out.read_text())["sets"]["census-2x2"]
    assert row["graphs"] == count_monotone_sequences(2, 2) == 6
    assert row["tau_nodes"] >= 1 and row["nu_nodes"] >= 1
    assert len(row["values_sha256"]) == 64
    for key in (
        "incidence_s",
        "tau_s",
        "nu_s",
        "tau_s_per_graph_median",
        "nu_s_per_graph_max",
    ):
        assert row[key] >= 0


def test_harness_sets_are_the_named_populations():
    sets = _harness().default_sets()
    assert {name: len(graphs) for name, graphs in sets.items()} == {
        "census-n10": 582,
        "census-6x6": 924,
        "random-8x8": 3,
        "random-8x8-30": 30,
    }
