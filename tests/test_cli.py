import dataclasses
import hashlib
import importlib
import json
import random
import subprocess
import sys

import pytest

from cochain_tuza.casesearch import ALL_STRATEGIES
from cochain_tuza.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    main,
)
from cochain_tuza.fileio import (
    GraphFormatError,
    read_certificate,
    read_graph,
    write_general,
)
from cochain_tuza.generators import random_cochain
from cochain_tuza.graphs import GeneralGraph, build_cochain, verify_hitting, verify_packing


def run(args):
    return main(args)


def test_gen_explicit_thresholds(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "--l-size", "4", "--m-size", "8",
                "--thresholds", "8,5,4,2", "--out", str(out)]) == EXIT_OK
    g = read_graph(out)
    assert g.thresholds == (8, 5, 4, 2)


def test_gen_complete_and_disjoint(tmp_path):
    out = tmp_path / "k4.json"
    assert run(["gen", "--l-size", "2", "--m-size", "2", "--complete",
                "--out", str(out)]) == EXIT_OK
    assert read_graph(out).to_general().n == 4
    assert run(["gen", "--l-size", "2", "--m-size", "4", "--disjoint",
                "--out", str(out)]) == EXIT_OK
    assert read_graph(out).thresholds == (0, 0)


def test_gen_random_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["gen", "--l-size", "8", "--m-size", "8", "--random",
                    "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_bad_thresholds(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "--l-size", "2", "--m-size", "2",
                "--thresholds", "1,2", "--out", str(out)]) == EXIT_PRECONDITION


@pytest.mark.parametrize("text", ["3,x", ",", "1,,2", "2.0,1"])
def test_gen_rejects_malformed_thresholds_as_a_parse_error(tmp_path, capsys, text):
    # text that is not a list of integers is a usage error (exit 2), like a
    # co-chain file with float thresholds; a well-formed list that is not
    # nonincreasing stays a precondition violation (exit 3)
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--l-size", "2", "--m-size", "2", "--thresholds", text,
             "--out", str(tmp_path / "g.json")])
    assert exc.value.code == EXIT_PARSE
    assert "comma-separated integers" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_gen_stdout_is_the_file_document(tmp_path, capsys):
    out = tmp_path / "g.json"
    args = ["gen", "--l-size", "4", "--m-size", "8", "--thresholds", "8,5,4,2"]
    assert run([*args, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert run(args) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()


def test_certify_figure_instance(tmp_path):
    graph = tmp_path / "g.json"
    cert = tmp_path / "c.json"
    run(["gen", "--l-size", "4", "--m-size", "8", "--thresholds", "8,5,4,2",
         "--out", str(graph)])
    assert run(["certify", str(graph), "--out", str(cert)]) == EXIT_OK
    doc = read_certificate(cert)
    assert doc["ratio_ok"] and doc["h_size"] <= 2 * doc["p_size"]
    assert doc["method"].startswith("3.1-")


def test_certify_is_byte_deterministic(tmp_path):
    graph = tmp_path / "g.json"
    run(["gen", "--l-size", "6", "--m-size", "6", "--random", "--seed", "3",
         "--out", str(graph)])
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert run(["certify", str(graph), "--out", str(c1)]) == EXIT_OK
    assert run(["certify", str(graph), "--out", str(c2)]) == EXIT_OK
    assert c1.read_bytes() == c2.read_bytes()


def test_certify_odd_sides_precondition_exit(tmp_path):
    graph = tmp_path / "g.json"
    run(["gen", "--l-size", "3", "--m-size", "4", "--complete", "--out", str(graph)])
    assert run(["certify", str(graph)]) == EXIT_PRECONDITION


def test_certify_exact_mode_on_k4(tmp_path):
    graph = tmp_path / "g.json"
    cert = tmp_path / "c.json"
    run(["gen", "--l-size", "2", "--m-size", "2", "--complete", "--out", str(graph)])
    assert run(["certify", str(graph), "--mode", "exact", "--out", str(cert)]) == EXIT_OK
    doc = read_certificate(cert)
    assert (doc["h_size"], doc["p_size"]) == (2, 1)


def test_certify_exact_mode_budget_exhaustion_exit_code(tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    run(["gen", "--l-size", "4", "--m-size", "6", "--complete", "--out", str(graph)])
    monkeypatch.setenv("COCHAIN_TUZA_ORACLE_BUDGET", "3")
    assert run(["certify", str(graph), "--mode", "exact"]) == EXIT_BUDGET


def test_certify_unparseable_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["certify", str(bad)]) == EXIT_PARSE
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"foo": 1}))
    assert run(["certify", str(wrong)]) == EXIT_PARSE


@pytest.mark.parametrize(
    "doc",
    [
        {"l_size": 2, "m_size": 2, "thresholds": [2.0, 1.0]},
        {"l_size": 2.0, "m_size": 2, "thresholds": [2, 1]},
    ],
)
def test_certify_rejects_non_integer_fields(tmp_path, doc):
    # a float size or threshold is a bad document, not a crash in certify
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError, match="bad co-chain document"):
        read_graph(graph)
    assert run(["certify", str(graph)]) == EXIT_PARSE


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3, "edges": [[0, True], [1, 2]]},
        {"n": True, "edges": []},
        {"n": 3.0, "edges": [[0, 1]]},
        {"n": 3, "edges": [[0, 1.0]]},
    ],
)
def test_certify_rejects_non_integer_graph_fields(tmp_path, doc):
    # a boolean or float vertex count or edge end is a bad document, not a
    # graph read with True as 1
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError, match="bad graph document"):
        read_graph(graph)
    assert run(["certify", str(graph)]) == EXIT_PARSE


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested past the decoder's recursion limit
    ],
    ids=["not-utf8", "nested-too-deeply"],
)
def test_certify_rejects_undecodable_files_as_parse_errors(tmp_path, data):
    graph = tmp_path / "g.json"
    graph.write_bytes(data)
    with pytest.raises(GraphFormatError, match="not valid JSON"):
        read_graph(graph)
    assert run(["certify", str(graph)]) == EXIT_PARSE


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_malformed_oracle_budget_is_a_precondition_error(
    tmp_path, monkeypatch, capsys, value
):
    # reported once, naming the variable, before any instance is counted
    monkeypatch.setenv("COCHAIN_TUZA_ORACLE_BUDGET", value)
    assert run(["fuzz", "--count", "3", "--max", "2"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("COCHAIN_TUZA_ORACLE_BUDGET") == 1
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"l_size": 2, "m_size": 2, "thresholds": [2, 2]}))
    assert run(["certify", str(graph), "--mode", "exact"]) == EXIT_PRECONDITION
    assert "COCHAIN_TUZA_ORACLE_BUDGET" in capsys.readouterr().err


def _permuted_edge_lists():
    """(name, edge list) pairs: a fixed relabeling of a (2, 4) graph, then
    for seeds 1-3 a random co-chain graph at each of seven half-size pairs,
    its vertices shuffled by the same generator."""
    g = build_cochain(2, 4, (4, 2)).to_general()
    perm = [3, 0, 5, 1, 4, 2]
    yield "fixed", GeneralGraph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for ell, m in ((1, 1), (2, 5), (4, 4), (7, 3), (9, 16), (16, 12), (16, 16)):
            g = random_cochain(rng, 2 * ell, 2 * m)
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = ((perm[u], perm[v]) for u, v in g.to_general().edges)
            yield f"s{seed}-{ell}-{m}", GeneralGraph.from_edges(g.n, edges)


def test_certify_general_graph_via_recognition(tmp_path):
    # the certificate must be expressed in the input file's own labels: both
    # witnesses verify against the shuffled host, at the ratio
    files = 0
    for name, shuffled in _permuted_edge_lists():
        graph = tmp_path / f"{name}.json"
        write_general(graph, shuffled)
        cert = tmp_path / f"{name}.cert.json"
        assert run(["certify", str(graph), "--out", str(cert)]) == EXIT_OK, name
        doc = read_certificate(cert)
        hitting = [tuple(e) for e in doc["hitting"]]
        packing = [tuple(t) for t in doc["packing"]]
        assert verify_hitting(shuffled, hitting), name
        assert verify_packing(shuffled, packing), name
        assert (doc["h_size"], doc["p_size"]) == (len(hitting), len(packing)), name
        assert doc["ratio_ok"] and len(hitting) <= 2 * len(packing), name
        files += 1
    assert files == 22


def test_certify_rejects_non_cochain_general_graph(tmp_path, capsys):
    graph = tmp_path / "c4.json"
    write_general(graph, GeneralGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert run(["certify", str(graph)]) == EXIT_PRECONDITION
    # nothing reaches stdout: the recognition failure is reported on stderr
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "co-chain" in captured.err


def test_search_cli(capsys):
    assert run(["search", "--limit", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "exceptional-count=12" in out
    assert "matches-published-list=True" in out
    assert "tuple=(2,3,1,2)" in out


@pytest.mark.parametrize("variant", ["universal", "exact", "clique=bogus"])
def test_search_rejects_a_bare_or_unknown_variant(variant):
    # only the four full strategy names are accepted: two strategies share
    # the clique name "universal"
    with pytest.raises(SystemExit) as exc:
        run(["search", "--limit", "3", "--variant", variant])
    assert exc.value.code == EXIT_PARSE


def test_search_runs_each_named_variant(capsys):
    for strategy in ALL_STRATEGIES:
        assert run(["search", "--limit", "3", "--variant", strategy.describe()]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"strategy {strategy.describe()}\n")


def test_audit_cli(capsys):
    assert run(["audit", "--max-half", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "summary chains=" in out
    # paper slack in the P10' chain is reported with its anchor
    assert "chain='(x_l-l-1)*(2l-1-x_m)'" in out


def test_audit_rejects_an_empty_range(capsys):
    assert run(["audit", "--max-half", "0"]) == EXIT_PRECONDITION
    assert "max_half must be at least 1" in capsys.readouterr().err


# SHA-256 of stdout, recorded before the search interpolated group sizes per
# (ell, m) and before the audit compared scaled integer sides.  The search to
# 80 prints the same bytes as the search to 30 (94,920 profiles), so its one
# pin covers both; the audit to 40 replays 924,156 tuples and reports 361
# known-slack violations.  A new pin goes at the end, so the
# numbered cases of the test keep their commands
PINNED_STDOUT = {
    ("audit", "--max-half", "25"):
        "69c560434d8f69d804505b8adb544e80cbc26dee3e0e04c68c50663ec032d12a",
    ("search", "--all-variants", "--limit", "20"):
        "ead941fedd359db1488074ad2f41b3be1addbb89844c396aa8959d30dbe9d4fa",
    ("search", "--limit", "80"):
        "b230d47005c2973be72ad3d0314d41bbb7fdf398983161898d90242d7a3dc08e",
    ("audit", "--max-half", "40"):
        "eb44384cb47cb13de1ac75f1f6d44e0562ca1edd49b2a6a854ce701f8fa7ffdd",
}


@pytest.mark.parametrize("args", list(PINNED_STDOUT))
def test_search_and_audit_output_is_pinned(args, capsys):
    assert run(list(args)) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_STDOUT[args]


def test_audit_output_at_small_limits_is_pinned(capsys):
    # limits 1..12 reach empty and partial domain rows, which the pins at
    # 25 and 40 do not isolate; the digest is of the concatenated stdout
    out = []
    for k in range(1, 13):
        assert run(["audit", "--max-half", str(k)]) == EXIT_OK
        out.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "e84220a0162a7066eaa0aa692b30e1cf6e7e67d3fabff2b99ddb1e173181e3b7"


def test_read_certificate_rejects_non_documents(tmp_path):
    not_json = tmp_path / "oops.json"
    not_json.write_text("{oops")
    with pytest.raises(GraphFormatError, match="not valid JSON"):
        read_certificate(not_json)
    a_list = tmp_path / "list.json"
    a_list.write_text("[1,2]")
    with pytest.raises(GraphFormatError, match="expected a JSON object"):
        read_certificate(a_list)


def test_fuzz_cli(capsys):
    assert run(["fuzz", "--count", "300", "--max", "6", "--seed", "1",
                "--workers", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "count=300" in out and "failures=0" in out
    assert "oracle_checked=" in out


@pytest.mark.parametrize(
    "args, summary",
    [
        # guided mode well past max(ell, m) = 10, where the recipe loop runs
        (["--count", "3000", "--max", "40", "--oracle-max", "0"],
         "count=3000 max_half=40 seed=1 failures=0 oracle_checked=0"),
        # every instance has n <= 12, and both oracles prove their values
        (["--count", "300", "--max", "3", "--oracle-max", "12"],
         "count=300 max_half=3 seed=1 failures=0 oracle_checked=300"),
    ],
    ids=["half-size-40", "oracle-n12"],
)
def test_fuzz_summary(capsys, args, summary):
    assert run(["fuzz", *args, "--seed", "1", "--workers", "2"]) == EXIT_OK
    assert capsys.readouterr().out == f"summary {summary}\n"


def test_guided_fuzz_reads_no_oracle_budget(monkeypatch, capsys):
    # with a one-node budget any oracle call would come back unproven;
    # guided certify calls none, so every instance still passes
    monkeypatch.setenv("COCHAIN_TUZA_ORACLE_BUDGET", "1")
    assert run(["fuzz", "--count", "2000", "--max", "4", "--seed", "1",
                "--oracle-max", "0", "--workers", "2"]) == EXIT_OK
    assert "failures=0 oracle_checked=0" in capsys.readouterr().out


def test_fuzz_output_independent_of_workers(capsys):
    assert run(["fuzz", "--count", "40", "--max", "3", "--seed", "9",
                "--verbose"]) == EXIT_OK
    seq = capsys.readouterr().out
    assert run(["fuzz", "--count", "40", "--max", "3", "--seed", "9",
                "--verbose", "--workers", "2"]) == EXIT_OK
    par = capsys.readouterr().out
    assert seq == par


def test_entry_point_subprocess(tmp_path):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cochain_tuza.cli", "gen", "--l-size", "2",
         "--m-size", "2", "--complete", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == EXIT_OK


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["certify"])  # missing positional argument
    assert exc.value.code == EXIT_PARSE


def test_fuzz_reports_unexpected_exceptions_as_failures(monkeypatch, capsys):
    # one bad instance must not take down the run: any exception becomes a
    # FAIL line naming its type
    cli = importlib.import_module("cochain_tuza.cli")

    def broken(g, mode="guided"):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "certify", broken)
    assert main(["fuzz", "--count", "3", "--max", "2"]) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if " FAIL " in line]
    assert len(fails) == 3
    assert all("FAIL reason=RuntimeError: injected" in line for line in fails)


def test_fuzz_counts_outcomes_not_line_text(monkeypatch, capsys):
    # a success whose method text reads like a failure (" FAIL ") or like an
    # oracle check ("oracle=tau") is still counted as an unchecked success
    cli = importlib.import_module("cochain_tuza.cli")
    real = cli.certify

    def odd_method(g, mode="guided"):
        cert = real(g, mode)
        return dataclasses.replace(cert, method="odd FAIL oracle=tau")

    monkeypatch.setattr(cli, "certify", odd_method)
    assert main(["fuzz", "--count", "5", "--max", "2", "--oracle-max", "0",
                 "--verbose"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert all(" FAIL oracle=tau " in line for line in lines[:-1])
    assert lines[-1].endswith("failures=0 oracle_checked=0")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "workers, count, cpus, pool_size",
    [
        (5000, 3, 8, 3),  # no more workers than tasks
        (5000, 20, 4, 4),  # no more workers than CPUs
        (2, 20, 8, 2),  # the request, when it is the smallest
        (5000, 1, 8, None),  # one task runs in this process
        (5000, 20, None, None),  # an unknown CPU count means one
    ],
)
def test_fuzz_pool_is_capped(monkeypatch, capsys, workers, count, cpus, pool_size):
    cli = importlib.import_module("cochain_tuza.cli")
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main(["fuzz", "--count", str(count), "--max", "2",
                 "--workers", str(workers)]) == EXIT_OK
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    assert f"count={count} " in capsys.readouterr().out
