"""Oracle harness: node counts and process time of ``exact_tau`` and
``exact_nu`` on four fixed sets of co-chain graphs.

The sets are:

* ``census-n10``: every even-sided co-chain graph with sides in {2, 4, 6}
  and at most 10 vertices (582 graphs, the ``oracle-sandwich`` population);
* ``census-6x6``: every co-chain graph with sides (6, 6) (924 graphs);
* ``random-8x8``: the three graphs ``random_cochain(Random(0), 8, 8)`` draws;
* ``random-8x8-30``: the thirty graphs ``random_cochain(Random(1), 8, 8)``
  draws (n = 16).

Each repeat runs both oracles once on every graph of a set, with the
default budget, and times each call with ``time.process_time``.  The two
oracles share one incidence build (``oracles._incidence``, which caches the
last graph's), so before each graph the harness clears that cache and times
the build on its own as ``incidence``; ``tau`` and ``nu`` then time the
searches and their own set-up, without the build.  Node counts
repeat exactly, so they are reported once; times are medians over the
repeats.  A set's ``values_sha256`` hashes one ``"L M thresholds tau nu"``
line per graph, so two runs compare their values by one string.  Every
oracle must prove its value, or the harness exits with an error.

Run from the root of a source checkout::

    PYTHONPATH=src python tools/bench_oracles.py            # writes BENCH_oracles.json
    PYTHONPATH=src python tools/bench_oracles.py --repeats 1 --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from cochain_tuza.generators import (
    count_monotone_sequences,
    random_cochain,
    unrank_monotone_sequence,
)
from cochain_tuza.graphs import CoChainGraph, build_cochain
from cochain_tuza.oracles import _incidence, exact_nu, exact_tau


def census(classes: list[tuple[int, int]]) -> list[CoChainGraph]:
    """Every co-chain graph of the given (L, M) classes, in rank order."""
    return [
        build_cochain(L, M, unrank_monotone_sequence(r, L, M))
        for L, M in classes
        for r in range(count_monotone_sequences(L, M))
    ]


def default_sets() -> dict[str, list[CoChainGraph]]:
    sides = (2, 4, 6)
    seed0, seed1 = random.Random(0), random.Random(1)
    return {
        "census-n10": census([(L, M) for L in sides for M in sides if L + M <= 10]),
        "census-6x6": census([(6, 6)]),
        "random-8x8": [random_cochain(seed0, 8, 8) for _ in range(3)],
        "random-8x8-30": [random_cochain(seed1, 8, 8) for _ in range(30)],
    }


def measure(graphs: list[CoChainGraph], repeats: int) -> dict:
    """Node counts, median process times and the values digest of one set."""
    hosts = [g.to_general() for g in graphs]
    times = {layer: [[] for _ in graphs] for layer in ("incidence", "tau", "nu")}
    nodes = {}
    values = []
    for _ in range(repeats):
        run_nodes, run_values = {"tau": 0, "nu": 0}, []
        for i, host in enumerate(hosts):
            _incidence.cache_clear()
            start = time.process_time()
            _incidence(host)
            times["incidence"][i].append(time.process_time() - start)
            row = []
            for name, oracle in (("tau", exact_tau), ("nu", exact_nu)):
                start = time.process_time()
                r = oracle(host)
                times[name][i].append(time.process_time() - start)
                if not r.proven:
                    sys.exit(f"{name} unproven on {graphs[i]}")
                run_nodes[name] += r.explored
                row.append(r.value)
            run_values.append(row)
        if values and (run_nodes, run_values) != (nodes, values):
            sys.exit("node counts or values differ between repeats")
        nodes, values = run_nodes, run_values
    digest = hashlib.sha256()
    for g, (tau, nu) in zip(graphs, values):
        line = f"{g.l_size} {g.m_size} {list(g.thresholds)} {tau} {nu}\n"
        digest.update(line.encode())
    out = {"graphs": len(graphs), "values_sha256": digest.hexdigest()}
    for name in ("incidence", "tau", "nu"):
        per_graph = [statistics.median(ts) for ts in times[name]]
        totals = [sum(ts[k] for ts in times[name]) for k in range(repeats)]
        if name in nodes:
            out[f"{name}_nodes"] = nodes[name]
        out[f"{name}_s"] = round(statistics.median(totals), 4)
        out[f"{name}_s_per_graph_median"] = round(statistics.median(per_graph), 4)
        out[f"{name}_s_per_graph_max"] = round(max(per_graph), 4)
    return out


def run(sets: dict[str, list[CoChainGraph]], repeats: int) -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "timer": "time.process_time, median over repeats",
        "sets": {name: measure(graphs, repeats) for name, graphs in sets.items()},
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("BENCH_oracles.json"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    doc = run(default_sets(), args.repeats)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["sets"], indent=2))


if __name__ == "__main__":
    main()
