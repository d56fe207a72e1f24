"""Scale harness: guided ``certify`` at n = 512, 1,024 and 2,048, the cost
of ``verify_packing`` per triangle, two routes from an edge list to a
checked certificate, and guided and portfolio ``certify`` over the small
census.

Guided certify runs on one fixed instance per main guided path.  Every
instance has sides L = M = 2h with h = n/4, so ell = m = h:

* ``P13/swapped``: thresholds 2h (h/16 times), then 25h/32, then 0 (h
  times); profile (h, h, h/16, 25h/32), settled on the mirror graph;
* ``P13``: the mirror (``swap_sides``) of that graph;
* ``P10'``: thresholds 2h (h - 1 times), h + 1 (4 times), then 0; profile
  (h, h, h + 3, h + 1), balanced-even;
* ``P3``: thresholds 2h (h times), then h/2; profile (h, h, h, 2h);
* ``P7``: thresholds 2h (h - 1 times), 3h/2, then h/4; profile
  (h, h, h, 3h/2).

Each (path, n) runs in fresh interpreters, so the clique cache starts cold.
Each builds the graph untimed, times ``certify(g, "guided")`` with
``time.process_time`` and reports the method and its peak RSS
(``ru_maxrss``, which includes the interpreter and the graph).  The method
must be the path's, or the harness exits with an error.  Times and RSS are
medians over the repeats.

``verify_packing`` is timed in this process on the Feder-optimal packing of
K_n (``pack_clique``) against K_n, at n = 64, 1,024 and 2,048: nanoseconds
per triangle, the median over the repeats, for the first check of a fresh
packing object (``ns_per_triangle``: the kernel and the host test) and for a
second check of the same object (``kept_ns_per_triangle``: the host test on
the masks the packing keeps).

The edge-list section takes the ``P13/swapped`` instance at each certify
size, its vertices renamed by a fixed permutation (``random.Random(0)``),
as the host graph an edge-list file gives.  After one untimed ``certify``
that fills the clique cache, each repeat times, with
``time.process_time``, two routes to a certificate checked against that
host: ``certify(host)``, which recognizes the graph and renames its
certificate through ``certify._map_certificate``; and the public round
trip, which recognizes the graph, certifies the recognized co-chain graph,
rebuilds the renamed witnesses with ``HittingSet.of`` and
``TrianglePacking.of`` and checks them with ``make_certificate``.  The
recognizer numbers the two sides its own way, so the section records the
method it reaches.  The times are medians over the repeats.

The census is every even-sided co-chain graph with sides in {2, 4, 6} and
n <= 10, the 582 graphs of the ``oracle-sandwich`` benchmark.  Each repeat
certifies them all in this process, in guided and then in portfolio mode,
timed apart with ``time.process_time``; the times are medians over the
repeats.  One more untimed portfolio pass counts the table recipes
(``RECIPES`` rows) and the code recipes that ``certify._build`` builds,
rather than reads from a context's cache, per portfolio call.

Run from the root of a source checkout::

    PYTHONPATH=src python tools/bench_certify.py            # writes BENCH_certify.json
    PYTHONPATH=src python tools/bench_certify.py --repeats 1 --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cochain_tuza
from cochain_tuza.generators import count_monotone_sequences, unrank_monotone_sequence
from cochain_tuza.graphs import (
    CoChainGraph,
    GeneralGraph,
    HittingSet,
    TrianglePacking,
    build_cochain,
    verify_packing,
)
from cochain_tuza.packings import pack_clique
from cochain_tuza.recognition import recognize_cochain

# the package's __init__ exports certify(), which shadows its module
certify_mod = importlib.import_module("cochain_tuza.certify")

PATHS = {
    "P13": "3.2.2-P13",
    "P13/swapped": "3.2.2-P13/swapped",
    "P10'": "3.1-case2.1-P10'",
    "P3": "3.1-case1-P3",
    "P7": "3.1-case1-P7",
}
CERTIFY_SIZES = (512, 1024, 2048)
VERIFY_SIZES = (64, 1024, 2048)
CENSUS_SIDES = (2, 4, 6)
CENSUS_MAX_N = 10


def instance(path: str, n: int) -> CoChainGraph:
    """The fixed instance of a guided path at n vertices (n a multiple of 8)."""
    h = n // 4
    if n % 8 or h < 4:
        raise ValueError(f"n must be a multiple of 8 and at least 16, got {n}")
    if path in ("P13", "P13/swapped"):
        k = h // 16 or 1
        t = [2 * h] * k + [25 * h // 32] * (h - k) + [0] * h
    elif path == "P10'":
        t = [2 * h] * (h - 1) + [h + 1] * 4 + [0] * (h - 3)
    elif path == "P3":
        t = [2 * h] * h + [h // 2] * h
    elif path == "P7":
        t = [2 * h] * (h - 1) + [h + h // 2] + [h // 4] * h
    else:
        raise ValueError(f"unknown path {path!r}")
    g = build_cochain(2 * h, 2 * h, t)
    return certify_mod.swap_sides(g)[0] if path == "P13" else g


def certify_once(path: str, n: int) -> dict:
    """Guided certify of one instance in this interpreter: process time,
    method and peak RSS."""
    g = instance(path, n)
    start = time.process_time()
    cert = certify_mod.certify(g, "guided")
    seconds = time.process_time() - start
    return {
        "method": cert.method,
        "certify_s": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_certify(path: str, n: int, repeats: int) -> dict:
    """Median process time and peak RSS of guided certify over fresh
    interpreters, one per repeat."""
    env = dict(os.environ)
    src = str(Path(cochain_tuza.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, __file__, "--one", path, str(n)],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout))
    methods = {r["method"] for r in runs}
    if methods != {PATHS[path]}:
        sys.exit(f"{path} at n = {n} certified as {sorted(methods)}")
    return {
        "method": PATHS[path],
        "certify_s": round(statistics.median(r["certify_s"] for r in runs), 4),
        "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
    }


def measure_verify(n: int, repeats: int) -> dict:
    """``verify_packing`` of the K_n packing against K_n, per triangle: the
    first check of a fresh packing object, which runs the kernel, and a
    second check of the same object, which reuses the masks it keeps."""
    full = (1 << n) - 1
    host = GeneralGraph._from_masks(tuple(full ^ (1 << v) for v in range(n)))
    triangles = pack_clique(range(n)).triangles
    times: dict[str, list[float]] = {"ns_per_triangle": [], "kept_ns_per_triangle": []}
    for _ in range(repeats):
        packing = TrianglePacking._trusted(triangles)
        for key in times:
            start = time.perf_counter()
            ok = verify_packing(host, packing)
            times[key].append(time.perf_counter() - start)
            if not ok:
                sys.exit(f"verify_packing rejects the K_{n} packing")
    return {
        "triangles": len(triangles),
        **{
            key: round(statistics.median(t) / len(triangles) * 1e9, 1)
            for key, t in times.items()
        },
    }


def permuted_host(g: CoChainGraph) -> GeneralGraph:
    """g with its vertices renamed by the fixed permutation of
    ``random.Random(0)``, as a general graph."""
    perm = list(range(g.n))
    random.Random(0).shuffle(perm)
    masks = [0] * g.n
    for u, mask in enumerate(g.adjacency_masks()):
        image = 0
        while mask:
            low = mask & -mask
            image |= 1 << perm[low.bit_length() - 1]
            mask ^= low
        masks[perm[u]] = image
    return GeneralGraph._from_masks(tuple(masks))


def round_trip(host: GeneralGraph) -> certify_mod.Certificate:
    """The public route from an edge list to a checked certificate."""
    recognized = recognize_cochain(host)
    cert = certify_mod.certify(recognized.graph, "guided")
    order = recognized.vertex_order
    return certify_mod.make_certificate(
        host,
        HittingSet.of((order[u], order[v]) for u, v in cert.hitting.edges),
        TrianglePacking.of(
            (order[a], order[b], order[c]) for a, b, c in cert.packing.triangles
        ),
        cert.method,
    )


def measure_edge_list(n: int, repeats: int) -> dict:
    """Process time of ``certify`` and of the public round trip on the
    permuted ``P13/swapped`` instance (medians over the repeats)."""
    host = permuted_host(instance("P13/swapped", n))
    method = certify_mod.certify(host, "guided").method
    seconds: dict[str, list[float]] = {"certify": [], "round_trip": []}
    for _ in range(repeats):
        for route, build in (("certify", certify_mod.certify), ("round_trip", round_trip)):
            start = time.process_time()
            cert = build(host)
            seconds[route].append(time.process_time() - start)
    return {
        "method": method,
        "triangles": cert.p_size,
        "hitting_edges": cert.h_size,
        **{f"{route}_s": round(statistics.median(t), 4) for route, t in seconds.items()},
    }


def census_graphs() -> list[CoChainGraph]:
    """Every co-chain graph with both sides in ``CENSUS_SIDES`` and at most
    ``CENSUS_MAX_N`` vertices, class by class in rank order."""
    return [
        build_cochain(L, M, unrank_monotone_sequence(r, L, M))
        for L in CENSUS_SIDES
        for M in CENSUS_SIDES
        if L + M <= CENSUS_MAX_N
        for r in range(count_monotone_sequences(L, M))
    ]


def measure_census(repeats: int) -> dict:
    """Process time of guided and of portfolio certify over the census
    (medians over the repeats), and table builds per portfolio call."""
    graphs = census_graphs()
    seconds: dict[str, list[float]] = {"guided": [], "portfolio": []}
    for _ in range(repeats):
        for mode, times in seconds.items():
            start = time.process_time()
            for g in graphs:
                certify_mod.certify(g, mode)
            times.append(time.process_time() - start)
    build = certify_mod._build
    builds = {"table": 0, "code": 0}

    def counted(rid, ctx):
        if rid not in ctx.built:
            builds["table" if rid in certify_mod.RECIPES else "code"] += 1
        return build(rid, ctx)

    certify_mod._build = counted
    try:
        for g in graphs:
            certify_mod.certify(g, "portfolio")
    finally:
        certify_mod._build = build
    return {
        "graphs": len(graphs),
        **{f"{mode}_s": round(statistics.median(t), 4) for mode, t in seconds.items()},
        **{
            f"{kind}_builds_per_portfolio_call": round(count / len(graphs), 2)
            for kind, count in builds.items()
        },
    }


def run(certify_sizes, verify_sizes, repeats: int) -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "timer": "certify: time.process_time in a fresh interpreter per repeat; "
        "verify: time.perf_counter; edge_list and census: time.process_time in "
        "this process; medians over repeats",
        "certify": {
            str(n): {path: measure_certify(path, n, repeats) for path in PATHS}
            for n in certify_sizes
        },
        "verify_packing": {str(n): measure_verify(n, repeats) for n in verify_sizes},
        "edge_list": {str(n): measure_edge_list(n, repeats) for n in certify_sizes},
        "census": measure_census(repeats),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_certify.json"))
    parser.add_argument("--one", nargs=2, metavar=("PATH", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(certify_once(args.one[0], int(args.one[1]))))
        return
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    doc = run(CERTIFY_SIZES, VERIFY_SIZES, args.repeats)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    sections = ("certify", "verify_packing", "edge_list", "census")
    print(json.dumps({k: doc[k] for k in sections}, indent=2))


if __name__ == "__main__":
    main()
