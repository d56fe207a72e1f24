#!/usr/bin/env python3
"""Benchmark of the cochain-tuza package: one closed-loop client, one process.

    python3 perfbench/run.py --workload certify-stream --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's metadata.  The exit code is 0 only when every output
check passed.

``--trace 0`` reports the end-to-end metrics of a run that measures for
``--seconds`` seconds.  ``--trace 1`` reports the per-layer metrics of a
fixed number of operations, run once untraced and twice traced, each in a
fresh interpreter; the two traced runs must give identical counts.  See
``perfbench/README.md``.

Every measurement happens in a child interpreter started with ``--worker``;
this process only starts them, one at a time, and summarises.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import layers
from layers import percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: the whole invocation must end within 180 s; workers are killed past this
RUN_LIMIT_S = 170.0
#: iterations of the calibration loop timed before and after each run
CALIBRATION_LOOP = 2_000_000

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Worker: one fresh interpreter running set-up and, optionally, operations
# ---------------------------------------------------------------------------


def worker(cfg: dict) -> dict:
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[cfg["workload"]](cfg["smoke"])
    cold = wl.warm_up()
    out: dict = {"setup_s": perf_counter() - t0}
    if cfg["mode"] == "setup":
        return out

    tracer = None
    if cfg["traced"]:
        tracer = Tracer()
        layers.install(tracer)

    items = wl.items(cfg["seed"])
    deadline = perf_counter() + cfg.get("seconds", 0.0)
    latencies: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    while True:
        if cfg["mode"] == "fixed":
            if attempted == wl.trace_ops:
                break
        # a timed run stops between whole batches, so every run sees the same mix
        elif attempted and attempted % wl.batch == 0 and perf_counter() >= deadline:
            break
        item = next(items)
        attempted += 1
        try:
            with tracer.op() if tracer else nullcontext():
                start = perf_counter()
                result = wl.op(item)
                latencies.append(perf_counter() - start)
            found = wl.check(item, result)
        except Exception as exc:  # a broken op is counted, never fatal
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.extend(found[: 10 - len(problems)])

    latencies.sort()
    out.update(
        attempted=attempted,
        failed=failed,
        problems=problems,
        busy_s=sum(latencies),
        p50_s=percentile(latencies, 50),
        tail_s=percentile(latencies, wl.tail),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        setup_samples=wl.setup_samples,
    )
    if tracer is not None:
        tracer.restore()
        summary = tracer.summary()
        out["counts"] = layers.repeat_counts(summary)
        out["layers"] = layers.per_layer(summary, attempted, cold, wl.profiles)
        if cfg.get("spans"):
            tracer.write(Path(cfg["spans"]))
    return out


# ---------------------------------------------------------------------------
# Parent: starts workers, summarises, prints the result
# ---------------------------------------------------------------------------


class Parent:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = perf_counter()

    def spawn(self, **cfg) -> dict:
        cfg = {"workload": self.args.workload, "seed": self.args.seed,
               "smoke": self.args.smoke, "traced": False, **cfg}
        left = RUN_LIMIT_S - (perf_counter() - self.started)
        if left <= 0:
            raise BenchmarkError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--worker", json.dumps(cfg)],
                cwd=ROOT, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker {cfg['mode']} exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchmarkError(
                f"worker {cfg['mode']} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def end_to_end(self) -> tuple[list[dict], dict]:
        run = self.spawn(mode="timed", seconds=self.args.seconds)
        setups = [run["setup_s"]]
        setups += [self.spawn(mode="setup")["setup_s"] for _ in range(run["setup_samples"] - 1)]
        busy = run["busy_s"]
        metrics = {
            "ops_per_s": (run["attempted"] - run["failed"]) / busy if busy else 0.0,
            "op_p50_ms": run["p50_s"] * 1e3,
            "op_p99_ms": run["tail_s"] * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        return [run], {"metrics": out, "setup_samples_s": setups}

    def per_layer(self) -> tuple[list[dict], dict]:
        plain = self.spawn(mode="fixed")
        tag = f"{self.args.workload}-seed{self.args.seed}"
        traced = [
            self.spawn(mode="fixed", traced=True,
                       spans=str(OUT / f"{tag}-pass{k}.spans.jsonl"))
            for k in (1, 2)
        ]
        repeat_ok = traced[0]["counts"] == traced[1]["counts"]
        values = dict(traced[0]["layers"])
        values["trace.overhead_frac"] = (
            traced[0]["busy_s"] / plain["busy_s"] - 1 if plain["busy_s"] else 0.0
        )
        units = dict(layers.PER_LAYER)
        out = {k: {"value": values[k], "unit": units[k]} for k, _ in layers.PER_LAYER}
        extra = {
            "metrics": out,
            "counts_repeat": repeat_ok,
            "counts": traced[0]["counts"],
            "untraced_busy_s": plain["busy_s"],
            "traced_busy_s": [t["busy_s"] for t in traced],
        }
        if not repeat_ok:
            extra["counts_second_pass"] = traced[1]["counts"]
        return [plain, *traced], extra


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; recorded to flag a drifting
    machine, never used to scale a metric."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    return perf_counter() - start


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("certify-stream", "oracle-sandwich", "casesearch-sweep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is None and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(json.loads(args.worker))))
        return 0

    if not (SRC / "cochain_tuza" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    parent = Parent(args)
    calib_before = calibrate()
    try:
        runs, extra = parent.per_layer() if args.trace else parent.end_to_end()
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    calib_after = calibrate()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and extra.get("counts_repeat", True)
    metrics = extra.pop("metrics")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ops": [r["attempted"] for r in runs],
        "fail_frac": failed / attempted if attempted else 0.0,
        "problems": [p for r in runs for p in r["problems"]][:20],
        "calibration_s": {"before": calib_before, "after": calib_after,
                          "loop_iterations": CALIBRATION_LOOP},
        **extra,
    }
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
