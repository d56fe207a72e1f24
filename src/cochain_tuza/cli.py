"""Command-line front end: generate, certify, search, audit, fuzz.

Exit codes partition the failure modes: 0 success, 2 usage/parse error,
3 precondition violation, 4 verification or mathematical failure, 5 oracle
budget exhaustion (``certify --mode exact`` only), 6 I/O error.  All
randomness flows from the --seed flag through one generator, so identical
invocations produce identical output; the node budget of the exact oracles
(``certify --mode exact`` and the ``fuzz`` cross-check) can be overridden
with COCHAIN_TUZA_ORACLE_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import fileio
from .audit import audit_inequalities
from .casesearch import (
    ALL_STRATEGIES,
    DEFAULT_STRATEGY,
    EXPECTED_EXCEPTIONAL,
    evaluate_case_functions,
    search_exceptional,
)
from .certify import (
    BudgetExhausted,
    CertificationFailure,
    PreconditionError,
    certify,
    oracle_budget,
)
from .generators import complete_join, disjoint_cliques, fuzz_instances, random_cochain
from .graphs import CaseProfile, CoChainGraph, build_cochain, profile
from .oracles import exact_nu, exact_tau

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5
EXIT_IO = 6


def cmd_gen(args: argparse.Namespace) -> int:
    import random

    l_size, m_size = args.l_size, args.m_size
    if l_size < 0 or m_size < 0:
        print("gen: side sizes must be nonnegative", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        if args.thresholds is not None:
            g = build_cochain(l_size, m_size, args.thresholds)
        elif args.complete:
            g = complete_join(l_size, m_size)
        elif args.disjoint:
            g = disjoint_cliques(l_size, m_size)
        else:  # --random
            g = random_cochain(random.Random(args.seed), l_size, m_size)
    except ValueError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        if args.out == "-":
            sys.stdout.write(json.dumps(fileio.cochain_document(g), indent=2) + "\n")
        else:
            fileio.write_cochain(args.out, g)
    except OSError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        g = fileio.read_graph(args.graph)
    except OSError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return EXIT_IO
    except fileio.GraphFormatError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        cert = certify(g, args.mode)
    except PreconditionError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificationFailure as exc:
        code = EXIT_BUDGET if isinstance(exc, BudgetExhausted) else EXIT_VERIFY
        print(f"certify: {exc}", file=sys.stderr)
        return code

    try:
        if args.out:
            fileio.write_certificate(args.out, cert)
        else:
            sys.stdout.write(json.dumps(fileio.certificate_document(cert), indent=2) + "\n")
    except OSError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"certify: method={cert.method} h_size={cert.h_size} "
        f"p_size={cert.p_size} ratio_ok={cert.ratio_ok}",
        file=sys.stderr,
    )
    return EXIT_OK if cert.ratio_ok else EXIT_VERIFY


#: every bound strategy by its ``describe()`` name, the values of --variant
_STRATEGIES = {s.describe(): s for s in ALL_STRATEGIES}


def cmd_search(args: argparse.Namespace) -> int:
    strategies = ALL_STRATEGIES if args.all_variants else (_STRATEGIES[args.variant],)
    status = EXIT_OK
    for strategy in strategies:
        found = sorted(p.as_tuple() for p in search_exceptional(args.limit, strategy))
        print(f"strategy {strategy.describe()}")
        for tup in found:
            rep = evaluate_case_functions(CaseProfile(*tup), strategy)
            fs = ",".join(str(v) for v in rep.f_values)
            passing = ",".join(str(i + 1) for i in sorted(rep.passing))
            print(
                f"tuple=({tup[0]},{tup[1]},{tup[2]},{tup[3]}) f=({fs}) "
                f"passing=({passing}) exceptional={rep.exceptional}"
            )
        print(f"exceptional-count={len(found)}")
        if args.limit >= 10 and strategy == DEFAULT_STRATEGY:
            match = set(found) == set(EXPECTED_EXCEPTIONAL)
            print(f"matches-published-list={match}")
            if not match:
                status = EXIT_VERIFY
    return status


def cmd_audit(args: argparse.Namespace) -> int:
    report = audit_inequalities(args.max_half)
    for chain in report.chains:
        print(
            f"chain={chain.chain!r} checked={chain.checked} "
            f"violations={len(chain.violations)}"
        )
        for v in chain.violations:
            print(
                f"violation chain={v.chain!r} step={v.step!r} "
                f"params={v.params} lhs={v.lhs} rhs={v.rhs}"
            )
    print(
        f"summary chains={len(report.chains)} "
        f"violations={len(report.violations)}"
    )
    return EXIT_OK


@dataclass(frozen=True)
class FuzzOutcome:
    """One fuzz instance: whether it failed, whether both exact oracles
    proved their values on it, and its report line."""

    failed: bool
    oracle_checked: bool
    line: str


def _fuzz_one(task: tuple[int, int, int, tuple[int, ...], int, int]) -> FuzzOutcome:
    """Certify one instance.  Raises nothing: failures, unexpected
    exceptions included, become failed outcomes so the pool survives them."""
    idx, l_size, m_size, thresholds, oracle_max, budget = task
    g = build_cochain(l_size, m_size, thresholds)
    head = f"instance={idx} profile={profile(g).as_tuple()}"
    try:
        failed, checked, text = _fuzz_report(g, oracle_max, budget)
    except (PreconditionError, CertificationFailure) as exc:
        failed, checked, text = True, False, f"FAIL reason={exc}"
    except Exception as exc:
        traceback.print_exc()
        failed, checked, text = True, False, f"FAIL reason={type(exc).__name__}: {exc}"
    return FuzzOutcome(failed, checked, f"{head} {text}")


def _fuzz_report(g: CoChainGraph, oracle_max: int, budget: int) -> tuple[bool, bool, str]:
    """(failed, oracle-checked, text) of the verified guided certificate of
    g, cross-checked by the oracles, each with the node budget, on graphs
    with at most oracle_max vertices."""
    cert = certify(g, "guided")
    if not cert.ratio_ok:
        return True, False, f"FAIL reason=ratio h={cert.h_size} p={cert.p_size}"
    checked = False
    oracle_note = "skipped"
    if g.n <= oracle_max:
        G = g.to_general()
        r_tau, r_nu = exact_tau(G, budget), exact_nu(G, budget)
        if r_tau.proven and r_nu.proven:
            sound = (
                r_tau.value <= cert.h_size
                and cert.p_size <= r_nu.value
                and r_tau.value <= 2 * r_nu.value
            )
            if not sound:
                return True, False, (
                    f"FAIL reason=oracle "
                    f"tau={r_tau.value} nu={r_nu.value} h={cert.h_size} p={cert.p_size}"
                )
            checked = True
            oracle_note = f"tau={r_tau.value},nu={r_nu.value}"
        else:
            oracle_note = "budget"
    text = f"method={cert.method} h={cert.h_size} p={cert.p_size} oracle={oracle_note}"
    return False, checked, text


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.count < 1 or args.max_half < 1:
        print("fuzz: count and max half-size must be positive", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        budget = oracle_budget()
    except PreconditionError as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    tasks = [
        (i, g.l_size, g.m_size, g.thresholds, args.oracle_max, budget)
        for i, g in enumerate(fuzz_instances(args.seed, args.count, args.max_half))
    ]
    # the pool starts all its workers up front, so ask for no more than can
    # run at once or have a task to run
    workers = min(args.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_fuzz_one, tasks, chunksize=64))
    else:
        outcomes = [_fuzz_one(t) for t in tasks]
    for o in outcomes:
        if args.verbose or o.failed:
            print(o.line)
    failures = sum(o.failed for o in outcomes)
    print(
        f"summary count={args.count} max_half={args.max_half} seed={args.seed} "
        f"failures={failures} oracle_checked={sum(o.oracle_checked for o in outcomes)}"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; the empty string is the empty list."""
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        msg = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cochain-tuza",
        description="Constructive tau <= 2*nu certificates on co-chain graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a co-chain graph file")
    p_gen.add_argument("--l-size", type=int, required=True)
    p_gen.add_argument("--m-size", type=int, required=True)
    kind = p_gen.add_mutually_exclusive_group(required=True)
    kind.add_argument(
        "--thresholds", type=_int_list, help="comma-separated nonincreasing values"
    )
    kind.add_argument("--random", action="store_true")
    kind.add_argument("--complete", action="store_true")
    kind.add_argument("--disjoint", action="store_true")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_cert = sub.add_parser("certify", help="certify a graph file")
    p_cert.add_argument("graph")
    p_cert.add_argument(
        "--mode", choices=("guided", "portfolio", "exact"), default="guided"
    )
    p_cert.add_argument("--out", default="")
    p_cert.set_defaults(func=cmd_certify)

    p_search = sub.add_parser("search", help="exceptional-tuple search")
    p_search.add_argument("--limit", type=int, default=10)
    p_search.add_argument(
        "--variant", choices=tuple(_STRATEGIES), default=DEFAULT_STRATEGY.describe()
    )
    p_search.add_argument("--all-variants", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_audit = sub.add_parser("audit", help="numeric audit of the inequality chains")
    p_audit.add_argument("--max-half", type=int, default=25)
    p_audit.set_defaults(func=cmd_audit)

    p_fuzz = sub.add_parser("fuzz", help="certify random instances, cross-check oracles")
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--max", dest="max_half", type=int, default=4)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--workers", type=int, default=1)
    p_fuzz.add_argument("--oracle-max", type=int, default=10)
    p_fuzz.add_argument("--verbose", action="store_true")
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
