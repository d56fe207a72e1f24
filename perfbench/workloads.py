"""The three benchmark workloads.

Each workload turns a seed into a stream of inputs (outside the timed
region), runs one operation per input through the package's public
functions (the timed region), and checks the outputs independently
(outside the timed region again).  A failed check is reported as a string
and counted by the caller; it never stops the run.

Importing this module imports the package, so the import belongs to the
set-up time that the caller measures.

Every call into the package goes through a module attribute looked up at
call time (``certify_mod.certify``, ``oracles.exact_tau``, ...), so that the
traced run's wrappers, installed on those attributes, see the call.
"""

from __future__ import annotations

import importlib
import itertools
import random
from time import perf_counter
from typing import Any, Iterator

certify_mod = importlib.import_module("cochain_tuza.certify")
casesearch = importlib.import_module("cochain_tuza.casesearch")
generators = importlib.import_module("cochain_tuza.generators")
graphs = importlib.import_module("cochain_tuza.graphs")
oracles = importlib.import_module("cochain_tuza.oracles")
packings = importlib.import_module("cochain_tuza.packings")
recognition = importlib.import_module("cochain_tuza.recognition")

# The output checks use the verifiers as imported here, never a traced wrapper.
_verify_hitting = graphs.verify_hitting
_verify_packing = graphs.verify_packing

#: the audit rule of acceptance criterion 5: the only slack the audit may
#: report is this one step of this one displayed chain
KNOWN_SLACK = ("(x_l-l-1)*(2l-1-x_m)", "x_l>l+1 => >= l-2")


def check_certificate(host, cert, what: str) -> list[str]:
    """Re-verify both witnesses against the host and the ratio |H| <= 2|P|."""
    problems = []
    if not _verify_hitting(host, cert.hitting):
        problems.append(f"{what}: hitting set misses a triangle")
    if not _verify_packing(host, cert.packing):
        problems.append(f"{what}: packing is not an edge-disjoint packing of the host")
    h, p = len(cert.hitting), len(cert.packing)
    if (cert.h_size, cert.p_size) != (h, p):
        problems.append(f"{what}: stated sizes {cert.h_size},{cert.p_size} != {h},{p}")
    if h > 2 * p:
        problems.append(f"{what}: |H|={h} > 2|P|={2 * p}")
    return problems


class Workload:
    """Interface shared by the workloads."""

    name = ""
    #: percentile reported as op_p99_ms (nearest rank)
    tail = 99
    #: fresh interpreters timed for setup_s, the measuring one included
    setup_samples = 9
    #: operations in each pass of the traced run
    trace_ops = 0
    #: a timed run stops only after a multiple of this many operations
    batch = 1
    #: profiles in one exceptional-tuple search, for the per-layer rate
    profiles = 0

    def __init__(self, smoke: bool) -> None:
        """``smoke`` shrinks the inputs to a tiny size."""

    def warm_up(self) -> dict[int, float]:
        """Cache warm-up that belongs to set-up; returns seconds per item."""
        return {}

    def items(self, seed: int) -> Iterator[Any]:
        raise NotImplementedError

    def op(self, item: Any) -> Any:
        raise NotImplementedError

    def check(self, item: Any, result: Any) -> list[str]:
        """Problems found in one operation's outputs; empty when all hold."""
        raise NotImplementedError


class CertifyStream(Workload):
    """Guided certificates for random instances with half sides up to 16.

    The instances follow the distribution of ``fuzz_instances(seed, .,
    max_half=16)`` (half sizes uniform, thresholds uniform), stratified:
    each block of 256 instances holds every pair of half sizes once, in a
    seed-shuffled order, and a timed run stops between blocks.  Cost grows
    steeply with the half sizes, so the plain stream's tail would depend on
    how many large balanced instances a seed drew.

    Every fourth instance arrives as a vertex-permuted edge list and goes
    through recognition and back, as ``cochain-tuza certify`` handles
    edge-list files.
    """

    name = "certify-stream"
    setup_samples = 3

    def __init__(self, smoke: bool) -> None:
        self.max_half = 3 if smoke else 16
        self.batch = self.max_half**2
        self.trace_ops = self.batch * (4 if smoke else 8)

    def warm_up(self) -> dict[int, float]:
        cold = {}
        for n in range(1, 4 * self.max_half + 2):
            t0 = perf_counter()
            packings.pack_clique(range(n), max_n=certify_mod.RECIPE_CLIQUE_CAP)
            cold[n] = perf_counter() - t0
        return cold

    def items(self, seed: int) -> Iterator[Any]:
        rng = random.Random(seed)
        relabel = random.Random(f"perfbench-relabel-{seed}")
        halves = range(1, self.max_half + 1)
        pairs = [(ell, m) for ell in halves for m in halves]
        for i in itertools.count():
            if i % len(pairs) == 0:
                rng.shuffle(pairs)
            ell, m = pairs[i % len(pairs)]
            g = generators.random_cochain(rng, 2 * ell, 2 * m)
            if i % 4 != 3:
                yield g
                continue
            perm = list(range(g.n))
            relabel.shuffle(perm)
            yield graphs.GeneralGraph.from_edges(
                g.n, ((perm[u], perm[v]) for u, v in g.to_general().edges)
            )

    def op(self, item: Any) -> Any:
        if isinstance(item, graphs.CoChainGraph):
            return certify_mod.certify(item, "guided")
        rec = recognition.recognize_cochain(item)
        if not isinstance(rec, recognition.RecognizedCoChain):
            return rec
        cert = certify_mod.certify(rec.graph, "guided")
        order = rec.vertex_order
        return certify_mod.make_certificate(
            item,
            graphs.HittingSet.of((order[u], order[v]) for u, v in cert.hitting.edges),
            graphs.TrianglePacking.of(
                (order[a], order[b], order[c]) for a, b, c in cert.packing.triangles
            ),
            cert.method,
        )

    def check(self, item: Any, result: Any) -> list[str]:
        if isinstance(result, recognition.RecognitionFailure):
            return [f"edge-list instance rejected by recognition: {result.reason}"]
        if isinstance(item, graphs.CoChainGraph):
            host, what = item.to_general(), "guided"
        else:
            host, what = item, "guided, mapped to the edge-list labels"
        problems = check_certificate(host, result, what)
        if not result.ratio_ok:
            problems.append(f"{what}: ratio_ok is false")
        return problems


class OracleSandwich(Workload):
    """Guided and portfolio certificates cross-checked by both exact oracles,
    on every even-sided co-chain graph with sides in {2, 4, 6} and at most 10
    vertices: the domain of ``cochain-tuza fuzz --max 3`` without its n = 12
    class.  At n = 12 a handful of the 924 instances cost seconds each (the
    complete join K_12 about 20 s), so a sample's total would depend on
    whether the seed happened to draw them.  The seed orders each pass.
    """

    name = "oracle-sandwich"

    def __init__(self, smoke: bool) -> None:
        sides = (2, 4) if smoke else (2, 4, 6)
        max_n = 6 if smoke else 10
        self.classes = [(L, M) for L in sides for M in sides if L + M <= max_n]
        self.budget = certify_mod.oracle_budget()
        self.trace_ops = self.batch = sum(
            generators.count_monotone_sequences(L, M) for L, M in self.classes
        )

    def items(self, seed: int) -> Iterator[Any]:
        population = [
            graphs.build_cochain(L, M, generators.unrank_monotone_sequence(r, L, M))
            for L, M in self.classes
            for r in range(generators.count_monotone_sequences(L, M))
        ]
        order = random.Random(seed)
        while True:
            order.shuffle(population)
            for g in population:
                yield g, g.to_general()

    def op(self, item: Any) -> Any:
        g, host = item
        return (
            certify_mod.certify(g, "guided"),
            certify_mod.certify(g, "portfolio"),
            oracles.exact_tau(host, self.budget),
            oracles.exact_nu(host, self.budget),
        )

    def check(self, item: Any, result: Any) -> list[str]:
        _, host = item
        guided, portfolio, tau, nu = result
        problems = []
        if not (tau.proven and nu.proven):
            problems.append(f"oracle unproven: tau={tau.proven} nu={nu.proven}")
        if not (_verify_hitting(host, tau.witness) and len(tau.witness) == tau.value):
            problems.append("tau witness is not a hitting set of size tau")
        if not (_verify_packing(host, nu.witness) and len(nu.witness) == nu.value):
            problems.append("nu witness is not a packing of size nu")
        if tau.value > 2 * nu.value:
            problems.append(f"tau={tau.value} > 2 nu={2 * nu.value}")
        for what, cert in (("guided", guided), ("portfolio", portfolio)):
            problems += check_certificate(host, cert, what)
            if tau.value > cert.h_size or cert.p_size > nu.value:
                problems.append(
                    f"{what}: sandwich broken: tau={tau.value} |H|={cert.h_size} "
                    f"|P|={cert.p_size} nu={nu.value}"
                )
        return problems


class CasesearchSweep(Workload):
    """One operation is a whole sweep: the exhaustive exceptional-tuple
    search under every bound strategy, then the inequality audit.
    Exhaustive, so the seed changes nothing."""

    name = "casesearch-sweep"
    tail = 100
    trace_ops = 1

    def __init__(self, smoke: bool) -> None:
        self.limit = 6 if smoke else 20
        self.max_half = 6 if smoke else 25

    def items(self, seed: int) -> Iterator[Any]:
        # counted here rather than in __init__, which is part of set-up
        self.profiles = sum(1 for _ in casesearch.constrained_profiles(self.limit))
        return itertools.repeat(casesearch.ALL_STRATEGIES)

    def op(self, item: Any) -> Any:
        searches = [casesearch.search_exceptional(self.limit, s) for s in item]
        return searches, casesearch.audit_inequalities(self.max_half)

    def check(self, item: Any, result: Any) -> list[str]:
        searches, audit = result
        expected = set(casesearch.EXPECTED_EXCEPTIONAL)
        problems = []
        for strategy, found in zip(item, searches):
            found = {p.as_tuple() for p in found}
            if strategy == casesearch.DEFAULT_STRATEGY and found != expected:
                problems.append(f"default strategy: extra={sorted(found - expected)} "
                                f"missing={sorted(expected - found)}")
            elif not found >= expected:
                problems.append(f"{strategy.describe()}: misses {sorted(expected - found)}")
        problems += [
            f"audit: unexpected violation {v.chain!r} / {v.step!r} at {v.params}"
            for v in audit.violations
            if (v.chain, v.step) != KNOWN_SLACK
        ]
        return problems


WORKLOADS = {w.name: w for w in (CertifyStream, OracleSandwich, CasesearchSweep)}
