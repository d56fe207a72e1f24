"""Constructive tau <= 2*nu certificates for even-sided co-chain graphs.

The package pairs exact branch-and-bound oracles for the triangle hitting
number tau and the triangle packing number nu with constructive certificates
(a verified hitting set H and a verified edge-disjoint packing P with
|H| <= 2|P|), produced by a case analysis on the instance profile
(ell, m, x_ell, x_m).
"""

from .casesearch import (
    BoundStrategy,
    CaseFunctionReport,
    EXPECTED_EXCEPTIONAL,
    audit_inequalities,
    evaluate_case_functions,
    recipe_lower_bound,
    search_exceptional,
)
from .certify import (
    BudgetExhausted,
    Certificate,
    CertificationFailure,
    PreconditionError,
    build_T1,
    build_T2,
    certify,
    make_certificate,
    swap_sides,
)
from .generators import (
    complete_join,
    disjoint_cliques,
    fuzz_instances,
    random_cochain,
)
from .graphs import (
    CaseProfile,
    CoChainGraph,
    GeneralGraph,
    HittingSet,
    Triangle,
    TrianglePacking,
    build_cochain,
    enumerate_triangles,
    profile,
    verify_hitting,
    verify_packing,
)
from .oracles import ExactResult, exact_nu, exact_tau
from .packings import (
    CliquePackingCount,
    UnsupportedCliqueSize,
    feder_count,
    one_factorization,
    pack_clique,
    pack_side,
)
from .recognition import (
    IncomparableNeighborhoods,
    OddComplementCycle,
    RecognitionFailure,
    RecognizedCoChain,
    recognize_cochain,
)

__all__ = [
    "BoundStrategy",
    "BudgetExhausted",
    "CaseFunctionReport",
    "CaseProfile",
    "Certificate",
    "CertificationFailure",
    "CliquePackingCount",
    "CoChainGraph",
    "EXPECTED_EXCEPTIONAL",
    "ExactResult",
    "GeneralGraph",
    "HittingSet",
    "IncomparableNeighborhoods",
    "OddComplementCycle",
    "PreconditionError",
    "RecognitionFailure",
    "RecognizedCoChain",
    "Triangle",
    "TrianglePacking",
    "UnsupportedCliqueSize",
    "audit_inequalities",
    "build_T1",
    "build_T2",
    "build_cochain",
    "certify",
    "complete_join",
    "disjoint_cliques",
    "enumerate_triangles",
    "evaluate_case_functions",
    "exact_nu",
    "exact_tau",
    "feder_count",
    "fuzz_instances",
    "make_certificate",
    "one_factorization",
    "pack_clique",
    "pack_side",
    "profile",
    "random_cochain",
    "recipe_lower_bound",
    "recognize_cochain",
    "search_exceptional",
    "swap_sides",
    "verify_hitting",
    "verify_packing",
]

__version__ = "0.1.0"
