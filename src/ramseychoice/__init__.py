"""Exact combinatorics for Ramsey choice implications.

The package decides which implications RC_m => RC_n hold on choice-free
grounds, produces blocking certificates for the rest, and builds the finite
selector models whose automorphisms witness the failures.  Everything runs
on exact integers; there is no randomness and no floating point.
"""

from .decomposition import (
    AdmissibleSumSet,
    Classification,
    Decomposition,
    Reason,
    Verdict,
    admissible_sums,
    allowed_contributions,
    blocks,
    classify,
    classify_detailed,
    find_blocking_decomposition,
    iter_decompositions,
    provable_by_theorem,
    provable_reason,
)
from .certificates import Recipe, RecipeTrace, build_certificate
from .errors import (
    BadSubset,
    BoundExceeded,
    CertificateSearchFailed,
    EmptyResult,
    InvalidPart,
    NotBlocking,
    OracleDisagreement,
    PreconditionViolated,
    RamseyChoiceError,
)
from .numtheory import (
    GOLDBACH_SEARCH_BOUND,
    bertrand_prime,
    goldbach_triples,
    is_prime,
    iter_goldbach_triples,
    prime_factors,
    primes_up_to,
    verify_goldbach,
)
from .rc24 import PairChoice, ScoreProfile, check_equivariance, choose4, score, verify_rc24
from .scan import ScanReport, ScanRow, run_scan
from .selector_models import (
    CyclicAutomorphism,
    SelectorModel,
    build_cyclic_model,
    build_fraisse_stage,
    catalog_models,
    check_one_point_extension,
    empty_model,
    find_embeddings,
    run_fraisse_stages,
    verify_equivariance,
    verify_gcd_claim,
    witness_no_invariant_choice,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSumSet",
    "BadSubset",
    "BoundExceeded",
    "CertificateSearchFailed",
    "Classification",
    "CyclicAutomorphism",
    "Decomposition",
    "EmptyResult",
    "GOLDBACH_SEARCH_BOUND",
    "InvalidPart",
    "NotBlocking",
    "OracleDisagreement",
    "PairChoice",
    "PreconditionViolated",
    "RamseyChoiceError",
    "Reason",
    "Recipe",
    "RecipeTrace",
    "ScanReport",
    "ScanRow",
    "ScoreProfile",
    "SelectorModel",
    "Verdict",
    "admissible_sums",
    "allowed_contributions",
    "bertrand_prime",
    "blocks",
    "build_certificate",
    "build_cyclic_model",
    "build_fraisse_stage",
    "catalog_models",
    "check_equivariance",
    "check_one_point_extension",
    "choose4",
    "classify",
    "classify_detailed",
    "empty_model",
    "find_blocking_decomposition",
    "find_embeddings",
    "goldbach_triples",
    "is_prime",
    "iter_decompositions",
    "iter_goldbach_triples",
    "prime_factors",
    "primes_up_to",
    "provable_by_theorem",
    "provable_reason",
    "run_fraisse_stages",
    "run_scan",
    "score",
    "verify_equivariance",
    "verify_gcd_claim",
    "verify_goldbach",
    "verify_rc24",
    "witness_no_invariant_choice",
]
