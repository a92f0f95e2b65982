"""sr-lab: exact Stanley-Reisner computations over prime fields.

Face rings of (relative) simplicial complexes, quotients by random
linear systems of parameters, Koszul/partition/double complexes, and
instance-level checkers for the classical structure theorems (Reisner,
partition of unity, Schenzel, Poincare duality of B, Lefschetz,
Kuhnel bounds).
"""

from .linalg import PrimeField, DEFAULT_PRIME
from .complexes import (
    SimplicialComplex,
    RelativeComplex,
    as_relative,
    betti_numbers,
    builtin_complex,
    euler_characteristic,
    f_h_vectors,
    random_relative_complex,
    relative_cohomology_dims,
    relative_from_json,
    relative_to_json,
)
from .facering import (
    LinearFormSequence,
    GradedQuotientPresentation,
    expected_lsop_length,
    hilbert_certificate,
    hilbert_series_coeffs,
    is_lsop,
    lsop_certificate,
    monomial_basis,
    multiplication_matrix,
    quotient_presentation,
    random_linear_forms,
    sample_lsop,
)
from .koszul import KoszulComplex, depth, is_algebraically_cm, koszul_homology_dims
from .partition import (
    SubdivisionStructure,
    barycentric_subdivision_structure,
    interior_partition_check,
    partition_homology_dims,
    reduced_partition_homology,
    subdivision_partition_check,
    total_complex_homology,
)
from .duality import (
    build_B,
    cone_lemma_check,
    is_poincare_duality_algebra,
    manifold_sanity_check,
    pairing_rank,
    poincare_duality_report,
    socle_dims,
)
from .verdicts import (
    TheoremReport,
    dehn_sommerville_check,
    is_topologically_cm,
    kuhnel_report,
    lefschetz_report,
    partition_of_unity_report,
    reisner_report,
    schenzel_report,
)
from .acceptance import run_all as run_acceptance_suite

__all__ = [
    "PrimeField",
    "DEFAULT_PRIME",
    "SimplicialComplex",
    "RelativeComplex",
    "as_relative",
    "betti_numbers",
    "builtin_complex",
    "euler_characteristic",
    "f_h_vectors",
    "random_relative_complex",
    "relative_cohomology_dims",
    "relative_from_json",
    "relative_to_json",
    "LinearFormSequence",
    "GradedQuotientPresentation",
    "expected_lsop_length",
    "hilbert_certificate",
    "hilbert_series_coeffs",
    "is_lsop",
    "lsop_certificate",
    "monomial_basis",
    "multiplication_matrix",
    "quotient_presentation",
    "random_linear_forms",
    "sample_lsop",
    "KoszulComplex",
    "depth",
    "is_algebraically_cm",
    "koszul_homology_dims",
    "SubdivisionStructure",
    "barycentric_subdivision_structure",
    "interior_partition_check",
    "partition_homology_dims",
    "reduced_partition_homology",
    "subdivision_partition_check",
    "total_complex_homology",
    "build_B",
    "cone_lemma_check",
    "is_poincare_duality_algebra",
    "manifold_sanity_check",
    "pairing_rank",
    "poincare_duality_report",
    "socle_dims",
    "TheoremReport",
    "dehn_sommerville_check",
    "is_topologically_cm",
    "kuhnel_report",
    "lefschetz_report",
    "partition_of_unity_report",
    "reisner_report",
    "schenzel_report",
    "run_acceptance_suite",
]

__version__ = "0.1.0"
