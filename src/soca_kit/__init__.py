"""Latin squares from bipermutive cellular automata over finite fields.

Construction of Cayley tables, self-orthogonality verdicts (brute force and
polynomial-gcd characterizations), circulant/stacked-matrix machinery, and
exhaustive rule-space scans, with a CLI front end (``soca-kit``).
"""

from .fields import Field, GF2, GF3, parse_field
from .polynomials import Poly, gcd, is_irreducible, irreducibles_of_degree, parse_poly
from .rules import Anf, LinearRule, LocalRule
from .squares import (
    EncodingMap,
    LatinSquare,
    are_orthogonal,
    cayley_table,
    check_orthogonal,
    is_latin,
    is_self_orthogonal,
)
from .matrices import (
    Circulant,
    Matrix,
    circulant_of_stacked,
    mat_mul,
    pbca_transition_matrix,
    stacked_matrix,
    swap_permutation_matrix,
    sylvester_resultant,
    transition_matrix,
    transpose_ca_matrix,
    x_pow_minus_one,
)
from .checkers import (
    AuditError,
    SocaVerdict,
    audit,
    irreducible_implies_soca,
    oca_pair_check,
    pbca_invertible,
    soca_binary_fast,
    soca_bruteforce,
    soca_linear_fast,
    soca_parity,
    soca_stacked_matrix,
    soca_verdict,
)
from .search import (
    LinearCountReport,
    ScaleGuardError,
    ScanReport,
    count_linear_soca,
    enumerate_bipermutive,
    find_nonlinear_soca,
    rule_space_size,
    scan_soca,
)

__version__ = "0.1.0"

__all__ = [
    "Anf",
    "AuditError",
    "Circulant",
    "EncodingMap",
    "Field",
    "GF2",
    "GF3",
    "LatinSquare",
    "LinearCountReport",
    "LinearRule",
    "LocalRule",
    "Matrix",
    "Poly",
    "ScaleGuardError",
    "ScanReport",
    "SocaVerdict",
    "are_orthogonal",
    "audit",
    "cayley_table",
    "check_orthogonal",
    "circulant_of_stacked",
    "count_linear_soca",
    "enumerate_bipermutive",
    "find_nonlinear_soca",
    "gcd",
    "irreducible_implies_soca",
    "irreducibles_of_degree",
    "is_irreducible",
    "is_latin",
    "is_self_orthogonal",
    "mat_mul",
    "oca_pair_check",
    "parse_field",
    "parse_poly",
    "pbca_invertible",
    "pbca_transition_matrix",
    "rule_space_size",
    "scan_soca",
    "soca_binary_fast",
    "soca_bruteforce",
    "soca_linear_fast",
    "soca_parity",
    "soca_stacked_matrix",
    "soca_verdict",
    "stacked_matrix",
    "swap_permutation_matrix",
    "sylvester_resultant",
    "transition_matrix",
    "transpose_ca_matrix",
    "x_pow_minus_one",
]
