"""Self-orthogonality verdicts: the brute-force oracle, the fast algebraic
characterizations, and an audit mode that runs every applicable method and
insists on unanimity.

A bipermutive rule is self-orthogonal when the Latin square of its Cayley
table is orthogonal to its own transpose.  For linear rules this reduces to
gcd computations with X^n - 1 (n = 2(d-1)); over characteristic 2 the modulus
shrinks to X^(d-1) + 1, irreducibility of the associated polynomial is a
sufficient condition, and for d - 1 a power of two the whole question is the
parity of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .polynomials import Poly, gcd, is_irreducible
from .rules import LinearRule, LocalRule
from .matrices import circulant_of_stacked, pbca_transition_matrix, stacked_matrix, x_pow_minus_one
from .squares import cayley_table, check_orthogonal, is_latin, require_grid_fits

BRUTEFORCE = "bruteforce"
STACKED_MATRIX = "stacked-matrix"
GCD_GENERAL = "gcd-general"
GCD_BINARY = "gcd-binary"
PARITY = "parity"
IRREDUCIBLE = "irreducible-sufficient"
NOT_BIPERMUTIVE = "rule is not bipermutive; self-orthogonality is undefined"
NOT_LATIN = "bipermutive rule produced a non-Latin Cayley table"
SHORT_DIAMETER = "bipermutive rules need diameter >= 2"


class AuditError(RuntimeError):
    """Two verdict methods disagreed: an implementation bug, not bad input."""


@dataclass(frozen=True)
class SocaVerdict:
    """Outcome of one self-orthogonality check.

    ``certificate`` explains a negative verdict: the offending gcd for the
    algebraic methods, or a pair of grid cells carrying the same symbol pair
    for the brute-force one.  ``log`` is filled by audit runs.
    """

    verdict: bool
    method: str
    certificate: object = None
    log: tuple = ()

    def as_dict(self) -> dict:
        cert = self.certificate
        if isinstance(cert, Poly):
            cert = str(cert)
        elif cert is not None:
            cert = [list(cell) for cell in cert]
        out = {"verdict": self.verdict, "method": self.method, "certificate": cert}
        if self.log:
            out["log"] = [v.as_dict() for v in self.log]
        return out


def _require_bipermutive(rule) -> None:
    ok = rule.is_bipermutive if isinstance(rule, LinearRule) else rule.is_bipermutive()
    if not ok:
        raise ValueError(NOT_BIPERMUTIVE)


def _require_char2(lr: LinearRule, what: str) -> None:
    if lr.field.p != 2:
        raise ValueError(f"{what} needs a field of characteristic 2")


def soca_bruteforce(rule: LocalRule, encoding=None) -> SocaVerdict:
    """Construct the Cayley table and superpose it on its transpose."""
    _require_bipermutive(rule)
    square = cayley_table(rule, encoding)
    if not is_latin(square):
        raise AuditError(NOT_LATIN)
    ok, cells = check_orthogonal(square, square.transpose())
    return SocaVerdict(ok, BRUTEFORCE, certificate=cells)


def _gcd_verdict(lr: LinearRule, modulus: Poly, method: str) -> SocaVerdict:
    g = gcd(lr.polynomial(), modulus)
    if g.degree == 0:
        return SocaVerdict(True, method)
    return SocaVerdict(False, method, certificate=g)


def soca_linear_fast(lr: LinearRule) -> SocaVerdict:
    """gcd(p_f, X^(2(d-1)) - 1) = 1, over any supported field."""
    _require_bipermutive(lr)
    n = 2 * (lr.diameter - 1)
    return _gcd_verdict(lr, x_pow_minus_one(lr.field, n), GCD_GENERAL)


def soca_binary_fast(lr: LinearRule) -> SocaVerdict:
    """gcd(p_f, X^(d-1) + 1) = 1; characteristic 2, where X^n - 1 is the
    square of X^(d-1) + 1."""
    _require_char2(lr, "the halved-modulus check")
    _require_bipermutive(lr)
    return _gcd_verdict(lr, x_pow_minus_one(lr.field, lr.diameter - 1), GCD_BINARY)


def soca_parity(lr: LinearRule) -> SocaVerdict:
    """p_f(1) != 0; valid in characteristic 2 when d - 1 is a power of two,
    where X^(d-1) + 1 = (X + 1)^(d-1).  Over GF(2) this is the parity of the
    coefficients."""
    _require_char2(lr, "the parity check")
    if (lr.diameter - 1).bit_count() != 1:
        raise ValueError(f"the parity check needs d - 1 a power of two, got d = {lr.diameter}")
    _require_bipermutive(lr)
    if lr.polynomial()(1) != 0:
        return SocaVerdict(True, PARITY)
    return SocaVerdict(False, PARITY, certificate=Poly(lr.field, (1, 1)))


def irreducible_implies_soca(lr: LinearRule):
    """Positive verdict when p_f is irreducible; None otherwise.

    Irreducibility is sufficient but not necessary, so a reducible
    polynomial yields no verdict at all.
    """
    _require_char2(lr, "the irreducibility condition")
    if lr.diameter <= 2:
        raise ValueError("the irreducibility condition needs diameter > 2")
    _require_bipermutive(lr)
    if is_irreducible(lr.polynomial()):
        return SocaVerdict(True, IRREDUCIBLE)
    return None


def soca_stacked_matrix(lr: LinearRule) -> SocaVerdict:
    """Gaussian elimination on the stacked transition matrix."""
    _require_bipermutive(lr)
    if stacked_matrix(lr).is_invertible():
        return SocaVerdict(True, STACKED_MATRIX)
    g = gcd(circulant_of_stacked(lr).poly(), x_pow_minus_one(lr.field, 2 * (lr.diameter - 1)))
    return SocaVerdict(False, STACKED_MATRIX, certificate=g)


def pbca_invertible(lr: LinearRule, n: int) -> bool:
    """Invertibility of the rule's n-cell periodic-boundary global map: its
    transition matrix is the circulant with first row (a_1..a_d, 0..0)."""
    return pbca_transition_matrix(lr, n).is_invertible()


def oca_pair_check(lr1: LinearRule, lr2: LinearRule, mode: str = "fast") -> bool:
    """Orthogonality of the Latin squares of two linear bipermutive rules:
    coprime associated polynomials (fast) or superposing the two Cayley
    tables (bruteforce)."""
    if lr1.field != lr2.field:
        raise ValueError("rules live in different fields")
    if lr1.diameter != lr2.diameter:
        raise ValueError(f"diameters differ: {lr1.diameter} vs {lr2.diameter}")
    _require_bipermutive(lr1)
    _require_bipermutive(lr2)
    if mode == "fast":
        return gcd(lr1.polynomial(), lr2.polynomial()).degree == 0
    if mode == "bruteforce":
        require_grid_fits(lr1.field, lr1.diameter)
        return check_orthogonal(cayley_table(lr1.to_rule()), cayley_table(lr2.to_rule()))[0]
    raise ValueError(f"unknown mode {mode!r}")


def _char2(lr) -> bool:
    return lr is not None and lr.field.p == 2


# name -> (applies(linear part, None for a nonlinear rule), method), in the
# order audit runs them.  Only brute force reads a table; the rest read coefficients.
METHODS = {
    BRUTEFORCE: (lambda lr: True, soca_bruteforce),
    STACKED_MATRIX: (lambda lr: lr is not None, soca_stacked_matrix),
    GCD_GENERAL: (lambda lr: lr is not None, soca_linear_fast),
    GCD_BINARY: (_char2, soca_binary_fast),
    PARITY: (lambda lr: _char2(lr) and (lr.diameter - 1).bit_count() == 1, soca_parity),
    IRREDUCIBLE: (lambda lr: _char2(lr) and lr.diameter > 2, irreducible_implies_soca),
}
# irreducible-sufficient can return no verdict, so only audit runs it.
CHECK_METHODS = tuple(name for name in METHODS if name != IRREDUCIBLE)
# auto takes the first that applies: the halved modulus in characteristic 2.
AUTO = (GCD_BINARY, GCD_GENERAL, BRUTEFORCE)


def _run(name: str, rule, lr):
    if rule.diameter < 2:  # every verdict and audit passes here, whatever the method
        raise ValueError(SHORT_DIAMETER)
    if name == BRUTEFORCE:
        require_grid_fits(rule.field, rule.diameter)
    return METHODS[name][1](rule.to_rule() if name == BRUTEFORCE else lr)


def soca_verdict(rule, method: str = "auto") -> SocaVerdict:
    """Verdict of ``auto`` or one of CHECK_METHODS on a LocalRule or a
    LinearRule; a LinearRule's table is built only for brute force.  Only
    ``auto`` and the coefficient methods classify the rule: brute force reads
    the table alone."""
    if method == BRUTEFORCE:
        return _run(method, rule, None)
    lr = rule.as_linear()
    if method == "auto":
        method = next(name for name in AUTO if METHODS[name][0](lr))
    if lr is None and method != BRUTEFORCE:
        raise ValueError(f"method {method} applies to linear rules only")
    return _run(method, rule, lr)


def audit(rule) -> SocaVerdict:
    """Run every applicable method and demand one unanimous answer.

    Brute force always runs, on a LocalRule or a LinearRule's table.  When the
    rule is affine, the algebraic methods run on its linear part: adding a
    constant to every output only relabels the square's symbols, which cannot
    change self-orthogonality.
    """
    affine = rule.as_affine()
    lr = affine[0] if affine else None
    verdicts = [_run(name, rule, lr) for name, (applies, _) in METHODS.items() if applies(lr)]
    verdicts = [v for v in verdicts if v is not None]
    if len({v.verdict for v in verdicts}) > 1:
        detail = ", ".join(f"{v.method}={v.verdict}" for v in verdicts)
        raise AuditError(f"methods disagree: {detail}")
    return replace(verdicts[0], log=tuple(verdicts))
