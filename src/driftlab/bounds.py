"""Closed-form eigenvalue and diameter bounds, with exact rational constants.

For an n-dimensional compact weighted manifold with Ric_phi >= (n-1) K g,
K > 0, the first non-zero drift-Laplacian eigenvalue lambda satisfies

    lambda >= (n-1) K                                   (Lichnerowicz type)
    lambda >= pi^2/d^2 + (31/100) (n-1) K               (Ling type, any n >= 2)

and, with the asymmetry constant a of the normalized eigenfunction and
delta = alpha/lambda, alpha = (n-1)K/2, the sharper barrier results

    a = 0:                    lambda >= pi^2/d^2 + alpha
    a > 0, mu delta <= 4a/pi^2: lambda >= pi^2/d^2 + mu alpha,  mu in (0, 1].

The Ling-type constant arises from a five-way case split on (a, delta); every
branch yields an additive constant of at least (31/50) alpha.  On a gradient
shrinking soliton (Ric - gamma g + Hess f = 0), the potential is itself a
drift eigenfunction with lambda = 2 gamma, and feeding that into the Ling-type
bound gives 2 gamma >= pi^2/d^2 + (31/100) gamma, hence the universal diameter
lower bound d >= 10 pi / (13 sqrt(gamma)); Myers' theorem bounds Einstein
diameters the other way, d <= pi sqrt((n-1)/gamma).

All rational constants (31/100, 31/50, 153/200, 153/100, 169/100, 10/13) are
kept exact as Fractions; floats appear only in returned report values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InapplicableBoundError

LING_RATIO = Fraction(31, 100)          # coefficient of (n-1)K in the Ling-type bound
CASE_FLOOR = Fraction(31, 50)           # every case yields at least this multiple of alpha
A_LARGE = Fraction(153, 200)            # = 0.765, large-asymmetry threshold
A_OVER_DELTA = Fraction(153, 100)       # = 1.53, asymmetry/delta threshold
DRIFT_EIGEN_MULTIPLE = Fraction(2)      # soliton potential eigenvalue, lambda = 2 gamma


def _sqrt_exact(x: Fraction) -> Fraction:
    """Exact square root of a rational, or raise if it is not a perfect square."""
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(rp, rq)


def lichnerowicz_be(n: int, K: float) -> float:
    """Lichnerowicz-type lower bound (n-1) K; requires K > 0."""
    if n < 2:
        raise InapplicableBoundError("the bound needs dimension n >= 2")
    if K <= 0.0:
        raise InapplicableBoundError("the bound needs a positive Ricci lower bound K")
    return (n - 1) * K


def ling_be_bound(n: int, K: float, d: float) -> float:
    """Ling-type lower bound pi^2/d^2 + (31/100)(n-1)K for n >= 2, K > 0, d > 0."""
    if n < 2:
        raise InapplicableBoundError("the bound needs dimension n >= 2")
    if K <= 0.0:
        raise InapplicableBoundError("the bound needs a positive Ricci lower bound K")
    if d <= 0.0:
        raise InapplicableBoundError("the bound needs a positive diameter")
    return math.pi**2 / d**2 + float(LING_RATIO) * (n - 1) * K


@dataclass(frozen=True)
class LingCase:
    """One branch of the case analysis behind the Ling-type constant.

    ``alpha_multiple`` is the additive constant as a multiple of
    alpha = (n-1)K/2; ``mu`` is the barrier parameter used by the branch
    (None for the variant-barrier branch, which takes sigma explicitly).
    """

    label: str
    mu: float | None
    alpha_multiple: float


def ling_case(a: float, delta: float) -> LingCase:
    """Classify (a, delta) into the case split; exactly one branch applies.

    A      : a = 0                                   -> constant alpha
    B-1    : pi^2 delta / 4 <= a                     -> mu = 1, constant alpha
    B-2-a  : 0.765 <= a < pi^2 delta / 4             -> constant (8a/pi^2) alpha,
             combining mu = 4a/(pi^2 delta) with lambda >= 2 alpha
    B-2-b1 : 1.53 delta <= a < 0.765                 -> mu = 4a/(pi^2 delta)
    B-2-b2 : a < 1.53 delta                          -> variant barrier, 31/50 alpha
    """
    if not (0.0 <= a < 1.0):
        raise InapplicableBoundError(f"asymmetry constant a={a!r} must lie in [0, 1)")
    if not (0.0 < delta <= 0.5):
        raise InapplicableBoundError(f"delta={delta!r} must lie in (0, 1/2]")
    if a == 0.0:
        return LingCase(label="A", mu=1.0, alpha_multiple=1.0)
    if a >= math.pi**2 * delta / 4.0:
        return LingCase(label="B-1", mu=1.0, alpha_multiple=1.0)
    mu = 4.0 * a / (math.pi**2 * delta)
    if a >= float(A_LARGE):
        return LingCase(label="B-2-a", mu=mu, alpha_multiple=8.0 * a / math.pi**2)
    if a >= float(A_OVER_DELTA) * delta:
        return LingCase(label="B-2-b1", mu=mu, alpha_multiple=mu)
    return LingCase(label="B-2-b2", mu=None, alpha_multiple=float(CASE_FLOOR))


def myers_upper(n: int, gamma: float) -> float:
    """Myers diameter upper bound pi sqrt((n-1)/gamma) for Ric >= gamma g."""
    if gamma <= 0.0:
        raise InapplicableBoundError("Myers' bound needs gamma > 0")
    return math.pi * math.sqrt((n - 1) / gamma)


@dataclass(frozen=True)
class DiameterBoundDerivation:
    """Exact derivation of the soliton diameter constant 10 pi / 13.

    With the potential eigenvalue lambda = 2 gamma fed into the Ling-type
    bound, 2 gamma >= pi^2/d^2 + (31/100) gamma, so
    (169/100) gamma >= pi^2/d^2 and d >= (10/13) pi / sqrt(gamma).
    Everything is rational until the final multiplication by pi.
    """

    eigen_multiple: Fraction
    ling_ratio: Fraction
    residual: Fraction
    ratio: Fraction

    @property
    def numerator(self) -> int:
        return self.ratio.numerator

    @property
    def denominator(self) -> int:
        return self.ratio.denominator

    def as_pair(self) -> tuple[int, int]:
        return (self.numerator, self.denominator)

    def diameter_lower(self, gamma: float) -> float:
        return self.numerator * math.pi / (self.denominator * math.sqrt(gamma))


def derive_diameter_bound() -> DiameterBoundDerivation:
    """Derive the (numerator, denominator) of the diameter constant exactly."""
    residual = DRIFT_EIGEN_MULTIPLE - LING_RATIO        # 169/100, exact
    ratio = 1 / _sqrt_exact(residual)                   # 10/13, exact
    return DiameterBoundDerivation(
        eigen_multiple=DRIFT_EIGEN_MULTIPLE, ling_ratio=LING_RATIO,
        residual=residual, ratio=ratio,
    )


def soliton_diameter_lower(gamma: float) -> float:
    """Universal diameter lower bound 10 pi / (13 sqrt(gamma)) for nontrivial
    compact gradient shrinking solitons."""
    if gamma <= 0.0:
        raise InapplicableBoundError("shrinking solitons have gamma > 0")
    return derive_diameter_bound().diameter_lower(gamma)


@dataclass(frozen=True)
class BoundReport:
    """The bounds that the bounds check records for one instance.

    ``case_bound`` is pi^2/d^2 + (case constant) alpha; it and ``case`` are
    None when the case of the eigenfunction is unknown.
    """

    lichnerowicz: float
    ling: float
    case: LingCase | None = None
    case_bound: float | None = None


def build_bound_report(n: int, K: float, d: float, case: LingCase | None = None) -> BoundReport:
    """The Lichnerowicz and Ling bounds and, given the case, the case bound."""
    # these raise on n < 2, K <= 0 or d <= 0, before pi^2/d^2 is formed
    lichnerowicz, ling = lichnerowicz_be(n, K), ling_be_bound(n, K, d)
    case_bound = None
    if case is not None:
        case_bound = math.pi**2 / d**2 + case.alpha_multiple * (0.5 * (n - 1) * K)
    return BoundReport(lichnerowicz, ling, case, case_bound)
