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
kept exact as Fractions; ``derive_diameter_bound()`` is the Fraction 10/13,
1/sqrt(2 - 31/100).  ``PI_UPPER`` is the one rational bound on pi, proved
from Machin's formula at import; ``ling_case``'s B-1 test and acceptance
criterion 9 read it.  Floats appear in returned report values and in
``ling_case``'s B-2 thresholds, which are rounded from the Fractions once, at
import; its B-1 test compares Fractions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import InapplicableBoundError

LING_RATIO = Fraction(31, 100)          # coefficient of (n-1)K in the Ling-type bound
CASE_FLOOR = Fraction(31, 50)           # every case yields at least this multiple of alpha
A_LARGE = Fraction(153, 200)            # = 0.765, large-asymmetry threshold
A_OVER_DELTA = Fraction(153, 100)       # = 1.53, asymmetry/delta threshold
DRIFT_EIGEN_MULTIPLE = Fraction(2)      # soliton potential eigenvalue, lambda = 2 gamma


def _machin_bound() -> Fraction:
    """A rational P > pi from Machin's formula pi = 16 atan(1/5) - 4 atan(1/239),
    rounded up at 35 decimals.

    For 0 < x < 1 the series atan(x) = x - x^3/3 + x^5/5 - ... alternates with
    shrinking terms, so a partial sum that ends on a positive term lies above
    atan(x) and one that ends on a negative term below it: 27 terms bound
    atan(1/5) from above and 8 bound atan(1/239) from below.  The combination
    exceeds pi by under 1e-38; rounded up, it is pi rounded up at 35
    decimals, 5.8e-36 above pi.
    """

    def atan(x: Fraction, terms: int) -> Fraction:
        return sum(Fraction((-1) ** k, 2 * k + 1) * x ** (2 * k + 1) for k in range(terms))

    upper = 16 * atan(Fraction(1, 5), 27) - 4 * atan(Fraction(1, 239), 8)
    return Fraction(math.ceil(upper * 10**35), 10**35)


PI_UPPER = _machin_bound()  # 3.14159265358979323846264338327950289

# ling_case's other thresholds as floats, rounded once from the Fractions above
_PI_SQ = math.pi**2
_A_LARGE = float(A_LARGE)
_A_OVER_DELTA = float(A_OVER_DELTA)
_CASE_FLOOR = float(CASE_FLOOR)


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

    delta must be a normal float: for a subnormal one, 1.53 delta can round
    down to 1.5 delta and B-2-b1 would return mu = 0.6 < 31/50.

    B-1's test a >= PI_UPPER^2 delta / 4 is exact, in Fractions, so a B-1
    point meets the mu = 1 barrier's hypothesis a >= pi^2 delta / 4; the
    float fl(pi^2) delta / 4 lies below it at 30 of the 50 values
    delta = j/100.  PI_UPPER exceeds pi by under 1e-35, far inside one float
    spacing, so B-2's mu = 4a/(pi^2 delta) stays at most 1 up to rounding.
    """
    if not (0.0 <= a < 1.0):
        raise InapplicableBoundError(f"asymmetry constant a={a!r} must lie in [0, 1)")
    if not (sys.float_info.min <= delta <= 0.5):
        raise InapplicableBoundError(f"delta={delta!r} must be a normal float in (0, 1/2]")
    if a == 0.0:
        return LingCase(label="A", mu=1.0, alpha_multiple=1.0)
    if 4 * Fraction(a) >= PI_UPPER**2 * Fraction(delta):
        return LingCase(label="B-1", mu=1.0, alpha_multiple=1.0)
    mu = 4.0 * a / (_PI_SQ * delta)
    if a >= _A_LARGE:
        return LingCase(label="B-2-a", mu=mu, alpha_multiple=8.0 * a / _PI_SQ)
    if a >= _A_OVER_DELTA * delta:
        return LingCase(label="B-2-b1", mu=mu, alpha_multiple=mu)
    return LingCase(label="B-2-b2", mu=None, alpha_multiple=_CASE_FLOOR)


def myers_upper(n: int, gamma: float) -> float:
    """Myers diameter upper bound pi sqrt((n-1)/gamma) for Ric >= gamma g."""
    if gamma <= 0.0:
        raise InapplicableBoundError("Myers' bound needs gamma > 0")
    return math.pi * math.sqrt((n - 1) / gamma)


def derive_diameter_bound() -> Fraction:
    """The diameter constant 10/13, exactly.

    With the potential eigenvalue lambda = 2 gamma fed into the Ling-type
    bound, 2 gamma >= pi^2/d^2 + (31/100) gamma, so
    (169/100) gamma >= pi^2/d^2 and d >= (10/13) pi / sqrt(gamma).
    Everything is rational until ``soliton_diameter_lower`` multiplies by pi.
    """
    return 1 / _sqrt_exact(DRIFT_EIGEN_MULTIPLE - LING_RATIO)


def soliton_diameter_lower(gamma: float) -> float:
    """Universal diameter lower bound 10 pi / (13 sqrt(gamma)) for nontrivial
    compact gradient shrinking solitons."""
    if gamma <= 0.0:
        raise InapplicableBoundError("shrinking solitons have gamma > 0")
    ratio = derive_diameter_bound()
    return ratio.numerator * math.pi / (ratio.denominator * math.sqrt(gamma))


@dataclass(frozen=True)
class BoundReport:
    """The bounds that the bounds check records for one instance.

    ``case_bound`` is pi^2/d^2 + (case constant) alpha, or None when the case
    of the eigenfunction is unknown.
    """

    lichnerowicz: float
    ling: float
    case_bound: float | None = None


def build_bound_report(n: int, K: float, d: float, case: LingCase | None = None) -> BoundReport:
    """The Lichnerowicz and Ling bounds and, given the case, the case bound."""
    # these raise on n < 2, K <= 0 or d <= 0, before pi^2/d^2 is formed
    lichnerowicz, ling = lichnerowicz_be(n, K), ling_be_bound(n, K, d)
    case_bound = None
    if case is not None:
        case_bound = math.pi**2 / d**2 + case.alpha_multiple * (0.5 * (n - 1) * K)
    return BoundReport(lichnerowicz, ling, case_bound)
