"""Decision procedures for canonical-metric existence, plus closed-form
cross-checks for every integral they rely on.

All verdicts are decided on exact rationals and carry their witnesses, so a
report line can be re-verified independently of this code.  Every weight
integral is read from the instance, ``FamilyInstance.moments`` or
``FamilyInstance.integrals``; nothing here integrates, memoizes or
multiplies a weight out.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    ContractError,
    InvalidParameterError,
    NoBracketError,
    NotAmpleError,
    NotAnticanonicalError,
)
from .families import (
    Divisor,
    FamilyInstance,
    FamilyTag,
    _as_divisor,
    anticanonical_divisor,
    blpp_ample,
    blpp_resolve,
    check_params,
    resolve_anticanonical,
)
from .poly import AffineForm, FactoredWeight, RationalLike, _times


# ---------------------------------------------------------------------------
# Kähler-Einstein classification
# ---------------------------------------------------------------------------


class KEStatus(enum.Enum):
    KAHLER_EINSTEIN = "kahler-einstein"
    NOT_K_SEMISTABLE = "not-k-semistable"
    BOUNDARY = "boundary"


class KEVerdict(NamedTuple):
    """Verdict with its witness: the weight mass and barycenter of the
    domain, and the offset ``xi`` of the barycenter from the target."""

    status: KEStatus
    xi: tuple[Fraction, ...]
    mass: Fraction
    barycenter: tuple[Fraction, ...]


def classify_offset(xi: Sequence[Fraction], strict_axes: Sequence[int]) -> KEStatus:
    """Classify a barycenter offset against the required cone.

    Axes listed in ``strict_axes`` must be strictly positive; every other
    axis must vanish exactly.  A strict axis that is exactly zero (with
    nothing negative and all equality axes clean) is the undecided boundary
    case, reported as such rather than overclaimed either way.
    """
    strict = set(strict_axes)
    for i, value in enumerate(xi):
        if i not in strict and value != 0:
            return KEStatus.NOT_K_SEMISTABLE
    if any(xi[i] < 0 for i in strict):
        return KEStatus.NOT_K_SEMISTABLE
    if all(xi[i] > 0 for i in strict):
        return KEStatus.KAHLER_EINSTEIN
    return KEStatus.BOUNDARY


def _check_anticanonical(inst: FamilyInstance) -> None:
    """The criteria hold for the anticanonical class of a member only."""
    if not inst.ample:
        raise NotAmpleError(f"{inst.tag.value}{inst.dims}: divisor is not ample")
    if inst.divisor != anticanonical_divisor(inst.tag, *inst.dims):
        raise NotAnticanonicalError(
            f"{inst.tag.value}{inst.dims}: the criteria need the anticanonical divisor"
        )


def ke_classify(inst: FamilyInstance) -> KEVerdict:
    """Kähler-Einstein / K-semistability verdict for an anticanonical instance."""
    _check_anticanonical(inst)
    mass, bary = inst.moments
    xi = tuple(b - t for b, t in zip(bary, inst.target))
    return KEVerdict(classify_offset(xi, inst.strict_axes), xi, mass, bary)


# ---------------------------------------------------------------------------
# Blown-up projective space: closed form of the stability moment
# ---------------------------------------------------------------------------


def blpp_moment_closed(n: int, p: int) -> Fraction:
    """Closed form of blpp's ``mass * xi[0]`` from the explicit antiderivative."""
    check_params(FamilyTag.BLPP, n, p)
    q = n - p
    return Fraction(-((p - 1) ** p * (q + 1) ** q - (p + 1) ** p * (q - 1) ** q), n)


# ---------------------------------------------------------------------------
# Blown-up quadric (codimension >= 3 center): closed forms of the moments
# ---------------------------------------------------------------------------


def blqq_x_moment_closed(k: int, l: int) -> Fraction:
    """Closed form of ``mass * xi[0]`` of blqq n = k+l+2, p = k+1, by a beta expansion.

    Summand j carries the factor (j(1-k) + 1), so for k >= 3 every summand
    past the first is negative; that structure drives the instability half
    of the classification.
    """
    if k < 2 or l < 2:
        raise InvalidParameterError(f"need k, l >= 2, got k={k}, l={l}")
    total = Fraction(0)
    for j in range(l + 1):
        total += (
            math.comb(l, j)
            * Fraction(l ** (l - j), k ** (l - j + 1))
            * Fraction(math.factorial(k - 1) * math.factorial(j), math.factorial(k + j + 1))
            * (j * (1 - k) + 1)
        )
    return Fraction(k ** (k + l + 1), l) * total


def blqq_x_moment_closed_k2(l: int) -> Fraction:
    """Closed form of ``mass * xi[0]`` at k = 2 from the direct antiderivative."""
    if l < 2:
        raise InvalidParameterError(f"need l >= 2, got l={l}")
    return Fraction((l + 2) ** (l + 2) - (7 * l + 12) * l ** (l + 1), l * (l + 2) * (l + 3))


def blqq_y_moment_closed_k2(l: int) -> Fraction:
    """Closed form of ``mass * xi[1]`` at k = 2 from the direct antiderivative."""
    if l < 2:
        raise InvalidParameterError(f"need l >= 2, got l={l}")
    return Fraction(
        3 * (l + 2) ** (l + 2) + l ** (l + 1) * (4 * l * l - l - 12),
        l * (l + 1) * (l + 2) * (l + 3),
    )


# ---------------------------------------------------------------------------
# Quadric blow-ups: closed forms for the barycenter tests
# ---------------------------------------------------------------------------


def quad_e_x_barycenter_closed(n: int) -> Fraction:
    """Closed form of ``barycenter[0]`` of the anticanonical quade verdict."""
    check_params(FamilyTag.QUAD_E, n)
    return Fraction(2 * (n - 3) ** 2 * (n - 2), (n - 1) * (2 * n - 5))


def quad_pt_margin_closed(n: int) -> int:
    """Integer closed form of the quadpt margin: the second y-moment of the
    weight minus (n-2) times the first, as ``mabuchi`` integrates them.

    Exactly (n-3)(n-1)n times the exact margin; only the shared sign
    matters to the verdict.
    """
    check_params(FamilyTag.QUAD_PT, n)
    return 4 * (n - 2) ** (n - 1) - (n - 3) ** (n - 2) * (2 * n * n + n - 9)


# ---------------------------------------------------------------------------
# Mabuchi test
# ---------------------------------------------------------------------------


class MabuchiStatus(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not-exists"
    INCONCLUSIVE = "inconclusive"


class MabuchiVerdict(NamedTuple):
    status: MabuchiStatus
    ratio: Fraction | None
    detail: tuple[tuple[str, Fraction], ...]


def mabuchi(inst: FamilyInstance) -> MabuchiVerdict:
    """Mabuchi-metric test along the one center (non-strict) axis a.

    With u = x_a - target_a, no Mabuchi metric exists iff the ratio of the
    second to the first u-moment of the weight lies in the domain's extent
    along a, measured from the target ([-1, 1] for blpp, [-1, n-2] for
    quadpt).  Otherwise one exists if there are no strict axes; with strict
    axes this one condition does not decide, and the verdict is
    inconclusive.  A zero first moment gives no ratio and that same verdict.
    """
    _check_anticanonical(inst)
    center = [a for a in range(len(inst.target)) if a not in inst.strict_axes]
    if len(center) != 1:
        raise InvalidParameterError(
            f"{inst.tag.value}{inst.dims}: the Mabuchi test needs exactly one center axis"
        )
    (axis,) = center
    u = AffineForm.of(0, *(int(i == axis) for i in range(len(inst.target))))
    first, second = inst.integrals([((u, 1),), ((u, 2),)])
    detail = (("first_moment", first), ("second_moment", second))
    outside = MabuchiStatus.INCONCLUSIVE if inst.strict_axes else MabuchiStatus.EXISTS
    if first == 0:
        return MabuchiVerdict(outside, None, detail)
    ratio = second / first
    ends = [v[axis] - inst.target[axis] for v in inst.domain.vertices]
    if min(ends) <= ratio <= max(ends):
        return MabuchiVerdict(MabuchiStatus.NOT_EXISTS, ratio, detail)
    return MabuchiVerdict(outside, ratio, detail)


# ---------------------------------------------------------------------------
# Multiplier-Hermitian certificate
# ---------------------------------------------------------------------------


class MHCertificate(NamedTuple):
    """Witness that a concave log-polynomial multiplier exists.

    ``weight_of_h`` is the reflected weight, in u = t - target, whose
    logarithm is the concave function; its affine factors are strictly
    positive on [-1, 1] (minima recorded in ``concavity_witness``), and the
    twisted first moment vanishes exactly.
    """

    weight_of_h: FactoredWeight
    moment_integral: Fraction
    concavity_witness: tuple[Fraction, ...]


def mh_certificate(n: int, p: int) -> MHCertificate:
    """Produce the reflection certificate for the blpp family.

    In u = t - target the weight w(u) = (p - u)^(p-1) (q + u)^(q-1) has
    strictly positive affine factors on [-1, 1]; taking the multiplier to be
    w(-u) makes u * w(-u) * w(u) odd, so the twisted moment vanishes
    identically and the logarithm of w(-u) is smooth and concave (a sum of
    logarithms of positive affine forms).  w(-u) is read off the instance
    weight: each factor a + b*t becomes (a + b*target) - b*u.
    """
    inst = resolve_anticanonical(FamilyTag.BLPP, n, p)
    (target,) = inst.target
    reflected = FactoredWeight.of(1, [(AffineForm.of(form.evaluate(inst.target), -slope), mult)
                                      for form, mult in inst.weight.factors for slope in form.linear])
    minima = reflected.factor_minima([(t - target,) for (t,) in inst.domain.vertices])
    if any(m <= 0 for m in minima):
        raise ContractError(f"multiplier factor not positive on [-1, 1] for n={n}, p={p}")
    (moment,) = inst.integrals([((AffineForm.of(0, 1), 1),) + reflected.factors])
    if moment != 0:
        raise ContractError(f"multiplier moment must vanish, got {moment} for n={n}, p={p}")
    return MHCertificate(reflected, moment, minima)


# ---------------------------------------------------------------------------
# Coupled Kähler-Einstein residual and bracketing search
# ---------------------------------------------------------------------------


class CoupledCertificate(NamedTuple):
    """Exact sign-change bracket for the coupled residual along a segment."""

    params_lo: Divisor
    params_hi: Divisor
    residual_lo: Fraction
    residual_hi: Fraction
    midpoint: Divisor
    residual_at_midpoint: Fraction
    width: Fraction


def _check_coupled_k(k: int) -> None:
    if k < 2:
        raise InvalidParameterError(f"need k >= 2, got k={k}")


def _coupled_anticanonical(k: int) -> Divisor:
    """The anticanonical class of the coupled member, n = 2k+1 and p = k."""
    _check_coupled_k(k)
    return anticanonical_divisor(FamilyTag.BLPP, 2 * k + 1, k)


def coupled_complement(k: int, divisor: Sequence[RationalLike]) -> Divisor:
    """The divisor completing the given one to the anticanonical class."""
    return tuple(a - v for a, v in zip(_coupled_anticanonical(k), _as_divisor(divisor, 3, "blpp")))


def coupled_pair_ample(k: int, divisor: Sequence[RationalLike]) -> bool:
    """True iff the divisor and its anticanonical complement are both ample."""
    _check_coupled_k(k)
    return blpp_ample(divisor) and blpp_ample(coupled_complement(k, divisor))


def coupled_residual(k: int, divisor: Sequence[RationalLike]) -> Fraction:
    """Barycenter residual of an anticanonical decomposition.

    For the odd-dimensional family member (dims n = 2k+1, p = k), the sum
    of the two weight barycenters of a divisor and its complement must equal
    the target, 1/2 for every class, for a coupled pair to exist; this
    returns the exact excess.  It is the direct reference for the residual
    that ``coupled_search`` builds once along its segment.  Both members go
    through the memo of ``resolve``, so a class that a search built at an
    end is not built again.
    """
    _check_coupled_k(k)
    n, p = 2 * k + 1, k
    first = blpp_resolve(n, p, divisor)
    second = blpp_resolve(n, p, coupled_complement(k, divisor))
    return first.moments[1][0] + second.moments[1][0] - first.target[0]


def coupled_default_endpoints(k: int) -> tuple[Divisor, Divisor]:
    """Default search segment: the self-complementary half of the
    anticanonical class, and the far ample corner used to force a negative
    residual."""
    start = tuple(a / 2 for a in _coupled_anticanonical(k))
    end = (Fraction(k - 2), Fraction(1, 2), Fraction(0))
    return start, end


def coupled_negative_threshold(max_k: int = 40) -> int:
    """Smallest k whose default far endpoint has a strictly negative
    residual, discovered by exact sweep."""
    for k in range(3, max_k + 1):
        _, end = coupled_default_endpoints(k)
        if coupled_pair_ample(k, end) and coupled_residual(k, end) < 0:
            return k
    raise ContractError(f"no negative residual endpoint found for k <= {max_k}")


def _coupled_residual_along(k: int, start: Divisor, end: Divisor) -> tuple[list[int], list[int]]:
    """Integer polynomials N and D in s, of one length, with N(s)/D(s) the
    coupled residual at start + s (end - start), D(s) > 0, both ends ample."""
    members = []
    for a, b in ((start, end), (coupled_complement(k, start), coupled_complement(k, end))):
        first = blpp_resolve(2 * k + 1, k, a)
        (mass, mass_den), (moment, moment_den) = first.moments_along(blpp_resolve(2 * k + 1, k, b))
        members.append(([c * mass_den for c in moment], [c * moment_den for c in mass]))
        (target,) = first.target
    (xa, ya), (xb, yb) = members
    cross = [p + q for p, q in zip(_times(xa, yb), _times(xb, ya))]
    masses = _times(ya, yb)
    num = [target.denominator * c - target.numerator * m for c, m in zip(cross, masses + [0])]
    return num, [target.denominator * m for m in masses + [0]]


def _homogeneous(coeffs: Sequence[int], s: Fraction) -> int:
    """q^deg P(a/q) for s = a/q and P of these coefficients, constant first."""
    value, q_pow = 0, 1
    for c in reversed(coeffs):
        value = value * s.numerator + c * q_pow
        q_pow *= s.denominator
    return value


_MID_OFFSETS = (Fraction(1, 2), Fraction(5, 8), Fraction(3, 8), Fraction(9, 16), Fraction(7, 16))


def coupled_search(
    k: int,
    start: Sequence[RationalLike],
    end: Sequence[RationalLike],
    max_bisections: int,
) -> CoupledCertificate:
    """Bisect the residual sign change along the segment start -> end.

    Requires strictly opposite residual signs at the endpoints and an
    ample pair at both (the ample region is an intersection of open linear
    conditions, hence convex, so the whole segment is then ample and no
    probe checks it again).  Bisection runs until the bracket width, in
    units of the segment parameter, is at most 2^(-max_bisections).

    The residual is built once, as N(s)/D(s) from the four members at the
    two ends; since D(s) > 0 on the ample segment, a probe reads only the
    sign of N(s), in ints, and only the three reported residuals are
    Fractions.
    """
    _check_coupled_k(k)
    if max_bisections < 0:
        raise InvalidParameterError("max_bisections must be nonnegative")
    start_d, end_d = _as_divisor(start, 3, "blpp"), _as_divisor(end, 3, "blpp")

    def params_at(s: Fraction) -> Divisor:
        return tuple(a + s * (b - a) for a, b in zip(start_d, end_d))

    lo, hi = Fraction(0), Fraction(1)
    for s in (lo, hi):  # before any member is built: a class off the region may have no domain
        if not coupled_pair_ample(k, params_at(s)):
            raise ContractError(f"segment leaves the ample region at parameter {s}")
    num, den = _coupled_residual_along(k, start_d, end_d)

    def residual_at(s: Fraction) -> tuple[int, int]:
        return _homogeneous(num, s), _homogeneous(den, s)

    def sign_at(s: Fraction) -> int:
        value = _homogeneous(num, s)
        return (value > 0) - (value < 0)

    sign_lo, sign_hi = sign_at(lo), sign_at(hi)
    if sign_lo * sign_hi >= 0:
        raise NoBracketError(f"endpoint residuals {Fraction(*residual_at(lo))} and "
                             f"{Fraction(*residual_at(hi))} do not have strictly opposite signs")
    tolerance = Fraction(1, 2 ** max_bisections)
    while hi - lo > tolerance:
        for offset in _MID_OFFSETS:
            mid = lo + (hi - lo) * offset
            sign_mid = sign_at(mid)
            if sign_mid:
                break
        else:
            raise ContractError("residual vanished at every probed split point")
        if sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    r_lo, r_hi = Fraction(*residual_at(lo)), Fraction(*residual_at(hi))
    if (r_lo > 0) == (r_hi > 0):
        raise ContractError("bisection lost the sign change")
    mid = (lo + hi) / 2
    return CoupledCertificate(params_at(lo), params_at(hi), r_lo, r_hi,
                              params_at(mid), Fraction(*residual_at(mid)), hi - lo)
