"""The five manifold families, stated once as data.

``FAMILY_DATA`` holds one ``FamilyData`` record per ``FamilyTag``.  It is the
only place that states a family's parameter domain (whether it takes p, its
smallest n and its p range), its anticanonical divisor class and, for the
quadric blow-ups, the facet that each exceptional coefficient cuts off the
shared base domain.  ``resolve(tag, n, p, divisor)`` turns a family member and
a divisor class (``None`` for the anticanonical class) into the quintuple the
stability criteria consume: a rational moment domain, a factored integration
weight, a target vector, the axes on which the barycenter must strictly exceed
the target, and an ampleness verdict.

Families and their divisor coordinates:

* ``blpp``   : projective space blown up along two disjoint complementary
  linear subspaces.  Divisor = (c, d_plus, d_minus): coefficient on the
  pair of color divisors and on the two invariant boundary divisors.
  One-dimensional moment domain; 2 <= p <= n-2.
* ``blqq``   : a quadric blown up along a linear subquadric of codimension
  at least three; 3 <= p <= n-3.  Only the anticanonical class is exposed
  (no ampleness inequalities are known to us for general classes here).
* ``quade``, ``quadpt``, ``quadpm`` : a quadric (n >= 5) blown up along the
  codimension-two subquadric, at one point, or at an antipodal point pair.
  Divisor = (c, e...): the boundary-pair coefficient, then one exceptional
  coefficient e per facet a*x + b*y <= e on the shared base
  {x >= 0, |y| <= 2c - x}; the class is ample iff 0 < e < 2c for every e.

Coordinate convention for the two-dimensional families: everything is
stated in doubled lattice coordinates; criteria only consume signs and
memberships, which a positive linear change of coordinates preserves.
Constant prefactors of the weights are dropped for the same reason.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence, Union

from .errors import InvalidParameterError, WeightPositivityError
from .poly import AffineForm, FactoredWeight, RationalLike, _as_fraction, rational_to_str
from .polytope import HalfPlane, Polygon, Segment, polygon_from_halfplanes

Divisor = tuple[Fraction, ...]


class FamilyTag(enum.Enum):
    BLPP = "blpp"
    BLQQ = "blqq"
    QUAD_E = "quade"
    QUAD_PT = "quadpt"
    QUAD_PM = "quadpm"

    @property
    def dimension(self) -> int:
        """Dimension of the moment domain (1 for blpp, 2 otherwise)."""
        return 1 if self is FamilyTag.BLPP else 2

    @property
    def cli_name(self) -> str:
        return self.value

    @property
    def takes_p(self) -> bool:
        return FAMILY_DATA[self].p_margin > 0

    @property
    def min_n(self) -> int:
        return FAMILY_DATA[self].min_n

    def p_values(self, n: int) -> Sequence[int | None]:
        """The valid p at dimension n, or ``(None,)`` for a family without p."""
        margin = FAMILY_DATA[self].p_margin
        return range(margin, n - margin + 1) if margin else (None,)


@dataclass(frozen=True)
class FamilyData:
    """The parameter domain and divisor data of one family.

    ``p_margin`` is 0 for a family without p; otherwise p runs over
    ``p_margin..n-p_margin``.  ``anticanonical(n, p)`` is the divisor of
    the anticanonical class.  ``exceptional_normals`` holds, for a quadric
    blow-up, the normal (a, b) of the facet a*x + b*y <= e that each
    exceptional coefficient e cuts off the base {x >= 0, |y| <= 2c - x}.
    """

    min_n: int
    p_margin: int
    anticanonical: Callable[[int, int | None], Divisor]
    exceptional_normals: tuple[tuple[int, int], ...] = ()


FAMILY_DATA = {
    FamilyTag.BLPP: FamilyData(
        4, 2, lambda n, p: (Fraction(n, 2), p + 1 - Fraction(n, 2), Fraction(n, 2) - p + 1)),
    FamilyTag.BLQQ: FamilyData(6, 3, lambda n, p: (Fraction(n, 2) - 1, Fraction(p - 1))),
    FamilyTag.QUAD_E: FamilyData(
        5, 0, lambda n, p: (Fraction(n, 2) - 1, Fraction(n - 3)), ((1, 0),)),
    FamilyTag.QUAD_PT: FamilyData(
        5, 0, lambda n, p: (Fraction(n, 2) - 1, Fraction(1)), ((0, -1),)),
    FamilyTag.QUAD_PM: FamilyData(
        5, 0, lambda n, p: (Fraction(n, 2) - 1, Fraction(1), Fraction(1)), ((0, -1), (0, 1))),
}


@dataclass(frozen=True)
class FamilyInstance:
    """A family member with its divisor resolved to criterion inputs."""

    tag: FamilyTag
    dims: tuple[int, ...]
    divisor: Divisor
    domain: Union[Segment, Polygon]
    weight: FactoredWeight
    target: tuple[Fraction, ...]
    strict_axes: tuple[int, ...]
    ample: bool


def check_params(tag: FamilyTag, n: int, p: int | None = None) -> None:
    """Raise InvalidParameterError unless (n, p) names a member of the family."""
    if not tag.takes_p and p is not None:
        raise InvalidParameterError(f"{tag.value} takes no p, got p={p}")
    if tag.takes_p and p not in tag.p_values(n):
        margin = FAMILY_DATA[tag].p_margin
        raise InvalidParameterError(
            f"{tag.value} requires {margin} <= p <= n-{margin}, got n={n}, p={p}"
        )
    if n < tag.min_n:
        raise InvalidParameterError(f"{tag.value} requires n >= {tag.min_n}, got n={n}")


def anticanonical_divisor(tag: FamilyTag, n: int, p: int | None = None) -> Divisor:
    """Divisor coefficients of the anticanonical class of a family member."""
    check_params(tag, n, p)
    return FAMILY_DATA[tag].anticanonical(n, p)


def _as_divisor(values: Sequence[RationalLike], arity: int, family: str) -> Divisor:
    if len(values) != arity:
        raise InvalidParameterError(
            f"{family} divisors take {arity} coefficients, got {len(values)}"
        )
    return tuple(_as_fraction(v) for v in values)


def _check_weight_positive(weight: FactoredWeight, vertices: Sequence[Sequence[RationalLike]]) -> None:
    """Require every affine factor to be nonnegative on the domain and not
    identically zero on it; this makes the weight positive on the interior."""
    for form, mult in weight.factors:
        if mult == 0:
            continue
        values = [form.evaluate(v) for v in vertices]
        if min(values) < 0 or max(values) <= 0:
            raise WeightPositivityError(
                f"weight factor {form} is not positive on the domain interior"
            )


def resolve(
    tag: FamilyTag, n: int, p: int | None = None, divisor: Sequence[RationalLike] | None = None
) -> FamilyInstance:
    """Resolve a family member and divisor class into criterion inputs.

    ``divisor=None`` means the anticanonical class; blqq accepts no other.
    Results are memoized per process by value: the arguments are validated
    and the divisor normalized to a tuple of Fractions first, so equal
    classes share one instance, and an invalid argument raises on every call.
    """
    check_params(tag, n, p)
    anticanonical = FAMILY_DATA[tag].anticanonical(n, p)
    if divisor is None:
        divisor = anticanonical
    else:
        divisor = _as_divisor(divisor, len(anticanonical), tag.value)
        if tag is FamilyTag.BLQQ and divisor != anticanonical:
            raise InvalidParameterError("blqq exposes only the anticanonical divisor")
    return _resolve(tag, n, p, divisor)


@lru_cache(maxsize=None)
def _resolve(tag: FamilyTag, n: int, p: int | None, divisor: Divisor) -> FamilyInstance:
    if tag is FamilyTag.BLQQ:
        return blqq_resolve(n, p)
    if tag is FamilyTag.BLPP:
        return blpp_resolve(n, p, divisor)
    return quad_resolve(tag, n, divisor)


# Lets a caller that must recompute, such as a determinism check, empty the memo.
resolve.cache_clear = _resolve.cache_clear  # type: ignore[attr-defined]


def resolve_anticanonical(tag: FamilyTag, n: int, p: int | None = None) -> FamilyInstance:
    """Resolve the anticanonical member of any family."""
    return resolve(tag, n, p)


# ---------------------------------------------------------------------------
# Projective space blown up along two complementary linear subspaces
# ---------------------------------------------------------------------------


def blpp_anticanonical(n: int, p: int) -> Divisor:
    """Divisor coefficients of the anticanonical class of the blpp family."""
    return anticanonical_divisor(FamilyTag.BLPP, n, p)


def blpp_ample(divisor: Sequence[RationalLike]) -> bool:
    """Strict ampleness inequalities for a blpp divisor class."""
    c, d_plus, d_minus = _as_divisor(divisor, 3, "blpp")
    return d_plus < c and d_minus < c and d_plus + d_minus > 0


def blpp_resolve(n: int, p: int, divisor: Sequence[RationalLike]) -> FamilyInstance:
    """Resolve a blpp divisor class.

    The moment domain is the segment [max(-d_plus, -c), min(d_minus, c)]
    on the restricted-root line, the weight is (c - t)^(p-1) (c + t)^(n-p-1),
    and the class is ample iff d_plus < c, d_minus < c and d_plus + d_minus > 0.
    The target is meaningful only for the anticanonical class.
    """
    check_params(FamilyTag.BLPP, n, p)
    c, d_plus, d_minus = _as_divisor(divisor, 3, "blpp")
    segment = Segment.of(max(-d_plus, -c), min(d_minus, c))
    weight = FactoredWeight.of(
        1,
        [
            (AffineForm.of(c, -1), p - 1),
            (AffineForm.of(c, 1), n - p - 1),
        ],
    )
    _check_weight_positive(weight, segment.vertices)
    ample = blpp_ample((c, d_plus, d_minus))
    return FamilyInstance(
        tag=FamilyTag.BLPP,
        dims=(n, p),
        divisor=(c, d_plus, d_minus),
        domain=segment,
        weight=weight,
        target=(Fraction(n, 2) - p,),
        strict_axes=(),
        ample=ample,
    )


# ---------------------------------------------------------------------------
# Quadric blown up along a linear subquadric (codimension >= 3)
# ---------------------------------------------------------------------------


def blqq_resolve(n: int, p: int) -> FamilyInstance:
    """Resolve the anticanonical class of the blqq family.

    With k = p - 1 and l = n - p - 1 the (doubled-coordinate) moment domain
    is {0 <= x <= k, 0 <= y, x + y <= k + l}, the weight is
    x^(k-1) y^(l-1), and the target is (k - 1, l - 1); the barycenter must
    strictly exceed the target on both axes.
    """
    divisor = anticanonical_divisor(FamilyTag.BLQQ, n, p)
    k, l = p - 1, n - p - 1
    domain = Polygon.from_vertices([(0, 0), (k, 0), (k, l), (0, k + l)])
    weight = FactoredWeight.of(
        1,
        [
            (AffineForm.of(0, 1, 0), k - 1),
            (AffineForm.of(0, 0, 1), l - 1),
        ],
    )
    _check_weight_positive(weight, domain.vertices)
    return FamilyInstance(
        tag=FamilyTag.BLQQ,
        dims=(n, p),
        divisor=divisor,
        domain=domain,
        weight=weight,
        target=(Fraction(k - 1), Fraction(l - 1)),
        strict_axes=(0, 1),
        ample=True,
    )


# ---------------------------------------------------------------------------
# Quadric blown up along the codimension-two subquadric, a point, or a pair
# ---------------------------------------------------------------------------


def _exceptional_normals(variant: FamilyTag) -> tuple[tuple[int, int], ...]:
    normals = FAMILY_DATA[variant].exceptional_normals
    if not normals:
        raise InvalidParameterError(f"{variant} is not a quadric blow-up variant")
    return normals


def quad_anticanonical(variant: FamilyTag, n: int) -> Divisor:
    """Divisor coefficients of the anticanonical class of a quadric blow-up."""
    _exceptional_normals(variant)
    return anticanonical_divisor(variant, n)


def quad_resolve(variant: FamilyTag, n: int, divisor: Sequence[RationalLike]) -> FamilyInstance:
    """Resolve a quadric blow-up divisor class in doubled coordinates.

    The domain is the base {x >= 0, x - 2c <= y <= 2c - x}, c the
    boundary-pair coefficient, cut by one facet per exceptional coefficient:

    * quade :  x <= e
    * quadpt:  -y <= e_plus
    * quadpm:  -y <= e_plus and y <= e_minus

    The class is ample iff 0 < e < 2c for every exceptional e.  The weight
    is x^(n-4) and the target is (n - 4, 0): strict excess is required on
    the x axis, exact equality on the y axis.
    """
    normals = _exceptional_normals(variant)
    check_params(variant, n)
    c, *exceptional = _as_divisor(divisor, 1 + len(normals), variant.value)
    planes = [HalfPlane.of(-1, 0, 0)]
    planes += [HalfPlane.of(a, b, e) for (a, b), e in zip(normals, exceptional)]
    planes += [HalfPlane.of(1, -1, 2 * c), HalfPlane.of(1, 1, 2 * c)]
    domain = polygon_from_halfplanes(planes)
    weight = FactoredWeight.of(1, [(AffineForm.of(0, 1, 0), n - 4)])
    _check_weight_positive(weight, domain.vertices)
    return FamilyInstance(
        tag=variant,
        dims=(n,),
        divisor=(c, *exceptional),
        domain=domain,
        weight=weight,
        target=(Fraction(n - 4), Fraction(0)),
        strict_axes=(0,),
        ample=all(0 < e < 2 * c for e in exceptional),
    )


RECORD_SCHEMA_VERSION = 1


def instance_record(inst: FamilyInstance) -> dict:
    """Serializable structured record of an instance (stable key order)."""
    if isinstance(inst.domain, Segment):
        domain: dict = {
            "type": "segment",
            "lo": rational_to_str(inst.domain.lo),
            "hi": rational_to_str(inst.domain.hi),
        }
    else:
        domain = {
            "type": "polygon",
            "vertices": [[rational_to_str(x), rational_to_str(y)] for x, y in inst.domain.vertices],
        }
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "family": inst.tag.cli_name,
        "dims": list(inst.dims),
        "divisor": [rational_to_str(v) for v in inst.divisor],
        "domain": domain,
        "weight": {
            "prefactor": rational_to_str(inst.weight.prefactor),
            "factors": [
                {
                    "constant": rational_to_str(form.constant),
                    "linear": [rational_to_str(c) for c in form.linear],
                    "power": mult,
                }
                for form, mult in inst.weight.factors
            ],
        },
        "target": [rational_to_str(v) for v in inst.target],
        "strict_axes": list(inst.strict_axes),
        "ample": inst.ample,
    }
