"""The five manifold families, stated once as data.

``FAMILY_DATA`` holds one ``FamilyData`` record per ``FamilyTag``, and it is
the only place that describes a family: its parameter domain (whether it
takes p, its smallest n and its p range), its anticanonical divisor class,
its moment domain as facets that depend on the divisor, its weight factors,
the axes on which the barycenter must strictly exceed the target, and its
ampleness inequalities as integer rows.  One function, ``_build``, turns a
family member and a divisor class (``None`` for the anticanonical class)
into the quintuple the stability criteria consume: a rational moment domain,
a factored integration weight, a target vector, the strict axes and an
ampleness verdict.  The target is not stated anywhere: it is 2*rho = sum_j
m_j grad l_j over the weight factors l_j^m_j, halved on blpp's undoubled t
axis.  Each instance owns its ``integrals``, which take their extra factors
in u = x - target and alone move them to x, and its ``moments``, integrated
on first read, or along a segment of classes as polynomials in its
parameter.  Every member is built through ``resolve``'s memo by value, the
package's only memo, the per-family entry points included.

Families and their divisor coordinates:

* ``blpp``   : projective space blown up along two disjoint complementary
  linear subspaces.  Divisor = (c, d_plus, d_minus): coefficient on the
  pair of color divisors and on the two invariant boundary divisors.
  The domain is the segment [max(-d_plus, -c), min(d_minus, c)], the weight
  (c - t)^(p-1) (c + t)^(n-p-1); ample iff d_plus < c, d_minus < c and
  d_plus + d_minus > 0.  2 <= p <= n-2.
* ``blqq``   : a quadric blown up along a linear subquadric of codimension
  at least three; 3 <= p <= n-3.  Divisor = (c, d), domain
  {x >= 0, y >= 0, x <= d, x + y <= 2c}, weight x^(p-2) y^(n-p-2).  It has
  no ampleness rows (none are known to us for general classes here), so
  only its anticanonical class is exposed.
* ``quade``, ``quadpt``, ``quadpm`` : a quadric (n >= 5) blown up along the
  codimension-two subquadric, at one point, or at an antipodal point pair.
  Divisor = (c, e...): the boundary-pair coefficient, then one exceptional
  coefficient e per facet a*x + b*y <= e on the shared base
  {x >= 0, |y| <= 2c - x}: x <= e for quade, -y <= e for quadpt, and
  -y <= e_plus, y <= e_minus for quadpm.  The weight is x^(n-4); the class
  is ample iff 0 < e < 2c for every e.

Coordinate convention for the two-dimensional families: everything is
stated in doubled lattice coordinates; criteria only consume signs and
memberships, which a positive linear change of coordinates preserves.
Constant prefactors of the weights are dropped for the same reason.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, NamedTuple, Sequence, Union

from .errors import DegenerateRegionError, InvalidParameterError, WeightPositivityError, ZeroMassError
from .poly import (AffineForm, FactoredWeight, RationalLike, _as_fraction, _over_common_denominator,
                   rational_to_str)
from .polytope import Polygon, Segment, polygon_from_halfplanes
from .quadrature import integrate_factored, integrate_factored_along

Divisor = tuple[Fraction, ...]
# A facet <normal, x> <= offset of a moment domain.
Facet = tuple[tuple[int, ...], RationalLike]
# A weight factor (constant + <slopes, x>) ** power, as ((constant, *slopes), power).
Factor = tuple[tuple[RationalLike, ...], int]
# Extra affine factors of one weighted integral, in u = x - target, as (form, multiplicity) pairs.
Factors = tuple[tuple[AffineForm, int], ...]


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
    def takes_p(self) -> bool:
        return FAMILY_DATA[self].p_margin > 0

    @property
    def min_n(self) -> int:
        return FAMILY_DATA[self].min_n

    def p_values(self, n: int) -> Sequence[int | None]:
        """The valid p at dimension n, or ``(None,)`` for a family without p."""
        margin = FAMILY_DATA[self].p_margin
        return range(margin, n - margin + 1) if margin else (None,)


class FamilyData(NamedTuple):
    """Everything that describes one family.

    ``p_margin`` is 0 for a family without p; otherwise p runs over
    ``p_margin..n-p_margin``.  ``anticanonical(n, p)`` is the divisor of the
    anticanonical class.  The rest take the divisor coefficients as
    arguments: ``facets(*divisor)`` lists the moment domain's facets and
    ``weight(n, p, *divisor)`` its weight factors.  A class is ample iff
    r . divisor > 0 for each row r of ``ample``; a family with no rows
    exposes only its anticanonical class.  ``doubled`` is False for a
    family stated in undoubled coordinates, whose target is half the sum of
    the factor gradients.
    """

    min_n: int
    p_margin: int
    anticanonical: Callable[[int, int | None], Divisor]
    facets: Callable[..., Sequence[Facet]]
    weight: Callable[..., Sequence[Factor]]
    ample: tuple[tuple[int, ...], ...]
    strict_axes: tuple[int, ...]
    doubled: bool = True

    def is_ample(self, divisor: Divisor) -> bool:
        return all(sum(map(mul, row, divisor)) > 0 for row in self.ample)


def _quadric(exceptional: Callable[[int], Divisor], ample: tuple[tuple[int, ...], ...],
            *normals: tuple[int, int]) -> FamilyData:
    """A quadric blow-up whose exceptional coefficients e, anticanonically
    ``exceptional(n)``, cut the facets a*x + b*y <= e of ``normals`` off
    the base {x >= 0, |y| <= 2c - x}; ``ample`` states 0 < e < 2c for each e."""
    return FamilyData(
        5, 0, lambda n, p: (Fraction(n, 2) - 1, *exceptional(n)),
        lambda c, *es: [((-1, 0), 0), *zip(normals, es), ((1, -1), 2 * c), ((1, 1), 2 * c)],
        lambda n, p, *_: [((0, 1, 0), n - 4)],
        ample,
        strict_axes=(0,))


FAMILY_DATA = {
    FamilyTag.BLPP: FamilyData(
        4, 2, lambda n, p: (Fraction(n, 2), p + 1 - Fraction(n, 2), Fraction(n, 2) - p + 1),
        lambda c, d_plus, d_minus: [((-1,), d_plus), ((-1,), c), ((1,), d_minus), ((1,), c)],
        lambda n, p, c, *_: [((c, -1), p - 1), ((c, 1), n - p - 1)],
        ((1, -1, 0), (1, 0, -1), (0, 1, 1)),
        strict_axes=(), doubled=False),
    FamilyTag.BLQQ: FamilyData(
        6, 3, lambda n, p: (Fraction(n, 2) - 1, Fraction(p - 1)),
        lambda c, d: [((-1, 0), 0), ((0, -1), 0), ((1, 0), d), ((1, 1), 2 * c)],
        lambda n, p, *_: [((0, 1, 0), p - 2), ((0, 0, 1), n - p - 2)],
        (),
        strict_axes=(0, 1)),
    FamilyTag.QUAD_E: _quadric(lambda n: (Fraction(n - 3),), ((0, 1), (2, -1)), (1, 0)),
    FamilyTag.QUAD_PT: _quadric(lambda n: (Fraction(1),), ((0, 1), (2, -1)), (0, -1)),
    FamilyTag.QUAD_PM: _quadric(lambda n: (Fraction(1), Fraction(1)),
                                ((0, 1, 0), (2, -1, 0), (0, 0, 1), (2, 0, -1)), (0, -1), (0, 1)),
}


class FamilyInstance:
    """A family member resolved to criterion inputs; it owns its weight integrals.

    Immutable, and equal and hashed by its eight fields.  A plain class, not a
    tuple: ``moments`` is cached in its ``__dict__``.
    """

    def __init__(self, tag: FamilyTag, dims: tuple[int, ...], divisor: Divisor,
                 domain: Union[Segment, Polygon], weight: FactoredWeight,
                 target: tuple[Fraction, ...], strict_axes: tuple[int, ...], ample: bool) -> None:
        vars(self).update(tag=tag, dims=dims, divisor=divisor, domain=domain, weight=weight,
                          target=target, strict_axes=strict_axes, ample=ample)

    def _key(self) -> tuple:
        """The eight fields; the cached moments take no part in equality."""
        return (self.tag, self.dims, self.divisor, self.domain, self.weight, self.target,
                self.strict_axes, self.ample)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FamilyInstance{self._key()!r}"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"FamilyInstance is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _weights(self, extras: Sequence[Factors]) -> list[FactoredWeight]:
        """The weight times each tuple of ``extras``, never multiplied out.
        The extras are stated in u = x - target; here, and nowhere else, each
        moves to x, its constant losing <slopes, target>."""
        w = self.weight
        in_x = [tuple((AffineForm(u.constant - sum(s * t for s, t in zip(u.linear, self.target)), u.linear),
                       mult) for u, mult in extra) for extra in extras]
        return [FactoredWeight(w.prefactor, w.factors + extra, w.nvars) for extra in in_x]

    def integrals(self, extras: Sequence[Factors]) -> list[Fraction]:
        """Integrals of the weight times each tuple of ``extras``, stated in u."""
        return [integrate_factored(w, self.domain) for w in self._weights(extras)]

    @property
    def _moment_extras(self) -> list[Factors]:
        """Nothing for the mass, then x_a = target_a + u_a for each first moment."""
        return [()] + [((AffineForm.of(t, *(int(i == a) for i in range(len(self.target)))), 1),)
                       for a, t in enumerate(self.target)]

    @cached_property
    def moments(self) -> tuple[Fraction, tuple[Fraction, ...]]:
        """Weight mass and barycenter (a 1- or 2-vector); requires nonzero mass."""
        mass, *firsts = self.integrals(self._moment_extras)
        if mass == 0:
            raise ZeroMassError("weight has zero mass on the instance domain")
        return mass, tuple(f / mass for f in firsts)

    def moments_along(self, end: "FamilyInstance") -> list[tuple[list[int], int]]:
        """Mass and first moments from this class (s = 0) to ``end`` (s = 1), each integer
        coefficients in s over one denominator; exact while the active facets stay (blpp's ample region)."""
        return [integrate_factored_along(w0, self.domain, w1, end.domain) for w0, w1
                in zip(self._weights(self._moment_extras), end._weights(end._moment_extras))]


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


def blpp_ample(divisor: Sequence[RationalLike]) -> bool:
    """Strict ampleness inequalities for a blpp divisor class."""
    return FAMILY_DATA[FamilyTag.BLPP].is_ample(_as_divisor(divisor, 3, "blpp"))


def _check_weight_positive(weight: FactoredWeight, vertices: Sequence[Sequence[RationalLike]]) -> None:
    """Require every affine factor to be nonnegative on the domain and not
    identically zero on it; this makes the weight positive on the interior.
    Every family weight raises each factor to a positive power."""
    coords, den = _over_common_denominator([c for vertex in vertices for c in vertex])
    points = [coords[i:i + weight.nvars] for i in range(0, len(coords), weight.nvars)]
    for form, _ in weight.factors:
        # In ints: the form's value at each vertex times den and the form's own denominator.
        (c, *slopes), _ = _over_common_denominator((form.constant, *form.linear))
        values = [c * den + sum(map(mul, slopes, point)) for point in points]
        if min(values) < 0 or max(values) <= 0:
            raise WeightPositivityError(
                f"weight factor {_form_text(form)} is not positive on the domain interior"
            )


def _form_text(form: AffineForm) -> str:
    """An affine form as "c + a*t" or "c + a*x + b*y", in ``rational_to_str``'s num/den."""
    axes = "t" if form.nvars == 1 else "xy"
    return " + ".join([rational_to_str(form.constant)]
                      + [f"{rational_to_str(a)}*{axis}" for a, axis in zip(form.linear, axes)])


def _validated(tag: FamilyTag, n: int, p: int | None,
               divisor: Sequence[RationalLike] | None) -> tuple[FamilyTag, int, int | None, Divisor]:
    """The arguments of ``_build``: the member checked, and the divisor
    normalized to Fractions (the anticanonical class for ``None``)."""
    check_params(tag, n, p)
    data = FAMILY_DATA[tag]
    anticanonical = data.anticanonical(n, p)
    if divisor is None:
        return tag, n, p, anticanonical
    divisor = _as_divisor(divisor, len(anticanonical), tag.value)
    if not data.ample and divisor != anticanonical:
        raise InvalidParameterError(f"{tag.value} exposes only the anticanonical divisor")
    return tag, n, p, divisor


def _build(tag: FamilyTag, n: int, p: int | None, divisor: Divisor) -> FamilyInstance:
    """Build a validated member from its ``FAMILY_DATA`` record."""
    data = FAMILY_DATA[tag]
    facets = data.facets(*divisor)
    if tag.dimension == 1:
        domain: Union[Segment, Polygon] = Segment.of(
            max(c / a for (a,), c in facets if a < 0), min(c / a for (a,), c in facets if a > 0))
    else:
        domain = polygon_from_halfplanes((*normal, c) for normal, c in facets)
    weight = FactoredWeight.of(
        1, [(AffineForm.of(*coeffs), mult) for coeffs, mult in data.weight(n, p, *divisor)])
    _check_weight_positive(weight, domain.vertices)
    if tag.dimension == 1 and domain.lo == domain.hi:
        raise DegenerateRegionError(f"segment [{domain.lo}, {domain.hi}] is a point")
    scale = Fraction(1, 1 if data.doubled else 2)
    target = tuple(scale * sum(mult * form.linear[axis] for form, mult in weight.factors)
                   for axis in range(tag.dimension))
    return FamilyInstance(tag, (n,) if p is None else (n, p), divisor, domain, weight, target,
                          data.strict_axes, data.is_ample(divisor))


def resolve(
    tag: FamilyTag, n: int, p: int | None = None, divisor: Sequence[RationalLike] | None = None
) -> FamilyInstance:
    """Resolve a family member and divisor class into criterion inputs.

    ``divisor=None`` means the anticanonical class; a family without
    ampleness rows, such as blqq, accepts no other.
    Results are memoized per process by value: the arguments are validated
    and the divisor normalized to a tuple of Fractions first, so equal
    classes share one instance, and an invalid argument raises on every call.
    """
    return _resolve(*_validated(tag, n, p, divisor))


_resolve = lru_cache(maxsize=None)(_build)

# Lets a caller that must recompute, such as a determinism check, empty the memo.
resolve.cache_clear = _resolve.cache_clear  # type: ignore[attr-defined]


def resolve_anticanonical(tag: FamilyTag, n: int, p: int | None = None) -> FamilyInstance:
    """Resolve the anticanonical member of any family."""
    return resolve(tag, n, p)


def blpp_resolve(n: int, p: int, divisor: Sequence[RationalLike]) -> FamilyInstance:
    """Resolve a blpp divisor class."""
    return resolve(FamilyTag.BLPP, n, p, divisor)


def blqq_resolve(n: int, p: int) -> FamilyInstance:
    """Resolve the anticanonical class of the blqq family."""
    return resolve(FamilyTag.BLQQ, n, p)


def quad_resolve(variant: FamilyTag, n: int, divisor: Sequence[RationalLike]) -> FamilyInstance:
    """Resolve a quadric blow-up divisor class."""
    return resolve(variant, n, None, divisor)


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
        "family": inst.tag.value,
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
