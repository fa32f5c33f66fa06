"""Rational convex polytopes in dimensions 1 and 2.

A polygon keeps both its vertex cycle and its edge halfplanes, and
``polygon_from_halfplanes``, its one constructor, builds the two together.

The exact kernels run in Python ints.  ``HalfPlane.of`` keeps a halfplane
as coprime integers (a, b, c), so vertex enumeration is homogeneous: two
boundary lines meet in the integer triple (X, Y, D) with D > 0 and
gcd(X, Y, D) = 1, unique for the point (X/D, Y/D), which satisfies a
halfplane when a*X + b*Y <= c*D.  Every pair is enumerated, quadratic in
the handful of constraints this package sees, and each corner keeps the set
of planes through it.  The hull of the feasible triples is taken in
integers too, with the 3x3 determinant as the orientation test, and each
edge takes the first plane through both its ends as its halfplane.  If the
hull has three or more vertices and every edge has such a plane, the region
lies in every edge halfplane, so it is the hull; every bounded region
passes, as each vertex lies on both its edge planes.  The result is
strictly convex by construction and is not re-validated.  Only the hull
vertices become Fractions.  ``triangulate`` fans the hull into plain vertex
triples, none of them degenerate because no three hull vertices are
collinear.

Degenerate inputs are rejected loudly: an empty, unbounded, or
lower-dimensional intersection raises a dedicated error rather than
producing a zero-mass region, because every caller divides by the mass.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DegenerateRegionError,
    EmptyRegionError,
    InvalidParameterError,
    UnboundedRegionError,
)
from .poly import RationalLike, _as_fraction, _over_common_denominator

Point = tuple[Fraction, Fraction]
# A point (X/D, Y/D) in homogeneous integers, D > 0 and gcd(X, Y, D) = 1.
Triple = tuple[int, int, int]


class Segment(NamedTuple):
    """Closed rational interval [lo, hi] on a line."""

    lo: Fraction
    hi: Fraction

    @staticmethod
    def of(lo: RationalLike, hi: RationalLike) -> "Segment":
        lo_f, hi_f = _as_fraction(lo), _as_fraction(hi)
        if lo_f > hi_f:
            raise EmptyRegionError(f"segment [{lo_f}, {hi_f}] is empty")
        return Segment(lo_f, hi_f)

    @property
    def vertices(self) -> tuple[tuple[Fraction], tuple[Fraction]]:
        return ((self.lo,), (self.hi,))

    def contains(self, point: Sequence[RationalLike]) -> bool:
        (t,) = point
        return self.lo <= _as_fraction(t) <= self.hi


def _over_one_denominator(values: Sequence[RationalLike]) -> tuple[list[int], int]:
    """``_over_common_denominator`` that refuses all but ints and Fractions, as ``_as_fraction`` does."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            _as_fraction(v)
    return _over_common_denominator(values)


class HalfPlane(NamedTuple):
    """Constraint a*x + b*y <= c with (a, b) != (0, 0).

    ``of`` stores it as coprime integers a, b, c, so equal constraints
    compare equal regardless of how they were scaled.
    """

    a: int
    b: int
    c: int

    @staticmethod
    def of(a: RationalLike, b: RationalLike, c: RationalLike) -> "HalfPlane":
        """The one canonical form, in any scale; a zero normal raises InvalidParameterError."""
        (ia, ib, ic), _ = _over_one_denominator((a, b, c))
        if ia == 0 and ib == 0:
            raise InvalidParameterError("halfplane normal must be nonzero")
        g = gcd(ia, ib, ic)
        return HalfPlane(ia // g, ib // g, ic // g)

    def slack(self, point: Sequence[RationalLike]) -> Fraction:
        """c - (a*x + b*y); nonnegative exactly on the halfplane."""
        x, y = (_as_fraction(v) for v in point)
        return self.c - (self.a * x + self.b * y)


def _cross(o: Point, p: Point, q: Point) -> Fraction:
    """Twice the signed area of triangle (o, p, q); > 0 for a left turn.

    The integer determinant of the three points over their common
    denominator, divided once by its square.
    """
    (ox, oy, px, py, qx, qy), den = _over_common_denominator((*o, *p, *q))
    return Fraction((px - ox) * (qy - oy) - (py - oy) * (qx - ox), den * den)


class Polygon(NamedTuple):
    """Full-dimensional convex polygon.

    ``vertices`` is a strictly convex counterclockwise cycle starting at
    the lexicographically smallest vertex; ``halfplanes`` lists exactly one
    constraint per edge, in edge order.
    """

    vertices: tuple[Point, ...]
    halfplanes: tuple[HalfPlane, ...]

    def contains(self, point: Sequence[RationalLike]) -> bool:
        (x, y), d = _over_one_denominator(point)
        return all(a * x + b * y <= c * d for a, b, c in self.halfplanes)


def _orientation(p: Triple, q: Triple, r: Triple) -> int:
    """The 3x3 determinant of three homogeneous triples (X, Y, D) with D > 0.

    It is D_p D_q D_r times the doubled signed area of the points (X/D, Y/D),
    so its sign is the orientation: > 0 for a left turn.
    """
    (px, py, pd), (qx, qy, qd), (rx, ry, rd) = p, q, r
    return px * (qy * rd - qd * ry) - py * (qx * rd - qd * rx) + pd * (qx * ry - qy * rx)


def _convex_hull(pts: list[Triple]) -> list[Triple]:
    """Strict convex hull (collinear boundary points dropped) of distinct
    homogeneous points sorted by their affine point, counterclockwise from
    the first."""
    if len(pts) <= 2:
        return pts
    lower: list[Triple] = []
    for p in pts:
        while len(lower) >= 2 and _orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Triple] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_from_halfplanes(halfplanes: Iterable[Sequence[RationalLike]]) -> Polygon:
    """Intersect halfplanes into a polygon by pairwise vertex enumeration.

    Each plane, a ``HalfPlane`` or any (a, b, c), is first made canonical by
    ``HalfPlane.of``, which raises InvalidParameterError for a zero normal; so
    planes that describe the same region give the same polygon, however they
    were scaled.  Raises EmptyRegionError, UnboundedRegionError or
    DegenerateRegionError, with distinct error codes, when the intersection is
    not a full-dimensional bounded polygon.
    """
    rows = [HalfPlane.of(*plane) for plane in halfplanes]
    if not rows:
        raise UnboundedRegionError("no constraints: the whole plane is unbounded")
    a0, b0, _ = rows[0]
    if all(a0 * b - b0 * a == 0 for a, b, _ in rows[1:]):
        _classify_parallel_strip(rows)

    corners: dict[Triple, set[int]] = {}
    for i, (a1, b1, c1) in enumerate(rows):
        for j, (a2, b2, c2) in enumerate(rows[i + 1:], i + 1):
            det = a1 * b2 - b1 * a2
            if det == 0:
                continue
            x, y = c1 * b2 - b1 * c2, a1 * c2 - c1 * a2
            if det < 0:
                x, y, det = -x, -y, -det
            g = gcd(x, y, det)
            corners.setdefault((x // g, y // g, det // g), set()).update((i, j))
    feasible = [(x, y, d) for x, y, d in corners if all(a * x + b * y <= c * d for a, b, c in rows)]
    if not feasible:
        # Normals are not all parallel, so a nonempty region would have a vertex.
        raise EmptyRegionError("halfplane intersection is empty")

    den = lcm(*(d for _, _, d in feasible))
    hull = _convex_hull(sorted(feasible, key=lambda t: (t[0] * (den // t[2]), t[1] * (den // t[2]))))
    edges = [min(corners[p] & corners[q], default=None) for p, q in zip(hull, hull[1:] + hull[:1])]
    if len(hull) < 3 or None in edges:
        # Unbounded, the region recedes along a boundary line, as the normals are not all parallel.
        for a, b, _ in rows:
            for dx, dy in ((-b, a), (b, -a)):
                if all(na * dx + nb * dy <= 0 for na, nb, _ in rows):
                    raise UnboundedRegionError("halfplane intersection is unbounded in direction "
                                               f"{(Fraction(dx), Fraction(dy))}")
        raise DegenerateRegionError("halfplane intersection is not full-dimensional")
    return Polygon(tuple((Fraction(x, d), Fraction(y, d)) for x, y, d in hull),
                   tuple(rows[i] for i in edges))


def _classify_parallel_strip(rows: list[HalfPlane]) -> None:
    """All normals parallel: the region is empty or contains a line.

    Along the first normal u, a plane with normal lam * u bounds u.x by
    c / lam, above if lam > 0 and below otherwise; lam has the sign of
    (a, b).u, and c / ((a, b).u) orders the bounds as c / lam does.
    """
    ux, uy, _ = rows[0]
    lower: Fraction | None = None
    upper: Fraction | None = None
    for a, b, c in rows:
        dot = a * ux + b * uy
        bound = Fraction(c, dot)
        if dot > 0:
            upper = bound if upper is None else min(upper, bound)
        else:
            lower = bound if lower is None else max(lower, bound)
    if lower is not None and upper is not None and lower > upper:
        raise EmptyRegionError("halfplane intersection is empty")
    raise UnboundedRegionError("halfplane intersection contains a line")


def triangulate(polygon: Polygon) -> tuple[tuple[Point, Point, Point], ...]:
    """Fan triangulation rooted at the lexicographically smallest vertex.

    The root is vertices[0] thanks to the canonical rotation, so the result
    does not depend on how the polygon was described.
    """
    return fan_triangles(polygon, 0)


def fan_triangles(polygon: Polygon, root_index: int) -> tuple[tuple[Point, Point, Point], ...]:
    """Fan triangulation from an arbitrary vertex, as vertex triples; used to
    check that integrals do not depend on the triangulation."""
    vs = polygon.vertices
    m = len(vs)
    root = vs[root_index % m]
    return tuple((root, vs[(root_index + i) % m], vs[(root_index + i + 1) % m])
                 for i in range(1, m - 1))
