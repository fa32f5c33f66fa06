"""Rational convex polytopes in dimensions 1 and 2.

Polygons are stored simultaneously as a strictly convex counterclockwise
vertex cycle and as a redundancy-free list of halfplanes; the two views are
kept consistent by construction.  Vertex enumeration is done by pairwise
line intersection with feasibility filtering, which is quadratic in the
constraint count and entirely adequate for the handful of constraints this
package ever sees.

Degenerate inputs are rejected loudly: an empty, unbounded, or
lower-dimensional intersection raises a dedicated error rather than
producing a zero-mass region, because every caller divides by the mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DegenerateRegionError,
    EmptyRegionError,
    InvalidParameterError,
    UnboundedRegionError,
)
from .poly import RationalLike, _as_fraction

Point = tuple[Fraction, Fraction]


def make_point(x: RationalLike, y: RationalLike) -> Point:
    return (_as_fraction(x), _as_fraction(y))


@dataclass(frozen=True)
class Segment:
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

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, t: RationalLike) -> bool:
        v = _as_fraction(t)
        return self.lo <= v <= self.hi


@dataclass(frozen=True)
class HalfPlane:
    """Constraint a*x + b*y <= c with (a, b) != (0, 0).

    Stored in canonical integer form: a, b, c are coprime integers, so
    equal constraints compare equal regardless of how they were scaled.
    """

    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def of(a: RationalLike, b: RationalLike, c: RationalLike) -> "HalfPlane":
        fa, fb, fc = _as_fraction(a), _as_fraction(b), _as_fraction(c)
        if fa == 0 and fb == 0:
            raise InvalidParameterError("halfplane normal must be nonzero")
        scale = Fraction(_lcm3(fa.denominator, fb.denominator, fc.denominator))
        ia, ib, ic = int(fa * scale), int(fb * scale), int(fc * scale)
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
        return HalfPlane(Fraction(ia // g), Fraction(ib // g), Fraction(ic // g))

    def holds_at(self, point: Sequence[RationalLike]) -> bool:
        return self.slack(point) >= 0

    def slack(self, point: Sequence[RationalLike]) -> Fraction:
        """c - (a*x + b*y); nonnegative exactly on the halfplane."""
        x, y = (_as_fraction(v) for v in point)
        return self.c - (self.a * x + self.b * y)


def _lcm3(a: int, b: int, c: int) -> int:
    ab = a * b // gcd(a, b)
    return ab * c // gcd(ab, c)


def _cross(o: Point, p: Point, q: Point) -> Fraction:
    """Twice the signed area of triangle (o, p, q); > 0 for a left turn."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


@dataclass(frozen=True)
class Triangle:
    """Nondegenerate triangle given by three rational vertices."""

    vertices: tuple[Point, Point, Point]

    @staticmethod
    def of(p0: Sequence[RationalLike], p1: Sequence[RationalLike], p2: Sequence[RationalLike]) -> "Triangle":
        v0, v1, v2 = (make_point(*p) for p in (p0, p1, p2))
        if _cross(v0, v1, v2) == 0:
            raise DegenerateRegionError(f"triangle {v0}, {v1}, {v2} is degenerate")
        return Triangle((v0, v1, v2))

    @property
    def doubled_signed_area(self) -> Fraction:
        v0, v1, v2 = self.vertices
        return _cross(v0, v1, v2)

    @property
    def area(self) -> Fraction:
        return abs(self.doubled_signed_area) / 2


@dataclass(frozen=True)
class Polygon:
    """Full-dimensional convex polygon.

    ``vertices`` is a strictly convex counterclockwise cycle starting at
    the lexicographically smallest vertex; ``halfplanes`` lists exactly one
    constraint per edge, in edge order.
    """

    vertices: tuple[Point, ...]
    halfplanes: tuple[HalfPlane, ...]

    @staticmethod
    def from_vertices(points: Iterable[Sequence[RationalLike]]) -> "Polygon":
        vs = [make_point(*p) for p in points]
        if len(vs) < 3:
            raise DegenerateRegionError("a polygon needs at least three vertices")
        if len(set(vs)) != len(vs):
            raise InvalidParameterError("polygon vertices must be distinct")
        m = len(vs)
        for i in range(m):
            if _cross(vs[i], vs[(i + 1) % m], vs[(i + 2) % m]) <= 0:
                raise InvalidParameterError(
                    "vertices must form a strictly convex counterclockwise cycle"
                )
        vs = _rotate_to_lex_min(vs)
        planes = tuple(_edge_halfplane(vs[i], vs[(i + 1) % m]) for i in range(m))
        return Polygon(tuple(vs), planes)

    def contains(self, point: Sequence[RationalLike]) -> bool:
        return all(hp.holds_at(point) for hp in self.halfplanes)

    @property
    def area(self) -> Fraction:
        return shoelace_area(self.vertices)


def shoelace_area(vertices: Sequence[Point]) -> Fraction:
    total = Fraction(0)
    m = len(vertices)
    for i in range(m):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % m]
        total += x0 * y1 - x1 * y0
    return total / 2


def _rotate_to_lex_min(vs: list[Point]) -> list[Point]:
    start = min(range(len(vs)), key=lambda i: vs[i])
    return vs[start:] + vs[:start]


def _edge_halfplane(v: Point, w: Point) -> HalfPlane:
    # Outward normal of a counterclockwise edge v -> w.
    ex, ey = w[0] - v[0], w[1] - v[1]
    a, b = ey, -ex
    return HalfPlane.of(a, b, a * v[0] + b * v[1])


def _convex_hull(points: list[Point]) -> list[Point]:
    """Strict convex hull (collinear boundary points dropped), counterclockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_from_halfplanes(halfplanes: Iterable[HalfPlane]) -> Polygon:
    """Intersect halfplanes into a polygon by pairwise vertex enumeration.

    Raises EmptyRegionError, UnboundedRegionError, or DegenerateRegionError
    when the intersection is not a full-dimensional bounded polygon; the
    three failure modes carry distinct error codes.
    """
    planes = list(halfplanes)
    if not planes:
        raise UnboundedRegionError("no constraints: the whole plane is unbounded")

    normals = [(hp.a, hp.b) for hp in planes]
    if _all_parallel(normals):
        _classify_parallel_strip(planes)

    candidates: list[Point] = []
    m = len(planes)
    for i in range(m):
        for j in range(i + 1, m):
            pt = _line_intersection(planes[i], planes[j])
            if pt is not None:
                candidates.append(pt)
    feasible = [p for p in set(candidates) if all(hp.holds_at(p) for hp in planes)]
    if not feasible:
        # Normals are not all parallel, so a nonempty region would have a vertex.
        raise EmptyRegionError("halfplane intersection is empty")

    for hp in planes:
        for d in ((-hp.b, hp.a), (hp.b, -hp.a)):
            if all(n[0] * d[0] + n[1] * d[1] <= 0 for n in normals):
                raise UnboundedRegionError(
                    f"halfplane intersection is unbounded in direction {d}"
                )

    hull = _convex_hull(feasible)
    if len(hull) < 3:
        raise DegenerateRegionError("halfplane intersection is not full-dimensional")
    return Polygon.from_vertices(hull)


def _all_parallel(normals: list[tuple[Fraction, Fraction]]) -> bool:
    first = normals[0]
    return all(first[0] * n[1] - first[1] * n[0] == 0 for n in normals[1:])


def _classify_parallel_strip(planes: list[HalfPlane]) -> None:
    """All normals parallel: the region is empty or contains a line."""
    ux, uy = planes[0].a, planes[0].b
    norm2 = ux * ux + uy * uy
    lower: Fraction | None = None
    upper: Fraction | None = None
    for hp in planes:
        lam = (hp.a * ux + hp.b * uy) / norm2
        bound = hp.c / lam
        if lam > 0:
            upper = bound if upper is None else min(upper, bound)
        else:
            lower = bound if lower is None else max(lower, bound)
    if lower is not None and upper is not None and lower > upper:
        raise EmptyRegionError("halfplane intersection is empty")
    raise UnboundedRegionError("halfplane intersection contains a line")


def _line_intersection(p: HalfPlane, q: HalfPlane) -> Point | None:
    det = p.a * q.b - p.b * q.a
    if det == 0:
        return None
    x = (p.c * q.b - p.b * q.c) / det
    y = (p.a * q.c - p.c * q.a) / det
    return (x, y)


def contains(polygon: Polygon, point: Sequence[RationalLike]) -> bool:
    """Closed membership test against every halfplane."""
    return polygon.contains(point)


def triangulate(polygon: Polygon) -> tuple[Triangle, ...]:
    """Fan triangulation rooted at the lexicographically smallest vertex.

    The root is vertices[0] thanks to the canonical rotation, so the result
    does not depend on how the polygon was described.
    """
    return fan_triangles(polygon, 0)


def fan_triangles(polygon: Polygon, root_index: int) -> tuple[Triangle, ...]:
    """Fan triangulation from an arbitrary vertex; used to check that
    integrals do not depend on the triangulation."""
    vs = polygon.vertices
    m = len(vs)
    root = vs[root_index % m]
    out = []
    for i in range(1, m - 1):
        a = vs[(root_index + i) % m]
        b = vs[(root_index + i + 1) % m]
        out.append(Triangle.of(root, a, b))
    return tuple(out)
