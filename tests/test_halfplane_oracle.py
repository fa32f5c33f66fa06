"""Halfplane intersection checked against a Fraction reference.

The reference below is vertex enumeration done entirely in Fractions: each
pair of boundary lines is intersected by Cramer's rule, each candidate is
tested with the slack c - (a x + b y), and the hull, its orientation tests
and its edge halfplanes are Fraction arithmetic too.  It shares no kernel
with ``kstab.polytope``, which runs in integers, and it builds its
``Polygon`` directly rather than through ``polygon_from_halfplanes``.

The canonical form that every caller relies on is checked here too, on each
random polygon and on every family domain up to n = 40: the vertices form a
strictly convex counterclockwise cycle from the lexicographically smallest
vertex, and the coprime halfplane of edge i is tight at vertices i and i+1
with every other vertex strictly inside.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.errors import (
    DegenerateRegionError,
    EmptyRegionError,
    KstabError,
    UnboundedRegionError,
)
from kstab.families import FamilyTag, resolve_anticanonical
from kstab.polytope import HalfPlane, Polygon, _cross, polygon_from_halfplanes

# ---------------------------------------------------------------------------
# Reference: vertex enumeration in Fractions
# ---------------------------------------------------------------------------


def _ref_halfplane(a: F, b: F, c: F) -> HalfPlane:
    scale = F(a.denominator * b.denominator * c.denominator)
    ia, ib, ic = int(a * scale), int(b * scale), int(c * scale)
    g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
    return HalfPlane(F(ia // g), F(ib // g), F(ic // g))


def _ref_cross(o, p, q) -> F:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _ref_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _ref_cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _ref_cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _ref_parallel_strip(planes):
    ux, uy = planes[0].a, planes[0].b
    norm2 = ux * ux + uy * uy
    lower = upper = None
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


def reference_polygon_from_halfplanes(planes) -> Polygon:
    planes = [HalfPlane(*map(F, hp)) for hp in planes]
    if not planes:
        raise UnboundedRegionError("no constraints: the whole plane is unbounded")
    normals = [(hp.a, hp.b) for hp in planes]
    first = normals[0]
    if all(first[0] * n[1] - first[1] * n[0] == 0 for n in normals[1:]):
        _ref_parallel_strip(planes)

    candidates = []
    for i, p in enumerate(planes):
        for q in planes[i + 1:]:
            det = p.a * q.b - p.b * q.a
            if det != 0:
                candidates.append(((p.c * q.b - p.b * q.c) / det, (p.a * q.c - p.c * q.a) / det))
    feasible = [pt for pt in set(candidates)
                if all(hp.c - (hp.a * pt[0] + hp.b * pt[1]) >= 0 for hp in planes)]
    if not feasible:
        raise EmptyRegionError("halfplane intersection is empty")

    for hp in planes:
        for d in ((-hp.b, hp.a), (hp.b, -hp.a)):
            if all(n[0] * d[0] + n[1] * d[1] <= 0 for n in normals):
                raise UnboundedRegionError(f"halfplane intersection is unbounded in direction {d}")

    hull = _ref_hull(feasible)
    if len(hull) < 3:
        raise DegenerateRegionError("halfplane intersection is not full-dimensional")
    start = hull.index(min(hull))
    vs = hull[start:] + hull[:start]
    edges = []
    for v, w in zip(vs, vs[1:] + vs[:1]):
        a, b = w[1] - v[1], v[0] - w[0]
        edges.append(_ref_halfplane(a, b, a * v[0] + b * v[1]))
    return Polygon(tuple(vs), tuple(edges))


def _outcome(fn, planes):
    try:
        return fn(planes)
    except KstabError as exc:
        return exc


def assert_same_outcome(got, expected):
    if isinstance(expected, KstabError):
        assert type(got) is type(expected), (got, expected)
        assert str(got) == str(expected)
    else:
        assert got == expected


def assert_matches_reference(planes):
    assert_same_outcome(_outcome(polygon_from_halfplanes, planes),
                        _outcome(reference_polygon_from_halfplanes, planes))


# ---------------------------------------------------------------------------
# Halfplane sets.  A set starts empty, or from a triangle or a box with random
# rational corner and width, which is a polygon, a segment or a point.  Each
# further plane is fresh or derived from an earlier one: a positive multiple
# (a duplicate), a parallel shift (often redundant), or the reversed plane
# shifted by -1, 0 or 1 (an empty strip, a line, or a slab).  Few planes, or
# all parallel ones, leave rays and strips; fresh planes may empty the set.
# ---------------------------------------------------------------------------

_small = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
_positive = st.builds(F, st.integers(1, 5), st.integers(1, 3))
_width = st.builds(F, st.integers(0, 6), st.integers(1, 3))


@st.composite
def halfplane_sets(draw):
    start = draw(st.sampled_from(("nothing", "triangle", "box")))
    x0, y0, w, h = draw(_small), draw(_small), draw(_width), draw(_width)
    rows = []
    if start == "triangle":
        a, b = draw(_positive), draw(_positive)
        rows = [(-1, 0, -x0), (0, -1, -y0), (a, b, a * x0 + b * y0 + w)]
    elif start == "box":
        rows = [(-1, 0, -x0), (1, 0, x0 + w), (0, -1, -y0), (0, 1, y0 + h)]
    rows = [tuple(draw(_positive) * v for v in row) for row in rows]
    for _ in range(draw(st.integers(max(2, len(rows)), 7)) - len(rows)):
        kinds = ("fresh", "duplicate", "shifted", "reversed") if rows else ("fresh",)
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            a, b = draw(st.tuples(_small, _small).filter(lambda n: n != (0, 0)))
            rows.append((a, b, draw(_small)))
            continue
        a, b, c = draw(st.sampled_from(rows))
        k = draw(_positive)
        if kind == "duplicate":
            rows.append((k * a, k * b, k * c))
        elif kind == "shifted":
            rows.append((k * a, k * b, k * c + draw(st.integers(-2, 2))))
        else:
            rows.append((-k * a, -k * b, -k * c + draw(st.integers(-1, 1))))
    return [HalfPlane.of(*row) for row in draw(st.permutations(rows))]


def _planes(*rows):
    return [HalfPlane.of(*row) for row in rows]


UNIT_SQUARE = ((-1, 0, 0), (1, 0, 1), (0, -1, 0), (0, 1, 1))

# one set for each outcome, whatever the random sets happen to reach
CASES = {
    "polygon": (_planes(*UNIT_SQUARE), None),
    "duplicate and redundant": (_planes(*UNIT_SQUARE, (2, 0, 2), (1, 1, 5)), None),
    "duplicated edge plane": (_planes((0, 1, 1), *UNIT_SQUARE, (0, 3, 3)), None),
    "redundant through a vertex": (_planes((1, 1, 2), *UNIT_SQUARE, (-1, -1, 0)), None),
    "rational": (_planes((F(-1, 2), 0, F(1, 3)), (0, F(-2, 3), 1),
                         (F(3, 4), F(5, 7), F(2, 9))), None),
    "empty strip": (_planes((1, 0, 0), (-1, 0, -1)), EmptyRegionError),
    "empty wedge": (_planes((-1, 0, -1), (0, -1, -1), (1, 1, 1)), EmptyRegionError),
    "line strip": (_planes((0, 1, 1), (0, -2, 3)), UnboundedRegionError),
    "ray": (_planes((-1, 0, 0), (0, -1, 0), (1, -1, 3)), UnboundedRegionError),
    # three feasible corners span a triangle, but its long side lies on no plane
    "unbounded over a triangle": (_planes((-1, 0, 0), (0, -1, 0), (-1, -2, -2), (-2, -1, -2)),
                                  UnboundedRegionError),
    # as given, not canonical: the reference's edge comes from its vertices
    "edge plane at two scales": ([(F(1, 2), 0, F(1, 2)), *UNIT_SQUARE, (3, 0, 3)], None),
    # x >= 0 is tight only at the origin, where y >= 0 and y <= x meet too
    "three planes through a vertex": (_planes((-1, 0, 0), (0, -1, 0), (-1, 1, 0), (1, 1, 2)), None),
    "edge plane with Fraction fields": (_planes((-1, 0, 0), (0, -1, 0), (0, 1, 1))
                                        + [HalfPlane(F(1, 2), F(0), F(1))], None),
    "segment": (_planes((1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 0)), DegenerateRegionError),
    "point": (_planes((1, 0, 0), (0, 1, 0), (-1, -1, 0)), DegenerateRegionError),
}


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_each_outcome(self, name):
        planes, error = CASES[name]
        assert_matches_reference(planes)
        outcome = _outcome(polygon_from_halfplanes, planes)
        if error is None:
            assert isinstance(outcome, Polygon)
        else:
            assert type(outcome) is error

    @settings(max_examples=400, deadline=None)
    @given(halfplane_sets())
    def test_random_sets(self, planes):
        assert_matches_reference(planes)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scaled_planes_built_directly(self, data):
        # a plane scaled by a positive rational and built without HalfPlane.of
        # describes the same halfplane, so it gives the canonical outcome
        planes = data.draw(halfplane_sets())
        scales = data.draw(st.lists(_positive, min_size=len(planes), max_size=len(planes)))
        scaled = [HalfPlane(k * hp.a, k * hp.b, k * hp.c) for k, hp in zip(scales, planes)]
        assert_same_outcome(_outcome(polygon_from_halfplanes, scaled),
                            _outcome(polygon_from_halfplanes, planes))


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def assert_canonical(polygon: Polygon) -> None:
    vs, planes = polygon.vertices, polygon.halfplanes
    m = len(vs)
    assert m >= 3 and len(planes) == m
    assert vs[0] == min(vs)
    for i, hp in enumerate(planes):
        assert _cross(vs[i], vs[(i + 1) % m], vs[(i + 2) % m]) > 0
        ints = (hp.a, hp.b, hp.c)
        assert all(v.denominator == 1 for v in ints) and gcd(*(int(v) for v in ints)) == 1
        for j, v in enumerate(vs):
            if j in (i, (i + 1) % m):
                assert hp.slack(v) == 0, (i, j)
            else:
                assert hp.slack(v) > 0, (i, j)


class TestCanonicalForm:
    @settings(max_examples=300, deadline=None)
    @given(halfplane_sets())
    def test_random_polygons(self, planes):
        outcome = _outcome(polygon_from_halfplanes, planes)
        if isinstance(outcome, Polygon):
            assert_canonical(outcome)

    def test_family_domains(self):
        count = 0
        for tag in FamilyTag:
            for n in range(tag.min_n, 41):
                for p in tag.p_values(n):
                    domain = resolve_anticanonical(tag, n, p).domain
                    if isinstance(domain, Polygon):
                        assert_canonical(domain)
                        count += 1
        assert count > 600
