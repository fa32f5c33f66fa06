"""Polytope layer: vertex enumeration, triangulation, membership."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.errors import (
    DegenerateRegionError,
    EmptyRegionError,
    InvalidParameterError,
    UnboundedRegionError,
)
from kstab import polytope
from kstab.families import FamilyTag, resolve_anticanonical
from kstab.polytope import (
    HalfPlane,
    Segment,
    _cross,
    fan_triangles,
    polygon_from_halfplanes,
    triangulate,
)


def _planes(*rows):
    return [HalfPlane.of(*row) for row in rows]


UNIT_TRIANGLE = _planes((-1, 0, 0), (0, -1, 0), (1, 1, 1))
UNIT_SQUARE = _planes((-1, 0, 0), (1, 0, 1), (0, -1, 0), (0, 1, 1))


def _doubled_area(triangles):
    return sum(abs(_cross(*t)) for t in triangles)


class TestSegment:
    def test_empty_rejected(self):
        with pytest.raises(EmptyRegionError):
            Segment.of(1, 0)

    def test_contains_closed(self):
        s = Segment.of(-1, 1)
        assert s.contains((-1,)) and s.contains((F(1, 3),)) and s.contains((1,))
        assert not s.contains((F(3, 2),))


class TestVertexEnumeration:
    def test_unit_triangle(self):
        p = polygon_from_halfplanes(UNIT_TRIANGLE)
        assert p.vertices == ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))

    def test_exceptional_quadric_domain_by_hand(self):
        # {0 <= x <= 1, x - 2 <= y <= 2 - x}
        planes = [
            HalfPlane.of(-1, 0, 0),
            HalfPlane.of(1, 0, 1),
            HalfPlane.of(1, -1, 2),
            HalfPlane.of(1, 1, 2),
        ]
        p = polygon_from_halfplanes(planes)
        assert p.vertices == ((F(0), F(-2)), (F(1), F(-1)), (F(1), F(1)), (F(0), F(2)))

    def test_infeasible(self):
        with pytest.raises(EmptyRegionError):
            polygon_from_halfplanes([HalfPlane.of(-1, 0, 0), HalfPlane.of(1, 0, -1)])

    def test_infeasible_non_parallel(self):
        with pytest.raises(EmptyRegionError):
            polygon_from_halfplanes(
                [HalfPlane.of(-1, 0, -1), HalfPlane.of(0, -1, -1), HalfPlane.of(1, 1, 1)]
            )

    def test_unbounded_quadrant(self):
        with pytest.raises(UnboundedRegionError):
            polygon_from_halfplanes([HalfPlane.of(-1, 0, 0), HalfPlane.of(0, -1, 0)])

    def test_unbounded_strip(self):
        with pytest.raises(UnboundedRegionError):
            polygon_from_halfplanes([HalfPlane.of(0, -1, 0), HalfPlane.of(0, 1, 1)])

    def test_degenerate_segment_region(self):
        planes = [
            HalfPlane.of(-1, 0, 0),
            HalfPlane.of(1, 0, 0),
            HalfPlane.of(0, -1, 0),
            HalfPlane.of(0, 1, 1),
        ]
        with pytest.raises(DegenerateRegionError):
            polygon_from_halfplanes(planes)

    def test_redundant_halfplane_dropped(self):
        p = polygon_from_halfplanes(UNIT_TRIANGLE + [HalfPlane.of(1, 0, 5)])
        q = polygon_from_halfplanes(UNIT_TRIANGLE)
        assert p == q
        assert len(p.halfplanes) == 3

    def test_input_order_irrelevant(self):
        p = polygon_from_halfplanes(UNIT_TRIANGLE)
        q = polygon_from_halfplanes(list(reversed(UNIT_TRIANGLE)))
        assert p == q

    def test_round_trip_family_domains(self):
        domains = [resolve_anticanonical(FamilyTag.BLQQ, n, p).domain
                   for n in range(6, 13) for p in range(3, n - 2)]
        domains += [resolve_anticanonical(tag, n).domain
                    for tag in (FamilyTag.QUAD_E, FamilyTag.QUAD_PT, FamilyTag.QUAD_PM)
                    for n in range(5, 13)]
        for domain in domains:
            assert polygon_from_halfplanes(domain.halfplanes) == domain


class TestTriangulate:
    def test_unit_square(self):
        tris = triangulate(polygon_from_halfplanes(UNIT_SQUARE))
        assert len(tris) == 2
        assert all(abs(_cross(*t)) == 1 for t in tris)

    def test_triangle_is_itself(self):
        tri = polygon_from_halfplanes(_planes((-1, 0, 0), (0, -1, 0), (1, 1, 2)))
        tris = triangulate(tri)
        assert len(tris) == 1
        assert set(tris[0]) == set(tri.vertices)

    def test_hexagon_area_additivity(self):
        # vertices (2, 0), (4, 1), (4, 3), (2, 4), (0, 3), (0, 1); area 12
        hexagon = polygon_from_halfplanes(
            _planes((1, -2, 2), (1, 0, 4), (1, 2, 10), (-1, 2, 6), (-1, 0, 0), (-1, -2, -2))
        )
        tris = triangulate(hexagon)
        assert len(tris) == 4
        assert _doubled_area(tris) == 24

    def test_fan_root_is_lex_smallest(self):
        # vertices (1, 1), (0, 2), (0, -2), (1, -1), planes out of edge order
        p = polygon_from_halfplanes(_planes((1, 0, 1), (1, 1, 2), (1, -1, 2), (-1, 0, 0)))
        root = min(p.vertices)
        assert root == (0, -2)
        assert all(t[0] == root for t in triangulate(p))

    def test_fan_from_any_root_tiles(self):
        # vertices (0, -1), (3, -1), (4, 0), (3, 1), (0, 1); area 7
        p = resolve_anticanonical(FamilyTag.QUAD_PM, 6).domain
        for root in range(len(p.vertices)):
            assert _doubled_area(fan_triangles(p, root)) == 14

    def test_partition_of_generic_interior_points(self):
        import random

        def in_closed_triangle(tri, pt):
            a, b, c = tri
            orient = _cross(*tri)
            for u, v in ((a, b), (b, c), (c, a)):
                cross = (v[0] - u[0]) * (pt[1] - u[1]) - (v[1] - u[1]) * (pt[0] - u[0])
                if cross * orient < 0:
                    return False
            return True

        rng = random.Random(11)
        p = resolve_anticanonical(FamilyTag.QUAD_PM, 7).domain
        tris = triangulate(p)
        checked = 0
        for _ in range(200):
            # random convex combination of the vertices, generically off chords
            weights = [F(rng.randint(1, 97)) for _ in p.vertices]
            total = sum(weights)
            pt = (
                sum(w * v[0] for w, v in zip(weights, p.vertices)) / total,
                sum(w * v[1] for w, v in zip(weights, p.vertices)) / total,
            )
            hits = sum(1 for t in tris if in_closed_triangle(t, pt))
            on_chord = any(
                (t[1][0] - t[0][0]) * (pt[1] - t[0][1])
                == (t[1][1] - t[0][1]) * (pt[0] - t[0][0])
                for t in tris
            )
            if on_chord:
                assert hits == 2
            else:
                assert hits == 1
                checked += 1
        assert checked > 150


class TestContains:
    def test_interior_point(self):
        p = polygon_from_halfplanes(UNIT_TRIANGLE)
        assert p.contains((F(1, 4), F(1, 4)))

    def test_exterior_point(self):
        p = polygon_from_halfplanes(UNIT_TRIANGLE)
        assert not p.contains((1, 1))

    def test_exceptional_domain_point(self):
        planes = [
            HalfPlane.of(-1, 0, 0),
            HalfPlane.of(1, 0, 1),
            HalfPlane.of(1, -1, 2),
            HalfPlane.of(1, 1, 2),
        ]
        p = polygon_from_halfplanes(planes)
        assert p.contains((F(1, 2), F(0)))

    def test_boundary_is_closed(self):
        p = polygon_from_halfplanes(UNIT_TRIANGLE)
        assert p.contains((0, 0)) and p.contains((F(1, 2), F(1, 2)))


class TestConstruction:
    def test_vertex_cycle_canonical_rotation(self):
        # the same square from scaled planes in another order: one polygon,
        # its cycle starting at the lexicographically smallest vertex
        a = polygon_from_halfplanes(UNIT_SQUARE)
        b = polygon_from_halfplanes(_planes((0, 3, 3), (2, 0, 2), (0, -1, 0), (-5, 0, 0)))
        assert a == b
        assert a.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))

    def test_halfplane_zero_normal_rejected(self):
        with pytest.raises(InvalidParameterError):
            HalfPlane.of(0, 0, 1)

    def test_halfplane_canonical_form(self):
        assert HalfPlane.of(F(1, 2), F(1, 4), F(3, 4)) == HalfPlane.of(2, 1, 3)

    def test_directly_built_fractional_plane_rejected(self):
        # x/2 <= 1 is x <= 2: its numerators (x <= 1) are never read as the plane
        bounds = _planes((-1, 0, 0), (0, -1, 0), (0, 1, 1))
        half = polygon_from_halfplanes(bounds + [HalfPlane(F(1, 2), F(0), F(1))])
        assert half == polygon_from_halfplanes(bounds + _planes((1, 0, 2)))
        assert half.vertices[1] == (2, 0)

    def test_directly_built_scaled_plane_is_canonical(self):
        bounds = _planes((-1, 0, 0), (0, -1, 0), (0, 1, 1))
        doubled = polygon_from_halfplanes(bounds + [HalfPlane(F(2), F(0), F(2))])
        assert doubled == polygon_from_halfplanes(bounds + _planes((1, 0, 1)))

    def test_directly_built_zero_normal_rejected(self):
        zero = HalfPlane(F(0), F(0), F(1))
        with pytest.raises(InvalidParameterError, match="halfplane normal must be nonzero"):
            polygon_from_halfplanes(UNIT_SQUARE + [zero])

    def test_halfplane_keeps_coprime_ints(self):
        hp = HalfPlane.of(F(-3, 2), F(9, 4), 6)
        assert hp == (-2, 3, 8) and all(type(v) is int for v in hp)
        assert all(type(v) is int for v in HalfPlane.of(-4, 6, 16))

    @pytest.mark.parametrize("value, name", [(0.5, "float"), ("1", "str"), (None, "NoneType")])
    def test_halfplane_refuses_other_numbers(self, value, name):
        for args in ((value, 1, 1), (1, value, 1), (1, 1, value)):
            with pytest.raises(InvalidParameterError, match=f"^expected an int or Fraction, got {name}$"):
                HalfPlane.of(*args)
        with pytest.raises(InvalidParameterError, match=f"^expected an int or Fraction, got {name}$"):
            polygon_from_halfplanes(UNIT_TRIANGLE).contains((0, value))


_coord = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_point = st.tuples(_coord, _coord)


class TestCross:
    """The integer orientation test against the plain Fraction formula."""

    @settings(max_examples=300, deadline=None)
    @given(_point, _point, _point)
    def test_matches_fraction_formula(self, o, p, q):
        expected = (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])
        got = _cross(o, p, q)
        assert type(got) is F and got == expected

    def test_collinear_and_turns(self):
        o, p = (F(1, 3), F(1, 2)), (F(4, 3), F(3, 2))
        assert _cross(o, p, (F(7, 3), F(5, 2))) == 0
        assert _cross(o, p, (F(0), F(2))) == F(11, 6)
        assert _cross(p, o, (F(0), F(2))) == F(-11, 6)


@pytest.fixture
def fractions_built(monkeypatch):
    """Every argument tuple that ``kstab.polytope`` builds a Fraction from,
    while a counting stand-in replaces its ``Fraction`` (instance checks
    still see real Fractions)."""
    built = []

    class Counting(type(F)):
        def __call__(cls, *args):
            built.append(args)
            return F(*args)

        def __instancecheck__(cls, obj):
            return isinstance(obj, F)

    monkeypatch.setattr(polytope, "Fraction", Counting("Fraction", (), {}))
    return built


# vertices (2, 0), (4, 1), (4, 3), (2, 4), (0, 3), (0, 1), with a duplicate
# edge plane at another scale and a redundant plane through a vertex
HEXAGON = ((1, -2, 2), (1, 0, 4), (1, 2, 10), (-1, 2, 6), (-1, 0, 0), (-1, -2, -2),
           (3, 0, 12), (1, 1, 7))


class _Inert(F):
    """A Fraction that refuses arithmetic and comparison."""

    def _refuse(self, *_):
        raise AssertionError("Fraction arithmetic")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse


class TestFractionCount:
    @pytest.mark.parametrize("planes", [
        HEXAGON,
        [tuple(4 * v for v in row) for row in HEXAGON],
        [tuple(F(v, 3) for v in row) for row in HEXAGON],
        [HalfPlane(*(F(5 * v, 7) for v in row)) for row in HEXAGON],  # built directly, not coprime
    ])
    def test_two_per_hull_vertex(self, fractions_built, planes):
        assert len(polygon_from_halfplanes(planes).vertices) == 6
        assert len(fractions_built) == 2 * 6

    def test_contains_builds_none(self, fractions_built):
        hexagon = polygon_from_halfplanes(_planes(*HEXAGON))
        del fractions_built[:]
        # inside, a vertex, an edge point, and just outside two edges
        points = [(2, 2), (4, 3), (0, F(5, 4)), (F(7, 2), F(1, 3)), (F(9, 2), 2)]
        assert [hexagon.contains(pt) for pt in points] == [True, True, True, False, False]
        assert fractions_built == []
        # nor does Fraction arithmetic, which would build its results in ``fractions``
        assert [hexagon.contains(tuple(map(_Inert, pt))) for pt in points] == [True, True, True, False, False]
