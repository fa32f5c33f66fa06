"""Quadrature layer, checked against an independent iterated-antiderivative
oracle implemented here and nowhere else."""

import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kstab import criteria, quadrature
from kstab.errors import ContractError, ZeroMassError
from kstab.families import FamilyTag, blpp_resolve, resolve_anticanonical
from kstab.poly import AffineForm, FactoredWeight, Poly1, Poly2
from kstab.polytope import HalfPlane, Polygon, Segment, polygon_from_halfplanes
from kstab.quadrature import (
    barycenter,
    integrate_factored,
    integrate_poly1,
    integrate_poly2_polygon,
    integrate_poly2_triangle,
    moments,
)
from test_halfplane_oracle import _outcome, _small, halfplane_sets

# ---------------------------------------------------------------------------
# Iterated oracle: integrate in y between edge lines, then in x, using only
# elementary list manipulation (no kstab quadrature code).
# ---------------------------------------------------------------------------


def _integ_coeffs(coeffs, lo, hi):
    total = F(0)
    lo_pow, hi_pow = F(lo), F(hi)
    for i, c in enumerate(coeffs):
        total += c * (hi_pow - lo_pow) / (i + 1)
        lo_pow *= lo
        hi_pow *= hi
    return total


def _binom(n, k):
    out = 1
    for i in range(1, k + 1):
        out = out * (n - i + 1) // i
    return out


def integrate_monomial_simplex(a: int, b: int) -> F:
    """Integral of x^a y^b over the standard simplex {x, y >= 0, x + y <= 1}:
    the Dirichlet integral a! b! / (a+b+2)!."""
    return F(factorial(a) * factorial(b), factorial(a + b + 2))


def _poly2_y_antiderivative(f: Poly2):
    return [(i, j + 1, c / (j + 1)) for i, j, c in f.terms]


def _substitute_y_line(terms, b0, b1):
    """Substitute y = b0 + b1*x into sparse (i, j, c) terms; dense x-coeffs out."""
    out = {}
    for i, j, c in terms:
        for m in range(j + 1):
            coeff = c * _binom(j, m) * b0 ** (j - m) * b1 ** m
            out[i + m] = out.get(i + m, F(0)) + coeff
    size = max(out) + 1 if out else 0
    dense = [F(0)] * size
    for deg, c in out.items():
        dense[deg] = c
    return dense


def iterated_polygon_integral(f: Poly2, polygon: Polygon) -> F:
    """Integral of f over a convex polygon by vertical-strip iterated integration."""
    verts = polygon.vertices
    m = len(verts)
    xs = sorted({v[0] for v in verts})
    anti = _poly2_y_antiderivative(f)
    total = F(0)
    for x_lo, x_hi in zip(xs, xs[1:]):
        x_mid = (x_lo + x_hi) / 2
        lines = []
        for idx in range(m):
            v, w = verts[idx], verts[(idx + 1) % m]
            if v[0] == w[0]:
                continue
            if min(v[0], w[0]) <= x_lo and x_hi <= max(v[0], w[0]):
                slope = (w[1] - v[1]) / (w[0] - v[0])
                intercept = v[1] - slope * v[0]
                lines.append((intercept + slope * x_mid, intercept, slope))
        assert len(lines) == 2, "convex polygon must have one lower and one upper edge per strip"
        lines.sort()
        (_, lo0, lo1), (_, hi0, hi1) = lines
        upper = _substitute_y_line(anti, hi0, hi1)
        lower = _substitute_y_line(anti, lo0, lo1)
        size = max(len(upper), len(lower))
        upper += [F(0)] * (size - len(upper))
        lower += [F(0)] * (size - len(lower))
        strip = [u - l for u, l in zip(upper, lower)]
        total += _integ_coeffs(strip, x_lo, x_hi)
    return total


# ---------------------------------------------------------------------------
# Segment integration
# ---------------------------------------------------------------------------


class TestIntegratePoly1:
    def test_constant(self):
        assert integrate_poly1(Poly1.constant(1), Segment.of(0, 1)) == 1

    def test_odd_function(self):
        assert integrate_poly1(Poly1.variable(), Segment.of(-1, 1)) == 0

    def test_centered_cubic_weight(self):
        # x (x+3)^2 (2-x) over [-1, 1]
        x = Poly1.variable()
        f = x * (x + Poly1.constant(3)) ** 2 * (Poly1.constant(2) - x)
        assert integrate_poly1(f, Segment.of(-1, 1)) == F(8, 5)

    def test_degenerate_segment(self):
        assert integrate_poly1(Poly1.from_coeffs([1, 2, 3]), Segment.of(2, 2)) == 0

    def test_high_degree_on_negative_rational_segment(self):
        rng = random.Random(11)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(33)]
        lo, hi = F(-7, 3), F(5, 4)
        assert integrate_poly1(Poly1.from_coeffs(coeffs), Segment.of(lo, hi)) == _integ_coeffs(
            coeffs, lo, hi
        )


# ---------------------------------------------------------------------------
# Factored weights over segments
# ---------------------------------------------------------------------------

_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def _factored_on_segment(draw):
    """A factored weight of 1-4 affine forms and a segment, zero length
    allowed; a form may vanish at an end or at an interior point."""
    lo = draw(_rationals)
    hi = lo + draw(st.one_of(st.just(F(0)), _rationals.map(abs)))
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        slope = draw(_rationals)
        root = draw(st.sampled_from([lo, hi, (lo + 2 * hi) / 3, None]))
        constant = draw(_rationals) if root is None else -slope * root
        factors.append((AffineForm.of(constant, slope), draw(st.integers(0, 12))))
    return FactoredWeight.of(draw(_rationals), factors), Segment.of(lo, hi)


class TestIntegrateFactored:
    @settings(max_examples=300, deadline=None)
    @given(case=_factored_on_segment())
    def test_segment_matches_expanded_weight(self, case):
        weight, segment = case
        expanded = weight.expand()
        value = integrate_factored(weight, segment)
        assert value == integrate_poly1(expanded, segment)
        assert value == _integ_coeffs(expanded.coeffs, segment.lo, segment.hi)

    def test_sign_change_inside(self):
        # (t - 1)^3 over [0, 3] is (2^4 - 1) / 4
        weight = FactoredWeight.of(1, [(AffineForm.of(-1, 1), 3)])
        assert integrate_factored(weight, Segment.of(0, 3)) == F(15, 4)

    def test_no_factors_is_length_times_prefactor(self):
        weight = FactoredWeight.of(F(3, 2), [], nvars=1)
        assert integrate_factored(weight, Segment.of(F(-1, 3), 2)) == F(7, 2)

    def test_blpp_weight_at_high_degree(self):
        inst = resolve_anticanonical(FamilyTag.BLPP, 80, 33)
        assert integrate_factored(inst.weight, inst.domain) == integrate_poly1(
            inst.weight.expand(), inst.domain)

    def test_weight_and_domain_must_share_a_dimension(self):
        square = polygon_from_halfplanes([(-1, 0, 0), (0, -1, 0), (1, 0, 1), (0, 1, 1)])
        with pytest.raises(ContractError):
            integrate_factored(FactoredWeight.of(1, [(AffineForm.of(1, 1, 1), 2)]), Segment.of(0, 1))
        with pytest.raises(ContractError):
            integrate_factored(FactoredWeight.of(1, [(AffineForm.of(1, 1), 2)]), square)

    def test_polygon_edges_equal_expanded_triangles(self):
        inst = resolve_anticanonical(FamilyTag.BLQQ, 9, 4)
        assert integrate_factored(inst.weight, inst.domain) == integrate_poly2_polygon(
            inst.weight.expand(), inst.domain)


@st.composite
def _affine_product_on_polygon(draw):
    """A random polygon, sometimes with an edge through the origin, and a
    rational times 1-4 affine forms: each has random slopes or vanishes at
    the origin and a vertex, and a constant term that is zero, random, or
    makes it vanish at that vertex."""
    for _ in range(10):  # about one random set in four is a polygon
        planes = draw(halfplane_sets())
        if draw(st.booleans()):
            planes.append(HalfPlane.of(*draw(st.tuples(_small, _small).filter(any)), 0))
        polygon = _outcome(polygon_from_halfplanes, planes)
        if isinstance(polygon, Polygon):
            break
    assume(isinstance(polygon, Polygon))
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        x, y = draw(st.sampled_from(polygon.vertices))
        k = draw(_small)
        slopes = (-y * k, x * k) if draw(st.booleans()) else draw(st.tuples(_small, _small))
        constant = draw(st.one_of(st.just(0), _small, st.just(-(slopes[0] * x + slopes[1] * y))))
        factors.append((AffineForm.of(constant, *slopes), draw(st.integers(0, 3))))
    return FactoredWeight.of(draw(_small), factors), polygon


def _far_denominators():
    """A quadrilateral with a vertex over a denominator near 2^40, where the
    planes (2^20 + 1) x + y <= 2^20 + 5 and x + (2^20 + 3) y <= 2^20 + 7 meet,
    and a weight whose factors, one vanishing there, take values at the
    vertices that share divisors with their common denominator."""
    big = 2**20
    polygon = polygon_from_halfplanes([(-1, 0, 0), (0, -1, 0), (big + 1, 1, big + 5), (1, big + 3, big + 7)])
    (x, y), = [v for v in polygon.vertices if v[0].denominator > 2**39]
    weight = FactoredWeight.of(F(3, 7), [(AffineForm.of(-(x + y), 1, 1), 2), (AffineForm.of(0, y, -x), 1),
                                         (AffineForm.of(F(1, 3), F(big, 5), F(-2, 9)), 1)])
    return weight, polygon


class TestEdgeRoute:
    """The edge formula on polygons against the expanded weight integrated by triangles."""

    @settings(max_examples=100, deadline=None)
    @given(case=_affine_product_on_polygon())
    @example(case=_far_denominators())
    def test_random_linear_products_on_random_polygons(self, case):
        weight, polygon = case
        assert integrate_factored(weight, polygon) == integrate_poly2_polygon(weight.expand(), polygon)

    def test_every_family_integral_up_to_forty(self):
        y = AffineForm.of(0, 0, 1)
        count = 0
        for tag in FamilyTag:
            if tag.dimension != 2:
                continue
            for n in range(tag.min_n, 41):
                for p in tag.p_values(n):
                    inst = resolve_anticanonical(tag, n, p)
                    extras = inst._moment_extras
                    if tag is FamilyTag.QUAD_PT:
                        extras += [((y, 1),), ((y, 2),)]  # the u-moments of ``mabuchi``
                    for weight, value in zip(inst._weights(extras), inst.integrals(extras)):
                        assert value == integrate_poly2_polygon(weight.expand(), inst.domain)
                        count += 1
        assert count == 2286

    def test_affine_extras_split_into_linear_pieces(self):
        inst = resolve_anticanonical(FamilyTag.QUAD_PT, 9)
        u = AffineForm.of(0, 1, 0)  # x - target, with target = (5, 0)
        extras = [((u, 1),), ((u, 3), (AffineForm.of(2, 1, -1), 1))]
        for weight, value in zip(inst._weights(extras), inst.integrals(extras)):
            assert any(form.constant for form, _ in weight.factors)
            assert value == integrate_poly2_polygon(weight.expand(), inst.domain)


# Generators of GL(2, Z) with their inverses: shears, the swap and negations.
_SWAP = ((0, 1), (1, 0))
_NEGATIONS = (((-1, 0), (0, 1)), ((1, 0), (0, -1)))


def _times_matrix(m, n):
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)) for i in range(2))


@st.composite
def _unimodular(draw):
    """An integer matrix A with det +-1 and its inverse, as a product of generators."""
    a = a_inv = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("upper", "lower", "swap", "negation")))
        t = draw(st.integers(-3, 3))
        if kind == "upper":
            g, g_inv = ((1, t), (0, 1)), ((1, -t), (0, 1))
        elif kind == "lower":
            g, g_inv = ((1, 0), (t, 1)), ((1, 0), (-t, 1))
        else:
            g = g_inv = _SWAP if kind == "swap" else draw(st.sampled_from(_NEGATIONS))
        a, a_inv = _times_matrix(g, a), _times_matrix(a_inv, g_inv)
    assert _times_matrix(a, a_inv) == ((1, 0), (0, 1))
    return a, a_inv


class TestUnimodularInvariance:
    """An integer map A with det +-1 keeps areas, so the integral of w over P
    equals that of w o A^-1 over A P, whose planes are (a, b) A^-1 <= c.  A
    fault that is the same along each line, which chord splits cannot see,
    changes one side of this equation and not the other."""

    @settings(max_examples=150, deadline=None)
    @given(case=_affine_product_on_polygon(), matrix=_unimodular())
    @example(case=_far_denominators(), matrix=(((1, 2), (0, 1)), ((1, -2), (0, 1))))
    def test_integral_is_invariant(self, case, matrix):
        weight, polygon = case
        _, a_inv = matrix

        def pulled_back(row):  # the row vector (u, v) times A^-1
            return tuple(row[0] * a_inv[0][j] + row[1] * a_inv[1][j] for j in range(2))

        image = polygon_from_halfplanes([(*pulled_back((hp.a, hp.b)), hp.c) for hp in polygon.halfplanes])
        moved = FactoredWeight.of(weight.prefactor, [(AffineForm.of(form.constant, *pulled_back(form.linear)),
                                                      mult) for form, mult in weight.factors])
        assert len(image.vertices) == len(polygon.vertices)
        assert integrate_factored(moved, image) == integrate_factored(weight, polygon)


def _at(s, start, end):
    return start + s * (end - start)


@st.composite
def _factored_along(draw):
    """Two factored weights over segments with the same prefactor, slopes
    and multiplicities, and a parameter s in [0, 1]."""
    weight, segment = draw(_factored_on_segment())
    lo = draw(_rationals)
    moved = FactoredWeight.of(weight.prefactor, [(AffineForm.of(draw(_rationals), *form.linear), mult)
                                                 for form, mult in weight.factors])
    den = draw(st.integers(1, 2**40))
    s = draw(st.one_of(st.sampled_from([F(0), F(1)]), st.integers(0, den).map(lambda a: F(a, den))))
    return weight, segment, moved, Segment.of(lo, lo + draw(_rationals.map(abs))), s


class TestIntegrateFactoredAlong:
    """The segment formula in s, sampled and interpolated, against the scalar one at the
    interpolated weight and segment."""

    @settings(max_examples=200, deadline=None)
    @given(case=_factored_along())
    def test_polynomial_equals_the_integral_at_every_parameter(self, case):
        start, start_segment, end, end_segment, s = case
        coeffs, den = quadrature.integrate_factored_along(start, start_segment, end, end_segment)
        weight = FactoredWeight.of(start.prefactor, [
            (AffineForm.of(_at(s, f.constant, g.constant), *f.linear), mult)
            for (f, mult), (g, _) in zip(start.factors, end.factors)])
        segment = Segment.of(_at(s, start_segment.lo, end_segment.lo),
                             _at(s, start_segment.hi, end_segment.hi))
        assert F(sum(c * s**i for i, c in enumerate(coeffs)), den) == integrate_factored(weight, segment)

    def test_no_factors_is_the_moving_length(self):
        weight = FactoredWeight.of(F(3, 2), [], nvars=1)
        coeffs, den = quadrature.integrate_factored_along(weight, Segment.of(0, 1), weight, Segment.of(-1, 3))
        assert (coeffs, den) == ([3, 9], 2)

    @pytest.mark.parametrize("end", [
        FactoredWeight.of(1, [(AffineForm.of(2, 1), 2), (AffineForm.of(1, 1), 1)]),
        FactoredWeight.of(1, [(AffineForm.of(5, -1), 3), (AffineForm.of(1, 1), 1)]),
        FactoredWeight.of(1, [(AffineForm.of(5, -1), 2)]),
        FactoredWeight.of(2, [(AffineForm.of(5, -1), 2), (AffineForm.of(1, 1), 1)]),
    ], ids=["slope", "multiplicity", "factor-count", "prefactor"])
    def test_weights_that_do_not_move_affinely_are_refused(self, end):
        start = FactoredWeight.of(1, [(AffineForm.of(2, -1), 2), (AffineForm.of(1, 1), 1)])
        with pytest.raises(ContractError):
            quadrature.integrate_factored_along(start, Segment.of(0, 1), end, Segment.of(0, 2))


def _value(coeffs, den, s):
    return F(sum(c * s**i for i, c in enumerate(coeffs)), den)


class TestSampledSegmentFormula:
    """``integrate_factored_along`` reads its polynomial off the integer segment
    kernel at M + 1 integers around 0, outside [0, 1] too, where a factor may
    vanish at an end, the segment may shrink to a point or two factors may meet."""

    @pytest.mark.parametrize("s", [F(0), F(1), F(1, 3), F(2**40 - 3, 2**40)], ids=["0", "1", "1/3", "over-2^40"])
    def test_coupled_moment_polynomials_at_k_20(self, s):
        # the default coupled segment at the largest k that verify's criterion 5 reaches
        k = 20
        start, end = criteria.coupled_default_endpoints(k)
        for a, b in ((start, end), (criteria.coupled_complement(k, start), criteria.coupled_complement(k, end))):
            first, last = blpp_resolve(2 * k + 1, k, a), blpp_resolve(2 * k + 1, k, b)
            member = blpp_resolve(2 * k + 1, k, tuple(_at(s, x, y) for x, y in zip(a, b)))
            expected = [integrate_factored(w, member.domain) for w in member._weights(member._moment_extras)]
            assert [_value(*poly, s) for poly in first.moments_along(last)] == expected

    def test_special_ends_at_the_samples(self, monkeypatch):
        # on [0, 1 + s]: at s = 1, 1 - s + t vanishes at lo and 2 - t at hi, and 2 + s + t meets 3 + t;
        # at s = -1 the segment is a point, so every factor has equal ends; 5 + 0 t never moves
        slopes = [(1, 2), (-1, 1), (1, 2), (1, 1), (0, 1)]
        consts = [(1, 0), (2, 2), (3, 3), (2, 3), (5, 5)]

        def weight(i):
            return FactoredWeight.of(F(3, 2), [(AffineForm.of(c[i], a), m) for c, (a, m) in zip(consts, slopes)])

        kernel, seen = quadrature._unit_integral, []

        def recording(ends, *args):
            seen.append([(u, v) for u, v, _ in ends])
            return kernel(ends, *args)

        monkeypatch.setattr(quadrature, "_unit_integral", recording)
        coeffs, den = quadrature.integrate_factored_along(weight(0), Segment.of(0, 1), weight(1), Segment.of(0, 2))
        assert len(seen) == 8  # M = 7
        assert any(0 in pair for ends in seen for pair in ends[:2])
        assert any(all(u == v for u, v in ends) for ends in seen)
        assert any(ends[2] == ends[3] for ends in seen)
        for s in (F(-1), F(0), F(1), F(1, 3), F(4), F(7, 2**40)):
            at_s = FactoredWeight.of(F(3, 2), [(AffineForm.of(_at(s, *c), a), m) for c, (a, m) in zip(consts, slopes)])
            assert _value(coeffs, den, s) == integrate_factored(at_s, Segment.of(0, 1 + s))


# ---------------------------------------------------------------------------
# Simplex and triangle integration
# ---------------------------------------------------------------------------


class TestSimplexMoments:
    def test_area(self):
        assert integrate_monomial_simplex(0, 0) == F(1, 2)

    def test_centroid(self):
        assert integrate_monomial_simplex(1, 0) == F(1, 6)

    def test_iterated_oracle_value(self):
        # integral over the standard simplex of x^2 y^3 dy dx
        # = integral_0^1 x^2 (1-x)^4 / 4 dx = 1/420 by termwise expansion
        inner = [F(_binom(4, i) * (-1) ** i, 4) for i in range(5)]
        coeffs = [F(0)] * 2 + inner  # multiply by x^2
        assert _integ_coeffs(coeffs, 0, 1) == F(1, 420)
        assert integrate_monomial_simplex(2, 3) == F(1, 420)


_terms = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7),
              st.builds(F, st.integers(-30, 30), st.integers(1, 40))),
    min_size=1, max_size=6,
)
_leg = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 12))


class TestSimplexTermSum:
    """The integer term sum against the closed form on the standard simplex.

    Over the right triangle with legs r and s on the axes, x = r u and y = s v
    turn the integral of x^i y^j into |r s| r^i s^j times that of u^i v^j over
    the standard simplex, which ``integrate_monomial_simplex`` gives as
    i! j! / (i+j+2)!.  Terms of mixed degrees and coefficient denominators,
    over legs with their own denominators, exercise every factor of the one
    common denominator.
    """

    @settings(max_examples=300, deadline=None)
    @given(_terms, _leg, _leg)
    def test_matches_monomial_closed_form(self, terms, r, s):
        f = Poly2.from_terms(terms)
        expected = sum((c * abs(r * s) * r**i * s**j * integrate_monomial_simplex(i, j)
                        for i, j, c in f.terms), F(0))
        assert integrate_poly2_triangle(f, ((0, 0), (r, 0), (0, s))) == expected

    def test_mixed_denominators_by_hand(self):
        # 1/2 + x/3 - (5/7) x y^2 over the standard simplex:
        # 1/2 * 1/2 + 1/3 * 1/6 - 5/7 * 2/120 = 1/4 + 1/18 - 1/84
        f = Poly2.from_terms([(0, 0, F(1, 2)), (1, 0, F(1, 3)), (1, 2, F(-5, 7))])
        tri = ((0, 0), (1, 0), (0, 1))
        assert integrate_poly2_triangle(f, tri) == F(1, 4) + F(1, 18) - F(1, 84)

    def test_zero_polynomial_integrates_to_zero(self):
        tri = ((0, 0), (F(1, 3), 0), (0, F(2, 5)))
        assert integrate_poly2_triangle(Poly2.from_terms([]), tri) == 0

    def test_degenerate_triangle_is_a_contract_breach(self):
        # no polygon fans into a flat triangle, and one passed by hand must
        # not be integrated, whatever the polynomial
        flat = ((0, 0), (1, 1), (2, 2))
        for f in (Poly2.from_terms([]), Poly2.monomial(1, 2)):
            with pytest.raises(ContractError):
                integrate_poly2_triangle(f, flat)


class TestTriangleIntegration:
    def test_area_of_scaled_simplex(self):
        tri = ((0, 0), (2, 0), (0, 2))
        assert integrate_poly2_triangle(Poly2.constant(1), tri) == 2

    def test_first_moment_unit_simplex(self):
        tri = ((0, 0), (1, 0), (0, 1))
        assert integrate_poly2_triangle(Poly2.variable(0), tri) == F(1, 6)

    def test_iterated_oracle_monomial(self):
        # integral over {0<=y<=x<=1} of x^2 y^3 = 1/28 by iterated antiderivatives
        tri = ((0, 0), (1, 0), (1, 1))
        f = Poly2.monomial(2, 3)
        assert integrate_poly2_triangle(f, tri) == F(1, 28)

    def test_matches_compose_route(self):
        # the vertex formula must agree with the change of variables onto the
        # standard simplex plus termwise simplex moments, also at high degree
        # on vertices whose coordinates have coprime denominators
        rng = random.Random(5)
        high = Poly2.from_terms(
            [(i, 30 - i, F(rng.randint(-9, 9), rng.randint(1, 9))) for i in range(0, 31, 3)]
            + [(7, 2, F(-5, 2)), (0, 0, 1)]
        )
        cases = [
            (((F(1, 2), -1), (3, F(1, 3)), (1, 2)),
             Poly2.from_terms([(2, 1, F(3, 4)), (0, 3, -2), (1, 0, 5)])),
            (((F(1, 3), F(-2, 7)), (F(9, 10), F(1, 3)), (F(-3, 7), F(7, 10))), high),
        ]
        for tri, f in cases:
            (x0, y0), (x1, y1), (x2, y2) = tri
            composed = f.compose_affine((x0, x1 - x0, x2 - x0), (y0, y1 - y0, y2 - y0))
            jac = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
            by_compose = jac * sum(
                (c * integrate_monomial_simplex(i, j) for i, j, c in composed.terms), F(0)
            )
            assert integrate_poly2_triangle(f, tri) == by_compose

    def test_orientation_irrelevant(self):
        f = Poly2.from_terms([(1, 1, 1), (0, 0, F(1, 3))])
        a = ((0, 0), (2, 1), (1, 3))
        b = ((0, 0), (1, 3), (2, 1))
        assert integrate_poly2_triangle(f, a) == integrate_poly2_triangle(f, b)


# ---------------------------------------------------------------------------
# Polygon integration
# ---------------------------------------------------------------------------


def trapezoid_domain(k: int, l: int) -> Polygon:
    """The polygon with vertices (0, 0), (k, 0), (k, l), (0, k + l)."""
    return polygon_from_halfplanes([HalfPlane.of(-1, 0, 0), HalfPlane.of(0, -1, 0),
                                    HalfPlane.of(1, 0, k), HalfPlane.of(1, 1, k + l)])


def unit_square() -> Polygon:
    return polygon_from_halfplanes([HalfPlane.of(-1, 0, 0), HalfPlane.of(1, 0, 1),
                                    HalfPlane.of(0, -1, 0), HalfPlane.of(0, 1, 1)])


def scaled(domain: Polygon, lam: F) -> Polygon:
    """The domain stretched by lam about the origin: each plane's c scales."""
    return polygon_from_halfplanes([HalfPlane.of(hp.a, hp.b, lam * hp.c) for hp in domain.halfplanes])


class TestPolygonIntegration:
    def test_quadric_blowup_x_test_value(self):
        # (x - 2) x^2 y over {0 <= x <= 3, 0 <= y, x + y <= 5}
        f = (Poly2.variable(0) - Poly2.constant(2)) * Poly2.monomial(2, 1)
        domain = trapezoid_domain(3, 2)
        assert integrate_poly2_polygon(f, domain) == F(-9, 40)
        assert iterated_polygon_integral(f, domain) == F(-9, 40)

    def test_unit_square(self):
        square = unit_square()
        assert integrate_poly2_polygon(Poly2.constant(1), square) == 1

    def test_exceptional_quadric_barycenter(self):
        inst = resolve_anticanonical(FamilyTag.QUAD_E, 5)
        w = inst.weight.expand()
        assert barycenter(w, inst.domain)[0] == F(6, 5)

    def test_iterated_oracle_on_family_domains(self):
        for n in range(6, 13):
            for p in range(3, n - 2):
                inst = resolve_anticanonical(FamilyTag.BLQQ, n, p)
                w = inst.weight.expand()
                f = w * Poly2.variable(0)
                assert integrate_poly2_polygon(f, inst.domain) == iterated_polygon_integral(
                    f, inst.domain
                )
        for tag in (FamilyTag.QUAD_E, FamilyTag.QUAD_PT, FamilyTag.QUAD_PM):
            for n in range(5, 13):
                inst = resolve_anticanonical(tag, n)
                w = inst.weight.expand()
                for f in (w, w * Poly2.variable(1)):
                    assert integrate_poly2_polygon(f, inst.domain) == iterated_polygon_integral(
                        f, inst.domain
                    )

    def test_additivity_under_chord(self):
        domain = trapezoid_domain(3, 2)
        chord = HalfPlane.of(1, -2, 1)
        flipped = HalfPlane.of(-1, 2, -1)
        part_one = polygon_from_halfplanes(domain.halfplanes + (chord,))
        part_two = polygon_from_halfplanes(domain.halfplanes + (flipped,))
        f = Poly2.from_terms([(2, 1, 1), (0, 2, F(-1, 3)), (1, 0, 7)])
        whole = integrate_poly2_polygon(f, domain)
        assert whole == integrate_poly2_polygon(f, part_one) + integrate_poly2_polygon(f, part_two)

    def test_scaling_covariance(self):
        lam = F(3, 2)
        domain = trapezoid_domain(2, 2)
        f = Poly2.from_terms([(2, 0, 1), (1, 1, F(1, 2)), (0, 0, -3)])
        f_pulled_back = f.compose_affine((0, lam, 0), (0, 0, lam))
        assert integrate_poly2_polygon(f, scaled(domain, lam)) == lam ** 2 * integrate_poly2_polygon(
            f_pulled_back, domain
        )

    def test_barycenter_scaling_covariance(self):
        # homogeneous weights rescale barycenters linearly
        lam = F(5, 2)
        domain = trapezoid_domain(2, 3)
        w = Poly2.monomial(2, 1)
        bx, by = barycenter(w, domain)
        assert barycenter(w, scaled(domain, lam)) == (lam * bx, lam * by)

    def test_random_small_cases_match_oracle(self):
        rng = random.Random(7)
        domain = resolve_anticanonical(FamilyTag.QUAD_PM, 7).domain
        for _ in range(25):
            terms = [
                (rng.randint(0, 5), rng.randint(0, 5), F(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(4)
            ]
            f = Poly2.from_terms(terms)
            assert integrate_poly2_polygon(f, domain) == iterated_polygon_integral(f, domain)

    def test_one_area_per_triangle(self, monkeypatch):
        # integration computes each fan triangle's doubled area once, and
        # the triangulation computes none
        domain = resolve_anticanonical(FamilyTag.QUAD_PM, 7).domain
        calls = []
        cross = quadrature._cross

        def counting(*points):
            calls.append(points)
            return cross(*points)

        monkeypatch.setattr(quadrature, "_cross", counting)
        f = Poly2.from_terms([(2, 1, 1), (0, 0, F(1, 3))])
        assert integrate_poly2_polygon(f, domain) == iterated_polygon_integral(f, domain)
        assert len(calls) == len(domain.vertices) - 2 == 3


class TestMomentsAndBarycenter:
    def test_unit_square_centroid(self):
        square = unit_square()
        assert barycenter(Poly2.constant(1), square) == (F(1, 2), F(1, 2))

    def test_positive_mass_across_families(self):
        # interior-positive factored weights must have positive mass
        instances = [resolve_anticanonical(FamilyTag.BLQQ, n, p)
                     for n in range(6, 11) for p in range(3, n - 2)]
        instances += [resolve_anticanonical(tag, n)
                      for tag in (FamilyTag.QUAD_E, FamilyTag.QUAD_PT, FamilyTag.QUAD_PM)
                      for n in range(5, 11)]
        for inst in instances:
            assert moments(inst.weight.expand(), inst.domain).mass > 0

    def test_symmetric_weight_zero_y_moment(self):
        inst = resolve_anticanonical(FamilyTag.QUAD_E, 7)
        w = inst.weight.expand()
        assert barycenter(w, inst.domain)[1] == 0

    def test_zero_mass_is_an_error(self):
        square = polygon_from_halfplanes([HalfPlane.of(-1, 0, 0), HalfPlane.of(1, 0, 1),
                                          HalfPlane.of(0, -1, 1), HalfPlane.of(0, 1, 1)])
        odd_weight = Poly2.variable(1)
        with pytest.raises(ZeroMassError):
            barycenter(odd_weight, square)
