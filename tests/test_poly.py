"""Scalar and polynomial layer: frozen oracle values plus algebraic properties."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.errors import InvalidParameterError
from kstab.polytope import Segment
from kstab.quadrature import integrate_factored
from kstab.poly import (
    AffineForm,
    FactoredWeight,
    Poly1,
    Poly2,
    rational_from_str,
    rational_to_str,
)


def pascal_binomial(n: int, k: int) -> int:
    """Pascal-triangle oracle, independent of the production implementation."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def brute_beta(a: int, b: int) -> F:
    """Expand t^(a-1) (1-t)^(b-1) by the binomial theorem, integrate termwise."""
    total = F(0)
    for i in range(b):
        coeff = pascal_binomial(b - 1, i) * (-1) ** i
        total += F(coeff, a + i)  # integral of t^(a-1+i) over [0, 1]
    return total


def beta_int(a: int, b: int) -> F:
    """The beta integral of t^(a-1) (1-t)^(b-1) over [0, 1], as the factored
    segment integrator computes it."""
    weight = FactoredWeight.of(1, [(AffineForm.of(0, 1), a - 1), (AffineForm.of(1, -1), b - 1)])
    return integrate_factored(weight, Segment.of(0, 1))


class TestBetaInt:
    """Beta integrals at positive integers through ``integrate_factored``,
    against exact values and the termwise expansion ``brute_beta``."""

    def test_constant_integrand(self):
        assert beta_int(1, 1) == 1

    def test_linear_integrand(self):
        assert beta_int(2, 1) == F(1, 2)

    def test_brute_force_oracle(self):
        assert beta_int(4, 3) == brute_beta(4, 3) == F(1, 60)

    def test_matches_brute_force_everywhere(self):
        for a in range(1, 9):
            for b in range(1, 9):
                assert beta_int(a, b) == brute_beta(a, b)

    def test_symmetry(self):
        for a in range(1, 21):
            for b in range(1, 21):
                assert beta_int(a, b) == beta_int(b, a)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidParameterError):
            beta_int(0, 1)
        with pytest.raises(InvalidParameterError):
            beta_int(2, -1)


class TestExpand:
    def test_square_of_affine(self):
        w = FactoredWeight.of(1, [(AffineForm.of(1, 1), 2)])
        assert w.expand() == Poly1.from_coeffs([1, 2, 1])

    def test_hand_multiplication(self):
        # (t + 2)(2 - t) = 4 - t^2
        w = FactoredWeight.of(1, [(AffineForm.of(2, 1), 1), (AffineForm.of(2, -1), 1)])
        assert w.expand() == Poly1.from_coeffs([4, 0, -1])

    def test_empty_factor_list(self):
        w = FactoredWeight.of(5, [], nvars=1)
        assert w.expand() == Poly1.constant(5)

    def test_two_variable_expand(self):
        # x * y as a factored weight
        w = FactoredWeight.of(1, [(AffineForm.of(0, 1, 0), 1), (AffineForm.of(0, 0, 1), 1)])
        assert w.expand() == Poly2.from_terms([(1, 1, 1)])


class TestPolyOps:
    def test_variable_squared(self):
        t = Poly1.variable()
        assert t * t == Poly1.from_coeffs([0, 0, 1])

    def test_substitute_shift(self):
        t_squared = Poly1.from_coeffs([0, 0, 1])
        assert t_squared.compose_affine(1, 1) == Poly1.from_coeffs([1, 2, 1])

    def test_power_matches_repeated_multiplication(self):
        base = Poly1.from_coeffs([1, -1])
        by_power = base ** 3
        by_mult = base * base * base
        assert by_power == by_mult == Poly1.from_coeffs([1, -3, 3, -1])

    def test_zero_polynomial_normalized(self):
        assert Poly1.from_coeffs([0, 0]).is_zero
        assert Poly1.from_coeffs([1, 0]).degree == 0

    def test_poly2_normalization(self):
        p = Poly2.from_terms([(1, 0, 1), (1, 0, -1), (0, 0, 3)])
        assert p == Poly2.constant(3)

    def test_poly2_compose_affine(self):
        # substitute x -> s + t, y -> s - t into x*y gives s^2 - t^2
        xy = Poly2.from_terms([(1, 1, 1)])
        composed = xy.compose_affine((0, 1, 1), (0, 1, -1))
        assert composed == Poly2.from_terms([(2, 0, 1), (0, 2, -1)])

    def test_scalar_multiply(self):
        p = Poly1.from_coeffs([1, 2])
        assert p.scale(F(1, 2)) == Poly1.from_coeffs([F(1, 2), 1])
        assert 2 * Poly2.variable(0) == Poly2.from_terms([(1, 0, 2)])


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def poly1s(draw, max_degree=5):
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_degree + 1))
    return Poly1.from_coeffs(coeffs)


@st.composite
def factored_weights(draw):
    # total degree capped at 40
    n_factors = draw(st.integers(min_value=0, max_value=4))
    remaining = 40
    factors = []
    for _ in range(n_factors):
        c0 = draw(rationals)
        c1 = draw(rationals.filter(lambda v: v != 0))
        mult = draw(st.integers(min_value=0, max_value=min(10, remaining)))
        remaining -= mult
        factors.append((AffineForm.of(c0, c1), mult))
    prefactor = draw(rationals)
    return FactoredWeight.of(prefactor, factors, nvars=1)


@settings(max_examples=60, deadline=None)
@given(factored_weights(), st.lists(rationals, min_size=5, max_size=5))
def test_expand_matches_factor_product(weight, points):
    expanded = weight.expand()
    for point in points:
        assert expanded.evaluate(point) == weight.evaluate((point,))


@settings(max_examples=60, deadline=None)
@given(poly1s(), poly1s(), poly1s(), rationals)
def test_ring_axioms_at_points(a, b, c, point):
    assert ((a * b) * c).evaluate(point) == (a * (b * c)).evaluate(point)
    assert (a * (b + c)).evaluate(point) == (a * b + a * c).evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


@settings(max_examples=40, deadline=None)
@given(poly1s())
def test_identity_substitution(p):
    assert p.compose_affine(1, 0) == p


def test_rational_round_trip():
    assert rational_from_str("8/5") == F(8, 5)
    assert rational_from_str("-3") == F(-3)
    assert rational_to_str(F(8, 5)) == "8/5"
    assert rational_to_str(3) == "3/1"


def test_rational_to_str_has_no_digit_limit():
    # 4400 digits, past the interpreter's int-to-str limit of 4300
    assert rational_to_str(F(10 ** 4399 + 3, 7)) == "1" + "0" * 4398 + "3/7"
    assert rational_to_str(F(-1, 10 ** 4399)) == "-1/1" + "0" * 4399


def test_rational_round_trip_has_no_digit_limit():
    # 4400-digit numerator and denominator, read back 600 digits at a time
    for x in (F(10 ** 4399 + 3, 10 ** 4399 + 7), F(-(10 ** 4399) - 1, 7 * 10 ** 4399 + 3)):
        assert rational_from_str(rational_to_str(x)) == x
    assert rational_from_str(" +" + "1" * 1201 + " ") == int("1" * 1201)


@pytest.mark.parametrize("text", [
    "9" * 4999 + "x", "--" + "1" * 4998, "1" * 2500 + " " + "1" * 2499, "1" * 4998 + "/0",
], ids=["trailing letter", "two signs", "inner space", "zero denominator"])
def test_malformed_long_rational_gets_a_short_message(text):
    with pytest.raises(InvalidParameterError) as info:
        rational_from_str(text)
    assert len(str(info.value)) < 200 and "(5000 characters)" in str(info.value)


def test_rational_rejects_decimals():
    with pytest.raises(InvalidParameterError):
        rational_from_str("0.5")
    with pytest.raises(InvalidParameterError):
        rational_from_str("1e3")
