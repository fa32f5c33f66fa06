"""Exact rational scalars and polynomial algebra in one and two variables.

Conventions used throughout the package:

* The only scalar type is ``fractions.Fraction`` (arbitrary precision,
  always in lowest terms with positive denominator).
* ``Poly1`` is dense: a tuple of coefficients indexed by degree, with no
  trailing zero (the zero polynomial is the empty tuple).
* ``Poly2`` is sparse: a sorted tuple of ``(deg_x, deg_y, coefficient)``
  triples with no zero coefficients.
* ``FactoredWeight`` keeps a product of affine forms raised to integer
  powers, which is the native shape of every integration weight in this
  package; ``expand`` turns it into a plain polynomial.

Exponents in the hundreds and coefficients with hundreds of digits are
routine here, so nothing in this module may round or truncate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import InvalidParameterError

RationalLike = Union[int, Fraction]
_PIECE = 10 ** 600


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"num"`` into an exact Fraction.

    Dotted notation is rejected on purpose: a string like ``"0.1"`` invites
    silent binary rounding in careless code paths, so callers must spell
    rationals exactly.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise InvalidParameterError(f"rational {_excerpt(text)!r} must be num/den, not a decimal")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(_int(num), _int(den))
        return Fraction(_int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse rational {_excerpt(text)!r}: "
                                    "expected an integer or num/den with den != 0") from exc


def _int(text: str) -> int:
    """int(text) of any length: a signed digit run is read 600 at a time, as ``_digits`` writes it."""
    s = text.strip()
    digits = s[1:] if s[:1] in "+-" else s
    if not digits.isdecimal():
        return int(s)  # raises, or reads a form such as "1_000"
    n = 0
    for i in range(0, len(digits), 600):
        n = n * 10 ** len(digits[i:i + 600]) + int(digits[i:i + 600])
    return -n if s[0] == "-" else n


def _excerpt(text: str) -> str:
    """text, cut to its first 24 characters when it is longer than 48."""
    return text if len(text) <= 48 else f"{text[:24]}... ({len(text)} characters)"


def rational_to_str(value: RationalLike) -> str:
    """Render a rational as ``"num/den"`` (denominator kept even when 1), of any length."""
    f = _as_fraction(value)
    return f"{_digits(f.numerator)}/{_digits(f.denominator)}"


def _digits(n: int) -> str:
    """Decimal digits of n, 600 at a time: under any int-to-str limit (640 at least)."""
    if -_PIECE < n < _PIECE:
        return str(n)
    pieces, rest = [], abs(n)
    while rest >= _PIECE:
        rest, low = divmod(rest, _PIECE)
        pieces.append(f"{low:0600d}")
    return "-" * (n < 0) + str(rest) + "".join(reversed(pieces))


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidParameterError(f"expected an int or Fraction, got {type(value).__name__}")


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n_i and one den > 0 with values[i] == n_i / den."""
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return [v.numerator * (den // q) for v, q in zip(values, dens)], den


def _times(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution of two int sequences, as of polynomial coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------


class Poly1(NamedTuple):
    """Dense univariate polynomial; ``coeffs[i]`` multiplies t^i."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike]) -> "Poly1":
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly1(tuple(cs))

    @staticmethod
    def constant(value: RationalLike) -> "Poly1":
        return Poly1.from_coeffs([value])

    @staticmethod
    def variable() -> "Poly1":
        return Poly1.from_coeffs([0, 1])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly1") -> "Poly1":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly1.from_coeffs(out)

    def __neg__(self) -> "Poly1":
        return Poly1(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly1") -> "Poly1":
        return self + (-other)

    def __mul__(self, other: Union["Poly1", RationalLike]) -> "Poly1":
        if isinstance(other, Poly1):
            if self.is_zero or other.is_zero:
                return Poly1(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, ca in enumerate(self.coeffs):
                if ca == 0:
                    continue
                for j, cb in enumerate(other.coeffs):
                    out[i + j] += ca * cb
            return Poly1.from_coeffs(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "Poly1":
        f = _as_fraction(factor)
        if f == 0:
            return Poly1(())
        return Poly1(tuple(c * f for c in self.coeffs))

    def __pow__(self, exponent: int) -> "Poly1":
        if exponent < 0:
            raise InvalidParameterError("polynomial powers must be nonnegative")
        result = Poly1.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, point: RationalLike) -> Fraction:
        """Horner evaluation at an exact rational point."""
        t = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def compose_affine(self, alpha: RationalLike, beta: RationalLike) -> "Poly1":
        """Substitute t -> alpha*s + beta, returning the polynomial in s."""
        inner = Poly1.from_coeffs([beta, alpha])
        acc = Poly1(())
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly1.constant(c)
        return acc


# ---------------------------------------------------------------------------
# Bivariate polynomials
# ---------------------------------------------------------------------------


def _normalize_terms(items: Iterable[tuple[int, int, Fraction]]) -> tuple[tuple[int, int, Fraction], ...]:
    acc: dict[tuple[int, int], Fraction] = {}
    for i, j, c in items:
        if c == 0:
            continue
        key = (i, j)
        prev = acc.get(key)
        total = c if prev is None else prev + c
        if total == 0:
            acc.pop(key, None)
        else:
            acc[key] = total
    return tuple((i, j, acc[(i, j)]) for i, j in sorted(acc))


class Poly2(NamedTuple):
    """Sparse bivariate polynomial; terms are sorted (deg_x, deg_y, coeff) triples."""

    terms: tuple[tuple[int, int, Fraction], ...]

    @staticmethod
    def from_terms(items: Iterable[tuple[int, int, RationalLike]]) -> "Poly2":
        return Poly2(_normalize_terms((i, j, _as_fraction(c)) for i, j, c in items))

    @staticmethod
    def from_dict(mapping: Mapping[tuple[int, int], RationalLike]) -> "Poly2":
        return Poly2.from_terms((i, j, c) for (i, j), c in mapping.items())

    @staticmethod
    def constant(value: RationalLike) -> "Poly2":
        return Poly2.from_terms([(0, 0, value)])

    @staticmethod
    def variable(axis: int) -> "Poly2":
        if axis == 0:
            return Poly2.from_terms([(1, 0, 1)])
        if axis == 1:
            return Poly2.from_terms([(0, 1, 1)])
        raise InvalidParameterError(f"axis must be 0 or 1, got {axis}")

    @staticmethod
    def monomial(i: int, j: int, coeff: RationalLike = 1) -> "Poly2":
        return Poly2.from_terms([(i, j, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_degrees(self) -> tuple[int, int]:
        """Largest exponent of each variable across all terms ((0, 0) if zero)."""
        dx = max((i for i, _, _ in self.terms), default=0)
        dy = max((j for _, j, _ in self.terms), default=0)
        return dx, dy

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(_normalize_terms(self.terms + other.terms))

    def __neg__(self) -> "Poly2":
        return Poly2(tuple((i, j, -c) for i, j, c in self.terms))

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: Union["Poly2", RationalLike]) -> "Poly2":
        if isinstance(other, Poly2):
            acc: dict[tuple[int, int], Fraction] = {}
            for i1, j1, c1 in self.terms:
                for i2, j2, c2 in other.terms:
                    key = (i1 + i2, j1 + j2)
                    acc[key] = acc.get(key, Fraction(0)) + c1 * c2
            return Poly2.from_dict(acc)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "Poly2":
        f = _as_fraction(factor)
        if f == 0:
            return Poly2(())
        return Poly2(tuple((i, j, c * f) for i, j, c in self.terms))

    def __pow__(self, exponent: int) -> "Poly2":
        if exponent < 0:
            raise InvalidParameterError("polynomial powers must be nonnegative")
        result = Poly2.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x: RationalLike, y: RationalLike) -> Fraction:
        px, py = _as_fraction(x), _as_fraction(y)
        dx, dy = self.max_degrees()
        xpows = _power_table(px, dx)
        ypows = _power_table(py, dy)
        total = Fraction(0)
        for i, j, c in self.terms:
            total += c * xpows[i] * ypows[j]
        return total

    def compose_affine(
        self,
        x_image: tuple[RationalLike, RationalLike, RationalLike],
        y_image: tuple[RationalLike, RationalLike, RationalLike],
    ) -> "Poly2":
        """Substitute (x, y) -> affine images (c0 + c1*s + c2*t for each).

        Each image is given as coefficients ``(c0, c1, c2)`` of the new
        variables (s, t).
        """
        dx, dy = self.max_degrees()
        ximg = affine_power_table(*(_as_fraction(c) for c in x_image), max_exp=dx)
        yimg = affine_power_table(*(_as_fraction(c) for c in y_image), max_exp=dy)
        acc: dict[tuple[int, int], Fraction] = {}
        for i, j, c in self.terms:
            for (a1, b1), c1 in ximg[i].items():
                for (a2, b2), c2 in yimg[j].items():
                    key = (a1 + a2, b1 + b2)
                    acc[key] = acc.get(key, Fraction(0)) + c * c1 * c2
        return Poly2.from_dict(acc)


def _power_table(value: Fraction, max_exp: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(max_exp):
        out.append(out[-1] * value)
    return out


def affine_power_table(
    c0: Fraction, c1: Fraction, c2: Fraction, max_exp: int
) -> list[dict[tuple[int, int], Fraction]]:
    """Expansions of (c0 + c1*s + c2*t)^m for m = 0..max_exp.

    Returned as dicts mapping (deg_s, deg_t) to coefficients.  Zero base
    coefficients are skipped up front, so a power of a pure linear form
    stays as sparse as it should be.
    """
    base: dict[tuple[int, int], Fraction] = {}
    if c0 != 0:
        base[(0, 0)] = c0
    if c1 != 0:
        base[(1, 0)] = c1
    if c2 != 0:
        base[(0, 1)] = c2
    powers = [{(0, 0): Fraction(1)}]
    for _ in range(max_exp):
        prev = powers[-1]
        nxt: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in prev.items():
            for (da, db), f in base.items():
                key = (a + da, b + db)
                val = nxt.get(key)
                nxt[key] = c * f if val is None else val + c * f
        powers.append(nxt)
    return powers


# ---------------------------------------------------------------------------
# Factored weights
# ---------------------------------------------------------------------------


class AffineForm(NamedTuple):
    """Affine form c0 + c1*t (one variable) or c0 + c1*x + c2*y (two variables)."""

    constant: Fraction
    linear: tuple[Fraction, ...]

    @staticmethod
    def of(constant: RationalLike, *linear: RationalLike) -> "AffineForm":
        if len(linear) not in (1, 2):
            raise InvalidParameterError("affine forms must have one or two variables")
        return AffineForm(_as_fraction(constant), tuple(_as_fraction(c) for c in linear))

    @property
    def nvars(self) -> int:
        return len(self.linear)

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        if len(point) != self.nvars:
            raise InvalidParameterError(
                f"affine form has {self.nvars} variable(s), point has {len(point)}"
            )
        total = self.constant
        for c, v in zip(self.linear, point):
            total += c * _as_fraction(v)
        return total

    def as_poly(self) -> Union[Poly1, Poly2]:
        if self.nvars == 1:
            return Poly1.from_coeffs([self.constant, self.linear[0]])
        return Poly2.from_terms(
            [(0, 0, self.constant), (1, 0, self.linear[0]), (0, 1, self.linear[1])]
        )


class FactoredWeight(NamedTuple):
    """prefactor * product of affine forms raised to nonnegative integer powers."""

    prefactor: Fraction
    factors: tuple[tuple[AffineForm, int], ...]
    nvars: int

    @staticmethod
    def of(
        prefactor: RationalLike,
        factors: Iterable[tuple[AffineForm, int]],
        nvars: int | None = None,
    ) -> "FactoredWeight":
        fs = tuple(factors)
        for form, mult in fs:
            if mult < 0:
                raise InvalidParameterError("factor multiplicities must be nonnegative")
        arities = {form.nvars for form, _ in fs}
        if len(arities) > 1:
            raise InvalidParameterError("all factors must share the same variable count")
        if nvars is None:
            if not arities:
                raise InvalidParameterError("variable count is required for an empty factor list")
            nvars = arities.pop()
        elif arities and arities.pop() != nvars:
            raise InvalidParameterError("factor variable count disagrees with nvars")
        return FactoredWeight(_as_fraction(prefactor), fs, nvars)

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        total = self.prefactor
        for form, mult in self.factors:
            total *= form.evaluate(point) ** mult
        return total

    def expand(self) -> Union[Poly1, Poly2]:
        """Multiply everything out; equals the product of factor evaluations everywhere."""
        acc = AffineForm(self.prefactor, (Fraction(0),) * self.nvars).as_poly()
        for form, mult in self.factors:
            acc = acc * form.as_poly() ** mult
        return acc

    def factor_minima(self, points: Iterable[Sequence[RationalLike]]) -> tuple[Fraction, ...]:
        """Minimum of each affine factor over a finite point set.

        Affine forms attain their extrema over a convex hull at the given
        points, so this decides positivity on the hull.
        """
        pts = [tuple(p) for p in points]
        if not pts:
            raise InvalidParameterError("factor_minima requires at least one point")
        return tuple(min(form.evaluate(p) for p in pts) for form, _ in self.factors)
