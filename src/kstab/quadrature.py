"""Exact integration of factored weights over segments and polygons, and of
polynomials over segments and triangles.

``integrate_factored`` takes a weight kept as c * prod l_j^m_j, never
multiplies it out, and sums over the edges of its domain.  The segment
formula is the vertex formula of a simplex (below) with d = 1, applied to
the affine factors instead of monomials: with u_j = l_j(lo), v_j = l_j(hi)
and M = sum m_j,

    integral over [lo, hi]  =  c (hi - lo) / (M+1)! * sum_K K! (M-K)! b_K,

where b is the convolution over j of the sequences C(m_j, k) u_j^(m_j-k) v_j^k,
k = 0..m_j.  A factor that is constant on the segment, or zero at one end, is
a single term, and a lone factor is a closed form.  A product f of linear
forms is homogeneous of degree M, and Lasserre's edge formula ("Integration
on a convex polytope", Proc. AMS 126 (1998)) integrates it over a polygon
from the boundary alone:

    integral over P of f  =  1/(2+M) * sum over edges v -> w of det(v, w) * integral_0^1 f(v + s(w-v)) ds.

So one edge sum, sum_e coef_e times the segment formula at the edge's ends,
serves both: a segment is one edge lo -> hi with coef = hi - lo, and a
polygon's edges carry det(v, w), which is zero for an edge through the
origin.  On a polygon a factor (l + k)^m with a constant k != 0 is first
split into its linear pieces C(m, i) k^(m-i) l^i, at most m + 1 of them.

The sum runs in ints: ``poly._factor_values`` puts the points over one
denominator D and each factor's values over the least denominator they
share, so the ends of a bisected divisor class, with denominators near
2^40, cost no more than their values, and each integral builds one
Fraction, dividing by (M+d)! D^d and each factor's denominator to its power.

``integrate_factored_along`` moves the segment ends and factor constants
affinely in s, so every u_j and v_j is affine in s and (M+1)! times the integral
over [0, 1] is an integer polynomial of degree M in s: the segment kernel samples
it at the M + 1 integers centred on 0, and Newton's forward differences interpolate.

The routes for the polynomial classes stay: ``integrate_poly1``, the
``integrate_poly2_*`` pair on fan triangles, ``moments``, ``barycenter``,
``moments1`` and ``barycenter1``.  Criterion 7's fan-root check integrates by
triangles; everything else that uses them is a test oracle or the
benchmark's tracer.  They rest on one vertex formula for a simplex
(Baldoni, Berline, De Loera, Köppe and Vergne, "How to integrate a polynomial
over a simplex", Math. Comp. 80 (2011)): over a d-simplex with vertices
v_0..v_d,

    integral of x^i y^j  =  d! vol * i! j! / (i+j+d)! * h_ij,

where h_ij is the coefficient of s^i t^j in the product over the vertices
of 1 / (1 - x_v s - y_v t).  Only the vertex coordinates enter: there is no
change of variables.

Everything is a pure function of exact rationals; nothing here rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import ContractError, ZeroMassError
from .poly import AffineForm, FactoredWeight, Poly1, Poly2, _factor_values, _over_common_denominator, _times
from .polytope import Point, Polygon, Segment, _cross, triangulate


def _integrate_simplex(
    terms: Sequence[tuple[int, int, Fraction]], vertices: Sequence[Point], scale: Fraction
) -> Fraction:
    """Integral of the sum of c x^i y^j, (i, j, c) in ``terms``, over the
    simplex with these vertices; ``scale`` is d! times its volume.

    Everything runs in integers, with one division per simplex.  h is built
    over the vertices' common denominator den, one vertex at a time: dividing
    by 1 - x s - y t is h[i][j] += x h[i-1][j] + y h[i][j-1].  Each term's
    i! j! h_ij / ((i+j+d)! den^(i+j)) is then put over the one denominator
    lc (top+d)! den^top, where top is the largest degree and lc the lcm of the
    coefficients' denominators, and the numerators are summed.
    """
    if not terms:
        return Fraction(0)
    d = len(vertices) - 1
    coords, den = _over_common_denominator([c for v in vertices for c in v])
    top = max(i + j for i, j, _ in terms)
    dy = max(j for _, j, _ in terms)
    h = [[0] * (min(dy, top - i) + 1) for i in range(max(i for i, _, _ in terms) + 1)]
    h[0][0] = 1
    for x, y in zip(coords[::2], coords[1::2]):
        for i, row in enumerate(h):
            prev = h[i - 1] if i else [0] * len(row)
            row[0] += x * prev[0]
            for j in range(1, len(row)):
                row[j] += x * prev[j] + y * row[j - 1]
    lc = lcm(*(c.denominator for _, _, c in terms))
    full = factorial(top + d)
    total = 0
    for i, j, c in terms:
        k = i + j
        total += (c.numerator * (lc // c.denominator) * factorial(i) * factorial(j) * h[i][j]
                  * (full // factorial(k + d)) * den ** (top - k))
    return Fraction(scale.numerator * total, scale.denominator * lc * full * den**top)


def integrate_poly1(f: Poly1, segment: Segment) -> Fraction:
    """Integral of f over [lo, hi]: the vertex formula with d = 1."""
    lo, hi = segment.lo, segment.hi
    terms = [(i, 0, c) for i, c in enumerate(f.coeffs) if c]
    return _integrate_simplex(terms, ((lo, Fraction(0)), (hi, Fraction(0))), hi - lo)


def _bernstein_terms(u: int, v: int, m: int) -> list[int]:
    """C(m, k) u^(m-k) v^k for k = 0..m, the coefficients of ((1 - s) u + s v)^m
    on (1 - s)^(m-k) s^k."""
    u_pows = [1]
    for _ in range(m):
        u_pows.append(u_pows[-1] * u)
    out, binomial, v_pow = [], 1, 1
    for k in range(m + 1):
        out.append(binomial * u_pows[m - k] * v_pow)
        binomial = binomial * (m - k) // (k + 1)
        v_pow *= v
    return out


def _factorials(top: int) -> list[int]:
    """0!, 1!, ..., top!."""
    facts = [1]
    for k in range(1, top + 1):
        facts.append(facts[-1] * k)
    return facts


def _unit_integral(ends: Sequence[tuple[int, int, int]], facts: Sequence[int],
                   weights: dict[int, list[int]]) -> int:
    """(M + 1)! times the integral over [0, 1] of the product of
    ((1 - s) u + s v)^m over ``ends`` = (u, v, m), in ints, with M the sum of
    the m, ``facts`` the factorials 0!..(M+1)! and ``weights`` the caller's
    memo of the vertex weights K! (D-K)!, K = 0..D, by degree D.

    A factor that is constant on [0, 1] is a scalar, one that vanishes at an
    end is a power of s or of 1 - s, and factors with equal ends merge.  The
    rest is the factored vertex formula: with b the convolution of their
    ``_bernstein_terms``, shifted by the power of s, the integral is
    sum_K K! (D-K)! b_K / (D+1)! for the degree D left, and the longest
    sequence is contracted with the weights instead of convolved.  One such
    factor alone is the closed form (v^(m+1) - u^(m+1)) / ((m+1) (v-u)).
    """
    scalar, lead, trail, general = 1, 0, 0, {}
    for u, v, m in ends:
        if not m:
            continue
        if u == v:
            scalar *= u**m
        elif not u:
            scalar *= v**m
            trail += m
        elif not v:
            scalar *= u**m
            lead += m
        else:
            general[u, v] = general.get((u, v), 0) + m
    if not scalar:
        return 0
    degree = lead + trail + sum(general.values())
    scalar *= facts[-1] // facts[degree + 1]
    if not general:
        return scalar * facts[lead] * facts[trail]
    if len(general) == 1 and not lead + trail:
        ((u, v), m), = general.items()
        return scalar * facts[m] * ((v ** (m + 1) - u ** (m + 1)) // (v - u))
    seqs = sorted((_bernstein_terms(u, v, m) for (u, v), m in general.items()), key=len)
    last = seqs.pop()
    b = [1]
    for seq in seqs:
        b = _times(b, seq)
    if degree not in weights:
        weights[degree] = [facts[k] * facts[degree - k] for k in range(degree + 1)]
    w = weights[degree]
    return scalar * sum(bi * sum(map(mul, w[trail + i:], last)) for i, bi in enumerate(b))


def _linear_pieces(weight: FactoredWeight) -> list[FactoredWeight]:
    """Weights of linear factors only whose sum is ``weight``: each factor
    (l + k)^m with k != 0 becomes the pieces C(m, i) k^(m-i) l^i."""
    if not any(form.constant for form, _ in weight.factors):
        return [weight]
    pieces = [weight._replace(factors=())]
    for form, mult in weight.factors:
        if not form.constant:
            pieces = [p._replace(factors=p.factors + ((form, mult),)) for p in pieces]
            continue
        linear = form._replace(constant=Fraction(0))
        pieces = [p._replace(prefactor=p.prefactor * comb(mult, i) * form.constant ** (mult - i),
                             factors=p.factors + ((linear, i),) * (i > 0))
                  for p in pieces for i in range(mult + 1)]
    return pieces


def _edge_sum(weight: FactoredWeight, coords: Sequence[Fraction]) -> Fraction:
    """Integral of a factored weight over the segment (d = 1) or polygon
    (d = 2, linear factors only) whose vertices have these coordinates: the
    edge sum of the module docstring, with every coef_e D^d and factor value
    an int, and one Fraction that divides by (M+d)! D^d prod scale_j^m_j."""
    coords, den, columns, scale, top = _factor_values(weight, coords)
    d = weight.nvars
    if d == 1:
        edges = [(0, 1, coords[1] - coords[0])]
    else:  # the edges v_(i-1) -> v_i, the first one closing the cycle
        xs, ys = coords[::2], coords[1::2]
        edges = [(i - 1, i, xs[i - 1] * ys[i] - ys[i - 1] * xs[i]) for i in range(len(xs))]
    facts, weights, total = _factorials(top + 1), {}, 0
    for i, j, coef in edges:
        if coef:
            total += coef * _unit_integral([(values[i], values[j], mult) for values, _, mult in columns],
                                           facts, weights)
    p = weight.prefactor
    return Fraction(p.numerator * total, p.denominator * facts[-1] * (top + 2) ** (d - 1) * den**d * scale)


def _interpolate(values: Sequence[int], first: int) -> list[int]:
    """Coefficients, constant first, of the integer polynomial of degree M that
    takes the M + 1 ``values`` at first, first + 1, ...: Newton's forward
    differences in Horner form, times M! so that the one division comes last."""
    diffs, top = list(values), len(values) - 1
    for k in range(1, top + 1):
        diffs[k:] = [b - a for a, b in zip(diffs[k - 1:], diffs[k:])]
    coeffs = [diffs[top]]
    for k in range(top - 1, -1, -1):  # times (s - first - k), plus M!/k! times the k-th difference
        coeffs = [a - (first + k) * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += diffs[k] * (factorial(top) // factorial(k))
    return [c // factorial(top) for c in coeffs]


def integrate_factored_along(start: FactoredWeight, start_segment: Segment,
                             end: FactoredWeight, end_segment: Segment) -> tuple[list[int], int]:
    """Integral of a weight over a segment, both moving affinely in s from
    (``start``, ``start_segment``) at s = 0 to (``end``, ``end_segment``) at
    s = 1, which share the prefactor and every factor's slopes and
    multiplicity: integer coefficients in s, constant first, and one denominator.
    Each factor pair c + a t and c' + a t is read as the form c + a t + (c' - c) s
    at (lo, 0) and (hi, 0) of the start segment and (lo, 1) and (hi, 1) of the end one."""
    if len({(w.prefactor, tuple((f.linear, m) for f, m in w.factors)) for w in (start, end)}) > 1:
        raise ContractError("the two weights differ in a prefactor, a slope or a multiplicity")
    p = start.prefactor
    moving = FactoredWeight(p, tuple((AffineForm(f.constant, (*f.linear, g.constant - f.constant)), mult)
                                     for (f, mult), (g, _) in zip(start.factors, end.factors)), 2)
    coords, den, columns, scale, top = _factor_values(moving, (start_segment.lo, 0, start_segment.hi, 0,
                                                               end_segment.lo, 1, end_segment.hi, 1))
    lines = [(u0, u1 - u0, v0, v1 - v0, mult) for (u0, v0, u1, v1), _, mult in columns]
    facts, weights, first = _factorials(top + 1), {}, -(top // 2)
    total = _interpolate([_unit_integral([(u0 + u1 * s, v0 + v1 * s, m) for u0, u1, v0, v1, m in lines],
                                         facts, weights) for s in range(first, first + top + 1)], first)
    lo0, _, hi0, _, lo1, _, hi1, _ = coords
    lengths = (hi0 - lo0, hi1 - lo1 - hi0 + lo0)
    return [p.numerator * c for c in _times(total, lengths)], p.denominator * facts[-1] * den * scale


def integrate_poly2_triangle(f: Poly2, triangle: tuple[Point, Point, Point]) -> Fraction:
    """Integral of f over the triangle (p, q, r): the vertex formula with d = 2."""
    scale = abs(_cross(*triangle))
    if scale == 0:
        raise ContractError("degenerate triangle reached integration")
    return _integrate_simplex(f.terms, triangle, scale)


def integrate_poly2_polygon(f: Poly2, polygon: Polygon) -> Fraction:
    """Integral of f over a polygon: sum over the fan triangulation."""
    return sum((integrate_poly2_triangle(f, tri) for tri in triangulate(polygon)), Fraction(0))


def integrate_factored(weight: FactoredWeight, domain: Segment | Polygon) -> Fraction:
    """Integral of a factored weight, any product of affine powers, over a
    segment (a weight in one variable) or a polygon (in two)."""
    if weight.nvars == 1 and isinstance(domain, Segment):
        return _edge_sum(weight, domain)
    if weight.nvars != 2 or isinstance(domain, Segment):
        raise ContractError(f"a weight in {weight.nvars} variable(s) reached a {type(domain).__name__}")
    coords = [c for vertex in domain.vertices for c in vertex]
    first, *rest = [_edge_sum(piece, coords) for piece in _linear_pieces(weight)]
    return sum(rest, first)


class Moments2(NamedTuple):
    """Mass and first moments of a weight over a polygon."""

    mass: Fraction
    mx: Fraction
    my: Fraction


def moments(weight: Poly2, polygon: Polygon) -> Moments2:
    """Mass and first moments (integral of w, x*w, y*w) over a polygon."""
    mass = integrate_poly2_polygon(weight, polygon)
    mx = integrate_poly2_polygon(weight * Poly2.variable(0), polygon)
    my = integrate_poly2_polygon(weight * Poly2.variable(1), polygon)
    return Moments2(mass, mx, my)


def barycenter(weight: Poly2, polygon: Polygon) -> tuple[Fraction, Fraction]:
    """Weight barycenter of a polygon; requires nonzero mass."""
    m = moments(weight, polygon)
    if m.mass == 0:
        raise ZeroMassError("weight has zero mass on this polygon")
    return (m.mx / m.mass, m.my / m.mass)


def moments1(weight: Poly1, segment: Segment) -> tuple[Fraction, Fraction]:
    """Mass and first moment of a univariate weight over a segment."""
    mass = integrate_poly1(weight, segment)
    mt = integrate_poly1(weight * Poly1.variable(), segment)
    return mass, mt


def barycenter1(weight: Poly1, segment: Segment) -> Fraction:
    """Weight barycenter of a segment; requires nonzero mass."""
    mass, mt = moments1(weight, segment)
    if mass == 0:
        raise ZeroMassError("weight has zero mass on this segment")
    return mt / mass
