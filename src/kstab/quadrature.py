"""Exact integration of polynomials and factored weights over segments,
triangles, and polygons.

Segments and triangles are simplices, and one vertex formula integrates a
polynomial over either (Baldoni, Berline, De Loera, Köppe and Vergne, "How to
integrate a polynomial over a simplex", Math. Comp. 80 (2011)).  Over a
d-simplex with vertices v_0..v_d,

    integral of x^i y^j  =  d! vol * i! j! / (i+j+d)! * h_ij,

where h_ij is the coefficient of s^i t^j in the product over the vertices
of 1 / (1 - x_v s - y_v t).  Only the vertex coordinates enter: there is no
change of variables.  Polygons are fan-triangulated into vertex triples,
and each triangle's doubled area is taken once, from its vertices.

``integrate_factored`` takes a weight kept as c * prod l_j^m_j and is the one
place that tells a segment from a polygon.  Over a segment [lo, hi] it applies
the same formula with d = 1 to the affine factors instead of monomials, and
never multiplies them out: with u_j = l_j(lo), v_j = l_j(hi) and M = sum m_j,

    integral  =  c (hi - lo) / (M+1)! * sum_K K! (M-K)! b_K,

where b is the convolution over j of the sequences C(m_j, k) u_j^(m_j-k) v_j^k,
k = 0..m_j.  Over a polygon the weight is expanded first; every
two-dimensional family weight is a monomial, so that costs a few terms.

``integrate_factored_along`` is the same formula over Z[s]: with the segment
ends and factor constants affine in s, and fixed slopes, every u_j and v_j is
affine in s.  The factor of highest multiplicity is contracted with the
weights first, sum_K K! (M-K)! b_K = sum_i b'_i sum_l (i+l)! (M-i-l)! seq_l,
in O(m^3) integer products, not the O(m^4) of the full convolution.

Everything is a pure function of exact rationals; nothing here rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import NamedTuple, Sequence

from .errors import ContractError, ZeroMassError
from .poly import FactoredWeight, Poly1, Poly2, _over_common_denominator, _times
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


def _vertex_weights(top: int) -> list[int]:
    """K! (top-K)! for K = 0..top, the weights of the factored vertex formula."""
    return [factorial(k) * factorial(top - k) for k in range(top + 1)]


def _integrate_factored_segment(weight: FactoredWeight, segment: Segment) -> Fraction:
    """Integral of a factored weight over [lo, hi] from each factor's values
    at the two ends: the factored vertex formula with d = 1.

    Each factor's two values are put over their common denominator d_j, so
    the convolution runs in ints and divides by the product of d_j^m_j once.
    """
    lo, hi = segment.lo, segment.hi
    b, den = [1], 1
    for form, mult in weight.factors:
        (du, dv), d = _over_common_denominator((form.evaluate((lo,)), form.evaluate((hi,))))
        u_pows, v_pows = [1], [1]
        for _ in range(mult):
            u_pows.append(u_pows[-1] * du)
            v_pows.append(v_pows[-1] * dv)
        b = _times(b, [comb(mult, k) * u_pows[mult - k] * v_pows[k] for k in range(mult + 1)])
        den *= d**mult
    top = len(b) - 1
    total = sum(w * bk for w, bk in zip(_vertex_weights(top), b))
    return weight.prefactor * (hi - lo) * Fraction(total, factorial(top + 1) * den)


def integrate_factored_along(start: FactoredWeight, start_segment: Segment,
                             end: FactoredWeight, end_segment: Segment) -> tuple[list[int], int]:
    """Integral of a weight over a segment, both moving affinely in s from
    (``start``, ``start_segment``) at s = 0 to (``end``, ``end_segment``) at
    s = 1, which share the prefactor and every factor's slopes and
    multiplicity: integer coefficients in s, constant first, and one denominator."""
    if len({(w.prefactor, tuple((f.linear, m) for f, m in w.factors)) for w in (start, end)}) > 1:
        raise ContractError("the two weights differ in a prefactor, a slope or a multiplicity")
    seqs, den = [], 1
    for (f, mult), (g, _) in zip(start.factors, end.factors):
        u, v = f.evaluate((start_segment.lo,)), f.evaluate((start_segment.hi,))
        (u0, u1, v0, v1), d = _over_common_denominator(
            (u, g.evaluate((end_segment.lo,)) - u, v, g.evaluate((end_segment.hi,)) - v))
        u_pows, v_pows = [[1]], [[1]]
        for _ in range(mult):
            u_pows.append(_times(u_pows[-1], (u0, u1)))
            v_pows.append(_times(v_pows[-1], (v0, v1)))
        seqs.append([[comb(mult, k) * c for c in _times(u_pows[mult - k], v_pows[k])]
                     for k in range(mult + 1)])
        den *= d**mult
    seqs.sort(key=len)
    last = seqs.pop() if seqs else [[1]]
    b = [[1]]
    for seq in seqs:  # b_K = sum over i of b_i seq_(K-i), in Z[s]
        b = [[sum(col) for col in zip(*(_times(bi, seq[K - i]) for i, bi in enumerate(b)
                                        if 0 <= K - i < len(seq)))] for K in range(len(b) + len(seq) - 1)]
    top = len(b) + len(last) - 2
    w = _vertex_weights(top)
    contracted = ([sum(w[i + k] * sk[e] for k, sk in enumerate(last)) for e in range(len(last[0]))]
                  for i in range(len(b)))
    total = [sum(col) for col in zip(*map(_times, b, contracted))]
    lengths = (start_segment.hi - start_segment.lo, end_segment.hi - end_segment.lo)
    (l0, l1), dl = _over_common_denominator((lengths[0], lengths[1] - lengths[0]))
    p = start.prefactor
    return ([p.numerator * c for c in _times(total, (l0, l1))],
            p.denominator * dl * factorial(top + 1) * den)


def integrate_poly2_triangle(f: Poly2, triangle: tuple[Point, Point, Point]) -> Fraction:
    """Integral of f over the triangle (p, q, r): the vertex formula with d = 2."""
    scale = abs(_cross(*triangle))
    if scale == 0:
        raise ContractError("degenerate triangle reached integration")
    return _integrate_simplex(f.terms, triangle, scale)


def integrate_poly2_polygon(f: Poly2, polygon: Polygon) -> Fraction:
    """Integral of f over a polygon: sum over the fan triangulation."""
    total = Fraction(0)
    for tri in triangulate(polygon):
        total += integrate_poly2_triangle(f, tri)
    return total


def integrate_factored(weight: FactoredWeight, domain: Segment | Polygon) -> Fraction:
    """Integral of a factored weight over a segment or a polygon."""
    if isinstance(domain, Segment):
        return _integrate_factored_segment(weight, domain)
    return integrate_poly2_polygon(weight.expand(), domain)


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
