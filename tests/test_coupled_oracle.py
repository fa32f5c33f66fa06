"""The coupled search checked against a probe loop driven by the direct residual.

The reference below bisects exactly as ``criteria.coupled_search`` does, but
every probe resolves the member and its complement and reads the
exact ``coupled_residual``; nothing is built once per segment.  The search
itself builds the residual along the segment once, as N(s)/D(s) in integer
polynomials, and reads only signs.  Both must give equal certificates, and
the same error class with the same message, and N(s)/D(s) must equal the
direct residual at every ample parameter.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kstab import criteria
from kstab.criteria import CoupledCertificate
from kstab.errors import ContractError, KstabError, NoBracketError
from kstab.families import blpp_resolve

# ---------------------------------------------------------------------------
# Reference: one direct residual per probe
# ---------------------------------------------------------------------------


def _reference_search(k, start, end, max_bisections):
    start_d = tuple(F(v) for v in start)
    end_d = tuple(F(v) for v in end)

    def params_at(s):
        return tuple(a + s * (b - a) for a, b in zip(start_d, end_d))

    def residual_at(s):
        d = params_at(s)
        if not criteria.coupled_pair_ample(k, d):
            raise ContractError(f"segment leaves the ample region at parameter {s}")
        return criteria.coupled_residual(k, d)

    lo, hi = F(0), F(1)
    r_lo, r_hi = residual_at(lo), residual_at(hi)
    if r_lo == 0 or r_hi == 0 or (r_lo > 0) == (r_hi > 0):
        raise NoBracketError(
            f"endpoint residuals {r_lo} and {r_hi} do not have strictly opposite signs")
    while hi - lo > F(1, 2 ** max_bisections):
        for offset in (F(1, 2), F(5, 8), F(3, 8), F(9, 16), F(7, 16)):
            mid = lo + (hi - lo) * offset
            r_mid = residual_at(mid)
            if r_mid != 0:
                break
        else:
            raise ContractError("residual vanished at every probed split point")
        if (r_mid > 0) == (r_lo > 0):
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    mid = (lo + hi) / 2
    return CoupledCertificate(params_at(lo), params_at(hi), r_lo, r_hi, params_at(mid),
                              residual_at(mid), hi - lo)


def _outcome(search, *args):
    """The certificate, or the error's class and message."""
    try:
        return search(*args)
    except KstabError as exc:
        return type(exc), str(exc)


def _assert_same(k, start, end, bisections):
    got = _outcome(criteria.coupled_search, k, start, end, bisections)
    want = _outcome(_reference_search, k, start, end, bisections)
    if isinstance(want, CoupledCertificate):
        assert isinstance(got, CoupledCertificate), got
        for name in CoupledCertificate._fields:
            assert getattr(got, name) == getattr(want, name), name
    else:
        assert got == want


# ---------------------------------------------------------------------------
# The residual along a segment
# ---------------------------------------------------------------------------


def _open_unit(draw):
    den = draw(st.integers(2, 64))
    return F(draw(st.integers(1, den - 1)), den)


@st.composite
def _ample_pair(draw, k):
    """A blpp class (c, d_plus, d_minus) that is ample with its complement.

    The pair is ample iff d_plus < c, d_minus < c, 0 < d_plus + d_minus < 2
    and c < min(k + d_plus, k - 1 + d_minus); c is drawn inside that range.
    """
    d_plus = F(draw(st.integers(-48, 96)), 48)
    d_minus = 2 * _open_unit(draw) - d_plus
    low, high = max(d_plus, d_minus), min(k + d_plus, k - 1 + d_minus)
    assume(low < high)
    divisor = (low + _open_unit(draw) * (high - low), d_plus, d_minus)
    assert criteria.coupled_pair_ample(k, divisor)
    return divisor


@st.composite
def _parameter(draw):
    den = draw(st.integers(1, 2 ** 40))
    return F(draw(st.integers(0, den)), den)


class TestResidualAlongSegment:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(2, 12),
           s=st.one_of(st.sampled_from([F(0), F(1)]), _parameter()))
    @example(data=None, k=2, s=F(1, 3))
    def test_equals_the_direct_residual(self, data, k, s):
        if data is None:
            start, end = (F(5, 4), F(1, 4), F(3, 4)), (F(1), F(1, 2), F(1, 4))
        else:
            start, end = data.draw(_ample_pair(k)), data.draw(_ample_pair(k))
        num, den = criteria._coupled_residual_along(k, start, end)
        divisor = tuple(a + s * (b - a) for a, b in zip(start, end))
        assert criteria._homogeneous(den, s) > 0
        assert F(criteria._homogeneous(num, s), criteria._homogeneous(den, s)) == \
            criteria.coupled_residual(k, divisor)
        # the member's own moments, which the residual's ratios would not show
        (mass, mass_den), (first, first_den) = blpp_resolve(2 * k + 1, k, start).moments_along(
            blpp_resolve(2 * k + 1, k, end))
        direct_mass, (bary,) = blpp_resolve(2 * k + 1, k, divisor).moments
        assert F(sum(c * s**i for i, c in enumerate(mass)), mass_den) == direct_mass
        assert F(sum(c * s**i for i, c in enumerate(first)), first_den) == direct_mass * bary

    def test_homogeneous_value(self):
        # 2 - 3s + 5s^2 at s = 2/3 is 20/9, times 3^2
        assert criteria._homogeneous([2, -3, 5], F(2, 3)) == 20
        assert criteria._homogeneous([2, -3, 5, 0], F(2, 3)) == 60


# ---------------------------------------------------------------------------
# Certificates and errors equal to the reference's
# ---------------------------------------------------------------------------


class TestSearchEqualsReference:
    @pytest.mark.parametrize("k", [*range(4, 13), 20])
    def test_default_segment(self, k):
        _assert_same(k, *criteria.coupled_default_endpoints(k), 40)

    @pytest.mark.parametrize("k", range(4, 13))
    def test_given_segment(self, k):
        # a certificate for every k but 6, where both residuals are negative
        _assert_same(k, (2, F(1, 4), F(3, 4)), (3, F(1, 2), F(1, 4)), 40)

    def test_many_bisections(self):
        _assert_same(4, *criteria.coupled_default_endpoints(4), 200)

    @pytest.mark.parametrize("k, start, end", [
        (2, None, None),                              # the built-in end is not ample
        (3, None, None),                              # no sign change
        (6, None, (F(20), F(1, 2), F(0))),            # end off the ample region
        (6, (F(20), F(1, 2), F(0)), (F(0), F(1, 2), F(0))),  # both ends off: s = 0 is named
        (4, None, "start"),                           # zero-length segment
    ])
    def test_errors(self, k, start, end):
        default_start, default_end = criteria.coupled_default_endpoints(k)
        start = start or default_start
        end = start if end == "start" else end or default_end
        _assert_same(k, start, end, 40)
