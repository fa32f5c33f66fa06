"""Decision procedures: classification, Mabuchi tests, certificates, search."""

from fractions import Fraction as F
from math import comb

import pytest

from kstab import criteria, families, polytope, quadrature
from kstab.criteria import KEStatus, MabuchiStatus, classify_offset
from kstab.errors import (
    ContractError,
    InvalidParameterError,
    NoBracketError,
    NotAmpleError,
    NotAnticanonicalError,
)
from kstab.families import FamilyTag, blpp_resolve, resolve_anticanonical
from kstab.poly import FactoredWeight, Poly1
from kstab.polytope import Segment
from kstab.quadrature import integrate_poly1, moments, moments1


def _verdict(tag, n, p=None):
    return criteria.ke_classify(resolve_anticanonical(tag, n, p))


def _moment(tag, n, p, axis):
    """The first weight moment about the target on one axis, read from the
    ke verdict: mass times the barycenter offset."""
    verdict = _verdict(tag, n, p)
    return verdict.mass * verdict.xi[axis]


class TestClassifyOffset:
    def test_equality_criterion(self):
        assert classify_offset((F(0),), ()) is KEStatus.KAHLER_EINSTEIN
        assert classify_offset((F(1, 7),), ()) is KEStatus.NOT_K_SEMISTABLE
        assert classify_offset((F(-1, 7),), ()) is KEStatus.NOT_K_SEMISTABLE

    def test_full_cone(self):
        assert classify_offset((F(1), F(2)), (0, 1)) is KEStatus.KAHLER_EINSTEIN
        assert classify_offset((F(-1), F(2)), (0, 1)) is KEStatus.NOT_K_SEMISTABLE
        assert classify_offset((F(0), F(2)), (0, 1)) is KEStatus.BOUNDARY

    def test_half_strict_half_zero(self):
        assert classify_offset((F(1), F(0)), (0,)) is KEStatus.KAHLER_EINSTEIN
        assert classify_offset((F(1), F(1, 9)), (0,)) is KEStatus.NOT_K_SEMISTABLE
        assert classify_offset((F(-1), F(0)), (0,)) is KEStatus.NOT_K_SEMISTABLE
        assert classify_offset((F(0), F(0)), (0,)) is KEStatus.BOUNDARY


class TestKeClassify:
    def test_balanced_blpp(self):
        verdict = criteria.ke_classify(resolve_anticanonical(FamilyTag.BLPP, 10, 5))
        assert verdict.status is KEStatus.KAHLER_EINSTEIN
        assert verdict.xi == (F(0),)

    def test_blqq_unstable_witness(self):
        verdict = criteria.ke_classify(resolve_anticanonical(FamilyTag.BLQQ, 7, 4))
        assert verdict.status is KEStatus.NOT_K_SEMISTABLE
        # x-offset is the x-test integral -9/40 divided by the mass 711/20
        assert verdict.xi[0] == F(-9, 40) / F(711, 20) == F(-1, 158)

    def test_quade_small_dimension(self):
        verdict = criteria.ke_classify(resolve_anticanonical(FamilyTag.QUAD_E, 5))
        assert verdict.status is KEStatus.KAHLER_EINSTEIN
        assert verdict.xi == (F(1, 5), F(0))

    def test_quadpt_futaki_obstruction(self):
        verdict = criteria.ke_classify(resolve_anticanonical(FamilyTag.QUAD_PT, 6))
        assert verdict.status is KEStatus.NOT_K_SEMISTABLE
        assert verdict.xi[1] != 0

    def test_requires_ample(self):
        with pytest.raises(NotAmpleError):
            criteria.ke_classify(blpp_resolve(6, 2, (1, 2, 2)))

    def test_requires_anticanonical(self):
        with pytest.raises(NotAnticanonicalError):
            criteria.ke_classify(blpp_resolve(4, 2, (3, 1, 1)))

    @pytest.mark.parametrize("tag, n, p", [
        (FamilyTag.BLPP, 7, 3),
        (FamilyTag.BLQQ, 8, 4),
        (FamilyTag.QUAD_PM, 7, None),
    ])
    def test_verdict_carries_quadrature_moments(self, tag, n, p):
        inst = resolve_anticanonical(tag, n, p)
        verdict = criteria.ke_classify(inst)
        weight = inst.weight.expand()
        if tag is FamilyTag.BLPP:
            mass, mt = moments1(weight, inst.domain)
            firsts = (mt,)
        else:
            m = moments(weight, inst.domain)
            mass, firsts = m.mass, (m.mx, m.my)
        assert verdict.mass == mass
        assert verdict.barycenter == tuple(f / mass for f in firsts)


class TestMomentClosedForms:
    def test_blpp_examples(self):
        assert criteria.blpp_moment_closed(5, 2) == F(8, 5)
        assert criteria.blpp_moment_closed(10, 5) == 0
        assert criteria.blpp_moment_closed(6, 2) == F(52, 3)

    def test_blpp_signs(self):
        assert _moment(FamilyTag.BLPP, 10, 5, 0) == 0
        assert _moment(FamilyTag.BLPP, 5, 2, 0) == F(8, 5)
        assert _moment(FamilyTag.BLPP, 5, 3, 0) == F(-8, 5)

    def test_blqq_beta_expansion(self):
        assert criteria.blqq_x_moment_closed(3, 2) == F(-9, 40)
        # k = 3, l = 2 is the member n = k+l+2 = 7, p = k+1 = 4
        assert _moment(FamilyTag.BLQQ, 7, 4, 0) == F(-9, 40)

    def test_blqq_sign_structure(self):
        for l in range(2, 13):
            assert criteria.blqq_x_moment_closed(2, l) > 0
        for k in range(3, 9):
            for l in range(2, 9):
                assert criteria.blqq_x_moment_closed(k, l) < 0

    def test_k2_antiderivative_forms(self):
        assert criteria.blqq_x_moment_closed_k2(2) == F(6, 5)
        assert criteria.blqq_y_moment_closed_k2(2) == F(98, 15)
        for l in range(2, 13):
            assert _moment(FamilyTag.BLQQ, l + 4, 3, 0) == criteria.blqq_x_moment_closed_k2(l)
            assert _moment(FamilyTag.BLQQ, l + 4, 3, 1) == criteria.blqq_y_moment_closed_k2(l)

    def test_quade_ratio(self):
        assert criteria.quad_e_x_barycenter_closed(5) == F(6, 5)
        for n in range(5, 13):
            assert (_verdict(FamilyTag.QUAD_E, n).barycenter[0]
                    == criteria.quad_e_x_barycenter_closed(n))

    def test_domain_validation(self):
        with pytest.raises(InvalidParameterError):
            criteria.blpp_moment_closed(4, 1)
        with pytest.raises(InvalidParameterError):
            criteria.blqq_x_moment_closed(1, 5)


def quade_beta(n: int) -> F:
    """Fujita's beta(E) = A(E) - S(E) of the exceptional divisor E of quade,
    from intersection numbers alone.

    With d = n - 2, H the hyperplane class and F = H - E the pencil of
    hyperplane sections through the centre, -K - xE = (d-1-x)H + (1+x)F is
    nef on [0, d-1], and H^d = H^(d-1)F = 2, F^2 = 0, so
    vol(-K - xE) = 2(d-1-x)^d + 2d(1+x)(d-1-x)^(d-1) there.  A(E) = 1 and
    S(E) is the mean of that volume over [0, d-1] against vol(-K).  The
    polynomial is expanded by the binomial theorem and integrated termwise.
    """
    d = n - 2
    top = d - 1
    coeffs = [F(0)] * (d + 1)
    for i in range(d + 1):  # 2 (top - x)^d
        coeffs[i] += 2 * comb(d, i) * top ** (d - i) * (-1) ** i
    for i in range(d):  # 2d (1 + x) (top - x)^(d-1)
        term = 2 * d * comb(d - 1, i) * top ** (d - 1 - i) * (-1) ** i
        coeffs[i] += term
        coeffs[i + 1] += term
    integral = sum(c * F(top) ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))
    return 1 - integral / coeffs[0]


class TestQuadeValuativeOracle:
    """An oracle for the quade verdict that shares no code with the
    integrator: beta(E) < 0 proves that the member is not K-semistable."""

    def test_beta_equals_the_x_excess(self):
        for n in range(5, 41):
            assert quade_beta(n) == _verdict(FamilyTag.QUAD_E, n).xi[0], n

    def test_beta_closed_form(self):
        for n in range(5, 41):
            d = n - 2
            assert quade_beta(n) == F(-(d * d - 5 * d + 2), (d + 1) * (2 * d - 1)), n
        assert [quade_beta(n) for n in (5, 6, 7)] == [F(1, 5), F(2, 35), F(-1, 27)]

    def test_beta_negative_from_seven_on(self):
        assert [n for n in range(5, 41) if quade_beta(n) >= 0] == [5, 6]


def _mabuchi(tag, n, p=None):
    return criteria.mabuchi(resolve_anticanonical(tag, n, p))


class TestMabuchiBlpp:
    def test_balanced_is_trivially_exists(self):
        verdict = _mabuchi(FamilyTag.BLPP, 10, 5)
        assert verdict.status is MabuchiStatus.EXISTS
        assert verdict.ratio is None

    def test_small_balanced(self):
        assert _mabuchi(FamilyTag.BLPP, 4, 2).status is MabuchiStatus.EXISTS

    def test_unbalanced_example(self):
        verdict = _mabuchi(FamilyTag.BLPP, 5, 2)
        detail = dict(verdict.detail)
        assert detail["first_moment"] == F(8, 5)
        assert detail["second_moment"] == F(52, 5)
        assert verdict.ratio == F(13, 2)
        assert verdict.status is MabuchiStatus.EXISTS

    def test_second_moment_always_positive(self):
        for n in range(4, 13):
            for p in range(2, n - 1):
                detail = dict(_mabuchi(FamilyTag.BLPP, n, p).detail)
                assert detail["second_moment"] > 0

    def test_mirror_ratio_negates(self):
        a = _mabuchi(FamilyTag.BLPP, 7, 2)
        b = _mabuchi(FamilyTag.BLPP, 7, 5)
        assert a.ratio == -b.ratio

    def test_matches_recentred_route(self):
        # the weight recentred by t -> u + target, moments over [-1, 1]
        box = Segment.of(-1, 1)
        u = Poly1.variable()
        for n in range(4, 13):
            for p in FamilyTag.BLPP.p_values(n):
                inst = resolve_anticanonical(FamilyTag.BLPP, n, p)
                w = inst.weight.expand().compose_affine(1, inst.target[0])
                first, second = integrate_poly1(w * u, box), integrate_poly1(w * u * u, box)
                ratio = None if first == 0 else second / first
                if ratio is not None and -1 <= ratio <= 1:
                    status = MabuchiStatus.NOT_EXISTS
                else:
                    status = MabuchiStatus.EXISTS
                verdict = criteria.mabuchi(inst)
                assert verdict.status is status, (n, p)
                assert verdict.ratio == ratio, (n, p)
                assert verdict.detail == (("first_moment", first), ("second_moment", second))


class TestMabuchiQuadPt:
    def test_dimension_five(self):
        verdict = _mabuchi(FamilyTag.QUAD_PT, 5)
        assert verdict.status is MabuchiStatus.NOT_EXISTS
        assert verdict.ratio == F(49, 20)

    def test_margin_closed_form(self):
        assert criteria.quad_pt_margin_closed(5) == -44
        for n in range(5, 13):
            # the center axis is y with target 0, so the u-moments are y-moments
            assert resolve_anticanonical(FamilyTag.QUAD_PT, n).target[1] == 0
            detail = dict(_mabuchi(FamilyTag.QUAD_PT, n).detail)
            margin = detail["second_moment"] - (n - 2) * detail["first_moment"]
            closed = criteria.quad_pt_margin_closed(n)
            assert (n - 3) * (n - 1) * n * margin == closed
            assert closed <= 0

    def test_ratio_stays_in_window(self):
        for n in range(5, 13):
            verdict = _mabuchi(FamilyTag.QUAD_PT, n)
            assert verdict.status is MabuchiStatus.NOT_EXISTS
            assert -1 <= verdict.ratio <= n - 2

    def test_small_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            _mabuchi(FamilyTag.QUAD_PT, 4)


class TestMabuchiGuards:
    def test_requires_anticanonical(self):
        with pytest.raises(NotAnticanonicalError):
            criteria.mabuchi(blpp_resolve(4, 2, (3, 1, 1)))

    def test_requires_ample(self):
        with pytest.raises(NotAmpleError):
            criteria.mabuchi(blpp_resolve(6, 2, (1, 2, 2)))

    def test_blqq_has_no_center_axis(self):
        with pytest.raises(InvalidParameterError):
            _mabuchi(FamilyTag.BLQQ, 7, 3)

    def test_strict_axes_make_outside_inconclusive(self):
        # quadpm is symmetric in y, so its first y-moment vanishes
        verdict = _mabuchi(FamilyTag.QUAD_PM, 7)
        assert dict(verdict.detail)["first_moment"] == 0
        assert verdict.status is MabuchiStatus.INCONCLUSIVE and verdict.ratio is None


class TestMultiplierCertificate:
    def test_balanced_case(self):
        cert = criteria.mh_certificate(4, 2)
        assert cert.moment_integral == 0

    def test_odd_case_minima(self):
        cert = criteria.mh_certificate(5, 2)
        assert cert.moment_integral == 0
        assert cert.concavity_witness == (F(1), F(2))
        assert all(m > 0 for m in cert.concavity_witness)

    def test_produced_for_taller_family(self):
        cert = criteria.mh_certificate(7, 3)
        assert cert.moment_integral == 0
        assert min(cert.concavity_witness) > 0

    def test_reflection_weight_shape(self):
        cert = criteria.mh_certificate(6, 2)
        # factors (2 + t)^1 and (4 - t)^3
        (f0, m0), (f1, m1) = cert.weight_of_h.factors
        assert (f0.constant, f0.linear, m0) == (F(2), (F(1),), 1)
        assert (f1.constant, f1.linear, m1) == (F(4), (F(-1),), 3)


class TestCoupledResidual:
    def test_self_complementary_half_positive(self):
        # C at the half divisor equals the stability moment over the mass
        assert criteria.coupled_residual(2, (F(5, 4), F(1, 4), F(3, 4))) == F(8, 5) / F(100, 3)
        for k in range(2, 9):
            start, _ = criteria.coupled_default_endpoints(k)
            assert criteria.coupled_residual(k, start) > 0

    def test_complement_swap_invariance(self):
        divisor = (F(3), F(1, 3), F(1, 5))
        for k in (4, 6):
            comp = criteria.coupled_complement(k, divisor)
            assert criteria.coupled_residual(k, divisor) == criteria.coupled_residual(k, comp)

    def test_half_divisor_is_self_complementary(self):
        from kstab.quadrature import barycenter1

        for k in (2, 5, 9):
            start, _ = criteria.coupled_default_endpoints(k)
            assert criteria.coupled_complement(k, start) == start
            inst = blpp_resolve(2 * k + 1, k, start)
            bary = barycenter1(inst.weight.expand(), inst.domain)
            assert criteria.coupled_residual(k, start) == 2 * bary - F(1, 2)

    def test_threshold_is_four(self):
        assert criteria.coupled_negative_threshold(12) == 4
        _, end3 = criteria.coupled_default_endpoints(3)
        _, end4 = criteria.coupled_default_endpoints(4)
        assert criteria.coupled_residual(3, end3) > 0
        assert criteria.coupled_residual(4, end4) < 0

    def test_small_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            criteria.coupled_residual(1, (F(1), F(1, 4), F(3, 4)))


class TestCoupledSearch:
    def test_bracket_at_threshold(self):
        start, end = criteria.coupled_default_endpoints(4)
        cert = criteria.coupled_search(4, start, end, max_bisections=16)
        assert cert.width == F(1, 2 ** 16)
        assert (cert.residual_lo > 0) and (cert.residual_hi < 0)
        assert criteria.coupled_residual(4, cert.params_lo) == cert.residual_lo
        assert criteria.coupled_residual(4, cert.params_hi) == cert.residual_hi
        assert criteria.coupled_pair_ample(4, cert.params_lo)
        assert criteria.coupled_pair_ample(4, cert.params_hi)

    def test_midpoint_between_bracket(self):
        start, end = criteria.coupled_default_endpoints(5)
        cert = criteria.coupled_search(5, start, end, max_bisections=8)
        for i in range(3):
            lo, hi = sorted((cert.params_lo[i], cert.params_hi[i]))
            assert lo <= cert.midpoint[i] <= hi

    def test_same_sign_endpoints(self):
        start, _ = criteria.coupled_default_endpoints(6)
        nearby = (start[0] + F(1, 8), start[1], start[2])
        with pytest.raises(NoBracketError):
            criteria.coupled_search(6, start, nearby, max_bisections=8)

    def test_ampleness_contract(self):
        start, _ = criteria.coupled_default_endpoints(6)
        outside = (F(20), F(1, 2), F(0))  # complement coefficient is negative
        with pytest.raises(ContractError, match="^segment leaves the ample region at parameter 1$"):
            criteria.coupled_search(6, start, outside, max_bisections=8)
        # both ends off the region: s = 0 is checked first
        with pytest.raises(ContractError, match="^segment leaves the ample region at parameter 0$"):
            criteria.coupled_search(6, outside, (F(0), F(1, 2), F(0)), max_bisections=8)

    def test_end_arity_is_checked_before_the_ends(self):
        # the arity is checked before the ends are, so no zip of the two ends truncates
        long_start = (2, F(1, 4), F(3, 4), 0)
        message = "^blpp divisors take 3 coefficients, got 4$"
        with pytest.raises(InvalidParameterError, match=message):
            criteria.coupled_search(4, long_start, (3, F(1, 2), F(1, 4)), 10)
        with pytest.raises(InvalidParameterError, match=message):
            criteria.coupled_search(4, (3, F(1, 2), F(1, 4)), long_start, 10)
        with pytest.raises(InvalidParameterError, match=message):
            criteria.coupled_complement(4, long_start)
        with pytest.raises(InvalidParameterError, match="^blpp divisors take 3 coefficients, got 2$"):
            criteria.coupled_complement(4, (3, F(1, 2)))


@pytest.fixture
def integrations(monkeypatch):
    """The calls to the integrator behind every instance integral, one entry each."""
    calls = []
    integrate = families.integrate_factored

    def counting(weight, domain):
        calls.append(None)
        return integrate(weight, domain)

    monkeypatch.setattr(families, "integrate_factored", counting)
    return calls


ANTICANONICAL_MEMBERS = [(FamilyTag.BLPP, 9, 3), (FamilyTag.BLQQ, 8, 4),
                         (FamilyTag.QUAD_E, 7, None), (FamilyTag.QUAD_PT, 7, None),
                         (FamilyTag.QUAD_PM, 7, None)]


class TestMomentsIntegrateOnce:
    """A member's moments are integrated on first read, once, and kept on
    the one instance that ``resolve`` returns for it."""

    @pytest.mark.parametrize("tag, n, p", ANTICANONICAL_MEMBERS)
    def test_resolve_integrates_nothing(self, integrations, tag, n, p):
        resolve_anticanonical(tag, n, p)
        families.resolve(tag, n, p, families.anticanonical_divisor(tag, n, p))
        assert integrations == []

    @pytest.mark.parametrize("tag, n, p", ANTICANONICAL_MEMBERS)
    def test_first_read_integrates_mass_and_each_axis_once(self, integrations, tag, n, p):
        inst = resolve_anticanonical(tag, n, p)
        verdict = criteria.ke_classify(inst)
        assert len(integrations) == tag.dimension + 1
        assert resolve_anticanonical(tag, n, p) is inst
        assert criteria.ke_classify(resolve_anticanonical(tag, n, p)) == verdict
        assert len(integrations) == tag.dimension + 1

    @pytest.mark.parametrize("tag, n, p", [(FamilyTag.BLPP, 9, 3), (FamilyTag.QUAD_PT, 7, None)])
    def test_mabuchi_integrates_its_two_moments(self, integrations, tag, n, p):
        criteria.mabuchi(resolve_anticanonical(tag, n, p))
        assert len(integrations) == 2

    def test_mh_certificate_integrates_its_one_moment(self, integrations):
        criteria.mh_certificate(9, 3)
        assert len(integrations) == 1


class TestCoupledMembersThroughTheMemo:
    def test_default_search_builds_three_members(self):
        # a search builds only its end members; the default start is its own
        # complement, so the memo holds it once, and the residual at the start
        # reads the members the search built
        start, end = criteria.coupled_default_endpoints(5)
        assert criteria.coupled_complement(5, start) == start
        criteria.coupled_search(5, start, end, 8)
        info = families._resolve.cache_info()
        assert (info.misses, info.currsize) == (3, 3)
        criteria.coupled_residual(5, start)
        assert families._resolve.cache_info().misses == 3


class TestCoupledSearchCost:
    """The residual along the segment is built once, from the moments of the
    four members at its two ends; more bisections add only sign probes."""

    def test_probes_integrate_nothing(self, integrations):
        start, end = criteria.coupled_default_endpoints(9)
        counts = []
        for bisections in (8, 40):
            integrations.clear()
            criteria.coupled_search(9, start, end, bisections)
            counts.append(len(integrations))
        assert counts[0] == counts[1]

    def test_four_moment_polynomials_per_search(self, monkeypatch):
        calls = []
        integrate = families.integrate_factored_along

        def counting(*args):
            calls.append(None)
            return integrate(*args)

        monkeypatch.setattr(families, "integrate_factored_along", counting)
        start, end = criteria.coupled_default_endpoints(9)
        criteria.coupled_search(9, start, end, 40)
        assert len(calls) == 4

    def test_residual_is_built_by_the_segment_kernel(self, monkeypatch):
        # the moment polynomials are samples of the one integer segment kernel, not Z[s] arithmetic
        calls = []
        kernel = quadrature._unit_integral

        def counting(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(quadrature, "_unit_integral", counting)
        start, end = criteria.coupled_default_endpoints(9)
        criteria.coupled_search(9, start, end, 40)
        assert calls


def _expanded_verdict(inst):
    """The ``ke`` verdict from the weight multiplied out and integrated by
    triangles, or by the segment vertex formula."""
    if isinstance(inst.domain, Segment):
        mass, first = moments1(inst.weight.expand(), inst.domain)
        bary = (first / mass,)
    else:
        mass, mx, my = moments(inst.weight.expand(), inst.domain)
        bary = (mx / mass, my / mass)
    xi = tuple(b - t for b, t in zip(bary, inst.target))
    return criteria.KEVerdict(classify_offset(xi, inst.strict_axes), xi, mass, bary)


class TestWeightsStayFactored:
    """No criterion multiplies a weight out or triangulates a domain: with
    both refused, every verdict is the one computed without the refusals."""

    def test_no_criterion_expands_or_triangulates(self, monkeypatch):
        members = [(tag, n, p) for tag in FamilyTag for n in (tag.min_n + 1, 24)
                   for p in tag.p_values(n)[:2]]
        blpp = [(6, 3), (9, 4), (24, 7)]

        def verdicts():
            families.resolve.cache_clear()
            return ([criteria.ke_classify(resolve_anticanonical(*member)) for member in members],
                    [criteria.mabuchi(resolve_anticanonical(FamilyTag.QUAD_PT, n)) for n in (5, 24)]
                    + [criteria.mabuchi(resolve_anticanonical(FamilyTag.BLPP, n, p)) for n, p in blpp],
                    [criteria.mh_certificate(n, p) for n, p in blpp],
                    [criteria.coupled_residual(k, criteria.coupled_default_endpoints(k)[0]) for k in (2, 5)])

        expected = verdicts()
        assert expected[0] == [_expanded_verdict(resolve_anticanonical(*member)) for member in members]

        def refuse(*_):
            raise AssertionError("a weight was multiplied out or a domain triangulated")

        monkeypatch.setattr(FactoredWeight, "expand", refuse)
        for module in (polytope, quadrature):
            monkeypatch.setattr(module, "triangulate", refuse)
        assert verdicts() == expected
