"""Family encodings: anticanonical classes, domains, weights, ampleness."""

import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.errors import DegenerateRegionError, EmptyRegionError, InvalidParameterError, WeightPositivityError
from kstab.families import (
    FAMILY_DATA,
    FamilyTag,
    _check_weight_positive,
    _form_text,
    anticanonical_divisor,
    blpp_resolve,
    blqq_resolve,
    instance_record,
    quad_resolve,
    resolve,
    resolve_anticanonical,
)
from kstab.poly import AffineForm, FactoredWeight, Poly1, Poly2
from kstab.polytope import Segment


class TestBlppAnticanonical:
    def test_balanced(self):
        assert anticanonical_divisor(FamilyTag.BLPP, 10, 5) == (F(5), F(1), F(1))

    def test_odd_dimension(self):
        assert anticanonical_divisor(FamilyTag.BLPP, 5, 2) == (F(5, 2), F(1, 2), F(3, 2))

    def test_odd_family_shape(self):
        # for n = 2k+1, p = k the anticanonical is (k + 1/2, 1/2, 3/2)
        for k in range(2, 8):
            assert anticanonical_divisor(FamilyTag.BLPP, 2 * k + 1, k) == (
                k + F(1, 2), F(1, 2), F(3, 2))

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            anticanonical_divisor(FamilyTag.BLPP, 4, 3)


class TestBlppResolve:
    def test_balanced_anticanonical(self):
        inst = blpp_resolve(4, 2, (2, 1, 1))
        assert inst.domain == Segment.of(-1, 1)
        assert inst.weight.expand() == Poly1.from_coeffs([4, 0, -1])  # (2-t)(2+t)
        assert inst.target == (F(0),)
        assert inst.ample

    def test_odd_anticanonical_is_ample(self):
        assert blpp_resolve(5, 2, (F(5, 2), F(1, 2), F(3, 2))).ample

    def test_not_ample(self):
        assert not blpp_resolve(6, 2, (1, 2, 2)).ample

    def test_general_segment_uses_caps(self):
        # d_plus > c caps the lower endpoint at -c
        inst = blpp_resolve(6, 2, (1, 2, F(1, 2)))
        assert inst.domain == Segment.of(-1, F(1, 2))

    def test_empty_domain(self):
        with pytest.raises(EmptyRegionError):
            blpp_resolve(4, 2, (2, -1, -1))

    def test_weight_positivity_error(self):
        with pytest.raises(WeightPositivityError) as raised:
            blpp_resolve(4, 2, (0, 0, 0))
        assert str(raised.value) == "weight factor 0/1 + -1/1*t is not positive on the domain interior"

    def test_one_point_segment_is_degenerate(self):
        # refused as a lower-dimensional polygon is, not left to fail with zero mass
        with pytest.raises(DegenerateRegionError, match=r"^segment \[0, 0\] is a point$"):
            blpp_resolve(6, 3, (1, 0, 0))

    def test_mirror_symmetry(self):
        for n in range(4, 11):
            for p in range(2, n - 1):
                inst = resolve_anticanonical(FamilyTag.BLPP, n, p)
                mirror = resolve_anticanonical(FamilyTag.BLPP, n, n - p)
                assert inst.domain.lo == -mirror.domain.hi
                assert inst.domain.hi == -mirror.domain.lo
                w = inst.weight.expand()
                mw = mirror.weight.expand()
                assert w.compose_affine(-1, 0) == mw
                assert inst.target[0] == -mirror.target[0]


class TestBlqqResolve:
    def test_balanced(self):
        inst = blqq_resolve(6, 3)
        assert inst.domain.vertices == ((F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(4)))
        assert inst.weight.expand() == Poly2.from_terms([(1, 1, 1)])
        assert inst.target == (F(1), F(1))
        assert inst.strict_axes == (0, 1)
        assert inst.ample

    def test_asymmetric(self):
        inst = blqq_resolve(7, 4)
        assert inst.target == (F(2), F(1))
        assert inst.domain.vertices == ((F(0), F(0)), (F(3), F(0)), (F(3), F(2)), (F(0), F(5)))

    def test_mirror_parameters(self):
        inst = blqq_resolve(7, 3)
        assert inst.target == (F(1), F(2))

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            blqq_resolve(6, 4)
        with pytest.raises(InvalidParameterError):
            blqq_resolve(5, 3)


class TestQuadResolve:
    def test_exceptional_anticanonical(self):
        inst = quad_resolve(FamilyTag.QUAD_E, 5, (F(3, 2), 2))
        assert inst.domain.vertices == ((F(0), F(-3)), (F(2), F(-1)), (F(2), F(1)), (F(0), F(3)))
        assert inst.weight.expand() == Poly2.variable(0)
        assert inst.target == (F(1), F(0))
        assert inst.strict_axes == (0,)
        assert inst.ample

    def test_point_anticanonical(self):
        inst = quad_resolve(FamilyTag.QUAD_PT, 5, (F(3, 2), 1))
        assert inst.domain.vertices == ((F(0), F(-1)), (F(2), F(-1)), (F(3), F(0)), (F(0), F(3)))
        assert inst.ample

    def test_pair_anticanonical_is_pentagon(self):
        inst = quad_resolve(FamilyTag.QUAD_PM, 6, (2, 1, 1))
        assert len(inst.domain.vertices) == 5
        assert inst.ample

    def test_not_ample_but_resolvable(self):
        inst = quad_resolve(FamilyTag.QUAD_E, 6, (1, 3))
        assert not inst.ample
        # the ceiling x <= 3 is inactive; the domain is the triangle below x+|y| <= 2
        assert inst.domain.vertices == ((F(0), F(-2)), (F(2), F(0)), (F(0), F(2)))

    def test_anticanonical_coefficients(self):
        assert anticanonical_divisor(FamilyTag.QUAD_E, 7) == (F(5, 2), F(4))
        assert anticanonical_divisor(FamilyTag.QUAD_PT, 7) == (F(5, 2), F(1))
        assert anticanonical_divisor(FamilyTag.QUAD_PM, 7) == (F(5, 2), F(1), F(1))

    def test_small_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            quad_resolve(FamilyTag.QUAD_E, 4, (1, 1))

    def test_p_rejected_for_family_without_p(self):
        # on the anticanonical path and on the explicit-divisor path
        with pytest.raises(InvalidParameterError):
            resolve_anticanonical(FamilyTag.QUAD_E, 6, 3)
        with pytest.raises(InvalidParameterError):
            resolve(FamilyTag.QUAD_PT, 6, 2, (2, 1))


class TestResolveMemo:
    def test_equal_divisor_spellings_share_one_instance(self):
        for tag, n, p, divisor in ((FamilyTag.BLPP, 7, 2, (3, 1, 2)),
                                   (FamilyTag.QUAD_PM, 8, None, (3, 1, 2))):
            spellings = [list(divisor), tuple(divisor), [F(v) for v in divisor],
                         (F(divisor[0]), divisor[1], divisor[2])]
            first = resolve(tag, n, p, spellings[0])
            assert all(resolve(tag, n, p, d) is first for d in spellings)
        anticanonical = anticanonical_divisor(FamilyTag.BLPP, 7, 2)
        assert resolve(FamilyTag.BLPP, 7, 2, list(anticanonical)) is resolve(FamilyTag.BLPP, 7, 2)
        assert resolve_anticanonical(FamilyTag.BLQQ, 9, 4) is resolve(FamilyTag.BLQQ, 9, 4)

    def test_memoized_instance_equals_a_fresh_resolution(self):
        memoized = [resolve(FamilyTag.BLPP, 7, 2, [3, 1, 2]), resolve(FamilyTag.QUAD_PT, 8)]

        def per_family():
            return [blpp_resolve(7, 2, (3, 1, 2)), quad_resolve(FamilyTag.QUAD_PT, 8, (3, 1))]

        assert all(a is b for a, b in zip(per_family(), memoized))  # one memo behind both
        resolve.cache_clear()
        fresh = per_family()
        assert fresh == memoized and all(a is not b for a, b in zip(fresh, memoized))

    @pytest.mark.parametrize("args, error", [
        ((FamilyTag.BLPP, 6, 5), InvalidParameterError),
        ((FamilyTag.BLPP, 6, 2, [3, 1.5, 2]), InvalidParameterError),
        ((FamilyTag.BLPP, 6, 2, [3, [1], 2]), InvalidParameterError),
        ((FamilyTag.QUAD_E, 6, None, ["2", 3]), InvalidParameterError),
        ((FamilyTag.BLQQ, 9, 4, [F(7, 2), 2]), InvalidParameterError),
        ((FamilyTag.BLPP, 4, 2, (2, -1, -1)), EmptyRegionError),
    ])
    def test_errors_raise_on_every_call(self, args, error):
        for _ in range(2):
            with pytest.raises(error):
                resolve(*args)


class TestDoublingConsistency:
    def test_exceptional_displayed_integrals(self):
        # the doubled domain makes the anticanonical moments equal the
        # hand-iterated values of 2 * integral x^m (n-2-x) over [0, n-3]
        from kstab.quadrature import integrate_poly1, moments

        for n in range(5, 12):
            inst = resolve_anticanonical(FamilyTag.QUAD_E, n)
            w = inst.weight.expand()
            got = moments(w, inst.domain)

            def hand(m: int) -> F:
                x = Poly1.variable()
                f = (x ** m) * (Poly1.constant(n - 2) - x) * 2
                return integrate_poly1(f, Segment.of(0, n - 3))

            assert got.mass == hand(n - 4)
            assert got.mx == hand(n - 3)
            assert got.my == 0


class TestAnticanonicalSweep:
    def test_all_families_ample_with_interior_positive_weight(self):
        instances = [resolve_anticanonical(FamilyTag.BLPP, n, p)
                     for n in range(4, 13) for p in range(2, n - 1)]
        instances += [resolve_anticanonical(FamilyTag.BLQQ, n, p)
                      for n in range(6, 13) for p in range(3, n - 2)]
        instances += [resolve_anticanonical(tag, n)
                      for tag in (FamilyTag.QUAD_E, FamilyTag.QUAD_PT, FamilyTag.QUAD_PM)
                      for n in range(5, 13)]
        for inst in instances:
            assert inst.ample
            assert inst.divisor == anticanonical_divisor(inst.tag, *inst.dims)


def _anticanonical_members(max_n: int):
    for tag in FamilyTag:
        for n in range(tag.min_n, max_n + 1):
            for p in tag.p_values(n):
                yield resolve_anticanonical(tag, n, p)


class TestFamilyTable:
    """The anticanonical classes, targets and domains that the family table
    produces are tied to the weights, so no literal value is restated here."""

    def test_target_is_weighted_sum_of_factor_gradients(self):
        for inst in _anticanonical_members(40):
            total = [F(0)] * inst.tag.dimension
            for form, mult in inst.weight.factors:
                for axis, slope in enumerate(form.linear):
                    total[axis] += mult * slope
            if inst.tag is FamilyTag.BLPP:
                total = [v / 2 for v in total]  # blpp's t is not doubled
            assert tuple(total) == inst.target, (inst.tag, inst.dims)

    def test_facet_slack_at_target(self):
        # slack m_i on the wall where weight factor i vanishes, 2 on the
        # diagonal facets, 1 on every other facet; blpp's ends are target +- 1
        for inst in _anticanonical_members(40):
            if isinstance(inst.domain, Segment):
                t = inst.target[0]
                assert (inst.domain.lo, inst.domain.hi) == (t - 1, t + 1), inst.dims
                continue
            vertices = inst.domain.vertices
            for i, plane in enumerate(inst.domain.halfplanes):
                edge = (vertices[i], vertices[(i + 1) % len(vertices)])
                walls = [mult for form, mult in inst.weight.factors
                         if all(form.evaluate(v) == 0 for v in edge)]
                expected = walls[0] if walls else (2 if plane.a and plane.b else 1)
                assert plane.slack(inst.target) == expected, (inst.tag, inst.dims, plane)

    def test_integrals_take_their_extras_about_the_target(self):
        # u_a = x_a - target_a, so its weighted integral is mass * xi[a]
        for inst in _anticanonical_members(24):
            mass, bary = inst.moments
            dim = inst.tag.dimension
            for a in range(dim):
                u_a = AffineForm.of(0, *(int(i == a) for i in range(dim)))
                xi_a = bary[a] - inst.target[a]
                assert inst.integrals([((u_a, 1),)]) == [mass * xi_a], (inst.tag, inst.dims, a)


class TestInstanceRecord:
    def test_segment_record(self):
        record = instance_record(resolve_anticanonical(FamilyTag.BLPP, 5, 2))
        assert record["schema_version"] == 1
        assert record["family"] == "blpp"
        assert record["divisor"] == ["5/2", "1/2", "3/2"]
        assert record["domain"] == {"type": "segment", "lo": "-1/2", "hi": "3/2"}
        assert record["target"] == ["1/2"]
        assert record["ample"] is True
        json.dumps(record)  # must be serializable as-is

    def test_polygon_record(self):
        record = instance_record(resolve_anticanonical(FamilyTag.QUAD_E, 5))
        assert record["domain"]["type"] == "polygon"
        assert record["domain"]["vertices"][0] == ["0/1", "-3/1"]
        assert record["weight"]["factors"] == [
            {"constant": "0/1", "linear": ["1/1", "0/1"], "power": 1}
        ]
        assert record["strict_axes"] == [0]


_values = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def _weights_and_vertices(draw):
    nvars = draw(st.integers(1, 2))
    vertices = draw(st.lists(st.tuples(*[_values] * nvars), min_size=1, max_size=5))
    factors = [(AffineForm.of(draw(_values), *draw(st.tuples(*[_values] * nvars))), 1)
               for _ in range(draw(st.integers(1, 3)))]
    return FactoredWeight.of(1, factors), vertices


class TestWeightPositivityCheck:
    """The check runs in ints; it must refuse exactly what the factor values in Fractions refuse."""

    @settings(max_examples=300, deadline=None)
    @given(case=_weights_and_vertices())
    def test_matches_fraction_evaluation(self, case):
        weight, vertices = case
        bad = next((form for form, _ in weight.factors
                    if min(form.evaluate(v) for v in vertices) < 0
                    or max(form.evaluate(v) for v in vertices) <= 0), None)
        if bad is None:
            _check_weight_positive(weight, vertices)
        else:
            with pytest.raises(WeightPositivityError, match=re.escape(f"weight factor {_form_text(bad)} ")):
                _check_weight_positive(weight, vertices)


_coefficients = st.lists(st.fractions(F(-5), F(5), max_denominator=6), min_size=3, max_size=3)


class TestAmplenessRows:
    """Each family's rows state the inequalities of the module docstring."""

    @settings(max_examples=300, deadline=None)
    @given(d=_coefficients)
    def test_blpp(self, d):
        c, d_plus, d_minus = d
        assert FAMILY_DATA[FamilyTag.BLPP].is_ample(d) == (d_plus < c and d_minus < c and d_plus + d_minus > 0)

    @settings(max_examples=300, deadline=None)
    @given(tag=st.sampled_from([FamilyTag.QUAD_E, FamilyTag.QUAD_PT, FamilyTag.QUAD_PM]), d=_coefficients)
    def test_quadric_blowups(self, tag, d):
        c, *es = d[:len(anticanonical_divisor(tag, 6))]
        assert FAMILY_DATA[tag].is_ample((c, *es)) == all(0 < e < 2 * c for e in es)

    def test_blqq_has_no_rows(self):
        assert FAMILY_DATA[FamilyTag.BLQQ].ample == ()
        assert FAMILY_DATA[FamilyTag.BLQQ].is_ample(anticanonical_divisor(FamilyTag.BLQQ, 8, 4))

    def test_a_family_without_rows_exposes_only_its_anticanonical_class(self, monkeypatch):
        monkeypatch.setitem(FAMILY_DATA, FamilyTag.QUAD_E, FAMILY_DATA[FamilyTag.QUAD_E]._replace(ample=()))
        assert resolve(FamilyTag.QUAD_E, 9, None, [F(7, 2), 6]) is resolve(FamilyTag.QUAD_E, 9)
        with pytest.raises(InvalidParameterError, match="^quade exposes only the anticanonical divisor$"):
            resolve(FamilyTag.QUAD_E, 9, None, [3, 5])
