"""Theorem-level verification suites.

Each check re-derives a published-style claim two independent ways (exact
polytope integration on one side, a closed form or structural argument on
the other) and reports pass/fail with an exact witness.  Failures are
reported, never thrown: a red line with its counterexample is a result.

A check is a list of cases and a test: ``_check`` runs ``test(*case)`` on
every case, each yielding one line per broken expectation, and reports the
first three lines, or the number of cases when none is broken.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from . import criteria
from .criteria import KEStatus, MabuchiStatus
from .errors import InvalidParameterError, KstabError
from .families import FamilyTag, resolve, resolve_anticanonical
from .poly import AffineForm, FactoredWeight, Poly2, rational_to_str
from .polytope import Polygon, fan_triangles, polygon_from_halfplanes
from .quadrature import integrate_factored, integrate_poly2_triangle
from .suites import SUITE_CRITERIA


class CheckResult(NamedTuple):
    criterion: int
    name: str
    passed: bool
    witness: str


def _result(criterion: int, name: str, failures: list[str], ok_witness: str) -> CheckResult:
    if failures:
        return CheckResult(criterion, name, False, "; ".join(failures[:3]))
    return CheckResult(criterion, name, True, ok_witness)


def _check(criterion: int, name: str, cases: Sequence[tuple],
           test: Callable[..., Iterator[str]], noun: str) -> CheckResult:
    """Run ``test(*case)`` on every case; the passing witness counts the cases."""
    failures = [line for case in cases for line in test(*case)]
    return _result(criterion, name, failures, f"{len(cases)} {noun}")


def _members(tag: FamilyTag, max_n: int) -> list[tuple[int, int | None]]:
    """Every (n, p) of the family with n <= max_n; p is None for a family without p."""
    return [(n, p) for n in range(tag.min_n, max_n + 1) for p in tag.p_values(n)]


def _verdict(tag: FamilyTag, n: int, p: int | None = None) -> criteria.KEVerdict:
    """The ``ke`` verdict of an anticanonical member."""
    return criteria.ke_classify(resolve_anticanonical(tag, n, p))


# --------------------------------------------------------------------------
# Criterion 1: closed-form oracle equivalence
# --------------------------------------------------------------------------


def check_closed_forms(max_n: int) -> list[CheckResult]:
    def blpp(n, p):
        verdict = _verdict(FamilyTag.BLPP, n, p)
        exact, closed = verdict.mass * verdict.xi[0], criteria.blpp_moment_closed(n, p)
        if exact != closed:
            yield f"n={n},p={p}: {exact} != {closed}"

    def blqq(k, l):
        verdict = _verdict(FamilyTag.BLQQ, k + l + 2, k + 1)
        exact, closed = verdict.mass * verdict.xi[0], criteria.blqq_x_moment_closed(k, l)
        if exact != closed:
            yield f"k={k},l={l}: {exact} != {closed}"

    closed_k2 = {"x": criteria.blqq_x_moment_closed_k2, "y": criteria.blqq_y_moment_closed_k2}

    def blqq_k2(l, axis):
        verdict = _verdict(FamilyTag.BLQQ, l + 4, 3)
        exact, closed = verdict.mass * verdict.xi["xy".index(axis)], closed_k2[axis](l)
        if exact != closed:
            yield f"l={l} {axis}: {exact} != {closed}"
        if exact <= 0:
            yield f"l={l} {axis}: moment {exact} not positive"

    def quade(n, _p):
        exact = _verdict(FamilyTag.QUAD_E, n).barycenter[0]
        closed = criteria.quad_e_x_barycenter_closed(n)
        if exact != closed:
            yield f"n={n}: {exact} != {closed}"

    cap = max(2, min(20, max_n // 2))
    return [
        _check(1, "blpp moment = closed form", _members(FamilyTag.BLPP, max_n), blpp,
               "identities"),
        _check(1, "blqq x-moment = beta expansion",
               [(k, l) for k in range(2, cap + 1) for l in range(2, cap + 1)], blqq,
               "identities"),
        _check(1, "blqq k=2 moments = antiderivative forms, both positive",
               [(l, axis) for l in range(2, max_n + 1) for axis in "xy"], blqq_k2,
               "identities"),
        _check(1, "quade barycenter ratio = closed form", _members(FamilyTag.QUAD_E, max_n),
               quade, "identities"),
    ]


# --------------------------------------------------------------------------
# Criterion 2: blpp classification sweep
# --------------------------------------------------------------------------


def check_blpp_classification(max_n: int) -> list[CheckResult]:
    def classify(n, p):
        verdict = _verdict(FamilyTag.BLPP, n, p)
        if (verdict.status is KEStatus.KAHLER_EINSTEIN) != (2 * p == n):
            yield f"n={n},p={p}: {verdict.status.value}"
        # the stability moment is mass * xi with mass > 0, so xi carries its sign
        sign = (verdict.xi[0] > 0) - (verdict.xi[0] < 0)
        expect_sign = (2 * p < n) - (2 * p > n)
        if sign != expect_sign:
            yield f"n={n},p={p}: sign {sign} != {expect_sign}"

    return [_check(2, "blpp: balanced case is the only Kähler-Einstein one, signs match",
                   _members(FamilyTag.BLPP, max_n), classify, "instances")]


# --------------------------------------------------------------------------
# Criterion 3: quadric blow-up classification sweep
# --------------------------------------------------------------------------


def check_quadric_blowups(max_n: int) -> list[CheckResult]:
    def unstable(n, p):
        verdict = _verdict(FamilyTag.BLQQ, n, p)
        if verdict.status is not KEStatus.NOT_K_SEMISTABLE:
            yield f"n={n},p={p}: {verdict.status.value}"

    def balanced(n):
        verdict = _verdict(FamilyTag.BLQQ, n, 3)
        if verdict.status is not KEStatus.KAHLER_EINSTEIN:
            yield f"n={n}: {verdict.status.value}, xi={verdict.xi}"

    def positive_x(tag, n):
        verdict = _verdict(tag, n)
        if verdict.xi[1] != 0:
            yield f"n={n}: y-witness {verdict.xi[1]} != 0"
        if not (verdict.status is KEStatus.KAHLER_EINSTEIN and verdict.xi[0] > 0):
            yield f"n={n}: {verdict.status.value}, x-witness {rational_to_str(verdict.xi[0])}"

    return [
        _check(3, "blqq with 4 <= p <= n-3 is not K-semistable",
               [(n, p) for n, p in _members(FamilyTag.BLQQ, max_n) if p >= 4], unstable,
               "instances"),
        _check(3, "blqq with p = 3 is Kähler-Einstein",
               [(n,) for n in range(FamilyTag.BLQQ.min_n, max_n + 1)], balanced, "instances"),
    ] + [
        _check(3, f"{tag.value} is Kähler-Einstein with positive x-witness",
               [(tag, n) for n in range(tag.min_n, max_n + 1)], positive_x, "instances")
        for tag in (FamilyTag.QUAD_E, FamilyTag.QUAD_PM)
    ]


# --------------------------------------------------------------------------
# Criterion 4: no Mabuchi metric on the point blow-up
# --------------------------------------------------------------------------


def check_quadpt_mabuchi(max_n: int) -> list[CheckResult]:
    def no_mabuchi(n):
        verdict = criteria.mabuchi(resolve_anticanonical(FamilyTag.QUAD_PT, n))
        detail = dict(verdict.detail)
        first = detail["first_moment"]
        if verdict.status is not MabuchiStatus.NOT_EXISTS or first <= 0:
            yield f"n={n}: {verdict.status.value}, first y-moment {first}"
        margin = detail["second_moment"] - (n - 2) * first
        closed = criteria.quad_pt_margin_closed(n)
        if closed > 0:
            yield f"n={n}: closed margin {closed} > 0"
        if (n - 3) * (n - 1) * n * margin != closed:
            yield f"n={n}: margin identity broken"

    ns = range(FamilyTag.QUAD_PT.min_n, max_n + 1)
    failures = [line for n in ns for line in no_mabuchi(n)]
    spot = criteria.quad_pt_margin_closed(5)
    if spot != -44:
        failures.append(f"spot value at n=5 is {spot}, expected -44")
    return [_result(4, "quadpt admits no Mabuchi metric; margin matches closed form",
                    failures, f"{len(ns)} instances, spot n=5 = -44")]


# --------------------------------------------------------------------------
# Criterion 5: coupled residual and bracketing search
# --------------------------------------------------------------------------


def check_coupled(max_n: int) -> list[CheckResult]:
    def positive_residual(k):
        start, _ = criteria.coupled_default_endpoints(k)
        value = criteria.coupled_residual(k, start)
        if value <= 0:
            yield f"k={k}: residual {value} not positive"

    searched = []

    def sound_certificate(k):
        start, end = criteria.coupled_default_endpoints(k)
        try:
            cert = criteria.coupled_search(k, start, end, max_bisections=40)
        except KstabError as exc:
            yield f"k={k}: {exc}"
            return
        searched.append(k)
        if not ((cert.residual_lo > 0) != (cert.residual_hi > 0)):
            yield f"k={k}: endpoint residual signs agree"
        if criteria.coupled_residual(k, cert.params_lo) != cert.residual_lo:
            yield f"k={k}: recorded low residual is stale"
        if criteria.coupled_residual(k, cert.params_hi) != cert.residual_hi:
            yield f"k={k}: recorded high residual is stale"
        if not (criteria.coupled_pair_ample(k, cert.params_lo)
                and criteria.coupled_pair_ample(k, cert.params_hi)):
            yield f"k={k}: certificate endpoint is not an ample pair"
        if cert.width > Fraction(1, 2 ** 40):
            yield f"k={k}: bracket width {cert.width} too large"

    positive = _check(5, "residual at the self-complementary half is positive",
                      [(k,) for k in range(2, max_n + 1)], positive_residual, "values")
    threshold = criteria.coupled_negative_threshold(max_k=max(max_n, 20))
    failures = [line for k in sorted({threshold, threshold + 5, 20})
                for line in sound_certificate(k)]
    return [positive, _result(5, "bracketing search yields sound certificates",
                              failures, f"threshold k0={threshold}; searched k={searched}")]


# --------------------------------------------------------------------------
# Criterion 6: multiplier-Hermitian certificates
# --------------------------------------------------------------------------


def check_multiplier_certificates(max_n: int) -> list[CheckResult]:
    def certificate(n, p):
        try:
            cert = criteria.mh_certificate(n, p)
        except KstabError as exc:
            yield f"n={n},p={p}: {exc}"
            return
        if cert.moment_integral != 0:
            yield f"n={n},p={p}: moment {cert.moment_integral}"
        if any(m <= 0 for m in cert.concavity_witness):
            yield f"n={n},p={p}: nonpositive factor minimum"

    return [_check(6, "multiplier certificates: zero moment, positive factors",
                   _members(FamilyTag.BLPP, max_n), certificate, "certificates")]


# --------------------------------------------------------------------------
# Criterion 7: property suites
# --------------------------------------------------------------------------

# The random weights, polynomials and chords of criterion 7 are fixed by this seed.
_SEED = 20240212
_CHORD_SPLITS = 200


def _sample_polygons() -> list[Polygon]:
    return [
        resolve_anticanonical(FamilyTag.BLQQ, 6, 3).domain,
        resolve_anticanonical(FamilyTag.QUAD_E, 7).domain,
        resolve_anticanonical(FamilyTag.QUAD_PM, 6).domain,
    ]


def _random_poly2(rng: random.Random, max_degree: int) -> Poly2:
    terms = []
    for _ in range(rng.randint(1, 6)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms.append((i, j, coeff))
    poly = Poly2.from_terms(terms)
    return poly if not poly.is_zero else Poly2.constant(1)


def _random_chord(rng: random.Random, polygon: Polygon) -> tuple[Fraction, Fraction, Fraction]:
    m = len(polygon.vertices)
    i = rng.randrange(m)
    j = (i + rng.randrange(1, m)) % m

    def edge_point(idx: int) -> tuple[Fraction, Fraction]:
        v, w = polygon.vertices[idx], polygon.vertices[(idx + 1) % m]
        s = Fraction(rng.randint(1, 7), 8)
        return (v[0] + s * (w[0] - v[0]), v[1] + s * (w[1] - v[1]))

    a, b = edge_point(i), edge_point(j)
    normal = (b[1] - a[1], a[0] - b[0])
    return normal[0], normal[1], normal[0] * a[0] + normal[1] * a[1]


def _random_linear_product(rng: random.Random, max_degree: int) -> FactoredWeight:
    """A random rational times one to four random linear forms, of total degree at most ``max_degree``."""
    factors, degree = [], 0
    for _ in range(rng.randint(1, 4)):
        slopes = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
        mult = rng.randint(0, max_degree - degree)
        factors.append((AffineForm.of(0, *slopes), mult))
        degree += mult
    return FactoredWeight.of(Fraction(rng.randint(1, 9), rng.randint(1, 9)), factors)


def _chord_splits(rng: random.Random, polygons: list[Polygon], wanted: int) -> list[tuple]:
    """Up to ``wanted`` cases (index, polygon, its two parts across a random
    chord, a random product of linear forms), from at most 20 chords per case."""
    splits: list[tuple] = []
    for attempt in range(1, wanted * 20 + 1):
        if len(splits) == wanted:
            break
        polygon = polygons[attempt % len(polygons)]
        chord = _random_chord(rng, polygon)
        flipped = tuple(-v for v in chord)
        try:
            part_one = polygon_from_halfplanes(polygon.halfplanes + (chord,))
            part_two = polygon_from_halfplanes(polygon.halfplanes + (flipped,))
        except KstabError:
            continue
        splits.append((len(splits), polygon, part_one, part_two,
                       _random_linear_product(rng, max_degree=10)))
    return splits


def check_quadrature_properties(max_n: int) -> list[CheckResult]:
    rng = random.Random(_SEED)
    polygons = _sample_polygons()

    def additive(index, polygon, part_one, part_two, weight):
        whole = integrate_factored(weight, polygon)
        split = integrate_factored(weight, part_one) + integrate_factored(weight, part_two)
        if whole != split:
            yield f"case {index}: {whole} != {split}"

    def fan_independent(polygon, f):
        values = {
            sum((integrate_poly2_triangle(f, tri) for tri in fan_triangles(polygon, root)),
                Fraction(0))
            for root in range(len(polygon.vertices))
        }
        if len(values) != 1:
            yield f"{len(polygon.vertices)}-gon: {len(values)} distinct values"

    def inside(tag, n, p):
        inst = resolve_anticanonical(tag, n, p)
        if not inst.domain.contains(inst.moments[1]):
            yield f"{tag.value} n={n}" + ("" if p is None else f",p={p}")

    blpp = _members(FamilyTag.BLPP, max_n)
    xi = {(n, p): _verdict(FamilyTag.BLPP, n, p).xi[0] for n, p in blpp}

    def mirrored(n, p):
        if xi[n, p] != -xi[n, n - p]:
            yield f"n={n},p={p}: {xi[n, p]} != -({xi[n, n - p]})"

    splits = _chord_splits(rng, polygons, _CHORD_SPLITS)
    split_failures = [line for split in splits for line in additive(*split)]
    if len(splits) < _CHORD_SPLITS:
        split_failures.append(f"only {len(splits)} of {_CHORD_SPLITS} chord splits were produced")
    return [
        _result(7, "integral additivity under random chord splits",
                split_failures, f"{len(splits)} exact splits"),
        _check(7, "triangulation independence across fan roots",
               [(polygon, _random_poly2(rng, max_degree=6)) for polygon in polygons],
               fan_independent, "polygons, all fan roots"),
        _check(7, "barycenter lies inside every ample family domain",
               [(tag, n, p) for tag in FamilyTag for n, p in _members(tag, max_n)], inside,
               "instances"),
        _check(7, "blpp mirror antisymmetry of the witness", blpp, mirrored, "pairs"),
        _cli_determinism_check(),
    ]


def _cli_determinism_check() -> CheckResult:
    from . import cli  # local import: only this check runs the command line

    def render(args):
        # Empty the memo, so each render resolves and integrates every row afresh.
        resolve.cache_clear()
        return cli.render_to_string(args)

    def rerun_identical(fmt):
        args = ["ke", "--family", "blpp", "--n", "4..8", "--p", "all", "--format", fmt, "--jobs", "1"]
        if render(args) != render(args):
            yield f"{fmt} output differs between identical runs"

    return _check(7, "identical runs render byte-identical json/csv",
                  [("json",), ("csv",)], rerun_identical, "formats")


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def verify_theorems(max_n: int = 40, suite: str = "all") -> list[CheckResult]:
    """Run the selected verification suite up to the given size.

    Returns one CheckResult per check; failures are embedded in the
    results, never raised.
    """
    if max_n < 7:
        raise InvalidParameterError(f"max_n must be at least 7, got {max_n}")
    if suite not in SUITE_CRITERIA:
        raise InvalidParameterError(
            f"unknown suite {suite!r}; choose from {sorted(SUITE_CRITERIA)}"
        )
    # Built per call, so a check rebound on the module (as a tracer does) is the one run.
    checks = (check_closed_forms, check_blpp_classification, check_quadric_blowups,
              check_quadpt_mabuchi, check_coupled, check_multiplier_certificates,
              check_quadrature_properties)
    return [result for criterion in SUITE_CRITERIA[suite]
            for result in checks[criterion - 1](max_n)]
