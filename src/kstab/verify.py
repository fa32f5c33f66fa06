"""Theorem-level verification suites.

Each check re-derives a published-style claim two independent ways (exact
polytope integration on one side, a closed form or structural argument on
the other) and reports pass/fail with an exact witness.  Failures are
reported, never thrown: a red line with its counterexample is a result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import criteria
from .criteria import KEStatus, MabuchiStatus
from .errors import InvalidParameterError, KstabError
from .families import FamilyTag, resolve_anticanonical
from .poly import Poly2, rational_to_str
from .polytope import HalfPlane, Polygon, fan_triangles, polygon_from_halfplanes
from .quadrature import integrate_poly2_polygon, integrate_poly2_triangle

SUITES = ("closed-forms", "ke", "mabuchi", "coupled", "mh", "properties")

_SUITE_CRITERIA = {
    "closed-forms": (1,),
    "ke": (2, 3),
    "mabuchi": (4,),
    "coupled": (5,),
    "mh": (6,),
    "properties": (7,),
    "all": (1, 2, 3, 4, 5, 6, 7),
}


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    witness: str


def _result(criterion: int, name: str, failures: list[str], ok_witness: str) -> CheckResult:
    if failures:
        return CheckResult(criterion, name, False, "; ".join(failures[:3]))
    return CheckResult(criterion, name, True, ok_witness)


# --------------------------------------------------------------------------
# Criterion 1: closed-form oracle equivalence
# --------------------------------------------------------------------------


def check_closed_forms(max_n: int) -> list[CheckResult]:
    out = []

    failures = []
    count = 0
    for n in range(FamilyTag.BLPP.min_n, max_n + 1):
        for p in FamilyTag.BLPP.p_values(n):
            count += 1
            exact, closed = criteria.blpp_moment(n, p), criteria.blpp_moment_closed(n, p)
            if exact != closed:
                failures.append(f"n={n},p={p}: {exact} != {closed}")
    out.append(_result(1, "blpp moment = closed form", failures, f"{count} identities"))

    failures = []
    count = 0
    cap = max(2, min(20, max_n // 2))
    for k in range(2, cap + 1):
        for l in range(2, cap + 1):
            count += 1
            exact, closed = criteria.blqq_x_moment(k, l), criteria.blqq_x_moment_closed(k, l)
            if exact != closed:
                failures.append(f"k={k},l={l}: {exact} != {closed}")
    out.append(_result(1, "blqq x-moment = beta expansion", failures, f"{count} identities"))

    failures = []
    count = 0
    for l in range(2, max_n + 1):
        count += 2
        ex_x, cl_x = criteria.blqq_x_moment(2, l), criteria.blqq_x_moment_closed_k2(l)
        ex_y, cl_y = criteria.blqq_y_moment(2, l), criteria.blqq_y_moment_closed_k2(l)
        if ex_x != cl_x:
            failures.append(f"l={l} x: {ex_x} != {cl_x}")
        if ex_y != cl_y:
            failures.append(f"l={l} y: {ex_y} != {cl_y}")
        if ex_x <= 0 or ex_y <= 0:
            failures.append(f"l={l}: moments not positive ({ex_x}, {ex_y})")
    out.append(_result(1, "blqq k=2 moments = antiderivative forms, both positive",
                       failures, f"{count} identities"))

    failures = []
    count = 0
    for n in range(FamilyTag.QUAD_E.min_n, max_n + 1):
        count += 1
        exact, closed = criteria.quad_e_x_barycenter(n), criteria.quad_e_x_barycenter_closed(n)
        if exact != closed:
            failures.append(f"n={n}: {exact} != {closed}")
    out.append(_result(1, "quade barycenter ratio = closed form", failures, f"{count} identities"))
    return out


# --------------------------------------------------------------------------
# Criterion 2: blpp classification sweep
# --------------------------------------------------------------------------


def check_blpp_classification(max_n: int) -> list[CheckResult]:
    failures = []
    count = 0
    for n in range(FamilyTag.BLPP.min_n, max_n + 1):
        for p in FamilyTag.BLPP.p_values(n):
            count += 1
            verdict = criteria.ke_classify(resolve_anticanonical(FamilyTag.BLPP, n, p))
            expect_ke = (n % 2 == 0 and 2 * p == n)
            if (verdict.status is KEStatus.KAHLER_EINSTEIN) != expect_ke:
                failures.append(f"n={n},p={p}: {verdict.status.value}")
            sign = criteria.blpp_moment_sign(n, p)
            expect_sign = 0 if 2 * p == n else (1 if 2 * p < n else -1)
            if sign != expect_sign:
                failures.append(f"n={n},p={p}: sign {sign} != {expect_sign}")
    return [_result(2, "blpp: balanced case is the only Kähler-Einstein one, signs match",
                    failures, f"{count} instances")]


# --------------------------------------------------------------------------
# Criterion 3: quadric blow-up classification sweep
# --------------------------------------------------------------------------


def check_quadric_blowups(max_n: int) -> list[CheckResult]:
    out = []

    failures = []
    count = 0
    for n in range(FamilyTag.BLQQ.min_n, max_n + 1):
        for p in [p for p in FamilyTag.BLQQ.p_values(n) if p >= 4]:
            count += 1
            verdict = criteria.ke_classify(resolve_anticanonical(FamilyTag.BLQQ, n, p))
            if verdict.status is not KEStatus.NOT_K_SEMISTABLE:
                failures.append(f"n={n},p={p}: {verdict.status.value}")
    out.append(_result(3, "blqq with 4 <= p <= n-3 is not K-semistable",
                       failures, f"{count} instances"))

    failures = []
    count = 0
    for n in range(FamilyTag.BLQQ.min_n, max_n + 1):
        count += 1
        verdict = criteria.ke_classify(resolve_anticanonical(FamilyTag.BLQQ, n, 3))
        if verdict.status is not KEStatus.KAHLER_EINSTEIN:
            failures.append(f"n={n}: {verdict.status.value}, xi={verdict.xi}")
    out.append(_result(3, "blqq with p = 3 is Kähler-Einstein", failures, f"{count} instances"))

    for tag, label in ((FamilyTag.QUAD_E, "quade"), (FamilyTag.QUAD_PM, "quadpm")):
        failures = []
        count = 0
        for n in range(tag.min_n, max_n + 1):
            count += 1
            verdict = criteria.ke_classify(resolve_anticanonical(tag, n))
            if verdict.xi[1] != 0:
                failures.append(f"n={n}: y-witness {verdict.xi[1]} != 0")
            if not (verdict.status is KEStatus.KAHLER_EINSTEIN and verdict.xi[0] > 0):
                failures.append(
                    f"n={n}: {verdict.status.value}, x-witness {rational_to_str(verdict.xi[0])}"
                )
        out.append(_result(3, f"{label} is Kähler-Einstein with positive x-witness",
                           failures, f"{count} instances"))
    return out


# --------------------------------------------------------------------------
# Criterion 4: no Mabuchi metric on the point blow-up
# --------------------------------------------------------------------------


def check_quadpt_mabuchi(max_n: int) -> list[CheckResult]:
    failures = []
    count = 0
    for n in range(FamilyTag.QUAD_PT.min_n, max_n + 1):
        count += 1
        verdict = criteria.mabuchi(resolve_anticanonical(FamilyTag.QUAD_PT, n))
        first = dict(verdict.detail)["first_moment"]
        if verdict.status is not MabuchiStatus.NOT_EXISTS or first <= 0:
            failures.append(f"n={n}: {verdict.status.value}, first y-moment {first}")
        margin = criteria.quad_pt_margin(n)
        closed = criteria.quad_pt_margin_closed(n)
        if closed > 0:
            failures.append(f"n={n}: closed margin {closed} > 0")
        if (n - 3) * (n - 1) * n * margin != closed:
            failures.append(f"n={n}: margin identity broken")
    spot = criteria.quad_pt_margin_closed(5)
    if spot != -44:
        failures.append(f"spot value at n=5 is {spot}, expected -44")
    return [_result(4, "quadpt admits no Mabuchi metric; margin matches closed form",
                    failures, f"{count} instances, spot n=5 = -44")]


# --------------------------------------------------------------------------
# Criterion 5: coupled residual and bracketing search
# --------------------------------------------------------------------------


def check_coupled(max_n: int) -> list[CheckResult]:
    out = []

    failures = []
    count = 0
    for k in range(2, max_n + 1):
        count += 1
        start, _ = criteria.coupled_default_endpoints(k)
        value = criteria.coupled_residual(k, start)
        if value <= 0:
            failures.append(f"k={k}: residual {value} not positive")
    out.append(_result(5, "residual at the self-complementary half is positive",
                       failures, f"{count} values"))

    failures = []
    threshold = criteria.coupled_negative_threshold(max_k=max(max_n, 20))
    searched = []
    for k in sorted({threshold, threshold + 5, 20}):
        start, end = criteria.coupled_default_endpoints(k)
        try:
            cert = criteria.coupled_search(k, start, end, max_bisections=40)
        except KstabError as exc:
            failures.append(f"k={k}: {exc}")
            continue
        searched.append(k)
        if not ((cert.residual_lo > 0) != (cert.residual_hi > 0)):
            failures.append(f"k={k}: endpoint residual signs agree")
        if criteria.coupled_residual(k, cert.params_lo) != cert.residual_lo:
            failures.append(f"k={k}: recorded low residual is stale")
        if criteria.coupled_residual(k, cert.params_hi) != cert.residual_hi:
            failures.append(f"k={k}: recorded high residual is stale")
        if not (criteria.coupled_pair_ample(k, cert.params_lo)
                and criteria.coupled_pair_ample(k, cert.params_hi)):
            failures.append(f"k={k}: certificate endpoint is not an ample pair")
        if cert.width > Fraction(1, 2 ** 40):
            failures.append(f"k={k}: bracket width {cert.width} too large")
    out.append(_result(5, "bracketing search yields sound certificates",
                       failures, f"threshold k0={threshold}; searched k={searched}"))
    return out


# --------------------------------------------------------------------------
# Criterion 6: multiplier-Hermitian certificates
# --------------------------------------------------------------------------


def check_multiplier_certificates(max_n: int) -> list[CheckResult]:
    failures = []
    count = 0
    for n in range(FamilyTag.BLPP.min_n, max_n + 1):
        for p in FamilyTag.BLPP.p_values(n):
            count += 1
            try:
                cert = criteria.mh_certificate(n, p)
            except KstabError as exc:
                failures.append(f"n={n},p={p}: {exc}")
                continue
            if cert.moment_integral != 0:
                failures.append(f"n={n},p={p}: moment {cert.moment_integral}")
            if any(m <= 0 for m in cert.concavity_witness):
                failures.append(f"n={n},p={p}: nonpositive factor minimum")
    return [_result(6, "multiplier certificates: zero moment, positive factors",
                    failures, f"{count} certificates")]


# --------------------------------------------------------------------------
# Criterion 7: property suites
# --------------------------------------------------------------------------


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


def _random_chord(rng: random.Random, polygon: Polygon) -> HalfPlane:
    m = len(polygon.vertices)
    i = rng.randrange(m)
    j = (i + rng.randrange(1, m)) % m
    if i == j:
        j = (i + 1) % m

    def edge_point(idx: int) -> tuple[Fraction, Fraction]:
        v, w = polygon.vertices[idx], polygon.vertices[(idx + 1) % m]
        s = Fraction(rng.randint(1, 7), 8)
        return (v[0] + s * (w[0] - v[0]), v[1] + s * (w[1] - v[1]))

    a, b = edge_point(i), edge_point(j)
    normal = (b[1] - a[1], a[0] - b[0])
    return HalfPlane.of(normal[0], normal[1], normal[0] * a[0] + normal[1] * a[1])


def check_quadrature_properties(max_n: int, cases: int = 200, seed: int = 20240212) -> list[CheckResult]:
    out = []
    rng = random.Random(seed)
    polygons = _sample_polygons()

    failures = []
    done = 0
    attempts = 0
    while done < cases and attempts < cases * 20:
        attempts += 1
        polygon = polygons[attempts % len(polygons)]
        chord = _random_chord(rng, polygon)
        flipped = HalfPlane.of(-chord.a, -chord.b, -chord.c)
        try:
            part_one = polygon_from_halfplanes(polygon.halfplanes + (chord,))
            part_two = polygon_from_halfplanes(polygon.halfplanes + (flipped,))
        except KstabError:
            continue
        f = _random_poly2(rng, max_degree=10)
        whole = integrate_poly2_polygon(f, polygon)
        split = integrate_poly2_polygon(f, part_one) + integrate_poly2_polygon(f, part_two)
        if whole != split:
            failures.append(f"case {done}: {whole} != {split}")
        done += 1
    if done < cases:
        failures.append(f"only {done} of {cases} chord splits were produced")
    out.append(_result(7, "integral additivity under random chord splits",
                       failures, f"{done} exact splits"))

    failures = []
    for polygon in polygons:
        f = _random_poly2(rng, max_degree=6)
        values = set()
        for root in range(len(polygon.vertices)):
            total = sum(
                (integrate_poly2_triangle(f, tri) for tri in fan_triangles(polygon, root)),
                Fraction(0),
            )
            values.add(total)
        if len(values) != 1:
            failures.append(f"{len(polygon.vertices)}-gon: {len(values)} distinct values")
    out.append(_result(7, "triangulation independence across fan roots",
                       failures, f"{len(polygons)} polygons, all fan roots"))

    failures = []
    count = 0
    for tag in FamilyTag:
        for n in range(tag.min_n, max_n + 1):
            for p in tag.p_values(n):
                count += 1
                inst = resolve_anticanonical(tag, n, p)
                bary = criteria.instance_barycenter(inst)
                if not inst.domain.contains(bary[0] if len(bary) == 1 else bary):
                    failures.append(f"{tag.cli_name} n={n}" + ("" if p is None else f",p={p}"))
    out.append(_result(7, "barycenter lies inside every ample family domain",
                       failures, f"{count} instances"))

    failures = []
    count = 0
    for n in range(FamilyTag.BLPP.min_n, max_n + 1):
        for p in FamilyTag.BLPP.p_values(n):
            count += 1
            xi = criteria.ke_classify(resolve_anticanonical(FamilyTag.BLPP, n, p)).xi[0]
            xi_mirror = criteria.ke_classify(resolve_anticanonical(FamilyTag.BLPP, n, n - p)).xi[0]
            if xi != -xi_mirror:
                failures.append(f"n={n},p={p}: {xi} != -({xi_mirror})")
    out.append(_result(7, "blpp mirror antisymmetry of the witness",
                       failures, f"{count} pairs"))

    out.append(_cli_determinism_check())
    return out


def _cli_determinism_check() -> CheckResult:
    from . import cli  # local import; cli depends on this module

    failures = []
    for fmt in ("json", "csv"):
        args = ["ke", "--family", "blpp", "--n", "4..8", "--p", "all", "--format", fmt]
        first = cli.render_to_string(args)
        second = cli.render_to_string(args)
        if first != second:
            failures.append(f"{fmt} output differs between identical runs")
    return _result(7, "identical runs render byte-identical json/csv", failures, "2 formats")


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
    if suite not in _SUITE_CRITERIA:
        raise InvalidParameterError(
            f"unknown suite {suite!r}; choose from {sorted(_SUITE_CRITERIA)}"
        )
    wanted = set(_SUITE_CRITERIA[suite])
    results: list[CheckResult] = []
    if 1 in wanted:
        results.extend(check_closed_forms(max_n))
    if 2 in wanted:
        results.extend(check_blpp_classification(max_n))
    if 3 in wanted:
        results.extend(check_quadric_blowups(max_n))
    if 4 in wanted:
        results.extend(check_quadpt_mabuchi(max_n))
    if 5 in wanted:
        results.extend(check_coupled(max_n))
    if 6 in wanted:
        results.extend(check_multiplier_certificates(max_n))
    if 7 in wanted:
        results.extend(check_quadrature_properties(max_n))
    return results
