"""Output checks for the benchmark.

Every row and every verify check is checked against an oracle that does not
call ``kstab.quadrature``: the closed forms in ``kstab.criteria``, the
verdict patterns that ``kstab verify`` pins, and identities that follow
from the family data (targets, reflected factors, bisection brackets).

An operation is one output row or one verify check.  It fails when its
verdict is ``error:*``, when its check is a FAIL, or when an oracle rejects
it.  Two failures are documented at this commit: the ``coupled --k 2``
contract-breach row (ROADMAP item 5) and the quade check of criterion 3
(README, "Known failing acceptance check").  Each is accepted only with
exactly its documented output and is counted in ``known``, not in
``failed``: the workloads still run them, and the run reports them, but
``failed`` counts only failures nobody has documented.  Any such failure is
also a rejection, which makes the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from kstab import criteria

QUADE_CHECK = "quade is Kähler-Einstein with positive x-witness"
VERIFY_CHECK_COUNT = 18
COUPLED_BISECTIONS = 40


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    known: int = 0
    rejected: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.rejected += other.rejected


def check_output(argv: list[str], payload: dict) -> Outcome:
    """Check one invocation's json report; ``argv`` is its command line."""
    command = argv[0]
    if payload.get("command") != command:
        return Outcome(1, 1, rejected=[f"{command}: report is for {payload.get('command')!r}"])
    out = Outcome()
    if command == "verify":
        _check_verify(payload["rows"], int(argv[argv.index("--max-n") + 1]), out)
        return out
    for row in payload["rows"]:
        out.attempted += 1
        problem = _check_row(command, row)
        if problem:
            out.failed += 1
            out.rejected.append(f"{command} {row['family']} {row['params']}: {problem}")
        elif row["verdict"].startswith("error:"):
            out.known += 1
    return out


def _check_row(command: str, row: dict) -> str | None:
    w = {key: Fraction(value) for key, value in row["witness"].items()}
    family, params, verdict = row["family"], row["params"], row["verdict"]
    if command == "ke":
        return _check_ke(family, params["n"], params.get("p"), verdict, w)
    if command == "mabuchi":
        return _check_mabuchi(family, params["n"], params.get("p"), verdict, w)
    if command == "mh":
        n, p = params["n"], params["p"]
        if verdict != "certificate" or w["moment_integral"] != 0:
            return f"{verdict}, moment {w.get('moment_integral')}"
        if (w["factor_min_0"], w["factor_min_1"]) != (p - 1, n - p - 1):
            return "factor minima differ from (p-1, n-p-1)"
        return None
    if command == "coupled":
        return _check_coupled(params["k"], verdict, w)
    return f"unknown command {command}"


_QUAD = ("quade", "quadpt", "quadpm")


def _ke_target(family: str, n: int, p: int | None) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    if family == "blpp":
        return (Fraction(n, 2) - p,), ()
    if family == "blqq":
        return (Fraction(p - 2), Fraction(n - p - 2)), (0, 1)
    return (Fraction(n - 4), Fraction(0)), (0,)


def _check_ke(family, n, p, verdict, w) -> str | None:
    if verdict.startswith("error:"):
        return verdict
    target, strict = _ke_target(family, n, p)
    axes = ("t",) if family == "blpp" else ("x", "y")
    bary = tuple(w[f"bary_{a}"] for a in axes)
    xi = tuple(w[f"xi_{a}"] for a in axes)
    mass = w["mass"]
    if mass <= 0:
        return f"mass {mass} not positive"
    if any(b - t != x for b, t, x in zip(bary, target, xi)):
        return "witness offset is not barycenter minus target"
    if verdict != criteria.classify_offset(xi, strict).value:
        return f"verdict {verdict} does not follow from the witness"
    if family == "blpp":
        if mass * xi[0] != criteria.blpp_moment_closed(n, p):
            return "moment differs from blpp_moment_closed"
        if (verdict == "kahler-einstein") != (n == 2 * p):
            return "Kähler-Einstein iff n = 2p is broken"
    elif family == "blqq":
        k, l = p - 1, n - p - 1
        if mass * xi[0] != criteria.blqq_x_moment_closed(k, l):
            return "x-moment differs from blqq_x_moment_closed"
        if k == 2 and mass * xi[1] != criteria.blqq_y_moment_closed_k2(l):
            return "y-moment differs from blqq_y_moment_closed_k2"
        expect = "kahler-einstein" if p == 3 else "not-k-semistable"
        if verdict != expect:
            return f"expected {expect}"
    elif family == "quade":
        if bary[0] != criteria.quad_e_x_barycenter_closed(n) or xi[1] != 0:
            return "barycenter differs from quad_e_x_barycenter_closed"
    elif family == "quadpm":
        if verdict != "kahler-einstein" or xi[0] <= 0 or xi[1] != 0:
            return "expected Kähler-Einstein with positive x-witness"
    return None


def _check_mabuchi(family, n, p, verdict, w) -> str | None:
    if verdict.startswith("error:"):
        return verdict
    first, second = w["first_moment"], w["second_moment"]
    if first == 0:
        expect, ratio = "exists", None
    else:
        ratio = second / first
        if w.get("ratio") != ratio:
            return "ratio witness is not second/first"
    if family == "blpp":
        if first != criteria.blpp_moment_closed(n, p):
            return "first moment differs from blpp_moment_closed"
        if ratio is not None:
            expect = "not-exists" if -1 <= ratio <= 1 else "exists"
    else:
        margin = (n - 3) * (n - 1) * n * (second - (n - 2) * first)
        if first <= 0 or margin != criteria.quad_pt_margin_closed(n):
            return "margin differs from quad_pt_margin_closed"
        expect = "not-exists"
        if ratio is None or not -1 <= ratio <= n - 2:
            return f"ratio {ratio} outside [-1, n-2]"
    return None if verdict == expect else f"expected {expect}"


def _check_coupled(k: int, verdict: str, w: dict) -> str | None:
    if verdict == "error:contract-breach" and k == 2:
        return None  # documented failure, ROADMAP item 5; counted as known
    if verdict == "no-bracket":
        return None
    if verdict != "certificate":
        return verdict
    lo = tuple(w[f"lo_{i}"] for i in range(3))
    hi = tuple(w[f"hi_{i}"] for i in range(3))
    mid = tuple(w[f"mid_{i}"] for i in range(3))
    r_lo, r_hi = w["residual_lo"], w["residual_hi"]
    if r_lo == 0 or r_hi == 0 or (r_lo > 0) == (r_hi > 0):
        return "bracket residuals do not change sign"
    if not 0 < w["width"] <= Fraction(1, 2 ** COUPLED_BISECTIONS):
        return f"bracket width {w['width']}"
    if any(m != (a + b) / 2 for m, a, b in zip(mid, lo, hi)):
        return "midpoint is not the bracket centre"
    start, end = criteria.coupled_default_endpoints(k)
    s_lo, s_hi = _segment_parameter(start, end, lo), _segment_parameter(start, end, hi)
    if s_lo is None or s_hi is None or not 0 <= s_lo < s_hi <= 1 or s_hi - s_lo != w["width"]:
        return "bracket does not lie on the search segment"
    if not (criteria.coupled_pair_ample(k, lo) and criteria.coupled_pair_ample(k, hi)):
        return "bracket end is not an ample pair"
    return None


def _segment_parameter(start, end, point) -> Fraction | None:
    axis = next(i for i in range(3) if end[i] != start[i])
    s = (point[axis] - start[axis]) / (end[axis] - start[axis])
    if any(a + s * (b - a) != v for a, b, v in zip(start, end, point)):
        return None
    return s


def _quade_witness(max_n: int) -> str:
    """The witness of the documented quade failure: verify lists the first
    three n whose closed-form x-offset is negative."""
    failures = []
    for n in range(5, max_n + 1):
        xi = criteria.quad_e_x_barycenter_closed(n) - (n - 4)
        if xi < 0:
            failures.append(f"n={n}: not-k-semistable, x-witness {xi}")
    return "; ".join(failures[:3])


def _check_verify(rows: list[dict], max_n: int, out: Outcome) -> None:
    out.attempted += len(rows)
    if len(rows) != VERIFY_CHECK_COUNT or {r["criterion"] for r in rows} != set(range(1, 8)):
        out.failed += 1
        out.rejected.append(f"verify: {len(rows)} checks, expected {VERIFY_CHECK_COUNT} over criteria 1-7")
    for r in rows:
        if r["status"] == "pass":
            continue
        if r["name"] == QUADE_CHECK and r["witness"] == _quade_witness(max_n):
            out.known += 1
            continue
        out.failed += 1
        out.rejected.append(f"verify criterion {r['criterion']} {r['name']}: {r['witness']}")
