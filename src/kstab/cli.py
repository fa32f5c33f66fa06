"""Command-line surface: single checks, parameter sweeps, verification
suites, and machine-readable reports.

This is the only module that renders decimals or schedules work.  Every
verdict and witness is produced by the exact core; decimal columns are
derived for display and never feed back into a decision.  Identical
invocations produce byte-identical json and csv output: rows are generated
in parameter order and keys in fixed order.

Exit codes: 0 on completion; 1 when ``parse_spec`` (which checks every
argument before any row runs, with the library's validators where it has
them) or ``--out`` refused the invocation; 2 when any row ended in an
``error:<code>`` verdict (whatever the code) or when dump-instance's
validated member could not be built.  The reason of each error or
no-bracket row goes to stderr, one line a row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from io import StringIO
from typing import Callable, NamedTuple, Sequence

from . import criteria
from .errors import InvalidParameterError, KstabError, NoBracketError
from .families import FamilyTag, _as_divisor, _validated, check_params, instance_record, resolve
from .poly import _excerpt, rational_from_str, rational_to_str
from .suites import SUITE_CRITERIA

SCHEMA_VERSION = 1
# The largest sweep admitted: rows × n (n = 2k + 1 for coupled) and the length
# of a range may not exceed it.  A larger one exits 1 before any row is built.
MAX_WORK = 50_000
# The most bisections of a coupled search: they narrow its bracket to width
# 2^-200, while the integers of each probe grow with the bisection count.
MAX_BISECTIONS = 200
# The largest verify --max-n; the suite's cost grows about as n^3.
MAX_VERIFY_N = 80
# A sweep's pool starts once the rows done predict this long serially for the
# rows left: about ten times the pool's start-up, 40 ms on a 2-vCPU box
# (importing concurrent.futures.process, then starting the workers).
SERIAL_BUDGET_S = 0.5

class SpecError(Exception):
    """Invalid command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we want exit 1
        raise SpecError(message)


class Task(NamedTuple):
    """One report row to compute, picklable for the worker pool: a member
    (n, p) of the family, or a coupled search at k along start -> end."""

    command: str
    family: FamilyTag
    n: int | None
    p: int | None
    k: int | None = None
    bisections: int = 0
    start: tuple[Fraction, ...] | None = None
    end: tuple[Fraction, ...] | None = None

    @property
    def params(self) -> dict:
        """The parameter columns of the task's row."""
        if self.command == "coupled":
            return {"k": self.k}
        return {"n": self.n} if self.p is None else {"n": self.n, "p": self.p}


class RunSpec(NamedTuple):
    """A validated invocation: the rows of a sweep, verify's suite and
    --max-n, or dump-instance's member as ``families._validated`` returns it."""

    command: str
    tasks: tuple[Task, ...]
    suite: str
    max_n: int
    member: tuple | None
    fmt: str
    out: str | None
    jobs: int


def _parse_range(text: str, field: str) -> tuple[int, ...]:
    s = text.strip()
    try:
        if ".." in s:
            lo_s, hi_s = s.split("..")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(s)
    except ValueError as exc:
        raise SpecError(f"field {field}: cannot parse range {_excerpt(text)!r}") from exc
    if hi < lo:
        raise SpecError(f"field {field}: empty range {_excerpt(text)!r}")
    if hi - lo >= MAX_WORK:  # refused before it is built
        raise SpecError(f"field {field}: range {_excerpt(text)!r} has more than {MAX_WORK} values")
    return tuple(range(lo, hi + 1))


def _parse_int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SpecError(f"field {field}: cannot parse integer {_excerpt(text)!r}") from exc


def _ask(field: str, validator: Callable, *args):
    """Call a library validator; its ``InvalidParameterError`` refuses the
    invocation under ``field``, in the library's words."""
    try:
        return validator(*args)
    except InvalidParameterError as exc:
        raise SpecError(f"field {field}: {exc}") from exc


def _parse_divisor(text: str, field: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if not any(p.strip() for p in parts):
        raise SpecError(f"field {field}: no coefficients given")
    if not all(p.strip() for p in parts):
        raise SpecError(f"field {field}: empty coefficient in {_excerpt(text)!r}")
    return tuple(_ask(field, rational_from_str, p) for p in parts)


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="kstab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--jobs", default=_available_cpus(),
                       help="most workers a sweep may use once its rows left would take "
                            f"{SERIAL_BUDGET_S} s serially (default: the available parallelism)")

    ke = sub.add_parser("ke", help="Kähler-Einstein / K-semistability classification")
    ke.add_argument("--family", required=True, choices=sorted(t.value for t in FamilyTag))
    ke.add_argument("--n", required=True, help="integer or inclusive range lo..hi")
    ke.add_argument("--p", default=None, help="integer, range, or 'all'")
    add_common(ke)

    mab = sub.add_parser("mabuchi", help="Mabuchi-metric existence tests")
    mab.add_argument("--family", required=True, choices=("blpp", "quadpt"))
    mab.add_argument("--n", required=True)
    mab.add_argument("--p", default=None)
    add_common(mab)

    coup = sub.add_parser("coupled", help="coupled Kähler-Einstein residual bracketing")
    coup.add_argument("--k", required=True)
    coup.add_argument("--bisections", default=40)
    coup.add_argument("--start", default=None, help="segment start divisor (default: built-in)")
    coup.add_argument("--end", default=None, help="segment end divisor (default: built-in)")
    add_common(coup)

    mh = sub.add_parser("mh", help="multiplier-Hermitian certificates")
    mh.add_argument("--n", required=True)
    mh.add_argument("--p", default=None)
    mh.set_defaults(family="blpp")
    add_common(mh)

    ver = sub.add_parser("verify", help="run the theorem-verification suites")
    ver.add_argument("--suite", default="all", choices=tuple(SUITE_CRITERIA))
    ver.add_argument("--max-n", default=40, dest="max_n")
    add_common(ver)

    dump = sub.add_parser("dump-instance", help="emit the structured record of one instance")
    dump.add_argument("--family", required=True, choices=sorted(t.value for t in FamilyTag))
    dump.add_argument("--n", required=True)
    dump.add_argument("--p", default=None)
    dump.add_argument("--divisor", default=None,
                      help="comma-separated rational coefficients (default: anticanonical)")
    add_common(dump)
    return parser


# Flags whose value may start with "-", as in "--p -2..1"
_VALUE_FLAGS = ("--n", "--p", "--k", "--start", "--end", "--divisor")


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Join each value flag to a following "-..." value as "--flag=-...".

    argparse reads a lone "-2..1" as an unknown option, so the value would
    never reach its parser and the error would name the wrong problem.
    """
    args: list[str] = []
    for arg in argv:
        if args and args[-1] in _VALUE_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            args[-1] = f"{args[-1]}={arg}"
        else:
            args.append(arg)
    return args


def _check_rows(field: str, rows: int, top: int) -> None:
    if rows * top > MAX_WORK:
        raise SpecError(f"field {field}: {rows} rows up to n = {top} exceed the limit "
                        f"of {MAX_WORK} for rows × n")


def _member_tasks(ns: argparse.Namespace, tag: FamilyTag) -> tuple[Task, ...]:
    """The rows of ke, mabuchi or mh: each n of --n with each p of --p, or
    every p of the family at that n when --p is absent or 'all'."""
    n_values = _parse_range(ns.n, "--n")
    p_all = ns.p is None or ns.p.strip() == "all"
    p_values = () if p_all else _parse_range(ns.p, "--p")

    def p_at(n: int):
        return tag.p_values(n) if p_all else p_values

    _check_rows("--n", sum(len(p_at(n)) for n in n_values), max(n_values))
    if all(n < tag.min_n for n in n_values):
        raise SpecError(f"field --n: every requested n is below the family minimum {tag.min_n}")
    if not p_all and not any(p in tag.p_values(n) for n in n_values for p in p_values):
        raise SpecError("field --p: out of range for every requested n")
    return tuple(Task(ns.command, tag, n, p) for n in n_values for p in p_at(n))


def _coupled_tasks(ns: argparse.Namespace) -> tuple[Task, ...]:
    """The rows of coupled, each carrying its segment: a given end is read
    once, as a blpp divisor, and a row at k >= 2 fills in the built-in end
    for each one not given.  When an end is given, both ends of each such
    row must be ample pairs (the region is convex, so the search stays in
    it); a refused end is shown as typed, cut short when long.  With none
    given, an end off the region is left to its row: the k = 2 row's
    contract-breach is pinned by ``perfbench/digests.json``."""
    k_values = _parse_range(ns.k, "--k")
    texts = {"--start": ns.start, "--end": ns.end}
    given = {field: _ask(field, _as_divisor, _parse_divisor(text, field), 3, "blpp")
             for field, text in texts.items() if text is not None}
    if ns.bisections < 0:
        raise SpecError("field --bisections: must be nonnegative")
    if ns.bisections > MAX_BISECTIONS:
        raise SpecError(f"field --bisections: must be at most {MAX_BISECTIONS}")
    _check_rows("--k", len(k_values), 2 * max(k_values) + 1)
    if all(k < 2 for k in k_values):
        raise SpecError("field --k: must reach at least 2")
    tasks = []
    for k in k_values:
        # a k < 2 row has no built-in ends: it reports its own invalid-parameter error
        defaults = criteria.coupled_default_endpoints(k) if k >= 2 else (None, None)
        ends = tuple(given.get(field, default) for field, default in zip(texts, defaults))
        for field, end in zip(texts, ends):
            if given and k >= 2 and not criteria.coupled_pair_ample(k, end):
                shown = (_excerpt(texts[field].strip()) if field in given
                         else "the built-in endpoint " + ",".join(map(str, end)))
                raise SpecError(f"field {field}: {shown} is not an ample pair at k = {k}")
        tasks.append(Task("coupled", FamilyTag.BLPP, None, None, k, ns.bisections, *ends))
    return tuple(tasks)


def _dump_member(ns: argparse.Namespace, tag: FamilyTag) -> tuple:
    """dump-instance's member as ``families._validated`` returns it: refused
    under --n when (n, p) names no member, then under --divisor."""
    if ns.p is None and tag.takes_p:
        raise SpecError("field --p: required for this family")
    divisor = None if ns.divisor is None else _parse_divisor(ns.divisor, "--divisor")
    _ask("--n", check_params, tag, ns.n, ns.p)
    return _ask("--divisor", _validated, tag, ns.n, ns.p, divisor)


def parse_spec(argv: Sequence[str]) -> RunSpec:
    """Check every argument of the invocation and build its rows.

    Every ``SpecError`` is raised here or in the helpers above, so a spec
    that parses runs without one.  A sweep's rows are counted, and refused
    when too many, before any is built.
    """
    ns = _build_parser().parse_args(_attach_values(argv))
    # integer flags are read here, not by argparse, which would echo a refused value whole
    for name in ("jobs", "max_n", "bisections") + (("n", "p") if ns.command == "dump-instance" else ()):
        if getattr(ns, name, None) is not None:
            setattr(ns, name, _parse_int(getattr(ns, name), "--" + name.replace("_", "-")))
    tag = FamilyTag(ns.family) if hasattr(ns, "family") else None
    if getattr(ns, "p", None) is not None and not tag.takes_p:
        raise SpecError(f"field --p: family {tag.value} takes no p")
    tasks: tuple[Task, ...] = ()
    member = None
    if ns.command == "verify":
        if ns.max_n < 7:
            raise SpecError("field --max-n: must be at least 7")
        if ns.max_n > MAX_VERIFY_N:
            raise SpecError(f"field --max-n: must be at most {MAX_VERIFY_N}")
    elif ns.command == "dump-instance":
        member = _dump_member(ns, tag)
    elif ns.command == "coupled":
        tasks = _coupled_tasks(ns)
    else:
        tasks = _member_tasks(ns, tag)
    if ns.jobs < 1:
        raise SpecError("field --jobs: must be at least 1")
    return RunSpec(command=ns.command, tasks=tasks, suite=getattr(ns, "suite", "all"),
                   max_n=getattr(ns, "max_n", 40), member=member, fmt=ns.format, out=ns.out,
                   jobs=ns.jobs)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _run_task(task: Task) -> dict:
    started = time.perf_counter()
    row = {"family": task.family.value, "params": task.params}
    try:
        result = {"ke": _ke_result, "mabuchi": _mabuchi_result, "mh": _mh_result,
                  "coupled": _coupled_result}[task.command]
        row["verdict"], row["witness"] = result(task)
    except NoBracketError as exc:
        row.update(verdict="no-bracket", witness={}, note=str(exc))
    except KstabError as exc:
        row.update(verdict=f"error:{exc.code}", witness={}, note=str(exc))
    row["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    return row


def _ke_result(task: Task) -> tuple[str, dict]:
    verdict = criteria.ke_classify(resolve(task.family, task.n, task.p))
    axes = "t" if len(verdict.xi) == 1 else "xy"
    witness = {"mass": verdict.mass}
    witness.update((f"bary_{a}", b) for a, b in zip(axes, verdict.barycenter))
    witness.update((f"xi_{a}", x) for a, x in zip(axes, verdict.xi))
    return verdict.status.value, witness


def _mabuchi_result(task: Task) -> tuple[str, dict]:
    verdict = criteria.mabuchi(resolve(task.family, task.n, task.p))
    witness = dict(verdict.detail)
    if verdict.ratio is not None:
        witness["ratio"] = verdict.ratio
    return verdict.status.value, witness


def _mh_result(task: Task) -> tuple[str, dict]:
    cert = criteria.mh_certificate(task.n, task.p)
    witness = {"moment_integral": cert.moment_integral}
    for idx, minimum in enumerate(cert.concavity_witness):
        witness[f"factor_min_{idx}"] = minimum
    return "certificate", witness


def _coupled_result(task: Task) -> tuple[str, dict]:
    cert = criteria.coupled_search(task.k, task.start, task.end, max_bisections=task.bisections)
    witness: dict = {}
    for label, params in (("lo", cert.params_lo), ("hi", cert.params_hi), ("mid", cert.midpoint)):
        for idx, value in enumerate(params):
            witness[f"{label}_{idx}"] = value
    witness["residual_lo"] = cert.residual_lo
    witness["residual_hi"] = cert.residual_hi
    witness["residual_mid"] = cert.residual_at_midpoint
    witness["width"] = cert.width
    return "certificate", witness


def _execute_tasks(tasks: Sequence[Task], jobs: int) -> list[dict]:
    """Run the rows in order: serially, until the rows done, once they have taken
    SERIAL_BUDGET_S / 10, predict SERIAL_BUDGET_S for the two or more left; then
    those on a pool of at most ``jobs`` workers and no more than the CPUs
    available.  A pool that cannot start or that breaks hands the rows it has
    not returned back to the serial loop, with one line on stderr."""
    jobs = min(jobs, _available_cpus())
    rows: list[dict] = []
    started = time.perf_counter()
    while len(rows) < len(tasks):
        left = len(tasks) - len(rows)
        elapsed = time.perf_counter() - started
        if (jobs < 2 or left < 2 or not rows or elapsed < SERIAL_BUDGET_S / 10
                or elapsed / len(rows) * left < SERIAL_BUDGET_S):
            rows.append(_run_task(tasks[len(rows)]))
            continue
        # imported here: the pool pulls in multiprocessing, logging and
        # socket, which a serial run would pay for at every start
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        workers = min(jobs, left)
        # a few chunks per worker rather than one round trip per row; map
        # keeps the rows in task order
        chunksize = max(1, left // (4 * workers))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows.extend(pool.map(_run_task, tasks[len(rows):], chunksize=chunksize))
        except (OSError, BrokenProcessPool) as exc:
            print(f"kstab: worker pool unavailable ({type(exc).__name__}: {exc}); running serially",
                  file=sys.stderr)
            jobs = 1
    return rows


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def decimal_str(value: Fraction) -> str:
    """20-significant-digit decimal rendering; display only."""
    with localcontext() as ctx:
        ctx.prec = 20
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _witness_strings(row: dict) -> tuple[dict, dict]:
    exact = {key: rational_to_str(value) for key, value in row["witness"].items()}
    approx = {key: decimal_str(value) for key, value in row["witness"].items()}
    return exact, approx


def _render_rows_json(command: str, rows: list[dict]) -> str:
    payload_rows = []
    for row in rows:
        exact, approx = _witness_strings(row)
        payload_rows.append({
            "family": row["family"],
            "params": row["params"],
            "verdict": row["verdict"],
            "witness": exact,
            "witness_decimal": approx,
        })
    payload = {"schema_version": SCHEMA_VERSION, "command": command, "rows": payload_rows}
    return json.dumps(payload, indent=2) + "\n"


def _table(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    """The header and records of csv and markdown: parameter and witness
    columns in order of first appearance, exact witnesses then decimals."""
    param_cols = list(dict.fromkeys(key for row in rows for key in row["params"]))
    witness_cols = list(dict.fromkeys(key for row in rows for key in row["witness"]))
    header = ["family", *param_cols, "verdict", *witness_cols, *(f"{c}_dec" for c in witness_cols)]
    records = []
    for row in rows:
        exact, approx = _witness_strings(row)
        records.append([row["family"], *(str(row["params"].get(c, "")) for c in param_cols),
                        row["verdict"], *(exact.get(c, "") for c in witness_cols),
                        *(approx.get(c, "") for c in witness_cols)])
    return header, records


def _csv_text(records: list[list]) -> str:
    import csv

    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows(records)
    return buf.getvalue()


def _render_rows_csv(command: str, rows: list[dict]) -> str:
    header, records = _table(rows)
    return _csv_text([header, *records])


def _render_rows_markdown(command: str, rows: list[dict]) -> str:
    header, records = _table(rows)
    header.append("elapsed_ms")
    lines = [f"# kstab {command}", "", "| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row, record in zip(rows, records):
        record.append(f"{row.get('elapsed_ms', 0.0):.1f}")
        lines.append("| " + " | ".join(record) + " |")
    return "\n".join(lines) + "\n"


def _render_verify(results: list, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "rows": [
                {"criterion": r.criterion, "name": r.name,
                 "status": "pass" if r.passed else "fail", "witness": r.witness}
                for r in results
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text([["criterion", "status", "name", "witness"]]
                         + [[r.criterion, "pass" if r.passed else "fail", r.name, r.witness]
                            for r in results])
    lines = ["# kstab verify", ""]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.criterion}: {r.name} ({r.witness})")
    total = sum(1 for r in results if r.passed)
    lines.append("")
    lines.append(f"{total}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def execute(spec: RunSpec) -> tuple[str, int]:
    """Run a spec and return (rendered report, exit code)."""
    if spec.command == "verify":
        from . import verify  # only verify pays for importing the suites

        results = verify.verify_theorems(max_n=spec.max_n, suite=spec.suite)
        return _render_verify(results, spec.fmt), 0
    if spec.command == "dump-instance":
        return json.dumps(instance_record(resolve(*spec.member)), indent=2) + "\n", 0

    rows = _execute_tasks(spec.tasks, spec.jobs)
    for row in rows:
        if "note" in row:
            params = ",".join(f"{key}={value}" for key, value in row["params"].items())
            print(f"kstab: {row['family']} {params}: {row['verdict']}: {row['note']}",
                  file=sys.stderr)
    if spec.fmt == "json":
        text = _render_rows_json(spec.command, rows)
    elif spec.fmt == "csv":
        text = _render_rows_csv(spec.command, rows)
    else:
        text = _render_rows_markdown(spec.command, rows)
    had_error = any(row["verdict"].startswith("error:") for row in rows)
    return text, 2 if had_error else 0


def render_to_string(argv: Sequence[str]) -> str:
    """Parse and run an invocation, returning the rendered report."""
    spec = parse_spec(argv)
    text, _ = execute(spec)
    return text


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        spec = parse_spec(args)
        text, code = execute(spec)
    except SpecError as exc:
        print(f"kstab: invalid invocation: {exc}", file=sys.stderr)
        return 1
    except KstabError as exc:
        print(f"kstab: {exc.code}: {exc}", file=sys.stderr)
        return 2
    if spec.out:
        try:
            with open(spec.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"kstab: cannot write {spec.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
