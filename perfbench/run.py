"""kstab benchmark harness.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
With ``--trace 0`` each workload runs as a closed loop of fresh ``kstab``
processes, repeated for ``--seconds``, and the end-to-end metrics of
BENCHMARK.json are reported.  With ``--trace 1`` the workload runs once in
this process with spans around every kstab entry point (see ``spans.py``)
and the per-layer metrics are reported.  Every output is checked (see
``oracles.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give quartiles, sample counts, ``failed_share`` and a record of the run.
Outputs, traces and results go to ``.bench_out/``.

The workloads, why each was chosen, and which end-to-end metric each layer
metric should move are in README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 0
PROBES_PER_REP = 3
MIN_REPS = 3
ENTRY = "import sys; from kstab.cli import main; sys.exit(main())"
PROBE = ("import json, sys\nfrom kstab.cli import parse_spec\n"
         "for argv in json.loads(sys.argv[1]):\n    parse_spec(argv)")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Workloads.  The seed moves sizes within a narrow band only: each sweep
# invocation's top n, and each large instance's n.
# ---------------------------------------------------------------------------


def sweep(rng: random.Random, smoke: bool) -> list[list[str]]:
    base = 8 if smoke else 24

    def top() -> int:
        return base + rng.randint(0, 1)

    return [
        ["ke", "--family", "blpp", "--n", f"4..{top()}", "--p", "all"],
        ["ke", "--family", "blqq", "--n", f"6..{top()}", "--p", "all"],
        ["ke", "--family", "quade", "--n", f"5..{top()}"],
        ["ke", "--family", "quadpt", "--n", f"5..{top()}"],
        ["ke", "--family", "quadpm", "--n", f"5..{top()}"],
        ["mabuchi", "--family", "blpp", "--n", f"4..{top()}", "--p", "all"],
        ["mabuchi", "--family", "quadpt", "--n", f"5..{top()}"],
        ["mh", "--n", f"4..{top()}", "--p", "all"],
        # coupled k lives in dimension n = 2k + 1
        ["coupled", "--k", f"2..{(top() - 1) // 2}"],
    ]


def large(rng: random.Random, smoke: bool) -> list[list[str]]:
    base, blqq_n, blqq_p = (12, 10, 5) if smoke else (160, 80, 40)

    def n() -> str:
        return str(base + rng.randint(-2, 2))

    return [
        ["ke", "--family", "quadpm", "--n", n()],
        ["ke", "--family", "quadpt", "--n", n()],
        ["ke", "--family", "quade", "--n", n()],
        ["mabuchi", "--family", "quadpt", "--n", n()],
        ["ke", "--family", "blqq", "--n", str(blqq_n + rng.randint(-1, 1)), "--p", str(blqq_p)],
    ]


def verify(rng: random.Random, smoke: bool) -> list[list[str]]:
    return [["verify", "--suite", "all", "--max-n", "7" if smoke else "16"]]


WORKLOADS = {"sweep": sweep, "large": large, "verify": verify}


def workload_jobs(name: str) -> int:
    return nproc() if name == "sweep" else 1


def full_argv(argv: list[str], out: Path, jobs: int) -> list[str]:
    return argv + ["--format", "json", "--out", str(out), "--jobs", str(jobs)]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return handle.read().strip()


def steal_ticks() -> int:
    """CPU time taken by the hypervisor for other guests, in clock ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8])


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kstab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_outputs(invocations, texts, outcome, notes) -> None:
    from oracles import Outcome, check_output

    for argv, text in zip(invocations, texts):
        if text is None:
            outcome.add(Outcome(1, 1, rejected=[f"{' '.join(argv)}: no report"]))
            continue
        outcome.add(check_output(argv, json.loads(text)))
    notes.extend(outcome.rejected)


def reports_digest(texts: list) -> str:
    return hashlib.sha256("".join(t or "" for t in texts).encode("utf-8")).hexdigest()


def check_digest(name: str, digest: str, notes: list[str]) -> str:
    """Compare the reports' digest with the one recorded in digests.json."""
    recorded = json.loads(DIGESTS.read_text())
    if name not in recorded:
        notes.append(f"{name}: no digest recorded in digests.json")
        return "missing"
    if recorded[name] != digest:
        notes.append(f"{name}: json reports have sha256 {digest}, digests.json records "
                     f"{recorded[name]}")
        return "mismatch"
    return "match"


# ---------------------------------------------------------------------------
# Untraced run: fresh kstab processes
# ---------------------------------------------------------------------------


def run_untraced(name: str, invocations: list[list[str]], seconds: float) -> dict:
    from oracles import Outcome

    env = dict(os.environ, PYTHONPATH=str(SRC))
    jobs = workload_jobs(name)
    probe = [sys.executable, "-c", PROBE, json.dumps([full_argv(a, OUT / "probe.json", jobs)
                                                      for a in invocations])]

    def setup_time() -> float:
        started = time.perf_counter()
        subprocess.run(probe, env=env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - started

    setup_time()  # warms the file cache, and writes bytecode where the environment allows
    outs = [OUT / f"{name}-{i}.json" for i in range(len(invocations))]
    setup, walls, cpus = [], [], []
    texts0, checked, outcome, notes = None, Outcome(), Outcome(), []
    window = time.perf_counter()
    while True:
        # set-up is sampled next to every repetition, so a slow spell of the
        # machine weighs on it no more than on the repetitions
        setup += [setup_time() for _ in range(PROBES_PER_REP)]
        for path in outs:
            path.unlink(missing_ok=True)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        codes = [subprocess.run([sys.executable, "-c", ENTRY] + full_argv(a, out, jobs), env=env,
                                stdout=subprocess.DEVNULL).returncode
                 for a, out in zip(invocations, outs)]
        walls.append(time.perf_counter() - started)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpus.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)

        texts = [p.read_text(encoding="utf-8") if p.is_file() else None for p in outs]
        for a, code, text in zip(invocations, codes, texts):
            # exit 2 means a row ended in error:*, which the oracles count
            if code not in (0, 2) or (code == 2 and '"error:' not in (text or "")):
                notes.append(f"{' '.join(a)}: exit code {code}")
        if texts0 is None:
            texts0 = texts
            check_outputs(invocations, texts, checked, notes)
        elif texts != texts0:
            notes.append("reports differ between repetitions of the same inputs")
        outcome.add(checked)  # every repetition repeats the checked operations

        elapsed = time.perf_counter() - window
        if len(walls) >= MIN_REPS and elapsed + max(walls[-1], statistics.median(walls)) > seconds:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    stats = {"setup_s": quartiles(setup), "wall_s": quartiles(walls), "cpu_s": quartiles(cpus),
             "peak_rss_mb": quartiles([peak_kb / 1024])}
    values = {k: v["median"] for k, v in stats.items()}
    samples = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus}
    return {"values": values, "stats": stats, "samples": samples, "texts": texts0,
            "outcome": outcome, "notes": notes}


# ---------------------------------------------------------------------------
# Traced run: the workload in this process, spans around every entry point
# ---------------------------------------------------------------------------


def clear_caches() -> None:
    for key, module in list(sys.modules.items()):
        if key == "kstab" or key.startswith("kstab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(invocations, jobs: int, tag: str, tracer, targets) -> tuple[float, list]:
    """One pass over the invocations with ``kstab.cli.main``; returns the
    wall time and the reports."""
    from kstab import cli

    outs = [OUT / f"{tag}-{i}.json" for i in range(len(invocations))]
    for path in outs:
        path.unlink(missing_ok=True)
    clear_caches()
    tracer.install(targets)
    try:
        started = time.perf_counter()
        for argv, out in zip(invocations, outs):
            cli.main(full_argv(argv, out, jobs))
        wall = time.perf_counter() - started
    finally:
        tracer.restore()
    return wall, [p.read_text(encoding="utf-8") if p.is_file() else None for p in outs]


def run_traced(name: str, invocations: list[list[str]], seed: int) -> dict:
    from kstab import cli
    from oracles import Outcome
    from spans import Target, Tracer, kstab_targets

    task_phase = [Target("cli.pool", cli, "_execute_tasks")]
    outcome, notes = Outcome(), []
    # The traced pass sits between two untraced serial passes, and the
    # overhead is taken against their mean, so a drift of the machine's speed
    # during the run does not read as tracing cost.
    serial = [Tracer(), Tracer()]
    wall_a, texts_a = run_pass(invocations, 1, f"{name}-serial", serial[0], task_phase)
    tracer = Tracer()
    wall_t, texts_t = run_pass(invocations, 1, f"{name}-traced", tracer, kstab_targets())
    tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
    wall_c, texts_c = run_pass(invocations, 1, f"{name}-serial", serial[1], task_phase)
    untraced = (wall_a + wall_c) / 2
    task_a = statistics.mean(t.summary()["cli.pool"]["total_ns"] for t in serial)
    texts_b, task_b = texts_a, 0
    # verify's only task phase is criterion 7's nested renders, which
    # KSTAB_JOBS=1 keeps serial, so there is no pool to compare
    if any(argv[0] != "verify" for argv in invocations):
        pooled = Tracer()
        _, texts_b = run_pass(invocations, nproc(), f"{name}-pool", pooled, task_phase)
        task_b = pooled.summary()["cli.pool"]["total_ns"]

    check_outputs(invocations, texts_t, outcome, notes)
    if not texts_a == texts_b == texts_c == texts_t:
        notes.append("reports differ between the serial, pooled and traced passes")
    table = tracer.summary()
    notes.extend(tracer.accounting_errors(root="cli.main"))
    rows_ms = [ns / 1e6 for ns in tracer.op_durations_ns()] or [0.0]
    values = {
        "families.resolve.calls": table["families.resolve"]["calls"],
        "families.resolve.self_ms": table["families.resolve"]["self_ns"] / 1e6,
        "polytope.from_halfplanes.calls": table["polytope.from_halfplanes"]["calls"],
        "polytope.from_halfplanes.self_ms": table["polytope.from_halfplanes"]["self_ns"] / 1e6,
        "polytope.triangles": tracer.counts["polytope.triangles"],
        "poly.expand.calls": table["poly.expand"]["calls"],
        "poly.expand.self_ms": table["poly.expand"]["self_ns"] / 1e6,
        "poly.expand.terms_out": tracer.counts["poly.expand.terms_out"],
        "poly.compose_affine.self_ms": table["poly.compose_affine"]["self_ns"] / 1e6,
        "poly.affine_power_table.self_ms": table["poly.affine_power_table"]["self_ns"] / 1e6,
        "quadrature.polygon.calls": table["quadrature.polygon"]["calls"],
        "quadrature.triangle.self_ms": table["quadrature.triangle"]["self_ns"] / 1e6,
        "quadrature.segment.calls": table["quadrature.segment"]["calls"],
        "quadrature.segment.self_ms": table["quadrature.segment"]["self_ns"] / 1e6,
        "quadrature.integrand_terms": tracer.counts["quadrature.integrand_terms"],
        "quadrature.result_bits.max": tracer.maxima["quadrature.result_bits.max"],
        "criteria.self_ms": sum(v["self_ns"] for k, v in table.items()
                                if k.startswith("criteria.")) / 1e6,
        "criteria.row_ms.p50": percentile(rows_ms, 0.5),
        "criteria.row_ms.p99": percentile(rows_ms, 0.99),
        "criteria.coupled_residual.calls": table["criteria.coupled_residual"]["all_calls"],
    }
    for i in range(1, 8):
        values[f"verify.c{i}_s"] = table[f"verify.c{i}"]["total_ns"] / 1e9
    values.update({
        "verify.checks": tracer.counts["verify.checks"],
        "verify.failed_checks": tracer.counts["verify.failed_checks"],
        "cli.parse.self_ms": table["cli.parse"]["self_ns"] / 1e6,
        "cli.render.self_ms": table["cli.render"]["self_ns"] / 1e6,
        "cli.render.bytes": tracer.counts["cli.render.bytes"],
        # no task phase (verify) means no pool to speed up
        "cli.pool.speedup": task_a / task_b if task_b else 1.0,
        "trace.overhead_share": wall_t / untraced - 1,
    })
    stats = {"rows": len(tracer.op_durations_ns()), "spans": len(tracer.spans),
             "untraced_wall_s": [wall_a, wall_c], "traced_wall_s": wall_t,
             "task_phase_jobs1_s": task_a / 1e9, "task_phase_jobsN_s": task_b / 1e9}
    return {"values": values, "stats": stats, "texts": texts_t, "outcome": outcome, "notes": notes}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke.py")
    args = parser.parse_args(argv)

    if not (SRC / "kstab" / "cli.py").is_file():
        print(f"perfbench: no kstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every invocation passes --jobs.  The one kstab call without it, the
    # renders nested in verify's criterion 7, reads KSTAB_JOBS: keep it
    # serial, so verify does not depend on the core count and its traced
    # pass loses no spans to pool workers.
    os.environ["KSTAB_JOBS"] = "1"
    OUT.mkdir(exist_ok=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    invocations = WORKLOADS[args.workload](random.Random(args.seed), args.smoke)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "python": platform.python_version(), "nproc": nproc(),
              "commit": commit(), "src_sha256": src_digest(), "invocations": invocations,
              "loadavg_start": loadavg()}
    steal = steal_ticks()
    if args.trace:
        result = run_traced(args.workload, invocations, args.seed)
        wanted = spec["per_layer"]
    else:
        result = run_untraced(args.workload, invocations, args.seconds)
        wanted = spec["end_to_end"]
    record["loadavg_end"] = loadavg()
    record["steal_ticks"] = steal_ticks() - steal

    notes = result["notes"]
    record["reports_sha256"] = reports_digest(result["texts"])
    # verify ignores the seed, so its reports are checked on every seed
    if not args.smoke and (args.seed == DEFAULT_SEED or args.workload == "verify"):
        record["digest"] = check_digest(args.workload, record["reports_sha256"], notes)

    outcome = result["outcome"]
    metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        print(f"{m['name']} = {result['values'][m['name']]!r} {m['unit']}")
    for key, value in result["stats"].items():
        print(f"{key}: {json.dumps(value)}")
    # failed_share counts the documented failures too; `failed` in the
    # result line counts only the undocumented ones
    failing = outcome.failed + outcome.known
    print(f"failed_share = {failing / max(outcome.attempted, 1)!r} share "
          f"({failing} of {outcome.attempted} operations: {outcome.known} documented, "
          f"{outcome.failed} undocumented)")
    for note in notes:
        print(f"REJECTED: {note}")
    record["known_failures"] = outcome.known
    print("record: " + json.dumps(record))
    line = {"correct": not notes, "attempted": max(outcome.attempted, 1),
            "failed": outcome.failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "stats": result["stats"], "samples": result.get("samples"),
                    "notes": notes, **line}, indent=2))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
