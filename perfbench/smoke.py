"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--smoke`` and
asserts that the last line of stdout is a correct result that carries every
metric BENCHMARK.json lists, each with its unit.  It also asserts that the
benchmark fails, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  It is not part of the test
suite under ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(expected) ^ set(got))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert "failed_share = " in proc.stdout
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} operations failed")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok bare directory: exit code", proc.returncode)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
