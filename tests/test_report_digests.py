"""The json reports of the benchmark workloads keep their recorded bytes.

``perfbench/digests.json`` records the sha256 of each workload's joined json
reports at the default seed, and the benchmark compares every run with it.
This test renders the same invocations in process, serially, so a change of
a single output byte fails here first.  It reads ``perfbench/`` and changes
nothing in it.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from kstab.cli import render_to_string

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_workload_reports_match_the_recorded_digest(name):
    invocations = RUN.WORKLOADS[name](random.Random(RUN.DEFAULT_SEED), False)
    texts = [render_to_string(argv + ["--format", "json", "--jobs", "1"]) for argv in invocations]
    digest = hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[name]
