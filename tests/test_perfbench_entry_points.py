"""Entry points that the benchmark under ``perfbench/`` reaches by name.

The traced benchmark run rebinds the kstab entry points that
``spans.kstab_targets()`` lists, and the output oracles call closed forms
in ``kstab.criteria``.  A renamed or removed entry point makes those runs
raise ``AttributeError``, and an entry point whose argument or result no
longer fits its counting callback makes the traced run raise; these checks
catch both, the second with a traced run of a few tiny invocations.  They
read ``perfbench/`` and change nothing in it.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from kstab import cli, criteria, quadrature
from kstab.families import FamilyTag, resolve_anticanonical

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    missing = []
    for target in _load_spans().kstab_targets():
        try:
            inspect.getattr_static(target.owner, target.attr)
        except AttributeError:
            missing.append(f"{target.name}: {target.owner.__name__}.{target.attr}")
    assert not missing


def test_every_criteria_name_the_oracles_call_exists():
    tree = ast.parse((PERFBENCH / "oracles.py").read_text(encoding="utf-8"))
    called = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "criteria"}
    assert called
    assert sorted(name for name in called if not hasattr(criteria, name)) == []


TINY_RUNS = (
    ["ke", "--family", "blpp", "--n", "4..5", "--p", "all"],
    ["ke", "--family", "quadpm", "--n", "5"],
    ["mabuchi", "--family", "quadpt", "--n", "5"],
    ["mh", "--n", "4"],
    ["coupled", "--k", "3", "--bisections", "2"],
    ["verify", "--suite", "mh", "--max-n", "7"],
    ["verify", "--suite", "properties", "--max-n", "7"],
)


def test_traced_tiny_runs_count_every_layer(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install(spans.kstab_targets())
    try:
        codes = [cli.main(argv + ["--format", "json", "--out", str(tmp_path / "out.json"),
                                  "--jobs", "1"])
                 for argv in TINY_RUNS]
    finally:
        tracer.restore()
    assert codes == [0] * len(TINY_RUNS)
    assert tracer.accounting_errors("cli.main") == []
    # No command multiplies a weight out or integrates a polygon by triangles,
    # so those two entry points are called once, directly, under a second tracer.
    inst = resolve_anticanonical(FamilyTag.BLQQ, 9, 4)
    legacy = spans.Tracer()
    legacy.install(spans.kstab_targets())
    try:
        mass = quadrature.integrate_poly2_polygon(inst.weight.expand(), inst.domain)
    finally:
        legacy.restore()
    assert mass == inst.moments[0]
    assert [s[spans.NAME] for s in legacy.spans if s[spans.PARENT] < 0] == [
        "poly.expand", "quadrature.polygon"]
    for counts, keys in ((tracer.counts, ("polytope.triangles", "cli.render.bytes")),
                         (legacy.counts, ("poly.expand.terms_out", "quadrature.integrand_terms"))):
        for key in keys:
            assert counts[key] > 0, key
    assert tracer.maxima["quadrature.result_bits.max"] > 0
    # verify dispatches through the rebound check names, so its spans are recorded
    assert tracer.summary()["verify.c6"]["calls"] > 0
