"""Entry points that the benchmark under ``perfbench/`` reaches by name.

The traced benchmark run rebinds the kstab entry points that
``spans.kstab_targets()`` lists, and the output oracles call closed forms
in ``kstab.criteria``.  A renamed or removed entry point makes those runs
raise ``AttributeError``; these checks catch it without running them.  They
read ``perfbench/`` and change nothing in it.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from kstab import criteria

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
