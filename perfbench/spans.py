"""Span tracer for the traced benchmark run.

The tracer records one span per call into a kstab entry point.  It does so
from outside the package: ``install`` rebinds each entry point in every
``kstab`` module that holds it by name (and on its class, for methods), and
``restore`` puts the originals back.  Nothing under ``src/`` is edited, and
the untraced runs never see a wrapper.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op]`` and
written out when the run ends.  ``op`` is the index of the span that opened
the current operation (one output row or one verify check), so every span
of a row or check shares it; a row run inside a verify check belongs to the
check.  A span's self time is its duration minus the durations of its
direct children.  Calls in one thread nest, so the children never overlap
and the self times of all spans add up to the time covered by the root
spans; ``accounting_errors`` reports where that does not hold.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, NamedTuple

NAME, START, END, PARENT, OP = range(5)


class Target(NamedTuple):
    """One traced entry point.

    ``count(args, result)`` returns ``{counter: value}``; names ending in
    ``.max`` keep the maximum.  ``opens_op`` marks the span that starts an
    operation.  A function is rebound in every kstab module that holds it by
    name, unless ``owner_only``; a method is rebound on its class.
    """

    name: str
    owner: object
    attr: str
    count: Callable | None = None
    opens_op: bool = False
    owner_only: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None, opens_op=False):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``count`` is applied only to outer calls, not to a call nested in a
        span of the same name, so a call that passes through several entry
        points of one layer is counted once.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            op = spans[parent][OP] if parent >= 0 else -1
            if opens_op and op < 0:
                op = idx
            span = [name, 0, 0, parent, op]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if count is not None and (parent < 0 or spans[parent][NAME] != name):
                for key, value in count(args, result).items():
                    if key.endswith(".max"):
                        self.maxima[key] = max(self.maxima[key], value)
                    else:
                        self.counts[key] += value
            return result

        return traced

    def install(self, targets) -> None:
        """Rebind every ``Target``."""
        modules = [m for key, m in sys.modules.items() if key == "kstab" or key.startswith("kstab.")]
        for name, owner, attr, count, opens_op, owner_only in targets:
            original = inspect.getattr_static(owner, attr)
            wrapped = self.wrap(name, original, count, opens_op)
            if owner_only or inspect.isclass(owner):
                self._rebind(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)

    def _rebind(self, holder, key, wrapped) -> None:
        self._restore.append((holder, key, inspect.getattr_static(holder, key)))
        setattr(holder, key, wrapped)

    def restore(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> list[int]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def accounting_errors(self, root: str) -> list[str]:
        """Problems in the span accounting: a span whose children cover more
        than its own duration (double-counted nesting), or a layer whose
        summed self time exceeds the total of the ``root`` spans."""
        errors = [f"span {self.spans[i][NAME]} has negative self time {own} ns"
                  for i, own in enumerate(self.self_ns()) if own < 0]
        roots = [s for s in self.spans if s[NAME] == root]
        if any(s[PARENT] >= 0 for s in roots) or len(roots) != sum(s[PARENT] < 0 for s in self.spans):
            errors.append(f"not every span nests under a {root} span")
        budget = sum(s[END] - s[START] for s in roots)
        layers: dict[str, int] = defaultdict(int)
        for name, entry in self.summary().items():
            layers[name.split(".")[0]] += entry["self_ns"]
        errors += [f"layer {layer} self time {ns} ns exceeds the {root} total {budget} ns"
                   for layer, ns in sorted(layers.items()) if ns > budget]
        return errors

    def summary(self) -> dict:
        """Per span name: outer calls, all calls, self and outer total ns."""
        selfs = self.self_ns()
        table: dict[str, dict[str, int]] = defaultdict(
            lambda: {"calls": 0, "all_calls": 0, "self_ns": 0, "total_ns": 0})
        for s, own in zip(self.spans, selfs):
            entry = table[s[NAME]]
            entry["all_calls"] += 1
            entry["self_ns"] += own
            if s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != s[NAME]:
                entry["calls"] += 1
                entry["total_ns"] += s[END] - s[START]
        return table

    def op_durations_ns(self) -> list[int]:
        return [s[END] - s[START] for i, s in enumerate(self.spans) if s[OP] == i]

    def dump(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[OP]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": names, "spans": rows,
                       "counts": dict(self.counts), "maxima": dict(self.maxima)}, handle)


# ---------------------------------------------------------------------------
# What is traced in kstab
# ---------------------------------------------------------------------------


def _terms(poly) -> int:
    if hasattr(poly, "terms"):
        return len(poly.terms)
    return sum(1 for c in poly.coeffs if c)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _expand_count(args, result):
    return {"poly.expand.terms_out": _terms(result)}


def _integral_count(args, result):
    return {"quadrature.integrand_terms": _terms(args[0]), "quadrature.result_bits.max": _bits(result)}


def _bits_count(args, result):
    return {"quadrature.result_bits.max": _bits(result)}


def _triangle_count(args, result):
    return {"polytope.triangles": len(result)}


def _render_count(args, result):
    return {"cli.render.bytes": len(result.encode("utf-8"))}


def _verify_count(args, result):
    return {"verify.checks": len(result), "verify.failed_checks": sum(1 for r in result if not r.passed)}


VERIFY_CHECKS = ("check_closed_forms", "check_blpp_classification", "check_quadric_blowups",
                 "check_quadpt_mabuchi", "check_coupled", "check_multiplier_certificates",
                 "check_quadrature_properties")


def kstab_targets() -> list[Target]:
    """The entry points of each kstab layer.  Requires kstab to be importable."""
    from kstab import cli, criteria, families, poly, polytope, quadrature, verify

    targets = [Target("families.resolve", families, fn)
               for fn in ("resolve_anticanonical", "blpp_resolve", "blqq_resolve", "quad_resolve")]
    targets += [
        Target("polytope.from_halfplanes", polytope, "polygon_from_halfplanes"),
        Target("polytope.triangulate", polytope, "triangulate", _triangle_count),
        Target("polytope.triangulate", polytope, "fan_triangles", _triangle_count),
        Target("poly.expand", poly.FactoredWeight, "expand", _expand_count),
        Target("poly.compose_affine", poly.Poly1, "compose_affine"),
        Target("poly.compose_affine", poly.Poly2, "compose_affine"),
        # Rebound in poly only: the tables the triangle integrator builds for
        # its change of variables are quadrature work and stay in
        # quadrature.triangle self time.
        Target("poly.affine_power_table", poly, "affine_power_table", owner_only=True),
        Target("quadrature.polygon", quadrature, "integrate_poly2_polygon", _integral_count),
        Target("quadrature.triangle", quadrature, "integrate_poly2_triangle", _bits_count),
        Target("quadrature.segment", quadrature, "integrate_poly1", _integral_count),
    ]
    targets += [Target("quadrature.moments", quadrature, fn)
                for fn in ("moments", "barycenter", "moments1", "barycenter1")]
    targets += [Target(f"criteria.{fn}", criteria, fn)
                for fn, obj in vars(criteria).items()
                if inspect.isfunction(obj) and obj.__module__ == criteria.__name__
                and not fn.startswith("_")]
    targets += [Target(f"verify.c{i}", verify, fn, opens_op=True)
                for i, fn in enumerate(VERIFY_CHECKS, 1)]
    targets += [
        Target("verify.run", verify, "verify_theorems", _verify_count),
        Target("cli.main", cli, "main"),
        Target("cli.parse", cli, "parse_spec"),
        Target("cli.pool", cli, "_execute_tasks"),
        Target("cli.row", cli, "_run_task", opens_op=True),
    ]
    targets += [Target("cli.render", cli, fn, _render_count)
                for fn in ("_render_rows_json", "_render_rows_csv", "_render_rows_markdown",
                           "_render_verify")]
    return targets
