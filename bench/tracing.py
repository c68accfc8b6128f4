"""Spans around joincond's public functions, installed from outside.

Each package module looks its callees up as module globals at call time
(`from .segre import cpd_condition_number` binds a global in the caller).
`patch_everywhere` therefore replaces every module attribute in the package
that is the target function, so the wrapper sees calls made through any
module.  Nothing in the package is edited, and the undo callable restores
the originals.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
from time import perf_counter
from typing import Callable

# The layers the traced run measures, as <module>.<function> of joincond.
LAYERS = (
    "tensor.normalize_decomposition",
    "tensor.assemble_cpd",
    "condition.condition_number",
    "segre.cpd_tangent_tuple",
    "segre.cpd_condition_number",
    "segre.norm_balanced_condition_number",
    "waring.waring_tangent_tuple",
    "grassmann.nearest_intersecting_tuple",
    "experiments.cpd_refine",
    "experiments.paatero_sequence",
    "experiments.desilva_lim_sequence",
    "experiments.run_forward_error_experiment",
    "cli.main",
)
# Pseudo-layer: the benchmark's own glue inside one op (its root span).
ROOT = "bench.op"


def patch_everywhere(target: str, make_wrapper: Callable) -> Callable[[], None] | None:
    """Wrap joincond.<target> wherever the package binds it.

    Returns an undo callable, or None when the attribute does not exist (a
    refactor moved it); callers then report the layer as absent.
    """
    module_name, _, attr = target.rpartition(".")
    module = sys.modules.get(f"joincond.{module_name}")
    original = getattr(module, attr, None)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    replaced = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "joincond" or name.startswith("joincond.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                replaced.append((mod, key))

    def undo():
        for mod, key in replaced:
            setattr(mod, key, original)

    return undo


# Per-layer extras read from a call's argument, result or exception.  A hook
# that no longer fits the package's types marks its metrics as absent.


def _refine(acc, args, result, exc):
    if exc is None:
        acc["iterations"] = acc.get("iterations", 0) + int(result.iterations)
        acc["converged"] = acc.get("converged", 0) + int(bool(result.converged))


def _condition(acc, args, result, exc):
    t = args[0]
    acc["matrix_mb"] = max(acc.get("matrix_mb", 0.0), 8.0 * t.ambient_dim * t.n / 1e6)
    if exc is None:
        acc["illposed"] = acc.get("illposed", 0) + int(not math.isfinite(result.kappa))


def _tangent(acc, args, result, exc):
    if exc is None:
        acc["basis_mb"] = max(acc.get("basis_mb", 0.0), 8.0 * result.ambient_dim * result.n / 1e6)


def _certificate(acc, args, result, exc):
    if exc is not None:
        acc["cert_failures"] = acc.get("cert_failures", 0) + int(
            type(exc).__name__ == "CertificateError"
        )
        return
    diag = result.diagnostics
    worst = max(float(diag["distance_residual"]), float(diag["intersect_residual"]))
    acc["residual_max"] = max(acc.get("residual_max", 0.0), worst)


HOOKS = {
    "experiments.cpd_refine": _refine,
    "condition.condition_number": _condition,
    "segre.cpd_tangent_tuple": _tangent,
    "grassmann.nearest_intersecting_tuple": _certificate,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.extras: dict[str, dict] = {}
        self.broken: set[str] = set()
        self.missing: list[str] = []
        self.op_id = -1
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack().pop()

    def _wrapper_for(self, layer: str):
        hook = HOOKS.get(layer)
        acc = self.extras.setdefault(layer, {})

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = self._open(layer)
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except Exception as e:
                    exc = e
                    raise
                finally:
                    self._close(span)
                    if hook is not None and layer not in self.broken:
                        try:
                            hook(acc, args, result, exc)
                        except (AttributeError, TypeError, KeyError, IndexError):
                            self.broken.add(layer)

            return wrapper

        return make

    def install(self) -> None:
        for layer in LAYERS:
            undo = patch_everywhere(layer, self._wrapper_for(layer))
            if undo is None:
                self.missing.append(layer)
            else:
                self._undo.append(undo)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def run_op(self, op_id: int, fn: Callable, *args):
        """Run one op under a root span."""
        self.op_id = op_id
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time (duration minus child durations) per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
