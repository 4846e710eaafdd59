"""Span tracer for the public functions of each phaseframe layer.

The layers are the library's modules.  ``Tracer.install`` replaces each
listed function by a wrapper on every module attribute that callers look it
up by (``folded_weight`` is bound in spectral, partial and oracle), and each
listed method on its class.  A wrapper records one span per call: name,
start, end and the id of the enclosing span.  Self time is a span's
duration minus the time covered by its child spans.  ``uninstall`` puts the
original objects back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

TARGETS = {
    "fock": (
        "sample",
        "evaluate",
        "FockVector.to_json",
        "FockVector.from_json",
        "SampleSet.to_json",
        "SampleSet.from_json",
    ),
    "spectral": (
        "folded_weight",
        "log_aliasing_excess",
        "log_mode_weight",
        "SpectralData.build",
        "build_overlap",
        "overlap_from_points",
    ),
    "exact": tuple(
        "ExactReconstructor." + m
        for m in ("dft_coefficients", "transform", "predict", "reconstruct", "sinc_kernel")
    ),
    "partial": tuple(
        "PartialReconstructor." + m
        for m in (
            "alias_coefficients",
            "transform",
            "reconstruct_filtered",
            "predict",
            "reconstruct",
            "lagrange_kernel",
        )
    ),
    "errors": ("assess", "droplet", "error_bound", "filtered_error_bound", "truncation_epsilon"),
    "oracle": (
        "DenseFrame.build",
        "DenseFrame.solve_gram",
        "measured_error_sq",
        "dense_eig_check",
        "dense_pseudoinverse_fit",
    ),
}
# cli.main is keyed by its subcommand, the first argument
CLI_COMMANDS = ("sample", "reconstruct", "spectrum", "error-sweep", "droplet", "validate")
LAYERS = tuple(TARGETS) + ("cli",)


def span_names() -> list[str]:
    names = [f"{layer}.{qual}" for layer, quals in TARGETS.items() for qual in quals]
    return names + [f"cli.{cmd}" for cmd in CLI_COMMANDS]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = []
    for name in span_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    for layer in LAYERS:
        specs.append((f"{layer}.self_s", "s", "lower"))
        specs.append((f"{layer}.share", "frac", "lower"))
        specs.append((f"{layer}.raised", "count", "lower"))
    specs.append(("trace.ops_per_s", "1/s", "higher"))
    specs.append(("trace.overhead", "ratio", "lower"))
    return specs


class _Frame:
    __slots__ = ("span_id", "layer", "child")

    def __init__(self, span_id: int, layer: str):
        self.span_id = span_id
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Collects spans in memory while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls = {name: 0 for name in span_names()}
        self.self_s = {name: 0.0 for name in span_names()}
        self.raised = {layer: 0 for layer in LAYERS}
        self._stack: list[_Frame] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer: str, fn, name: str | None):
        """Wrap fn; name None keys the span by the CLI subcommand."""
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_s, raised = self.calls, self.self_s, self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name
            if key is None:
                argv = args[0] if args else kwargs.get("argv")
                key = f"cli.{argv[0]}" if argv else "cli.other"
            parent = stack[-1] if stack else None
            frame = _Frame(next(ids), layer)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent.layer != layer:
                    raised[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child += duration
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + duration - frame.child
                parent_id = -1 if parent is None else parent.span_id
                spans.append((frame.span_id, parent_id, key, start, end))

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        # vars() keeps a class's staticmethod objects as they are
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._replace(module, attr, wrapper)

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "phaseframe"]
        for layer, quals in TARGETS.items():
            home = sys.modules[f"phaseframe.{layer}"]
            for qual in quals:
                name = f"{layer}.{qual}"
                if "." not in qual:
                    fn = getattr(home, qual)
                    self._rebind(modules, fn, self._wrap(layer, fn, name))
                    continue
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(layer, raw.__func__, name))
                else:
                    new = self._wrap(layer, raw, name)
                self._replace(cls, meth, new)
        cli = sys.modules["phaseframe.cli"]
        self._rebind(modules, cli.main, self._wrap("cli", cli.main, None))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def metrics(self, ops: int, op_time_s: float) -> dict[str, float]:
        """Per-op calls and self seconds per wrapped function, and per layer
        the per-op self seconds, the share of op time and the per-op count
        of exceptions that left the layer."""
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_s"] = self.self_s[name] / ops
        for name, seconds in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += seconds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / ops
            out[f"{layer}.share"] = layer_self[layer] / op_time_s
            out[f"{layer}.raised"] = self.raised[layer] / ops
        return out

    def write_spans(self, path: str) -> None:
        """Spans as JSON rows [id, parent id (-1 at top level), name, start_s, end_s]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "name", "start_s", "end_s"], "spans": self.spans}, fh)
