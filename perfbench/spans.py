"""Span recording around fanbeam's module-level functions, from outside the package.

Each stage names one or more functions as "module:attribute".
``Tracer.install`` rebinds every reference to those functions held by a
loaded ``fanbeam`` module to a wrapper that, while the tracer is active,
records a span: stage name, start, end and parent span.  A stage's time
is the self time of its spans (duration minus the time its child spans
cover).

A wrapped function that no longer exists is reported as unmeasured
instead of failing the run, so the trace survives refactors of the
package; the time it used to cover shows up as lost coverage, or in the
self time of the stage that calls it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc


# (stage, functions whose spans carry that stage's name)
STAGES = (
    ("series.table", ("fanbeam.series:standard_fan_backproject", "fanbeam.series:linear_fan_backproject")),
    ("rebinning.L_tau", ("fanbeam.rebinning:linear_to_standard", "fanbeam.rebinning:apply_tau")),
    ("rebinning.shear", ("fanbeam.rebinning:shear_to_theta",)),
    ("series.gamma_fourier", ("fanbeam.series:fourier_coefficients_gamma",)),
    ("series.matmul", ("fanbeam.series:evaluate_series",)),
    ("rebinning.adjoint_rebin", ("fanbeam.rebinning:adjoint_rebin_linear", "fanbeam.rebinning:adjoint_rebin_standard")),
    ("bst.detector_spectrum", ("fanbeam.bst:sinogram_polar_spectrum",)),
    ("bst.inverse_fft", ("fanbeam.bst:spectrum_to_image",)),
    ("bst.polar_to_cartesian", ("fanbeam.bst:polar_to_cartesian",)),
    ("dc.restore", ("fanbeam._dc:restore_dc",)),
    ("gridfile.read", ("fanbeam.gridfile:read_grid",)),
    ("gridfile.write", ("fanbeam.gridfile:write_grid",)),
    ("filtering.calibration", ("fanbeam.filtering:fbp_normalization",)),
)


def _resolve(target: str):
    module_name, attr = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


class Tracer:
    """Span recorder for one process; ``active`` switches recording on and off.

    With ``memory`` set, each series.table span also records the
    ``tracemalloc`` peak over its duration.  Tracing allocations slows the
    Python code under that span, so a memory-tracking tracer is for an op
    of its own whose times are not reported.
    """

    def __init__(self, memory: bool):
        self.active = False
        self.memory = memory
        self.spans: list[dict] = []
        self.unmeasured: dict[str, str] = {}  # missing function -> what that leaves unmeasured
        self._stack: list[int] = []
        self._opaque = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for stage, targets in STAGES:
            missing = []
            for target in targets:
                fn = _resolve(target)
                if fn is None:
                    missing.append(target)
                    continue
                wrapper = self._wrap(stage, fn)
                for name, module in list(sys.modules.items()):
                    if name != "fanbeam" and not name.startswith("fanbeam."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, attr, fn))
                            setattr(module, attr, wrapper)
            for target in missing:
                left = "unmeasured" if len(missing) == len(targets) else "measured through its other functions only"
                self.unmeasured[target] = f"function not found; stage {stage} is {left}"

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def take(self) -> list[dict]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, stage: str, fn):
        # calls below the calibration are folded into it: it runs a whole
        # small reconstruction that is not the op's own series or bst work
        opaque = stage == "filtering.calibration"
        memory = self.memory and stage == "series.table"
        samples = stage == "bst.polar_to_cartesian"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self._opaque:
                return fn(*args, **kwargs)
            span = {"name": stage, "parent": self._stack[-1] if self._stack else None}
            if samples:  # Cartesian samples of polar_to_cartesian(spectrum, n): n*n
                n = kwargs.get("n", args[1] if len(args) > 1 else None)
                span["count"] = n * n if isinstance(n, int) else 0
            self._stack.append(len(self.spans))
            self.spans.append(span)
            track = memory and not tracemalloc.is_tracing()
            if track:
                tracemalloc.start()
            self._opaque += opaque
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._opaque -= opaque
                if track:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return wrapper


def summarize(spans: list[dict]) -> dict:
    """Per-stage self time, call count, work count and memory peak of one op."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    stages: dict[str, dict] = {}
    root = 0.0
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        if span["parent"] is None:
            root += duration
        entry = stages.setdefault(span["name"], {"self_s": 0.0, "calls": 0, "count": 0, "peak_bytes": 0})
        entry["self_s"] += duration - child[i]
        entry["calls"] += 1
        entry["count"] += span.get("count", 0)
        entry["peak_bytes"] = max(entry["peak_bytes"], span.get("peak_bytes", 0))
    return {"stages": stages, "self_total_s": sum(e["self_s"] for e in stages.values()), "root_s": root}
