"""The benchmark's workloads: inputs made from a seed, the timed op, and the
untimed correctness check of every op's output.

Every op gets a fresh random ellipse phantom; all input generation
(``analytic_radon``, ``ramp_filter``, ``rebin_to_*``, grid writes) and all
checks happen outside the timed region.  Ops run one at a time from one
client (a closed loop).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fanbeam as fb
from spans import STAGES, Tracer, summarize

HERE = Path(__file__).resolve().parent
D = 10.0  # source-origin distance of the reference experiment
EPS = 1e-9  # series truncation tolerance (the CLI and library default)
RECON_GATE = 0.15  # relative L2 against the phantom, acceptance criterion 5
GAP_GATE = 0.05  # relative L2 against the rebin-bst image, acceptance criterion 3
CLI_SETUP_PROBES = 10  # half before the run's ops, half after them
IN_PROCESS_SETUP_PROBES = 2  # plus the set-up of the measuring process itself


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    geometry: str  # fan detector: "standard" (equiangular) or "linear" (flat)
    route: str  # "bessel" or "rebin-bst"
    filtered: bool  # ramp-filtered input, output scaled by fbp_normalization
    cli: bool  # each op is a fresh `python -m fanbeam.cli` process


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oneshot-cli-1024", 1024, "linear", "bessel", filtered=True, cli=True),
        Workload("iterative-std-512", 512, "standard", "bessel", filtered=False, cli=False),
        Workload("batch-bst-1024", 1024, "linear", "rebin-bst", filtered=True, cli=False),
    )
}


def threads() -> int:
    return int(os.environ["TOMO_THREADS"])


def random_phantom(rng: np.random.Generator, features: int = 12) -> list:
    """A unit body ellipse holding ``features`` small ellipses of contrast +-0.15..0.3."""
    body = fb.Ellipse((0.0, 0.0), (rng.uniform(0.66, 0.70), rng.uniform(0.86, 0.90)), rng.uniform(-0.3, 0.3), 1.0)
    out = [body]
    for _ in range(features):
        r = rng.uniform(0.05, 0.15)
        rho, phi = rng.uniform(0.0, 0.5), rng.uniform(0.0, 2.0 * math.pi)
        amp = rng.choice((-1.0, 1.0)) * rng.uniform(0.15, 0.3)
        center = (rho * math.cos(phi), rho * math.sin(phi))
        out.append(fb.Ellipse(center, (r, r * rng.uniform(0.4, 1.0)), rng.uniform(0.0, math.pi), amp))
    return out


@dataclass(frozen=True)
class Case:
    ellipses: list
    sino: object  # StandardFanSinogram or LinearFanSinogram, n x n


def make_case(w: Workload, n: int, rng: np.random.Generator) -> Case:
    ellipses = random_phantom(rng)
    p = fb.analytic_radon(ellipses, n, n)
    if w.filtered:
        p = fb.ramp_filter(p)
    rebin = fb.rebin_to_linear if w.geometry == "linear" else fb.rebin_to_standard
    return Case(ellipses, rebin(p, fb.make_fan_geometry(D), n, n))


def backproject(sino, n: int, geometry: str, route: str, filtered: bool) -> np.ndarray:
    """The library calls an op makes: the series route, or adjoint rebin then BST."""
    if route == "bessel":
        back = fb.standard_fan_backproject if geometry == "standard" else fb.linear_fan_backproject
        data = back(sino, n, eps=EPS).data
    else:
        adjoint = fb.adjoint_rebin_standard if geometry == "standard" else fb.adjoint_rebin_linear
        data = fb.bst_backproject(adjoint(sino, sino.data.shape[1], 2 * sino.n_beta), n).data
    if filtered:
        data = data * fb.fbp_normalization(sino.geometry, route)
    return data


def _rel_l2(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def check(w: Workload, n: int, case: Case, image) -> dict:
    """Accuracy of one op's output; ``ok`` is false when a gate is missed.

    ``image_rel_l2`` is the error against the workload's reference: the
    phantom on filtered workloads, the rebin-bst image otherwise.
    """
    if image is None or image.shape != (n, n) or not np.all(np.isfinite(image)):
        # scored as an all-zero image, whose relative error is exactly 1
        return {"ok": False, "image_rel_l2": 1.0, "error": "no finite n x n image"}
    out = {}
    if w.filtered:
        out["recon_rel_l2"] = _rel_l2(image, fb.rasterize(case.ellipses, n).data)
    if w.route == "bessel":
        reference = backproject(case.sino, n, w.geometry, "rebin-bst", w.filtered)
        out["route_gap_rel_l2"] = _rel_l2(image, reference)
    out["image_rel_l2"] = out["recon_rel_l2"] if w.filtered else out["route_gap_rel_l2"]
    out["ok"] = out.get("recon_rel_l2", 0.0) < RECON_GATE and out.get("route_gap_rel_l2", 0.0) < GAP_GATE
    return out


def cold_setup(w: Workload, n: int, seed_or_rng, import_s: float):
    """Import time plus the first op on a fresh input (table build, calibration).

    Returns (setup_s, case, image); the input generation is not timed.
    """
    rng = np.random.default_rng(seed_or_rng)
    case = make_case(w, n, rng)
    t0 = time.perf_counter()
    image = backproject(case.sino, n, w.geometry, w.route, w.filtered)
    return import_s + time.perf_counter() - t0, case, image


class Run:
    """State of one benchmark run: ops, checks, spans and set-up samples."""

    def __init__(self, w: Workload, n: int, seed: int, seconds: float, deadline: float, tmp: Path):
        self.w, self.n, self.seconds, self.deadline, self.tmp = w, n, seconds, deadline, tmp
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.latencies: list[float] = []  # untraced measured ops
        self.traced: list[dict] = []  # {"latency", "summary"} of traced warm ops
        self.cold: dict | None = None  # summary of the traced cold op
        self.series_peak_bytes = 0  # tracemalloc peak of the memory-tracked op
        self.checks: list[dict] = []
        self.setup_samples: list[float] = []
        self.peak_rss_mb = 0.0
        self.unmeasured: dict[str, str] = {}
        self.shape: tuple[int, int, int] | None = None  # series matmul (n_sigma, n_terms, n_theta)
        self.dgemm_gflops = 0.0

    def _record(self, case: Case, image, error: str | None = None) -> None:
        result = check(self.w, self.n, case, image)
        if error:
            result["error"] = error
        self.checks.append(result)

    def _keep_going(self, start: float, last: float) -> bool:
        now = time.monotonic()
        return now - start < self.seconds and now + last < self.deadline

    # -- in-process workloads -------------------------------------------------

    def in_process(self, import_s: float, traced: bool) -> None:
        w, n = self.w, self.n
        tracer = Tracer(memory=False) if traced else None
        if tracer:
            tracer.install()
            tracer.active = True
        try:
            setup_s, case, image = cold_setup(w, n, self.rng, import_s)
            if tracer:
                tracer.active = False
                self.cold = summarize(tracer.take())
            self._record(case, image)
            if not traced:
                self.setup_samples.append(setup_s)
                self._probe_setups()
            start, last = time.monotonic(), setup_s
            while True:
                last = self._op_in_process(None)[0]
                self.latencies.append(last)
                if tracer:
                    latency, summary = self._op_in_process(tracer)
                    self.traced.append({"latency": latency, "summary": summary})
                    last = max(last, latency)
                if not self._keep_going(start, last):
                    break
            if tracer:
                self.unmeasured.update(tracer.unmeasured)
        finally:
            if tracer:
                tracer.uninstall()
        if traced and self._memory_op_fits(last):
            tracer = Tracer(memory=True)
            tracer.install()
            try:
                self._memory_summary(self._op_in_process(tracer)[1])
            finally:
                tracer.uninstall()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _op_in_process(self, tracer: Tracer | None):
        """One op on a fresh input: (latency, span summary, or None when untraced)."""
        case = make_case(self.w, self.n, self.rng)
        if tracer:
            tracer.active = True
        image, error = None, None
        t0 = time.perf_counter()
        try:
            image = backproject(case.sino, self.n, self.w.geometry, self.w.route, self.w.filtered)
        except Exception as exc:  # a failed op is counted, not dropped
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        summary = None
        if tracer:
            tracer.active = False
            summary = summarize(tracer.take())
        self._record(case, image, error)
        return latency, summary

    # -- the memory-tracked op ------------------------------------------------

    def _memory_op_fits(self, last: float) -> bool:
        """Whether the one memory-tracked op of a traced run is due and fits before the deadline.

        Only the series route has the span it measures.  Allocation tracing
        slows the op, hence the margin over the last op's time.
        """
        if self.w.route != "bessel":
            return False
        if time.monotonic() + 1.5 * last < self.deadline:
            return True
        self.unmeasured["series.peak_mb"] = "no time left in the run for the memory-tracked op"
        return False

    def _memory_summary(self, summary: dict | None) -> None:
        if summary is None:
            self.unmeasured["series.peak_mb"] = "the memory-tracked op failed"
            return
        self.series_peak_bytes = summary["stages"].get("series.table", {}).get("peak_bytes", 0)

    def _probe_setups(self) -> None:
        for i in range(IN_PROCESS_SETUP_PROBES):
            cmd = [sys.executable, str(HERE / "probe.py"), self.w.name, str(self.seed * 1000 + i), str(self.n)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=self._remaining())
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
            self.setup_samples.append(float(json.loads(done.stdout.splitlines()[-1])["setup_s"]))

    def _remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    # -- one CLI process per op -----------------------------------------------

    def cli(self, traced: bool) -> None:
        if not traced:
            self._cli_setup_probes(CLI_SETUP_PROBES // 2)
        start = time.monotonic()
        while True:
            last, rss, _ = self._op_cli(None)
            self.latencies.append(last)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if traced:
                latency, _, summary = self._op_cli(False)
                if summary is not None:
                    self.traced.append({"latency": latency, "summary": summary})
                last = max(last, latency)
            if not self._keep_going(start, last):
                break
        if traced and self._memory_op_fits(last):
            self._memory_summary(self._op_cli(True)[2])
        if not traced:
            self._cli_setup_probes(CLI_SETUP_PROBES - CLI_SETUP_PROBES // 2)

    def _cli_setup_probes(self, count: int) -> None:
        """Time ``count`` fresh ``import fanbeam.cli`` interpreters.

        The run takes half of them before its ops and half after, so one
        run samples two phases of a shared host's load.
        """
        for _ in range(count):
            t0 = time.perf_counter()
            code, _ = self._wait_child([sys.executable, "-c", "import fanbeam.cli"])
            if code != 0:
                raise RuntimeError("set-up probe failed:\n" + (self.tmp / "child.err").read_text(errors="replace"))
            self.setup_samples.append(time.perf_counter() - t0)

    def _op_cli(self, memory: bool | None):
        """One CLI process on a fresh input: (latency, peak RSS MB, span summary).

        ``memory`` None runs the plain CLI; False and True run it under a
        timing or a memory-tracking tracer.  The summary is None for the
        plain CLI and for a failed op.
        """
        w, n = self.w, self.n
        case = make_case(w, n, self.rng)
        geom = case.sino.geometry
        half = geom.s_max if w.geometry == "linear" else geom.gamma_max
        src, out, spans_path = self.tmp / "in.grd", self.tmp / "out.grd", self.tmp / "spans.json"
        out.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        fb.write_grid(src, case.sino.data, (0.0, geom.beta_span), (-half, half))
        args = ["--threads", str(threads()), "backproject", "--in", str(src), "--geometry", w.geometry]
        args += ["--method", w.route, "--n", str(n), "--out", str(out)] + (["--filtered"] if w.filtered else [])
        if memory is None:
            cmd = [sys.executable, "-m", "fanbeam.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), str(int(memory)), *args]
        t0 = time.perf_counter()
        code, rss = self._wait_child(cmd)
        latency = time.perf_counter() - t0
        image = fb.read_grid(out).data if code == 0 and out.exists() else None
        error = None if code == 0 else f"exit code {code}: " + (self.tmp / "child.err").read_text(errors="replace")[-500:]
        summary = None
        if memory is not None and code == 0:
            dump = json.loads(spans_path.read_text(encoding="utf-8"))
            self.unmeasured.update(dump["unmeasured"])
            summary = summarize(dump["spans"])
        self._record(case, image, error)
        return latency, rss, summary

    def _wait_child(self, cmd):
        """Run a child to completion (killed at the deadline); returns (exit code, peak RSS MB).

        A blocking ``wait4`` returns as soon as the child exits; ``Popen.wait``
        with a timeout polls in steps of up to 50 ms, which would quantize
        the short set-up probes.
        """
        with open(self.tmp / "child.err", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(self._remaining(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    # -- the DGEMM ceiling ----------------------------------------------------

    def measure_dgemm(self) -> None:
        """GFLOP/s of one real DGEMM shaped like the series matmul, (n_sigma x K) @ (K x n_theta).

        The shape is computed from the truncation rule at this size, whether
        or not the workload runs the series route.
        """
        try:
            n_terms = fb.choose_truncation(fb.make_fan_geometry(D), math.pi * self.n / 2.0, EPS)
        except AttributeError as exc:
            self.unmeasured["fanbeam:choose_truncation"] = f"series shape and DGEMM unmeasured: {exc}"
            return
        n_sigma, n_theta = 2 * self.n + 1, 2 * self.n
        self.shape = (n_sigma, n_terms, n_theta)
        table = np.full((n_terms, n_sigma), 0.5)
        weights = np.full((n_terms, n_theta), 0.25)
        t0 = time.perf_counter()
        table.T @ weights
        self.dgemm_gflops = 2.0 * n_sigma * n_terms * n_theta / (time.perf_counter() - t0) / 1e9


# -- metrics ------------------------------------------------------------------


def tail(values: list[float]):
    """Highest percentile with at least 10 samples beyond it: (value, percentile, samples).

    Below 21 samples that percentile would not exceed the median, so the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 10:
        return ordered[-1], 100.0, len(ordered)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(metrics as name -> (value, unit), tail details) of an untraced run."""
    lat = run.latencies
    tail_s, pct, count = tail(lat)
    errors = [c["image_rel_l2"] for c in run.checks]
    return {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_slices_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(run.setup_samples), "s"),
        "image_rel_l2": (statistics.median(errors), "1"),
    }, {"tail_percentile": pct, "tail_samples": count}


def _median(values: list[float]) -> float:
    """Median, or 0 when no traced op completed (the run then reports failures)."""
    return statistics.median(values) if values else 0.0


PER_LAYER_UNITS = {
    **{stage + "_s": "s" for stage, _ in STAGES},
    "series.table_cold_s": "s",
    "series.matmul_gflops": "GFLOP/s",
    "series.matmul_flops": "flop",
    "series.n_terms": "count",
    "series.table_bytes": "B",
    "series.peak_mb": "MB",
    "bst.polar_samples": "count",
    "cli.process_overhead_s": "s",
    "machine.dgemm_gflops": "GFLOP/s",
    "trace.coverage": "1",
    "trace.overhead": "1",
    "trace.unmeasured": "count",
}


def per_layer(run: Run) -> dict:
    """Per-stage medians over the traced warm ops (0 for a stage that never ran).

    Flop, byte and term counts are computed from the problem shape, not
    measured; an absent stage or computation is listed in ``run.unmeasured``.
    """
    ops = [t["summary"]["stages"] for t in run.traced]
    latencies = [t["latency"] for t in run.traced]

    def med(stage: str, key: str = "self_s") -> float:
        return _median([op.get(stage, {}).get(key, 0) for op in ops])

    out = {stage + "_s": med(stage) for stage, _ in STAGES}
    cold = run.cold["stages"] if run.cold else (ops[0] if ops else {})
    out["series.table_cold_s"] = cold.get("series.table", {}).get("self_s", 0.0)
    out["series.peak_mb"] = run.series_peak_bytes / 2**20
    out["bst.polar_samples"] = med("bst.polar_to_cartesian", "count")
    out["series.n_terms"] = out["series.table_bytes"] = out["series.matmul_flops"] = 0
    out["series.matmul_gflops"] = 0.0
    calls = med("series.matmul", "calls")
    if calls and run.shape:
        n_sigma, n_terms, n_theta = run.shape
        flops = 4 * n_sigma * n_terms * n_theta * calls  # one real GEMM each for the real and imaginary parts
        out["series.n_terms"] = n_terms
        out["series.table_bytes"] = 8 * n_terms * n_sigma
        out["series.matmul_flops"] = flops
        if out["series.matmul_s"] > 0:
            out["series.matmul_gflops"] = flops / out["series.matmul_s"] / 1e9
    out["machine.dgemm_gflops"] = run.dgemm_gflops
    out["cli.process_overhead_s"] = (
        _median([t["latency"] - t["summary"]["root_s"] for t in run.traced]) if run.w.cli else 0.0
    )
    out["trace.coverage"] = _median([t["summary"]["self_total_s"] / t["latency"] for t in run.traced])
    out["trace.overhead"] = _median(latencies) / _median(run.latencies) - 1.0 if latencies and run.latencies else 0.0
    out["trace.unmeasured"] = len(run.unmeasured)
    return {name: (float(out[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
