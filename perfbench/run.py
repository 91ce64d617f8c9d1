"""Outside-in benchmark of fanbeam's three backprojection routes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-bst-1024 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details.  Every run also writes
a result file under ``.perfbench/results/``.  ``--smoke`` runs every
workload, untraced and traced, at a tiny size.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_BUDGET_S = 170.0  # every run ends well within 180 s
SMOKE_N = 96  # smallest size at which every accuracy gate holds with margin
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TOMO_THREADS")


def bootstrap() -> None:
    """Point the interpreter and every child at the checkout's sources; cap threads at nproc."""
    src = ROOT / "src"
    if not (src / "fanbeam" / "__init__.py").is_file():
        sys.exit(f"error: no fanbeam sources under {src}")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(src))


def environment() -> dict:
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fanbeam").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_one(workload: str, n: int, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    import workloads as wl

    w = wl.WORKLOADS[workload]
    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    run = wl.Run(w, n, seed, seconds, time.monotonic() + RUN_BUDGET_S - import_s, tmp)
    try:
        if w.cli:
            run.cli(trace)
        else:
            run.in_process(import_s, trace)
        if trace:
            run.measure_dgemm()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(not c["ok"] for c in run.checks)
    details = {"workload": workload, "n": run.n, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        metrics = wl.per_layer(run)
        details["unmeasured"] = run.unmeasured
        details["traced_ops"] = len(run.traced)
    else:
        metrics, extra = wl.end_to_end(run)
        details.update(extra)
        details["setup_samples_s"] = run.setup_samples
    details["untraced_latencies_s"] = run.latencies
    details["checks"] = run.checks
    return {
        "correct": failed == 0,
        "attempted": len(run.checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "details": details,
    }


def report(result: dict, env: dict) -> None:
    details = result.pop("details")
    name = f"{details['workload']}-n{details['n']}-seed{details['seed']}-trace{int(details['trace'])}.json"
    out = ROOT / ".perfbench" / "results" / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": env, "details": details, **result}, indent=1), encoding="utf-8")
    print(json.dumps({"env": env, "details": details, "result_file": str(out.relative_to(ROOT))}))
    print(json.dumps(result), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"every workload, untraced and traced, at n={SMOKE_N}")
    args = parser.parse_args()
    bootstrap()
    t0 = time.perf_counter()
    import fanbeam  # noqa: F401  (timed: imports count towards set-up)

    import_s = time.perf_counter() - t0
    import workloads as wl

    if args.workload not in wl.WORKLOADS and not args.smoke:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    env = environment()
    if not args.smoke:
        result = run_one(args.workload, wl.WORKLOADS[args.workload].n, args.seed, args.seconds, bool(args.trace), import_s)
        report(result, env)
        return 0
    # smoke: the imports were paid once, so set-up samples of later runs read low
    runs = [
        run_one(name, SMOKE_N, args.seed, 1.0, trace, import_s) for name in wl.WORKLOADS for trace in (False, True)
    ]
    for result in runs:
        report(result, env)
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
