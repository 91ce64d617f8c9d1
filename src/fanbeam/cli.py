"""Command-line interface: phantom generation, fan projection,
backprojection/reconstruction, and a small scaling benchmark.

Exit codes: 0 success, 2 usage or input errors, 1 internal errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time

import numpy as np

from . import __version__
from .bst import bst_backproject
from .core import FAN_SINOGRAMS, FanSinogram, ParallelSinogram, make_fan_geometry
from .filtering import backproject, fbp_normalization, ramp_filter
from .forward import _rebin_to_fan, rebin_to_linear
from .gridfile import read_grid, write_grid
from .phantom import analytic_radon, load_ellipse_config, rasterize, shepp_logan_ellipses
from .rebinning import adjoint_rebin_linear


class InputError(ValueError):
    """User-facing input problem; maps to exit code 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def write_pgm(path, data: np.ndarray) -> None:
    """8-bit min-max scaled preview, row 0 at the top (x2 decreasing)."""
    lo, hi = float(data.min()), float(data.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    img = ((data - lo) * scale).round().astype(np.uint8)[::-1]
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())


def _load_phantom(config):
    if config is None:
        return shepp_logan_ellipses()
    try:
        return load_ellipse_config(config)
    except OSError as exc:
        raise InputError(f"cannot read phantom config: {exc}") from exc


def _cmd_phantom(args) -> int:
    ellipses = _load_phantom(args.config)
    if args.sinogram:
        n_theta = args.n_theta or args.n
        sino = analytic_radon(ellipses, args.n, n_theta)
        write_grid(args.out, sino.data, (0.0, math.pi), (-1.0, 1.0))
        preview = sino.data
    else:
        img = rasterize(ellipses, args.n)
        write_grid(args.out, img.data, (-1.0, 1.0), (-1.0, 1.0))
        preview = img.data
    if args.preview:
        write_pgm(args.preview, preview)
    return 0


def _read_parallel(path) -> ParallelSinogram:
    grid = read_grid(path)
    if not (abs(grid.axis0[0]) < 1e-9 and abs(grid.axis0[1] - math.pi) < 1e-6):
        raise InputError(f"{path}: not a parallel sinogram (theta axis {grid.axis0})")
    if not (abs(grid.axis1[0] + 1.0) < 1e-6 and abs(grid.axis1[1] - 1.0) < 1e-6):
        raise InputError(f"{path}: not a parallel sinogram (t axis {grid.axis1})")
    return ParallelSinogram(grid.data)


def _cmd_project(args) -> int:
    geom = make_fan_geometry(args.d)
    sinogram = FAN_SINOGRAMS[args.geometry]
    half_width = sinogram.detector.half_width(geom)
    # the range backproject accepts when it reads the file back
    lo, hi = sinogram.detector.half_width_range
    if not (lo < half_width < hi):
        raise InputError(f"d={args.d} gives a {args.geometry} detector half-width of {half_width}, outside ({lo}, {hi})")
    p = _read_parallel(args.input)
    if args.filtered:
        p = ramp_filter(p, args.cutoff)
    n_det = args.n_det or p.n_t
    n_beta = args.n_beta or p.n_theta
    sino = _rebin_to_fan(p, geom, sinogram, n_det, n_beta)
    write_grid(args.out, sino.data, (0.0, geom.beta_span), (-half_width, half_width))
    if args.preview:
        write_pgm(args.preview, sino.data)
    return 0


def _fan_from_grid(path, geometry: str) -> FanSinogram:
    grid = read_grid(path)
    sinogram = FAN_SINOGRAMS[geometry]
    start, half_width = grid.axis1
    if abs(start + half_width) > 1e-9 * abs(half_width):
        raise InputError(f"{path}: detector range {grid.axis1} is not symmetric about 0")
    lo, hi = sinogram.detector.half_width_range
    if not (lo < half_width < hi):
        raise InputError(f"{path}: detector range {grid.axis1} not a {geometry} fan detector")
    geom = make_fan_geometry(sinogram.detector.d_of_half_width(half_width))
    if abs(grid.axis0[1] - geom.beta_span) > 1e-6 or abs(grid.axis0[0]) > 1e-9:
        raise InputError(
            f"{path}: beta range {grid.axis0} inconsistent with {geometry} geometry "
            f"(expected [0, {geom.beta_span:.9f}))"
        )
    return sinogram(grid.data, geom)


def _cmd_backproject(args) -> int:
    if args.profile_csv is not None and args.profile_row is None:
        raise InputError("--profile-csv needs --profile-row")
    if args.profile_row is not None and not (0 <= args.profile_row < args.n):
        raise InputError(f"profile row {args.profile_row} outside 0..{args.n - 1}")
    sino = _fan_from_grid(args.input, args.geometry)
    data = backproject(sino, args.n, args.method, args.eps).data
    if args.filtered:
        data = data * fbp_normalization(sino.geometry, args.method, detector=sino.detector)
    write_grid(args.out, data, (-1.0, 1.0), (-1.0, 1.0))
    if args.preview:
        write_pgm(args.preview, data)
    if args.profile_row is not None:
        x1 = -1.0 + (2.0 * np.arange(args.n) + 1.0) / args.n
        out = args.profile_csv or (str(args.out) + ".profile.csv")
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "value"])
            writer.writerows(zip(x1, data[args.profile_row]))
    return 0


def _random_ellipses(rng: np.random.Generator, count: int = 6):
    from .phantom import Ellipse

    out = []
    for _ in range(count):
        r = rng.uniform(0.05, 0.25)
        c = rng.uniform(-0.6, 0.6, size=2)
        if math.hypot(*c) + r > 0.95:
            c *= (0.95 - r) / (math.hypot(*c) + 1e-9)
        out.append(Ellipse(tuple(c), (r, r * rng.uniform(0.5, 1.0)), rng.uniform(0, math.pi), rng.uniform(0.2, 1.0)))
    return out


def _cmd_bench(args) -> int:
    # one row per distinct (method, size), in the order given
    sizes = list(dict.fromkeys(int(s) for s in args.sizes.split(",") if s.strip())) if args.sizes else []
    methods = list(dict.fromkeys(m.strip() for m in args.methods.split(",") if m.strip()))
    known = {"direct", "rebin-bst", "bessel", "bst"}
    bad = set(methods) - known
    if bad:
        raise InputError(f"unknown bench methods: {sorted(bad)}")
    rng = np.random.default_rng(args.seed)
    ellipses = _random_ellipses(rng)
    geom = make_fan_geometry(args.d)
    cases = []
    for n in sizes:
        g = rebin_to_linear(analytic_radon(ellipses, n, n), geom, n, n)
        cases.append((n, g, adjoint_rebin_linear(g, n, 2 * n)))
    # repetitions go round-robin over (size, method), so a phase in which
    # the host runs slow lands on every size alike and not on one of them
    times = {(method, n): [] for n in sizes for method in methods}
    for _ in range(args.repetitions):
        for n, g, q in cases:
            for method in methods:
                t0 = time.perf_counter()
                if method == "bst":  # the parallel backprojection alone, on precomputed q
                    bst_backproject(q, n)
                else:
                    backproject(g, n, method, args.eps)
                times[method, n].append(time.perf_counter() - t0)
    with open(args.out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "n", "n_theta", "seconds"])
        writer.writerows((method, n, n, float(np.median(t))) for (method, n), t in times.items())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fanbeam", description="Fan-beam backprojection toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--threads", type=_positive_int, default=None, help="ignored; accepted so that existing scripts keep working")
    sub = parser.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("phantom", help="rasterize a phantom or emit its analytic parallel sinogram")
    ph.add_argument("--n", type=_positive_int, default=1024, help="pixels per side / detector samples (default 1024)")
    ph.add_argument("--n-theta", type=_positive_int, default=None, help="projection count for --sinogram (default: n)")
    ph.add_argument("--config", default=None, help="ellipse config file (default: built-in Shepp-Logan set)")
    ph.add_argument("--sinogram", action="store_true", help="write the analytic parallel sinogram instead of the image")
    ph.add_argument("--out", required=True)
    ph.add_argument("--preview", default=None, help="optional 8-bit PGM preview")
    ph.set_defaults(func=_cmd_phantom)

    pr = sub.add_parser("project", help="rebin a parallel sinogram to a fan geometry")
    pr.add_argument("--in", dest="input", required=True, help="parallel sinogram grid file")
    pr.add_argument("--geometry", choices=("standard", "linear"), required=True)
    pr.add_argument("--d", type=float, default=10.0, help="source-origin distance (default 10)")
    pr.add_argument("--n-det", type=_positive_int, default=None, help="detector samples (default: input n_t)")
    pr.add_argument("--n-beta", type=_positive_int, default=None, help="source angles (default: input n_theta)")
    pr.add_argument("--filtered", action="store_true", help="ramp filter the parallel sinogram before rebinning")
    pr.add_argument("--cutoff", type=float, default=1.0, help="ramp cutoff as a fraction of Nyquist")
    pr.add_argument("--out", required=True)
    pr.add_argument("--preview", default=None)
    pr.set_defaults(func=_cmd_project)

    bp = sub.add_parser("backproject", help="backproject a fan sinogram")
    bp.add_argument("--in", dest="input", required=True, help="fan sinogram grid file")
    bp.add_argument("--method", choices=("direct", "rebin-bst", "bessel"), default="bessel")
    bp.add_argument("--geometry", choices=("standard", "linear"), required=True)
    bp.add_argument("--n", type=_positive_int, required=True, help="output image side")
    bp.add_argument("--eps", type=float, default=1e-9, help="series truncation tolerance")
    bp.add_argument("--filtered", action="store_true", help="input is ramp filtered; apply the reconstruction scale")
    bp.add_argument("--out", required=True)
    bp.add_argument("--profile-row", type=int, default=None, help="emit a CSV of this image row")
    bp.add_argument("--profile-csv", default=None, help="profile CSV path (default: <out>.profile.csv)")
    bp.add_argument("--preview", default=None)
    bp.set_defaults(func=_cmd_backproject)

    be = sub.add_parser("bench", help="time the backprojection methods")
    be.add_argument("--sizes", default="", help="comma-separated image sizes (empty: header-only CSV)")
    be.add_argument("--methods", default="direct,bst", help="comma-separated methods (direct, rebin-bst, bst, bessel)")
    be.add_argument("--repetitions", type=_positive_int, default=3)
    be.add_argument("--d", type=float, default=10.0)
    be.add_argument("--eps", type=float, default=1e-9)
    be.add_argument("--seed", type=int, default=0, help="seed for the random bench phantom")
    be.add_argument("--out-csv", required=True)
    be.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # InputError and GeometryError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
