import csv
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fanbeam
from fanbeam.cli import main
from fanbeam.gridfile import read_grid, write_grid


def run(*argv):
    return main([str(a) for a in argv])


def child_env():
    """The environment of a child interpreter that imports this checkout's fanbeam."""
    env = dict(os.environ)
    src = str(Path(fanbeam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def cli_process(*argv, timeout=120):
    """The CLI run in its own interpreter, output captured as text; a hang fails the test at ``timeout``."""
    cmd = [sys.executable, "-m", "fanbeam.cli", *(str(a) for a in argv)]
    return subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)


def run_process(*argv, timeout=120):
    """Exit code of the CLI run in its own interpreter."""
    return cli_process(*argv, timeout=timeout).returncode


@pytest.fixture(scope="module")
def parallel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "p.grd"
    assert run("phantom", "--n", 128, "--sinogram", "--out", path) == 0
    return path


class TestPhantomCommand:
    def test_default_phantom_full_size(self, tmp_path):
        out = tmp_path / "img.grd"
        assert run("phantom", "--n", 1024, "--out", out) == 0
        grid = read_grid(out)
        assert grid.data.shape == (1024, 1024)
        assert grid.axis0 == (-1.0, 1.0)

    def test_sinogram_metadata(self, parallel_file):
        grid = read_grid(parallel_file)
        assert grid.data.shape == (128, 128)
        assert grid.axis0 == (0.0, math.pi)
        assert grid.axis1 == (-1.0, 1.0)

    def test_zero_size_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("phantom", "--n", 0, "--out", tmp_path / "x.grd")
        assert exc.value.code == 2

    def test_unreadable_config_exits_2(self, tmp_path):
        assert run("phantom", "--n", 16, "--config", tmp_path / "missing.txt", "--out", tmp_path / "x.grd") == 2

    def test_config_and_preview(self, tmp_path):
        cfg = tmp_path / "ph.txt"
        cfg.write_text("0 0 0.5 0.5 0 1\n")
        out = tmp_path / "img.grd"
        pgm = tmp_path / "img.pgm"
        assert run("phantom", "--n", 32, "--config", cfg, "--out", out, "--preview", pgm) == 0
        header = pgm.read_bytes()[:15]
        assert header.startswith(b"P5\n32 32\n255\n")


class TestProjectCommand:
    def test_standard_metadata(self, parallel_file, tmp_path):
        out = tmp_path / "w.grd"
        assert run("project", "--in", parallel_file, "--geometry", "standard", "--d", 10, "--out", out) == 0
        grid = read_grid(out)
        gamma_max = math.asin(0.1)
        assert grid.axis1 == pytest.approx((-gamma_max, gamma_max))
        assert grid.axis0 == pytest.approx((0.0, math.pi + 2 * gamma_max))

    def test_linear_metadata(self, parallel_file, tmp_path):
        out = tmp_path / "g.grd"
        assert run("project", "--in", parallel_file, "--geometry", "linear", "--out", out) == 0
        grid = read_grid(out)
        s_max = 10 / math.sqrt(99)
        assert grid.axis1 == pytest.approx((-s_max, s_max))

    def test_bad_distance_exits_2(self, parallel_file, tmp_path):
        assert run("project", "--in", parallel_file, "--geometry", "linear", "--d", 1.0, "--out", tmp_path / "g.grd") == 2

    def test_missing_input_exits_2(self, tmp_path):
        assert run("project", "--in", tmp_path / "none.grd", "--geometry", "linear", "--out", tmp_path / "g.grd") == 2

    def test_infinite_distance_exits_2(self, parallel_file, tmp_path, capsys):
        assert run("project", "--in", parallel_file, "--geometry", "standard", "--d", "inf", "--out", tmp_path / "w.grd") == 2
        assert "must be finite" in capsys.readouterr().err

    def test_one_row_fan_exits_2(self, parallel_file, tmp_path, capsys):
        out = tmp_path / "g.grd"
        assert run("project", "--in", parallel_file, "--geometry", "linear", "--n-beta", 1, "--out", out) == 2
        assert "n_beta >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.grd"
        # write_grid refuses a NaN payload, so the file is patched after writing
        write_grid(path, np.zeros((16, 16)), (0.0, math.pi), (-1.0, 1.0))
        raw = bytearray(path.read_bytes())
        raw[49:] = np.full(16 * 16, np.nan).tobytes()
        path.write_bytes(bytes(raw))
        assert run("project", "--in", path, "--geometry", "linear", "--out", tmp_path / "g.grd") == 2
        assert "non-finite" in capsys.readouterr().err


@pytest.fixture(scope="module")
def linear_file(parallel_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("fan") / "g.grd"
    assert run("project", "--in", parallel_file, "--geometry", "linear", "--out", path) == 0
    return path


def one_row_copy(fan_file, path):
    """The first beta row of a fan grid file, written with the file's axes."""
    grid = read_grid(fan_file)
    write_grid(path, grid.data[:1], grid.axis0, grid.axis1)
    return path


def patched_copy(fan_file, path, offset, raw):
    """A copy of a grid file with ``raw`` written over its bytes from ``offset``."""
    data = bytearray(fan_file.read_bytes())
    data[offset : offset + len(raw)] = raw
    path.write_bytes(bytes(data))
    return path


class TestBackprojectCommand:
    def test_method_profiles_agree(self, linear_file, tmp_path):
        outs = {}
        for method in ("bessel", "rebin-bst"):
            out = tmp_path / f"{method}.grd"
            csv_path = tmp_path / f"{method}.csv"
            code = run(
                "backproject", "--in", linear_file, "--geometry", "linear", "--method", method,
                "--n", 128, "--profile-row", 71, "--profile-csv", csv_path, "--out", out,
            )
            assert code == 0
            with open(csv_path) as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["x1", "value"]
            outs[method] = np.array([float(r[1]) for r in rows[1:]])
        span = outs["rebin-bst"].max() - outs["rebin-bst"].min()
        assert np.abs(outs["bessel"] - outs["rebin-bst"]).max() / span < 0.03

    def test_direct_matches_bessel(self, linear_file, tmp_path):
        imgs = {}
        for method in ("direct", "bessel"):
            out = tmp_path / f"{method}.grd"
            assert run("backproject", "--in", linear_file, "--geometry", "linear", "--method", method,
                       "--n", 64, "--out", out) == 0
            imgs[method] = read_grid(out).data
        from conftest import rel_l2

        assert rel_l2(imgs["bessel"], imgs["direct"]) < 0.05

    def test_geometry_mismatch_exits_2(self, linear_file, tmp_path):
        assert run("backproject", "--in", linear_file, "--geometry", "standard", "--n", 32,
                   "--out", tmp_path / "x.grd") == 2

    def test_asymmetric_detector_range_exits_2(self, linear_file, tmp_path, capsys):
        grid = read_grid(linear_file)
        bad = tmp_path / "half.grd"
        write_grid(bad, grid.data, grid.axis0, (0.0, grid.axis1[1]))
        assert run("backproject", "--in", bad, "--geometry", "linear", "--n", 32, "--out", tmp_path / "x.grd") == 2
        assert "not symmetric" in capsys.readouterr().err

    def test_non_finite_beta_axis_exits_2(self, linear_file, tmp_path, capsys):
        grid = read_grid(linear_file)
        bad = tmp_path / "nan_beta.grd"
        # write_grid refuses a NaN axis, so the header is patched after writing
        write_grid(bad, grid.data, grid.axis0, grid.axis1)
        raw = bytearray(bad.read_bytes())
        raw[17:33] = struct.pack("<2d", math.nan, math.nan)
        bad.write_bytes(bytes(raw))
        out = tmp_path / "x.grd"
        assert run("backproject", "--in", bad, "--geometry", "linear", "--n", 32, "--out", out) == 2
        assert "header axes" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_image_exits_2(self, linear_file, tmp_path, monkeypatch, capsys):
        # a route that returned NaN must not leave an image behind
        from fanbeam import cli
        from fanbeam.core import ImageGrid

        monkeypatch.setattr(cli, "backproject", lambda sino, n, *args: ImageGrid(np.full((n, n), np.nan)))
        out = tmp_path / "x.grd"
        assert run("backproject", "--in", linear_file, "--geometry", "linear", "--n", 32, "--out", out) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row", [32, -1])
    def test_profile_row_out_of_range_exits_2_before_writing(self, linear_file, tmp_path, capsys, row):
        out = tmp_path / "x.grd"
        preview = tmp_path / "x.pgm"
        assert run("backproject", "--in", linear_file, "--geometry", "linear", "--n", 32,
                   "--profile-row", row, "--out", out, "--preview", preview) == 2
        assert "profile row" in capsys.readouterr().err
        assert not out.exists()
        assert not preview.exists()
        assert not (tmp_path / "x.grd.profile.csv").exists()

    def test_profile_csv_without_row_exits_2_before_reading(self, tmp_path, capsys):
        # the input does not exist: the option check must come first
        csv_path = tmp_path / "prof.csv"
        assert run("backproject", "--in", tmp_path / "none.grd", "--geometry", "linear", "--n", 32,
                   "--profile-csv", csv_path, "--out", tmp_path / "x.grd") == 2
        assert "--profile-row" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_missing_input_exits_2(self, tmp_path):
        assert run("backproject", "--in", tmp_path / "none.grd", "--geometry", "linear", "--n", 32,
                   "--out", tmp_path / "x.grd") == 2

    @pytest.mark.parametrize("method", ["direct", "rebin-bst", "bessel"])
    def test_one_row_fan_grid_exits_2(self, linear_file, tmp_path, capsys, method):
        bad = one_row_copy(linear_file, tmp_path / "one_row.grd")
        out = tmp_path / "x.grd"
        assert run("backproject", "--in", bad, "--geometry", "linear", "--method", method, "--n", 32, "--out", out) == 2
        assert "n_beta>=2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_2(self, linear_file, tmp_path, eps):
        assert run_process("backproject", "--in", linear_file, "--geometry", "linear", "--method", "bessel",
                           "--n", 32, "--eps", eps, "--out", tmp_path / "x.grd") == 2

    def test_oversized_header_exits_2(self, linear_file, tmp_path, capsys):
        raw = bytearray(linear_file.read_bytes())
        raw[9:17] = (4_000_000_000).to_bytes(4, "little") * 2
        bad = tmp_path / "huge.grd"
        bad.write_bytes(bytes(raw))
        assert run("backproject", "--in", bad, "--geometry", "linear", "--n", 32, "--out", tmp_path / "x.grd") == 2
        assert "payload length" in capsys.readouterr().err

    def test_standard_filtered_reconstructs_phantom(self, tmp_path):
        from conftest import rel_l2

        n = 256
        p, w, out, truth = (tmp_path / name for name in ("p.grd", "w.grd", "rec.grd", "truth.grd"))
        assert run("phantom", "--n", n, "--sinogram", "--out", p) == 0
        assert run("phantom", "--n", n, "--out", truth) == 0
        assert run("project", "--in", p, "--geometry", "standard", "--filtered", "--out", w) == 0
        assert run("backproject", "--in", w, "--geometry", "standard", "--n", n, "--filtered", "--out", out) == 0
        assert rel_l2(read_grid(out).data, read_grid(truth).data) < 0.15


def backproject_argv(fan, *options, geometry="linear", n=32):
    return ("backproject", "--in", fan, "--geometry", geometry, "--n", n, *options)


def far_standard_grid(path, d):
    """A small standard fan grid file whose axes give source distance ``d``."""
    gamma_max = math.asin(1.0 / d)
    write_grid(path, np.ones((8, 8)), (0.0, math.pi + 2.0 * gamma_max), (-gamma_max, gamma_max))
    return path


# one case per class of input error: the command line without --out, from the
# module's parallel and fan grid files and a scratch directory
INPUT_ERRORS = {
    "unknown-method": lambda par, fan, tmp: backproject_argv(fan, "--method", "warp"),
    "non-positive-size": lambda par, fan, tmp: backproject_argv(fan, "--n", 0),
    "missing-file": lambda par, fan, tmp: backproject_argv(tmp / "none.grd"),
    "unreadable-file": lambda par, fan, tmp: backproject_argv(tmp),
    "malformed-header": lambda par, fan, tmp: backproject_argv(patched_copy(fan, tmp / "magic.grd", 0, b"NOTAGRID")),
    "nan-payload": lambda par, fan, tmp: backproject_argv(
        patched_copy(fan, tmp / "nan.grd", 49, np.full(3, np.nan).tobytes())
    ),
    "nan-eps": lambda par, fan, tmp: backproject_argv(fan, "--method", "bessel", "--eps", "nan"),
    "one-row-fan-grid": lambda par, fan, tmp: backproject_argv(one_row_copy(fan, tmp / "one_row.grd")),
    # d*d overflows, so s_max = d/sqrt(d*d - 1) cannot be formed
    "overflowing-distance": lambda par, fan, tmp: ("project", "--in", par, "--geometry", "linear", "--d", 1e300),
    # s_max = d/sqrt(d*d - 1) rounds to 1, a half-width backproject refuses
    "unit-linear-half-width": lambda par, fan, tmp: ("project", "--in", par, "--geometry", "linear", "--d", 1e10),
    # the series would need about 1e21 and 3e13 terms
    "series-too-long": lambda par, fan, tmp: backproject_argv(far_standard_grid(tmp / "far.grd", 1e20), geometry="standard"),
    "series-too-long-small-n": lambda par, fan, tmp: backproject_argv(
        far_standard_grid(tmp / "far.grd", 1e12), geometry="standard", n=16
    ),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_errors_exit_2_with_a_message(parallel_file, linear_file, tmp_path, case):
    # run in a child interpreter, so what reaches stderr is what a user sees;
    # every case is refused before any work, within seconds
    argv = INPUT_ERRORS[case](parallel_file, linear_file, tmp_path)
    out = tmp_path / "x.grd"
    done = cli_process(*argv, "--out", out, timeout=30)
    assert done.returncode == 2
    assert "error" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_threads_flag_accepted_and_ignored(linear_file, tmp_path):
    args = ("backproject", "--in", linear_file, "--geometry", "linear", "--n", 32, "--out")
    plain, threads = tmp_path / "plain.grd", tmp_path / "threads.grd"
    assert run(*args, plain) == 0
    assert run("--threads", 2, *args, threads) == 0
    assert plain.read_bytes() == threads.read_bytes()
    with pytest.raises(SystemExit) as exc:
        run("--threads", 0, *args, tmp_path / "x.grd")
    assert exc.value.code == 2


def test_import_loads_no_scipy_fft_or_special():
    # scipy.sparse loads later, when the resampling operator is first built
    code = "import sys, fanbeam.cli; print(' '.join(sorted(sys.modules)))"
    cmd = [sys.executable, "-c", code]
    loaded = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, check=True, timeout=120).stdout.split()
    assert "fanbeam.cli" in loaded
    assert not [m for m in loaded if m.split(".")[:2] in (["scipy", "fft"], ["scipy", "special"])]


class TestBenchCommand:
    def test_empty_sizes_header_only(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("bench", "--sizes", "", "--out-csv", out) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["method", "n", "n_theta", "seconds"]]

    def test_small_run_records_all_methods(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("bench", "--sizes", "32", "--methods", "direct,bst", "--repetitions", 1,
                   "--out-csv", out) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert {r[0] for r in rows} == {"direct", "bst"}
        assert all(float(r[3]) >= 0 for r in rows)

    def test_unknown_method_exits_2(self, tmp_path):
        assert run("bench", "--sizes", "32", "--methods", "warp", "--out-csv", tmp_path / "b.csv") == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_2(self, tmp_path, eps):
        assert run_process("bench", "--sizes", "32", "--methods", "bessel", "--repetitions", 1, "--eps", eps,
                           "--out-csv", tmp_path / "b.csv") == 2

    def test_infinite_distance_exits_2(self, tmp_path, capsys):
        assert run("bench", "--sizes", "32", "--methods", "bst", "--d", "inf", "--out-csv", tmp_path / "b.csv") == 2
        assert "must be finite" in capsys.readouterr().err
