import csv
import math
import os
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


def run_process(*argv, timeout=120):
    """Exit code of the CLI run in its own interpreter; a hang fails the test at ``timeout``."""
    env = dict(os.environ)
    src = str(Path(fanbeam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "fanbeam.cli", *(str(a) for a in argv)]
    return subprocess.run(cmd, env=env, capture_output=True, timeout=timeout).returncode


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

    def test_non_finite_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.grd"
        write_grid(path, np.full((16, 16), np.nan), (0.0, math.pi), (-1.0, 1.0))
        assert run("project", "--in", path, "--geometry", "linear", "--out", tmp_path / "g.grd") == 2
        assert "non-finite" in capsys.readouterr().err


@pytest.fixture(scope="module")
def linear_file(parallel_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("fan") / "g.grd"
    assert run("project", "--in", parallel_file, "--geometry", "linear", "--out", path) == 0
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
        write_grid(bad, grid.data, (math.nan, math.nan), grid.axis1)
        out = tmp_path / "x.grd"
        assert run("backproject", "--in", bad, "--geometry", "linear", "--n", 32, "--out", out) == 2
        assert "header axes" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path):
        assert run("backproject", "--in", tmp_path / "none.grd", "--geometry", "linear", "--n", 32,
                   "--out", tmp_path / "x.grd") == 2

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


def test_threads_flag_and_env(tmp_path, monkeypatch):
    from fanbeam._threads import get_workers, set_workers

    monkeypatch.setenv("TOMO_THREADS", "3")
    set_workers(None)
    assert get_workers() == 3
    out = tmp_path / "img.grd"
    assert run("--threads", 1, "phantom", "--n", 16, "--out", out) == 0
    assert get_workers() == 1
    set_workers(None)
    monkeypatch.delenv("TOMO_THREADS")


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
