import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanbeam import (
    LINEAR,
    STANDARD,
    FanGeometry,
    GeometryError,
    ImageGrid,
    LinearFanSinogram,
    ParallelSinogram,
    PolarSpectrum,
    StandardFanSinogram,
    make_fan_geometry,
)


class TestFanGeometry:
    def test_reference_values_d10(self):
        geom = make_fan_geometry(10.0)
        # arbitrary-precision evaluation of the closed forms
        s_max = float(10 / mpmath.sqrt(99))
        gamma_max = float(mpmath.asin(mpmath.mpf(1) / 10))
        assert geom.s_max == pytest.approx(s_max, rel=1e-15)
        assert geom.s_max == pytest.approx(1.0050378, rel=1e-7)
        assert geom.gamma_max == pytest.approx(gamma_max, rel=1e-15)
        assert geom.gamma_max == pytest.approx(0.1001674, rel=1e-6)

    def test_parallel_beam_limit(self):
        geom = make_fan_geometry(1e6)
        assert geom.gamma_max == pytest.approx(1e-6, rel=1e-9)
        assert geom.s_max == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("d", [1.0, 0.5, 0.0, -3.0])
    def test_source_inside_support_rejected(self, d):
        with pytest.raises(GeometryError):
            make_fan_geometry(d)

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e8))
    @settings(max_examples=200, deadline=None)
    def test_derived_quantities_consistent(self, d):
        geom = make_fan_geometry(d)
        assert abs(d * math.sin(geom.gamma_max) - 1.0) < 1e-12
        # exactly as computed: the stored span is pi + 2*gamma_max
        assert geom.beta_span == math.pi + 2.0 * geom.gamma_max
        assert geom.s_max == pytest.approx(d / math.sqrt(d * d - 1.0), rel=1e-14)

    @pytest.mark.parametrize("derived", ["s_max", "gamma_max", "beta_span"])
    def test_derived_quantities_are_not_arguments(self, derived):
        # the derived values follow from d alone; passing one is an error, not a silent overwrite
        with pytest.raises(TypeError):
            FanGeometry(10.0, **{derived: 1.0})


class TestContainers:
    def test_image_grid_pixel_centers(self):
        img = ImageGrid(np.zeros((4, 4)))
        x1, x2 = img.coords()
        assert x1[0, 0] == pytest.approx(-1 + 1 / 4)
        assert x2[3, 1] == pytest.approx(-1 + 7 / 4)
        with pytest.raises(ValueError):
            ImageGrid(np.zeros((3, 4)))

    def test_image_data_read_only(self):
        img = ImageGrid(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            img.data[0, 0] = 1.0

    def test_parallel_grids(self):
        p = ParallelSinogram(np.zeros((6, 5)))
        np.testing.assert_allclose(p.t_grid, [-1, -0.5, 0, 0.5, 1])
        np.testing.assert_allclose(p.theta_grid, math.pi * np.arange(6) / 6)
        assert not p.full_circle
        q = ParallelSinogram(np.zeros((6, 5)), theta_span=2 * math.pi)
        assert q.full_circle
        with pytest.raises(ValueError):
            ParallelSinogram(np.zeros((6, 5)), theta_span=1.0)

    def test_fan_grids(self):
        geom = make_fan_geometry(10.0)
        w = StandardFanSinogram(np.zeros((8, 5)), geom)
        g = w.gamma_grid
        assert g[0] == -geom.gamma_max and g[-1] == geom.gamma_max
        b = w.beta_grid
        assert b[0] == 0.0 and b[-1] < geom.beta_span

    def test_empty_fan_sinogram_rejected(self):
        with pytest.raises(ValueError):
            LinearFanSinogram(np.zeros((0, 8)), make_fan_geometry(10.0))

    def test_polar_spectrum_grids(self):
        spec = PolarSpectrum(np.zeros((8, 5), dtype=complex), sigma_max=4.0)
        np.testing.assert_allclose(spec.sigma_grid, [0, 1, 2, 3, 4])
        assert spec.theta_grid[-1] < 2 * math.pi
        with pytest.raises(ValueError):
            PolarSpectrum(np.zeros((8, 5), dtype=complex), sigma_max=0.0)


@pytest.mark.parametrize("detector", [STANDARD, LINEAR], ids=lambda det: det.name)
def test_fan_detector_maps_consistent(detector):
    geom = make_fan_geometry(10.0)
    h = detector.half_width(geom)
    lo, hi = detector.half_width_range
    assert lo < h < hi
    assert detector.d_of_half_width(h) == pytest.approx(geom.d, rel=1e-14)
    # the edge of the detector sees the edge of the unit disk
    assert detector.t(h, geom.d) == pytest.approx(1.0, rel=1e-14)
    det = np.linspace(-h, h, 9)
    t = detector.t(det, geom.d)
    np.testing.assert_allclose(detector.det_of_t(t, geom.d), det, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(detector.angle(det, geom.d), np.arcsin(t / geom.d), rtol=1e-14, atol=1e-15)
