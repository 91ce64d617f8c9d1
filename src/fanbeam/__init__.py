"""Fan-beam tomographic backprojection toolkit.

Three routes compute the same fan-beam backprojection and check each
other: direct pixel-driven sums (references), rebinning adjoints feeding
the polar-frequency parallel backprojection, and a Bessel-Neumann series
evaluated straight in the polar frequency domain.
"""

from .core import (
    LINEAR,
    STANDARD,
    FanDetector,
    FanGeometry,
    FanSinogram,
    GeometryError,
    ImageGrid,
    LinearFanSinogram,
    ParallelSinogram,
    PolarSpectrum,
    StandardFanSinogram,
    image_coords,
    make_fan_geometry,
)
from .phantom import (
    Ellipse,
    analytic_radon,
    calibration_disk,
    load_ellipse_config,
    phantom_mass,
    radon_point,
    rasterize,
    rotate_ellipses,
    shepp_logan_ellipses,
)
from .forward import rebin_to_linear, rebin_to_standard, sample_parallel
from .rebinning import (
    FanSampler,
    adjoint_rebin_linear,
    adjoint_rebin_standard,
    apply_tau,
    linear_to_standard,
    linear_to_standard_adjoint,
    sample_linear_fan,
    sample_standard_fan,
    shear_to_theta,
)
from .reference import (
    backproject_linear_fan,
    backproject_parallel,
    backproject_standard_fan,
    source_position,
)
from .bst import bst_backproject, polar_to_cartesian
from .series import (
    bessel_table,
    choose_truncation,
    evaluate_series,
    fourier_coefficients_gamma,
    linear_fan_backproject,
    standard_fan_backproject,
)
from .filtering import backproject, fbp_linear_pipeline, fbp_normalization, ramp_filter
from .gridfile import GridFile, read_grid, write_grid

__version__ = "0.1.0"

__all__ = [
    "LINEAR",
    "STANDARD",
    "FanDetector",
    "FanGeometry",
    "FanSinogram",
    "GeometryError",
    "ImageGrid",
    "LinearFanSinogram",
    "ParallelSinogram",
    "PolarSpectrum",
    "StandardFanSinogram",
    "image_coords",
    "make_fan_geometry",
    "Ellipse",
    "analytic_radon",
    "calibration_disk",
    "load_ellipse_config",
    "phantom_mass",
    "radon_point",
    "rasterize",
    "rotate_ellipses",
    "shepp_logan_ellipses",
    "rebin_to_linear",
    "rebin_to_standard",
    "sample_parallel",
    "FanSampler",
    "adjoint_rebin_linear",
    "adjoint_rebin_standard",
    "apply_tau",
    "linear_to_standard",
    "linear_to_standard_adjoint",
    "sample_linear_fan",
    "sample_standard_fan",
    "shear_to_theta",
    "backproject_linear_fan",
    "backproject_parallel",
    "backproject_standard_fan",
    "source_position",
    "bst_backproject",
    "polar_to_cartesian",
    "bessel_table",
    "choose_truncation",
    "evaluate_series",
    "fourier_coefficients_gamma",
    "linear_fan_backproject",
    "standard_fan_backproject",
    "backproject",
    "fbp_linear_pipeline",
    "fbp_normalization",
    "ramp_filter",
    "GridFile",
    "read_grid",
    "write_grid",
    "__version__",
]
