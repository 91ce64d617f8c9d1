"""Shared bilinear sampling helpers.

The rebinning operators sample 2-D grids at scattered points with
bilinear weights.  Samples outside the grid evaluate to zero (compactly
supported data).  A tiny index-space tolerance keeps samples computed
through different floating-point paths from falling off an inclusive
boundary; the polar resampling in ``bst`` shares it.
"""

from __future__ import annotations

import numpy as np

_EDGE_TOL = 1e-9


def bilinear(grid: np.ndarray, u, v):
    """Sample ``grid`` at fractional indices (u=row, v=col), zero outside."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nr, nc = grid.shape
    inside = (u >= -_EDGE_TOL) & (u <= nr - 1.0 + _EDGE_TOL) & (v >= -_EDGE_TOL) & (v <= nc - 1.0 + _EDGE_TOL)
    uc = np.clip(u, 0.0, nr - 1.0)
    vc = np.clip(v, 0.0, nc - 1.0)
    i0 = np.minimum(uc.astype(np.intp), nr - 2) if nr > 1 else np.zeros_like(uc, dtype=np.intp)
    j0 = np.minimum(vc.astype(np.intp), nc - 2) if nc > 1 else np.zeros_like(vc, dtype=np.intp)
    fu = uc - i0
    fv = vc - j0
    out = (
        grid[i0, j0] * (1.0 - fu) * (1.0 - fv)
        + grid[i0 + 1, j0] * fu * (1.0 - fv)
        + grid[i0, j0 + 1] * (1.0 - fu) * fv
        + grid[i0 + 1, j0 + 1] * fu * fv
    )
    return np.where(inside, out, 0.0)


def interp_or_zero(x, xp_start: float, xp_step: float, fp: np.ndarray):
    """1-D linear interpolation on a uniform grid, zero outside its span."""
    u = (np.asarray(x, dtype=np.float64) - xp_start) / xp_step
    n = fp.shape[-1]
    inside = (u >= -_EDGE_TOL) & (u <= n - 1.0 + _EDGE_TOL)
    uc = np.clip(u, 0.0, n - 1.0)
    i0 = np.minimum(uc.astype(np.intp), n - 2)
    fu = uc - i0
    out = fp[..., i0] * (1.0 - fu) + fp[..., i0 + 1] * fu
    return np.where(inside, out, 0.0)
