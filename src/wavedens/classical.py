"""Classical linear wavelet density estimator, the benchmark baseline.

Coefficients are plain empirical averages of the basis functions over the
sample; the reconstruction is linear in the coefficients and may therefore
go negative.  A simple rescaling by the grid-integrated mass restores unit
integral.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DegenerateModelError, EstimationError
from .estimator import (
    CoefficientSet,
    DensityModel,
    EstimatorConfig,
    _check_in_unit_cube,
    _coefficient_sums,
)
from .metrics import GridSpec, grid_eval, mass
from .neighbors import as_points


def classical_coefficients(points, config: EstimatorConfig) -> CoefficientSet:
    """Empirical-average coefficients over the same translate enumeration as
    the shape-preserving estimator."""
    pts = as_points(points)
    n, d = pts.shape
    if n < 1:
        raise EstimationError("need at least one point")
    _check_in_unit_cube(pts)
    # a read-only row of ones that holds no per-point memory
    sums = _coefficient_sums(pts, np.broadcast_to(1.0, (1, n)), config)[0]
    return CoefficientSet(
        blocks={key: (zmin, dense / n) for key, (zmin, dense) in sums.items()},
        d=d,
        n=n,
        k=config.k,
        j0=config.j0,
        J=config.J,
        wavelet_order=config.wavelet_order,
        normalized=False,
        kind="classical",
    )


def fit_classical(points, config: EstimatorConfig) -> DensityModel:
    return DensityModel(classical_coefficients(points, config))


def rescale_classical(model: DensityModel, grid: GridSpec) -> DensityModel:
    """Divide the density by its grid-integrated mass.

    The estimator is linear, so this amounts to dividing every coefficient;
    the grid used is the caller's responsibility to record.
    """
    total = mass(grid_eval(model, grid))
    if total <= 0.0:
        raise DegenerateModelError(f"grid-integrated mass {total} is not positive")
    blocks = {key: (zmin, dense / total) for key, (zmin, dense) in model.coefficients.blocks.items()}
    coeffs = dataclasses.replace(model.coefficients, blocks=blocks, normalized=True)
    return DensityModel(coeffs)
