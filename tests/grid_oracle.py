"""Whole-grid evaluation of callables, kept as a test oracle for the chunked
grid walk.

Before grids were walked a chunk of cells at a time, a callable density was
evaluated on the (R^d, d) array of every cell center at once, and so was the
mixture normalizer's 1024^d quadrature.  These are those forms, with the same
arithmetic; the chunked walk must reproduce their values bit for bit.
"""

import numpy as np

from wavedens.metrics import GridSpec
from wavedens.simulation import _NORMALIZER_RESOLUTION, _raw_mixture_pdf, density_pdf


def normalizer(spec) -> float:
    """The mixture's mass on its box, by midpoint quadrature over all cells."""
    grid = GridSpec.from_box(spec.domain, _NORMALIZER_RESOLUTION)
    values = _raw_mixture_pdf(spec.weights, spec.means, spec.covariances, grid.cell_centers())
    return float(values.sum() * grid.cell_volume)


def true_density_values(spec, grid: GridSpec) -> np.ndarray:
    """The truncated-mixture density at every cell center, in grid shape."""
    values = np.asarray(density_pdf(spec, grid.cell_centers()), dtype=float)
    return values.reshape((grid.resolution,) * grid.d)
