"""Grid evaluation and integrated-squared-error diagnostics.

Integrals are approximated by midpoint Riemann sums on a regular cell-center
grid; ISE compares two fields on identical grids, and MISE aggregates ISE
values over Monte-Carlo replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import DensityModel


@dataclass(frozen=True)
class GridSpec:
    """Regular cell-center grid on an axis-aligned box.

    ``box`` is a (d, 2) array of (low, high) pairs; ``resolution`` is the
    number of cells per axis.
    """

    box: tuple[tuple[float, float], ...]
    resolution: int

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("grid resolution must be >= 2")
        for lo, hi in self.box:
            if hi <= lo:
                raise ValueError("grid box has a non-positive side")

    @classmethod
    def unit(cls, d: int, resolution: int) -> "GridSpec":
        return cls(box=tuple((0.0, 1.0) for _ in range(d)), resolution=resolution)

    @classmethod
    def from_box(cls, box, resolution: int) -> "GridSpec":
        arr = np.asarray(box, dtype=float)
        return cls(box=tuple((float(lo), float(hi)) for lo, hi in arr), resolution=resolution)

    @property
    def d(self) -> int:
        return len(self.box)

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for lo, hi in self.box:
            vol *= (hi - lo) / self.resolution
        return vol

    def axes(self) -> list[np.ndarray]:
        """Cell-center coordinates along each axis."""
        out = []
        for lo, hi in self.box:
            step = (hi - lo) / self.resolution
            out.append(lo + (np.arange(self.resolution) + 0.5) * step)
        return out

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an (resolution**d, d) array in C order."""
        r, d = self.resolution, self.d
        out = np.empty((r**d, d))
        # each axis fills its column, broadcast over the other axes
        for a, axis in enumerate(self.axes()):
            out.reshape((r,) * d + (d,))[..., a] = axis.reshape((r,) + (1,) * (d - 1 - a))
        return out


@dataclass(frozen=True)
class Field:
    """Values of a function at every cell center of a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.resolution,) * self.grid.d
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expected}")


def grid_eval(density, grid: GridSpec) -> Field:
    """Evaluate a density on a grid.

    ``density`` is either a DensityModel (evaluated through the fast
    separable path) or a callable mapping an (m, d) array to (m,) values.
    """
    if isinstance(density, DensityModel):
        values = density.density_on_axes(grid.axes())
    else:
        values = np.asarray(density(grid.cell_centers()), dtype=float)
        values = values.reshape((grid.resolution,) * grid.d)
    return Field(grid=grid, values=values)


def ise(estimate: Field, truth: Field) -> float:
    """Integrated squared error between two fields on the same grid."""
    if estimate.grid != truth.grid:
        raise ValueError("fields live on different grids")
    diff = estimate.values - truth.values
    return float(estimate.grid.cell_volume * np.sum(diff * diff))


def mass(field: Field) -> float:
    """Riemann-sum integral of the field."""
    return float(field.grid.cell_volume * field.values.sum())


def negative_mass(field: Field) -> float:
    """Riemann-sum integral of the negative part; always <= 0."""
    return float(field.grid.cell_volume * np.minimum(field.values, 0.0).sum())


def mise_aggregate(ise_values) -> tuple[float, float]:
    """Mean ISE and its Monte-Carlo standard error.

    A singleton list yields a NaN standard error (flagged undefined).
    """
    vals = np.asarray(list(ise_values), dtype=float)
    if vals.size == 0:
        raise ValueError("cannot aggregate an empty ISE list")
    mean = float(vals.mean())
    if vals.size == 1:
        return mean, float("nan")
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return mean, se
