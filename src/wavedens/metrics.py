"""Grid evaluation and integrated-squared-error diagnostics.

Integrals are approximated by midpoint Riemann sums on a regular cell-center
grid; ISE compares two fields on identical grids, and MISE aggregates ISE
values over Monte-Carlo replications.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .estimator import _CHUNK_BYTES, _MAX_FILE_CELLS, DensityModel


@dataclass(frozen=True)
class GridSpec:
    """Regular cell-center grid on an axis-aligned box.

    ``box`` is a (d, 2) array of (low, high) pairs; ``resolution`` is the
    number of cells per axis.  A box side must be an interval lo < hi of
    finite length.  A grid of more than ``_MAX_FILE_CELLS`` cells raises
    BudgetError, before anything is allocated.
    """

    box: tuple[tuple[float, float], ...]
    resolution: int

    def __post_init__(self):
        if not isinstance(self.resolution, numbers.Integral):
            raise ValueError(f"grid resolution must be an integer, got {self.resolution!r}")
        if self.resolution < 2:
            raise ValueError("grid resolution must be >= 2")
        for lo, hi in self.box:
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValueError(f"grid box side [{lo}, {hi}] is not a finite interval")
        if self.cells > _MAX_FILE_CELLS:
            raise BudgetError(
                f"a {self.resolution}^{self.d} grid holds {self.cells} cells, past the budget of {_MAX_FILE_CELLS}"
            )

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
    def cells(self) -> int:
        return int(self.resolution) ** self.d

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for lo, hi in self.box:
            vol *= (hi - lo) / self.resolution
        return vol

    def _axis(self, a: int, first: int = 0, stop: int | None = None) -> np.ndarray:
        """Cell-center coordinates first..stop-1 along axis a."""
        lo, hi = self.box[a]
        step = (hi - lo) / self.resolution
        return lo + (np.arange(first, self.resolution if stop is None else stop) + 0.5) * step

    def axes(self) -> list[np.ndarray]:
        """Cell-center coordinates along each axis."""
        return [self._axis(a) for a in range(self.d)]

    def cell_centers(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Centers of the cells [start, stop) in C order, all of them by
        default, as a (stop - start, d) array.

        Along axis a the coordinate holds for a run of r**(d-1-a) cells and
        the r runs repeat; each column is filled run by run, or period by
        period, through reshaped views, so nothing else as large as the
        output is allocated.
        """
        r, d = self.resolution, self.d
        stop = self.cells if stop is None else stop
        out = np.empty((stop - start, d))
        for a in range(d):
            run, column, i = r ** (d - 1 - a), out[:, a], 0
            while i < len(column):
                q, off = divmod(start + i, run)
                q %= r
                left = len(column) - i
                if off or left < run:  # the rest of one run
                    m = min(run - off, left)
                    column[i : i + m] = self._axis(a, q, q + 1)
                elif q == 0 and left >= r * run:  # whole periods
                    m = left // (r * run) * r * run
                    column[i : i + m].reshape(-1, r, run)[...] = self._axis(a)[:, None]
                else:  # whole runs, up to the end of the period
                    k = min(r - q, left // run)
                    m = k * run
                    column[i : i + m].reshape(k, run)[...] = self._axis(a, q, q + k)[:, None]
                i += m
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


def point_chunks(n: int, d: int):
    """Ranges (start, stop) that walk n points (or cells) of dimension d
    whose coordinates take a sixteenth of ``_CHUNK_BYTES`` per chunk: small
    beside the scratch of the work done on them."""
    rows = max(1, _CHUNK_BYTES // (16 * 8 * d))
    return ((start, min(start + rows, n)) for start in range(0, n, rows))


def grid_eval(density, grid: GridSpec) -> Field:
    """Evaluate a density on a grid.

    ``density`` is either a DensityModel (evaluated through the fast
    separable path) or a callable mapping an (m, d) array to (m,) values,
    called on one chunk of cell centers at a time.
    """
    if isinstance(density, DensityModel):
        values = density.density_on_axes(grid.axes())
    else:
        values = np.empty(grid.cells)
        for start, stop in point_chunks(grid.cells, grid.d):
            values[start:stop] = density(grid.cell_centers(start, stop))
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
