"""The table lookup as one expression, kept as a test oracle.

Before ``wavelets._table_at`` interpolated in place, it evaluated the
expression below, with a fresh array for every step.  The in-place form
performs the same IEEE operations in the same order, so it must reproduce
these values bit for bit, the sign of zero included.
"""

import numpy as np


def table_at(table, resolution, width, x):
    xa = np.asarray(x, dtype=float)
    pos = xa * (1 << resolution)
    inside = (xa >= 0.0) & (xa <= width)
    pos = np.where(inside, pos, 0.0)
    i0 = np.floor(pos).astype(np.int64)
    i0 = np.minimum(i0, table.size - 2)
    frac = pos - i0
    out = np.where(inside, table[i0] * (1.0 - frac) + table[i0 + 1] * frac, 0.0)
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out
