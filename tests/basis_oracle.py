"""The scalar basis, kept as a test oracle for the vectorized evaluation.

The package evaluates the father and mother through table lookups at
snapped coordinates (``DensityModel.reconstruct``, ``reconstruct_on_axes``)
and filters one axis at a time (``_axis_step``).  These are the scalar
definitions the paper reasons with: the father and mother at a point, the
tensor-product basis function phi/psi^(q)_{j,z}(x), the translates whose
support holds a point, and the d-variate two-scale filters.  They are the
forms the package once exported, with the same arithmetic; the tests check
the vectorized paths against them.
"""

import itertools
import math

import numpy as np

from wavedens.wavelets import BasisIndex, WaveletFamily, _table_at


def father_at(family: WaveletFamily, x) -> np.ndarray | float:
    """Father function value(s) at x; zero outside [0, 2p-1]."""
    return _table_at(family.father_table, family.dyadic_resolution, family.support_length, x)


def mother_at(family: WaveletFamily, x) -> np.ndarray | float:
    """Mother function value(s) at x; zero outside [0, 2p-1]."""
    return _table_at(family.mother_table, family.dyadic_resolution, family.support_length, x)


def tensor_basis_at(family: WaveletFamily, index: BasisIndex, x) -> float:
    """Evaluate the tensor-product basis function phi/psi^(q)_{j,z} at a point.

    Returns 2**(d*j/2) * prod_a u_a(2**j x_a - z_a) with u_a the father when
    bit a of the orientation is 0 and the mother when it is 1.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.asarray(index.translate, dtype=float)
    d = z.size
    if xa.size != d:
        raise ValueError(f"point dimension {xa.size} does not match index dimension {d}")
    if not 0 <= index.orientation < (1 << d):
        raise ValueError(f"orientation {index.orientation} out of range for d={d}")
    args = np.ldexp(xa, index.level) - z
    value = 2.0 ** (d * index.level / 2.0)
    for a in range(d):
        if (index.orientation >> a) & 1:
            value *= mother_at(family, args[a])
        else:
            value *= father_at(family, args[a])
    return float(value)


def supported_translates(family: WaveletFamily, j: int, x, d: int) -> list[tuple[int, ...]]:
    """Integer translates z whose level-j basis support contains the point.

    Per axis these are the 2p-1 (or fewer) integers with 2**j x - z inside
    the open support (0, 2p-1).  For the Haar family the left endpoint is
    included as well, since its father does not vanish there; this keeps the
    list free of false negatives at lattice points.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if xa.size != d:
        raise ValueError(f"point dimension {xa.size} does not match d={d}")
    width = family.support_length
    per_axis = []
    for a in range(d):
        t = math.ldexp(float(xa[a]), j)
        top = math.floor(t)
        lo = top - (width - 1)
        if t == top and family.order > 1:
            top -= 1  # father vanishes at 0 for p >= 2
        per_axis.append(range(lo, top + 1))
    return list(itertools.product(*per_axis))


def refinement_coefficients(
    family: WaveletFamily, d: int, q: int
) -> dict[tuple[int, ...], float]:
    """Two-scale coefficients c_k of the orientation-q tensor basis.

    With the 2**(d*j/2) normalization the d-variate relation is
    u^(q)_{j,z} = sum_k c_k phi_{j+1, 2z+k}, where c_k is the plain tensor
    product over axes of the low-pass (bit 0) / high-pass (bit 1) filters.
    """
    if not 0 <= q < (1 << d):
        raise ValueError(f"orientation {q} out of range for d={d}")
    filters = [family.highpass if (q >> a) & 1 else family.lowpass for a in range(d)]
    return {
        key: math.prod((filters[a][k] for a, k in enumerate(key)), start=1.0)
        for key in itertools.product(range(len(filters[0])), repeat=d)
    }
