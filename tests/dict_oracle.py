"""Dict-keyed coefficient operations, kept as a test oracle for the blocks.

Before coefficient sets were stored as dense per-(level, orientation) blocks,
every operation worked on a ``dict[BasisIndex, float]`` in (level,
orientation, translate) order and rebuilt dense blocks where it needed them.
These are those implementations, with the same arithmetic; the block
representation must reproduce their entries bit for bit, in the same order.
The scatter kernel and the per-axis factor matrices are shared with the
package, since the representation change does not touch them.  The level
transforms keep the d-variate tensor form, one gather or scatter over
cells x (2p)^d with filters from ``basis_oracle.refinement_coefficients``:
the dilation as the reference for the package's one-axis analysis passes, and
the synthesis (``to_single_trend``) as the tests' only source of synthesized
sets, since the package has none.
"""

import dataclasses
import json
import math

import numpy as np

from basis_oracle import refinement_coefficients
from wavedens import estimator
from wavedens.neighbors import knn_stats
from wavedens.wavelets import BasisIndex, cached_family


def sorted_entries(raw):
    return {key: raw[key] for key in sorted(raw, key=lambda b: (b.level, b.orientation, b.translate))}


def blocks_to_entries(blocks):
    raw = {}
    for (j, q), (zmin, dense) in blocks.items():
        flat = dense.ravel()
        nz = np.flatnonzero(flat)
        coords = np.unravel_index(nz, dense.shape)
        for pos, val in zip(zip(*coords), flat[nz]):
            raw[BasisIndex(j, tuple(int(zmin[a] + pos[a]) for a in range(len(pos))), q)] = float(val)
    return sorted_entries(raw)


def entries_to_blocks(entries):
    grouped = {}
    for idx, val in entries.items():
        grouped.setdefault((idx.level, idx.orientation), []).append((idx.translate, val))
    blocks = {}
    for key, items in grouped.items():
        zs = np.array([z for z, _ in items], dtype=np.int64)
        zmin = zs.min(axis=0)
        dense = np.zeros(tuple(zs.max(axis=0) - zmin + 1))
        for z, val in items:
            dense[tuple(np.asarray(z) - zmin)] = val
        blocks[key] = (zmin, dense)
    return blocks


def coefficient_set(entries, **meta):
    """The set holding the nonzero values of a BasisIndex map, its blocks
    sorted and trimmed; ``meta`` gives every other field."""
    return estimator.CoefficientSet(blocks=estimator._trimmed(entries_to_blocks(entries)), **meta)


def write_coefficients(path, coeffs, *, domain=None, affine=None, provenance=None):
    """The coefficient-file writer that walks the ``entries`` view, one
    formatted line per entry: the byte reference for the block writer."""
    head = {
        "schema_version": estimator.SCHEMA_VERSION,
        "kind": coeffs.kind,
        "d": coeffs.d,
        "n": coeffs.n,
        "k": coeffs.k,
        "j0": coeffs.j0,
        "J": coeffs.J,
        "wavelet_order": coeffs.wavelet_order,
        "dyadic_resolution": estimator.DEFAULT_RESOLUTION,
        "normalized": coeffs.normalized,
        "representation": "trend-plus-details",
    }
    if domain is not None:
        head["domain"] = np.asarray(domain, dtype=float).tolist()
    if affine is not None:
        head["affine"] = {
            "scale": affine.scale.tolist(),
            "offset": affine.offset.tolist(),
        }
    if provenance is not None:
        head["provenance"] = provenance
    text = json.dumps(head, indent=2)
    lines = []
    for key, val in coeffs.entries.items():
        z = ", ".join(str(int(c)) for c in key.translate)
        lines.append(
            f'    {{"j": {key.level}, "z": [{z}], "q": {key.orientation}, '
            f'"value": {val:.17e}}}'
        )
    body = ",\n".join(lines)
    entries_text = f'  "entries": [\n{body}\n  ]' if lines else '  "entries": []'
    document = text[:-2] + ",\n" + entries_text + "\n}\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)


def coefficient_sums(points, weights, config):
    family = cached_family(config.wavelet_order, 10)
    details = list(range(1, 1 << points.shape[1]))
    blocks = {}
    for j in range(config.j0, max(config.J, config.j0) + 1):
        qs = ([0] if j == config.j0 else []) + (details if j <= config.J else [])
        blocks.update(estimator._accumulate_level(family, points, qs, weights[None], j)[0])
    return blocks_to_entries(blocks)


def estimate(points, config):
    n = len(points)
    volumes = knn_stats(points, config.k).volumes
    weights = estimator.consistency_factor(config.k) / math.sqrt(n) * np.sqrt(volumes)
    return coefficient_sums(points, weights, config)


def classical(points, config):
    n = len(points)
    return {key: val / n for key, val in coefficient_sums(points, np.ones(n), config).items()}


def mass(entries):
    vals = np.fromiter(entries.values(), dtype=float, count=len(entries))
    return float(vals @ vals) if vals.size else 0.0


def normalize(entries):
    scale = 1.0 / math.sqrt(mass(entries))
    return {key: val * scale for key, val in entries.items()}


def soft_threshold(entries, threshold_constant, n):
    out = {}
    for key, val in entries.items():
        if key.orientation == 0:
            out[key] = val
            continue
        t_j = threshold_constant * math.sqrt(key.level + 1) / math.sqrt(n)
        shrunk = math.copysign(max(abs(val) - t_j, 0.0), val)
        if shrunk != 0.0:
            out[key] = shrunk
    return out


def truncate(entries, new_J):
    return {key: val for key, val in entries.items() if key.orientation == 0 or key.level <= new_J}


def tensor_filter(family, d, q):
    return np.fromiter(refinement_coefficients(family, d, q).values(), float)


def to_single_trend(entries, d, j0, J, family):
    taps = 2 * family.order
    blocks = entries_to_blocks(entries)
    trend = blocks.get((j0, 0))
    for j in range(j0, J + 1):
        level_blocks = [(0, trend)] if trend is not None else []
        level_blocks += [(q, blocks[(j, q)]) for q in range(1, 1 << d) if (j, q) in blocks]
        if not level_blocks:
            trend = None
            continue
        fmin = np.min([2 * zmin for _, (zmin, _) in level_blocks], axis=0)
        fmax = np.max(
            [2 * (zmin + np.array(dense.shape) - 1) + taps - 1 for _, (zmin, dense) in level_blocks],
            axis=0,
        )
        shape = tuple(fmax - fmin + 1)
        fine = np.zeros(int(np.prod(shape)))
        combos = np.indices((taps,) * d).reshape(d, -1)
        for q, (zmin, dense) in level_blocks:
            filt = tensor_filter(family, d, q)
            z_abs = np.indices(dense.shape).reshape(d, -1) + zmin[:, None]
            target = 2 * z_abs[:, :, None] + combos[:, None, :] - fmin[:, None, None]
            lin = np.ravel_multi_index(tuple(target), shape)
            np.add.at(fine, lin.ravel(), (dense.ravel()[:, None] * filt[None, :]).ravel())
        trend = (fmin, fine.reshape(shape))
    return {} if trend is None else blocks_to_entries({(J + 1, 0): trend})


def single_trend_set(coeffs):
    """The trend-only set at level J+1 (j0 = J + 1) with the reconstruction
    of ``coeffs``, synthesized by ``to_single_trend``."""
    entries = to_single_trend(coeffs.entries, coeffs.d, coeffs.j0, coeffs.J, coeffs.family)
    return dataclasses.replace(coeffs, blocks=estimator._trimmed(entries_to_blocks(entries)), j0=coeffs.J + 1)


def dilation(entries, d, J, family):
    level_fine = J + 1
    taps = 2 * family.order
    blocks = entries_to_blocks(entries)
    out_blocks = {}
    if (level_fine, 0) in blocks:
        zmin_f, dense_f = blocks[(level_fine, 0)]
        zmax_f = zmin_f + np.array(dense_f.shape) - 1
        cmin = -((-(zmin_f - (taps - 1))) // 2)
        cshape = tuple(np.maximum(zmax_f // 2 - cmin + 1, 0))
        if all(s > 0 for s in cshape):
            combos = np.indices((taps,) * d).reshape(d, -1)
            z_abs = np.indices(cshape).reshape(d, -1) + cmin[:, None]
            src = 2 * z_abs[:, :, None] + combos[:, None, :] - zmin_f[:, None, None]
            padded = np.pad(dense_f, taps)
            gathered = padded.ravel()[np.ravel_multi_index(tuple(src + taps), padded.shape)]
            for q in range(1 << d):
                coarse = gathered @ tensor_filter(family, d, q)
                out_blocks[(J, q)] = (cmin.copy(), coarse.reshape(cshape))
    return blocks_to_entries(out_blocks)


def reconstruct_on_axes(family, entries, d, axes):
    out = np.zeros(tuple(len(ax) for ax in axes))
    for (j, q), (zmin, dense) in entries_to_blocks(entries).items():
        tensor = dense
        for factor in estimator._axis_factors(family, j, q, zmin, dense.shape, axes):
            tensor = np.tensordot(tensor, factor, axes=([0], [1]))
        out += 2.0 ** (d * j / 2.0) * tensor
    return out


def rescale_classical(entries, family, d, grid):
    field = reconstruct_on_axes(family, entries, d, grid.axes())
    total = float(grid.cell_volume * field.sum())
    return {key: val / total for key, val in entries.items()}
