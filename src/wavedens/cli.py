"""Command-line interface.

Subcommands: fit, eval, bench, check, wavelet-table.  Exit codes: 0 success,
1 usage, 2 data error (a missing or unwritable file included), 3 numeric or
degenerate error.  Diagnostics go to stderr; data goes to the requested
files or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import warnings
from itertools import chain

import numpy as np

from . import __version__
from .classical import fit_classical, rescale_classical
from .errors import DataError, DegenerateModelError, KConsistencyWarning, WavedensError
from .estimator import (
    EstimatorConfig,
    fit_model,
    model_from_file,
    rescale_to_domain,
    write_coefficients,
    AffineMap,
)
from .metrics import GridSpec, grid_eval, point_chunks
from .neighbors import knn_stats, unit_ball_volume, validate_k
from .simulation import (
    BenchmarkConfig,
    exp_law_check,
    ks_exponential,
    moment_identity_check,
    run_benchmark,
    software_versions,
)
from .wavelets import MAX_ORDER, RESOLUTIONS, _filter_errors, build_family, cached_family

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3

# rows the CSV writer formats with one `%` and the CSV reader parses into one
# array; bounds the text and the Python lists held at once
_CSV_CHUNK_ROWS = 1024


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_wavelet(text: str) -> int:
    raw = text.lower().removeprefix("db")
    try:
        order = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse wavelet order from {text!r}")
    if not 1 <= order <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"wavelet order {order} outside 1..{MAX_ORDER}")
    return order


def _parse_resolution(text: str) -> int:
    resolution = int(text)
    if resolution not in RESOLUTIONS:
        raise argparse.ArgumentTypeError(f"resolution {resolution} outside {RESOLUTIONS[0]}..{RESOLUTIONS[-1]}")
    return resolution


def _parse_pad(text: str) -> float:
    try:
        pad = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse padding from {text!r}")
    if not 0.0 <= pad < math.inf:
        raise argparse.ArgumentTypeError(f"padding must be a finite number >= 0, got {text!r}")
    return pad


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def read_points_csv(path, dim: int | None = None) -> np.ndarray:
    """Read an (n, d) point CSV: comma separated, '.' decimal, optional
    single header line, '#' comment lines allowed.  Parsed rows become an
    array every ``_CSV_CHUNK_ROWS`` rows, so the Python lists held at once
    stay bounded."""
    rows = []
    arrays = []
    d = dim
    first = True
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split(",")
            try:
                values = [float(fld) for fld in fields]
            except ValueError:
                if first:
                    # a non-numeric first line is the header
                    first = False
                    if d is None:
                        d = len(fields)
                    continue
                raise DataError(f"{path}: line {lineno}: cannot parse row {text!r}")
            first = False
            if d is None:
                d = len(values)
            if len(values) != d:
                raise DataError(
                    f"{path}: line {lineno}: expected {d} columns, got {len(values)}"
                )
            rows.append(values)
            if len(rows) == _CSV_CHUNK_ROWS:
                arrays.append(np.array(rows, dtype=float))
                rows = []
    if rows:
        arrays.append(np.array(rows, dtype=float))
    if not arrays:
        raise DataError(f"{path}: no data rows")
    return np.concatenate(arrays)


def _provenance(args, seed=None) -> dict:
    flags = {key: val for key, val in vars(args).items() if key != "func"}
    return {**software_versions(), "flags": flags, "seed": seed}


def _write_csv(path, head_lines, rows, columns):
    """Write ``head_lines``, then ``rows`` rows to ``path``, or to stdout
    (left open) when no path is given.  ``columns(start, stop)`` gives the
    equal-length 1-D columns of rows [start, stop); the writer asks for one
    chunk of rows at a time, so only that chunk's columns need exist.
    Each value is its Python ``repr`` (``%r``): the shortest round trip of a
    float, the digits of an int.  A chunk is formatted by one ``%``."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as handle:
        for line in head_lines:
            handle.write(line + "\n")
        for start in range(0, rows, _CSV_CHUNK_ROWS):
            chunk = [col.tolist() for col in columns(start, min(start + _CSV_CHUNK_ROWS, rows))]
            row = ",".join(["%r"] * len(chunk)) + "\n"
            handle.write(row * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    points = read_points_csv(args.points, args.dim)
    affine = None
    if args.rescale:
        points, affine = rescale_to_domain(points, padding=args.pad)
    n = points.shape[0]
    if args.k >= n:
        raise DataError(f"k={args.k} needs at least k+1 points, got {n}")
    verdict = validate_k(n, args.k)
    if not verdict.ok:
        print(f"warning: {verdict.message}", file=sys.stderr)
    rescale_on_grid = args.estimator == "classical" and not args.no_normalize
    # made before the fit, so that a grid past the budget writes no file
    grid = None
    if args.grid is not None or rescale_on_grid:
        grid = GridSpec.unit(points.shape[1], 128 if args.grid is None else args.grid)
    config = EstimatorConfig(
        wavelet_order=args.wavelet,
        j0=args.j0,
        J=args.J,
        k=args.k,
        normalize=not args.no_normalize,
        threshold_constant=args.threshold,
    )
    with warnings.catch_warnings():
        # the k verdict was printed above
        warnings.simplefilter("ignore", KConsistencyWarning)
        if args.estimator == "classical":
            model = fit_classical(points, config)
            if rescale_on_grid:
                model = rescale_classical(model, grid)
        else:
            model = fit_model(points, config)
    write_coefficients(
        args.output,
        model.coefficients,
        domain=np.column_stack([np.zeros(points.shape[1]), np.ones(points.shape[1])]),
        affine=affine,
        provenance=_provenance(args, args.seed),
    )
    nonzeros = sum(np.count_nonzero(dense) for _, dense in model.coefficients.blocks.values())
    print(f"wrote {args.output} ({nonzeros} coefficients)", file=sys.stderr)
    if args.grid is not None:
        values = grid_eval(model, grid).values.ravel()
        out = args.grid_output or args.output.rsplit(".", 1)[0] + ".grid.csv"
        header = ",".join(f"x{a + 1}" for a in range(grid.d)) + ",density"
        _write_csv(
            out, [f"# wavedens {__version__} fit grid; seed={args.seed}", header], grid.cells,
            lambda start, stop: [*grid.cell_centers(start, stop).T, values[start:stop]],
        )
        print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    if args.points is not None and args.grid is not None:
        print("error: eval takes a points CSV or --grid R, not both", file=sys.stderr)
        return USAGE_EXIT
    model, extras = model_from_file(args.coefficients)
    affine = None
    if "affine" in extras and args.data_coords:
        aff = extras["affine"]
        affine = AffineMap(
            scale=np.asarray(aff["scale"], dtype=float),
            offset=np.asarray(aff["offset"], dtype=float),
        )
    forward = (lambda x: x) if affine is None else affine.forward
    # coords(start, stop) gives the rows [start, stop) of the points, or the
    # centers of those grid cells; g is held for every row, a grid's centers
    # only a chunk at a time
    if args.points is not None:
        pts = read_points_csv(args.points, model.d)
        rows, coords = len(pts), lambda start, stop: pts[start:stop]
        g_vals = model.reconstruct(forward(pts))
    elif args.grid is not None:
        box = np.asarray(extras.get("domain", [[0.0, 1.0]] * model.d), dtype=float)
        if affine is not None:
            # the model's domain, mapped back onto the data's box
            box = affine.inverse(box.T).T
        grid = GridSpec.from_box(box, args.grid)
        rows, coords = grid.cells, grid.cell_centers
        g_vals = grid_eval(lambda x: model.reconstruct(forward(x)), grid).values.ravel()
    else:
        raise DataError("need a points CSV or --grid R")

    def f_vals(start, stop):
        f = model._density_from(g_vals[start:stop])
        return f if affine is None else f * affine.jacobian

    nonfinite = sum(np.count_nonzero(~np.isfinite(f_vals(*chunk))) for chunk in point_chunks(rows, model.d))
    if nonfinite:
        raise DegenerateModelError(
            f"{args.coefficients}: the density is not finite at {nonfinite} of {rows} points"
        )
    header = ",".join(f"x{a + 1}" for a in range(model.d)) + ",g,f"
    _write_csv(
        args.output, [f"# wavedens {__version__} eval; model={args.coefficients}", header], rows,
        lambda start, stop: [*coords(start, stop).T, g_vals[start:stop], f_vals(start, stop)],
    )
    if args.output:
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    config = BenchmarkConfig.from_json(args.config)
    report = run_benchmark(config, workers=args.threads)
    report.write_json(args.output)
    csv_path = args.csv or args.output.rsplit(".", 1)[0] + ".csv"
    report.write_csv(csv_path)
    print(f"wrote {args.output} and {csv_path}", file=sys.stderr)
    if report.failed:
        failed = [row for row in report.rows if row.error is not None]
        print(f"{len(failed)} rows failed (first: {failed[0].error})", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


def _check_line(ok: bool, name: str, value, tolerance) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: value={value:.6g} tolerance={tolerance:g}")
    return ok


def _suite_wavelet() -> bool:
    ok = True
    for order in (1, 2, 3, 6, 7):
        fam = cached_family(order, 10)
        r = fam.dyadic_resolution
        step = 2.0 ** -r
        tab = fam.father_table
        sum_error, lag_errors = _filter_errors(fam.lowpass)
        ok &= _check_line(sum_error < 1e-12, f"db{order}/filter-sum", sum_error, 1e-12)
        orth = max(lag_errors)
        ok &= _check_line(orth < 1e-12, f"db{order}/filter-orthonormality", orth, 1e-12)
        cells = 1 << r
        pou = np.zeros(cells)
        for z in range(fam.support_length):
            pou += tab[z * cells : z * cells + cells]
        pou_err = float(np.max(np.abs(pou - 1.0)))
        ok &= _check_line(pou_err < 1e-8, f"db{order}/partition-of-unity", pou_err, 1e-8)
        int_phi = float(tab[:-1].sum() * step)
        int_phi2 = float((tab[:-1] ** 2).sum() * step)
        ok &= _check_line(abs(int_phi - 1) < 5e-4, f"db{order}/integral-phi", abs(int_phi - 1), 5e-4)
        ok &= _check_line(abs(int_phi2 - 1) < 5e-4, f"db{order}/integral-phi-squared", abs(int_phi2 - 1), 5e-4)
        x = np.arange(tab.size - 1) * step
        moments = max(
            abs(float((x**j * fam.mother_table[:-1]).sum() * step)) for j in range(order)
        )
        ok &= _check_line(moments < 1e-6, f"db{order}/vanishing-moments", moments, 1e-6)
    return bool(ok)


def _largest_block_gap(a: dict, b: dict) -> float:
    """Largest |a - b| between two block maps, taken over the union box of
    each (j, q) block; a missing block or cell counts as 0."""
    worst = 0.0
    for key in a.keys() | b.keys():
        parts = [(sign, *blocks[key]) for sign, blocks in ((1.0, a), (-1.0, b)) if key in blocks]
        lo = np.min([zmin for _, zmin, _ in parts], axis=0)
        hi = np.max([zmin + dense.shape for _, zmin, dense in parts], axis=0)
        diff = np.zeros(tuple(hi - lo))
        for sign, zmin, dense in parts:
            diff[tuple(slice(s, s + n) for s, n in zip(zmin - lo, dense.shape))] += sign * dense
        worst = max(worst, float(np.abs(diff).max()))
    return worst


def _suite_dilation(seed: int) -> bool:
    from .estimator import dilation_coefficients, estimate_coefficients

    rng = np.random.default_rng(seed)
    worst = 0.0
    for order in (2, 6):
        for _ in range(10):
            pts = rng.random((200, 2))
            direct = estimate_coefficients(pts, EstimatorConfig(wavelet_order=order, j0=2, J=2, k=1))
            # a trend-only set (J = j0 - 1) at level 3
            fine = estimate_coefficients(pts, EstimatorConfig(wavelet_order=order, j0=3, J=2, k=1))
            worst = max(worst, _largest_block_gap(direct.blocks, dilation_coefficients(fine).blocks))
    return _check_line(worst < 1e-10, "dilation/direct-vs-filtered", worst, 1e-10)


def _suite_moment_identity(seed: int) -> bool:
    from scipy.special import gammaln

    ok = True
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(101,))))
    half = moment_identity_check(0.5, 1, 1024, 200, rng)
    ok &= _check_line(abs(half.empirical - 1.0) < 0.05, "moment-identity/a-half-k1", half.empirical - 1.0, 0.05)
    print(f"     z-score {half.z_score:.2f} (boundary bias excluded from the SE)")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(102,))))
    one = moment_identity_check(1.0, 1, 1024, 200, rng)
    ok &= _check_line(abs(one.empirical - 1.0) < 0.05, "moment-identity/a-one-k1", one.empirical - 1.0, 0.05)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(103,))))
    two = moment_identity_check(1.0, 2, 1024, 200, rng)
    raw1 = one.empirical * math.exp(gammaln(2.0) - gammaln(1.0))
    raw2 = two.empirical * math.exp(gammaln(3.0) - gammaln(2.0))
    ratio = raw2 / raw1
    ok &= _check_line(abs(ratio - 2.0) < 0.2, "moment-identity/k2-over-k1-ratio", ratio, 0.2)
    return bool(ok)


def _suite_exp_law(seed: int) -> bool:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(201,))))
    ks = exp_law_check(4096, 50, rng)
    ok = _check_line(ks < 0.03, "exp-law/ks-n4096", ks, 0.03)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(202,))))
    synthetic = rng.exponential(size=50_000)
    ks_self = ks_exponential(synthetic)
    crit = 1.358 / np.sqrt(synthetic.size)
    ok &= _check_line(ks_self < crit, "exp-law/ks-self-test", ks_self, crit)
    return bool(ok)


def cmd_check(args) -> int:
    if args.suite == "knn":
        if args.points is None:
            print("error: check knn needs a points CSV", file=sys.stderr)
            return USAGE_EXIT
        return _knn_audit(args)
    stochastic = {"dilation", "moment-identity", "exp-law"}
    suites = [args.suite] if args.suite != "all" else ["wavelet", "dilation", "moment-identity", "exp-law"]
    if any(s in stochastic for s in suites) and args.seed is None:
        print("error: --seed is required for stochastic check suites", file=sys.stderr)
        return USAGE_EXIT
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KConsistencyWarning)
        for suite in suites:
            if suite == "wavelet":
                ok &= _suite_wavelet()
            elif suite == "dilation":
                ok &= _suite_dilation(args.seed)
            elif suite == "moment-identity":
                ok &= _suite_moment_identity(args.seed)
            elif suite == "exp-law":
                ok &= _suite_exp_law(args.seed)
    return 0 if ok else NUMERIC_EXIT


def cmd_wavelet_table(args) -> int:
    family = build_family(args.wavelet, args.resolution)
    step = 2.0 ** -family.dyadic_resolution
    _write_csv(
        args.output,
        [f"# wavedens {__version__} wavelet-table db{args.wavelet} r={args.resolution}", "x,phi,psi"],
        family.father_table.size,
        lambda start, stop: [
            np.arange(start, stop) * step, family.father_table[start:stop], family.mother_table[start:stop]
        ],
    )
    return 0


def _knn_audit(args) -> int:
    points = read_points_csv(args.points, args.dim)
    n, d = points.shape
    if not 1 <= args.k <= n - 1:
        raise DataError(f"k must satisfy 1 <= k <= n - 1, got k={args.k}, n={n}")
    (radii,) = knn_stats(points, [args.k])
    volumes = unit_ball_volume(d) * radii**d
    _write_csv(
        args.output,
        [f"# wavedens {__version__} check knn; k={args.k}", "index,radius,volume"],
        n,
        lambda start, stop: [np.arange(start, stop), radii[start:stop], volumes[start:stop]],
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wavedens", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wavedens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a density model to a point CSV")
    fit.add_argument("points", help="CSV of n rows x d float columns")
    fit.add_argument("-o", "--output", required=True, help="coefficient JSON to write")
    fit.add_argument("--wavelet", type=_parse_wavelet, default=6, metavar="dbP")
    fit.add_argument("--j0", type=int, default=0)
    fit.add_argument("--J", type=int, required=True)
    fit.add_argument("--k", type=int, default=1)
    fit.add_argument("--threshold", type=float, default=None, metavar="C")
    fit.add_argument("--no-normalize", action="store_true")
    fit.add_argument("--rescale", action="store_true", help="map the data box to the unit cube")
    fit.add_argument("--pad", type=_parse_pad, default=0.0, help="padding fraction for --rescale")
    fit.add_argument("--dim", type=int, default=None, help="number of columns when there is no header")
    fit.add_argument("--grid", type=int, default=None, metavar="R", help="also write an R^d density grid")
    fit.add_argument("--grid-output", default=None)
    fit.add_argument("--estimator", choices=["shape-preserving", "classical"], default="shape-preserving")
    fit.add_argument("--seed", type=int, default=None, help="recorded in provenance")
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="evaluate a coefficient file at points or on a grid")
    ev.add_argument("coefficients", help="coefficient JSON from fit")
    ev.add_argument("points", nargs="?", default=None, help="CSV of evaluation points")
    ev.add_argument("--grid", type=int, default=None, metavar="R")
    ev.add_argument("-o", "--output", default=None)
    ev.add_argument(
        "--data-coords", action="store_true",
        help="treat inputs as original data coordinates when the model was fit with --rescale "
        "(--grid then covers the data's box)",
    )
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="run the Monte-Carlo benchmark sweep")
    bench.add_argument("config", help="benchmark config JSON")
    bench.add_argument("-o", "--output", required=True, help="report JSON to write")
    bench.add_argument("--csv", default=None, help="report CSV (default: next to the JSON)")
    bench.add_argument("--threads", type=_positive_int, default=1)
    bench.set_defaults(func=cmd_bench)

    check = sub.add_parser("check", help="run statistical and numerical oracle suites")
    check.add_argument(
        "suite", choices=["wavelet", "dilation", "moment-identity", "exp-law", "knn", "all"]
    )
    check.add_argument("points", nargs="?", default=None, help="point CSV (knn suite only)")
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--k", type=int, default=1, help="neighbour order (knn suite)")
    check.add_argument("--dim", type=int, default=None)
    check.add_argument("-o", "--output", default=None, help="audit CSV (knn suite)")
    check.set_defaults(func=cmd_check)

    table = sub.add_parser("wavelet-table", help="dump (x, phi, psi) at the dyadic grid as CSV")
    table.add_argument("--wavelet", type=_parse_wavelet, default=6, metavar="dbP")
    table.add_argument("--resolution", type=_parse_resolution, default=10)
    table.add_argument("-o", "--output", default=None)
    table.set_defaults(func=cmd_wavelet_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        # a missing, unreadable or unwritable file is a data error
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except WavedensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
