"""The CLI's chunked CSV writer writes the bytes of the per-row loops in
``csv_oracle``: for awkward floats, at every chunk boundary, to a file and to
stdout, and through every command that writes a CSV."""

import io

import numpy as np
import pytest

import csv_oracle as oracle
from dict_oracle import radii_and_volumes
from wavedens import __version__, cli
from wavedens.cli import main, read_points_csv
from wavedens.estimator import EstimatorConfig, fit_model, model_from_file
from wavedens.metrics import GridSpec, grid_eval
from wavedens.wavelets import build_family

CHUNK = cli._CSV_CHUNK_ROWS
ROW_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]

# zeros of both signs, the smallest subnormal, exponents where repr switches
# between positional and scientific notation, and the floats around 1e16
AWKWARD = [
    -0.0, 0.0, 5e-324, 1e-300, 1e-5, 1e-4, 0.1, 1e16, 9999999999999998.0, 1e17,
    -5e-324, -1e-5, -0.1, -9999999999999998.0, -1e17, 1.0 / 3.0, -2.5,
]


def awkward_columns(rng, rows, count):
    """``count`` float columns of ``rows`` values drawn from ``AWKWARD``
    and from a scale-spread random sample."""
    pool = np.concatenate([AWKWARD, rng.standard_normal(64) * 10.0 ** rng.integers(-20, 20, 64)])
    return [rng.choice(pool, size=rows) for _ in range(count)]


def column_slices(columns):
    """The writer's ``columns(start, stop)`` for whole arrays."""
    return lambda start, stop: [col[start:stop] for col in columns]


def cli_bytes(write, target, tmp_path, capsys):
    """The bytes that ``write(path)`` puts in a file, or on stdout."""
    if target == "file":
        path = tmp_path / "out.csv"
        write(str(path))
        return path.read_bytes()
    capsys.readouterr()
    write(None)
    return capsys.readouterr().out.encode("utf-8")


def oracle_bytes(write):
    handle = io.StringIO()
    write(handle)
    return handle.getvalue().encode("utf-8")


@pytest.mark.parametrize("target", ["file", "stdout"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_field_rows_match_the_row_loop(rows, d, target, tmp_path, capsys):
    rng = np.random.default_rng(1000 * rows + d)
    centers = np.column_stack(awkward_columns(rng, rows, d))
    values = awkward_columns(rng, rows, 2)
    head = ["# wavedens test; model=m.json", "x1,g,f"]
    got = cli_bytes(
        lambda path: cli._write_csv(path, head, rows, column_slices([*centers.T, *values])),
        target, tmp_path, capsys,
    )
    assert got == oracle_bytes(lambda h: oracle.field_csv(h, centers, values, head[1], head[0]))


@pytest.mark.parametrize("target", ["file", "stdout"])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_integer_index_column_matches_the_row_loop(rows, target, tmp_path, capsys):
    rng = np.random.default_rng(rows)
    radii, volumes = awkward_columns(rng, rows, 2)
    head = ["# wavedens test; k=3", "index,radius,volume"]
    got = cli_bytes(
        lambda path: cli._write_csv(path, head, rows, column_slices([np.arange(rows), radii, volumes])),
        target, tmp_path, capsys,
    )
    assert got == oracle_bytes(lambda h: oracle.knn_audit(h, radii, volumes, head[0]))


@pytest.mark.parametrize("resolution", [4, 10])
@pytest.mark.parametrize("order", range(1, 11))
def test_wavelet_table_bytes(order, resolution, tmp_path):
    out = tmp_path / "table.csv"
    argv = ["wavelet-table", "--wavelet", f"db{order}", "--resolution", str(resolution)]
    assert main(argv + ["-o", str(out)]) == 0
    head = f"# wavedens {__version__} wavelet-table db{order} r={resolution}"
    assert out.read_bytes() == oracle_bytes(
        lambda h: oracle.wavelet_table(h, build_family(order, resolution), head)
    )


@pytest.fixture()
def points_csv(tmp_path):
    rng = np.random.default_rng(20240901)
    path = tmp_path / "pts.csv"
    rows = rng.beta(2, 3, (2 * CHUNK + 3, 2)).tolist()
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    return path


def test_knn_audit_bytes(points_csv, tmp_path):
    out = tmp_path / "knn.csv"
    assert main(["check", "knn", str(points_csv), "--k", "3", "-o", str(out)]) == 0
    radii, volumes = radii_and_volumes(read_points_csv(points_csv), 3)
    head = f"# wavedens {__version__} check knn; k=3"
    assert out.read_bytes() == oracle_bytes(lambda h: oracle.knn_audit(h, radii, volumes, head))


def test_fit_grid_bytes(points_csv, tmp_path):
    grid_csv = tmp_path / "grid.csv"
    assert main([
        "fit", str(points_csv), "-o", str(tmp_path / "m.json"), "--wavelet", "db2",
        "--J", "1", "--grid", "16", "--grid-output", str(grid_csv), "--seed", "7",
    ]) == 0
    model = fit_model(read_points_csv(points_csv), EstimatorConfig(wavelet_order=2, j0=0, J=1, k=1))
    grid = GridSpec.unit(2, 16)
    values = grid_eval(model, grid).values.ravel()
    expected = oracle_bytes(lambda h: oracle.field_csv(
        h, grid.cell_centers(), [values], "x1,x2,density",
        f"# wavedens {__version__} fit grid; seed=7",
    ))
    assert grid_csv.read_bytes() == expected


@pytest.mark.parametrize("target", ["file", "stdout"])
@pytest.mark.parametrize("grid", [None, 8])
def test_eval_bytes(points_csv, grid, target, tmp_path, capsys):
    model_json = tmp_path / "m.json"
    assert main(["fit", str(points_csv), "-o", str(model_json), "--wavelet", "db2", "--J", "1"]) == 0
    source = ["--grid", str(grid)] if grid else [str(points_csv)]

    def write(path):
        assert main(["eval", str(model_json), *source] + (["-o", path] if path else [])) == 0

    got = cli_bytes(write, target, tmp_path, capsys)
    model, _ = model_from_file(model_json)
    pts = GridSpec.unit(2, grid).cell_centers() if grid else read_points_csv(points_csv)
    g = model.reconstruct(pts)
    expected = oracle_bytes(lambda h: oracle.field_csv(
        h, pts, [g, model._density_from(g)], "x1,x2,g,f",
        f"# wavedens {__version__} eval; model={model_json}",
    ))
    assert got == expected
