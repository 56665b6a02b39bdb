import dataclasses
import json
import os
import platform
import warnings

import numpy as np
import pytest
import scipy

import dict_oracle as oracle
from heap import traced_peak
from wavedens import cli, estimator, metrics
from wavedens.cli import main, read_points_csv
from wavedens.errors import DataError, KConsistencyWarning
from wavedens.estimator import (
    DensityModel,
    EstimatorConfig,
    estimate_coefficients,
    fit_model,
    model_from_file,
    read_coefficients,
    write_coefficients,
)


def write_csv(path, points, header=None):
    lines = [] if header is None else [header]
    lines += [",".join(repr(float(c)) for c in row) for row in np.atleast_2d(points)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def uniform_csv(tmp_path):
    rng = np.random.default_rng(42)
    path = tmp_path / "uniform.csv"
    write_csv(path, rng.random((64, 2)), header="x,y")
    return path


class TestReadPointsCsv:
    def test_header_detected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,b\n0.1,0.2\n0.3,0.4\n")
        np.testing.assert_allclose(read_points_csv(path), [[0.1, 0.2], [0.3, 0.4]])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# provenance\n\n0.5\n0.25\n")
        np.testing.assert_allclose(read_points_csv(path), [[0.5], [0.25]])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(DataError, match="line 2"):
            read_points_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(DataError, match="line 2"):
            read_points_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# nothing\n")
        with pytest.raises(DataError):
            read_points_csv(path)

    def test_header_skipped_with_explicit_dim(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n0.1,0.2\n")
        np.testing.assert_allclose(read_points_csv(path, dim=2), [[0.1, 0.2]])

    def test_bad_row_after_a_full_chunk_reports_its_line(self, tmp_path):
        # the 1 024 rows before it already form an array: the line is still
        # no header, and it keeps its own number
        path = tmp_path / "pts.csv"
        path.write_text("# comment\n" + "".join(f"{i},0.5\n" for i in range(1024)) + "x,y\n")
        with pytest.raises(DataError, match="line 1026: cannot parse row 'x,y'"):
            read_points_csv(path)

    def test_memory_stays_near_the_array(self, tmp_path):
        # the rows become an array every 1 024 lines; 20 000 rows held as
        # Python lists took 12 times the array
        path = tmp_path / "pts.csv"
        data = np.random.default_rng(7).random((20_000, 2))
        write_csv(path, data, header="x,y")
        pts, peak = traced_peak(lambda: read_points_csv(path))
        np.testing.assert_array_equal(pts, data)
        assert peak < 4 * pts.nbytes

    @pytest.mark.parametrize("dim", [None, 2])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, dim):
        path = tmp_path / "pts.csv"
        path.write_text("\ufeff0.1,0.2\n0.3,0.4\n0.5,0.6\n", encoding="utf-8")
        np.testing.assert_array_equal(
            read_points_csv(path, dim), [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
        )


class TestFit:
    def test_hand_fixture_coefficient(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x\n0.2\n0.4\n0.7\n")
        out = tmp_path / "m.json"
        code = main([
            "fit", str(pts), "-o", str(out),
            "--wavelet", "db1", "--j0", "0", "--J", "-1", "--no-normalize",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        [entry] = doc["entries"]
        assert abs(entry["value"] - 1.32867) < 1e-5

    def test_trend_only_uniform_grid_is_one(self, uniform_csv, tmp_path):
        out = tmp_path / "m.json"
        gridout = tmp_path / "grid.csv"
        code = main([
            "fit", str(uniform_csv), "-o", str(out), "--wavelet", "1",
            "--J", "-1", "--grid", "8", "--grid-output", str(gridout),
        ])
        assert code == 0
        rows = read_points_csv(gridout)
        np.testing.assert_allclose(rows[:, 2], 1.0, atol=1e-12)

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.1,0.2\nbad,row\n")
        code = main(["fit", str(pts), "-o", str(tmp_path / "m.json"), "--J", "0"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_k_too_large_exits_2(self, tmp_path):
        pts = tmp_path / "pts.csv"
        write_csv(pts, np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]))
        code = main(["fit", str(pts), "-o", str(tmp_path / "m.json"), "--J", "0", "--k", "3"])
        assert code == 2

    def test_k_condition_warns_but_succeeds(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        pts = tmp_path / "pts.csv"
        write_csv(pts, rng.random((20, 1)))
        out = tmp_path / "m.json"
        code = main([
            "fit", str(pts), "-o", str(out), "--wavelet", "db1", "--J", "-1", "--k", "18",
        ])
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_only_the_k_warning_is_silenced(self, tmp_path, capsys, monkeypatch):
        real_fit = cli.fit_model

        def overflowing_fit(points, config):
            warnings.warn("overflow in a numpy kernel", RuntimeWarning)
            return real_fit(points, config)

        monkeypatch.setattr(cli, "fit_model", overflowing_fit)
        pts = tmp_path / "pts.csv"
        write_csv(pts, np.random.default_rng(1).random((20, 1)))
        with pytest.warns(RuntimeWarning, match="overflow") as record:
            code = main([
                "fit", str(pts), "-o", str(tmp_path / "m.json"),
                "--wavelet", "db1", "--J", "-1", "--k", "18",
            ])
        assert code == 0
        assert not any(issubclass(w.category, KConsistencyWarning) for w in record)
        assert "warning: k=18" in capsys.readouterr().err

    def test_provenance_names_library_versions(self, tmp_path, uniform_csv):
        out = tmp_path / "m.json"
        assert main(["fit", str(uniform_csv), "-o", str(out), "--J", "0", "--seed", "3"]) == 0
        prov = json.loads(out.read_text())["provenance"]
        assert prov["python"] == platform.python_version()
        assert prov["numpy"] == np.__version__
        assert prov["scipy"] == scipy.__version__
        assert prov["cores"] == os.cpu_count()
        assert prov["seed"] == 3

    def test_rescale_records_affine(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = tmp_path / "pts.csv"
        write_csv(pts, rng.normal(50.0, 4.0, size=(80, 2)))
        out = tmp_path / "m.json"
        code = main([
            "fit", str(pts), "-o", str(out), "--wavelet", "db2", "--J", "0", "--rescale",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "affine" in doc and len(doc["affine"]["scale"]) == 2

    def test_rescale_lands_every_point_in_the_cube(self, tmp_path):
        # the top of the second axis maps to 1.0000000000000002 before clipping
        raw = np.random.default_rng(0).random((500, 2))
        raw[:, 1] *= 1e6
        pts = tmp_path / "pts.csv"
        write_csv(pts, raw)
        out = tmp_path / "m.json"
        assert main(["fit", str(pts), "-o", str(out), "--wavelet", "db2", "--J", "0", "--rescale", "--pad", "0"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("pad", ["-0.6", "nan", "inf"])
    def test_bad_padding_is_a_usage_error(self, uniform_csv, tmp_path, capsys, pad):
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as info:
            main(["fit", str(uniform_csv), "-o", str(out), "--J", "0", "--rescale", "--pad", pad])
        assert info.value.code == 1
        assert f"padding must be a finite number >= 0, got '{pad}'" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["fit", "pts.csv", "-o", "m.json"])  # --J missing
        assert info.value.code == 1

    @pytest.mark.parametrize("order", ["db0", "db11"])
    def test_wavelet_order_out_of_range_is_a_usage_error(self, tmp_path, capsys, order):
        # refused at parse time, before the (missing) points file is read
        with pytest.raises(SystemExit) as info:
            main(["fit", str(tmp_path / "missing.csv"), "-o", str(tmp_path / "m.json"), "--J", "0", "--wavelet", order])
        assert info.value.code == 1
        assert f"wavelet order {order[2:]} outside 1..10" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    @pytest.mark.parametrize("command", ["fit", "check"])
    def test_dim_below_one_is_a_usage_error(self, tmp_path, capsys, command, dim):
        # refused at parse time, before the (missing) points file is read;
        # a --dim of 0 was a data error about the file's second line
        missing, out = str(tmp_path / "missing.csv"), tmp_path / "out"
        argv = {"fit": ["fit", missing, "--J", "0"], "check": ["check", "knn", missing]}[command]
        with pytest.raises(SystemExit) as info:
            main([*argv, "-o", str(out), "--dim", dim])
        assert info.value.code == 1
        assert f"must be >= 1, got {dim}" in capsys.readouterr().err
        assert not out.exists()

    def test_classical_estimator_kind(self, uniform_csv, tmp_path):
        out = tmp_path / "c.json"
        code = main([
            "fit", str(uniform_csv), "-o", str(out), "--wavelet", "db1",
            "--J", "-1", "--estimator", "classical",
        ])
        assert code == 0
        assert json.loads(out.read_text())["kind"] == "classical"

    def test_deterministic_output_bytes(self, uniform_csv, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "fit", str(uniform_csv), "-o", str(out), "--wavelet", "db2",
                "--J", "1", "--seed", "7",
            ]) == 0
        assert a.read_bytes().replace(b"a.json", b"x.json") == b.read_bytes().replace(
            b"b.json", b"x.json"
        )


class TestEval:
    @pytest.fixture()
    def model_path(self, uniform_csv, tmp_path):
        out = tmp_path / "m.json"
        main(["fit", str(uniform_csv), "-o", str(out), "--wavelet", "db2", "--J", "1"])
        return out

    def test_round_trip_matches_in_process(self, model_path, tmp_path):
        rng = np.random.default_rng(3)
        query = rng.random((25, 2))
        qpath = tmp_path / "q.csv"
        write_csv(qpath, query)
        opath = tmp_path / "vals.csv"
        assert main(["eval", str(model_path), str(qpath), "-o", str(opath)]) == 0
        rows = read_points_csv(opath)
        model, _ = model_from_file(model_path)
        np.testing.assert_array_equal(rows[:, 2], model.reconstruct(query))
        np.testing.assert_array_equal(rows[:, 3], model.density(query))

    def test_density_column_nonnegative(self, model_path, tmp_path):
        opath = tmp_path / "grid.csv"
        assert main(["eval", str(model_path), "--grid", "16", "-o", str(opath)]) == 0
        rows = read_points_csv(opath)
        assert np.all(rows[:, 3] >= 0.0)

    def test_out_of_support_point_is_zero(self, model_path, tmp_path):
        qpath = tmp_path / "far.csv"
        write_csv(qpath, np.array([[7.0, 7.0]]))
        opath = tmp_path / "vals.csv"
        assert main(["eval", str(model_path), str(qpath), "-o", str(opath)]) == 0
        rows = read_points_csv(opath)
        assert rows[0, 2] == 0.0 and rows[0, 3] == 0.0

    def test_dimension_mismatch_exits_2(self, model_path, tmp_path):
        qpath = tmp_path / "q1.csv"
        qpath.write_text("0.5\n")
        assert main(["eval", str(model_path), str(qpath)]) == 2

    def test_needs_points_or_grid(self, model_path):
        assert main(["eval", str(model_path)]) == 2

    def test_points_and_grid_together_are_a_usage_error(self, model_path, tmp_path, capsys):
        qpath = tmp_path / "q.csv"
        write_csv(qpath, np.random.default_rng(3).random((5, 2)))
        out = tmp_path / "vals.csv"
        assert main(["eval", str(model_path), str(qpath), "--grid", "4", "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_data_coords_back_transform(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = rng.normal(20.0, 3.0, size=(100, 2))
        pts = tmp_path / "pts.csv"
        write_csv(pts, raw)
        model = tmp_path / "m.json"
        main(["fit", str(pts), "-o", str(model), "--wavelet", "db2", "--J", "0", "--rescale"])
        qpath = tmp_path / "q.csv"
        write_csv(qpath, raw[:5])
        opath = tmp_path / "vals.csv"
        assert main(["eval", str(model), str(qpath), "--data-coords", "-o", str(opath)]) == 0
        rows = read_points_csv(opath)
        doc = json.loads(model.read_text())
        jac = float(np.prod(doc["affine"]["scale"]))
        loaded, _ = model_from_file(model)
        mapped = raw[:5] * np.array(doc["affine"]["scale"]) + np.array(doc["affine"]["offset"])
        np.testing.assert_allclose(rows[:, 3], loaded.density(mapped) * jac, rtol=1e-12)

    def test_data_coords_grid_covers_the_data_box(self, tmp_path):
        # boxes from 1e-6 to 1e6 wide at random offsets: the grid's cells tile
        # the data's box, and its mass in data coordinates is the model grid's
        rng = np.random.default_rng(2024)
        resolution = 16
        for span in 10.0 ** np.arange(-6, 7, 3):
            for _ in range(2):
                lo = span * rng.uniform(-10.0, 10.0, 2)
                raw = lo + span * rng.beta(2.0, 3.0, (200, 2))
                pts, model = tmp_path / "pts.csv", tmp_path / "m.json"
                write_csv(pts, raw)
                assert main(["fit", str(pts), "-o", str(model), "--wavelet", "db2", "--J", "1", "--rescale"]) == 0
                data, unit = tmp_path / "data.csv", tmp_path / "unit.csv"
                assert main(["eval", str(model), "--grid", str(resolution), "--data-coords", "-o", str(data)]) == 0
                assert main(["eval", str(model), "--grid", str(resolution), "-o", str(unit)]) == 0
                data_rows, unit_rows = read_points_csv(data), read_points_csv(unit)
                box_lo, box_hi = raw.min(axis=0), raw.max(axis=0)
                step = (box_hi - box_lo) / resolution
                coords = data_rows[:, :2]
                np.testing.assert_allclose(coords.min(axis=0) - step / 2, box_lo, rtol=0, atol=1e-12 * span)
                np.testing.assert_allclose(coords.max(axis=0) + step / 2, box_hi, rtol=0, atol=1e-12 * span)
                data_mass = data_rows[:, 3].sum() * np.prod(step)
                unit_mass = unit_rows[:, 3].sum() / resolution**2
                assert abs(data_mass - unit_mass) <= 1e-12 * unit_mass


def set_first_entry(field, value):
    def mutate(doc):
        doc["entries"][0][field] = value
    return mutate


def set_header(field, value):
    def mutate(doc):
        doc[field] = value
    return mutate


def repeat_first_entry(doc):
    doc["entries"].append({**doc["entries"][0], "value": 123.0})


def lift_last_detail(doc):
    # the fixture fits J=1, so a detail entry at level 2 has no place
    doc["entries"][-1]["j"] = doc["J"] + 1


def stretch_first_block(doc):
    # two entries of the first (j, q) block, 30 000 translates apart on both
    # axes: a box of more than 30 001 x 30 001 cells
    first = doc["entries"][0]
    for z in (30_000, 60_000):
        doc["entries"].append({**first, "z": [z, z], "value": 0.5})


def raise_dimension_past_numpy(doc):
    # without the domain, whose shape would name the mismatch first
    del doc["domain"]
    doc["d"] = 40


def father_alone_at_level(level):
    # one father entry of a consistent trend-only db1 set at ``level``: at
    # 1100, 2**(d j / 2) overflows float64; at -1e10, the level overflows
    # the 32-bit exponent of ldexp
    def mutate(doc):
        doc["entries"] = [{**doc["entries"][0], "j": level}]
        doc["wavelet_order"], doc["j0"], doc["J"] = 1, level, level - 1
    return mutate


def relabel_trend_only_below_j0(doc):
    # keep the db2 father block alone, as a trend-only set at level 3, but
    # with J = 0 where a trend-only set at j0 = 3 has J = 2
    doc["entries"] = [{**item, "j": 3} for item in doc["entries"] if item["q"] == 0]
    doc["j0"], doc["J"] = 3, 0


@pytest.mark.parametrize("data_coords", [False, True], ids=["model-coords", "data-coords"])
@pytest.mark.parametrize("query", ["points", "grid"])
@pytest.mark.parametrize("scale", ["negated", -0.0, 0.0])
def test_an_affine_scale_not_above_zero_exits_2_and_writes_nothing(tmp_path, capsys, scale, query, data_coords):
    raw = np.random.default_rng(8).uniform(100.0, 200.0, (300, 2))
    pts, model, out = tmp_path / "pts.csv", tmp_path / "m.json", tmp_path / "out.csv"
    write_csv(pts, raw)
    assert main(["fit", str(pts), "-o", str(model), "--wavelet", "db2", "--J", "1", "--rescale"]) == 0
    doc = json.loads(model.read_text())
    doc["affine"]["scale"][0] = -doc["affine"]["scale"][0] if scale == "negated" else scale
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    args = [str(pts)] if query == "points" else ["--grid", "4"]
    assert main(["eval", str(model), *args, *["--data-coords"] * data_coords, "-o", str(out)]) == 2
    assert "affine scale" in capsys.readouterr().err
    assert not out.exists()


class TestEvalRejectsBadCoefficientFiles:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (set_first_entry("z", [0, 0, 0]), "translate coordinates"),
            (set_first_entry("q", 9), "0 <= q < 4"),
            (set_first_entry("q", -1), "0 <= q < 4"),
            (set_first_entry("value", "nan"), "non-finite"),
            (set_first_entry("value", 1e999), "non-finite"),
            (lift_last_detail, "outside the levels"),
            (set_first_entry("j", 1), "outside the levels"),
            (set_header("wavelet_order", 11), "wavelet order"),
            (set_header("wavelet_order", 0), "wavelet order"),
            (repeat_first_entry, "appears more than once"),
            (set_header("dyadic_resolution", 12), "dyadic resolution 12"),
            (set_header("representation", "wavelet-packet"), "unknown representation"),
            (relabel_trend_only_below_j0, "J=0 lies below j0 - 1 = 2"),
            (set_header("kind", "Classical"), "unknown kind"),
            (stretch_first_block, "16777216 cells"),
            (set_first_entry("z", [2**70, 0]), "64-bit range"),
            (raise_dimension_past_numpy, "outside 1..32"),
            (set_header("domain", 0), "domain needs shape (2, 2)"),
            (father_alone_at_level(1100), "level 1100 puts 2**j"),
            (father_alone_at_level(-10**10), "level -10000000000 puts 2**j"),
        ],
        ids=[
            "z-length", "q-above-range", "q-negative", "nan-value", "inf-value",
            "detail-above-J", "trend-off-j0", "order-11", "order-0", "duplicate-entry",
            "resolution-12", "representation-unknown", "J-below-j0", "kind-unknown", "huge-box",
            "z-beyond-int64", "d-40", "domain-scalar", "level-1100", "level-minus-1e10",
        ],
    )
    def test_exits_2(self, uniform_csv, tmp_path, capsys, mutate, message):
        model = tmp_path / "m.json"
        assert main(["fit", str(uniform_csv), "-o", str(model), "--wavelet", "db2", "--J", "1"]) == 0
        doc = json.loads(model.read_text())
        mutate(doc)
        model.write_text(json.dumps(doc))
        assert main(["eval", str(model), "--grid", "4"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_infinite_density_exits_3_and_writes_nothing(self, uniform_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert main(["fit", str(uniform_csv), "-o", str(model), "--wavelet", "db2", "--J", "1"]) == 0
        doc = json.loads(model.read_text())
        doc["entries"][0]["value"] = 1e200
        model.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(["eval", str(model), "--grid", "4", "-o", str(out)]) == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_single_trend_file_accepted(self, tmp_path):
        rng = np.random.default_rng(5)
        fitted = fit_model(rng.random((64, 2)), EstimatorConfig(wavelet_order=2, j0=0, J=1, k=1))
        single = oracle.single_trend_set(fitted.coefficients)
        path = tmp_path / "single.json"
        write_coefficients(path, single)
        assert main(["eval", str(path), "--grid", "4", "-o", str(tmp_path / "out.csv")]) == 0
        detail = json.loads(path.read_text())
        detail["entries"][0]["q"] = 1
        path.write_text(json.dumps(detail))
        assert main(["eval", str(path), "--grid", "4"]) == 2

    def test_legacy_single_trend_file_reads_as_trend_only(self, tmp_path):
        # earlier versions kept j0 and J and tagged the father block at J+1
        rng = np.random.default_rng(6)
        cs = fit_model(rng.random((64, 2)), EstimatorConfig(wavelet_order=2, j0=0, J=1, k=1)).coefficients
        single = oracle.single_trend_set(cs)
        doc = {
            "schema_version": 1, "kind": "shape-preserving", "d": 2, "n": 64, "k": 1,
            "j0": 0, "J": 1, "wavelet_order": 2, "dyadic_resolution": 10,
            "normalized": True, "representation": "single-trend",
            "entries": [
                {"j": key.level, "z": list(key.translate), "q": key.orientation, "value": val}
                for key, val in single.entries.items()
            ],
        }
        assert {item["j"] for item in doc["entries"]} == {2}
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(doc))
        loaded, _ = read_coefficients(path)
        assert (loaded.j0, loaded.J) == (2, 1)
        probe = rng.random((50, 2))
        back, _ = model_from_file(path)
        np.testing.assert_array_equal(back.density(probe), DensityModel(single).density(probe))
        assert main(["eval", str(path), "--grid", "4", "-o", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("command", ["fit", "eval"])
@pytest.mark.parametrize("resolution", ["0", "1"])
def test_grid_below_two_cells_exits_2_and_writes_nothing(uniform_csv, tmp_path, capsys, command, resolution):
    model = tmp_path / "m.json"
    if command == "eval":
        assert main(["fit", str(uniform_csv), "-o", str(model), "--J", "0"]) == 0
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "out.csv"
    args = ["-o", str(model), "--J", "0", "--grid-output", str(out)] if command == "fit" else ["-o", str(out)]
    capsys.readouterr()
    source = uniform_csv if command == "fit" else model
    assert main([command, str(source), "--grid", resolution, *args]) == 2
    assert "grid resolution must be >= 2" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


class TestGridBudget:
    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(metrics, "_MAX_FILE_CELLS", 100)

    def test_eval_grid_past_the_budget_exits_3_and_writes_nothing(self, uniform_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert main(["fit", str(uniform_csv), "-o", str(model), "--wavelet", "db2", "--J", "0"]) == 0
        out = tmp_path / "out.csv"
        assert main(["eval", str(model), "--grid", "10", "-o", str(out)]) == 0
        out.unlink()
        capsys.readouterr()
        assert main(["eval", str(model), "--grid", "11", "-o", str(out)]) == 3
        assert "a 11^2 grid holds 121 cells, past the budget of 100" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--grid", "11"], ["--estimator", "classical"]], ids=["grid", "classical-rescale-grid"]
    )
    def test_fit_grid_past_the_budget_exits_3_and_writes_nothing(self, uniform_csv, tmp_path, capsys, flags):
        model = tmp_path / "m.json"
        assert main(["fit", str(uniform_csv), "-o", str(model), "--wavelet", "db2", "--J", "0", *flags]) == 3
        assert "past the budget of 100" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [uniform_csv]

    @pytest.mark.parametrize("flags", [[], ["--estimator", "classical", "--no-normalize"]])
    def test_fit_without_a_grid_ignores_the_budget(self, uniform_csv, tmp_path, flags):
        model = tmp_path / "m.json"
        assert main(["fit", str(uniform_csv), "-o", str(model), "--wavelet", "db2", "--J", "0", *flags]) == 0


class TestBench:
    def test_small_bench(self, tmp_path):
        config = {
            "schema_version": 1,
            "densities": ["uniform"],
            "sample_sizes": [32],
            "replications": 2,
            "J_values": [-1, 0],
            "k_values": [1],
            "wavelet_order": 1,
            "grid_resolution": 16,
            "seed": 12,
            "estimators": ["shape-preserving", "classical"],
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        code = main(["bench", str(cpath), "-o", str(out), "--csv", str(csv), "--threads", "2"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 4
        assert csv.exists()

    def test_failed_rows_exit_3(self, tmp_path):
        config = {
            "densities": ["uniform"],
            "sample_sizes": [4],
            "replications": 1,
            "J_values": [-1],
            "k_values": [8],
            "wavelet_order": 1,
            "grid_resolution": 16,
            "seed": 12,
            "estimators": ["shape-preserving"],
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        code = main(["bench", str(cpath), "-o", str(tmp_path / "r.json")])
        assert code == 3

    def test_bad_config_exits_2(self, tmp_path):
        cpath = tmp_path / "config.json"
        cpath.write_text('{"bogus": true}')
        assert main(["bench", str(cpath), "-o", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replications", 1.5), ("sample_sizes", [32.0]), ("densities", "uniform"), ("grid_resolution", 16.5),
            # values the sweep cannot run
            ("densities", ["nope"]), ("wavelet_order", 0), ("wavelet_order", 11), ("k_values", [0]),
            ("sample_sizes", [0]), ("J_values", [-3]), ("grid_resolution", 1), ("seed", -1),
        ],
    )
    def test_non_integer_or_bare_string_config_exits_2(self, tmp_path, capsys, field, value):
        config = {
            "densities": ["uniform"], "sample_sizes": [32], "replications": 1, "J_values": [0],
            "k_values": [1], "wavelet_order": 1, "grid_resolution": 16, field: value,
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        assert main(["bench", str(cpath), "-o", str(tmp_path / "r.json")]) == 2
        assert field in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cpath]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_are_a_usage_error(self, tmp_path, threads):
        with pytest.raises(SystemExit) as info:
            main(["bench", "config.json", "-o", str(tmp_path / "r.json"), "--threads", threads])
        assert info.value.code == 1


class TestCheck:
    def test_wavelet_suite_passes(self, capsys):
        assert main(["check", "wavelet"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_dilation_suite(self, capsys):
        assert main(["check", "dilation", "--seed", "5"]) == 0
        assert "dilation/direct-vs-filtered" in capsys.readouterr().out

    def test_block_gap_is_the_entry_gap(self):
        pts = np.random.default_rng(3).random((60, 2))
        a = estimate_coefficients(pts, EstimatorConfig(wavelet_order=2, j0=1, J=2, k=1, normalize=False))
        # fewer points give smaller boxes, and J = 1 drops a's level-2 blocks
        b = estimate_coefficients(pts[:20], EstimatorConfig(wavelet_order=2, j0=1, J=1, k=1, normalize=False))
        gap = max(
            abs(a.entries.get(key, 0.0) - b.entries.get(key, 0.0))
            for key in a.entries.keys() | b.entries.keys()
        )
        assert cli._largest_block_gap(a.blocks, b.blocks) == gap
        assert cli._largest_block_gap(b.blocks, a.blocks) == gap
        assert cli._largest_block_gap(a.blocks, a.blocks) == 0.0

    def test_stochastic_suite_needs_seed(self):
        assert main(["check", "exp-law"]) == 1

    def test_numpy_warnings_reach_the_caller(self, monkeypatch):
        def warning_suite():
            warnings.warn("overflow in a numpy kernel", RuntimeWarning)
            warnings.warn("k is large", KConsistencyWarning)
            return True

        monkeypatch.setattr(cli, "_suite_wavelet", warning_suite)
        with pytest.warns(RuntimeWarning, match="overflow") as record:
            assert main(["check", "wavelet"]) == 0
        assert not any(issubclass(w.category, KConsistencyWarning) for w in record)


class TestWaveletTable:
    def test_table_dump(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["wavelet-table", "--wavelet", "db2", "--resolution", "6", "-o", str(out)]) == 0
        rows = read_points_csv(out)
        assert rows.shape == (3 * 64 + 1, 3)
        # phi(1) for db2
        idx = np.argmin(np.abs(rows[:, 0] - 1.0))
        assert abs(rows[idx, 1] - 1.3660254) < 1e-6

    @pytest.mark.parametrize("resolution", ["3", "17"])
    def test_resolution_outside_4_to_16_is_a_usage_error(self, tmp_path, capsys, resolution):
        out = tmp_path / "table.csv"
        with pytest.raises(SystemExit) as info:
            main(["wavelet-table", "--resolution", resolution, "-o", str(out)])
        assert info.value.code == 1
        assert f"resolution {resolution} outside 4..16" in capsys.readouterr().err
        assert not out.exists()


class TestKnnAudit:
    def test_audit_csv(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0\n1.0\n3.0\n")
        out = tmp_path / "knn.csv"
        assert main(["check", "knn", str(pts), "--k", "1", "-o", str(out)]) == 0
        rows = read_points_csv(out)
        np.testing.assert_allclose(rows[:, 1], [1.0, 1.0, 2.0])
        np.testing.assert_allclose(rows[:, 2], [2.0, 2.0, 4.0])

    def test_knn_requires_points(self):
        assert main(["check", "knn"]) == 1

    @pytest.mark.parametrize("k", ["0", "3", "5"])
    def test_k_outside_1_to_n_minus_1_exits_2(self, tmp_path, capsys, k):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0\n1.0\n3.0\n")
        out = tmp_path / "knn.csv"
        assert main(["check", "knn", str(pts), "--k", k, "-o", str(out)]) == 2
        assert f"got k={k}, n=3" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "{missing}.json", "--grid", "4"],
        ["eval", "{model}", "{missing}.csv"],
        ["fit", "{missing}.csv", "-o", "{out}.json", "--J", "1"],
        ["fit", "{points}", "-o", "{missing}/x.json", "--J", "1"],
        ["check", "knn", "{missing}.csv"],
        ["bench", "{missing}.json", "-o", "{out}.json"],
    ],
    ids=["eval-model", "eval-points", "fit-points", "fit-output-dir", "check-knn", "bench-config"],
)
def test_a_missing_or_unwritable_file_exits_2(uniform_csv, tmp_path, capsys, args):
    model = tmp_path / "m.json"
    assert main(["fit", str(uniform_csv), "-o", str(model), "--wavelet", "db2", "--J", "0"]) == 0
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    names = {"missing": tmp_path / "nope", "model": model, "points": uniform_csv, "out": tmp_path / "out"}
    assert main([arg.format(**names) for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] ") and "nope" in err
    assert sorted(tmp_path.iterdir()) == before


class TestFitRefusesWhatEvalCannotRead:
    def fit(self, uniform_csv, tmp_path, *flags):
        return main(["fit", str(uniform_csv), "-o", str(tmp_path / "m.json"), "--wavelet", "db2", *flags])

    def test_a_nan_threshold_exits_2_and_writes_nothing(self, uniform_csv, tmp_path, capsys):
        assert self.fit(uniform_csv, tmp_path, "--J", "1", "--threshold", "nan") == 2
        assert "threshold_constant must be >= 0, got nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [uniform_csv]

    def test_a_threshold_below_level_minus_one_names_the_level(self, uniform_csv, tmp_path, capsys):
        assert self.fit(uniform_csv, tmp_path, "--j0", "-3", "--J", "-1", "--threshold", "1") == 2
        assert "detail level j=-3 has no threshold" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [uniform_csv]

    @pytest.mark.parametrize(
        "flags, message", [([], "cannot normalize"), (["--no-normalize"], "non-finite")], ids=["normalized", "raw"]
    )
    def test_non_finite_coefficients_exit_3_and_write_nothing(
        self, uniform_csv, tmp_path, capsys, monkeypatch, flags, message
    ):
        real_threshold = estimator.soft_threshold

        def nan_threshold(coeffs, constant):
            coeffs = real_threshold(coeffs, constant)
            blocks = {key: (zmin, dense * np.nan) for key, (zmin, dense) in coeffs.blocks.items()}
            return dataclasses.replace(coeffs, blocks=blocks)

        monkeypatch.setattr(estimator, "soft_threshold", nan_threshold)
        assert self.fit(uniform_csv, tmp_path, "--J", "0", "--threshold", "1.0", *flags) == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [uniform_csv]

    @pytest.mark.parametrize("flags", [[], ["--no-normalize"]], ids=["normalized", "raw"])
    def test_an_infinite_threshold_keeps_the_level_minus_one_details(self, uniform_csv, tmp_path, flags):
        assert self.fit(uniform_csv, tmp_path, "--j0", "-1", "--J", "0", "--threshold", "inf", *flags) == 0
        entries = json.loads((tmp_path / "m.json").read_text())["entries"]
        assert {item["j"] for item in entries if item["q"]} == {-1}
        out = tmp_path / "f.csv"
        assert main(["eval", str(tmp_path / "m.json"), "--grid", "8", "-o", str(out)]) == 0
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=2)).all()

    def test_an_infinite_threshold_keeps_the_trend_alone(self, uniform_csv, tmp_path):
        assert self.fit(uniform_csv, tmp_path, "--J", "1", "--threshold", "inf") == 0
        assert {item["q"] for item in json.loads((tmp_path / "m.json").read_text())["entries"]} == {0}

    def test_a_set_past_the_cell_budget_exits_3_and_writes_nothing(self, uniform_csv, tmp_path, capsys, monkeypatch):
        config = EstimatorConfig(wavelet_order=2, j0=0, J=1, k=1)
        coeffs = fit_model(read_points_csv(uniform_csv), config).coefficients
        cells = sum(dense.size for _, dense in coeffs.blocks.values())
        monkeypatch.setattr(estimator, "_MAX_FILE_CELLS", cells - 1)
        assert self.fit(uniform_csv, tmp_path, "--J", "1") == 3
        assert f"past {cells - 1} cells, so the file could not be read back" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [uniform_csv]
        # at the budget the file is written, and reads back to the same set
        monkeypatch.setattr(estimator, "_MAX_FILE_CELLS", cells)
        assert self.fit(uniform_csv, tmp_path, "--J", "1") == 0
        assert read_coefficients(tmp_path / "m.json")[0] == coeffs
