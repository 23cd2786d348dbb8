import csv
import json
import math
import re
import shutil
import warnings

import numpy as np
import pytest

from beamfix import dataset, geo, nn, txid
from beamfix.cli import derived_seed, main
from beamfix.geo import GeoPosition, LocalOffset

from conftest import make_bundle, make_sample

BASE = GeoPosition(33.42, -111.93)

SMALL_CONFIG = {
    "noise_levels_m": [0.5, 1.0],
    "samples_left_to_right": 160,
    "samples_right_to_left": 120,
    "epochs": 30,
    "seed": 21,
}

# The table CSVs with a count column, and counts each must refuse: one past
# int64 and two below 1.
COUNTED_TABLES = ("anchor.csv", "lut.csv", "txid.csv")
BAD_COUNTS = {"past-int64": "99999999999999999999999", "zero": "0", "negative": "-1"}


def _no_read_back(path):
    raise AssertionError(f"load_csv({path}) called")


def _set_meta(data_path, key, value):
    """Set one key of a dataset's sidecar; returns the sidecar path."""
    meta_path = data_path.parent / f"{data_path.name}.meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    return meta_path


def write_config(tmp_path, **overrides):
    doc = dict(SMALL_CONFIG)
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSeeds:
    def test_derived_seed_stable(self):
        assert derived_seed(7, "noise", "l2r") == derived_seed(7, "noise", "l2r")
        assert derived_seed(7, "noise", "l2r") != derived_seed(7, "noise", "r2l")
        assert derived_seed(7, "noise") != derived_seed(8, "noise")

    def test_env_seed_used(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, noise_levels_m=[0.5], samples_left_to_right=30,
                              samples_right_to_left=30)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        monkeypatch.setenv("BEAMFIX_SEED", "99")
        assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
        monkeypatch.setenv("BEAMFIX_SEED", "100")
        assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
        # flag beats env
        assert main(["simulate", "--config", str(config), "--out", str(out_c), "--seed", "99"]) == 0
        a = (out_a / "datasets" / "l2r_rms0.5.csv").read_bytes()
        b = (out_b / "datasets" / "l2r_rms0.5.csv").read_bytes()
        c = (out_c / "datasets" / "l2r_rms0.5.csv").read_bytes()
        assert a != b
        assert a == c

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv("BEAMFIX_SEED", "not-a-number")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        assert main([command, "--config", str(write_config(tmp_path)), "--out", str(out),
                     "--seed", "-5"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_negative_env_seed_exit_2(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("BEAMFIX_SEED", "-3")
        out = tmp_path / "run"
        assert main([command, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert "BEAMFIX_SEED must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_expected_files(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        names = sorted(p.name for p in (out / "datasets").glob("*.csv"))
        assert names == [
            "l2r_clean.csv",
            "l2r_rms0.5.csv",
            "l2r_rms1.csv",
            "r2l_clean.csv",
            "r2l_rms0.5.csv",
            "r2l_rms1.csv",
        ]

    def test_sample_counts_match_config(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--config", str(config), "--out", str(out)])
        l2r = dataset.load_csv(out / "datasets" / "l2r_clean.csv")
        r2l = dataset.load_csv(out / "datasets" / "r2l_clean.csv")
        # outlier pass on clean synthetic data removes nothing
        assert len(l2r) == 160
        assert len(r2l) == 120

    def test_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config), "--out", str(out_a)])
        main(["simulate", "--config", str(config), "--out", str(out_b)])
        for path_a in sorted((out_a / "datasets").glob("*")):
            path_b = out_b / "datasets" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_unknown_config_key_exit_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"unknown_knob": 1}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_reads_back_no_dataset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(dataset, "load_csv", _no_read_back)
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote {out / 'datasets' / 'l2r_clean.csv'} (160 samples, rms 0 m)"
        assert lines[-1] == f"wrote {out / 'datasets' / 'r2l_rms1.csv'} (120 samples, rms 1 m)"
        assert len(lines) == 6

    @pytest.mark.parametrize(
        "key, value", [("grid_count", 10**30), ("codebook_beams", 4097)]
    )
    def test_count_out_of_range_exit_2(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, **{key: value})
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", [[0.5, 0.5], [0.1, 0.1000001]])
    def test_duplicate_noise_levels_exit_2(self, tmp_path, levels):
        config = write_config(tmp_path, noise_levels_m=levels)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("array_normal_deg", "5", "key 'array_normal_deg'"),
            ("bs_heading_deg", True, "key 'bs_heading_deg'"),
            ("bs_heading_deg", math.nan, "key 'bs_heading_deg'"),
            ("bs_heading_deg", None, "missing key 'bs_heading_deg'"),
            ("camera_hfov_deg", 200.0, "camera_hfov_deg"),
            ("bs_position.lat_deg", 95.0, "key 'bs_position': latitude 95.0"),
            ("bs_position", [], "missing key 'bs_position.lat_deg'"),
            ("road", [], "missing key 'road.0'"),
            ("road.0", None, "missing key 'road.0.lat_deg'"),
            ("road.1.lon_deg", "x", "key 'road.1.lon_deg'"),
            ("bs_heading_deg", 90.0, "road.0: target"),
            ("array_normal_deg", 180.0, "road.0: 135.22 deg off array_normal_deg"),
            ("polar", 88.9999, "road.0: |lat_deg| must be <= 89.0"),
        ],
    )
    def test_mutated_scene_exit_2_naming_the_key(self, tmp_path, capsys, key, value, named):
        from beamfix import simulate as sim

        scene_path = tmp_path / "scene.json"
        sim.save_scene(sim.default_scene(), scene_path)
        doc = json.loads(scene_path.read_text())
        if key == "polar":  # every position moved north by the same angle
            shift = value - doc["bs_position"]["lat_deg"]
            for point in (doc["bs_position"], *doc["road"]):
                point["lat_deg"] += shift
            key, value = "bs_heading_deg", 0.0
        *parents, last = key.split(".")
        holder = doc
        for part in parents:
            holder = holder[int(part)] if isinstance(holder, list) else holder[part]
        if value is None and isinstance(holder, dict):
            del holder[last]
        else:
            holder[int(last) if isinstance(holder, list) else last] = value
        scene_path.write_text(json.dumps(doc))
        config = write_config(tmp_path, scene_path=str(scene_path))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(scene_path) in err and named in err
        assert not out.exists()


class TestRunConfig:
    @pytest.mark.parametrize(
        "doc, key",
        [
            (None, None),
            (5, None),
            ({"grid_count": "100"}, "grid_count"),
            ({"grid_count": 100.7}, "grid_count"),
            ({"grid_count": True}, "grid_count"),
            ({"noise_levels_m": 5}, "noise_levels_m"),
            ({"epochs": "3"}, "epochs"),
            ({"learning_rate": "x"}, "learning_rate"),
        ],
        ids=["null", "number", "count-str", "count-fraction", "count-bool",
             "levels-number", "epochs-str", "rate-str"],
    )
    def test_malformed_config_exit_2(self, tmp_path, capsys, doc, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert key is None or f"key '{key}': " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("key", ["seed", "num_distractors"])
    def test_negative_value_names_file_and_key_exit_2(self, tmp_path, capsys, command, key):
        config = write_config(tmp_path, **{key: -1})
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {config}: {key} must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, bound",
        [
            ("epochs", -1, ">= 0"),
            ("batch_size", 0, ">= 1"),
            ("learning_rate", 0.0, "> 0"),
            ("learning_rate", -1e-3, "> 0"),
            ("bin_width_m", 0.0, "> 0"),
            ("noise_levels_m", [], "non-empty"),
        ],
    )
    def test_out_of_range_training_value_exit_2(self, tmp_path, capsys, key, value, bound):
        config = write_config(tmp_path, **{key: value})
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {config}: {key} must be {bound}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_directory_config_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        assert main([command, "--config", str(tmp_path), "--out", str(out)]) == 2
        assert f"config file is not a file: {tmp_path}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_count_accepted(self, tmp_path):
        config = write_config(tmp_path, grid_count=50.0)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        meta = json.loads((out / "datasets" / "l2r_clean.csv.meta.json").read_text())
        assert meta["grid_count"] == 50 and isinstance(meta["grid_count"], int)


class TestCharacterizeCommand:
    def test_coincident_clean_dataset_skips_fit(self, tmp_path, capsys):
        # Coincident points per grid: every average displacement is zero,
        # so the histogram is degenerate and the fit is skipped with a notice.
        samples = []
        sid = 0
        for g in range(8):
            pos = geo.apply_offset(BASE, LocalOffset(g * 2.0, 10.0))
            for _ in range(3):
                s = make_sample(sid, (g + 0.5) / 100, pos)
                samples.append(s)
                sid += 1
        bundle = make_bundle(samples)
        data_path = tmp_path / "clean.csv"
        dataset.save_csv(bundle, data_path)
        out = tmp_path / "char"
        assert main(["characterize", "--dataset", str(data_path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.out
        summary = json.loads((out / "fit.json").read_text())
        assert summary["fit"] is None
        assert summary["mean_displacement_m"] == 0.0

    def test_noisy_dataset_fits_well(self, tmp_path):
        config = write_config(
            tmp_path,
            noise_levels_m=[0.3],
            samples_left_to_right=1500,
            samples_right_to_left=30,
        )
        out = tmp_path / "run"
        main(["simulate", "--config", str(config), "--out", str(out)])
        char_out = tmp_path / "char"
        code = main(
            ["characterize", "--dataset", str(out / "datasets" / "l2r_rms0.3.csv"),
             "--out", str(char_out)]
        )
        assert code == 0
        summary = json.loads((char_out / "fit.json").read_text())
        assert summary["grid_count"] == 100  # metadata default applied
        assert summary["fit"]["adjusted_r_squared"] >= 0.95

    def test_unparseable_dataset_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,direction\n0,L2R\n")
        assert main(["characterize", "--dataset", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "key", ["grid_count", "codebook_size", "noise_rms_m", "seed", "direction", "source"]
    )
    def test_sidecar_missing_key_exit_2(self, tmp_path, capsys, key):
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(0, 0.5, BASE)]), data_path)
        meta_path = tmp_path / "data.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        assert main(["characterize", "--dataset", str(data_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert str(meta_path) in err and f"'{key}'" in err

    @pytest.mark.parametrize(
        "key, value",
        [("grid_count", 10**30), ("grid_count", 0), ("codebook_size", 10**30),
         ("codebook_size", 4097)],
    )
    def test_sidecar_count_out_of_range_exit_2(self, tmp_path, capsys, key, value):
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(0, 0.5, BASE)]), data_path)
        meta_path = _set_meta(data_path, key, value)
        assert main(["characterize", "--dataset", str(data_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert str(meta_path) in err and f"'{key}'" in err and "outside [1, " in err

    @pytest.mark.parametrize("value", [100.7, True])
    def test_sidecar_count_not_integer_exit_2(self, tmp_path, capsys, value):
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(0, 0.5, BASE)]), data_path)
        meta_path = _set_meta(data_path, "grid_count", value)
        out = tmp_path / "x"
        assert main(["characterize", "--dataset", str(data_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(meta_path) in err and "'grid_count'" in err and "expected an integer" in err
        assert not out.exists()

    def test_grid_count_flag_out_of_range_exit_2(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(0, 0.5, BASE)]), data_path)
        assert main(["characterize", "--dataset", str(data_path), "--grid-count", str(10**30),
                     "--out", str(tmp_path / "x")]) == 2
        assert "--grid-count" in capsys.readouterr().err

    def test_grid_count_flag_zero_exit_2(self, tmp_path, capsys):
        # 0 is a given value, not "use the sidecar's grid count".
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(0, 0.5, BASE)]), data_path)
        out = tmp_path / "x"
        assert main(["characterize", "--dataset", str(data_path), "--grid-count", "0",
                     "--out", str(out)]) == 2
        assert "--grid-count must be in [1, 1000000], got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bin_width_flag_not_positive_exit_2(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(0, 0.5, BASE)]), data_path)
        out = tmp_path / "x"
        assert main(["characterize", "--dataset", str(data_path), "--bin-width", "0",
                     "--out", str(out)]) == 2
        assert "--bin-width must be finite and > 0, got 0.0" in capsys.readouterr().err
        assert not out.exists()

    def test_bin_width_flag_not_finite_exit_2(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(0, 0.5, BASE)]), data_path)
        out = tmp_path / "x"
        assert main(["characterize", "--dataset", str(data_path), "--bin-width", "inf",
                     "--out", str(out)]) == 2
        assert "--bin-width must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_bin_width_flag_subnormal_exit_2(self, tmp_path, capsys):
        # The bin count of 1 m at 5e-324 m overflows a float; the refusal must not.
        north = geo.apply_offset(BASE, LocalOffset(0.0, 1.0))
        samples = [make_sample(0, 0.5, BASE, noisy=BASE), make_sample(1, 0.5, BASE, noisy=north)]
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle(samples), data_path)
        out = tmp_path / "x"
        assert main(["characterize", "--dataset", str(data_path), "--bin-width", "5e-324",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "largest value" in err and "bin width 5e-324 m" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_far_gps_fix_exit_2(self, tmp_path, capsys):
        # One fix ~380 km off would need millions of 0.05 m bins.
        samples = [make_sample(i, 0.5, BASE, noisy=BASE) for i in range(9)]
        samples.append(make_sample(9, 0.5, BASE, noisy=GeoPosition(30.0, BASE.lon_deg)))
        data_path = tmp_path / "far.csv"
        dataset.save_csv(make_bundle(samples), data_path)
        out = tmp_path / "x"
        assert main(["characterize", "--dataset", str(data_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "largest value" in err and "bin width 0.05 m" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "column, cell, why",
        [(2, "1_6", "column 'beam_index': not an integer: '1_6'"),
         (3, "3_3.0", "column 'gt_lat': not a number: '3_3.0'"),
         (7, "\uff11", "column 'num_detections': not an integer: '\uff11'"),
         (0, " 3 ", "column 'id': not an integer: ' 3 '")],
        ids=["beam-underscore", "lat-underscore", "count-full-width", "id-spaces"],
    )
    def test_loose_numeric_cell_exit_2(self, tmp_path, capsys, column, cell, why):
        # int() and float() would read these as 16, 33.0, 1 and 3.
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(i, 0.5, BASE) for i in range(3)]), data_path)
        lines = [line.split(",") for line in data_path.read_text().splitlines()]
        lines[2][column] = cell
        data_path.write_text("\n".join(",".join(line) for line in lines) + "\n")
        out = tmp_path / "x"
        assert main(["characterize", "--dataset", str(data_path), "--out", str(out)]) == 2
        assert f"{data_path}: row 2: {why}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_row_names_file(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        dataset.save_csv(make_bundle([make_sample(0, 0.5, BASE)]), data_path)
        data_path.write_text(data_path.read_text().replace("\n0,L2R,", "\nx,L2R,"))
        assert main(["characterize", "--dataset", str(data_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{data_path}: row 1: column 'id'" in err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("train")
    config = write_config(tmp_path, noise_levels_m=[0.5], samples_right_to_left=30)
    run = tmp_path / "run"
    main(["simulate", "--config", str(config), "--out", str(run)])
    data_path = run / "datasets" / "l2r_rms0.5.csv"
    art = tmp_path / "artifacts"
    code = main(
        ["train", "--dataset", str(data_path), "--out", str(art),
         "--seed", "5", "--epochs", "30"]
    )
    return code, art, data_path


class TestTrainCommand:
    def test_completes_and_persists(self, trained):
        code, art, _ = trained
        assert code == 0
        for name in ("txid.csv", "denoiser.json", "lut.csv", "anchor.csv",
                     "train.csv", "test.csv", "manifest.json", "denoiser_loss.csv"):
            assert (art / name).exists()
        assert not (art / "txid.json").exists() and not (art / "txid_loss.csv").exists()

    def test_loss_histories_are_table_csvs(self, trained):
        _, art, _ = trained
        path = art / "denoiser_loss.csv"

        def parse(cells, widths):
            assert (widths == 2).all()
            every = np.ones(len(widths), dtype=bool)
            return (dataset.INTEGERS(cells[0], "epoch", every),
                    dataset.FLOATS(cells[1], "loss", every))

        epochs, losses = dataset.read_csv(path, lambda width: ["epoch", "loss"], parse)
        assert epochs.tolist() == list(range(30))
        assert np.isfinite(losses).all()
        assert path.read_bytes().startswith(b"epoch,loss\r\n0,")

    @pytest.mark.parametrize("key", ["grid_count", "codebook_size"])
    def test_sidecar_count_out_of_range_exit_2(self, trained, tmp_path, capsys, key):
        _, _, data_path = trained
        copy = tmp_path / "data.csv"
        shutil.copy(data_path, copy)
        shutil.copy(f"{data_path}.meta.json", f"{copy}.meta.json")
        meta_path = _set_meta(copy, key, 10**30)
        assert main(["train", "--dataset", str(copy), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert str(meta_path) in err and f"'{key}'" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_learning_rate_flag_not_finite_exit_2(self, trained, tmp_path, capsys, value):
        _, _, data_path = trained
        out = tmp_path / "x"
        assert main(["train", "--dataset", str(data_path), "--out", str(out),
                     "--learning-rate", value]) == 2
        assert f"learning_rate must be finite and > 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_fit_exit_1_without_warnings(self, trained, tmp_path, capsys):
        # A real divergence: the first update moves the weights by about
        # 1e300, and the next forward pass overflows to a NaN loss.
        _, _, data_path = trained
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--dataset", str(data_path), "--out", str(out),
                         "--learning-rate", "1e300", "--epochs", "3"])
        assert code == 1
        err = capsys.readouterr().err
        [line] = err.splitlines()
        assert line.startswith("error: l2r rms0.5: model 0: non-finite loss nan")
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_gradient_check_on_trained_models(self, trained):
        _, art, _ = trained
        rng = np.random.default_rng(0)
        den_model = nn.load_weights(art / "denoiser.json")
        x2 = rng.uniform(0, 1, size=(6, 2))
        y2 = rng.normal(0, 1, size=(6, 2))
        assert nn.gradient_check(den_model, x2, y2) < 1e-4

    def test_rerun_reproduces_artifacts(self, trained, tmp_path):
        code, art, data_path = trained
        art2 = tmp_path / "again"
        assert main(
            ["train", "--dataset", str(data_path), "--out", str(art2),
             "--seed", "5", "--epochs", "30"]
        ) == 0
        for name in ("txid.csv", "denoiser.json", "lut.csv", "train.csv", "test.csv"):
            assert (art / name).read_bytes() == (art2 / name).read_bytes()

    def test_split_sizes_recorded(self, trained):
        _, art, _ = trained
        manifest = json.loads((art / "manifest.json").read_text())
        assert manifest["train_samples"] == 112  # ceil(160 * 0.7)
        assert manifest["test_samples"] == 48

    def test_missing_tx_labels_exit_2(self, tmp_path):
        from beamfix.dataset import DetectionClass

        samples = [
            make_sample(i, 0.5, BASE, noisy=BASE,
                        detections=((DetectionClass.DISTRACTOR, 0.5, 0.5),))
            for i in range(20)
        ]
        bundle = make_bundle(samples)
        path = tmp_path / "unlabeled.csv"
        dataset.save_csv(bundle, path)
        assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_empty_test_split_exit_2(self, tmp_path, capsys):
        # ceil(3 * 0.7) = 3 leaves nothing to evaluate on.
        samples = [make_sample(i, 0.5, BASE, noisy=BASE) for i in range(3)]
        path = tmp_path / "tiny.csv"
        dataset.save_csv(make_bundle(samples), path)
        assert main(
            ["train", "--dataset", str(path), "--out", str(tmp_path / "x"), "--epochs", "1"]
        ) == 2
        assert "test split empty" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_reports_and_plot_exports(self, tmp_path):
        config = write_config(tmp_path, noise_levels_m=[0.5, 1.0],
                              samples_left_to_right=200, samples_right_to_left=30)
        run = tmp_path / "run"
        main(["simulate", "--config", str(config), "--out", str(run)])
        art_dirs = []
        for tag in ("rms0.5", "rms1"):
            art = tmp_path / f"art_{tag}"
            assert main(
                ["train", "--dataset", str(run / "datasets" / f"l2r_{tag}.csv"),
                 "--out", str(art), "--seed", "3", "--epochs", "40"]
            ) == 0
            art_dirs.append(str(art))
        out = tmp_path / "eval"
        assert main(["evaluate", "--artifacts", *art_dirs, "--out", str(out)]) == 0
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["noise_rms_m", "noisy_m", "lut_m", "mlp_m"]
        assert len(rows) == 3
        # denoisers beat the noisy baseline at both levels
        for row in rows[1:]:
            noisy, lut, mlp = float(row[1]), float(row[2]), float(row[3])
            assert lut < noisy and mlp < noisy
        assert (out / "plots_rms0.5" / "positions.csv").exists()
        assert (out / "report_rms0.5.json").exists()
        assert (out / "txid_predictions_rms1.csv").exists()

    def test_bin_width_flag_not_positive_writes_nothing(self, small_artifacts, tmp_path, capsys):
        out = tmp_path / "eval"
        out.mkdir()
        assert main(["evaluate", "--artifacts", str(small_artifacts["l2r"]), "--out", str(out),
                     "--bin-width", "0"]) == 2
        assert "--bin-width must be finite and > 0, got 0.0" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bin_width_flag_not_finite_writes_nothing(self, small_artifacts, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["evaluate", "--artifacts", str(small_artifacts["l2r"]), "--out", str(out),
                     "--bin-width", "inf"]) == 2
        assert "--bin-width must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_q_mismatch_exit_2(self, tmp_path):
        config = write_config(tmp_path, noise_levels_m=[0.5],
                              samples_left_to_right=60, samples_right_to_left=30)
        run = tmp_path / "run"
        main(["simulate", "--config", str(config), "--out", str(run)])
        art = tmp_path / "art"
        main(["train", "--dataset", str(run / "datasets" / "l2r_rms0.5.csv"),
              "--out", str(art), "--epochs", "2"])
        # swap in a stage-1 table of a 128-beam codebook; the dataset's has 64
        (art / "txid.csv").write_text("beam,count,x_center,y_center\r\n100,3,0.5,0.5\r\n")
        assert main(["evaluate", "--artifacts", str(art), "--out", str(tmp_path / "e")]) == 2

    def test_not_an_artifact_dir_exit_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["evaluate", "--artifacts", str(empty), "--out", str(tmp_path / "e")]) == 2

    def test_duplicate_noise_level_exit_2(self, small_artifacts, tmp_path, capsys):
        out = tmp_path / "e"
        dirs = [str(small_artifacts[d]) for d in ("l2r", "r2l")]
        assert main(["evaluate", "--artifacts", *dirs, "--out", str(out)]) == 2
        assert "overwrite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key",
        ["grid_count", "noise_rms_m", "files", "files.test", "files.anchor",
         "files.txid_table", "files.denoiser_model", "files.lut"],
    )
    def test_manifest_missing_key_exit_2(self, small_artifacts, tmp_path, capsys, key):
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        manifest = json.loads((art / "manifest.json").read_text())
        *parents, leaf = key.split(".")
        holder = manifest
        for part in parents:
            holder = holder[part]
        del holder[leaf]
        (art / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--artifacts", str(art), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert str(art / "manifest.json") in err and f"'{key}'" in err

    @pytest.mark.parametrize("value", [10**30, 0])
    def test_manifest_grid_count_out_of_range_exit_2(self, small_artifacts, tmp_path, capsys,
                                                     value):
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        manifest = json.loads((art / "manifest.json").read_text())
        manifest["grid_count"] = value
        (art / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--artifacts", str(art), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert str(art / "manifest.json") in err and "'grid_count'" in err

    def test_manifest_grid_count_not_integer_exit_2(self, small_artifacts, tmp_path, capsys):
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        manifest = json.loads((art / "manifest.json").read_text())
        manifest["grid_count"] = 100.7
        (art / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "e"
        assert main(["evaluate", "--artifacts", str(art), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{art / 'manifest.json'}: key 'grid_count': expected an integer" in err
        assert not out.exists()

    def test_model_not_an_object_exit_2(self, small_artifacts, tmp_path, capsys):
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        (art / "denoiser.json").write_text("[1, 2]\n")
        assert main(["evaluate", "--artifacts", str(art), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert str(art / "denoiser.json") in err and "expected a JSON object" in err

    def test_bad_test_split_names_file(self, small_artifacts, tmp_path, capsys):
        good, bad = tmp_path / "good", tmp_path / "bad"
        shutil.copytree(small_artifacts["l2r"], good)
        shutil.copytree(small_artifacts["l2r"], bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["noise_rms_m"] = 1.0
        (bad / "manifest.json").write_text(json.dumps(manifest))
        rows = (bad / "test.csv").read_text().split("\n")
        rows[1] = "x" + rows[1][rows[1].index(","):]
        (bad / "test.csv").write_text("\n".join(rows))
        out = tmp_path / "e"
        assert main(["evaluate", "--artifacts", str(good), str(bad), "--out", str(out)]) == 2
        assert f"{bad / 'test.csv'}: row 1: column 'id'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("target_norm.scale", float("nan")), ("weights", float("inf"))],
    )
    def test_non_finite_model_exit_2(self, small_artifacts, tmp_path, capsys, field, value):
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        model_path = art / "denoiser.json"
        doc = json.loads(model_path.read_text())
        if field == "weights":
            doc["weights"][0][0][0] = value
        else:
            doc["target_norm"]["scale"][0] = value
        model_path.write_text(json.dumps(doc))
        assert main(["evaluate", "--artifacts", str(art), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert str(model_path) in err and field.split(".")[0] in err


    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda doc: doc["weights"][0][0].__setitem__(0, "x"), "layer 0 weights"),
            (lambda doc: doc["biases"][1].__setitem__(0, "x"), "layer 1 biases"),
            (lambda doc: _cut_normalizer(doc, "target_norm"), "target_norm"),
            (lambda doc: _cut_normalizer(doc, "input_norm"), "input_norm"),
            (lambda doc: doc.update(input_norm=None), "key 'input_norm'"),
            (lambda doc: doc.pop("target_norm"), "missing key 'target_norm'"),
            (lambda doc: doc.update(weights=dict(enumerate(doc["weights"]))),
             "key 'weights': expected a list of 3 arrays"),
        ],
        ids=["weights-x", "biases-x", "target_norm-cut", "input_norm-cut", "input_norm-null",
             "target_norm-missing", "weights-object"],
    )
    def test_malformed_model_exit_2(self, small_artifacts, tmp_path, capsys, edit, expected):
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        model_path = art / "denoiser.json"
        doc = json.loads(model_path.read_text())
        edit(doc)
        model_path.write_text(json.dumps(doc))
        assert main(["evaluate", "--artifacts", str(art), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert str(model_path) in err and expected in err

    @pytest.mark.parametrize(
        "name, edit, expected",
        [
            ("lut.csv", lambda rows: rows[:1] + [["5", "3"]], "row 1"),
            ("anchor.csv", lambda rows: [], "empty file"),
            ("anchor.csv", lambda rows: rows[:1] + [["x"] + rows[1][1:]], "column 'grid'"),
            ("lut.csv", lambda rows: rows + [rows[1]], "repeated"),
            ("anchor.csv", lambda rows: rows[:1] + [["100"] + rows[1][1:]], "column 'grid'"),
            ("lut.csv", lambda rows: rows[:1] + [["-1"] + rows[1][1:]], "column 'grid'"),
            ("anchor.csv", lambda rows: rows[:1] + [rows[1][:2] + ["nan"] + rows[1][3:]],
             "column 'mean_lat'"),
            ("txid.csv", lambda rows: rows[:1] + [["64"] + rows[1][1:]],
             "row 1: column 'beam': 64 outside [0, 64)"),
            ("txid.csv", lambda rows: rows[:1] + [["0"] + rows[1][1:]] * 2,
             "row 2: column 'beam': beam 0 repeated"),
            ("txid.csv", lambda rows: rows[:2] + [rows[2][:2] + ["1.5", rows[2][3]]],
             "row 2: column 'x_center': '1.5' outside [0.0, 1.0]"),
            ("txid.csv", lambda rows: rows[:1], "no beam rows"),
            ("anchor.csv", lambda rows: rows[:1], "no grid rows"),
            ("lut.csv", lambda rows: rows[:1], "no grid rows"),
            *((name, lambda rows, c=count: rows[:1] + [rows[1][:1] + [c] + rows[1][2:]],
               f"row 1: column 'count': '{count}' outside [1, {2**63 - 1}]")
              for name in COUNTED_TABLES for count in BAD_COUNTS.values()),
            # int() and float() would read these as 16, 3, 33.0 and 1.
            ("txid.csv", lambda rows: rows[:1] + [["1_6"] + rows[1][1:]] + rows[2:],
             "row 1: column 'beam': not an integer: '1_6'"),
            ("lut.csv", lambda rows: rows[:2] + [rows[2][:1] + [" 3 "] + rows[2][2:]],
             "row 2: column 'count': not an integer: ' 3 '"),
            ("anchor.csv", lambda rows: rows[:1] + [rows[1][:2] + ["3_3.0"] + rows[1][3:]],
             "row 1: column 'mean_lat': not a number: '3_3.0'"),
            ("txid.csv", lambda rows: rows[:1] + [rows[1][:1] + ["\uff11"] + rows[1][2:]],
             "row 1: column 'count': not an integer: '\uff11'"),
        ],
        ids=["short-row", "empty", "grid-not-int", "grid-repeated", "grid-eq-z",
             "grid-negative", "lat-nan", "beam-eq-q", "beam-repeated", "center-above-1",
             "no-beams", "no-anchor-grids", "no-lut-grids",
             *(f"{name[:-4]}-count-{label}" for name in COUNTED_TABLES for label in BAD_COUNTS),
             "beam-underscore", "count-spaces", "lat-underscore", "count-full-width"],
    )
    def test_malformed_table_exit_2(self, small_artifacts, tmp_path, capsys, name, edit, expected):
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        path = art / name
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(edit(rows))
        assert main(["evaluate", "--artifacts", str(art), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and expected in err
        assert not (tmp_path / "e").exists()

    def test_refusal_at_a_later_level_writes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path, noise_levels_m=[0.5, 1.0], samples_left_to_right=60,
                              samples_right_to_left=50, epochs=2)
        run = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(run)]) == 0
        levels = run / "artifacts" / "l2r"
        (levels / "rms1" / "lut.csv").write_text("grid,count,mean_lat,mean_lon\r\n5,3\r\n")
        capsys.readouterr()
        out = tmp_path / "e"
        argv = ["evaluate", "--artifacts", str(levels / "rms0.5"), str(levels / "rms1"),
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{levels / 'rms1' / 'lut.csv'}: row 1: 2 cells, expected 4" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda doc: doc["target_norm"].update(shift=[1e6, 0.0]),
             r"error: latitude 99999\d\.\d+ outside \[-90, 90\]"),
            (lambda doc: doc["target_norm"].update(shift=[0.0, -1e6]),
             r"error: longitude -(99999\d|1000000)\.\d+ outside \[-180, 180\]"),
            # Inputs normalize above 0, so every first-layer unit overflows to
            # inf; mixed-sign weights downstream make NaN.
            (lambda doc: doc.update(weights=[np.full_like(doc["weights"][0], 1e308).tolist(),
                                             *doc["weights"][1:]],
                                    input_norm={**doc["input_norm"], "shift": [-1.0, -1.0]}),
             r"error: latitude nan outside \[-90, 90\]"),
        ],
        ids=["latitude", "longitude", "nan"],
    )
    def test_denoiser_out_of_range_exit_2(self, small_artifacts, tmp_path, capsys, edit,
                                          expected):
        # Finite, loadable weights whose predictions leave the globe.
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        doc = json.loads((art / "denoiser.json").read_text())
        edit(doc)
        (art / "denoiser.json").write_text(json.dumps(doc))
        out = tmp_path / "e"
        assert main(["evaluate", "--artifacts", str(art), "--out", str(out)]) == 2
        assert re.match(expected, capsys.readouterr().err)
        assert not out.exists()

    def test_plot_export_keyed_on_level_tag(self, small_artifacts, tmp_path):
        # 0.5000000000000001 != 0.5, but it writes report_rms0.5.json.
        art = tmp_path / "art"
        shutil.copytree(small_artifacts["l2r"], art)
        manifest = json.loads((art / "manifest.json").read_text())
        manifest["noise_rms_m"] = 0.5000000000000001
        (art / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "e"
        assert main(["evaluate", "--artifacts", str(art), "--out", str(out)]) == 0
        assert (out / "report_rms0.5.json").exists()
        assert (out / "plots_rms0.5" / "positions.csv").exists()


def _cut_normalizer(doc, field):
    """Keep only the first shift and scale entry of a model's normalizer."""
    doc[field] = {key: values[:1] for key, values in doc[field].items()}


@pytest.fixture(scope="module")
def small_artifacts(tmp_path_factory):
    """Briefly trained L2R and R2L artifacts at the same 0.5 m noise level."""
    tmp_path = tmp_path_factory.mktemp("small_artifacts")
    config = write_config(tmp_path, noise_levels_m=[0.5],
                          samples_left_to_right=60, samples_right_to_left=60)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    arts = {}
    for dtag in ("l2r", "r2l"):
        arts[dtag] = tmp_path / dtag
        assert main(["train", "--dataset", str(run / "datasets" / f"{dtag}_rms0.5.csv"),
                     "--out", str(arts[dtag]), "--epochs", "2"]) == 0
    return arts


class TestDefaultConfig:
    def test_default_simulate_writes_twelve_files_with_paper_counts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out)]) == 0
        files = sorted(p.name for p in (out / "datasets").glob("*.csv"))
        assert len(files) == 12  # 2 directions x (clean + 5 noise levels)
        l2r = dataset.load_csv(out / "datasets" / "l2r_rms0.5.csv")
        r2l = dataset.load_csv(out / "datasets" / "r2l_rms0.5.csv")
        assert len(l2r) == 1353
        assert len(r2l) == 1086

    def test_scene_path_used(self, tmp_path):
        from beamfix import simulate as sim

        scene = sim.default_scene()
        narrow = sim.SceneGeometry(
            bs_position=scene.bs_position,
            bs_heading_deg=scene.bs_heading_deg,
            camera_hfov_deg=120.0,
            road=scene.road,
            array_normal_deg=scene.array_normal_deg,
        )
        scene_path = tmp_path / "scene.json"
        sim.save_scene(narrow, scene_path)
        config = write_config(
            tmp_path, scene_path=str(scene_path), noise_levels_m=[0.5],
            samples_left_to_right=40, samples_right_to_left=40,
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        bundle = dataset.load_csv(out / "datasets" / "l2r_clean.csv")
        # wider FOV squeezes the lane toward the image center
        xs = dataset.tx_centers(bundle)[:, 0].tolist()
        assert max(xs) < 0.85 and min(xs) > 0.15

    def test_missing_scene_path_exit_2(self, tmp_path):
        config = write_config(tmp_path, scene_path=str(tmp_path / "nope.json"))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["simulate", "characterize", "train", "evaluate", "pipeline"]
    )
    def test_subcommand_help_documents_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out and "default" in out.lower()


class TestPipelineCommand:
    def test_five_level_comparison_shape(self, tmp_path):
        config = write_config(
            tmp_path,
            noise_levels_m=[0.1, 0.5, 1.0, 2.0, 3.0],
            samples_left_to_right=260,
            samples_right_to_left=120,
            epochs=12,
        )
        out = tmp_path / "pipe"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        for direction in ("l2r", "r2l"):
            with open(out / "eval" / direction / "comparison.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["noise_rms_m", "noisy_m", "lut_m", "mlp_m"]
            assert len(rows) - 1 == 5
            assert (out / "eval" / direction / "plots_rms0.5" / "positions.csv").exists()

    def test_small_pipeline_runs(self, tmp_path):
        config = write_config(tmp_path, noise_levels_m=[0.5],
                              samples_left_to_right=120, samples_right_to_left=100,
                              epochs=20)
        out = tmp_path / "pipe"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "datasets" / "l2r_rms0.5.csv").exists()
        assert (out / "characterize" / "l2r_clean" / "pergrid.csv").exists()
        assert (out / "artifacts" / "l2r" / "rms0.5" / "manifest.json").exists()
        assert (out / "eval" / "l2r" / "comparison.csv").exists()
        assert (out / "eval" / "r2l" / "comparison.csv").exists()


# Passes validation, then the 1000 m level's histogram needs more than
# grid.MAX_HISTOGRAM_BINS bins, after the clean L2R data is written.
LATE_REFUSAL = {"noise_levels_m": [1000], "bin_width_m": 0.005,
                "samples_left_to_right": 200, "samples_right_to_left": 20}


class TestPipelineRefusal:
    def test_refusal_after_validation_leaves_no_out(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(LATE_REFUSAL))
        out = tmp_path / "new" / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: l2r rms1000: largest value ")
        assert "histogram bins" in err
        assert list(tmp_path.iterdir()) == [config]

    def test_diverging_fit_leaves_no_out_without_warnings(self, tmp_path, capsys):
        config = write_config(tmp_path, learning_rate=1e300, samples_left_to_right=60,
                              samples_right_to_left=50, epochs=3)
        out = tmp_path / "new" / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pipeline", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        [line] = err.splitlines()
        assert line.startswith("error: l2r rms0.5: model 0: non-finite loss nan")
        assert [str(w.message) for w in caught] == []
        assert list(tmp_path.iterdir()) == [config]

    def test_refusal_keeps_an_existing_out(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(LATE_REFUSAL))
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
        assert "l2r rms1000: " in capsys.readouterr().err
        assert (out / "notes.txt").read_text() == "kept\n"
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_empty_test_split_names_direction(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples_left_to_right": 3, "samples_right_to_left": 3}))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: l2r: 3 samples at train_fraction 0.7 leave the test split empty"
        assert list(tmp_path.iterdir()) == [config]


class TestOutputNotADirectory:
    """Every command refuses an --out that cannot be a directory before any work."""

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize(
        "command", ["simulate", "characterize", "train", "evaluate", "pipeline"]
    )
    def test_exit_2_writes_nothing(self, small_artifacts, tmp_path, capsys, command, below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "run" if below else taken
        config = str(write_config(tmp_path))
        data = str(small_artifacts["l2r"].parent / "run" / "datasets" / "l2r_rms0.5.csv")
        args = {
            "simulate": ["--config", config],
            "characterize": ["--dataset", data],
            "train": ["--dataset", data, "--epochs", "1"],
            "evaluate": ["--artifacts", str(small_artifacts["l2r"])],
            "pipeline": ["--config", config],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert main([command, *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: --out: cannot write to ")
        assert line.endswith(f"{taken} is not a directory")
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before
        assert taken.read_text() == "kept\n"


@pytest.fixture(scope="module")
def two_level_pipeline(tmp_path_factory):
    """A pipeline run at 0.5 and 1 m."""
    tmp_path = tmp_path_factory.mktemp("two_level_pipeline")
    config = write_config(tmp_path, samples_left_to_right=120, samples_right_to_left=100,
                          epochs=20)
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    return out


class TestSharedStageOne:
    def test_reads_back_no_dataset(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "load_csv", _no_read_back)
        config = write_config(tmp_path, samples_left_to_right=60, samples_right_to_left=60,
                              epochs=2)
        out = tmp_path / "pipe"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "eval" / "r2l" / "comparison.csv").exists()

    @pytest.mark.parametrize("dtag", ["l2r", "r2l"])
    def test_one_stage1_and_split_per_direction(self, two_level_pipeline, dtag):
        out = two_level_pipeline
        levels = [out / "artifacts" / dtag / tag for tag in ("rms0.5", "rms1")]
        assert len({(art / "txid.csv").read_bytes() for art in levels}) == 1
        ids = [dataset.load_csv(art / "test.csv").ids.tolist() for art in levels]
        assert ids[0] == ids[1]

    def test_train_reproduces_pipeline_artifacts(self, two_level_pipeline, tmp_path):
        # `beamfix train` runs the same two stages with the pipeline's per-direction seed.
        out = two_level_pipeline
        art = tmp_path / "art"
        assert main(["train", "--dataset", str(out / "datasets" / "l2r_rms1.csv"),
                     "--out", str(art), "--seed", str(derived_seed(21, "train", "l2r")),
                     "--epochs", "20"]) == 0
        expected = out / "artifacts" / "l2r" / "rms1"
        assert sorted(p.name for p in art.iterdir()) == sorted(p.name for p in expected.iterdir())
        for path in art.iterdir():
            assert path.read_bytes() == (expected / path.name).read_bytes(), path.name

    def test_identify_all_once_per_direction_split(self, tmp_path, monkeypatch):
        # Training identifies the shared train split once per direction,
        # and evaluate once per level's test split.
        calls = []
        identify_all = txid.identify_all

        def counted(table, bundle):
            calls.append(len(bundle))
            return identify_all(table, bundle)

        monkeypatch.setattr(txid, "identify_all", counted)
        config = write_config(tmp_path, samples_left_to_right=60, samples_right_to_left=50,
                              epochs=2)
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "pipe")]) == 0
        train_sizes = [
            json.loads((tmp_path / "pipe" / "artifacts" / d / "rms1" / "manifest.json")
                       .read_text())["train_samples"]
            for d in ("l2r", "r2l")
        ]
        assert [calls[0], calls[3]] == train_sizes
        assert len(calls) == 2 * (1 + 2)

    def test_divergence_names_direction_and_level_exit_1(self, tmp_path, monkeypatch, capsys):
        # Blow up the second level's denoiser targets past its identity
        # target normalizer; the stack's error must name the level it came from.
        train = nn.train

        def train_second_diverges(models, inputs, targets, config, rng=None):
            if len(models) > 1:
                models[1].target_norm = nn.Normalizer.identity(2)
                targets = [t * (1e200 if k == 1 else 1.0) for k, t in enumerate(targets)]
            return train(models, inputs, targets, config, rng=rng)

        monkeypatch.setattr(nn, "train", train_second_diverges)
        config = write_config(tmp_path, samples_left_to_right=60, samples_right_to_left=50,
                              epochs=2)
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "pipe")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: l2r rms1: model 1: non-finite loss inf at epoch 0, step 0")

    def test_evaluate_reproduces_pipeline_eval(self, two_level_pipeline, tmp_path):
        # The pipeline scores its models in memory; evaluate reads them back from disk.
        out = two_level_pipeline
        levels = [str(out / "artifacts" / "r2l" / tag) for tag in ("rms0.5", "rms1")]
        assert main(["evaluate", "--artifacts", *levels, "--out", str(tmp_path / "e")]) == 0
        expected = sorted(p for p in (out / "eval" / "r2l").rglob("*") if p.is_file())
        assert expected
        for path in expected:
            again = tmp_path / "e" / path.relative_to(out / "eval" / "r2l")
            assert again.read_bytes() == path.read_bytes(), path.name
