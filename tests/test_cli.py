import csv
import json
import shutil

import numpy as np
import pytest

from beamfix import dataset, geo, nn
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

    @pytest.mark.parametrize("levels", [[0.5, 0.5], [0.1, 0.1000001]])
    def test_duplicate_noise_levels_exit_2(self, tmp_path, levels):
        config = write_config(tmp_path, noise_levels_m=levels)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()


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
        for name in ("txid.json", "denoiser.json", "lut.csv", "anchor.csv",
                     "train.csv", "test.csv", "manifest.json",
                     "txid_loss.csv", "denoiser_loss.csv"):
            assert (art / name).exists()

    def test_gradient_check_on_trained_models(self, trained):
        _, art, _ = trained
        rng = np.random.default_rng(0)
        txid_model = nn.load_weights(art / "txid.json")
        x = np.eye(txid_model.layer_dims[0])[rng.integers(0, 64, size=6)]
        y = rng.uniform(0, 1, size=(6, 2))
        assert nn.gradient_check(txid_model, x, y) < 1e-4
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
        for name in ("txid.json", "denoiser.json", "lut.csv", "train.csv", "test.csv"):
            assert (art / name).read_bytes() == (art2 / name).read_bytes()

    def test_split_sizes_recorded(self, trained):
        _, art, _ = trained
        manifest = json.loads((art / "manifest.json").read_text())
        assert manifest["train_samples"] == 112  # ceil(160 * 0.7)
        assert manifest["test_samples"] == 48

    def test_missing_tx_labels_exit_2(self, tmp_path):
        from beamfix.dataset import Detection, DetectionClass, Direction, Sample

        samples = [
            Sample(i, Direction.LEFT_TO_RIGHT,
                   (Detection(DetectionClass.DISTRACTOR, 0.5, 0.5),), 0, BASE, BASE)
            for i in range(20)
        ]
        bundle = make_bundle(samples)
        path = tmp_path / "unlabeled.csv"
        dataset.save_csv(bundle, path)
        assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "x")]) == 2


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

    def test_q_mismatch_exit_2(self, tmp_path):
        config = write_config(tmp_path, noise_levels_m=[0.5],
                              samples_left_to_right=60, samples_right_to_left=30)
        run = tmp_path / "run"
        main(["simulate", "--config", str(config), "--out", str(run)])
        art = tmp_path / "art"
        main(["train", "--dataset", str(run / "datasets" / "l2r_rms0.5.csv"),
              "--out", str(art), "--epochs", "2"])
        # swap in a txid model with the wrong input width
        model = nn.init_mlp((32, 8, 2), np.random.default_rng(0))
        nn.save_weights(model, art / "txid.json")
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
         "files.txid_model", "files.denoiser_model", "files.lut"],
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
        xs = [s.transmitter().x_center for s in bundle.samples]
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
