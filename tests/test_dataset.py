import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfix import geo, grid
from beamfix.cli import RunConfig, main
from beamfix.dataset import (
    DatasetBundle,
    DatasetFormatError,
    DatasetMeta,
    DetectionClass,
    Direction,
    inject_noise,
    json_field,
    json_int,
    json_str,
    load_csv,
    read_json,
    remove_outliers,
    save_csv,
    split_train_test,
    write_json,
)
from beamfix.geo import GeoPosition, LocalOffset, NoiseSpec

from conftest import grid_cell, make_bundle, make_sample, same_bundle

BASE = GeoPosition(33.42, -111.93)


def _grid_cluster(sid0, x_center, offsets_m, base=BASE):
    """Samples sharing one grid, displaced north by the given meters."""
    return [
        make_sample(sid0 + i, x_center, geo.apply_offset(base, LocalOffset(0.0, d)))
        for i, d in enumerate(offsets_m)
    ]


class TestModelValidation:
    def test_detection_range_checks(self):
        with pytest.raises(ValueError):
            make_bundle([make_sample(0, 1.3, BASE)])
        below = ((DetectionClass.DISTRACTOR, 0.5, -0.1),)
        with pytest.raises(ValueError):
            make_bundle([make_sample(0, 0.5, BASE, extra_detections=below)])

    def test_two_transmitters_rejected(self):
        tx = (DetectionClass.TRANSMITTER, 0.4, 0.5)
        with pytest.raises(ValueError, match="transmitter"):
            make_bundle([make_sample(0, 0.4, BASE, detections=(tx, tx))])

    def test_duplicate_ids_rejected(self):
        s = make_sample(1, 0.5, BASE)
        with pytest.raises(ValueError, match="unique"):
            make_bundle([s, s])

    def test_beam_outside_codebook_rejected(self):
        s = make_sample(0, 0.5, BASE, beam_index=64)
        with pytest.raises(ValueError, match="beam index"):
            make_bundle([s], codebook_size=64)

    def test_mixed_directions_rejected(self, tmp_path):
        # A bundle holds one direction, in its metadata; rows can only
        # disagree with it in a file, against the sidecar.
        path = tmp_path / "l2r.csv"
        save_csv(make_bundle([make_sample(0, 0.5, BASE), make_sample(1, 0.5, BASE)]), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",L2R,", ",R2L,")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="direction"):
            load_csv(path)


class TestCsvRoundTrip:
    def test_three_row_file(self, tmp_path, small_synthetic_bundle):
        sub = small_synthetic_bundle.take(np.arange(3))
        path = tmp_path / "three.csv"
        save_csv(sub, path)
        loaded = load_csv(path)
        assert len(loaded) == 3

    def test_round_trip_exact(self, tmp_path, small_synthetic_bundle):
        path = tmp_path / "bundle.csv"
        save_csv(small_synthetic_bundle, path)
        loaded = load_csv(path)
        assert same_bundle(loaded, small_synthetic_bundle)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "id,direction,beam_index,gt_lat,gt_lon,noisy_lat,noisy_lon,num_detections\n"
        )
        bundle = load_csv(path)
        assert len(bundle) == 0

    def test_out_of_range_x_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,direction,beam_index,gt_lat,gt_lon,noisy_lat,noisy_lon,num_detections,"
            "det0_class,det0_x,det0_y\n"
            "0,L2R,3,33.0,-111.0,,,1,TX,1.3,0.5\n"
        )
        with pytest.raises(DatasetFormatError, match="row 1"):
            load_csv(path)

    def test_malformed_number_names_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,direction,beam_index,gt_lat,gt_lon,noisy_lat,noisy_lon,num_detections,"
            "det0_class,det0_x,det0_y\n"
            "0,L2R,zap,33.0,-111.0,,,1,TX,0.3,0.5\n"
        )
        with pytest.raises(DatasetFormatError, match="beam_index"):
            load_csv(path)

    def test_mixed_direction_file_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "id,direction,beam_index,gt_lat,gt_lon,noisy_lat,noisy_lon,num_detections,"
            "det0_class,det0_x,det0_y\n"
            "0,L2R,3,33.0,-111.0,,,1,TX,0.3,0.5\n"
            "1,R2L,3,33.0,-111.0,,,1,TX,0.3,0.5\n"
        )
        with pytest.raises(DatasetFormatError, match="direction"):
            load_csv(path)

    @pytest.mark.parametrize(
        "row, expected",
        [
            ("x,L2R,3,33.0,-111.0,,,1,TX,0.3,0.5", "row 1: field 'id'"),
            ("0,L2R,3,33.0,-111.0,,,1,TX,1.3,0.5", "row 1: det0"),
            ("0,L2R,5000,33.0,-111.0,,,1,TX,0.3,0.5", "needs a codebook larger than 4096"),
        ],
        ids=["bad-id", "x-range", "huge-beam"],
    )
    def test_errors_name_the_file(self, tmp_path, row, expected):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,direction,beam_index,gt_lat,gt_lon,noisy_lat,noisy_lon,num_detections,"
            f"det0_class,det0_x,det0_y\n{row}\n"
        )
        with pytest.raises(DatasetFormatError) as exc:
            load_csv(path)
        assert str(exc.value).startswith(f"{path}: ") and expected in str(exc.value)

    @pytest.mark.parametrize(
        "slots, row, expected",
        [
            ("foo,bar,baz", "0,L2R,3,33.0,-111.0,,,1,TX,0.3,0.5", "header mismatch"),
            ("det0_class,det0_x", "0,L2R,3,33.0,-111.0,,,1,TX,0.3", "header mismatch"),
            ("det1_class,det1_x,det1_y", "0,L2R,3,33.0,-111.0,,,1,TX,0.3,0.5", "header mismatch"),
            ("det0_class,det0_x,det0_y", "0,L2R,3,33.0,-111.0,,,2,TX,0.3,0.5,DISTRACTOR,0.1,0.2",
             "row 1: 14 cells, but the header has 11"),
            ("det0_class,det0_x,det0_y", "0,L2R,3,33.0,-111.0,,,1,TX,0.3,0.5,",
             "row 1: 12 cells, but the header has 11"),
        ],
        ids=["renamed-slot", "partial-slot", "slot-out-of-order", "wide-row", "trailing-cell"],
    )
    def test_header_names_every_detection_slot(self, tmp_path, slots, row, expected):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"id,direction,beam_index,gt_lat,gt_lon,noisy_lat,noisy_lon,num_detections,{slots}\n"
            f"{row}\n"
        )
        with pytest.raises(DatasetFormatError) as exc:
            load_csv(path)
        assert str(exc.value).startswith(f"{path}: ") and expected in str(exc.value)

    def test_empty_file_names_the_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="empty file") as exc:
            load_csv(path)
        assert str(path) in str(exc.value)

    def test_missing_noisy_fields_round_trip(self, tmp_path):
        bundle = make_bundle([make_sample(0, 0.25, BASE)])
        path = tmp_path / "nonoisy.csv"
        save_csv(bundle, path)
        loaded = load_csv(path)
        assert np.isnan(loaded.noisy_lat[0]) and np.isnan(loaded.noisy_lon[0])


@st.composite
def bundles(draw):
    """Bundles of 1-12 rows with 1-6 detections each and a mix of present and absent noisy fixes."""
    n = draw(st.integers(min_value=1, max_value=12))
    counts = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n))
    k = max(counts)
    unit = st.floats(min_value=0.0, max_value=1.0)
    det_x, det_y, det_tx = np.full((n, k), np.nan), np.full((n, k), np.nan), np.zeros((n, k), bool)
    for i, c in enumerate(counts):
        det_x[i, :c] = draw(st.lists(unit, min_size=c, max_size=c))
        det_y[i, :c] = draw(st.lists(unit, min_size=c, max_size=c))
        tx = draw(st.integers(min_value=-1, max_value=c - 1))  # -1: no transmitter label
        det_tx[i, tx] = tx >= 0
    lat, lon = st.floats(min_value=-90, max_value=90), st.floats(min_value=-180, max_value=180)
    noisy = np.full((n, 2), np.nan)
    for i, present in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        if present:
            noisy[i] = draw(lat), draw(lon)
    meta = DatasetMeta(
        grid_count=draw(st.integers(min_value=1, max_value=1000)),
        codebook_size=64,
        noise_rms_m=draw(st.floats(min_value=0, max_value=10)),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        direction=draw(st.sampled_from(Direction)),
        source=draw(st.text(max_size=8)),
    )
    ids = draw(st.lists(
        st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=n, max_size=n, unique=True
    ))
    return DatasetBundle(
        ids,
        draw(st.lists(st.integers(min_value=0, max_value=63), min_size=n, max_size=n)),
        draw(st.lists(lat, min_size=n, max_size=n)),
        draw(st.lists(lon, min_size=n, max_size=n)),
        noisy[:, 0], noisy[:, 1], det_tx, det_x, det_y, counts, meta,
    )


class TestLoaderProperties:
    @given(bundle=bundles())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_every_column_bit_for_bit(self, bundle):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bundle.csv"
            save_csv(bundle, path)
            assert same_bundle(load_csv(path), bundle)

    CELLS = ["", "nan", "NaN", "inf", "-1", "0", "1", "1.5", "200", "-200", "1e400", "x",
             "TX", "DISTRACTOR", "BOGUS", "L2R", "R2L", "99999999999999999999999"]
    SIDECAR_VALUES = [None, "", "x", -1, 0, 1.5, 7, math.nan, 10**30, "L2R", "R2L", True, []]

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_mutated_dataset_exits_0_or_2(self, data):
        """One cell, row or sidecar value changed: characterize exits 0, or exits 2
        naming the file and leaving no output directory; it never raises."""
        rows = [
            make_sample(i, (i % 6 + 0.5) / 10, geo.apply_offset(BASE, LocalOffset(0.0, i % 4)),
                        beam_index=i % 5, noisy=BASE,
                        extra_detections=((DetectionClass.DISTRACTOR, 0.9, 0.1 * (i % 9)),))
            for i in range(12)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "data.csv", Path(tmp) / "out"
            save_csv(make_bundle(rows), path)
            lines = [line.split(",") for line in path.read_text().splitlines()]
            kind = data.draw(st.sampled_from(["cell", "duplicate id", "extra cell", "truncate",
                                              "sidecar value", "sidecar key"]))
            r = data.draw(st.integers(min_value=1, max_value=len(lines) - 1))
            if kind == "cell":
                c = data.draw(st.integers(min_value=0, max_value=len(lines[r]) - 1))
                lines[r][c] = data.draw(st.sampled_from(self.CELLS))
            elif kind == "duplicate id":
                lines[r][0] = lines[1 + r % (len(lines) - 1)][0]
            elif kind == "extra cell":
                lines[r].append(data.draw(st.sampled_from(self.CELLS[1:])))
            elif kind == "truncate":
                del lines[r][data.draw(st.integers(min_value=0, max_value=len(lines[r]) - 1)):]
            path.write_text("\n".join(",".join(line) for line in lines) + "\n")
            meta_path = Path(f"{path}.meta.json")
            meta = json.loads(meta_path.read_text())
            key = data.draw(st.sampled_from(sorted(meta)))
            if kind == "sidecar value":
                meta[key] = data.draw(st.sampled_from(self.SIDECAR_VALUES))
            elif kind == "sidecar key":
                del meta[key]
            meta_path.write_text(json.dumps(meta))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["characterize", "--dataset", str(path), "--out", str(out)])
            assert code in (0, 2)
            if code == 2:
                assert str(path) in err.getvalue()
                assert not out.exists()


    @staticmethod
    def _run(argv):
        """main(argv) with its output captured; returns (exit code, stderr)."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue()

    @staticmethod
    def _assert_refusal_clean(code, err, out):
        """Exit 0, 1 or 2 without a traceback; a refusal leaves no output, a
        success writes no NaN."""
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 0:
            assert not out.exists()
        else:
            for path in out.rglob("*"):
                if path.is_file():
                    assert "nan" not in path.read_text().lower(), path

    # Numbers for model weights, biases and normalizers: finite but extreme
    # ones drive predictions out of range or overflow to NaN.
    MODEL_VALUES = [0.0, -1.0, 1e6, -1e6, 1e150, 1e300, -1e300, math.nan, math.inf, "x", None, []]
    ARTIFACT_FILES = ["manifest.json", "txid.csv", "denoiser.json", "anchor.csv", "lut.csv"]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mutated_artifacts_exit_0_1_or_2(self, data, trained_artifacts):
        """One value, key, cell or row of a train output changed: evaluate exits
        0, 1 or 2, never raises, and leaves no --out when it refuses."""
        name = data.draw(st.sampled_from(self.ARTIFACT_FILES))
        with tempfile.TemporaryDirectory() as tmp:
            art, out = Path(tmp) / "art", Path(tmp) / "out"
            shutil.copytree(trained_artifacts, art)
            path = art / name
            if name.endswith(".json"):
                doc = json.loads(path.read_text())
                leaves = {where: (holder, key) for where, holder, key in _json_leaves(doc)}
                holder, key = leaves[data.draw(st.sampled_from(sorted(leaves)))]
                kind = data.draw(st.sampled_from(["value", "delete"]))
                if kind == "delete" and isinstance(holder, dict):
                    del holder[key]
                else:
                    values = self.MODEL_VALUES if name != "manifest.json" else self.SIDECAR_VALUES
                    holder[key] = data.draw(st.sampled_from(values + ["test.csv", "lut.csv"]))
                path.write_text(json.dumps(doc))
            else:
                lines = [line.split(",") for line in path.read_text().splitlines()]
                kind = data.draw(st.sampled_from(["cell", "truncate", "drop rows", "repeat row"]))
                r = data.draw(st.integers(min_value=1, max_value=len(lines) - 1))
                if kind == "cell":
                    c = data.draw(st.integers(min_value=0, max_value=len(lines[r]) - 1))
                    lines[r][c] = data.draw(st.sampled_from(self.CELLS))
                elif kind == "truncate":
                    del lines[r][data.draw(st.integers(min_value=0, max_value=len(lines[r]) - 1)):]
                elif kind == "drop rows":
                    del lines[r:]
                else:
                    lines.append(lines[r])
                path.write_text("\n".join(",".join(line) for line in lines) + "\n")
            code, err = self._run(["evaluate", "--artifacts", str(art), "--out", str(out)])
            self._assert_refusal_clean(code, err, out)

    CONFIG_VALUES = [None, "", "x", -1, 0, 1, 1.5, 7, 4097, 10**7, 10**30, math.nan, math.inf,
                     True, [], [0.5], [-1.0], [0.5, 0.5], [1e6], [1e30], {}]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mutated_run_config_exits_0_or_2(self, data):
        """One run config value changed or one key added: simulate exits 0 or 2,
        never raises, and leaves no --out when it refuses."""
        doc = {"samples_left_to_right": 20, "samples_right_to_left": 20, "grid_count": 20,
               "noise_levels_m": [0.5], "num_distractors": 1}
        key = data.draw(st.sampled_from(sorted(RunConfig.__dataclass_fields__) + ["unknown"]))
        doc[key] = data.draw(st.sampled_from(self.CONFIG_VALUES))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            path.write_text(json.dumps(doc))
            code, err = self._run(["simulate", "--config", str(path), "--out", str(out)])
            assert code in (0, 2)
            if code == 2:
                assert str(path) in err
            self._assert_refusal_clean(code, err, out)


def _json_leaves(doc, where=""):
    """(path, holder, key) of every scalar in a JSON document, plus each list itself."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        here = f"{where}.{key}" if where else str(key)
        if isinstance(value, (dict, list)) and value:
            if isinstance(value, list):
                yield here, doc, key
            yield from _json_leaves(value, here)
        else:
            yield here, doc, key


@pytest.fixture(scope="module")
def trained_artifacts(tmp_path_factory):
    """A briefly trained L2R artifact directory at 0.5 m noise."""
    tmp = tmp_path_factory.mktemp("trained_artifacts")
    config = tmp / "config.json"
    config.write_text(json.dumps({"noise_levels_m": [0.5], "samples_left_to_right": 60,
                                  "samples_right_to_left": 20}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(config), "--out", str(tmp / "run")]) == 0
        assert main(["train", "--dataset", str(tmp / "run" / "datasets" / "l2r_rms0.5.csv"),
                     "--out", str(tmp / "art"), "--epochs", "2"]) == 0
    return tmp / "art"


class TestJsonLayer:
    def test_write_json_sorted_indented_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": 1, "a": [0.1, None]})
        assert path.read_text() == '{\n  "a": [\n    0.1,\n    null\n  ],\n  "b": 1\n}\n'
        write_json(path, {"b": 1, "a": [0.1, None]}, indent=None)
        assert path.read_text() == '{"a": [0.1, null], "b": 1}\n'

    @pytest.mark.parametrize(
        "text, expected", [("{", "not valid JSON"), ("[1]", "expected a JSON object")]
    )
    def test_read_json_errors_name_the_file(self, tmp_path, text, expected):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as exc:
            read_json(path)
        assert str(exc.value).startswith(f"{path}: {expected}")

    def test_field_errors_name_the_file_and_key(self, tmp_path):
        doc = {"files": {"test": 5}, "flat": 1}
        assert json_field(doc, "m.json", "flat", json_int) == 1
        with pytest.raises(DatasetFormatError, match=r"^m\.json: missing key 'files\.lut'$"):
            json_field(doc, "m.json", "files.lut")
        with pytest.raises(DatasetFormatError, match=r"^m\.json: missing key 'flat\.x'$"):
            json_field(doc, "m.json", "flat.x")
        with pytest.raises(
            DatasetFormatError, match=r"^m\.json: key 'files\.test': expected a string, got 5$"
        ):
            json_field(doc, "m.json", "files.test", json_str)

    @pytest.mark.parametrize("raw, expected", [(3, 3), (3.0, 3), (10**30, 10**30)])
    def test_json_int_accepts_integers(self, raw, expected):
        value = json_int(raw)
        assert value == expected and type(value) is int

    @pytest.mark.parametrize("raw", [True, False, 100.7, "3", None, [3], math.nan, math.inf])
    def test_json_int_refuses_non_integers(self, raw):
        with pytest.raises(ValueError, match="expected an integer"):
            json_int(raw)


class TestSplit:
    @pytest.mark.parametrize("n,expected", [(1353, (948, 405)), (1086, (761, 325))])
    def test_seventy_thirty_sizes(self, n, expected):
        # ceil-based oracle computed with exact integer arithmetic.
        assert (-(-n * 7 // 10), n - (-(-n * 7 // 10))) == expected
        samples = [make_sample(i, 0.5, BASE) for i in range(n)]
        train, test = split_train_test(make_bundle(samples), 0.7, seed=1)
        assert (len(train), len(test)) == expected

    def test_same_seed_same_split(self):
        samples = [make_sample(i, 0.5, BASE) for i in range(10)]
        bundle = make_bundle(samples)
        a = split_train_test(bundle, 0.7, seed=5)
        b = split_train_test(bundle, 0.7, seed=5)
        assert a[0].ids.tolist() == b[0].ids.tolist()
        assert a[1].ids.tolist() == b[1].ids.tolist()

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split_train_test(make_bundle([]), 0.7, seed=0)

    @pytest.mark.parametrize("n,fraction", [(3, 0.7), (1, 0.5)])
    def test_empty_test_side_rejected(self, n, fraction):
        bundle = make_bundle([make_sample(i, 0.5, BASE) for i in range(n)])
        with pytest.raises(ValueError, match="test split empty"):
            split_train_test(bundle, fraction, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.4])
    def test_fraction_bounds(self, fraction):
        bundle = make_bundle([make_sample(0, 0.5, BASE)])
        with pytest.raises(ValueError):
            split_train_test(bundle, fraction, seed=0)

    @given(
        n=st.integers(min_value=1, max_value=200),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, fraction, seed):
        samples = [make_sample(i, 0.5, BASE) for i in range(n)]
        bundle = make_bundle(samples)
        if math.ceil(n * fraction - 1e-9) in (0, n):
            with pytest.raises(ValueError, match="split empty"):
                split_train_test(bundle, fraction, seed)
            return
        train, test = split_train_test(bundle, fraction, seed)
        train_ids = set(train.ids.tolist())
        test_ids = set(test.ids.tolist())
        assert train_ids | test_ids == set(range(n))
        assert not train_ids & test_ids
        assert len(train) == math.ceil(n * fraction - 1e-9)


class TestInjectNoise:
    def test_zero_target_copies_ground_truth(self):
        samples = [make_sample(i, 0.5, BASE) for i in range(5)]
        noisy = inject_noise(make_bundle(samples), NoiseSpec(0.0, 1))
        assert np.array_equal(noisy.noisy_lat, noisy.gt_lat)
        assert np.array_equal(noisy.noisy_lon, noisy.gt_lon)

    def test_ground_truth_untouched(self, small_synthetic_bundle):
        noisy = inject_noise(small_synthetic_bundle, NoiseSpec(1.0, 2))
        assert np.array_equal(noisy.gt_lat, small_synthetic_bundle.gt_lat)
        assert np.array_equal(noisy.gt_lon, small_synthetic_bundle.gt_lon)

    def test_empirical_rms(self):
        samples = [make_sample(i, 0.5, BASE) for i in range(20_000)]
        noisy = inject_noise(make_bundle(samples), NoiseSpec(0.5, 3))
        d = geo.haversine_m(noisy.gt_lat, noisy.gt_lon, noisy.noisy_lat, noisy.noisy_lon)
        rms = math.sqrt(float(np.mean(np.array(d) ** 2)))
        assert abs(rms - 0.5) / 0.5 < 0.02

    def test_seed_determinism(self, small_synthetic_bundle):
        a = inject_noise(small_synthetic_bundle, NoiseSpec(1.0, 9))
        b = inject_noise(small_synthetic_bundle, NoiseSpec(1.0, 9))
        assert same_bundle(a, b)

    def test_metadata_records_spec(self, small_synthetic_bundle):
        noisy = inject_noise(small_synthetic_bundle, NoiseSpec(2.0, 13))
        assert noisy.metadata.noise_rms_m == 2.0
        assert noisy.metadata.seed == 13


class TestRemoveOutliers:
    def test_distant_point_removed(self):
        # MAD oracle: ten coincident points and one 50 m away share a grid.
        # Median displacement is 50/11 m, threshold 3*1.4826*that ~ 20.2 m,
        # so only the distant point (45.5 m from the mean) goes.
        cluster = _grid_cluster(0, 0.505, [0.0] * 10 + [50.0])
        cleaned = remove_outliers(make_bundle(cluster))
        assert set(cleaned.ids.tolist()) == set(range(10))

    def test_coincident_points_kept(self):
        cluster = _grid_cluster(0, 0.505, [0.0] * 8)
        cleaned = remove_outliers(make_bundle(cluster))
        assert len(cleaned) == 8

    def test_small_grids_untouched(self):
        cluster = _grid_cluster(0, 0.505, [0.0, 5000.0])
        cleaned = remove_outliers(make_bundle(cluster))
        assert len(cleaned) == 2

    def test_average_displacement_never_grows(self):
        rng = np.random.default_rng(17)
        samples = []
        sid = 0
        for g in range(12):
            x = (g + 0.5) / 100
            spread = rng.normal(0, 1.0, size=6).tolist()
            spread.append(30.0 + float(rng.uniform(0, 5)))  # planted outlier
            samples.extend(_grid_cluster(sid, x, spread))
            sid += len(spread)
        bundle = make_bundle(samples)
        before = grid.build_grid_table(bundle, "ground_truth", 100)
        cleaned = remove_outliers(bundle)
        after = grid.build_grid_table(cleaned, "ground_truth", 100)
        assert len(cleaned) < len(bundle)
        for g in after.grids.tolist():
            assert grid_cell(after, g)[2] <= grid_cell(before, g)[2] + 1e-9

    def test_missing_transmitter_label_rejected(self):
        s = make_sample(0, 0.5, BASE, detections=((DetectionClass.DISTRACTOR, 0.5, 0.5),))
        with pytest.raises(ValueError, match="sample 0"):
            remove_outliers(make_bundle([s]))
