import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfix import geo, grid
from beamfix.dataset import (
    DatasetFormatError,
    Detection,
    DetectionClass,
    Direction,
    Sample,
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

from conftest import make_bundle, make_sample

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
            Detection(DetectionClass.TRANSMITTER, 1.3, 0.5)
        with pytest.raises(ValueError):
            Detection(DetectionClass.DISTRACTOR, 0.5, -0.1)

    def test_two_transmitters_rejected(self):
        tx = Detection(DetectionClass.TRANSMITTER, 0.4, 0.5)
        with pytest.raises(ValueError, match="transmitter"):
            Sample(0, Direction.LEFT_TO_RIGHT, (tx, tx), 0, BASE)

    def test_duplicate_ids_rejected(self):
        s = make_sample(1, 0.5, BASE)
        with pytest.raises(ValueError, match="unique"):
            make_bundle([s, s])

    def test_beam_outside_codebook_rejected(self):
        s = make_sample(0, 0.5, BASE, beam_index=64)
        with pytest.raises(ValueError, match="beam index"):
            make_bundle([s], codebook_size=64)

    def test_mixed_directions_rejected(self):
        a = make_sample(0, 0.5, BASE, direction=Direction.LEFT_TO_RIGHT)
        b = make_sample(1, 0.5, BASE, direction=Direction.RIGHT_TO_LEFT)
        with pytest.raises(ValueError, match="direction"):
            make_bundle([a, b], direction=Direction.LEFT_TO_RIGHT)


class TestCsvRoundTrip:
    def test_three_row_file(self, tmp_path, small_synthetic_bundle):
        sub = make_bundle(
            small_synthetic_bundle.samples[:3],
            codebook_size=small_synthetic_bundle.metadata.codebook_size,
        )
        path = tmp_path / "three.csv"
        save_csv(sub, path)
        loaded = load_csv(path)
        assert len(loaded) == 3

    def test_round_trip_exact(self, tmp_path, small_synthetic_bundle):
        path = tmp_path / "bundle.csv"
        save_csv(small_synthetic_bundle, path)
        loaded = load_csv(path)
        assert loaded.samples == small_synthetic_bundle.samples
        assert loaded.metadata == small_synthetic_bundle.metadata

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
        assert loaded.samples[0].noisy_position is None


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
        assert [s.id for s in a[0].samples] == [s.id for s in b[0].samples]
        assert [s.id for s in a[1].samples] == [s.id for s in b[1].samples]

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
        train_ids = {s.id for s in train.samples}
        test_ids = {s.id for s in test.samples}
        assert train_ids | test_ids == set(range(n))
        assert not train_ids & test_ids
        assert len(train) == math.ceil(n * fraction - 1e-9)


class TestInjectNoise:
    def test_zero_target_copies_ground_truth(self):
        samples = [make_sample(i, 0.5, BASE) for i in range(5)]
        noisy = inject_noise(make_bundle(samples), NoiseSpec(0.0, 1))
        for s in noisy.samples:
            assert s.noisy_position == s.gt_position

    def test_ground_truth_untouched(self, small_synthetic_bundle):
        noisy = inject_noise(small_synthetic_bundle, NoiseSpec(1.0, 2))
        for before, after in zip(small_synthetic_bundle.samples, noisy.samples):
            assert after.gt_position == before.gt_position

    def test_empirical_rms(self):
        samples = [make_sample(i, 0.5, BASE) for i in range(20_000)]
        noisy = inject_noise(make_bundle(samples), NoiseSpec(0.5, 3))
        d = [
            geo.haversine_distance(s.gt_position, s.noisy_position)
            for s in noisy.samples
        ]
        rms = math.sqrt(float(np.mean(np.array(d) ** 2)))
        assert abs(rms - 0.5) / 0.5 < 0.02

    def test_seed_determinism(self, small_synthetic_bundle):
        a = inject_noise(small_synthetic_bundle, NoiseSpec(1.0, 9))
        b = inject_noise(small_synthetic_bundle, NoiseSpec(1.0, 9))
        assert a.samples == b.samples

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
        cleaned = remove_outliers(make_bundle(cluster), grid_count=100)
        assert {s.id for s in cleaned.samples} == set(range(10))

    def test_coincident_points_kept(self):
        cluster = _grid_cluster(0, 0.505, [0.0] * 8)
        cleaned = remove_outliers(make_bundle(cluster), grid_count=100)
        assert len(cleaned) == 8

    def test_small_grids_untouched(self):
        cluster = _grid_cluster(0, 0.505, [0.0, 5000.0])
        cleaned = remove_outliers(make_bundle(cluster), grid_count=100)
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
        before = grid.build_grid_table(bundle.samples, "ground_truth", 100)
        cleaned = remove_outliers(bundle, grid_count=100)
        after = grid.build_grid_table(cleaned.samples, "ground_truth", 100)
        assert len(cleaned) < len(bundle)
        for g, cell in after.cells.items():
            assert cell.avg_displacement_m <= before.cells[g].avg_displacement_m + 1e-9

    def test_missing_transmitter_label_rejected(self):
        s = Sample(
            0,
            Direction.LEFT_TO_RIGHT,
            (Detection(DetectionClass.DISTRACTOR, 0.5, 0.5),),
            0,
            BASE,
        )
        with pytest.raises(ValueError, match="sample 0"):
            remove_outliers(make_bundle([s]), grid_count=100)
