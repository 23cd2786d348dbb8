import json

import numpy as np
import pytest

from beamfix import dataset, geo, grid
from beamfix.dataset import Direction
from beamfix.geo import GeoPosition, LocalOffset, NoiseSpec
from beamfix.simulate import (
    SceneGeometry,
    TrajectoryConfig,
    build_dft_codebook,
    default_scene,
    generate_scenario,
    load_scene,
    project_to_image,
    save_scene,
    select_best_beam,
    steering_vector,
)

from conftest import distance, same_bundle


class TestCodebook:
    def test_single_antenna_is_scalar_one(self):
        cb = build_dft_codebook(1, 8)
        assert np.allclose(cb.weights, 1.0)

    def test_shapes_and_unit_norms(self, codebook):
        assert codebook.weights.shape == (64, 16)
        norms = np.linalg.norm(codebook.weights, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_angles_ordered(self, codebook):
        assert np.all(np.diff(codebook.steering_angles_deg) > 0)

    def test_adjacent_beams_not_identical(self, codebook):
        for q in range(63):
            corr = abs(np.vdot(codebook.weights[q], codebook.weights[q + 1]))
            assert corr < 1.0 - 1e-9

    def test_oversampling_required(self):
        with pytest.raises(ValueError, match="num_beams"):
            build_dft_codebook(16, 8)


class TestSelectBestBeam:
    def test_steering_angle_returns_own_beam(self, codebook):
        for q in range(0, 64, 7):
            angle = float(codebook.steering_angles_deg[q])
            if abs(angle) >= 90.0:
                continue
            assert select_best_beam(codebook, angle) == q

    def test_boresight_picks_nearest_zero_beam(self, codebook):
        # Brute-force oracle over all beams at 0 degrees.
        response = steering_vector(16, 0.0)
        powers = np.abs(codebook.weights.conj() @ response)
        expected = int(np.argmax(powers))
        assert select_best_beam(codebook, 0.0) == expected
        nearest = int(np.argmin(np.abs(codebook.steering_angles_deg)))
        assert expected == nearest

    def test_sweep_monotone(self, codebook):
        # Brute-force sweep oracle: increasing azimuth never decreases the
        # selected index.
        indices = [select_best_beam(codebook, a) for a in np.linspace(-80, 80, 400)]
        assert all(b >= a for a, b in zip(indices, indices[1:]))

    @pytest.mark.parametrize("azimuth", [90.0, -90.0, 120.0])
    def test_behind_array_rejected(self, codebook, azimuth):
        with pytest.raises(ValueError, match="behind"):
            select_best_beam(codebook, azimuth)


class TestProjection:
    def test_boresight_is_center(self, scene):
        target = geo.apply_offset(scene.bs_position, LocalOffset(0.0, 10.0))
        assert abs(project_to_image(scene, target) - 0.5) < 1e-12

    def test_frustum_edge_is_one(self, scene):
        # Target at exactly +hfov/2 (45 deg): equal east and north offsets.
        target = geo.apply_offset(scene.bs_position, LocalOffset(10.0, 10.0))
        x = project_to_image(scene, target)
        assert abs(x - 1.0) < 1e-9

    def test_symmetric_targets_sum_to_one(self, scene):
        left = geo.apply_offset(scene.bs_position, LocalOffset(-7.0, 12.0))
        right = geo.apply_offset(scene.bs_position, LocalOffset(7.0, 12.0))
        total = project_to_image(scene, left) + project_to_image(scene, right)
        assert abs(total - 1.0) < 1e-9

    def test_outside_frustum_rejected(self, scene):
        behind = geo.apply_offset(scene.bs_position, LocalOffset(0.0, -10.0))
        with pytest.raises(ValueError, match="frustum"):
            project_to_image(scene, behind)

    def test_scene_validation_checks_road(self):
        bs = GeoPosition(33.4, -111.9)
        with pytest.raises(ValueError, match="frustum"):
            SceneGeometry(
                bs_position=bs,
                bs_heading_deg=0.0,
                camera_hfov_deg=40.0,
                road=(
                    geo.apply_offset(bs, LocalOffset(-50.0, 10.0)),
                    geo.apply_offset(bs, LocalOffset(50.0, 10.0)),
                ),
                array_normal_deg=0.0,
            )

    def test_scene_json_round_trip(self, scene, tmp_path):
        save_scene(scene, tmp_path / "scene.json")
        assert load_scene(tmp_path / "scene.json") == scene

    @pytest.mark.parametrize("which", ["default", "hand-made"])
    def test_scene_json_keys_and_bytes(self, tmp_path, which):
        # A scene is written as asdict(scene): the same keys and bytes as the
        # dict once built by hand.
        bs = GeoPosition(-12.5, 130.25)
        scene = default_scene() if which == "default" else SceneGeometry(
            bs_position=bs,
            bs_heading_deg=20.0,
            camera_hfov_deg=80.5,
            road=(geo.apply_offset(bs, LocalOffset(-3.0, 20.0)),
                  geo.apply_offset(bs, LocalOffset(9.0, 14.0))),
            array_normal_deg=15.0,
        )
        save_scene(scene, tmp_path / "scene.json")
        dataset.write_json(tmp_path / "by_hand.json", {
            "bs_position": {"lat_deg": scene.bs_position.lat_deg,
                            "lon_deg": scene.bs_position.lon_deg},
            "bs_heading_deg": scene.bs_heading_deg,
            "camera_hfov_deg": scene.camera_hfov_deg,
            "road": [{"lat_deg": p.lat_deg, "lon_deg": p.lon_deg} for p in scene.road],
            "array_normal_deg": scene.array_normal_deg,
        })
        written = (tmp_path / "scene.json").read_bytes()
        assert written == (tmp_path / "by_hand.json").read_bytes()
        doc = json.loads(written)
        assert sorted(doc) == ["array_normal_deg", "bs_heading_deg", "bs_position",
                               "camera_hfov_deg", "road"]
        assert [sorted(p) for p in doc["road"]] == [["lat_deg", "lon_deg"]] * 2
        assert load_scene(tmp_path / "scene.json") == scene


class TestGenerateScenario:
    def test_single_sample_single_tx(self, scene, codebook):
        traj = TrajectoryConfig(1, Direction.LEFT_TO_RIGHT, 0, seed=1)
        bundle = generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 2))
        assert len(bundle) == 1
        assert bundle.det_count[0] == 1
        assert bundle.det_tx[0, 0]

    def test_zero_noise_copies_ground_truth(self, scene, codebook):
        traj = TrajectoryConfig(20, Direction.LEFT_TO_RIGHT, 2, seed=3)
        bundle = generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 4))
        assert np.array_equal(bundle.noisy_lat, bundle.gt_lat)
        assert np.array_equal(bundle.noisy_lon, bundle.gt_lon)

    def test_left_to_right_strictly_increasing_x(self, scene, codebook):
        traj = TrajectoryConfig(200, Direction.LEFT_TO_RIGHT, 1, seed=5)
        bundle = generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 6))
        xs = dataset.tx_centers(bundle)[:, 0].tolist()
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_right_to_left_strictly_decreasing_x(self, scene, codebook):
        traj = TrajectoryConfig(100, Direction.RIGHT_TO_LEFT, 0, seed=7)
        bundle = generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 8))
        xs = dataset.tx_centers(bundle)[:, 0].tolist()
        assert all(b < a for a, b in zip(xs, xs[1:]))

    def test_beam_monotone_in_x(self, scene, codebook):
        # Learnability premise: over a traversal the beam index is a
        # monotone function of the transmitter's image x.
        traj = TrajectoryConfig(400, Direction.LEFT_TO_RIGHT, 0, seed=9)
        bundle = generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 10))
        beams = bundle.beams.tolist()
        assert all(b >= a for a, b in zip(beams, beams[1:]))

    def test_every_sample_assigns_to_a_grid(self, scene, codebook):
        traj = TrajectoryConfig(150, Direction.LEFT_TO_RIGHT, 2, seed=11)
        bundle = generate_scenario(scene, codebook, traj, NoiseSpec(0.3, 12))
        for z in (1, 7, 100):
            for x in dataset.tx_centers(bundle)[:, 0].tolist():
                g = grid.assign_grid(x, z)
                assert 0 <= g < z

    def test_bit_identical_reruns(self, scene, codebook):
        traj = TrajectoryConfig(50, Direction.LEFT_TO_RIGHT, 3, seed=13)
        a = generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 14))
        b = generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 14))
        assert same_bundle(a, b)

    def test_distractor_count(self, scene, codebook):
        traj = TrajectoryConfig(10, Direction.LEFT_TO_RIGHT, 4, seed=15)
        bundle = generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 16))
        assert bundle.det_count.tolist() == [5] * len(bundle)
        assert bundle.det_tx.sum(axis=1).tolist() == [1] * len(bundle)

    def test_default_scene_grid_width(self, scene):
        # Lane span divided by 100 grids should sit near 0.26 m.
        span = distance(scene.road[0], scene.road[1])
        x_lo = project_to_image(scene, scene.road[0])
        x_hi = project_to_image(scene, scene.road[1])
        width = span / ((x_hi - x_lo) * 100)
        assert 0.2 <= width <= 0.3
