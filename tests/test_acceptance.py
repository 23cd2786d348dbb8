"""Acceptance suite: every criterion at its stated tolerance and runtime.

Each test prints one `[acceptance NN] name: PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`). Criteria 5-7 share one trained
pipeline fixture; its scene uses a compact lane (0.11 m grids) so that at
the lowest noise level the lookup table's standard-error floor and the
network's within-grid dispersion floor are of comparable size.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from beamfix import denoise, evaluate, geo, grid, nn, simulate, txid
from beamfix.cli import main
from beamfix.dataset import Direction, inject_noise, split_train_test
from beamfix.geo import EARTH_RADIUS_M, GeoPosition, LocalOffset, NoiseSpec
from beamfix.nn import TrainConfig

from conftest import concat, make_bundle, make_sample

NOISE_LEVELS = (0.1, 0.5, 1.0, 2.0, 3.0)
BASE = GeoPosition(33.42, -111.93)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number:02d}] {name}: {status}{suffix}")


def test_01_geodesic_oracle():
    start = time.perf_counter()
    expected = EARTH_RADIUS_M * math.radians(1.0)  # analytic meridian arc
    got = geo.haversine_distance(0, 0, 1, 0)
    meridian_ok = abs(got - expected) / expected < 1e-9

    rng = np.random.default_rng(11)
    n = 100_000
    lat1, lon1 = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
    lat2, lon2 = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
    symmetry_ok = np.array_equal(
        geo.haversine_m(lat1, lon1, lat2, lon2), geo.haversine_m(lat2, lon2, lat1, lon1)
    )
    zero_ok = bool(np.all(geo.haversine_m(lat1, lon1, lat1, lon1) == 0.0))

    # triangle inequality on random triples inside a 10 km patch
    clat, clon = 40.0, -75.0
    pts = [
        geo.apply_offsets_arrays(
            np.full(n, clat), np.full(n, clon),
            rng.uniform(-5000, 5000, n), rng.uniform(-5000, 5000, n),
        )
        for _ in range(3)
    ]
    d_ab = geo.haversine_m(pts[0][0], pts[0][1], pts[1][0], pts[1][1])
    d_bc = geo.haversine_m(pts[1][0], pts[1][1], pts[2][0], pts[2][1])
    d_ac = geo.haversine_m(pts[0][0], pts[0][1], pts[2][0], pts[2][1])
    triangle_ok = bool(np.all(d_ac <= (d_ab + d_bc) * (1 + 1e-6) + 1e-9))

    elapsed = time.perf_counter() - start
    ok = meridian_ok and symmetry_ok and zero_ok and triangle_ok and elapsed < 1.0
    _report(1, "geodesic oracle", ok, f"meridian {got:.2f} m, {elapsed:.2f} s")
    assert meridian_ok and symmetry_ok and zero_ok and triangle_ok
    assert elapsed < 1.0


def test_02_grid_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    n = 100_000
    xs = rng.uniform(0.0, 1.0, n)
    zs = rng.integers(1, 257, n)
    # sprinkle exact boundaries and the x = 1.0 clamp into the pool
    xs[:500] = 1.0
    xs[500:1000] = np.floor(xs[500:1000] * zs[500:1000]) / zs[500:1000]

    got = np.array([grid.assign_grid(float(x), int(z)) for x, z in zip(xs, zs)])

    # vectorized linear scan over every candidate interval (brute force)
    k = np.arange(257)
    brute = np.empty(n, dtype=int)
    for lo in range(0, n, 10_000):
        sl = slice(lo, lo + 10_000)
        x = xs[sl, None]
        z = zs[sl, None]
        inside = (k[None, :] < z) & (k[None, :] / z <= x) & (x < (k[None, :] + 1) / z)
        brute[sl] = np.argmax(inside, axis=1)
    brute[xs == 1.0] = zs[xs == 1.0] - 1  # clamp: no half-open interval holds 1.0

    elapsed = time.perf_counter() - start
    agree = np.array_equal(got, brute)
    ok = agree and elapsed < 1.0
    _report(2, "grid equivalence", ok, f"{n} cases, {elapsed:.2f} s")
    assert agree
    assert elapsed < 1.0


def test_03_noise_calibration():
    start = time.perf_counter()
    samples = [make_sample(i, 0.5, BASE) for i in range(100_000)]
    bundle = make_bundle(samples)
    worst = 0.0
    for i, level in enumerate(NOISE_LEVELS):
        noisy = inject_noise(bundle, NoiseSpec(level, 900 + i))
        lats = noisy.noisy_lat
        lons = noisy.noisy_lon
        d = geo.haversine_m(BASE.lat_deg, BASE.lon_deg, lats, lons)
        rms = math.sqrt(float(np.mean(d**2)))
        worst = max(worst, abs(rms - level) / level)
    elapsed = time.perf_counter() - start
    ok = worst < 0.02 and elapsed < 5.0
    _report(3, "noise calibration", ok, f"worst rel err {worst:.4f}, {elapsed:.2f} s")
    assert worst < 0.02
    assert elapsed < 5.0


def test_04_gradient_integrity():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(44)
    for dims in ((64, 64, 64, 2), (2, 64, 64, 2)):
        model = nn.init_mlp(dims, rng)
        x = rng.normal(size=(8, dims[0]))
        y = rng.normal(size=(8, dims[-1]))
        worst = max(worst, nn.gradient_check(model, x, y))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _report(4, "gradient integrity", ok, f"max rel err {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-4
    assert elapsed < 10.0


def test_05_transmitter_identification(scene, codebook):
    start = time.perf_counter()
    train_traj = simulate.TrajectoryConfig(1000, Direction.LEFT_TO_RIGHT, 2, seed=51)
    test_traj = simulate.TrajectoryConfig(400, Direction.LEFT_TO_RIGHT, 2, seed=52)
    train_bundle = simulate.generate_scenario(scene, codebook, train_traj, NoiseSpec(0.5, 53))
    test_bundle = simulate.generate_scenario(scene, codebook, test_traj, NoiseSpec(0.5, 54))
    assert train_bundle.metadata.grid_count == 100
    assert train_bundle.metadata.codebook_size == 64

    model = txid.train_txid(train_bundle)
    selected = txid.identify_all(model, test_bundle).selected_index
    correct = int(test_bundle.det_tx[np.arange(len(test_bundle)), selected].sum())
    accuracy = correct / len(test_bundle)
    elapsed = time.perf_counter() - start
    ok = accuracy >= 0.95 and elapsed < 60.0
    _report(5, "transmitter identification", ok, f"accuracy {accuracy:.3f}, {elapsed:.1f} s")
    assert accuracy >= 0.95
    assert elapsed < 60.0


@dataclass(frozen=True)
class DenoiseSuite:
    overall: dict[float, dict[str, float]]
    min_train_per_grid: int
    elapsed_s: float


def _compact_scene() -> simulate.SceneGeometry:
    """Short lane at close standoff: ~0.11 m grid width at Z = 100."""
    bs = GeoPosition(33.4, -111.9)
    return simulate.SceneGeometry(
        bs_position=bs,
        bs_heading_deg=0.0,
        camera_hfov_deg=94.0,
        road=(
            geo.apply_offset(bs, LocalOffset(-4.7, 5.1)),
            geo.apply_offset(bs, LocalOffset(4.7, 5.1)),
        ),
        array_normal_deg=0.0,
    )


@pytest.fixture(scope="module")
def denoise_suite(codebook) -> DenoiseSuite:
    start = time.perf_counter()
    scene = _compact_scene()
    train_traj = simulate.TrajectoryConfig(1300, Direction.LEFT_TO_RIGHT, 2, seed=101)
    test_traj = simulate.TrajectoryConfig(650, Direction.LEFT_TO_RIGHT, 2, seed=102)
    base_train = simulate.generate_scenario(scene, codebook, train_traj, NoiseSpec(0.0, 201))
    base_test = simulate.generate_scenario(scene, codebook, test_traj, NoiseSpec(0.0, 202))

    counts = grid.build_grid_table(base_train, "ground_truth", 100)[0]
    min_per_grid = int(counts.counts.min())
    anchor = grid.build_grid_table(concat(base_train, base_test), "ground_truth", 100)[0]
    txid_model = txid.train_txid(base_train)

    overall: dict[float, dict[str, float]] = {}
    for level in NOISE_LEVELS:
        tr = inject_noise(base_train, NoiseSpec(level, 400 + int(level * 10)))
        te = inject_noise(base_test, NoiseSpec(level, 500 + int(level * 10)))
        centers = txid.identify_all(txid_model, tr).selected_centers
        lut = denoise.build_lut(tr, 100, centers)
        [(den, _)] = denoise.train_denoiser(
            [tr], centers, TrainConfig(epochs=600, batch_size=64, seed=600 + int(level * 10))
        )
        predictions, _ = evaluate.predict_methods(te, txid_model, lut, den)
        overall[level] = evaluate.per_grid_error(te, predictions, anchor).overall
    return DenoiseSuite(overall, min_per_grid, time.perf_counter() - start)


def test_06_denoising_efficacy(denoise_suite):
    rows = denoise_suite.overall
    precondition_ok = denoise_suite.min_train_per_grid >= 10
    below = all(
        rows[lv]["lut"] < rows[lv]["noisy"] and rows[lv]["mlp"] < rows[lv]["noisy"]
        for lv in NOISE_LEVELS
        if lv >= 0.5
    )
    submeter = rows[0.5]["lut"] <= 0.35
    ok = precondition_ok and below and submeter and denoise_suite.elapsed_s < 120.0
    detail = (
        f"lut@0.5 {rows[0.5]['lut']:.3f} m, min/grid {denoise_suite.min_train_per_grid}, "
        f"{denoise_suite.elapsed_s:.1f} s"
    )
    _report(6, "denoising efficacy", ok, detail)
    assert precondition_ok
    assert below
    assert submeter
    assert denoise_suite.elapsed_s < 120.0


def test_07_method_comparability(denoise_suite):
    rows = denoise_suite.overall
    gaps = {
        lv: abs(rows[lv]["lut"] - rows[lv]["mlp"]) / max(rows[lv]["lut"], rows[lv]["mlp"])
        for lv in (0.1, 0.5)
    }
    ok = all(g <= 0.5 for g in gaps.values())
    _report(7, "method comparability", ok, f"rel gap 0.1m {gaps[0.1]:.3f}, 0.5m {gaps[0.5]:.3f}")
    assert gaps[0.1] <= 0.5
    assert gaps[0.5] <= 0.5


def test_08_gaussian_fit_quality(scene, codebook):
    traj = simulate.TrajectoryConfig(4000, Direction.LEFT_TO_RIGHT, 0, seed=801)
    bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.3, 802))
    table = grid.build_grid_table(bundle, "noisy", 100)[0]
    disp = grid.per_sample_displacements(bundle, table, "noisy")
    fit = grid.fit_gaussian(grid.histogram_from_values(disp, 0.05))
    synthetic_ok = fit.adjusted_r_squared >= 0.95

    centers = (np.arange(40) + 0.5) * 0.05
    exact = grid.Histogram(0.05, 80.0 * np.exp(-((centers - 0.9) ** 2) / (2 * 0.25**2)))
    exact_fit = grid.fit_gaussian(exact)
    exact_ok = abs(exact_fit.r_squared - 1.0) < 1e-6

    ok = synthetic_ok and exact_ok
    detail = f"adjusted R^2 {fit.adjusted_r_squared:.4f}, exact R^2 {exact_fit.r_squared:.9f}"
    _report(8, "gaussian fit quality", ok, detail)
    assert synthetic_ok
    assert exact_ok


def test_09_pipeline_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        '{"noise_levels_m": [0.5, 1.0], "samples_left_to_right": 140,\n'
        ' "samples_right_to_left": 110, "epochs": 25, "seed": 99}\n'
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["pipeline", "--config", str(config), "--out", str(out_b)]) == 0

    csvs_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.csv"))
    csvs_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.csv"))
    same_files = csvs_a == csvs_b and len(csvs_a) > 0
    identical = same_files and all(
        (out_a / rel).read_bytes() == (out_b / rel).read_bytes() for rel in csvs_a
    )
    _report(9, "pipeline determinism", identical, f"{len(csvs_a)} CSVs byte-compared")
    assert same_files
    assert identical


def test_10_split_sizes():
    results = {}
    for n in (1353, 1086):
        samples = [make_sample(i, 0.5, BASE) for i in range(n)]
        train, test = split_train_test(make_bundle(samples), 0.7, seed=10)
        results[n] = (len(train), len(test))
    ok = results[1353] == (948, 405) and results[1086] == (761, 325)
    _report(10, "split sizes", ok, f"{results[1353]} and {results[1086]}")
    assert results[1353] == (948, 405)
    assert results[1086] == (761, 325)
