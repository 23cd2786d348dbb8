"""Grid assignment and grouping, per-key tables, per-grid GPS error statistics, Gaussian fitting.

The normalized image width is divided into Z equal vertical grids. A
sample belongs to the grid containing the x-center of its transmitter
detection. ``group_by_grid`` and the per-grid builder ``grid_table`` are
the one grid layer that outlier removal, the lookup table and evaluation
share. Every table is a ``KeyedTable``: ascending keys (grids, or stage 1's
beams), their counts and (k, 2) means as columns, plus each grid's average
displacement from its mean (the site-specific error measure) in the
per-grid table. One spec-driven CSV writer and reader store every table,
and ``lookup`` is the one read, with the nearest-key fallback for a key
the table lacks. A histogram and a Gaussian fit summarize the displacements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import dataset, geo
from .dataset import COUNTS, INTEGERS, DatasetFormatError, PositionSelector, refuse_rows

if TYPE_CHECKING:
    from .dataset import DatasetBundle


class FitConvergenceError(RuntimeError):
    """Gaussian fit failed to converge."""


def _snap(g, x, grid_count: int):
    """Nudge g = min(floor(Z*x), Z-1) onto g/Z <= x < (g+1)/Z, for ints or int arrays.

    The float product can land boundary values one cell off, never more.
    """
    g = g + ((g + 1 < grid_count) & ((g + 1) / grid_count <= x))
    return g - ((g > 0) & (g / grid_count > x))


def assign_grids(x_centers, grid_count: int) -> np.ndarray:
    """Grid index g with g/Z <= x < (g+1)/Z for every x; x == 1 maps to Z-1."""
    if grid_count < 1:
        raise ValueError(f"grid_count must be >= 1, got {grid_count}")
    x = np.asarray(x_centers, dtype=float)
    outside = ~((x >= 0.0) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"x_center {x[outside].flat[0]} outside [0, 1]")
    g = np.minimum(np.floor(grid_count * x).astype(np.int64), grid_count - 1)
    return _snap(g, x, grid_count)


def assign_grid(x_center: float, grid_count: int) -> int:
    """assign_grids for one x-center, without the array round trip."""
    if grid_count < 1:
        raise ValueError(f"grid_count must be >= 1, got {grid_count}")
    if not 0.0 <= x_center <= 1.0:
        raise ValueError(f"x_center {x_center} outside [0, 1]")
    return _snap(min(math.floor(grid_count * x_center), grid_count - 1), x_center, grid_count)


def group_by_grid(x_centers, grid_count: int) -> dict[int, np.ndarray]:
    """Indices of the x-centers in each populated grid, in input order; grids ascending."""
    grids = assign_grids(x_centers, grid_count)
    order = np.argsort(grids, kind="stable")
    keys, starts = np.unique(grids[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(order, starts[1:])))


def nearest_row(keys: np.ndarray, queries) -> np.ndarray:
    """Row in the ascending ``keys`` of the key nearest each query (an int or an
    array), ties to the lower key: the fallback for any grid or beam a table lacks."""
    if not len(keys):
        raise ValueError("no populated keys to fall back to")
    keys = np.asarray(keys, dtype=np.int64)
    q = np.asarray(queries, dtype=np.int64)
    above = np.minimum(np.searchsorted(keys, q), len(keys) - 1)  # first key >= q, else the last
    below = np.maximum(above - 1, 0)
    return np.where(np.abs(keys[above] - q) < np.abs(q - keys[below]), above, below)


class KeyedTable(NamedTuple):
    """Per-key statistics over the populated keys, as columns; keys without rows are absent."""

    key_count: int  # keys lie in [0, key_count): the grid count, or the codebook size
    keys: np.ndarray  # (k,) populated keys, ascending
    counts: np.ndarray  # (k,) samples per key
    means: np.ndarray  # (k, 2) mean lat/lon per grid, or mean x/y center per beam
    avg_displacement_m: np.ndarray | None = None  # (k,) per-grid only: members' distance from it


def lookup(table: KeyedTable, queries) -> tuple[np.ndarray, np.ndarray]:
    """Each query key's mean row (for an int query, one row), and whether the key
    has its own row; a key without one takes the nearest key's, ties to the lower."""
    rows = nearest_row(table.keys, queries)
    return table.means[rows], table.keys[rows] == queries


def grid_table(
    x_centers, lats: np.ndarray, lons: np.ndarray, grid_count: int
) -> tuple[KeyedTable, np.ndarray]:
    """Per-grid statistics of positions grouped by x-center, and each row's displacement.

    Per populated grid: the member count, geo.mean_position of the members'
    positions in input order, and their average haversine displacement from
    that mean. The second value is each input row's displacement from its
    grid's mean, in input order.
    """
    groups = group_by_grid(x_centers, grid_count)
    members = list(groups.values())
    means = np.array([astuple(geo.mean_position(lats[i], lons[i])) for i in members]).reshape(-1, 2)
    row = np.empty(len(lats), dtype=np.int64)
    for r, idx in enumerate(members):
        row[idx] = r
    displacement = geo.haversine_m(means[row, 0], means[row, 1], lats, lons)
    counts = np.array([len(idx) for idx in members], dtype=np.int64)
    avg = np.array([displacement[idx].mean() for idx in members], dtype=float)
    table = KeyedTable(grid_count, np.array(list(groups), dtype=np.int64), counts, means, avg)
    return table, displacement


def build_grid_table(
    bundle: "DatasetBundle", selector: PositionSelector, grid_count: int
) -> tuple[KeyedTable, np.ndarray]:
    """grid_table of a bundle's selected positions, by labeled transmitter x-center.

    Samples are processed in id order, so the table is independent of the
    row order, and the displacements come in id order.
    """
    ordered = bundle.take(np.argsort(bundle.ids, kind="stable"))
    x = dataset.tx_centers(ordered)[:, 0]
    return grid_table(x, *dataset.positions(ordered, selector), grid_count)


def per_sample_displacements(
    bundle: "DatasetBundle", table: KeyedTable, selector: PositionSelector
) -> np.ndarray:
    """Each sample's haversine distance to its own grid's mean, in id order."""
    ordered = bundle.take(np.argsort(bundle.ids, kind="stable"))
    grids = assign_grids(dataset.tx_centers(ordered)[:, 0], table.key_count)
    means, own = lookup(table, grids)
    if not own.all():
        i = int(own.argmin())
        raise ValueError(f"sample {ordered.ids[i]}: grid {grids[i]} is not populated in the table")
    return geo.haversine_m(means[:, 0], means[:, 1], *dataset.positions(ordered, selector))


@dataclass(frozen=True)
class Histogram:
    """Fixed-width bins starting at 0; bin k covers [k*w, (k+1)*w)."""

    bin_width_m: float
    counts: np.ndarray

    def bin_centers(self) -> np.ndarray:
        return (np.arange(len(self.counts)) + 0.5) * self.bin_width_m

    def bin_starts(self) -> np.ndarray:
        return np.arange(len(self.counts)) * self.bin_width_m


# Most bins a histogram may lay out: 5 km at 0.05 m. Bins run from 0 to the
# largest value, so one far-off GPS fix would otherwise size the table.
MAX_HISTOGRAM_BINS = 100_000


def histogram_from_values(values: Sequence[float], bin_width_m: float) -> Histogram:
    """Bin nonnegative values into fixed-width bins starting at 0."""
    if not (math.isfinite(bin_width_m) and bin_width_m > 0):
        raise ValueError(f"bin_width_m must be finite and > 0, got {bin_width_m}")
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("cannot build a histogram from zero values")
    if np.any(vals < 0):
        raise ValueError("displacement values must be nonnegative")
    # Python floats: their quotient for a subnormal width is inf, without numpy's overflow warning.
    largest = float(vals.max())
    if not largest / float(bin_width_m) < MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"largest value {largest} m at bin width {bin_width_m} m needs more than "
            f"{MAX_HISTOGRAM_BINS} histogram bins"
        )
    idx = np.floor(vals / bin_width_m).astype(int)
    counts = np.bincount(idx, minlength=int(idx.max()) + 1).astype(float)
    return Histogram(bin_width_m, counts)


def displacement_histogram(table: KeyedTable, bin_width_m: float) -> Histogram:
    """Histogram of the per-grid average displacements over populated grids."""
    if not len(table.keys):
        raise ValueError("grid table has no populated grids")
    return histogram_from_values(table.avg_displacement_m, bin_width_m)


@dataclass(frozen=True)
class GaussianFit:
    amplitude: float
    mean_m: float
    sigma_m: float
    r_squared: float
    adjusted_r_squared: float
    iterations: int


def _gauss(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, mu, sigma = params
    return a * np.exp(-((x - mu) ** 2) / (2.0 * sigma**2))


def _gauss_jacobian(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, mu, sigma = params
    e = np.exp(-((x - mu) ** 2) / (2.0 * sigma**2))
    return np.column_stack(
        [e, a * e * (x - mu) / sigma**2, a * e * (x - mu) ** 2 / sigma**3]
    )


# Most damped Gauss-Newton iterations fit_gaussian takes before it gives up.
GAUSSIAN_MAX_ITERATIONS = 200


def fit_gaussian(histogram: Histogram) -> GaussianFit:
    """Least-squares Gaussian fit of a displacement histogram.

    Fits A * exp(-(x - mu)^2 / (2 sigma^2)) to bin centers and counts with
    a damped Gauss-Newton iteration (moment-based start, Levenberg damping
    so the residual never increases, stop when the relative SSE change
    drops below 1e-10). Reports R^2 and the 3-parameter adjusted R^2.
    """
    y = np.asarray(histogram.counts, dtype=float)
    if np.count_nonzero(y) < 4:
        raise ValueError(
            f"need at least 4 nonzero bins to fit 3 parameters, got {np.count_nonzero(y)}"
        )
    x = histogram.bin_centers()
    total = y.sum()
    mu0 = float((x * y).sum() / total)
    var0 = float((y * (x - mu0) ** 2).sum() / total)
    if var0 <= 0.0:
        raise ValueError("degenerate histogram: all mass in one bin")
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        raise ValueError("degenerate histogram: all bins identical")

    params = np.array([float(y.max()), mu0, math.sqrt(var0)])
    sse = float(((y - _gauss(params, x)) ** 2).sum())
    lam = 1e-3
    iterations = 0
    for iterations in range(1, GAUSSIAN_MAX_ITERATIONS + 1):
        residual = y - _gauss(params, x)
        jac = _gauss_jacobian(params, x)
        jtj = jac.T @ jac
        jtr = jac.T @ residual
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.eye(3), jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = params + step
            if candidate[2] <= 0.0:
                lam *= 10.0
                continue
            cand_sse = float(((y - _gauss(candidate, x)) ** 2).sum())
            if cand_sse <= sse:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            raise FitConvergenceError(
                f"damping exhausted after {iterations} iterations (SSE {sse:.6g})"
            )
        params = candidate
        lam = max(lam / 10.0, 1e-12)
        converged = sse == 0.0 or (sse - cand_sse) / sse < 1e-10
        sse = cand_sse
        if converged or sse == 0.0:
            break
    else:
        raise FitConvergenceError(
            f"no convergence within {GAUSSIAN_MAX_ITERATIONS} iterations (SSE {sse:.6g})"
        )

    n = len(y)
    r2 = 1.0 - sse / sst
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / (n - 3 - 1)
    return GaussianFit(
        amplitude=float(params[0]),
        mean_m=float(params[1]),
        sigma_m=float(params[2]),
        r_squared=r2,
        adjusted_r_squared=adjusted,
        iterations=iterations,
    )


# Column spec of the per-grid table CSV; the lookup table's is its first four.
GRID_TABLE_COLUMNS = (
    ("grid", INTEGERS),
    ("count", COUNTS),
    ("mean_lat", dataset.floats(-90.0, 90.0)),
    ("mean_lon", dataset.floats(-180.0, 180.0)),
    ("avg_displacement_m", dataset.floats(0.0, sys.float_info.max)),
)


def save_table_csv(
    table: KeyedTable, path: str | Path, columns: Sequence[tuple[str, dataset.ColumnParser]]
) -> None:
    """Write a table under ``columns``' names: key, count, the two mean columns,
    then avg_displacement_m if there is a fifth column."""
    values = (table.keys, table.counts, *table.means.T, table.avg_displacement_m)
    rows = zip(*(column.tolist() for column in values[: len(columns)]))
    dataset.write_table_csv(path, [name for name, _ in columns], rows)


def load_table_csv(
    path: str | Path, columns: Sequence[tuple[str, dataset.ColumnParser]], key_count: int
) -> KeyedTable:
    """The table save_table_csv wrote under ``columns``, rows sorted by the key
    column, which must hold each key in [0, key_count) at most once, in at
    least one row. Every row must have one cell per column; see dataset.read_csv."""
    names = [name for name, _ in columns]
    key = names[0]

    def parse(cells: list[tuple[str, ...]], widths: np.ndarray) -> list[np.ndarray]:
        refuse_rows(widths != len(names), lambda i: f"{widths[i]} cells, expected {len(names)}")
        every = np.ones(len(widths), dtype=bool)
        parsed = [parse_column(c, name, every) for (name, parse_column), c in zip(columns, cells)]
        keys = parsed[0]
        outside = (keys < 0) | (keys >= key_count)
        refuse_rows(outside, lambda i: f"column '{key}': {keys[i]} outside [0, {key_count})")
        return parsed

    def key_sorted(parsed: list[np.ndarray]) -> list[np.ndarray]:
        keys = parsed[0]
        repeated = np.ones(len(keys), dtype=bool)
        repeated[np.unique(keys, return_index=True)[1]] = False
        refuse_rows(repeated, lambda i: f"column '{key}': {key} {keys[i]} repeated")
        order = np.argsort(keys)
        return [column[order] for column in parsed]

    keys, counts, a, b, *rest = dataset.read_csv(path, lambda width: names, parse, key_sorted)
    if not len(keys):
        raise DatasetFormatError(f"{path}: no {key} rows")
    return KeyedTable(key_count, keys, counts, np.column_stack([a, b]), *rest)


def save_grid_table_csv(table: KeyedTable, path: str | Path) -> None:
    save_table_csv(table, path, GRID_TABLE_COLUMNS)


def load_grid_table_csv(path: str | Path, grid_count: int) -> KeyedTable:
    return load_table_csv(path, GRID_TABLE_COLUMNS, grid_count)


def save_histogram_csv(histogram: Histogram, path: str | Path) -> None:
    rows = zip(histogram.bin_starts().tolist(), histogram.counts.tolist())
    dataset.write_table_csv(path, ("bin_start_m", "count"), rows)
