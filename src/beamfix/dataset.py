"""Columnar capture datasets, CSV serialization, splitting, and noise injection.

A dataset is one ``DatasetBundle`` of equal-length columns, one row per
capture instant: the sample id, the serving beam index, the ground-truth
position, an optional noise-corrupted position, and the detected objects
in the camera frame, padded to the widest row. A bundle checks all its
columns once, vectorized; bundles are immutable.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from . import geo
from .geo import NoiseSpec


class Direction(Enum):
    """Travel direction of the transmitter through the scene."""

    LEFT_TO_RIGHT = "L2R"
    RIGHT_TO_LEFT = "R2L"


class DetectionClass(Enum):
    TRANSMITTER = "TX"
    DISTRACTOR = "DISTRACTOR"


class DatasetFormatError(ValueError):
    """An input file violates its format or a field is out of range."""


class RowError(ValueError):
    """Row ``index`` of a bundle or a dataset file fails a check, for reason ``why``."""

    def __init__(self, message: str, index: int, why: str):
        super().__init__(message)
        self.index = index
        self.why = why


def _refuse(bad: np.ndarray, why: Callable[[int], str], ids: np.ndarray | None = None) -> None:
    """Raise RowError for the first row i flagged in ``bad``; given the sample
    ``ids``, its message names the sample: 'sample <id>: <why(i)>'."""
    if bad.any():
        i = int(np.argmax(bad))
        raise RowError(why(i) if ids is None else f"sample {ids[i]}: {why(i)}", i, why(i))


PositionSelector = Literal["ground_truth", "noisy"]


@dataclass(frozen=True, slots=True)
class DatasetMeta:
    grid_count: int = 100
    codebook_size: int = 64
    noise_rms_m: float = 0.0
    seed: int = 0
    direction: Direction = Direction.LEFT_TO_RIGHT
    source: str = ""


# Each bundle column's dtype; the det_tx, det_x and det_y columns are (rows, slots).
_COLUMNS = {
    "ids": np.int64, "beams": np.int64, "gt_lat": np.float64, "gt_lon": np.float64,
    "noisy_lat": np.float64, "noisy_lon": np.float64,
    "det_tx": bool, "det_x": np.float64, "det_y": np.float64, "det_count": np.int64,
}


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    """One direction's capture samples as columns, plus their metadata.

    Row i is one capture. Its first ``det_count[i]`` detection slots are real;
    padding reads False and NaN. NaN noisy lat/lon mean that the row has no
    noisy fix. Columns are read-only copies; errors name the sample id.
    """

    ids: np.ndarray
    beams: np.ndarray
    gt_lat: np.ndarray
    gt_lon: np.ndarray
    noisy_lat: np.ndarray
    noisy_lon: np.ndarray
    det_tx: np.ndarray
    det_x: np.ndarray
    det_y: np.ndarray
    det_count: np.ndarray
    metadata: DatasetMeta

    def __post_init__(self) -> None:
        columns = {name: np.array(getattr(self, name), dtype) for name, dtype in _COLUMNS.items()}
        n = len(columns["ids"])
        k = columns["det_x"].shape[1] if columns["det_x"].ndim == 2 else 0
        for name, values in columns.items():
            shape, expected = values.shape, (n, k) if name in ("det_tx", "det_x", "det_y") else (n,)
            if shape != expected:
                raise ValueError(f"column '{name}' has shape {shape}, expected {expected}")
        real = np.arange(k) < columns["det_count"][:, None]
        columns["det_tx"] &= real
        columns["det_x"][~real] = columns["det_y"][~real] = np.nan
        for name, values in columns.items():
            values.flags.writeable = False
            object.__setattr__(self, name, values)

        def refuse(bad, why):
            _refuse(bad, why, self.ids)

        repeated = np.ones(n, dtype=bool)
        repeated[np.unique(self.ids, return_index=True)[1]] = False
        refuse(repeated, lambda i: "id repeated; sample ids must be unique within a bundle")
        count, n_tx = self.det_count, self.det_tx.sum(axis=1)
        refuse(count < 1, lambda i: "needs at least one detection")
        refuse(count > k, lambda i: f"{count[i]} detections in {k} slots")
        refuse(n_tx > 1, lambda i: f"{n_tx[i]} transmitter detections, at most 1 allowed")
        q = self.metadata.codebook_size
        refuse(self.beams < 0, lambda i: f"negative beam index {self.beams[i]}")
        refuse(self.beams >= q, lambda i: f"beam index {self.beams[i]} outside [0, {q - 1}]")
        noisy = ~(np.isnan(self.noisy_lat) & np.isnan(self.noisy_lon))
        for kind, rows, lat, lon in (
            ("gt", True, self.gt_lat, self.gt_lon), ("noisy", noisy, self.noisy_lat, self.noisy_lon)
        ):
            for name, values, limit in (("latitude", lat, 90), ("longitude", lon, 180)):
                refuse(  # NaN is never in range
                    rows & ~((values >= -limit) & (values <= limit)),
                    lambda i: f"{kind} position: {name} {values[i]} outside [-{limit}, {limit}]",
                )
        for axis, centers in (("x", self.det_x), ("y", self.det_y)):
            cells = real & ~((centers >= 0.0) & (centers <= 1.0))
            refuse(
                cells.any(axis=1),
                lambda i: f"det{cells[i].argmax()}: {axis}_center {centers[i][cells[i]][0]} "
                "outside [0, 1]",
            )

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> DatasetBundle:
        """The bundle of the given row indices (or row mask), in that order."""
        return replace(self, **{name: getattr(self, name)[rows] for name in _COLUMNS})


def tx_centers(bundle: DatasetBundle) -> np.ndarray:
    """(n, 2) transmitter x/y centers in row order; raises naming a sample without one."""
    _refuse(~bundle.det_tx.any(axis=1), lambda i: "no transmitter detection", bundle.ids)
    rows, slots = np.nonzero(bundle.det_tx)  # one transmitter per row, in row order
    return np.column_stack([bundle.det_x[rows, slots], bundle.det_y[rows, slots]])


def positions(bundle: DatasetBundle, selector: PositionSelector) -> tuple[np.ndarray, np.ndarray]:
    """Latitudes and longitudes of each row's ground-truth or noisy position."""
    if selector != "noisy":
        return bundle.gt_lat, bundle.gt_lon
    _refuse(np.isnan(bundle.noisy_lat), lambda i: "no noisy position", bundle.ids)
    return bundle.noisy_lat, bundle.noisy_lon


def write_table_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then the data rows; str() of a Python float round-trips exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table_csv(
    path: str | Path, columns: Sequence[tuple[str, Callable[[str], object]]]
) -> list[tuple[int, list]]:
    """(data row number, parsed cells) for each non-blank row of a write_table_csv file.

    The header must name ``columns`` exactly; each cell goes through its
    column's parser. Errors name the file, the row and the column.
    """
    header = [name for name, _ in columns]
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None:
            raise DatasetFormatError(f"{path}: empty file: missing header row")
        if found != header:
            raise DatasetFormatError(f"{path}: header mismatch: expected {header}, got {found}")
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(columns):
                raise DatasetFormatError(
                    f"{path}: row {row_num}: {len(row)} cells, expected {len(columns)}"
                )
            cells = []
            for (name, parse), raw in zip(columns, row):
                try:
                    cells.append(parse(raw))
                except ValueError as exc:
                    raise DatasetFormatError(
                        f"{path}: row {row_num}: column '{name}': {exc}"
                    ) from None
            rows.append((row_num, cells))
    return rows


# Largest grid count and codebook size a sidecar, manifest or run config may
# declare. A million grids is finer than any camera's pixel columns; a
# codebook of 4096 beams is far finer than any array steers.
MAX_GRID_COUNT = 1_000_000
MAX_CODEBOOK_SIZE = 4096


def json_int(raw) -> int:
    """A JSON integer; booleans and fractional numbers are refused, 100.0 reads as 100."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    raise ValueError(f"expected an integer, got {raw!r}")


def json_float(raw) -> float:
    """A finite JSON number; booleans and strings are refused."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and math.isfinite(raw):
        return float(raw)
    raise ValueError(f"expected a finite number, got {raw!r}")


def json_str(raw) -> str:
    """A JSON string."""
    if isinstance(raw, str):
        return raw
    raise ValueError(f"expected a string, got {raw!r}")


def count_in(high: int) -> Callable[[object], int]:
    """Parser for a JSON integer count in [1, high]."""

    def parse(raw) -> int:
        value = json_int(raw)
        if not 1 <= value <= high:
            raise ValueError(f"{value} outside [1, {high}]")
        return value

    return parse


def write_json(path: str | Path, doc, indent: int | None = 2) -> None:
    """Write a JSON document with sorted keys and a trailing newline; indent None is compact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    """The JSON object a file holds; errors name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object")
    return doc


def json_field(doc: dict, path: str | Path, key: str, parse: Callable = lambda raw: raw):
    """The value at a dotted key (a numeric part indexes a list) of a read_json document, parsed.

    Errors name the file and the key: ``<file>: missing key '<k>'`` or
    ``<file>: key '<k>': <why>``.
    """
    value = doc
    parts = key.split(".")
    for depth, part in enumerate(parts, 1):
        if isinstance(value, list) and part.isdecimal() and int(part) < len(value):
            part = int(part)
        elif not isinstance(value, dict) or part not in value:
            raise DatasetFormatError(f"{path}: missing key '{'.'.join(parts[:depth])}'")
        value = value[part]
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"{path}: key '{key}': {exc}") from None


def float_cell(low: float, high: float) -> Callable[[str], float]:
    """Cell parser for a float in [low, high]; NaN is never in range."""

    def parse(raw: str) -> float:
        value = float(raw)
        if not low <= value <= high:
            raise ValueError(f"{raw!r} outside [{low}, {high}]")
        return value

    return parse


def count_cell(raw: str) -> int:
    """Cell parser for a row count: an integer in [1, 2**63 - 1], so it fits an int64."""
    value = int(raw)
    if not 1 <= value < 2**63:
        raise ValueError(f"{raw!r} outside [1, {2**63 - 1}]")
    return value


_BASE_COLUMNS = [
    "id", "direction", "beam_index",
    "gt_lat", "gt_lon", "noisy_lat", "noisy_lon", "num_detections",
]


def _header(slots: int) -> list[str]:
    """A dataset CSV's header: the base columns, then class, x and y per detection slot."""
    return _BASE_COLUMNS + [f"det{j}_{f}" for j in range(slots) for f in ("class", "x", "y")]


def _meta_path(path: Path) -> Path:
    return Path(str(path) + ".meta.json")


def save_csv(bundle: DatasetBundle, path: str | Path) -> None:
    """Write a bundle to CSV plus a metadata sidecar.

    Floats are serialized with repr (shortest exact round-trip), so
    load_csv(save_csv(b)) reproduces every column bit for bit. Rows are
    padded with empty cells up to the widest detection list in the file,
    and a row without a noisy fix leaves both noisy cells empty.
    """
    path = Path(path)
    k = int(bundle.det_count.max(initial=0))
    header = _header(k)
    cells = np.empty((len(bundle), len(header)), dtype=object)
    b = bundle  # the base columns, then the detection class, x and y every third column
    for c, column in enumerate((
        b.ids, b.metadata.direction.value, b.beams, b.gt_lat, b.gt_lon, b.noisy_lat, b.noisy_lon,
        b.det_count, np.where(b.det_tx, "TX", "DISTRACTOR")[:, :k], b.det_x[:, :k], b.det_y[:, :k],
    )):
        cells[:, c if c < 8 else slice(c, None, 3)] = column
    cells[np.isnan(b.noisy_lat), 5:7] = ""
    cells[:, 8:][np.repeat(np.arange(k) >= b.det_count[:, None], 3, axis=1)] = ""
    write_table_csv(path, header, cells.tolist())
    meta = bundle.metadata
    write_json(_meta_path(path), {**asdict(meta), "direction": meta.direction.value})


# Every key the sidecar must hold, with the parser for its value.
_META_FIELDS = (
    ("grid_count", count_in(MAX_GRID_COUNT)),
    ("codebook_size", count_in(MAX_CODEBOOK_SIZE)),
    ("noise_rms_m", json_float),
    ("seed", json_int),
    ("direction", Direction),
    ("source", json_str),
)


def load_csv(path: str | Path) -> DatasetBundle:
    """Read a bundle from CSV, enforcing the schema and all field invariants.

    Errors name the file, and carry the 1-based data row number and the
    offending field. Metadata comes from the ``<file>.meta.json`` sidecar
    when present; otherwise defaults are inferred (direction from the rows,
    codebook size from the largest beam index rounded up to 64).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetFormatError(f"{path}: empty file: missing header row")
        expected = _header((len(header) - len(_BASE_COLUMNS)) // 3)
        if header != expected:
            raise DatasetFormatError(f"{path}: header mismatch: expected {expected}, got {header}")
        rows = list(reader)
    nonblank = np.fromiter(map(len, rows), bool, len(rows))
    row_nums = np.flatnonzero(nonblank) + 1
    try:
        directions, columns = _parse_rows(list(itertools.compress(rows, nonblank)), len(header))
        return DatasetBundle(**columns, metadata=_dataset_meta(path, directions, columns["beams"]))
    except RowError as exc:
        raise DatasetFormatError(f"{path}: row {row_nums[exc.index]}: {exc.why}") from None


def _unparseable(kind: type, raw: str) -> bool:
    try:
        value = np.array(kind(raw), np.int64 if kind is int else np.float64)
    except (ValueError, OverflowError):
        return True
    return bool(np.isnan(value))


def _numbers(cells: Sequence[str], field: str, kind: type, rows: np.ndarray) -> np.ndarray:
    """The cells in the ``rows`` mask through int() or float(), as int64 or float64
    (others read 0 or NaN); NaN and ints beyond int64 raise RowError naming the row."""
    dtype = np.int64 if kind is int else np.float64
    values = np.full(len(rows), 0 if kind is int else np.nan, dtype)
    try:
        values[rows] = np.fromiter(map(kind, itertools.compress(cells, rows)), dtype, rows.sum())
        if not np.isnan(values[rows]).any():
            return values
    except (ValueError, OverflowError):
        pass
    bad = np.zeros(len(rows), dtype=bool)
    bad[rows] = [_unparseable(kind, cells[i]) for i in np.flatnonzero(rows)]
    what = "an integer" if kind is int else "a number"
    _refuse(bad, lambda i: f"field '{field}': not {what}: {cells[i]!r}")
    return values  # unreachable: a cell was refused


def _one_of(cells: Sequence[str], field: str, enum_cls, rows: np.ndarray) -> np.ndarray:
    """The cells as a str array; each in the ``rows`` mask must be a value of ``enum_cls``."""
    values = np.array(cells, dtype=str)
    allowed = [e.value for e in enum_cls]
    bad = rows & ~np.isin(values, allowed)
    _refuse(bad, lambda i: f"field '{field}': {cells[i]!r} not one of {'/'.join(allowed)}")
    return values


def _parse_rows(rows: list[list[str]], columns: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Each row's direction cell, and the bundle columns of rows at most ``columns``
    cells wide; checks each field's type (the bundle checks values) and raises
    RowError naming the field."""
    n = len(rows)
    width = np.fromiter(map(len, rows), np.int64, n)
    _refuse(width < 8, lambda i: f"only {width[i]} cells, expected at least 8")
    _refuse(width > columns, lambda i: f"{width[i]} cells, but the header has {columns}")
    cells = list(itertools.zip_longest(*rows, fillvalue="")) or [()] * 8
    filled = np.array([np.fromiter(map(bool, c), bool, n) for c in cells], bool)
    filled = filled.reshape(len(cells), n).T
    every, noisy = np.ones(n, dtype=bool), filled[:, 5] | filled[:, 6]
    directions = _one_of(cells[1], "direction", Direction, every)
    columns = {
        key: _numbers(cells[c], _BASE_COLUMNS[c], kind, noisy if c in (5, 6) else every)
        for c, key, kind in (
            (0, "ids", int), (2, "beams", int), (3, "gt_lat", float), (4, "gt_lon", float),
            (5, "noisy_lat", float), (6, "noisy_lon", float), (7, "det_count", int),
        )
    }
    count = columns["det_count"]
    _refuse(
        count > (width - 8) // 3,
        lambda i: f"{count[i]} detections declared but row has {width[i]} cells",
    )
    _refuse(
        (filled[:, 8:] & (np.arange(len(cells) - 8) // 3 >= count[:, None])).any(axis=1),
        lambda i: f"unexpected non-empty cell beyond {count[i]} detections",
    )
    slots = range(max(int(count.max(initial=0)), 0))
    columns["det_tx"] = np.array([
        _one_of(cells[8 + 3 * j], f"det{j}_class", DetectionClass, count > j) == "TX"
        for j in slots
    ], bool).reshape(len(slots), n).T
    for f, axis in ((1, "x"), (2, "y")):
        columns[f"det_{axis}"] = np.array([
            _numbers(cells[8 + 3 * j + f], f"det{j}_{axis}", float, count > j) for j in slots
        ]).reshape(len(slots), n).T
    return directions, columns


def _dataset_meta(path: Path, directions: np.ndarray, beams: np.ndarray) -> DatasetMeta:
    """The sidecar's metadata, which each row's direction must match (errors name
    the sidecar and the key); without a sidecar, metadata inferred from the rows."""
    meta_file = _meta_path(path)
    if meta_file.exists():
        doc = read_json(meta_file)
        metadata = DatasetMeta(**{k: json_field(doc, meta_file, k, p) for k, p in _META_FIELDS})
        expected = metadata.direction.value
        _refuse(
            directions != expected,
            lambda i: f"direction {directions[i]} does not match bundle direction {expected}",
        )
        return metadata
    found = np.unique(directions)
    if len(found) > 1:
        raise DatasetFormatError(f"{path}: mixed directions in one file; split by direction first")
    direction = Direction(found[0]) if len(found) else Direction.LEFT_TO_RIGHT
    codebook_size = max(64, int(beams.max(initial=0)) + 1)
    if codebook_size > MAX_CODEBOOK_SIZE:
        raise DatasetFormatError(
            f"{path}: beam index {codebook_size - 1} needs a codebook larger than "
            f"{MAX_CODEBOOK_SIZE}"
        )
    return DatasetMeta(codebook_size=codebook_size, direction=direction, source=str(path))


def split_train_test(
    bundle: DatasetBundle, train_fraction: float, seed: int
) -> tuple[DatasetBundle, DatasetBundle]:
    """Seed-deterministic uniform shuffle split into ceil(n*f) train and the rest.

    The two parts are disjoint, exhaustive, non-empty, and preserve the
    original sample order within each part.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(bundle)
    if n == 0:
        raise ValueError("cannot split an empty bundle")
    # The 1e-9 slack keeps ceil() immune to products like 10 * 0.7 = 7.000...001.
    train_size = math.ceil(n * train_fraction - 1e-9)
    if not 0 < train_size < n:
        side = "test" if train_size else "train"
        raise ValueError(
            f"{n} samples at train_fraction {train_fraction} leave the {side} split empty"
        )
    order = np.random.default_rng(seed).permutation(n)
    return bundle.take(np.sort(order[:train_size])), bundle.take(np.sort(order[train_size:]))


def inject_noise(bundle: DatasetBundle, spec: NoiseSpec) -> DatasetBundle:
    """Set the noisy position of every row from seeded isotropic Gaussian noise.

    Ground-truth positions are left untouched. Offsets are drawn as one
    (n, 2) block, which matches n successive add_gps_noise draws on the
    same generator.
    """
    rng = np.random.default_rng(spec.seed)
    offsets = geo.gaussian_offsets(spec, len(bundle), rng)
    noisy_lat, noisy_lon = geo.apply_offsets_arrays(
        bundle.gt_lat, bundle.gt_lon, offsets[:, 0], offsets[:, 1]
    )
    metadata = replace(bundle.metadata, noise_rms_m=spec.target_rms_m, seed=spec.seed)
    return replace(bundle, noisy_lat=noisy_lat, noisy_lon=noisy_lon, metadata=metadata)


def remove_outliers(bundle: DatasetBundle) -> DatasetBundle:
    """Drop per-grid outliers by a single scaled-MAD pass over ground truth.

    Samples are grouped by the grid of their transmitter detection, at the
    bundle's own grid count. Within each grid, a sample is removed when its
    haversine displacement from the grid's ground-truth mean exceeds
    3 * (1.4826 * median displacement).
    Grids with fewer than 3 samples are left untouched.
    """
    from .grid import grid_means

    z = bundle.metadata.grid_count
    lats, lons = bundle.gt_lat, bundle.gt_lon
    keep = np.ones(len(bundle), dtype=bool)
    for idx, mean in grid_means(tx_centers(bundle)[:, 0], lats, lons, z).values():
        if len(idx) < 3:
            continue
        disp = geo.haversine_m(mean.lat_deg, mean.lon_deg, lats[idx], lons[idx])
        keep[idx] = disp <= 3.0 * 1.4826 * float(np.median(disp))
    return bundle.take(keep)
