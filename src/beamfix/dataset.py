"""Capture-sample data model, CSV serialization, splitting, and noise injection.

A sample is one capture instant: the detected objects in the camera frame
(normalized centers), the serving beam index, the ground-truth position,
and optionally a noise-corrupted position. Bundles are immutable; every
operation returns a new bundle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from . import geo
from .geo import GeoPosition, NoiseSpec


class Direction(Enum):
    """Travel direction of the transmitter through the scene."""

    LEFT_TO_RIGHT = "L2R"
    RIGHT_TO_LEFT = "R2L"


class DetectionClass(Enum):
    TRANSMITTER = "TX"
    DISTRACTOR = "DISTRACTOR"


class DatasetFormatError(ValueError):
    """An input file violates its format or a field is out of range."""


PositionSelector = Literal["ground_truth", "noisy"]


@dataclass(frozen=True, slots=True)
class Detection:
    """One detected object: class tag plus normalized image-plane center."""

    class_label: DetectionClass
    x_center: float
    y_center: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.x_center <= 1.0:
            raise ValueError(f"x_center {self.x_center} outside [0, 1]")
        if not 0.0 <= self.y_center <= 1.0:
            raise ValueError(f"y_center {self.y_center} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class Sample:
    """One capture instant."""

    id: int
    direction: Direction
    detections: tuple[Detection, ...]
    beam_index: int
    gt_position: GeoPosition
    noisy_position: GeoPosition | None = None

    def __post_init__(self) -> None:
        if len(self.detections) < 1:
            raise ValueError(f"sample {self.id}: needs at least one detection")
        n_tx = sum(1 for d in self.detections if d.class_label is DetectionClass.TRANSMITTER)
        if n_tx > 1:
            raise ValueError(f"sample {self.id}: {n_tx} transmitter detections, at most 1 allowed")
        if self.beam_index < 0:
            raise ValueError(f"sample {self.id}: negative beam index {self.beam_index}")

    def transmitter(self) -> Detection | None:
        """The transmitter-labeled detection, if any."""
        for d in self.detections:
            if d.class_label is DetectionClass.TRANSMITTER:
                return d
        return None


@dataclass(frozen=True, slots=True)
class DatasetMeta:
    grid_count: int = 100
    codebook_size: int = 64
    noise_rms_m: float = 0.0
    seed: int = 0
    direction: Direction = Direction.LEFT_TO_RIGHT
    source: str = ""


@dataclass(frozen=True)
class DatasetBundle:
    """An immutable set of samples sharing one direction and metadata."""

    samples: tuple[Sample, ...]
    metadata: DatasetMeta

    def __post_init__(self) -> None:
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("sample ids must be unique within a bundle")
        for s in self.samples:
            if s.direction is not self.metadata.direction:
                raise ValueError(
                    f"sample {s.id}: direction {s.direction.value} does not match "
                    f"bundle direction {self.metadata.direction.value}"
                )
            if s.beam_index >= self.metadata.codebook_size:
                raise ValueError(
                    f"sample {s.id}: beam index {s.beam_index} outside "
                    f"[0, {self.metadata.codebook_size - 1}]"
                )

    def __len__(self) -> int:
        return len(self.samples)


def tx_centers(samples: Iterable[Sample]) -> np.ndarray:
    """(n, 2) transmitter x/y centers in sample order; raises naming a sample without one."""
    flat: list[float] = []
    for s in samples:
        tx = s.transmitter()
        if tx is None:
            raise ValueError(f"sample {s.id}: no transmitter detection")
        flat += (tx.x_center, tx.y_center)
    return np.array(flat, dtype=float).reshape(-1, 2)


def positions(
    samples: Sequence[Sample], selector: PositionSelector
) -> tuple[np.ndarray, np.ndarray]:
    """Latitudes and longitudes of each sample's ground-truth or noisy position."""
    chosen = [s.noisy_position if selector == "noisy" else s.gt_position for s in samples]
    for s, pos in zip(samples, chosen):
        if pos is None:
            raise ValueError(f"sample {s.id}: no noisy position")
    return np.array([p.lat_deg for p in chosen]), np.array([p.lon_deg for p in chosen])


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
# declare. A million grids is finer than any camera's pixel columns; stage 1
# encodes each beam as a one-hot vector as wide as the codebook.
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
    """The value at a dotted key of a read_json document, parsed.

    Errors name the file and the key: ``<file>: missing key '<k>'`` or
    ``<file>: key '<k>': <why>``.
    """
    value = doc
    parts = key.split(".")
    for depth, part in enumerate(parts, 1):
        if not isinstance(value, dict) or part not in value:
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


_BASE_COLUMNS = [
    "id", "direction", "beam_index",
    "gt_lat", "gt_lon", "noisy_lat", "noisy_lon", "num_detections",
]


def _meta_path(path: Path) -> Path:
    return Path(str(path) + ".meta.json")


def save_csv(bundle: DatasetBundle, path: str | Path) -> None:
    """Write a bundle to CSV plus a metadata sidecar.

    Floats are serialized with repr (shortest exact round-trip), so
    load_csv(save_csv(b)) reproduces every field bit for bit. Rows are
    padded with empty cells up to the widest detection list in the file.
    """
    path = Path(path)
    max_det = max((len(s.detections) for s in bundle.samples), default=0)
    header = list(_BASE_COLUMNS)
    for k in range(max_det):
        header += [f"det{k}_class", f"det{k}_x", f"det{k}_y"]

    def rows():
        for s in bundle.samples:
            gt, noisy = s.gt_position, s.noisy_position
            row = [s.id, s.direction.value, s.beam_index, gt.lat_deg, gt.lon_deg]
            row += [noisy.lat_deg, noisy.lon_deg] if noisy else ["", ""]
            row.append(len(s.detections))
            for d in s.detections:
                row += [d.class_label.value, d.x_center, d.y_center]
            yield row + [""] * (3 * (max_det - len(s.detections)))

    write_table_csv(path, header, rows())
    meta = bundle.metadata
    write_json(_meta_path(path), {**asdict(meta), "direction": meta.direction.value})


def _parse_int(row_num: int, field: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DatasetFormatError(f"row {row_num}: field '{field}': not an integer: {raw!r}") from None


def _parse_float(row_num: int, field: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DatasetFormatError(f"row {row_num}: field '{field}': not a number: {raw!r}") from None


def _parse_enum(row_num: int, field: str, raw: str, enum_cls):
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = "/".join(e.value for e in enum_cls)
        raise DatasetFormatError(
            f"row {row_num}: field '{field}': {raw!r} not one of {allowed}"
        ) from None


# Every key the sidecar must hold, with the parser for its value.
_META_FIELDS = (
    ("grid_count", count_in(MAX_GRID_COUNT)),
    ("codebook_size", count_in(MAX_CODEBOOK_SIZE)),
    ("noise_rms_m", json_float),
    ("seed", json_int),
    ("direction", Direction),
    ("source", json_str),
)


def _load_meta(meta_file: Path) -> DatasetMeta:
    """Parse a metadata sidecar; errors name the file and the key."""
    doc = read_json(meta_file)
    fields = {key: json_field(doc, meta_file, key, parse) for key, parse in _META_FIELDS}
    return DatasetMeta(**fields)


def load_csv(path: str | Path) -> DatasetBundle:
    """Read a bundle from CSV, enforcing the schema and all field invariants.

    Errors name the file, and carry the 1-based data row number and the
    offending field. Metadata comes from the ``<file>.meta.json`` sidecar
    when present; otherwise defaults are inferred (direction from the rows,
    codebook size from the largest beam index rounded up to 64).
    """
    path = Path(path)
    try:
        samples = _read_samples(path)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    meta_file = _meta_path(path)
    if meta_file.exists():
        metadata = _load_meta(meta_file)
    else:
        directions = {s.direction for s in samples}
        if len(directions) > 1:
            raise DatasetFormatError(
                f"{path}: mixed directions in one file; split by direction first"
            )
        direction = directions.pop() if directions else Direction.LEFT_TO_RIGHT
        codebook_size = max(64, max((s.beam_index for s in samples), default=0) + 1)
        if codebook_size > MAX_CODEBOOK_SIZE:
            raise DatasetFormatError(
                f"{path}: beam index {codebook_size - 1} needs a codebook larger than "
                f"{MAX_CODEBOOK_SIZE}"
            )
        metadata = DatasetMeta(codebook_size=codebook_size, direction=direction, source=str(path))
    try:
        return DatasetBundle(tuple(samples), metadata)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def _read_samples(path: Path) -> list[Sample]:
    """The samples of a dataset CSV; errors name the row and field, not the file."""
    samples: list[Sample] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("empty file: missing header row") from None
        if header[: len(_BASE_COLUMNS)] != _BASE_COLUMNS:
            raise DatasetFormatError(
                f"header mismatch: expected leading columns {_BASE_COLUMNS}, got {header[:8]}"
            )
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < len(_BASE_COLUMNS):
                raise DatasetFormatError(f"row {row_num}: only {len(row)} cells, expected at least 8")
            sid = _parse_int(row_num, "id", row[0])
            direction = _parse_enum(row_num, "direction", row[1], Direction)
            beam = _parse_int(row_num, "beam_index", row[2])
            try:
                gt = GeoPosition(
                    _parse_float(row_num, "gt_lat", row[3]),
                    _parse_float(row_num, "gt_lon", row[4]),
                )
            except ValueError as exc:
                raise DatasetFormatError(f"row {row_num}: gt position: {exc}") from None
            noisy = None
            if row[5] != "" or row[6] != "":
                try:
                    noisy = GeoPosition(
                        _parse_float(row_num, "noisy_lat", row[5]),
                        _parse_float(row_num, "noisy_lon", row[6]),
                    )
                except ValueError as exc:
                    raise DatasetFormatError(f"row {row_num}: noisy position: {exc}") from None
            n_det = _parse_int(row_num, "num_detections", row[7])
            if n_det < 1:
                raise DatasetFormatError(f"row {row_num}: field 'num_detections': must be >= 1")
            cells_needed = 8 + 3 * n_det
            if len(row) < cells_needed:
                raise DatasetFormatError(
                    f"row {row_num}: {n_det} detections declared but row has {len(row)} cells"
                )
            detections = []
            for k in range(n_det):
                base = 8 + 3 * k
                cls = _parse_enum(row_num, f"det{k}_class", row[base], DetectionClass)
                x = _parse_float(row_num, f"det{k}_x", row[base + 1])
                y = _parse_float(row_num, f"det{k}_y", row[base + 2])
                try:
                    detections.append(Detection(cls, x, y))
                except ValueError as exc:
                    raise DatasetFormatError(f"row {row_num}: det{k}: {exc}") from None
            for extra in row[cells_needed:]:
                if extra != "":
                    raise DatasetFormatError(
                        f"row {row_num}: unexpected non-empty cell beyond {n_det} detections"
                    )
            try:
                samples.append(
                    Sample(sid, direction, tuple(detections), beam, gt, noisy)
                )
            except ValueError as exc:
                raise DatasetFormatError(f"row {row_num}: {exc}") from None
    return samples


def split_train_test(
    bundle: DatasetBundle, train_fraction: float, seed: int
) -> tuple[DatasetBundle, DatasetBundle]:
    """Seed-deterministic uniform shuffle split into ceil(n*f) train and the rest.

    The two parts are disjoint, exhaustive, non-empty, and preserve the
    original sample order within each part.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(bundle.samples)
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
    train_idx = sorted(int(i) for i in order[:train_size])
    test_idx = sorted(int(i) for i in order[train_size:])
    train = DatasetBundle(tuple(bundle.samples[i] for i in train_idx), bundle.metadata)
    test = DatasetBundle(tuple(bundle.samples[i] for i in test_idx), bundle.metadata)
    return train, test


def inject_noise(bundle: DatasetBundle, spec: NoiseSpec) -> DatasetBundle:
    """Set noisy_position on every sample from seeded isotropic Gaussian noise.

    Ground-truth positions are left untouched. Offsets are drawn as one
    (n, 2) block, which matches n successive add_gps_noise draws on the
    same generator.
    """
    rng = np.random.default_rng(spec.seed)
    n = len(bundle.samples)
    offsets = geo.gaussian_offsets(spec, n, rng)
    lats = np.array([s.gt_position.lat_deg for s in bundle.samples])
    lons = np.array([s.gt_position.lon_deg for s in bundle.samples])
    new_lat, new_lon = geo.apply_offsets_arrays(lats, lons, offsets[:, 0], offsets[:, 1])
    samples = tuple(
        Sample(s.id, s.direction, s.detections, s.beam_index, s.gt_position, GeoPosition(lat, lon))
        for s, lat, lon in zip(bundle.samples, new_lat.tolist(), new_lon.tolist())
    )
    metadata = replace(bundle.metadata, noise_rms_m=spec.target_rms_m, seed=spec.seed)
    return DatasetBundle(samples, metadata)


def remove_outliers(bundle: DatasetBundle, grid_count: int | None = None) -> DatasetBundle:
    """Drop per-grid outliers by a single scaled-MAD pass over ground truth.

    Samples are grouped by the grid of their transmitter detection. Within
    each grid, a sample is removed when its haversine displacement from the
    grid's ground-truth mean exceeds 3 * (1.4826 * median displacement).
    Grids with fewer than 3 samples are left untouched.
    """
    from .grid import grid_means

    z = grid_count if grid_count is not None else bundle.metadata.grid_count
    x = tx_centers(bundle.samples)[:, 0]
    lats, lons = positions(bundle.samples, "ground_truth")
    keep = np.ones(len(bundle.samples), dtype=bool)
    for idx, mean in grid_means(x, lats, lons, z).values():
        if len(idx) < 3:
            continue
        disp = geo.haversine_m(mean.lat_deg, mean.lon_deg, lats[idx], lons[idx])
        keep[idx] = disp <= 3.0 * 1.4826 * float(np.median(disp))
    samples = tuple(s for s, kept in zip(bundle.samples, keep) if kept)
    return DatasetBundle(samples, bundle.metadata)
