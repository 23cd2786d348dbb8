"""Columnar capture datasets, CSV serialization, splitting, and noise injection.

A dataset is one ``DatasetBundle`` of equal-length columns, one row per
capture instant: the sample id, the serving beam index, the ground-truth
position, an optional noise-corrupted position, and the detected objects
in the camera frame, padded to the widest row. A bundle checks all its
columns once, vectorized; bundles are immutable.

CSV files go through one reader (``read_csv``), which parses BLOCK_ROWS
rows at a time, and one writer. ``save_csvs`` writes several bundles in
one pass, BLOCK_ROWS rows at a time, formatting a column that they hold
bit for bit once.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Literal, Sequence, TypeVar

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


def refuse_rows(bad: np.ndarray, why: Callable[[int], str], ids: np.ndarray | None = None) -> None:
    """Raise RowError for the first row i flagged in ``bad``; given the sample
    ``ids``, its message names the sample: 'sample <id>: <why(i)>'."""
    if bad.any():
        i = int(np.argmax(bad))
        raise RowError(why(i) if ids is None else f"sample {ids[i]}: {why(i)}", i, why(i))


PositionSelector = Literal["ground_truth", "noisy"]
T = TypeVar("T")


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
            refuse_rows(bad, why, self.ids)

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
    refuse_rows(~bundle.det_tx.any(axis=1), lambda i: "no transmitter detection", bundle.ids)
    rows, slots = np.nonzero(bundle.det_tx)  # one transmitter per row, in row order
    return np.column_stack([bundle.det_x[rows, slots], bundle.det_y[rows, slots]])


def positions(bundle: DatasetBundle, selector: PositionSelector) -> tuple[np.ndarray, np.ndarray]:
    """Latitudes and longitudes of each row's ground-truth or noisy position."""
    if selector != "noisy":
        return bundle.gt_lat, bundle.gt_lon
    refuse_rows(np.isnan(bundle.noisy_lat), lambda i: "no noisy position", bundle.ids)
    return bundle.noisy_lat, bundle.noisy_lon


# Rows of cells that CSV I/O holds as Python strings at a time, whatever the
# files' length: the reader reads a file BLOCK_ROWS rows at a time, and
# save_csvs spreads BLOCK_ROWS rows over the files it writes together.
# Memory not handed back to the system stays in the process's peak, so a
# block must stay small next to the stacked denoiser fit that sets the
# pipeline's peak.
BLOCK_ROWS = 512


def _write_csvs(
    paths: Sequence[str | Path],
    headers: Sequence[Sequence[str]],
    blocks: Iterable[Sequence[Iterable[Sequence]]],
) -> None:
    """Write each file's header row, then block by block its data rows: a block
    holds one row iterable per file, in ``paths`` order. str() of a Python
    float round-trips exactly. A path given twice is refused before any file
    is opened: two handles on one file would interleave."""
    resolved = [Path(path).resolve() for path in paths]
    for path, where in zip(paths, resolved):
        if resolved.count(where) > 1:
            raise ValueError(f"{path}: given twice in one write")
    with contextlib.ExitStack() as stack:
        writers = [
            csv.writer(stack.enter_context(open(path, "w", newline="", encoding="utf-8")))
            for path in paths
        ]
        for writer, header in zip(writers, headers):
            writer.writerow(header)
        for block in blocks:
            for writer, rows in zip(writers, block):
                writer.writerows(rows)
            del block  # drop this block's cells before the next block's are made


def write_table_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then the data rows as they come; str() of a Python
    float round-trips exactly."""
    _write_csvs([path], [header], [[rows]])


def _named_rows(path, row_nums: np.ndarray, fn: Callable[..., T], *args) -> T:
    """fn(*args), turning its RowError into ``<file>: row <n>: <why>``."""
    try:
        return fn(*args)
    except RowError as exc:
        raise DatasetFormatError(f"{path}: row {row_nums[exc.index]}: {exc.why}") from None


def read_csv(
    path: str | Path,
    header: Callable[[int], Sequence[str]],
    parse: Callable[[list[tuple[str, ...]], np.ndarray], Sequence[np.ndarray]],
    finish: Callable[[list[np.ndarray]], T] = lambda columns: columns,
) -> T:
    """finish() of the arrays that parse(columns, widths) makes of a CSV file's
    non-blank data rows, BLOCK_ROWS rows at a time.

    The header row must equal ``header(its width)``. ``columns`` are a
    block's rows' cells transposed, one tuple per header column: short rows
    are padded with "" and cells past the header dropped, so callers refuse
    rows by ``widths``, each row's cell count. parse returns arrays of one
    entry per row; each is concatenated over the blocks (a file without
    data rows is parsed as one empty block), and finish runs once on the
    whole file's arrays, for checks across rows. A RowError from parse or
    finish becomes ``<file>: row <n>: <why>``, n being the 1-based data row.
    """
    parts, row_nums, read = [], [], 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                raise DatasetFormatError(f"{path}: empty file: missing header row")
            expected = list(header(len(found)))
            if found != expected:
                raise DatasetFormatError(
                    f"{path}: header mismatch: expected {expected}, got {found}"
                )
            while True:
                block = list(itertools.islice(reader, BLOCK_ROWS))
                nonblank = np.fromiter(map(len, block), bool, len(block))
                row_nums.append(np.flatnonzero(nonblank) + read + 1)
                read += len(block)
                rows = list(itertools.compress(block, nonblank))
                widths = np.fromiter(map(len, rows), np.int64, len(rows))
                columns = list(itertools.zip_longest(*rows, fillvalue=""))[: len(expected)]
                columns += [("",) * len(rows)] * (len(expected) - len(columns))
                parts.append(_named_rows(path, row_nums[-1], parse, columns, widths))
                if len(block) < BLOCK_ROWS:
                    break
    except (csv.Error, UnicodeDecodeError) as exc:  # e.g. a cell over 128 KiB, or bad UTF-8
        raise DatasetFormatError(f"{path}: not a readable CSV file: {exc}") from None
    merged = [np.concatenate(arrays) for arrays in zip(*parts)]
    return _named_rows(path, np.concatenate(row_nums), finish, merged)


# ASCII whitespace (str.isspace) and "_", which int() and float() skip: "1_6" reads 16.
_LOOSE_CHARS = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f_"


def _strict(text: str) -> bool:
    """Whether text is ASCII without _LOOSE_CHARS, as every numeric cell must be."""
    return text.isascii() and not any(c in text for c in _LOOSE_CHARS)


def _cell_error(raw: str, kind: type, low, high) -> str | None:
    """Why one numeric cell fails, or None: the strict-cell rule, then int() or
    float() (NaN is not a number), then the range [low, high]."""
    try:
        if not _strict(raw):
            raise ValueError
        value = kind(raw)
    except ValueError:
        return f"not {'an integer' if kind is int else 'a number'}: {raw!r}"
    if value != value:
        return f"not a number: {raw!r}"
    return None if low <= value <= high else f"{raw!r} outside [{low}, {high}]"


def _numbers(
    cells: Sequence[str], name: str, rows: np.ndarray, kind: type, low, high
) -> np.ndarray:
    """The cells in the ``rows`` mask through int() or float(), as int64 or float64
    (others read 0 or NaN); RowError names the first cell that _cell_error refuses."""
    dtype = np.int64 if kind is int else np.float64
    values = np.full(len(rows), 0 if kind is int else np.nan, dtype)
    picked = list(itertools.compress(cells, rows))
    try:
        if _strict("".join(picked)):
            parsed = np.fromiter(map(kind, picked), dtype, len(picked))
            if ((parsed >= low) & (parsed <= high)).all():  # NaN is never in range
                values[rows] = parsed
                return values
    except (ValueError, OverflowError):
        pass
    bad = np.zeros(len(rows), dtype=bool)
    bad[rows] = [_cell_error(raw, kind, low, high) is not None for raw in picked]
    refuse_rows(bad, lambda i: f"column '{name}': {_cell_error(cells[i], kind, low, high)}")
    return values  # unreachable: a cell was refused


def _one_of(cells: Sequence[str], name: str, enum_cls, rows: np.ndarray) -> np.ndarray:
    """The cells as a str array; each in the ``rows`` mask must be a value of ``enum_cls``."""
    values = np.array(cells, dtype=str)
    allowed = [e.value for e in enum_cls]
    bad = rows & ~np.isin(values, allowed)
    refuse_rows(bad, lambda i: f"column '{name}': {cells[i]!r} not one of {'/'.join(allowed)}")
    return values


# A column parser: (cells, column name, row mask) -> the masked cells as an array.
ColumnParser = Callable[[Sequence[str], str, np.ndarray], np.ndarray]


def integers(low: int = -(2**63), high: int = 2**63 - 1) -> ColumnParser:
    """Column parser for integers in [low, high], as int64."""
    return functools.partial(_numbers, kind=int, low=low, high=high)


def floats(low: float = -math.inf, high: float = math.inf) -> ColumnParser:
    """Column parser for numbers in [low, high], as float64; NaN is refused."""
    return functools.partial(_numbers, kind=float, low=low, high=high)


# Any int64, any number, and a table's row count: an integer in [1, 2**63 - 1].
INTEGERS, FLOATS, COUNTS = integers(), floats(), integers(1)


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


_BASE_COLUMNS = [
    "id", "direction", "beam_index",
    "gt_lat", "gt_lon", "noisy_lat", "noisy_lon", "num_detections",
]


def _header(slots: int) -> list[str]:
    """A dataset CSV's header: the base columns, then class, x and y per detection slot."""
    return _BASE_COLUMNS + [f"det{j}_{f}" for j in range(slots) for f in ("class", "x", "y")]


def _meta_path(path: Path) -> Path:
    return Path(str(path) + ".meta.json")


def save_csvs(pairs: Sequence[tuple[DatasetBundle, str | Path]]) -> None:
    """Write each (bundle, path) to CSV plus a metadata sidecar, in one pass.

    Floats are serialized with repr (shortest exact round-trip), so
    load_csv(save_csv(b)) reproduces every column bit for bit. Rows are
    padded with empty cells up to the widest detection list in the file,
    and a row without a noisy fix leaves both noisy cells empty. The files
    are written in blocks of BLOCK_ROWS // len(pairs) rows each, and within
    a block a column whose values and blank cells are bitwise equal in
    several bundles is formatted once: a capture's noise levels share all
    but their noisy columns. A path given twice is refused.
    """
    bundles = [bundle for bundle, _ in pairs]
    paths = [Path(path) for _, path in pairs]
    slots = [int(bundle.det_count.max(initial=0)) for bundle in bundles]

    def blocks() -> Iterator[list[Iterator[tuple[str, ...]]]]:
        step = max(1, BLOCK_ROWS // (len(bundles) or 1))
        for start in range(0, max(map(len, bundles), default=0), step):
            rows = slice(start, start + step)
            formatted: dict[tuple, list[str]] = {}  # cells by dtype, value bits, blank bits
            block = []
            for bundle, k in zip(bundles, slots):
                cells = []
                for values, blank in _csv_columns(bundle, k, rows):
                    key = (values.dtype.str, values.tobytes(), blank.tobytes())
                    if key not in formatted:
                        formatted[key] = _text(values, blank)
                    cells.append(formatted[key])
                block.append(zip(*cells))
            yield block

    _write_csvs(paths, [_header(k) for k in slots], blocks())
    for bundle, path in zip(bundles, paths):
        meta = bundle.metadata
        write_json(_meta_path(path), {**asdict(meta), "direction": meta.direction.value})


def save_csv(bundle: DatasetBundle, path: str | Path) -> None:
    """Write one bundle to CSV plus a metadata sidecar; see save_csvs."""
    save_csvs([(bundle, path)])


def _csv_columns(
    bundle: DatasetBundle, slots: int, rows: slice
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each CSV column's values over ``rows`` of a bundle and its mask of blank
    cells, in header order for ``slots`` detection slots."""
    b, count = bundle, bundle.det_count[rows]
    kept, no_fix = np.zeros(len(count), dtype=bool), np.isnan(b.noisy_lat[rows])
    yield b.ids[rows], kept
    yield np.full(len(count), b.metadata.direction.value), kept
    for values in (b.beams, b.gt_lat, b.gt_lon):
        yield values[rows], kept
    yield b.noisy_lat[rows], no_fix
    yield b.noisy_lon[rows], no_fix
    yield count, kept
    for j in range(slots):
        padding = count <= j
        yield np.where(b.det_tx[rows, j], "TX", "DISTRACTOR"), padding
        yield b.det_x[rows, j], padding
        yield b.det_y[rows, j], padding


def _text(values: np.ndarray, blank: np.ndarray) -> list[str]:
    """Each value's str() (exact for a Python float), or "" where ``blank``."""
    text = list(map(str, values.tolist()))
    for i in np.flatnonzero(blank).tolist():
        text[i] = ""
    return text


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
    offending column. Metadata comes from the ``<file>.meta.json`` sidecar
    when present; otherwise defaults are inferred (direction from the rows,
    codebook size max(64, largest beam index + 1)).
    """
    path = Path(path)

    def bundle(parsed: list[np.ndarray]) -> DatasetBundle:
        directions, *values = parsed
        columns = dict(zip(_COLUMNS, values))
        slots = max(int(columns["det_count"].max(initial=0)), 0)
        for name in ("det_tx", "det_x", "det_y"):
            columns[name] = columns[name][:, :slots]
        return DatasetBundle(**columns, metadata=_dataset_meta(path, directions, columns["beams"]))

    def header(width: int) -> list[str]:
        return _header((width - len(_BASE_COLUMNS)) // 3)

    return read_csv(path, header, _parse_columns, bundle)


def _parse_columns(cells: list[tuple[str, ...]], width: np.ndarray) -> list[np.ndarray]:
    """Each row's direction cell, then the bundle columns (in _COLUMNS order)
    of rows ``width`` cells wide, one tuple of cells per header column, with
    a detection column per header slot. Checks each cell's type (the bundle
    checks values) and raises RowError naming the column."""
    n = len(width)
    refuse_rows(width < 8, lambda i: f"only {width[i]} cells, expected at least 8")
    refuse_rows(width > len(cells), lambda i: f"{width[i]} cells, but the header has {len(cells)}")
    filled = np.array([np.fromiter(map(bool, c), bool, n) for c in cells], bool)
    filled = filled.reshape(len(cells), n).T
    every, noisy = np.ones(n, dtype=bool), filled[:, 5] | filled[:, 6]
    directions = _one_of(cells[1], "direction", Direction, every)
    columns = {
        key: parse(cells[c], _BASE_COLUMNS[c], noisy if c in (5, 6) else every)
        for c, key, parse in (
            (0, "ids", INTEGERS), (2, "beams", INTEGERS), (3, "gt_lat", FLOATS),
            (4, "gt_lon", FLOATS), (5, "noisy_lat", FLOATS), (6, "noisy_lon", FLOATS),
            (7, "det_count", INTEGERS),
        )
    }
    count = columns["det_count"]
    refuse_rows(
        count > (width - 8) // 3,
        lambda i: f"{count[i]} detections declared but row has {width[i]} cells",
    )
    refuse_rows(
        (filled[:, 8:] & (np.arange(len(cells) - 8) // 3 >= count[:, None])).any(axis=1),
        lambda i: f"unexpected non-empty cell beyond {count[i]} detections",
    )
    slots = range((len(cells) - 8) // 3)
    columns["det_tx"] = np.array([
        _one_of(cells[8 + 3 * j], f"det{j}_class", DetectionClass, count > j) == "TX"
        for j in slots
    ], bool).reshape(len(slots), n).T
    for f, axis in ((1, "x"), (2, "y")):
        columns[f"det_{axis}"] = np.array([
            FLOATS(cells[8 + 3 * j + f], f"det{j}_{axis}", count > j) for j in slots
        ]).reshape(len(slots), n).T
    return [directions] + [columns[name] for name in _COLUMNS]


def _dataset_meta(path: Path, directions: np.ndarray, beams: np.ndarray) -> DatasetMeta:
    """The sidecar's metadata, which each row's direction must match (errors name
    the sidecar and the key); without a sidecar, metadata inferred from the rows."""
    meta_file = _meta_path(path)
    if meta_file.exists():
        doc = read_json(meta_file)
        metadata = DatasetMeta(**{k: json_field(doc, meta_file, k, p) for k, p in _META_FIELDS})
        expected = metadata.direction.value
        refuse_rows(
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
    bundle's own grid count, and ``grid.grid_table`` gives each sample's
    haversine displacement from its grid's ground-truth mean. Within each
    grid, a sample is removed when that displacement exceeds
    3 * (1.4826 * median displacement).
    Grids with fewer than 3 samples are left untouched.
    """
    from .grid import grid_table, group_by_grid

    x, z = tx_centers(bundle)[:, 0], bundle.metadata.grid_count
    disp = grid_table(x, bundle.gt_lat, bundle.gt_lon, z)[1]
    keep = np.ones(len(bundle), dtype=bool)
    for idx in group_by_grid(x, z).values():
        if len(idx) >= 3:
            keep[idx] = disp[idx] <= 3.0 * 1.4826 * float(np.median(disp[idx]))
    return bundle.take(keep)
