"""CSV interface and the synthetic track-geometry generator.

The generator mimics measurement-car exports: identifier columns
(mileage, meters at 0.25 m spacing), a pair of height channels, and a
bed of engineered feature columns of varying usefulness, so that every
preprocessing stage downstream has real work to do.
"""
from __future__ import annotations

import csv
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import RawTable
from .errors import DataFormatError, InvalidArgumentError, SchemaError
from .rng import keyed_normal, keyed_uniform

METERS_STEP = 0.25
METERS_PER_MILEAGE = 4000  # 0, 0.25, ..., 999.75 then the mileage ticks up
_MILEAGE_BASE = 100.0

# column indices fixed by the export layout
_COL_MILEAGE = 0
_COL_METERS = 1
_COL_LEFT = 4
_COL_RIGHT = 5

# logical value streams for the keyed generator
_S_LEFT = 0
_S_RIGHT = 1
_S_BURST_START = 2
_S_BURST_AMP = 3
_S_OUT_MASK_L = 4
_S_OUT_MASK_R = 5
_S_OUT_MAG_L = 6
_S_OUT_MAG_R = 7
_S_OUT_SIGN_L = 8
_S_OUT_SIGN_R = 9
_S_COL_A = 10
_S_COL_OFFSET = 11
_S_COL_SIGMA = 12
_S_COL_SCALE = 13
_S_COL_SIGN = 14
_S_COLUMN_BASE = 32

_AR_COEFFS = (0.6, 0.35)
_INNOVATION_SIGMA = 0.05
_BURST_LEN = 16
# burst perturbations stay bounded (|amp| <= 0.3) so that only injected
# outliers can ever reach |z| > 8 on a height column
_BURST_AMP_LO = 0.15
_BURST_AMP_HI = 0.30
_OUTLIER_Z_LO = 9.0
_OUTLIER_Z_SPAN = 3.0

@dataclass(frozen=True)
class CsvSchema:
    """Column names the reader must resolve in a data file header."""

    mileage_column: str = "mileage"
    meters_column: str = "meters"
    target_column: str = "left_height"


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator.

    Feature columns beyond the four reserved ones (two identifiers, two
    height channels) split into constants, pure noise, and affine
    transforms of the left height; the reserved four must fit, so
    ``constant_feature_count + irrelevant_feature_count + 4 <= n_features``.
    """

    n_rows: int
    n_features: int = 34
    outlier_rate: float = 0.001
    constant_feature_count: int = 8
    irrelevant_feature_count: int = 10
    uneven_segment_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if int(self.n_rows) < 1:
            raise InvalidArgumentError("n_rows must be positive")
        if int(self.n_features) < 6:
            raise InvalidArgumentError(
                "n_features must be at least 6 (two identifiers, two heights, "
                "and the fixed height positions)"
            )
        if int(self.constant_feature_count) < 0 or int(self.irrelevant_feature_count) < 0:
            raise InvalidArgumentError("feature counts must be non-negative")
        reserved = int(self.constant_feature_count) + int(self.irrelevant_feature_count) + 4
        if reserved > int(self.n_features):
            raise InvalidArgumentError(
                "constant + irrelevant features plus the 4 reserved columns "
                "exceed n_features"
            )
        for name in ("outlier_rate", "uneven_segment_rate"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} must lie in [0, 1]")


def read_csv(path, schema: CsvSchema = CsvSchema()) -> RawTable:
    """Parse a UTF-8, comma-separated, header-carrying numeric CSV.

    Cell errors cite their position as (data row, column), both
    1-based; the header row does not count.

    The body is parsed in bulk by ``np.loadtxt``.  Its result is used
    only when it provably equals the cell-by-cell parse: a text-mode
    loop over the lines finds UTF-8, no '"' and no line as long as csv's
    field limit, ``loadtxt`` kept every data line (it skips blank ones)
    at the header's width, and every value is finite.  Any other file
    goes through the cell-by-cell parse, which raises the positioned errors.
    """
    with _typed_read_errors(path), open(path, "r", encoding="utf-8", newline="") as fh:
        header = _read_header(csv.reader(fh), path, schema)
    data_lines = _plain_data_line_count(path)
    if data_lines:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "input contained no data"
                rows = np.loadtxt(
                    path, dtype=np.float64, delimiter=",", comments=None,
                    skiprows=1, ndmin=2, encoding="utf-8",
                )
        except ValueError:
            pass
        else:
            if rows.shape == (data_lines, len(header)) and np.isfinite(rows).all():
                return _raw_table(header, rows, schema)
    return _read_csv_per_cell(path, schema)


@contextmanager
def _typed_read_errors(path):
    """Report bytes that are not UTF-8, and csv's own errors (a cell past
    its field limit), as DataFormatError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not valid UTF-8: {exc}") from None
    except csv.Error as exc:
        raise DataFormatError(f"{path}: malformed CSV: {exc}") from None


def _read_header(reader, path, schema: CsvSchema) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty file, missing header") from None
    header = [h.strip() for h in header]
    repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if repeated is not None:
        raise DataFormatError(f"{path}: header repeats column name {repeated!r}")
    missing = [
        name
        for name in (schema.mileage_column, schema.meters_column, schema.target_column)
        if name not in header
    ]
    if missing:
        raise SchemaError(f"{path}: header is missing column(s) {missing}")
    return header


def _plain_data_line_count(path) -> int | None:
    """Data lines (after the header), counted in text mode, whose
    universal newlines end a line at "\\n", "\\r" and "\\r\\n" as
    csv.reader does.  None when a line holds a '"' or is as long as
    csv's field limit, or the bytes are not UTF-8: there csv.reader and
    ``np.loadtxt`` may disagree, or the per-cell parse raises."""
    limit = csv.field_size_limit()
    lines = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if '"' in line or len(line) >= limit:
                    return None
                lines += 1
    except UnicodeDecodeError:
        return None
    return lines - 1


def _read_csv_per_cell(path, schema: CsvSchema) -> RawTable:
    """The reference parse: one ``float()`` per cell, errors positioned."""
    with _typed_read_errors(path), open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path, schema)
        width = len(header)
        data: list[list[float]] = []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != width:
                raise DataFormatError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {width}"
                )
            parsed = []
            for col_no, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: cannot parse {cell!r} as a number "
                        f"at row {row_no}, column {col_no}"
                    ) from None
                if not np.isfinite(value):
                    raise DataFormatError(
                        f"{path}: non-finite value at row {row_no}, column {col_no}"
                    )
                parsed.append(value)
            data.append(parsed)
    rows = np.asarray(data, dtype=np.float64).reshape(len(data), width)
    return _raw_table(header, rows, schema)


def _raw_table(header: list[str], rows: np.ndarray, schema: CsvSchema) -> RawTable:
    return RawTable(
        column_names=tuple(header),
        rows=rows,
        id_columns=(header.index(schema.mileage_column), header.index(schema.meters_column)),
        target_column=header.index(schema.target_column),
    )


def write_csv(table: RawTable, path) -> None:
    """Write a table as UTF-8 CSV with '\\n' line endings.

    Values use the shortest decimal form that reproduces the exact
    float64, so a read-back is closer than the 15-significant-digit
    round-trip contract requires.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.column_names) + "\n")
        for row in table.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _rolling_any(flags: np.ndarray, width: int) -> np.ndarray:
    # true where any of the previous `width` entries (inclusive) is set
    acc = np.convolve(flags.astype(np.float64), np.ones(width))[: flags.shape[0]]
    return acc > 0.5


def _ar2_series(innovations: np.ndarray) -> np.ndarray:
    """y[t] = x[t] + (a1 y[t-1] + a2 y[t-2]) from rest, in the operation
    order of ``scipy.signal.lfilter([1], [1, -a1, -a2], x)``, so the bits
    match it."""
    a1, a2 = _AR_COEFFS
    out = []
    y1 = y2 = 0.0
    for x in innovations.tolist():
        y1, y2 = x + (a1 * y1 + a2 * y2), y1
        out.append(y1)
    return np.asarray(out, dtype=np.float64)


def generate_synthetic(cfg: SynthConfig) -> RawTable:
    """Deterministically expand a config into a measurement table.

    Every random draw is a pure function of (seed, row, stream), so the
    draws for a row do not depend on ``n_rows``.  The table cannot be
    generated in independent chunks, though: the height channels are an
    AR(2) recursion from rest at row 0, so each row depends on all the
    rows before it, and an injected outlier takes its value from the
    mean and std of its whole channel.  What holds is that the first n
    rows of a longer table equal an n-row table except in the outlier
    rows, whose heights (and, for the left channel, engineered
    features) move with the whole-channel mean and std.
    """
    n = int(cfg.n_rows)
    rows_idx = np.arange(n, dtype=np.int64)
    seed = int(cfg.seed)

    table = np.zeros((n, int(cfg.n_features)), dtype=np.float64)
    table[:, _COL_MILEAGE] = _MILEAGE_BASE + rows_idx // METERS_PER_MILEAGE
    table[:, _COL_METERS] = (rows_idx % METERS_PER_MILEAGE) * METERS_STEP

    # height channels: slowly varying AR(2) plus rare bounded rough patches
    burst_start = keyed_uniform(seed, rows_idx, _S_BURST_START) < (
        float(cfg.uneven_segment_rate) / _BURST_LEN
    )
    burst_active = _rolling_any(burst_start, _BURST_LEN)
    amp_u = keyed_uniform(seed, rows_idx, _S_BURST_AMP)
    alternating = 1.0 - 2.0 * (rows_idx % 2)
    burst = (
        burst_active
        * (_BURST_AMP_LO + (_BURST_AMP_HI - _BURST_AMP_LO) * amp_u)
        * alternating
    )
    left = _ar2_series(keyed_normal(seed, rows_idx, _S_LEFT) * _INNOVATION_SIGMA) + burst
    right = _ar2_series(keyed_normal(seed, rows_idx, _S_RIGHT) * _INNOVATION_SIGMA) + burst

    rate = float(cfg.outlier_rate)
    for values, s_mask, s_mag, s_sign in (
        (left, _S_OUT_MASK_L, _S_OUT_MAG_L, _S_OUT_SIGN_L),
        (right, _S_OUT_MASK_R, _S_OUT_MAG_R, _S_OUT_SIGN_R),
    ):
        if rate > 0.0:
            mask = keyed_uniform(seed, rows_idx, s_mask) < rate
            if mask.any():
                mu = float(values.mean())
                sigma = float(values.std())
                mag = _OUTLIER_Z_LO + _OUTLIER_Z_SPAN * keyed_uniform(seed, rows_idx, s_mag)
                sign = np.where(keyed_uniform(seed, rows_idx, s_sign) < 0.5, -1.0, 1.0)
                values[mask] = mu + (sign * mag * sigma)[mask]
    table[:, _COL_LEFT] = left
    table[:, _COL_RIGHT] = right

    slots = [2, 3] + list(range(6, int(cfg.n_features)))
    n_const = int(cfg.constant_feature_count)
    n_noise = int(cfg.irrelevant_feature_count)
    names = [""] * int(cfg.n_features)
    names[_COL_MILEAGE] = "mileage"
    names[_COL_METERS] = "meters"
    names[_COL_LEFT] = "left_height"
    names[_COL_RIGHT] = "right_height"
    for k, col in enumerate(slots):
        names[col] = f"f{k + 1}"
        u_off = float(keyed_uniform(seed, np.asarray([col]), _S_COL_OFFSET)[0])
        offset = 100.0 * (u_off - 0.5)
        u_scale = float(keyed_uniform(seed, np.asarray([col]), _S_COL_SCALE)[0])
        scale = 10.0 ** (4.0 * (u_scale - 0.5))
        if k < n_const:
            table[:, col] = offset
        elif k < n_const + n_noise:
            noise = keyed_normal(seed, rows_idx, _S_COLUMN_BASE + col)
            table[:, col] = scale * noise + offset
        else:
            u_a = float(keyed_uniform(seed, np.asarray([col]), _S_COL_A)[0])
            u_sign = float(keyed_uniform(seed, np.asarray([col]), _S_COL_SIGN)[0])
            slope = (0.6 + 1.2 * u_a) * (1.0 if u_sign >= 0.5 else -1.0)
            u_sig = float(keyed_uniform(seed, np.asarray([col]), _S_COL_SIGMA)[0])
            noise_sigma = 0.02 + 0.08 * u_sig
            noise = keyed_normal(seed, rows_idx, _S_COLUMN_BASE + col)
            table[:, col] = scale * (slope * left + noise_sigma * noise) + offset

    return RawTable(
        column_names=tuple(names),
        rows=table,
        id_columns=(_COL_MILEAGE, _COL_METERS),
        target_column=_COL_LEFT,
    )
