"""Dataset ingestion, normalization, rebalancing, chunking and synthesis.

Datasets are 16 numeric code metrics per class instance plus a binary
god-class label, stored as numpy arrays. All randomized operations take
explicit seeds and are reproducible.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError, read_input, write_output

FEATURE_NAMES = (
    "TLOC", "NCLOC", "CLOC", "EXEC", "DC", "NOT", "NOTa", "NOTc",
    "NOTe", "RFC", "WMC", "DIT", "NOC", "DIP", "LCOM", "NOA",
)
NUM_FEATURES = len(FEATURE_NAMES)
LABEL_COLUMN = "is_god_class"
_COLUMNS = FEATURE_NAMES + (LABEL_COLUMN,)  # in table order

OVERSAMPLE = "oversample"
UNDERSAMPLE = "undersample"
NO_REBALANCE = "none"
REBALANCE_MODES = (OVERSAMPLE, UNDERSAMPLE, NO_REBALANCE)

# Synthetic geometry: two unit-variance Gaussian clusters this far apart
# along a fixed unit axis. A second, orthogonal axis carries the context
# component of cross-organization distribution shifts.
CLASS_SEPARATION = 5.0
CLASS_AXIS = np.ones(NUM_FEATURES) / math.sqrt(NUM_FEATURES)
CONTEXT_AXIS = np.array([1.0, -1.0] * (NUM_FEATURES // 2)) / math.sqrt(NUM_FEATURES)
_SHIFT_CLASS_FRACTION = 2.0 / 3.0


def binary(values, what: str) -> np.ndarray:
    """`values` as int64, each checked to equal 0 or 1 before the cast,
    which would truncate 0.7 to 0 and has no int64 for NaN."""
    values = np.asarray(values)
    if not np.all((values == 0) | (values == 1)):
        raise DataError(f"{what} must be 0 or 1")
    return values.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Dataset:
    """Named collection of samples backed by dense arrays, checked once when
    built and kept as read-only views, so the kernels that read it check nothing."""

    name: str
    features: np.ndarray  # (n, NUM_FEATURES) float64, read-only
    labels: np.ndarray  # (n,) int64 with values in {0, 1}, read-only

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2 or features.shape[1] != NUM_FEATURES:
            raise DataError(f"features must be (n, {NUM_FEATURES}), got {features.shape}")
        if np.shape(self.labels) != (features.shape[0],):
            raise DataError("labels must align 1:1 with feature rows")
        if len(features) == 0:
            raise DataError("dataset must contain at least one sample")
        if not np.all(np.isfinite(features)):
            raise NumericError(f"dataset {self.name!r} contains non-finite features")
        labels = binary(self.labels, f"dataset {self.name!r} labels")
        for name, array in (("features", features.view()), ("labels", labels.view())):
            array.flags.writeable = False  # on a view: the caller's array is not copied
            object.__setattr__(self, name, array)

    def __reduce__(self):  # a pickled or copied Dataset is rebuilt through its checks
        return Dataset, (self.name, self.features, self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def class_counts(self) -> tuple[int, int]:
        pos = int(self.labels.sum())
        return len(self.labels) - pos, pos

    def subset(self, indices, name: str | None = None) -> "Dataset":
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":  # a mask or 1.9 would pick other rows
            raise DataError("subset indices must be integers")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):  # -1 would pick the last row
            raise DataError(f"subset indices must be in [0, {len(self)})")
        idx = idx.astype(int, copy=False)
        return Dataset(name or self.name, self.features[idx], self.labels[idx])


def concat_datasets(name: str, datasets) -> Dataset:
    datasets = list(datasets)
    if not datasets:
        raise DataError("cannot concatenate zero datasets")
    return Dataset(
        name,
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
    )


def load_csv(path) -> Dataset:
    """Read a dataset from CSV.

    The header must contain every feature column (case-insensitive) plus
    the label column; extra columns are ignored and file row order is
    preserved. Blank lines are skipped. Labels must equal 0 or 1 and
    feature cells must be finite; a bad cell is reported with its row.

    The file is read once, numpy's C reader parses it, and Dataset checks
    every cell. Any file that this cannot take is parsed cell by cell with
    the csv module and float(), so accepted inputs and error messages are
    those of the cell-by-cell reader.
    """
    path = Path(path)
    raw = read_input(path, DataError)
    table = _read_table(raw)
    if table is not None:
        try:
            return Dataset(path.stem, table[:, :NUM_FEATURES], table[:, NUM_FEATURES])
        except (NumericError, DataError):
            pass  # no rows or a bad cell: the cell-by-cell reader names its row
    return _load_csv_by_cell(path.stem, raw)


def _read_table(raw: bytes) -> np.ndarray | None:
    """The (rows, 17) table of features then label through np.loadtxt, or
    None when the file's bytes cannot be read that way."""
    try:
        # csv.reader caps a field at csv.field_size_limit() characters and
        # loadtxt does not. No field can pass the cap in a file of fewer bytes,
        # nor in one with no quote and no line of more bytes.
        limit = csv.field_size_limit()
        if len(raw) > limit and (b'"' in raw or max(map(len, io.BytesIO(raw))) > limit):
            return None
        # Decoded as loadtxt reads it: an io.StringIO would take 4 bytes a character.
        stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
        columns = _header_columns(next(csv.reader(stream), []))
        if None in columns:
            return None
        # An input with no data rows makes loadtxt warn, not raise.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(stream, delimiter=",", quotechar='"', comments=None,
                              usecols=columns, ndmin=2)
    except (ValueError, Warning, csv.Error, DataError):
        return None


def _header_columns(header) -> list[int | None]:
    """Header index of each feature column then the label, None if missing;
    a required column named twice, in any case, is refused."""
    cells = [cell.strip().lower() for cell in header]
    for column in _COLUMNS:
        if cells.count(column.lower()) > 1:
            raise DataError(f"required column {column!r} is repeated")
    lower = {cell: idx for idx, cell in enumerate(cells)}
    return [lower.get(column.lower()) for column in _COLUMNS]


def _load_csv_by_cell(name: str, raw: bytes) -> Dataset:
    """load_csv on a file's bytes through csv.reader and float(), one cell at a time.

    It takes every input that load_csv accepts, and some that loadtxt
    rejects (whitespace-only rows, underscores and non-ASCII digits in
    numbers), and it raises every error that load_csv reports.
    """
    # Decoded in the chunks that open() reads, so a bad byte's position is the same.
    stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    try:
        rows = [(line_no, row) for line_no, row in enumerate(csv.reader(stream), start=1)
                if any(cell.strip() for cell in row)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read: {exc}") from exc
    if not rows:
        raise DataError("empty file")

    _, header = rows[0]
    columns = _header_columns(header)
    for column, index in zip(_COLUMNS, columns):
        if index is None:
            raise DataError(f"missing required column {column!r}")

    table = []
    for line_no, row in rows[1:]:
        try:
            values = [float(row[i]) for i in columns]
        except (ValueError, IndexError) as exc:
            raise DataError(f"row {line_no}: non-numeric cell ({exc})") from exc
        if not all(map(math.isfinite, values)) or values[-1] not in (0.0, 1.0):
            raise DataError(f"row {line_no}: feature cells must be finite and the label 0 or 1")
        table.append(values)
    if not table:
        raise DataError("no data rows")
    table = np.array(table)
    return Dataset(name, table[:, :NUM_FEATURES], table[:, NUM_FEATURES])


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the canonical CSV layout, whole or not at all.

    A header, then one line per row: the repr of each feature's float and
    the 0/1 label, comma-separated, with csv.writer's CRLF line ends.
    """
    def write(fh):
        fh.write(",".join(_COLUMNS) + "\r\n")
        # One row's floats at a time: no numpy scalar per cell, and no
        # table-sized list of Python floats.
        for row, label in zip(dataset.features, dataset.labels.tolist()):
            fh.write(f"{','.join(map(repr, row.tolist()))},{label}\r\n")

    write_output(path, write)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature mean and standard deviation fitted on training data."""

    mean: np.ndarray
    std: np.ndarray  # constant features stored with std 1.0


def fit_normalizer(train: Dataset) -> NormalizationStats:
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    if not np.all(np.isfinite(std)):  # an overflow while float errors are ignored
        raise NumericError(f"dataset {train.name!r}: feature standard deviation overflows")
    std = np.where(std > 0, std, 1.0)
    return NormalizationStats(mean=mean, std=std)


def apply_normalizer(d: Dataset, stats: NormalizationStats) -> Dataset:
    features = d.features - stats.mean
    features /= stats.std
    return Dataset(d.name, features, d.labels)


def split_train_test(d: Dataset, test_fraction: float, seed: int):
    """Deterministic stratified split; returns (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    test_indices = []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(d.labels == cls)
        if len(cls_idx) < 2:
            raise DataError(f"dataset {d.name!r}: class {cls} has fewer than 2 samples, "
                            "cannot stratify")
        n_test = int(math.floor(test_fraction * len(cls_idx) + 0.5))
        perm = rng.permutation(len(cls_idx))
        test_indices.extend(cls_idx[perm[:n_test]])
    if not 0 < len(test_indices) < len(d):
        side = "training" if test_indices else "test"
        raise DataError(f"dataset {d.name!r}: test_fraction {test_fraction} leaves "
                        f"the {side} split empty")
    test_indices = np.sort(test_indices)
    train = d.subset(np.setdiff1d(np.arange(len(d)), test_indices), f"{d.name}-train")
    test = d.subset(test_indices, f"{d.name}-test")
    return train, test


def partition_chunks(d: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """Shuffle then deal sample indices round-robin into k near-equal chunks.

    Membership is random (no stratification), so chunk class ratios vary;
    chunk sizes differ by at most one. Indices within a chunk are kept
    sorted so materialized chunks preserve source row order.
    """
    if k < 1:
        raise DataError("chunk count must be >= 1")
    if k > len(d):
        raise DataError(f"cannot split {len(d)} samples into {k} chunks")
    perm = np.random.default_rng(seed).permutation(len(d))
    return [np.sort(perm[j::k]) for j in range(k)]


def extract_chunks(d: Dataset, chunks) -> list[Dataset]:
    return [d.subset(chunk, f"{d.name}-chunk{j}") for j, chunk in enumerate(chunks)]


def rebalance(d: Dataset, mode: str, seed: int) -> Dataset:
    """Equalize class counts by duplicating minority or dropping majority rows."""
    if mode not in REBALANCE_MODES:
        raise DataError(f"unknown rebalance mode {mode!r}")
    neg, pos = d.class_counts()
    if neg == 0 or pos == 0:
        raise DataError(f"dataset {d.name!r} has a single class, cannot rebalance")
    if mode == NO_REBALANCE:
        return d
    rng = np.random.default_rng(seed)
    minority = 1 if pos < neg else 0
    minority_idx = np.flatnonzero(d.labels == minority)
    majority_idx = np.flatnonzero(d.labels != minority)
    if mode == OVERSAMPLE:
        extra = rng.integers(0, len(minority_idx), size=len(majority_idx) - len(minority_idx))
        indices = np.concatenate([np.arange(len(d)), minority_idx[extra]])
    else:
        kept = rng.choice(majority_idx, size=len(minority_idx), replace=False)
        indices = np.sort(np.concatenate([minority_idx, kept]))
    return d.subset(indices)


def domain_shift(magnitude: float) -> np.ndarray:
    """Translation vector modeling another organization's drifted metrics.

    Splits the requested magnitude between the class axis (moves the
    population toward a foreign decision boundary) and the orthogonal
    context axis (moves it off the training support), so shifted data
    degrades a naively transferred model while remaining separable for a
    model trained on both populations.
    """
    along = _SHIFT_CLASS_FRACTION
    ortho = math.sqrt(1.0 - along ** 2)
    return float(magnitude) * (along * CLASS_AXIS + ortho * CONTEXT_AXIS)


def synth_generate(n: int, positive_rate: float, shift, seed: int,
                   name: str | None = None) -> Dataset:
    """Generate a two-cluster Gaussian surrogate dataset.

    Labels are i.i.d. Bernoulli(positive_rate); features are unit-variance
    Gaussians centered +-CLASS_SEPARATION/2 along CLASS_AXIS, then the
    whole population is translated by `shift` (scalar or 16-vector).
    """
    if n < 10:
        raise DataError("synthetic datasets need at least 10 samples")
    if not 0.0 < positive_rate < 1.0:
        raise DataError("positive_rate must be in (0, 1)")
    shift = np.broadcast_to(np.asarray(shift, dtype=float), (NUM_FEATURES,))
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < positive_rate).astype(np.int64)
    signs = labels * 2 - 1
    centers = signs[:, None] * (CLASS_SEPARATION / 2.0) * CLASS_AXIS
    features = centers + rng.standard_normal((n, NUM_FEATURES)) + shift
    return Dataset(name or f"synth{seed}", features, labels)
