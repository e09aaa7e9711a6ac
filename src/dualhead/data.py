"""Dataset construction: synthetic generators, a delimited-text loader,
stratified splits, and per-class sampling-rate subsetting.

Everything is deterministic under its seed, and every produced dataset is
finite and densely labeled 0..C-1. An example's id is its row number.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Base class for dataset construction failures."""


class UnreadableFileError(DataError):
    """The input file could not be opened or read."""


class RaggedRowError(DataError):
    """A delimited row has the wrong number of cells."""


class NonNumericCellError(DataError):
    """A delimited cell failed to parse as a number."""


class NonIntegerLabelError(DataError):
    """A label cell is numeric but not integer-valued."""


@dataclass
class Dataset:
    """Immutable-by-convention feature table with dense integer labels."""

    features: np.ndarray  # (N x in), float64
    labels: np.ndarray  # (N,), int64 in [0, class_count)
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataError(f"features must be a nonempty 2-D array, got shape {self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise DataError("labels must have one entry per feature row")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise DataError(f"labels must lie in [0, {self.class_count})")

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def in_dim(self) -> int:
        return int(self.features.shape[1])

    def take(self, indices: np.ndarray) -> "Dataset":
        """Subset by row indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx].copy(), self.labels[idx].copy(), self.class_count)


def _simplex_means(class_count: int, dim: int, separation: float) -> np.ndarray:
    """Class-count centered points in R^dim with all pairwise distances equal
    to ``separation``. Needs dim >= class_count - 1."""
    c = class_count
    if dim >= c:
        # Scaled, centered standard basis: |a e_i - a e_j| = a * sqrt(2).
        pts = np.eye(c) * (separation / math.sqrt(2.0))
        pts -= pts.mean(axis=0, keepdims=True)
    elif dim >= c - 1:
        # Same construction projected onto its (c-1)-dimensional span.
        raw = np.eye(c) - 1.0 / c
        _, _, vt = np.linalg.svd(raw, full_matrices=False)
        pts = raw @ vt[: c - 1].T * (separation / math.sqrt(2.0))
    else:
        raise DataError(f"need dim >= {c - 1} to place {c} equidistant class means, got dim={dim}")
    means = np.zeros((c, dim))
    means[:, : pts.shape[1]] = pts
    return means


def make_blobs(
    class_count: int,
    per_class: int,
    dim: int,
    separation: float,
    noise: float,
    seed: int,
) -> Dataset:
    """Isotropic Gaussian clusters around equidistant class means."""
    if class_count < 2 or per_class < 1:
        raise DataError("make_blobs needs class_count >= 2 and per_class >= 1")
    rng = np.random.default_rng(seed)
    means = _simplex_means(class_count, dim, float(separation))
    features = np.vstack([
        means[c] + rng.normal(0.0, float(noise), size=(per_class, dim))
        for c in range(class_count)
    ])
    labels = np.repeat(np.arange(class_count, dtype=np.int64), per_class)
    return Dataset(features, labels, class_count)


def make_rings(class_count: int, per_class: int, noise: float, seed: int) -> Dataset:
    """Concentric 2-D rings, radius c+1 for class c, with radial noise.

    Not linearly separable for class_count >= 2: a useful probe of whether
    intrinsic structure (rather than a linear boundary) is being learned.
    """
    if class_count < 2 or per_class < 1:
        raise DataError("make_rings needs class_count >= 2 and per_class >= 1")
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(class_count):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=per_class)
        radius = (c + 1.0) + rng.normal(0.0, float(noise), size=per_class)
        rows.append(np.column_stack([radius * np.cos(theta), radius * np.sin(theta)]))
    features = np.vstack(rows)
    labels = np.repeat(np.arange(class_count, dtype=np.int64), per_class)
    return Dataset(features, labels, class_count)


def load_delimited(
    path: str,
    delimiter: str = ",",
    label_column: int = 0,
    has_header: bool = False,
) -> Dataset:
    """Read a rectangular numeric table; one column holds integer labels.

    Features keep their file column order (label column removed); labels
    are re-indexed densely 0..C-1 in order of first appearance.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = list(csv.reader(fh, delimiter=delimiter))
    except OSError as exc:
        raise UnreadableFileError(f"cannot read {path}: {exc}") from exc
    start_line = 1
    if has_header and raw:
        raw = raw[1:]
        start_line = 2
    rows = [(i + start_line, r) for i, r in enumerate(raw) if r]
    if not rows:
        raise DataError(f"{path} contains no data rows")
    width = len(rows[0][1])
    if not 0 <= label_column < width:
        raise DataError(f"label_column {label_column} out of range for {width} columns")
    features = []
    raw_labels = []
    for line_no, cells in rows:
        if len(cells) != width:
            raise RaggedRowError(f"{path}:{line_no}: expected {width} cells, got {len(cells)}")
        parsed = []
        for col, cell in enumerate(cells):
            try:
                parsed.append(float(cell))
            except ValueError as exc:
                raise NonNumericCellError(f"{path}:{line_no}: column {col}: {cell!r} is not numeric") from exc
        label = parsed.pop(label_column)
        if not float(label).is_integer():
            raise NonIntegerLabelError(f"{path}:{line_no}: label {label!r} is not integer-valued")
        raw_labels.append(int(label))
        features.append(parsed)
    remap: dict[int, int] = {}
    for lab in raw_labels:
        if lab not in remap:
            remap[lab] = len(remap)
    labels = np.array([remap[lab] for lab in raw_labels], dtype=np.int64)
    return Dataset(np.array(features, dtype=np.float64), labels, len(remap))


def subsample_per_class(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Keep ceil(rate * n_c) examples of each class, uniformly without
    replacement. Ceiling keeps every class alive at any rate."""
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise DataError(f"sampling rate must be in (0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    for c in range(ds.class_count):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size == 0:
            continue
        k = math.ceil(rate * idx.size)
        keep.append(rng.choice(idx, size=k, replace=False))
    order = np.sort(np.concatenate(keep))
    return ds.take(order)


def split_stratified(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Per-class train/validation split.

    Each class contributes floor(train_fraction * n_c) training examples,
    clamped so both sides keep at least one example per class whenever
    the class has two or more. train_fraction = 1 reuses the full dataset
    on both sides (self-validation, for smoke runs only).
    """
    frac = float(train_fraction)
    if not 0.0 < frac <= 1.0:
        raise DataError(f"train_fraction must be in (0, 1], got {frac}")
    if frac == 1.0:
        return ds.take(np.arange(len(ds))), ds.take(np.arange(len(ds)))
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    val_idx: list[np.ndarray] = []
    for c in range(ds.class_count):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size == 0:
            continue
        perm = rng.permutation(idx)
        n_train = int(math.floor(frac * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1) if idx.size > 1 else 1
        train_idx.append(perm[:n_train])
        val_idx.append(perm[n_train:])
    train = np.sort(np.concatenate(train_idx))
    val_parts = [v for v in val_idx if v.size]
    if not val_parts:
        raise DataError("validation split is empty; lower train_fraction or add data")
    val = np.sort(np.concatenate(val_parts))
    return ds.take(train), ds.take(val)
