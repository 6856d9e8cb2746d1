"""Dataset loading, normalization, partitioning, and synthetic generation.

Loaders return row-major float feature matrices with integer labels
remapped densely onto 0..C-1. Partitioning produces index sets (never
copies) over one train split plus a held-out test split. What stays
resident through training is one normalized matrix: clients gather their
minibatches, and the evaluator its test batches, from that matrix through
an index. Building it holds one matrix: `generate_synthetic` draws into
the matrix it returns, and `normalize` rewrites the matrix of the dataset
it is given in place. Both work on about `CHUNK_BYTES` of rows at a time.
"""

from __future__ import annotations

import csv
import gzip
import struct
from dataclasses import dataclass, field

import numpy as np

from .sparse_net import ConfigError

# Bytes of rows drawn, permuted or gathered per step of the data path. Small
# next to any matrix worth chunking, and small enough that freeing a chunk
# leaves glibc's mmap threshold where training's own arrays put it: 10 MB
# chunks raised it and kept about 11 MB more resident through a 2000 x 5000
# run.
CHUNK_BYTES = 1 << 20


def _chunk_rows(d: int) -> int:
    """Rows of a d-column float64 matrix per chunk: at least one."""
    return max(1, CHUNK_BYTES // (8 * d))


class DataFormatError(ValueError):
    """A dataset file could not be parsed."""


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    name: str = "dataset"
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if self.y.size else 0


@dataclass
class PartitionedDataset:
    """Disjoint client shards plus a held-out test split, as index arrays."""

    data: Dataset
    shards: list[np.ndarray] | tuple[np.ndarray, ...]   # a RunPlan keeps a tuple
    test: np.ndarray


def _dense_labels(raw: list) -> np.ndarray:
    """Remap arbitrary label values onto 0..C-1 (numeric order if possible).

    Numeric labels are keyed by their float value, so "1e3" and "1000" are
    one class and "1.2" and "1.7" are two. A NaN equals no key, not even
    itself, so labels that include one are keyed as strings.
    """
    try:
        values = [float(v) for v in raw]
        if np.isnan(values).any():
            raise ValueError("NaN label")
        classes = sorted(set(values))
    except (TypeError, ValueError):
        values = [str(v) for v in raw]
        classes = sorted(set(values))
    lookup = {c: k for k, c in enumerate(classes)}
    return np.array([lookup[v] for v in values], dtype=np.int64)


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load a headered CSV; `label_column` defaults to the last column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column is None:
            label_idx = len(header) - 1
        else:
            if label_column not in header:
                raise DataFormatError(f"{path}: no label column named {label_column!r}")
            label_idx = header.index(label_column)
        rows, labels = [], []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: line {ln}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                rows.append([float(v) for k, v in enumerate(row) if k != label_idx])
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {ln}: {exc}") from None
            labels.append(row[label_idx].strip())
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=float), _dense_labels(labels), name=str(path))


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_exactly(fh, size: int, path, what: str) -> bytes:
    """`size` bytes from fh; fewer left in the file is a DataFormatError."""
    buf = fh.read(size)
    if len(buf) != size:
        raise DataFormatError(f"{path}: truncated {what}")
    return buf


def load_idx(images_path, labels_path) -> Dataset:
    """Load a big-endian IDX image/label file pair (gzip transparently)."""
    with _open_maybe_gzip(images_path) as fh:
        magic, n_images, n_rows, n_cols = struct.unpack(
            ">IIII", _read_exactly(fh, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        pixels = np.frombuffer(
            _read_exactly(fh, n_images * n_rows * n_cols, images_path, "pixel data"),
            dtype=np.uint8)
    with _open_maybe_gzip(labels_path) as fh:
        magic, n_labels = struct.unpack(">II", _read_exactly(fh, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        labels = np.frombuffer(_read_exactly(fh, n_labels, labels_path, "label data"),
                               dtype=np.uint8)
    if n_labels != n_images:
        raise DataFormatError(f"{labels_path}: {n_labels} labels for {n_images} images")
    X = pixels.reshape(n_images, n_rows * n_cols).astype(float)
    return Dataset(X, _dense_labels(labels.tolist()), name=str(images_path))


def load_libsvm(path, n_features: int | None = None) -> Dataset:
    """Load `label idx:val ...` lines; indices are 1-based in the file."""
    labels, entries = [], []
    max_idx = 0
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            labels.append(parts[0])
            row = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataFormatError(f"{path}: line {ln}: bad entry {tok!r}") from None
                if idx < 1:
                    raise DataFormatError(f"{path}: line {ln}: index {idx} is not 1-based")
                row[idx - 1] = val
                max_idx = max(max_idx, idx)
            entries.append(row)
    if not entries:
        raise DataFormatError(f"{path}: no data rows")
    d = n_features if n_features is not None else max_idx
    if max_idx > d:
        raise DataFormatError(f"{path}: index {max_idx} exceeds n_features={d}")
    X = np.zeros((len(entries), d))
    for i, row in enumerate(entries):
        for j, v in row.items():
            X[i, j] = v
    return Dataset(X, _dense_labels(labels), name=str(path))


def _fold(ufuncs, X: np.ndarray, rows: np.ndarray, center=None) -> list[np.ndarray]:
    """`[u.reduce(X[rows], axis=0) for u in ufuncs]`, to the bit, one chunk at a time.

    With `center`, the rows are first replaced by their squared deviations
    from it. numpy reduces axis 0 of a row-major block one row after
    another, so each chunk's first row is seeded with the result so far;
    combining per-chunk results instead would move the last bits of sums.
    A one-column block is reduced pairwise along its contiguous axis, so it
    is gathered whole.
    """
    step = _chunk_rows(X.shape[1]) if X.shape[1] > 1 else len(rows)
    accs = [None] * len(ufuncs)
    for start in range(0, len(rows), step):
        chunk = X[rows[start:start + step]]
        if center is not None:
            np.square(np.subtract(chunk, center, out=chunk), out=chunk)
        first = chunk[0].copy()
        for k, ufunc in enumerate(ufuncs):
            if accs[k] is None:
                chunk[0] = first
            else:
                ufunc(accs[k], first, out=chunk[0])
            accs[k] = ufunc.reduce(chunk, axis=0)
        del chunk   # before the next gather: one chunk alive at a time
    return accs


def normalize(ds: Dataset, mode: str, rows: np.ndarray) -> None:
    """Per-feature normalization of `ds.X` in place, statistics from `rows`.

    minmax maps each feature to [0, 1]; zscore to mean 0, sd 1. Constant
    features map to 0 under both modes. The statistics are minmax's
    `min`/`max` or zscore's `np.mean`/`np.std` (`sum / n`, then
    `sqrt(sum((x - mean)**2) / n)`) over the index array `rows`, byte for
    byte, gathered one chunk of rows at a time.
    """
    if mode not in ("minmax", "zscore"):
        raise ConfigError(f"unknown normalization mode {mode!r}")
    X = ds.X
    n = len(rows)
    if n < 1:
        raise ValueError("cannot fit normalization on an empty split")
    if mode == "minmax":
        center, high = _fold((np.minimum, np.maximum), X, rows)
        scale = high - center
    else:
        [total] = _fold((np.add,), X, rows)
        center = total / n
        [squares] = _fold((np.add,), X, rows, center)
        scale = np.sqrt(squares / n)
    X -= center
    X /= np.where(scale == 0.0, 1.0, scale)
    X[:, scale == 0.0] = 0.0


def stratified_split(ds: Dataset, test_fraction: float, seed: int):
    """Per-class shuffled split; returns (train_idx, test_idx) ascending."""
    rng = np.random.default_rng([int(seed), 0x5EED])
    test_parts = []
    for c in range(ds.n_classes):
        idx_c = np.nonzero(ds.y == c)[0]
        idx_c = rng.permutation(idx_c)
        n_test = int(round(test_fraction * len(idx_c)))
        test_parts.append(idx_c[:n_test])
    test = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=int)
    mask = np.ones(ds.n, dtype=bool)
    mask[test] = False
    return np.nonzero(mask)[0], test


def partition_noniid(ds: Dataset, m: int, alpha: float, seed: int,
                     test_fraction: float = 0.2) -> PartitionedDataset:
    """Dirichlet label-skew partition of the train split into m shards.

    Per class, shard proportions are drawn from Dirichlet(alpha); lower
    alpha means stronger skew. Empty shards are repaired by moving one
    sample at a time from the largest shard. Deterministic per seed.
    """
    if m < 2:
        raise ConfigError("a federation needs at least two clients")
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    train, test = stratified_split(ds, test_fraction, seed)
    if m > len(train):
        raise ConfigError(f"{m} clients but only {len(train)} training samples")

    rng = np.random.default_rng([int(seed), 0xD1D1])
    shards: list[list[int]] = [[] for _ in range(m)]
    y_train = ds.y[train]
    for c in range(ds.n_classes):
        idx_c = train[y_train == c]
        if len(idx_c) == 0:
            continue
        idx_c = rng.permutation(idx_c)
        props = rng.dirichlet(np.full(m, alpha))
        cuts = (np.cumsum(props) * len(idx_c)).astype(int)[:-1]
        for shard, part in zip(shards, np.split(idx_c, cuts)):
            shard.extend(int(i) for i in part)

    sizes = [len(s) for s in shards]
    while min(sizes) == 0:
        donor = int(np.argmax(sizes))
        taker = sizes.index(0)
        shards[taker].append(shards[donor].pop())
        sizes = [len(s) for s in shards]

    return PartitionedDataset(
        ds, [np.sort(np.array(s, dtype=int)) for s in shards], np.asarray(test, dtype=int)
    )


def generate_synthetic(n_informative: int, n_noise: int, n_samples: int,
                       n_classes: int, seed: int, separation: float = 1.0) -> Dataset:
    """Class-conditional Gaussian features padded with pure noise columns.

    Each informative feature takes one of `n_classes` evenly spaced class
    mean levels (class-to-level assignment randomized per feature, spacing
    `separation`), plus unit Gaussian noise. Noise columns are standard
    normal, independent of the label. Columns are shuffled; the ground
    truth landing spots are recorded in meta["informative_idx"].
    """
    if min(n_informative, n_samples, n_classes) < 1 or n_noise < 0:
        raise ConfigError("synthetic dataset counts out of range")
    rng = np.random.default_rng([int(seed), 0x5F9])
    y = rng.permutation(np.arange(n_samples) % n_classes).astype(np.int64)
    levels = separation * (np.arange(n_classes) - (n_classes - 1) / 2.0)
    means = np.empty((n_classes, n_informative))
    for f in range(n_informative):
        means[:, f] = levels[rng.permutation(n_classes)]
    # the informative block, then the noise block, each drawn in row chunks
    # straight into the one matrix: standard_normal fills row-major, so the
    # chunks are one draw's values and leave the generator where one draw
    # would
    X = np.empty((n_samples, n_informative + n_noise))
    step = _chunk_rows(n_informative + n_noise)
    chunks = [(a, min(a + step, n_samples)) for a in range(0, n_samples, step)]
    for a, b in chunks:
        X[a:b, :n_informative] = means[y[a:b]] + rng.standard_normal((b - a, n_informative))
    for a, b in chunks:
        X[a:b, n_informative:] = rng.standard_normal((b - a, n_noise))
    perm = rng.permutation(n_informative + n_noise)
    # columns permuted in place a chunk at a time, so the matrix stays
    # row-major (X[:, perm] would come back column-major and make every
    # minibatch row gather strided)
    for a, b in chunks:
        X[a:b] = np.take(X[a:b], perm, axis=1)
    informative_idx = np.nonzero(perm < n_informative)[0]
    return Dataset(
        X, y, name=f"synthetic_{n_informative}+{n_noise}",
        meta={"informative_idx": [int(i) for i in informative_idx],
              "separation": float(separation)},
    )
