"""Reference data path: `normalize` and `generate_synthetic` as plain formulas.

These are the original `data.normalize` (statistics by `np.mean`/`np.std`
or `min`/`max` on a row copy, the output as one expression over the whole
matrix) and `data.generate_synthetic` (informative and noise blocks
concatenated, then columns permuted with `np.take`). The package replaced
them with versions that hold fewer copies of the matrix at once
(dsffs.data); both must give the same bytes, and these serve as the oracle
of tests/test_data.py. Nothing here comes from the package, so the oracle
cannot change along with the code it checks.

A measured pitfall for any rewrite: statistics must reduce over axis 0 of
the whole row-major block. Computed one column at a time they change the
last bits of most means and deviations, because numpy sums a contiguous
1-D column pairwise but accumulates the rows of a 2-D block one after the
other.
"""

from __future__ import annotations

import numpy as np


def normalize(X: np.ndarray, mode: str, fit_idx=None) -> np.ndarray:
    """Per-feature minmax or zscore of X, statistics from rows `fit_idx`."""
    ref = X if fit_idx is None else X[fit_idx]
    if mode == "minmax":
        center = ref.min(axis=0)
        scale = ref.max(axis=0) - center
    else:
        center, scale = ref.mean(axis=0), ref.std(axis=0)
    out = (X - center) / np.where(scale == 0.0, 1.0, scale)
    out[:, scale == 0.0] = 0.0
    return out


def generate_synthetic(n_informative: int, n_noise: int, n_samples: int,
                       n_classes: int, seed: int, separation: float = 1.0):
    """(X, y, informative_idx) drawn exactly as the package's generator draws them."""
    rng = np.random.default_rng([int(seed), 0x5F9])
    y = rng.permutation(np.arange(n_samples) % n_classes).astype(np.int64)
    levels = separation * (np.arange(n_classes) - (n_classes - 1) / 2.0)
    means = np.empty((n_classes, n_informative))
    for f in range(n_informative):
        means[:, f] = levels[rng.permutation(n_classes)]
    X_inf = means[y] + rng.standard_normal((n_samples, n_informative))
    X_noise = rng.standard_normal((n_samples, n_noise))
    X = np.concatenate([X_inf, X_noise], axis=1)
    perm = rng.permutation(n_informative + n_noise)
    X = np.take(X, perm, axis=1)
    return X, y, np.nonzero(perm < n_informative)[0]
