"""Seeded, numpy-only "planes" data for the benchmark.

The benchmark owns its inputs: a change in the program's own data
generators cannot move the numbers. Two Gaussian clusters sit on either
side of a random hyperplane and 1 % of the labels are re-rolled, the shape
of PLSSVM's ``planes`` generator. The same ``(m, d, seed)`` always gives
the same arrays and the same file bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

CLASS_SEP = 1.3
CLUSTER_STD = 0.7
FLIP_FRACTION = 0.01


def make_planes(m: int, d: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` with ``X`` of shape ``(m, d)`` and labels in {-1, +1}."""
    gen = np.random.default_rng(seed)
    normal = gen.standard_normal(d)
    normal /= np.linalg.norm(normal)
    y = np.where(np.arange(m) < m // 2, 1.0, -1.0)
    X = gen.standard_normal((m, d)) * CLUSTER_STD
    X += (y * CLASS_SEP)[:, None] * normal[None, :]
    flip = gen.choice(m, size=int(round(m * FLIP_FRACTION)), replace=False)
    y[flip] = gen.choice([-1.0, 1.0], size=flip.size)
    order = gen.permutation(m)
    return X[order], y[order]


def split(X: np.ndarray, y: np.ndarray, n_train: int):
    """First ``n_train`` rows for training, the rest held out."""
    return (X[:n_train], y[:n_train]), (X[n_train:], y[n_train:])


def write_libsvm(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    """Dense LIBSVM text: every feature written, round-trip exact (``%.17g``)."""
    d = X.shape[1]
    cols = " ".join(f"{j + 1}:%.17g" for j in range(d))
    rows = np.column_stack([y, X])
    np.savetxt(path, rows, fmt=["%d"] + cols.split(), delimiter=" ")
