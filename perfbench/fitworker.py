"""Repeated ``LSSVC().fit()`` calls in a process of their own.

Usage::

    python3 perfbench/fitworker.py DATA_DIR SECONDS MODEL_OUT [SPANS_OUT]

Loads ``train_X.npy``/``train_y.npy``/``test_X.npy``/``test_y.npy`` from
``DATA_DIR``, makes one untimed warm-up fit, then fits the library
default ``LSSVC()`` until ``SECONDS`` have passed (at least once), scores
each model on the held-out split outside the timed region, and saves the
last model to ``MODEL_OUT``. With ``SPANS_OUT``, three untraced fits are
timed first, then the layer spans of the timed fits are recorded and
written there. Prints one JSON line: fit intervals, accuracies, the save
time and this process's peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np


def _timed_fit(LSSVC, X, y):
    clf = LSSVC()
    start = time.monotonic()
    clf.fit(X, y)
    return clf, [start, time.monotonic()]


def main(argv) -> int:
    data_dir, seconds, model_out, *spans_out = argv
    data = Path(data_dir)
    X, y = np.load(data / "train_X.npy"), np.load(data / "train_y.npy")
    X_test, y_test = np.load(data / "test_X.npy"), np.load(data / "test_y.npy")

    from repro import LSSVC

    LSSVC().fit(X, y)  # warm-up: first-touch allocations, lazy imports
    recorder, untraced = None, []
    if spans_out:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Recorder

        for _ in range(3):
            untraced.append(_timed_fit(LSSVC, X, y)[1])
        recorder = Recorder()
        recorder.install()

    fits, accuracies = [], []
    begin = time.monotonic()
    while not fits or time.monotonic() - begin < float(seconds):
        clf, interval = _timed_fit(LSSVC, X, y)
        fits.append(interval)
        accuracies.append(float(clf.score(X_test, y_test)))
    start = time.monotonic()
    clf.save(model_out)
    save_s = time.monotonic() - start
    if recorder is not None:
        recorder.dump(Path(spans_out[0]), untraced=untraced)
    out = {
        "fits": fits,
        "accuracy": accuracies,
        "save_s": save_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
