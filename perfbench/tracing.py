"""In-memory spans around the program's public layer entry points.

The benchmark records spans from its own files only: each wrapper is
installed where the caller looks the name up (``repro.cli.train.
read_libsvm_file``, ``repro.core.lssvm.build_reduced_system``, ...) or on
the class whose method is called. Spans hold ``time.monotonic()``
readings, which on Linux share one clock across processes, so a client
can line them up with its own timestamps. Nothing is written until
:meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import Dict, List

#: Layer name -> (module, attribute path) of the function to wrap.
FUNCTION_LAYERS = {
    "io.read": ("repro.cli.train", "read_libsvm_file"),
    "core.assembly": ("repro.core.lssvm", "build_reduced_system"),
    "core.precond": ("repro.core.lssvm", "make_preconditioner"),
    "core.cg": ("repro.core.lssvm", "conjugate_gradient"),
    "core.save": ("repro.core.lssvm", "LSSVC.save"),
    "serve.predict": ("repro.serve.server", "ServingApp.predict"),
    "serve.engine": ("repro.serve.engine", "PredictionEngine.evaluate"),
}


class Recorder:
    """Collects ``[layer, start, end]`` spans and the fit reports' counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.fits: List[Dict[str, float]] = []
        self._local = threading.local()

    def span(self, layer: str, start: float, end: float) -> None:
        self.spans.append([layer, start, end])

    def _wrap(self, layer: str, fn, *, outermost: bool = False):
        """A wrapper timing ``fn``; ``outermost`` drops calls nested in one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, layer, 0)
            if outermost and depth:
                return fn(*args, **kwargs)
            setattr(self._local, layer, depth + 1)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.span(layer, start, time.monotonic())
                setattr(self._local, layer, depth)

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point of the program in this process."""
        import importlib

        for layer, (module_name, path) in FUNCTION_LAYERS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))

        from repro.backends.base import CSVM
        from repro.core.lssvm import LSSVC
        from repro.core.qmatrix import QMatrixBase

        for cls in _with_subclasses(CSVM):
            if "create_qmatrix" in vars(cls):
                cls.create_qmatrix = self._wrap(
                    "backends.transform", vars(cls)["create_qmatrix"]
                )
        # matvec and matvec_multi share one layer: a block matvec that
        # falls back to single ones is still one call.
        for cls in _with_subclasses(QMatrixBase):
            for attr in ("matvec", "matvec_multi"):
                if attr in vars(cls):
                    setattr(
                        cls,
                        attr,
                        self._wrap("core.matvec", vars(cls)[attr], outermost=True),
                    )

        fit = LSSVC.fit
        timed_fit = self._wrap("core.fit", fit)

        @functools.wraps(fit)
        def fit_with_report(estimator, *args, **kwargs):
            out = timed_fit(estimator, *args, **kwargs)
            counters = estimator.report_.counters
            self.fits.append(
                {
                    "iterations": float(estimator.result_.iterations),
                    "tiles_computed": float(counters.get("tiles_computed", 0)),
                    "cache_hit_rate": float(counters.get("cache_hit_rate", 0.0)),
                }
            )
            return out

        LSSVC.fit = fit_with_report

    def dump(self, path: Path, **extra) -> None:
        payload = {"spans": self.spans, "fits": self.fits, **extra}
        Path(path).write_text(json.dumps(payload))


def _with_subclasses(cls):
    seen, stack = [], [cls]
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.append(current)
            stack.extend(current.__subclasses__())
    return seen


def layer_totals(spans, start: float = float("-inf"), end: float = float("inf")):
    """Per layer: ``(total seconds, calls)`` of spans starting in ``[start, end)``."""
    totals: Dict[str, list] = {}
    for layer, s, e in spans:
        if start <= s < end:
            entry = totals.setdefault(layer, [0.0, 0])
            entry[0] += e - s
            entry[1] += 1
    return totals
