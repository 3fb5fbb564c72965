"""The structured per-fit training report and its serializations.

A :class:`TrainingReport` is the deliverable of one fit's
:class:`~repro.telemetry.context.TelemetryContext`: the paper's Fig. 2
runtime decomposition (per-phase seconds), the solver outcome
(iterations, residual, status), the tile-pipeline counters and cache hit
rate, the resilience audit log, and the per-device modeled times —
everything Table 1 / Fig. 2-style comparisons need, attributed to
exactly one fit even when fits run concurrently.

Serializations:

* :meth:`TrainingReport.as_dict` / :meth:`to_json` — a JSON document
  conforming to :data:`REPORT_SCHEMA` (checked by
  :func:`validate_report`, which the CI smoke step runs against a real
  training run);
* :meth:`TrainingReport.chrome_trace` / :meth:`write_chrome_trace` — the
  Trace Event JSON that ``chrome://tracing`` / Perfetto render, with the
  host span tree (``fit > cg_solve > iteration > tile_sweep``) on one
  process row and the simulated device events interleaved on another.
  Host rows tick in wall seconds, device rows in modeled device seconds;
  both start at the fit epoch.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exceptions import TelemetryError
from ..membudget import sample_peak_rss

__all__ = [
    "TrainingReport",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "validate_report",
    "build_report",
]

#: Version stamp written into every report; bump on breaking shape changes.
#: v2: the solver object gained ``strategy`` / ``rank`` / ``setup_seconds``
#: (the randomized-solver tier: which strategy ran, at what rank, and its
#: factorization cost).
#: v3: top-level ``peak_rss_bytes`` — the process resident-set high-water
#: mark sampled at phase boundaries and CG checkpoints (the out-of-core
#: training proof: peak RSS stayed under the ``--memory-budget-mb`` cap).
#: v4: the solver object gained ``warm_start_iterations`` (the streaming
#: tier: CG iterations spent when the solve started from the previous
#: model's multipliers instead of zero — 0 for every cold solve); the
#: incremental refit path also times a ``refit`` phase.
#: v5: the solver object gained ``operator`` — which reduced-system
#: realization the solve ran on (``implicit`` / ``explicit`` /
#: ``row_sharded`` / ``cholesky`` / ``sparse_implicit`` / ``backend``;
#: ``feature_map`` for the random-feature primal, which has none), so an
#: operator mis-choice shows in the report without a profiler.
REPORT_SCHEMA_VERSION = 5

#: Declarative shape of the serialized report: required key -> type spec.
#: A type spec is a Python type, a tuple of admissible types, or ``list``
#: (any JSON array) / ``dict`` (any JSON object). Kept hand-rolled so the
#: validator needs no third-party jsonschema dependency.
REPORT_SCHEMA: Dict[str, object] = {
    "schema_version": int,
    "fit": str,
    "estimator": str,
    "backend": str,
    "num_samples": int,
    "num_features": int,
    "wall_seconds": (int, float),
    "phases": dict,
    "solver": dict,
    "counters": dict,
    "metrics": dict,
    "spans": dict,
    "devices": list,
    "events": list,
    "device_event_count": int,
    "dropped_spans": int,
    "peak_rss_bytes": int,
}

#: Required keys inside the nested "solver" object.
_SOLVER_SCHEMA: Dict[str, object] = {
    "iterations": int,
    "residual": (int, float),
    "status": str,
    "converged": bool,
    "strategy": str,
    "rank": int,
    "setup_seconds": (int, float),
    "warm_start_iterations": int,
    "operator": str,
}

#: Counter keys every report must carry (the Fig. 2 / resilience story).
_REQUIRED_COUNTERS = (
    "tile_sweeps",
    "tiles_computed",
    "cache_hits",
    "cache_misses",
    "cache_hit_rate",
    "cg_solves",
    "cg_iterations",
    "precond_setups",
    "precond_setup_seconds",
    "devices_lost",
    "redistributions",
    "checkpoint_restores",
    "transient_retries",
    "backoff_seconds",
)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise TelemetryError(message)


def _check_span(node: object, path: str) -> None:
    _check(isinstance(node, dict), f"{path}: span node must be an object")
    for key in ("name", "ts", "dur"):
        _check(key in node, f"{path}: span node missing {key!r}")
    _check(isinstance(node["name"], str), f"{path}: span name must be a string")
    _check(
        isinstance(node["ts"], (int, float)) and isinstance(node["dur"], (int, float)),
        f"{path}: span ts/dur must be numbers",
    )
    for i, child in enumerate(node.get("children", ())):
        _check_span(child, f"{path}.children[{i}]")


def validate_report(data: Union[dict, str]) -> dict:
    """Validate a serialized report against :data:`REPORT_SCHEMA`.

    Accepts the parsed dict or a JSON string; returns the parsed dict on
    success and raises :class:`~repro.exceptions.TelemetryError` naming
    the first violation otherwise.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"report is not valid JSON: {exc}") from exc
    _check(isinstance(data, dict), "report must be a JSON object")
    for key, spec in REPORT_SCHEMA.items():
        _check(key in data, f"report missing required key {key!r}")
        if spec in (list, dict):
            _check(
                isinstance(data[key], spec),
                f"report key {key!r} must be a {spec.__name__}",
            )
        else:
            _check(
                isinstance(data[key], spec)
                and not (spec is int and isinstance(data[key], bool)),
                f"report key {key!r} has wrong type {type(data[key]).__name__}",
            )
    _check(
        data["schema_version"] == REPORT_SCHEMA_VERSION,
        f"unsupported schema_version {data['schema_version']!r} "
        f"(expected {REPORT_SCHEMA_VERSION})",
    )
    for key, spec in _SOLVER_SCHEMA.items():
        _check(key in data["solver"], f"report solver missing key {key!r}")
        _check(
            isinstance(data["solver"][key], spec),
            f"report solver key {key!r} has wrong type",
        )
    for key in _REQUIRED_COUNTERS:
        _check(key in data["counters"], f"report counters missing key {key!r}")
        _check(
            isinstance(data["counters"][key], (int, float)),
            f"report counter {key!r} must be numeric",
        )
    for name, seconds in data["phases"].items():
        _check(
            isinstance(name, str) and isinstance(seconds, (int, float)),
            "report phases must map component name -> seconds",
        )
    _check_span(data["spans"], "spans")
    return data


@dataclasses.dataclass
class TrainingReport:
    """Structured observability record of one completed fit.

    Attributes
    ----------
    fit:
        Label of the fit context (e.g. ``"LSSVC.fit"``).
    estimator / backend:
        Estimator class name and backend description.
    num_samples / num_features:
        Training problem shape.
    phases:
        Component seconds (the paper's ``read`` / ``transform`` (or
        ``assembly``) / ``cg`` / ``write`` / ``total`` taxonomy, plus any
        backend extras like ``cg_device``).
    wall_seconds:
        The ``total`` phase (0 when the total section was never timed).
    solver:
        Iterations, final relative residual, termination status.
    counters:
        SolverCounters-shaped tallies scoped to *this fit only*, with the
        derived ``cache_hit_rate``.
    metrics:
        Full typed-metric snapshot (counters, gauges, histograms).
    spans:
        Serialized span tree rooted at the fit span.
    devices:
        Per-device end-of-fit summaries (modeled clock seconds, launch
        and transfer counters, peak memory) for device backends.
    events:
        The resilience audit log: injected faults, retries,
        redistributions, checkpoint restores, in fit order.
    device_events:
        Raw simulated-device events (kernel launches, transfers) kept
        out of :meth:`as_dict` for compactness; they feed the merged
        chrome trace.
    peak_rss_bytes:
        Resident-set high-water mark (``ru_maxrss``) sampled at phase
        boundaries and CG checkpoints during the fit. On Linux the
        kernel counter is reset at fit entry
        (:func:`repro.membudget.reset_peak_rss`), so the value is the
        fit's own peak and proves an out-of-core run stayed under its
        memory budget; elsewhere it is a process-lifetime maximum.
    """

    fit: str
    estimator: str
    backend: str
    num_samples: int
    num_features: int
    phases: Dict[str, float]
    wall_seconds: float
    solver: Dict[str, object]
    counters: Dict[str, float]
    metrics: Dict[str, object]
    spans: Dict[str, object]
    devices: List[dict]
    events: List[dict]
    device_events: List[dict] = dataclasses.field(default_factory=list, repr=False)
    dropped_spans: int = 0
    peak_rss_bytes: int = 0
    schema_version: int = REPORT_SCHEMA_VERSION

    # -- convenience views ----------------------------------------------------

    @property
    def iterations(self) -> int:
        return int(self.solver.get("iterations", 0))

    @property
    def cache_hit_rate(self) -> float:
        return float(self.counters.get("cache_hit_rate", 0.0))

    def phase_seconds(self, name: str) -> float:
        return float(self.phases.get(name, 0.0))

    @property
    def modeled_device_seconds(self) -> float:
        """Max modeled clock over the devices (they run concurrently)."""
        clocks = [float(d.get("clock_s", 0.0)) for d in self.devices]
        return max(clocks) if clocks else 0.0

    @property
    def device_event_count(self) -> int:
        return len(self.device_events)

    # -- serialization --------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready dict conforming to :data:`REPORT_SCHEMA`."""
        return {
            "schema_version": self.schema_version,
            "fit": self.fit,
            "estimator": self.estimator,
            "backend": self.backend,
            "num_samples": self.num_samples,
            "num_features": self.num_features,
            "wall_seconds": self.wall_seconds,
            "phases": dict(self.phases),
            "solver": dict(self.solver),
            "counters": dict(self.counters),
            "metrics": self.metrics,
            "spans": self.spans,
            "devices": list(self.devices),
            "events": list(self.events),
            "device_event_count": self.device_event_count,
            "dropped_spans": self.dropped_spans,
            "peak_rss_bytes": self.peak_rss_bytes,
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, default=_jsonify)

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    # -- chrome trace ---------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Merged Trace Event JSON: host spans + simulated device events.

        Host spans land on ``pid 0`` (one ``tid`` per reporting thread);
        device events land on ``pid 1`` with one ``tid`` per device — the
        same layout :func:`repro.simgpu.trace.write_chrome_trace` uses,
        so the two render identically side by side.
        """
        events: List[dict] = []
        thread_ids: Dict[int, int] = {}

        def walk(node: dict) -> None:
            raw_tid = int(node.get("attrs", {}).get("thread", 0))
            tid = thread_ids.setdefault(raw_tid, len(thread_ids))
            events.append(
                {
                    "name": node["name"],
                    "cat": "host",
                    "ph": "X",
                    "ts": float(node["ts"]) * 1e6,
                    "dur": float(node["dur"]) * 1e6,
                    "pid": 0,
                    "tid": tid,
                    "args": {
                        k: v for k, v in node.get("attrs", {}).items() if k != "thread"
                    },
                }
            )
            for child in node.get("children", ()):
                walk(child)

        walk(self.spans)
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": f"host ({self.fit})"},
            }
        ]
        for event in self.device_events:
            events.append(
                {
                    "name": event["name"],
                    "cat": f"device_{event['kind']}",
                    "ph": "X",
                    "ts": float(event["ts"]) * 1e6,
                    "dur": float(event["dur"]) * 1e6,
                    "pid": 1,
                    "tid": int(event["device_id"]),
                    "args": dict(event.get("args", {})),
                }
            )
        seen_devices = {}
        for event in self.device_events:
            seen_devices.setdefault(int(event["device_id"]), event["device_name"])
        if seen_devices:
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": 0,
                    "args": {"name": "simulated devices (modeled time)"},
                }
            )
            for device_id, device_name in sorted(seen_devices.items()):
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": device_id,
                        "args": {"name": f"{device_name} #{device_id}"},
                    }
                )
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> int:
        """Write the merged trace; returns the number of duration events."""
        trace = self.chrome_trace()
        Path(path).write_text(json.dumps(trace, default=_jsonify))
        return sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")


def _jsonify(value):
    """Fallback encoder: numpy scalars and other oddballs -> plain Python."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def _serialize_span(span) -> dict:
    out = {"name": span.name, "ts": span.ts, "dur": span.dur}
    attrs = dict(span.attrs)
    attrs["thread"] = span.thread_id
    out["attrs"] = attrs
    if span.children:
        out["children"] = [_serialize_span(c) for c in span.children]
    return out


def build_report(
    ctx,
    *,
    estimator: str,
    backend: str,
    num_samples: int,
    num_features: int,
    timings=None,
    result=None,
    solver_strategy: str = "cg",
    solver_rank: int = 0,
    solver_setup_seconds: float = 0.0,
    warm_start_iterations: int = 0,
    solver_operator: str = "none",
) -> TrainingReport:
    """Assemble a :class:`TrainingReport` from a finished fit context.

    Parameters
    ----------
    ctx:
        The fit's :class:`~repro.telemetry.context.TelemetryContext`.
    estimator / backend:
        Descriptive labels stamped into the report.
    num_samples / num_features:
        Training problem shape.
    timings:
        The fit's :class:`repro.profiling.ComponentTimer` (phases).
    result:
        The fit's :class:`~repro.core.cg.CGResult` /
        :class:`~repro.core.cg.BlockCGResult` (solver outcome).
    solver_strategy / solver_rank / solver_setup_seconds:
        Which solver tier ran (``cg`` / ``nystrom`` / ``rff``), the
        realized approximation rank (0 for exact CG), and the
        randomized factorization's setup wall seconds.
    warm_start_iterations:
        CG iterations of a solve that warm-started from a previous
        solution (``partial_fit`` refits, ``warm_start=True`` refits);
        0 for a cold solve.
    solver_operator:
        The reduced-system operator the solve ran on — the
        ``operator_name`` of the :class:`~repro.core.qmatrix.QMatrixBase`
        realization, or ``feature_map`` for the random-feature primal.
    """
    phases = dict(timings.as_dict()) if timings is not None else {}
    if result is not None:
        solver = {
            "iterations": int(result.iterations),
            "residual": float(result.residual),
            "status": str(getattr(result.status, "name", result.status)),
            "converged": bool(result.converged),
        }
    else:
        solver = {"iterations": 0, "residual": 0.0, "status": "NONE", "converged": False}
    solver["strategy"] = str(solver_strategy)
    solver["rank"] = int(solver_rank)
    solver["setup_seconds"] = float(solver_setup_seconds)
    solver["warm_start_iterations"] = int(warm_start_iterations)
    solver["operator"] = str(solver_operator)
    sample_peak_rss(ctx)
    return TrainingReport(
        fit=ctx.name,
        estimator=estimator,
        backend=backend,
        num_samples=int(num_samples),
        num_features=int(num_features),
        phases=phases,
        wall_seconds=float(phases.get("total", 0.0)),
        solver=solver,
        counters=ctx.solver_counters_dict(),
        metrics=ctx.metrics.snapshot(),
        spans=_serialize_span(ctx.root_span),
        devices=list(ctx.device_summaries),
        events=list(ctx.fault_events),
        device_events=list(ctx.device_events),
        dropped_spans=ctx.dropped_spans,
        peak_rss_bytes=int(ctx.metrics.value("peak_rss_bytes")),
    )
