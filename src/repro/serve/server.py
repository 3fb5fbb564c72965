"""The stdlib HTTP front-end: JSON over ``ThreadingHTTPServer``.

Pure-Python on purpose: the whole reproduction runs on numpy + scipy
alone, and a serving layer that dragged in a web framework would break
that. ``http.server.ThreadingHTTPServer`` gives one thread per connection
— which is precisely the concurrency shape the micro-batcher exists to
coalesce — and the endpoints speak JSON:

* ``POST /predict`` — ``{"model": name?, "rows": [[...], ...]}`` (or a
  single ``"row"``); responds with predictions, decision values, and the
  batch the request rode in. Admission-control rejections surface as
  ``503`` with ``Retry-After``.
* ``POST /models/<name>/reload`` — generation-tagged hot swap:
  re-resolve the model from its current source (or an optional new
  ``{"source": path}``) and answer with the new generation; predictions
  issued after the acknowledgement carry a generation at least that high.
* ``GET /models`` — registry contents with warm/generation state.
* ``GET /healthz`` — liveness plus model count.
* ``GET /metrics`` — the :class:`~repro.serve.report.ServingReport`
  (schema-validated by :func:`~repro.serve.report.validate_serving_report`).

Every request runs under a fresh per-request telemetry scope parented to
the server's aggregate context, so ``/metrics`` sees totals while each
response can report its own wait/batch numbers.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

import numpy as np

from ..exceptions import (
    DataError,
    ModelNotFoundError,
    PLSSVMError,
    ServerOverloadedError,
)
from ..telemetry.context import TelemetryContext, root_context, scope
from .batcher import BatchPolicy, MicroBatcher
from .registry import ModelRegistry
from .report import build_serving_report, ServingReport

__all__ = ["ServingApp", "PLSSVMServer", "serve_forever"]


class ServingApp:
    """Protocol-independent serving state: registry + per-model batchers.

    Owns the server's aggregate :class:`TelemetryContext` and one
    :class:`MicroBatcher` per model name. Batchers resolve their engine
    through the registry *per flush*, so LRU eviction and hot-swap
    reloads take effect on the next batch without tearing anything down.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        policy: Optional[BatchPolicy] = None,
        name: str = "plssvm-serve",
        max_spans: int = 4000,
    ) -> None:
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.context = TelemetryContext(
            name, parent=root_context(), max_spans=max_spans
        )
        self._batchers: Dict[str, MicroBatcher] = {}
        self._lock = threading.Lock()
        self.started = time.time()

    def batcher(self, model: str) -> MicroBatcher:
        """The (lazily created) micro-batcher for one model name."""
        if model not in self.registry:
            raise ModelNotFoundError(model)
        with self._lock:
            batcher = self._batchers.get(model)
            if batcher is None:
                batcher = MicroBatcher(
                    lambda model=model: self.registry.get(model),
                    policy=self.policy,
                    context=self.context,
                )
                self._batchers[model] = batcher
            return batcher

    def default_model(self) -> str:
        models = self.registry.models()
        if len(models) != 1:
            raise DataError(
                "request must name a model (\"model\": ...) when the registry "
                f"holds {len(models)} models"
            )
        return models[0]["name"]

    def predict(self, model: Optional[str], rows: np.ndarray, timeout: Optional[float] = None):
        """Admit rows for ``model`` through its batcher; returns the demuxed
        ``(labels, values, batch_info)`` triple."""
        name = model if model else self.default_model()
        batcher = self.batcher(name)
        start = time.perf_counter()
        labels, values = batcher.submit(rows, timeout=timeout)
        # Per-model latency lands on the server aggregate (not the
        # per-request scope) so /metrics can quote p50/p95/p99 per model.
        self.context.metrics.histogram(f"serve_model_seconds::{name}").observe(
            time.perf_counter() - start
        )
        return name, labels, values

    @property
    def queued_rows(self) -> int:
        with self._lock:
            return sum(b.queued_rows for b in self._batchers.values())

    def report(self, *, server: str = "") -> ServingReport:
        return build_serving_report(
            self.context,
            server=server or self.context.name,
            policy=self.policy,
            registry=self.registry,
            queue_rows=self.queued_rows,
        )

    def close(self) -> None:
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()


class _Handler(BaseHTTPRequestHandler):
    """One request; the app hangs off the server object."""

    server_version = "plssvm-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Responses leave in two writes (headers, then body). With Nagle on,
    # the body waits for the client's delayed ACK of the headers — about
    # 40 ms on every request of a kept-alive connection.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------------

    @property
    def app(self) -> ServingApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 - silence default stderr spam
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)

    def _send_json(self, status: int, payload: dict, *, headers: Optional[dict] = None) -> None:
        body = json.dumps(payload, default=_jsonify).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, *, headers: Optional[dict] = None) -> None:
        self._send_json(status, {"error": message, "status": status}, headers=headers)

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "uptime_seconds": self.app.context.now(),
                    "models": len(self.app.registry),
                },
            )
        elif path == "/models":
            self._send_json(200, {"models": self.app.registry.models()})
        elif path == "/metrics":
            report = self.app.report(server=_server_label(self.server))
            self._send_json(200, report.as_dict())
        else:
            self._error(404, f"unknown path {self.path!r}")

    # -- POST -----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path.startswith("/models/") and path.endswith("/reload"):
            self._do_reload(path[len("/models/") : -len("/reload")].strip("/"))
            return
        if path != "/predict":
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return
        with scope("request", parent=self.app.context) as ctx:
            start = time.perf_counter()
            try:
                model, rows = _parse_predict(payload)
                name, labels, values = self.app.predict(model, rows)
            except ServerOverloadedError as exc:
                ctx.observe("serve_request_seconds", time.perf_counter() - start)
                self._error(
                    503,
                    str(exc),
                    headers={"Retry-After": "1"},
                )
                return
            except ModelNotFoundError as exc:
                ctx.inc("serve_errors")
                self._error(404, f"unknown model {exc.args[0]!r}")
                return
            except (DataError, PLSSVMError) as exc:
                ctx.inc("serve_errors")
                self._error(400, str(exc))
                return
            elapsed = time.perf_counter() - start
            ctx.observe("serve_request_seconds", elapsed)
            request_span = _find_child(ctx.root_span, "batch_wait")
            batch = dict(request_span.attrs) if request_span is not None else {}
            self._send_json(
                200,
                {
                    "model": name,
                    "generation": batch.get("generation", -1),
                    "rows": int(rows.shape[0]),
                    "predictions": labels.tolist(),
                    "decision_values": values.tolist(),
                    "seconds": elapsed,
                    "batch": batch,
                },
            )

    def _do_reload(self, name: str) -> None:
        """``POST /models/<name>/reload`` — generation-tagged hot swap."""
        if not name:
            self._error(404, "reload needs a model name: /models/<name>/reload")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}") if length else {}
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return
        source = None
        if isinstance(payload, dict) and payload.get("source") is not None:
            source = payload["source"]
            if not isinstance(source, str):
                self._error(400, '"source" must be a path string')
                return
        try:
            generation = self.app.registry.reload(name, source)
        except ModelNotFoundError:
            self._error(404, f"unknown model {name!r}")
            return
        except PLSSVMError as exc:
            self._error(400, str(exc))
            return
        self.app.context.inc("serve_reloads")
        self._send_json(200, {"model": name, "generation": generation})


def _find_child(span, name: str):
    for child in span.children:
        if child.name == name:
            return child
    return None


def _parse_predict(payload: dict):
    if not isinstance(payload, dict):
        raise DataError("request body must be a JSON object")
    model = payload.get("model")
    if model is not None and not isinstance(model, str):
        raise DataError('"model" must be a string')
    if "rows" in payload:
        rows = payload["rows"]
    elif "row" in payload:
        rows = [payload["row"]]
    else:
        raise DataError('request must carry "rows" (list of rows) or "row"')
    try:
        X = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"rows are not numeric: {exc}") from None
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError('"rows" must be a non-empty list of equal-length rows')
    return model, X


def _server_label(server) -> str:
    host, port = server.server_address[:2]
    return f"{host}:{port}"


def _jsonify(value):
    if hasattr(value, "item"):
        return value.item()
    return str(value)


class PLSSVMServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to a :class:`ServingApp`."""

    daemon_threads = True
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients — the workload the batcher exists for — would see
    # connection resets before the batcher ever got a say.
    request_queue_size = 128

    def __init__(self, address, app: ServingApp, *, verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose

    def shutdown(self) -> None:  # noqa: D102 - also drain the batchers
        super().shutdown()
        self.app.close()


def serve_forever(
    registry: ModelRegistry,
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    policy: Optional[BatchPolicy] = None,
    verbose: bool = False,
) -> None:
    """Blocking convenience entry point (the CLI's core)."""
    app = ServingApp(registry, policy=policy)
    server = PLSSVMServer((host, port), app, verbose=verbose)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
        server.server_close()
