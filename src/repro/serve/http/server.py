"""The async assignment server: routes, batching, reload, observability.

:class:`RockHttpServer` is the long-running network front-end over a
versioned :class:`~repro.serve.RockModel` artifact -- the §4.5/§4.6
labeling phase as a service.  One asyncio event loop accepts
keep-alive HTTP/1.1 connections; CPU-bound engine calls run on the
default executor so the loop keeps accepting while numpy works.

Endpoints
---------
* ``POST /assign`` ``{"point": ...}`` -- single-point assignment,
  coalesced through the :class:`~repro.serve.http.batcher.RequestBatcher`
  into shared ``assign_batch`` calls; answers ``{"label",
  "model_version"}``.
* ``POST /assign_batch`` ``{"points": [...]}`` -- an explicit batch,
  sent to the engine directly (it already amortises); answers
  ``{"labels", "model_version"}``.
* ``GET /model`` -- the served model's version and facts, read
  atomically from the current generation.
* ``GET /healthz`` -- liveness plus reload status.
* ``GET /metrics`` -- the combined registry (engine ``serve.*`` +
  server ``http.*``) as Prometheus text exposition 0.0.4.

Observability: every request increments ``http.requests.<route>``,
observes ``http.latency.<route>``, and (bounded by
``trace_max_requests``) records a span nested under the server's root
``serve.http`` span.  Server-side counters live strictly under the
``http.*`` namespace -- engine-level ``serve.*`` families are recorded
once, by the engine, so the combined ``/metrics`` snapshot never
double-reports a family.

Backpressure: the batcher's queue and the in-flight point budget are
bounded; beyond them the server answers ``503`` with ``Retry-After``
instead of queueing without limit.  Shutdown is graceful: stop
accepting, drain admitted work, then stop the watcher and close the
root span.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path
from typing import Any

from repro.data.records import MISSING, CategoricalRecord
from repro.data.transactions import Transaction
from repro.obs.export import metrics_to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.serve.http.batcher import BatcherClosed, QueueFull, RequestBatcher
from repro.serve.http.protocol import (
    HttpRequest,
    ProtocolError,
    read_request,
    render_response,
)
from repro.serve.http.reload import ModelWatcher, ServedModel
from repro.serve.model import RockModel

__all__ = ["RockHttpServer", "ServerHandle", "serve_in_thread"]

# histogram edges for per-endpoint request latency, in seconds
LATENCY_EDGES = (0.0005, 0.002, 0.01, 0.05, 0.25, 1.0)

ROUTES = {
    ("POST", "/assign"): "assign",
    ("POST", "/assign_batch"): "assign_batch",
    ("GET", "/model"): "model",
    ("GET", "/healthz"): "healthz",
    ("GET", "/metrics"): "metrics",
}


class _RequestError(Exception):
    """An error with a definite HTTP answer (4xx/5xx + JSON body)."""

    def __init__(
        self,
        status: int,
        message: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.extra_headers = extra_headers or {}


def point_decoder(model: RockModel):
    """A JSON-value -> point decoder matching the model's point type.

    Mirrors the artifact's representative encodings: item-set models
    decode JSON arrays into :class:`Transaction`, record models decode
    value rows (``null`` = missing) against the representatives'
    schema, and raw models pass values through untouched.
    """
    rep = next(rep for li in model.labeling_sets for rep in li)
    if isinstance(rep, (Transaction, frozenset, set)):
        def decode(value: Any) -> Transaction:
            if not isinstance(value, (list, tuple)):
                raise _RequestError(
                    400, "point must be a JSON array of items"
                )
            return Transaction(value)
        return decode
    if isinstance(rep, CategoricalRecord):
        schema = rep.schema
        width = len(schema.attributes)
        def decode(value: Any) -> CategoricalRecord:
            if not isinstance(value, (list, tuple)) or len(value) != width:
                raise _RequestError(
                    400,
                    f"point must be a JSON array of {width} attribute "
                    "values (null = missing)",
                )
            return CategoricalRecord(
                schema, [MISSING if v is None else v for v in value]
            )
        return decode
    return lambda value: value


class RockHttpServer:
    """Serve a versioned model artifact over HTTP with request batching.

    Parameters
    ----------
    model_path:
        The artifact to serve and watch for new versions.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    batch_max / batch_wait_us / queue_depth:
        Batcher tuning -- flush size, max queueing delay in
        microseconds, and the bounded-queue depth that triggers 503s.
    cache_size:
        LRU size for each model generation's engine.
    assign_backend:
        Scoring tier for each generation's engine (``"auto"``,
        ``"pruned"`` or ``"native"``); the reload watcher
        rebuilds the fast index once per model generation.
    poll_seconds:
        Artifact poll interval for hot reload.
    registry / tracer:
        Optional shared observability; private ones are created when
        omitted (``tracer.registry`` wins over ``registry`` when both
        are given).
    trace_max_requests:
        Per-request spans recorded under the root span before further
        requests only count (bounds a long-running server's memory).
    """

    def __init__(
        self,
        model_path: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_max: int = 64,
        batch_wait_us: int = 2000,
        queue_depth: int = 1024,
        cache_size: int = 4096,
        assign_backend: str = "auto",
        poll_seconds: float = 1.0,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        trace_max_requests: int = 256,
    ) -> None:
        self.model_path = Path(model_path)
        self.host = host
        self.port = port
        self.tracer = tracer if tracer is not None else Tracer(registry=registry)
        self.registry = self.tracer.registry
        self.queue_depth = queue_depth
        self.trace_max_requests = trace_max_requests
        self.watcher = ModelWatcher(
            self.model_path,
            registry=self.registry,
            cache_size=cache_size,
            poll_seconds=poll_seconds,
            assign_backend=assign_backend,
        )
        self.batcher = RequestBatcher(
            self._flush_assign,
            batch_max=batch_max,
            batch_wait_us=batch_wait_us,
            queue_depth=queue_depth,
            registry=self.registry,
        )
        self._decoders: dict[str, Any] = {}
        self._root_span: Span | None = None
        self._span_t0 = (0.0, 0.0)
        self._span_lock = threading.Lock()
        self._started_monotonic = 0.0
        self._inflight_batch_points = 0
        self._server: asyncio.Server | None = None
        self._closing = False
        # connection handler tasks, and the connections waiting for a
        # next request
        self._handlers: set[asyncio.Task[None]] = set()
        self._idle: set[asyncio.StreamWriter] = set()

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        """Bind, start the batcher and the reload watcher."""
        self._root_span = Span(
            name="serve.http",
            attrs={"model": str(self.model_path)},
        )
        self._span_t0 = (time.perf_counter(), time.process_time())
        self.tracer.attach_root(self._root_span)
        self._started_monotonic = time.monotonic()
        self.batcher.start()
        self.watcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )

    async def shutdown(self) -> None:
        """Graceful stop: close the listener, drain, stop the watcher.

        Idle keep-alive connections are closed and every connection
        handler is awaited here, while the loop still runs: a handler
        left pending would otherwise be finalised after the loop closed.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            for writer in self._idle:
                writer.close()  # the handler reads EOF and returns
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
        await self.batcher.aclose()
        self.watcher.stop()
        if self._root_span is not None:
            wall0, cpu0 = self._span_t0
            self._root_span.wall_seconds = time.perf_counter() - wall0
            self._root_span.cpu_seconds = time.process_time() - cpu0

    async def serve_forever(self) -> None:
        """Block until the listener closes (i.e. until :meth:`shutdown`)."""
        if self._server is None:
            raise RuntimeError("call start() first")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # -- connection / request plumbing --------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(self._error_bytes(exc.status, str(exc), False))
                    await writer.drain()
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                payload = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._closing
                payload = render_response(
                    payload[0], payload[1], payload[2], payload[3], keep_alive
                )
                writer.write(payload)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _error_bytes(self, status: int, message: str, keep_alive: bool) -> bytes:
        body = json.dumps({"error": message}).encode("utf-8")
        return render_response(status, body, keep_alive=keep_alive)

    async def _dispatch(
        self, request: HttpRequest
    ) -> tuple[int, bytes, str, dict[str, str]]:
        """Route one request; returns (status, body, content_type, headers)."""
        route = ROUTES.get((request.method, request.path))
        if route is None:
            known_path = request.path in {p for _, p in ROUTES}
            status = 405 if known_path else 404
            self.registry.inc("http.requests.unrouted")
            return (
                status,
                json.dumps(
                    {"error": f"no route for {request.method} {request.path}"}
                ).encode("utf-8"),
                "application/json",
                {},
            )
        self.registry.inc(f"http.requests.{route}")
        span = Span(name=f"http.{route}")
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            status, body, content_type, headers = await getattr(
                self, f"_route_{route}"
            )(request)
        except _RequestError as exc:
            status, headers = exc.status, exc.extra_headers
            body, content_type = (
                json.dumps({"error": str(exc)}).encode("utf-8"),
                "application/json",
            )
            if exc.status == 503:
                self.registry.inc("http.rejected")
            span.error = f"{exc.status}: {exc}"
        except Exception as exc:  # never kill the connection loop
            status, headers = 500, {}
            body, content_type = (
                json.dumps(
                    {"error": f"internal error: {type(exc).__name__}"}
                ).encode("utf-8"),
                "application/json",
            )
            self.registry.inc(f"http.errors.{route}")
            span.error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - wall0
        self.registry.histogram(
            f"http.latency.{route}", edges=LATENCY_EDGES
        ).observe(seconds)
        span.wall_seconds = seconds
        span.cpu_seconds = time.process_time() - cpu0
        span.attrs["status"] = status
        self._record_span(span)
        return status, body, content_type, headers

    def _record_span(self, span: Span) -> None:
        root = self._root_span
        if root is None:
            return
        with self._span_lock:
            if len(root.children) < self.trace_max_requests:
                root.children.append(span)
            else:
                self.registry.inc("http.trace.dropped")

    # -- routes -------------------------------------------------------------

    def _decode(self, served: ServedModel, value: Any) -> Any:
        decoder = self._decoders.get(served.version)
        if decoder is None:
            decoder = self._decoders[served.version] = point_decoder(
                served.model
            )
            # generations are few; keep only the live one plus the one
            # draining requests still reference
            for version in list(self._decoders)[:-2]:
                del self._decoders[version]
        return decoder(value)

    def _json_body(self, request: HttpRequest) -> dict[str, Any]:
        try:
            data = json.loads(request.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _RequestError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise _RequestError(400, "request body must be a JSON object")
        return data

    async def _flush_assign(self, points: list[Any]) -> list[tuple[int, str]]:
        """Batcher flush: one engine call, one model generation per batch."""
        served = self.watcher.current
        labels = await asyncio.get_running_loop().run_in_executor(
            None, served.engine.assign_batch, points
        )
        return [(int(label), served.version) for label in labels]

    async def _route_assign(self, request: HttpRequest):
        data = self._json_body(request)
        if "point" not in data:
            raise _RequestError(400, 'missing "point" in request body')
        point = self._decode(self.watcher.current, data["point"])
        try:
            future = self.batcher.submit(point)
        except QueueFull as exc:
            raise _RequestError(
                503, str(exc), extra_headers={"Retry-After": "1"}
            ) from None
        except BatcherClosed as exc:
            raise _RequestError(
                503, str(exc), extra_headers={"Retry-After": "2"}
            ) from None
        label, version = await future
        body = json.dumps({"label": label, "model_version": version})
        return 200, body.encode("utf-8"), "application/json", {}

    async def _route_assign_batch(self, request: HttpRequest):
        data = self._json_body(request)
        points = data.get("points")
        if not isinstance(points, list):
            raise _RequestError(400, '"points" must be a JSON array')
        if not points:
            body = json.dumps(
                {"labels": [], "model_version": self.watcher.current.version}
            )
            return 200, body.encode("utf-8"), "application/json", {}
        if self._closing:
            raise _RequestError(
                503, "server is draining", extra_headers={"Retry-After": "2"}
            )
        if self._inflight_batch_points + len(points) > self.queue_depth:
            raise _RequestError(
                503,
                f"batch queue at capacity ({self.queue_depth} points)",
                extra_headers={"Retry-After": "1"},
            )
        served = self.watcher.current
        decoded = [self._decode(served, value) for value in points]
        self._inflight_batch_points += len(decoded)
        try:
            labels = await asyncio.get_running_loop().run_in_executor(
                None, served.engine.assign_batch, decoded
            )
        finally:
            self._inflight_batch_points -= len(decoded)
        body = json.dumps(
            {
                "labels": [int(label) for label in labels],
                "model_version": served.version,
            }
        )
        return 200, body.encode("utf-8"), "application/json", {}

    async def _route_model(self, request: HttpRequest):
        served = self.watcher.current  # one read = one consistent generation
        body = json.dumps(
            {
                "model_version": served.version,
                # age math is monotonic (clock-step immune); the wall
                # timestamp is display-only provenance
                "model_age_seconds": served.age_seconds(),
                "loaded_unix": served.loaded_unix,
                "n_clusters": served.model.n_clusters,
                "theta": served.model.theta,
                "f_theta": served.model.f_theta,
                "labeling_set_sizes": [
                    len(li) for li in served.model.labeling_sets
                ],
                "cluster_sizes": served.model.cluster_sizes,
                "vectorized": served.engine.vectorized,
                "assign_backend": served.engine.assign_backend,
                "metadata": served.model.metadata,
            }
        )
        return 200, body.encode("utf-8"), "application/json", {}

    async def _route_healthz(self, request: HttpRequest):
        snap = self.registry.snapshot()["counters"]
        body = json.dumps(
            {
                "status": "draining" if self._closing else "ok",
                "model_version": self.watcher.current.version,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "model_age_seconds": self.watcher.current.age_seconds(),
                "reloads": int(snap.get("http.reload.count", 0)),
                "reload_errors": int(snap.get("http.reload.errors", 0)),
                "last_reload_error": self.watcher.last_error,
                "pending": self.batcher.pending,
            }
        )
        return 200, body.encode("utf-8"), "application/json", {}

    async def _route_metrics(self, request: HttpRequest):
        text = metrics_to_prometheus(self.registry.snapshot())
        return (
            200,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            {},
        )


# ---------------------------------------------------------------------------
# thread-hosted server (tests, benchmarks, examples, notebooks)
# ---------------------------------------------------------------------------

class ServerHandle:
    """A running server on a background event-loop thread."""

    def __init__(
        self,
        server: RockHttpServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully shut the server down and join the loop thread."""
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        ).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve_in_thread(model_path: str | Path, **kwargs: Any) -> ServerHandle:
    """Start a :class:`RockHttpServer` on a daemon thread and wait for bind.

    Keyword arguments pass through to :class:`RockHttpServer`.  The
    returned handle is a context manager; leaving the ``with`` block
    performs a graceful shutdown.
    """
    server = RockHttpServer(model_path, **kwargs)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="rock-http-server", daemon=True
    )
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(30.0)
    except Exception:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5.0)
        loop.close()
        raise
    return ServerHandle(server, loop, thread)
