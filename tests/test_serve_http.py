"""The async HTTP serving layer: protocol, batcher, endpoints, backpressure.

The integration tests run a real :class:`RockHttpServer` on a
background event-loop thread (``serve_in_thread``) and talk to it over
real sockets with ``http.client`` -- the same path production traffic
takes.  Acceptance bars covered here:

* concurrent single-point requests coalesce into strictly fewer engine
  calls, and server-side ``http.*`` counters never double-report the
  engine-level ``serve.*`` families (the double-count seam);
* a full queue answers ``503`` with ``Retry-After`` instead of
  queueing unboundedly;
* ``/metrics`` renders well-formed Prometheus 0.0.4 for the combined
  engine + server registry;
* shutdown drains admitted requests.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.core.pipeline import RockPipeline
from repro.data.records import CategoricalRecord, CategoricalSchema
from repro.datasets import small_synthetic_basket
from repro.obs.export import prometheus_name
from repro.serve import RockModel
from repro.serve.http import (
    ProtocolError,
    QueueFull,
    RequestBatcher,
    serve_in_thread,
)
from repro.serve.http.protocol import read_request, render_response


@pytest.fixture(scope="module")
def fitted_model():
    basket = small_synthetic_basket(
        n_clusters=3, cluster_size=100, n_outliers=10, seed=7
    )
    pipeline = RockPipeline(
        k=3, theta=0.45, sample_size=120, min_cluster_size=5, seed=0
    )
    _, model = pipeline.fit_model(basket.transactions)
    return basket, model


@pytest.fixture
def running_server(fitted_model, tmp_path):
    _, model = fitted_model
    path = tmp_path / "model.json"
    model.save(path)
    with serve_in_thread(path, poll_seconds=5.0) as handle:
        yield handle


def request_json(
    address, method, path, payload=None, conn=None
):
    """One request over a fresh or reused keep-alive connection."""
    own = conn is None
    if own:
        conn = http.client.HTTPConnection(*address, timeout=30)
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    raw = response.read()
    if own:
        conn.close()
    data = json.loads(raw) if raw and response.headers.get(
        "Content-Type", ""
    ).startswith("application/json") else raw
    return response, data


# ---------------------------------------------------------------------------
# protocol unit tests
# ---------------------------------------------------------------------------

def parse_bytes(raw: bytes):
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(_run())


class TestProtocol:
    def test_parses_request_line_headers_and_body(self):
        raw = (
            b"POST /assign?x=1 HTTP/1.1\r\n"
            b"Host: localhost\r\nContent-Length: 4\r\n\r\nabcd"
        )
        request = parse_bytes(raw)
        assert request.method == "POST"
        assert request.path == "/assign"
        assert request.query == "x=1"
        assert request.headers["host"] == "localhost"
        assert request.body == b"abcd"
        assert request.keep_alive

    def test_connection_close_disables_keep_alive(self):
        raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert not parse_bytes(raw).keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    def test_malformed_request_line_raises(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"NONSENSE\r\n\r\n")

    def test_bad_content_length_raises(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")

    def test_truncated_body_raises(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")

    def test_chunked_rejected(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(ProtocolError):
            parse_bytes(raw)

    def test_oversized_body_rejected_with_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        with pytest.raises(ProtocolError) as excinfo:
            parse_bytes(raw)
        assert excinfo.value.status == 413

    def test_render_response_has_exact_content_length(self):
        raw = render_response(200, b'{"ok":1}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b'{"ok":1}'
        assert b"Content-Length: 8" in head
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")


# ---------------------------------------------------------------------------
# batcher unit tests
# ---------------------------------------------------------------------------

class TestBatcher:
    def test_coalesces_concurrent_submissions(self):
        calls = []

        async def _run():
            async def flush(points):
                calls.append(list(points))
                await asyncio.sleep(0.01)  # let submissions pile up
                return [p * 10 for p in points]

            batcher = RequestBatcher(flush, batch_max=8, batch_wait_us=50_000)
            batcher.start()
            futures = [batcher.submit(i) for i in range(6)]
            results = await asyncio.gather(*futures)
            await batcher.aclose()
            return results

        results = asyncio.run(_run())
        assert results == [0, 10, 20, 30, 40, 50]
        # six concurrent submissions, strictly fewer flushes
        assert len(calls) < 6
        assert sum(len(c) for c in calls) == 6

    def test_batch_max_one_never_coalesces(self):
        calls = []

        async def _run():
            async def flush(points):
                calls.append(list(points))
                return points

            batcher = RequestBatcher(flush, batch_max=1, batch_wait_us=50_000)
            batcher.start()
            results = await asyncio.gather(
                *[batcher.submit(i) for i in range(5)]
            )
            await batcher.aclose()
            return results

        assert asyncio.run(_run()) == list(range(5))
        assert all(len(c) == 1 for c in calls)
        assert len(calls) == 5

    def test_queue_full_raises_and_counts(self):
        async def _run():
            release = asyncio.Event()

            async def flush(points):
                await release.wait()
                return points

            batcher = RequestBatcher(
                flush, batch_max=1, batch_wait_us=0, queue_depth=2
            )
            batcher.start()
            futures = [batcher.submit(i) for i in range(2)]
            with pytest.raises(QueueFull):
                batcher.submit(99)
            release.set()
            await asyncio.gather(*futures)
            await batcher.aclose()

        asyncio.run(_run())

    def test_flush_exception_propagates_to_every_waiter(self):
        async def _run():
            async def flush(points):
                raise RuntimeError("engine exploded")

            batcher = RequestBatcher(flush, batch_max=8, batch_wait_us=1000)
            batcher.start()
            futures = [batcher.submit(i) for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.aclose()
            return results

        results = asyncio.run(_run())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_aclose_drains_admitted_work(self):
        async def _run():
            async def flush(points):
                await asyncio.sleep(0.005)
                return points

            batcher = RequestBatcher(flush, batch_max=4, batch_wait_us=1000)
            batcher.start()
            futures = [batcher.submit(i) for i in range(10)]
            await batcher.aclose()
            assert batcher.pending == 0
            return await asyncio.gather(*futures)

        assert asyncio.run(_run()) == list(range(10))

    def test_validates_parameters(self):
        async def flush(points):
            return points

        with pytest.raises(ValueError):
            RequestBatcher(flush, batch_max=0)
        with pytest.raises(ValueError):
            RequestBatcher(flush, batch_wait_us=-1)
        with pytest.raises(ValueError):
            RequestBatcher(flush, queue_depth=0)


# ---------------------------------------------------------------------------
# endpoint integration
# ---------------------------------------------------------------------------

class TestEndpoints:
    def test_healthz(self, running_server):
        response, data = request_json(
            running_server.address, "GET", "/healthz"
        )
        assert response.status == 200
        assert data["status"] == "ok"
        assert data["reload_errors"] == 0

    def test_model_reports_version_and_facts(self, running_server, fitted_model):
        _, model = fitted_model
        response, data = request_json(running_server.address, "GET", "/model")
        assert response.status == 200
        assert data["n_clusters"] == model.n_clusters
        assert data["theta"] == model.theta
        assert len(data["model_version"]) == 16
        assert data["vectorized"] is True

    def test_assign_agrees_with_engine(self, running_server, fitted_model):
        basket, model = fitted_model
        engine_labels = running_server.server.watcher.current.engine
        conn = http.client.HTTPConnection(*running_server.address, timeout=30)
        for txn in basket.transactions[:10]:
            response, data = request_json(
                running_server.address, "POST", "/assign",
                {"point": sorted(txn.items)}, conn=conn,
            )
            assert response.status == 200
            assert data["label"] == engine_labels.assign(txn)
        conn.close()

    def test_assign_outlier_is_minus_one(self, running_server):
        response, data = request_json(
            running_server.address, "POST", "/assign",
            {"point": ["never", "seen", "anywhere"]},
        )
        assert response.status == 200
        assert data["label"] == -1

    def test_assign_batch_matches_singles(self, running_server, fitted_model):
        basket, _ = fitted_model
        points = [sorted(t.items) for t in basket.transactions[:20]]
        response, data = request_json(
            running_server.address, "POST", "/assign_batch",
            {"points": points},
        )
        assert response.status == 200
        assert len(data["labels"]) == 20
        singles = [
            request_json(
                running_server.address, "POST", "/assign", {"point": p}
            )[1]["label"]
            for p in points[:5]
        ]
        assert data["labels"][:5] == singles

    def test_assign_batch_empty_points(self, running_server):
        response, data = request_json(
            running_server.address, "POST", "/assign_batch", {"points": []}
        )
        assert response.status == 200
        assert data["labels"] == []

    def test_bad_json_is_400(self, running_server):
        conn = http.client.HTTPConnection(*running_server.address, timeout=30)
        conn.request("POST", "/assign", body="{not json")
        response = conn.getresponse()
        data = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "JSON" in data["error"]

    def test_missing_point_is_400(self, running_server):
        response, data = request_json(
            running_server.address, "POST", "/assign", {"nope": 1}
        )
        assert response.status == 400

    def test_non_array_point_is_400(self, running_server):
        response, data = request_json(
            running_server.address, "POST", "/assign", {"point": "abc"}
        )
        assert response.status == 400

    def test_unknown_route_404_known_route_wrong_method_405(
        self, running_server
    ):
        response, _ = request_json(running_server.address, "GET", "/nope")
        assert response.status == 404
        response, _ = request_json(running_server.address, "GET", "/assign")
        assert response.status == 405

    def test_record_model_decodes_value_rows(self, tmp_path):
        schema = CategoricalSchema(["a", "b", "c"])
        model = RockModel(
            labeling_sets=[
                [CategoricalRecord(schema, ["x", "y", "z"])],
                [CategoricalRecord(schema, ["p", "q", "r"])],
            ],
            theta=0.3,
            f_theta=(1 - 0.3) / (1 + 0.3),
        )
        path = tmp_path / "records.json"
        model.save(path)
        with serve_in_thread(path, poll_seconds=5.0) as handle:
            response, data = request_json(
                handle.address, "POST", "/assign", {"point": ["x", "y", "z"]}
            )
            assert response.status == 200
            assert data["label"] == 0
            # wrong arity is a clear 400, not a 500
            response, data = request_json(
                handle.address, "POST", "/assign", {"point": ["x"]}
            )
            assert response.status == 400
            assert "3 attribute" in data["error"]


# ---------------------------------------------------------------------------
# batching, backpressure, metrics, shutdown
# ---------------------------------------------------------------------------

def hammer(address, points, n_threads, per_thread, path="/assign"):
    """Closed-loop load: n_threads keep-alive clients, statuses returned."""
    statuses = []
    lock = threading.Lock()

    def worker(worker_id):
        conn = http.client.HTTPConnection(*address, timeout=30)
        local = []
        for i in range(per_thread):
            point = points[(worker_id * per_thread + i) % len(points)]
            conn.request("POST", path, body=json.dumps({"point": point}))
            response = conn.getresponse()
            response.read()
            local.append(response.status)
        conn.close()
        with lock:
            statuses.extend(local)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return statuses


class TestBatchingAndMetrics:
    def test_concurrent_assigns_coalesce_and_families_stay_disjoint(
        self, fitted_model, tmp_path
    ):
        basket, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        points = [sorted(t.items) for t in basket.transactions[:64]]
        with serve_in_thread(
            path, poll_seconds=5.0, batch_max=32, batch_wait_us=3000
        ) as handle:
            statuses = hammer(handle.address, points, n_threads=8, per_thread=20)
            snap = handle.server.registry.snapshot()
        assert statuses == [200] * 160
        counters = snap["counters"]
        # coalescing: strictly fewer engine calls than HTTP requests
        assert counters["http.requests.assign"] == 160
        assert counters["http.batcher.flushes"] < 160
        # the double-count seam: the engine-level serve.* family counts
        # engine calls (= flushes), NOT HTTP requests -- the server's
        # own traffic lives under http.* only
        assert counters["serve.requests"] == counters["http.batcher.flushes"]
        assert counters["serve.points"] == 160
        assert not any(
            name.startswith("serve.") and ".requests." in name
            for name in counters
        )

    def test_metrics_endpoint_is_wellformed_prometheus(self, running_server):
        # drive every endpoint so the combined registry is populated
        request_json(running_server.address, "POST", "/assign",
                     {"point": [1, 2, 3]})
        request_json(running_server.address, "POST", "/assign_batch",
                     {"points": [[1, 2, 3]]})
        request_json(running_server.address, "GET", "/model")
        request_json(running_server.address, "GET", "/healthz")
        conn = http.client.HTTPConnection(*running_server.address, timeout=30)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        conn.close()
        assert response.status == 200
        assert response.headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(help_lines) == len(set(help_lines))
        assert len(type_lines) == len(set(type_lines))
        sample_names = []
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses
            bare = name_part.split("{", 1)[0]
            assert prometheus_name(bare) == bare  # already sanitised
            if "{" not in name_part:
                sample_names.append(bare)
        # no duplicated un-labelled sample (the combined-registry bar)
        assert len(sample_names) == len(set(sample_names))
        # both sides of the seam are present, exactly once each
        assert sum(
            l.startswith("# TYPE rock_serve_requests_total ")
            for l in type_lines
        ) == 1
        assert sum(
            l.startswith("# TYPE rock_http_requests_assign_total ")
            for l in type_lines
        ) == 1
        # per-endpoint latency histograms exist for every driven route
        for route in ("assign", "assign_batch", "model", "healthz"):
            assert f"rock_http_latency_{route}_count" in text

    def test_backpressure_answers_503_with_retry_after(
        self, fitted_model, tmp_path
    ):
        basket, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        with serve_in_thread(
            path, poll_seconds=5.0, batch_max=1, batch_wait_us=0,
            queue_depth=2,
        ) as handle:
            # make every engine call slow so the bounded queue fills
            engine = handle.server.watcher.current.engine
            original = engine.assign_batch

            def slow(points):
                time.sleep(0.05)
                return original(points)

            engine.assign_batch = slow
            point = sorted(basket.transactions[0].items)
            saw = {"ok": 0, "shed": 0, "retry_after": True}

            def worker():
                conn = http.client.HTTPConnection(*handle.address, timeout=30)
                for _ in range(6):
                    conn.request(
                        "POST", "/assign", body=json.dumps({"point": point})
                    )
                    response = conn.getresponse()
                    response.read()
                    if response.status == 200:
                        saw["ok"] += 1
                    elif response.status == 503:
                        saw["shed"] += 1
                        if response.headers.get("Retry-After") is None:
                            saw["retry_after"] = False
                conn.close()

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snap = handle.server.registry.snapshot()["counters"]
        assert saw["shed"] > 0, "bounded queue never shed load"
        assert saw["ok"] > 0, "every request was shed"
        assert saw["retry_after"], "503 responses must carry Retry-After"
        assert snap["http.rejected"] == saw["shed"]

    def test_request_spans_nest_under_server_root(self, running_server):
        request_json(running_server.address, "GET", "/healthz")
        request_json(running_server.address, "POST", "/assign",
                     {"point": [1, 2, 3]})
        roots = running_server.server.tracer.spans()
        root = next(s for s in roots if s.name == "serve.http")
        child_names = {c.name for c in root.children}
        assert "http.healthz" in child_names
        assert "http.assign" in child_names
        statuses = {c.attrs.get("status") for c in root.children}
        assert statuses <= {200, 400, 404, 405, 503}

    def test_span_recording_is_bounded(self, fitted_model, tmp_path):
        _, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        with serve_in_thread(
            path, poll_seconds=5.0, trace_max_requests=3
        ) as handle:
            for _ in range(6):
                request_json(handle.address, "GET", "/healthz")
            root = next(
                s for s in handle.server.tracer.spans()
                if s.name == "serve.http"
            )
            snap = handle.server.registry.snapshot()["counters"]
        assert len(root.children) == 3
        assert snap["http.trace.dropped"] == 3

    def test_graceful_shutdown_completes_inflight_and_stops_accepting(
        self, fitted_model, tmp_path
    ):
        basket, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        handle = serve_in_thread(path, poll_seconds=5.0, batch_wait_us=20_000)
        address = handle.address
        point = sorted(basket.transactions[0].items)
        results = []

        def slow_client():
            response, data = request_json(
                address, "POST", "/assign", {"point": point}
            )
            results.append(response.status)

        client = threading.Thread(target=slow_client)
        client.start()
        time.sleep(0.01)  # let the request reach the batcher queue
        handle.stop()
        client.join(10)
        assert results == [200], "in-flight request was dropped on shutdown"
        with pytest.raises(OSError):
            http.client.HTTPConnection(*address, timeout=2).request(
                "GET", "/healthz"
            )
        # the root span closed with real timings
        root = next(
            s for s in handle.server.tracer.spans() if s.name == "serve.http"
        )
        assert root.wall_seconds > 0

    def test_shutdown_closes_idle_keep_alive_connections(
        self, fitted_model, tmp_path, monkeypatch
    ):
        """An idle keep-alive client must not outlive the event loop:
        its connection handler is closed and awaited inside shutdown,
        so nothing runs against a closed loop later."""
        import gc
        import sys

        _, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        handle = serve_in_thread(path, poll_seconds=5.0)
        conn = http.client.HTTPConnection(*handle.address, timeout=30)
        try:
            response, _ = request_json(
                handle.address, "GET", "/healthz", conn=conn
            )
            assert response.status == 200
            assert not response.will_close  # the client now sits idle
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 10
            del handle
            gc.collect()
        finally:
            conn.close()
        assert unraisable == []
