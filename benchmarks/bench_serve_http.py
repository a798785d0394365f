"""S2 -- HTTP serving under load: does request coalescing buy throughput?

The network front-end's central bet is that concurrent single-point
``POST /assign`` requests should be *batched* into shared
``AssignmentEngine.assign_batch`` calls rather than each paying for
its own engine dispatch.  This bench stands the real server up on a
background thread, drives it closed-loop with keep-alive
``http.client`` workers at several concurrency levels, and compares

* ``batched``   -- ``batch_max=64, batch_wait_us=2000`` (the default
  coalescing config), against
* ``unbatched`` -- ``batch_max=1`` (every request is its own engine
  call; the batcher degenerates to a serialising queue).

The acceptance bar is batched RPS > unbatched RPS at concurrency >= 16
(at low concurrency there is little to coalesce and the wait deadline
is pure overhead, so no bar is asserted there).  p50/p99 are reported
per level; the RunManifest records per-run spans with the measured
rates plus the batched server's full metrics registry.

``test_serve_http_smoke`` is the CI variant: tiny request counts, one
concurrency level, asserts correctness and that coalescing happened at
all, skips the throughput comparison (too noisy for shared runners).

``test_serve_http_assign_backends`` compares whole-server RPS and
latency across the engine's scoring tiers (``pruned`` vs ``native``
where probed) on a deployment-shaped model -- the end-to-end view of
the inverted-index fast path that
``bench_serve_throughput.test_assign_tiers`` measures at the engine
level.  Its baseline row is the dense ``oracle`` (the
:class:`~repro.core.labeling.LabelingIndex` matmul) labeling the same
request points one at a time in-process, with no HTTP at all; every
tier's labels over HTTP must equal the oracle's.  Numbers are
reported, not asserted: HTTP adds enough noise that the tier bar lives
in the engine bench.
"""

import http.client
import json
import statistics
import threading
import time

from benchmarks.machine import machine_summary
from repro.core.pipeline import RockPipeline
from repro.datasets import small_synthetic_basket
from repro.eval import format_table
from repro.serve.http import serve_in_thread

CONCURRENCY_LEVELS = (4, 16, 64)
REQUESTS_PER_WORKER = 40
SMOKE_CONCURRENCY = 4
SMOKE_REQUESTS_PER_WORKER = 8


def build_model(tmp_path):
    basket = small_synthetic_basket(
        n_clusters=4, cluster_size=200, n_outliers=20, seed=11
    )
    pipeline = RockPipeline(
        k=4, theta=0.45, sample_size=250, min_cluster_size=5, seed=3
    )
    _, model = pipeline.fit_model(basket.transactions)
    path = tmp_path / "model.json"
    model.save(path)
    points = [sorted(t.items) for t in basket.transactions]
    return path, points


def drive(address, points, concurrency, per_worker):
    """Closed-loop load: per-request wall latencies, wall time, failures."""
    latencies = []
    failures = []
    lock = threading.Lock()
    barrier = threading.Barrier(concurrency + 1)

    def worker(worker_id):
        conn = http.client.HTTPConnection(*address, timeout=60)
        local = []
        barrier.wait()
        for i in range(per_worker):
            point = points[(worker_id * per_worker + i) % len(points)]
            start = time.perf_counter()
            conn.request("POST", "/assign", body=json.dumps({"point": point}))
            response = conn.getresponse()
            response.read()
            elapsed = time.perf_counter() - start
            if response.status == 200:
                local.append(elapsed)
            else:
                with lock:
                    failures.append(response.status)
        conn.close()
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    return latencies, wall, failures


def percentile(values, q):
    return statistics.quantiles(sorted(values), n=100)[q - 1]


def run_config(model_path, points, label, levels, per_worker, **server_kwargs):
    """One server lifetime, all concurrency levels, coldest first."""
    results = []
    with serve_in_thread(model_path, poll_seconds=30.0, **server_kwargs) as handle:
        # warm the engine + connection path out of the measurement
        drive(handle.address, points, 2, 4)
        for concurrency in levels:
            latencies, wall, failures = drive(
                handle.address, points, concurrency, per_worker
            )
            assert not failures, f"{label}@{concurrency}: {failures[:5]}"
            results.append({
                "config": label,
                "concurrency": concurrency,
                "requests": len(latencies),
                "rps": len(latencies) / wall,
                "p50_ms": 1000 * percentile(latencies, 50),
                "p99_ms": 1000 * percentile(latencies, 99),
            })
        snap = handle.server.registry.snapshot()
    return results, snap


def test_serve_http_load(tmp_path, benchmark, save_result, save_manifest):
    from repro.obs import RunManifest, Tracer

    model_path, points = build_model(tmp_path)
    tracer = Tracer()

    with tracer.span("batched", batch_max=64, batch_wait_us=2000):
        batched, batched_snap = run_config(
            model_path, points, "batched", CONCURRENCY_LEVELS,
            REQUESTS_PER_WORKER, batch_max=64, batch_wait_us=2000,
        )
    with tracer.span("unbatched", batch_max=1):
        unbatched, _ = run_config(
            model_path, points, "unbatched", CONCURRENCY_LEVELS,
            REQUESTS_PER_WORKER, batch_max=1, batch_wait_us=0,
        )

    by_level = {
        (r["config"], r["concurrency"]): r for r in batched + unbatched
    }
    rows = []
    for concurrency in CONCURRENCY_LEVELS:
        b = by_level[("batched", concurrency)]
        u = by_level[("unbatched", concurrency)]
        rows.append([
            str(concurrency),
            f"{b['rps']:,.0f}", f"{b['p50_ms']:.1f}", f"{b['p99_ms']:.1f}",
            f"{u['rps']:,.0f}", f"{u['p50_ms']:.1f}", f"{u['p99_ms']:.1f}",
            f"{b['rps'] / u['rps']:.2f}x",
        ])

    # the acceptance bar: coalescing wins once there is concurrency
    # worth coalescing
    for concurrency in (c for c in CONCURRENCY_LEVELS if c >= 16):
        b = by_level[("batched", concurrency)]
        u = by_level[("unbatched", concurrency)]
        assert b["rps"] > u["rps"], (
            f"batching lost at concurrency {concurrency}: "
            f"{b['rps']:.0f} vs {u['rps']:.0f} RPS"
        )

    # engine-call compression, from the server's own counters
    coalescing = (
        batched_snap["counters"]["http.requests.assign"]
        / batched_snap["counters"]["http.batcher.flushes"]
    )

    # one benchmarked burst for pytest-benchmark's stats
    with serve_in_thread(model_path, poll_seconds=30.0) as handle:
        benchmark.pedantic(
            lambda: drive(handle.address, points, 16, 10),
            rounds=3, iterations=1,
        )

    text = format_table(
        ["conc",
         "batched RPS", "p50 ms", "p99 ms",
         "unbatched RPS", "p50 ms", "p99 ms",
         "speedup"],
        rows,
        title=(
            "HTTP /assign load: coalescing (batch_max=64) vs per-request "
            f"engine calls (batch_max=1); {REQUESTS_PER_WORKER} req/worker"
        ),
    )
    text += (
        f"\n\nbatched run: {coalescing:.1f} HTTP requests per engine call "
        f"({batched_snap['counters']['http.requests.assign']:.0f} requests, "
        f"{batched_snap['counters']['http.batcher.flushes']:.0f} flushes)\n"
    )
    text += "\n" + machine_summary()
    save_result("serve_http", text)

    tracer.registry.merge(batched_snap)
    save_manifest(
        "serve_http",
        RunManifest.from_tracer(
            "bench_serve_http", tracer,
            config={
                "concurrency_levels": list(CONCURRENCY_LEVELS),
                "requests_per_worker": REQUESTS_PER_WORKER,
                "batched": {"batch_max": 64, "batch_wait_us": 2000},
                "unbatched": {"batch_max": 1, "batch_wait_us": 0},
                "results": batched + unbatched,
            },
        ),
    )


def test_serve_http_assign_backends(
    tmp_path, benchmark, save_result, save_manifest
):
    """Whole-server throughput per engine scoring tier."""
    from benchmarks.bench_serve_throughput import (
        available_tiers,
        oracle_labeler,
        tier_model,
        tier_points,
    )
    from repro.data.transactions import Transaction
    from repro.obs import RunManifest, Tracer

    n_clusters, vocab = 200, 2_000
    model, pools = tier_model(n_clusters, vocab)
    model_path = tmp_path / "tier-model.json"
    model.save(model_path)
    points = [sorted(t.items) for t in tier_points(pools, vocab, 2_000)]

    tracer = Tracer()
    tiers = available_tiers()
    # the baseline: the dense oracle labels each request's point alone,
    # in-process -- the per-request work without any serving layer
    oracle = oracle_labeler(model)
    requests = [
        [Transaction(points[i % len(points)])] for i in range(16 * 30)
    ]
    latencies = []
    start = time.perf_counter()
    for request in requests:
        t0 = time.perf_counter()
        oracle(request)
        latencies.append(time.perf_counter() - t0)
    results = [{
        "backend": "oracle",
        "rps": len(requests) / (time.perf_counter() - start),
        "p50_ms": 1000 * percentile(latencies, 50),
        "p99_ms": 1000 * percentile(latencies, 99),
    }]
    reference_labels = oracle(
        [Transaction(p) for p in points[:200]]
    ).tolist()
    for backend in tiers:
        with serve_in_thread(
            model_path, poll_seconds=30.0, assign_backend=backend
        ) as handle:
            served = handle.server.watcher.current
            assert served.engine.assign_backend == backend
            # one deterministic pass first: every tier must answer the
            # same labels through the full HTTP path
            conn = http.client.HTTPConnection(*handle.address, timeout=60)
            conn.request(
                "POST", "/assign_batch",
                body=json.dumps({"points": points[:200]}),
            )
            labels = json.loads(conn.getresponse().read())["labels"]
            conn.close()
            assert labels == reference_labels, f"{backend} diverges over HTTP"

            drive(handle.address, points, 2, 4)  # warm
            with tracer.span("http_tier", backend=backend):
                latencies, wall, failures = drive(
                    handle.address, points, 16, 30
                )
        assert not failures, f"{backend}: {failures[:5]}"
        results.append({
            "backend": backend,
            "rps": len(latencies) / wall,
            "p50_ms": 1000 * percentile(latencies, 50),
            "p99_ms": 1000 * percentile(latencies, 99),
        })
    rows = [
        [
            record["backend"], f"{record['rps']:,.0f}",
            f"{record['p50_ms']:.1f}", f"{record['p99_ms']:.1f}",
            f"{record['rps'] / results[0]['rps']:.2f}x",
        ]
        for record in results
    ]

    # pytest-benchmark stats: one pruned-tier burst
    with serve_in_thread(
        model_path, poll_seconds=30.0, assign_backend="pruned"
    ) as handle:
        benchmark.pedantic(
            lambda: drive(handle.address, points, 8, 8),
            rounds=3, iterations=1,
        )

    text = format_table(
        ["tier", "RPS", "p50 ms", "p99 ms", "vs oracle"],
        rows,
        title=(
            f"HTTP /assign by engine tier ({n_clusters} clusters, "
            f"{vocab:,} vocab; concurrency 16, 30 req/worker; oracle = "
            f"dense LabelingIndex matmul in-process, one point per call)"
        ),
    )
    if "native" not in tiers:
        text += "\n\n(native tier unavailable on this machine: not probed)"
    text += "\n\n" + machine_summary()
    save_result("serve_http_backends", text)
    save_manifest(
        "serve_http_backends",
        RunManifest.from_tracer(
            "bench_serve_http_backends", tracer,
            config={
                "n_clusters": n_clusters,
                "vocab": vocab,
                "concurrency": 16,
                "requests_per_worker": 30,
                "tiers": tiers,
                "results": results,
            },
        ),
    )


def test_serve_http_smoke(tmp_path, benchmark, save_result):
    """CI-sized: the server answers correctly under concurrent load and
    the batcher actually coalesces -- no throughput assertions."""
    model_path, points = build_model(tmp_path)
    with serve_in_thread(
        model_path, poll_seconds=30.0, batch_max=32, batch_wait_us=3000
    ) as handle:
        latencies, wall, failures = benchmark.pedantic(
            lambda: drive(
                handle.address, points, SMOKE_CONCURRENCY,
                SMOKE_REQUESTS_PER_WORKER,
            ),
            rounds=1, iterations=1,
        )
        snap = handle.server.registry.snapshot()

    n_requests = SMOKE_CONCURRENCY * SMOKE_REQUESTS_PER_WORKER
    assert not failures
    assert len(latencies) == n_requests
    counters = snap["counters"]
    assert counters["http.requests.assign"] == n_requests
    assert counters["http.batcher.flushes"] < n_requests

    text = format_table(
        ["measure", "value"],
        [
            ["requests", str(n_requests)],
            ["concurrency", str(SMOKE_CONCURRENCY)],
            ["RPS", f"{len(latencies) / wall:,.0f}"],
            ["p50 ms", f"{1000 * statistics.median(latencies):.1f}"],
            ["engine calls", f"{counters['http.batcher.flushes']:.0f}"],
        ],
        title="HTTP serve smoke (correctness + coalescing only)",
    )
    save_result("serve_http_smoke", text)
