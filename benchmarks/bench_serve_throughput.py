"""S1 -- serving throughput: labeler loop vs vectorized engine vs parallel.

The §4.6 labeling scan is the serve-time hot path: once a sample is
clustered, every remaining (or future) point flows through per-point
assignment.  This bench fits one model on a small sample, then labels
n ∈ {10k, 100k} synthetic market-basket points three ways:

* ``labeler`` -- the sequential :class:`ClusterLabeler` loop (one
  Python-level matvec per point);
* ``engine`` -- :class:`AssignmentEngine` batch matmuls;
* ``parallel`` -- :func:`repro.serve.assign_stream` over worker
  processes.

The acceptance bar is engine >= 5x labeler throughput at n=100k; in
practice the batch path lands one to two orders of magnitude ahead.
The serving metrics snapshot for the engine run is appended to the
saved table.

``test_assign_tiers`` is the backend-tier comparison: on models sized
like real deployments (hundreds of clusters, thousands of vocabulary
items) it measures the ``pruned`` inverted-index path and the
``native`` fused kernel against the dense ``oracle`` -- the
:class:`~repro.core.labeling.LabelingIndex` matmul behind
:class:`ClusterLabeler`, timed directly on the same batches --
reporting RPS and per-call p50/p99 per tier, asserting label equality
everywhere and that both tiers beat the oracle at every config.
``test_assign_tiers_smoke`` is the CI variant: one small model,
correctness + index wiring only.
"""

import json
import random
import statistics
import time
import warnings

import numpy as np

from benchmarks.machine import machine_summary
from repro.core.labeling import ClusterLabeler, LabelingIndex
from repro.data.transactions import Transaction
from repro.eval import format_table
from repro.serve import (
    AssignmentEngine,
    RockModel,
    ServeMetrics,
    assign_stream,
    resolve_assign_backend,
)
from repro.core.pipeline import RockPipeline
from repro.datasets import small_synthetic_basket

SIZES = (10_000, 100_000)
WORKERS = 4

# (n_clusters, vocab) grid for the tier comparison; every config sits
# at or past the pruning break-even the issue names (>= 100 clusters,
# >= 1k vocabulary)
TIER_CONFIGS = ((100, 1_000), (100, 4_000), (200, 2_000), (400, 4_000))
TIER_POINTS = 8_192
TIER_BATCH = 256
TIER_ROUNDS = 3


def _grow_stream(basket, n, seed):
    """n points drawn from the basket's cluster item pools (plus noise),
    mimicking a production stream hitting a frozen model."""
    rng = random.Random(seed)
    members = [
        sorted(txn.items)
        for label, txn in zip(basket.labels, basket.transactions)
        if label >= 0
    ]
    outlier_pool = [f"noise{i}" for i in range(50)]
    points = []
    for _ in range(n):
        if rng.random() < 0.05:
            points.append(Transaction(rng.sample(outlier_pool, 4)))
        else:
            base = members[rng.randrange(len(members))]
            keep = rng.sample(base, max(2, len(base) - 1))
            points.append(Transaction(keep))
    return points


def test_serve_throughput(benchmark, save_result, save_manifest):
    from repro.obs import RunManifest, Tracer

    basket = small_synthetic_basket(
        n_clusters=4, cluster_size=400, n_outliers=40, seed=11
    )
    pipeline = RockPipeline(
        k=4, theta=0.45, sample_size=400, min_cluster_size=5, seed=3
    )
    tracer = Tracer()
    _, model = pipeline.fit_model(basket.transactions, tracer=tracer)
    labeler: ClusterLabeler = model.labeler()

    rows = []
    rates: dict[tuple[int, str], float] = {}
    # serving metrics share the tracer's registry, so the saved
    # manifest carries fit spans and serve counters in one artifact
    engine_metrics = ServeMetrics(registry=tracer.registry)
    for n in SIZES:
        points = _grow_stream(basket, n, seed=n)

        with tracer.span("labeler", n=n):
            start = time.perf_counter()
            labels_loop = labeler.assign_all(points)
            loop_seconds = time.perf_counter() - start

        engine = AssignmentEngine(model, metrics=engine_metrics, cache_size=0)
        with tracer.span("engine", n=n):
            start = time.perf_counter()
            labels_engine = engine.assign_batch(points)
            engine_seconds = time.perf_counter() - start

        with tracer.span("parallel", n=n, workers=WORKERS):
            start = time.perf_counter()
            labels_parallel = assign_stream(
                model, points, workers=WORKERS, chunk_size=8192
            )
            parallel_seconds = time.perf_counter() - start

        assert labels_engine.tolist() == labels_loop.tolist()
        assert labels_parallel.tolist() == labels_loop.tolist()

        for name, seconds in (
            ("labeler", loop_seconds),
            ("engine", engine_seconds),
            (f"parallel x{WORKERS}", parallel_seconds),
        ):
            rates[(n, name)] = n / seconds
            rows.append([
                f"{n:,}", name, f"{seconds:.2f}",
                f"{n / seconds:,.0f}",
                f"{loop_seconds / seconds:.1f}x",
            ])

    # the acceptance bar: vectorized engine >= 5x the labeler loop at 100k
    speedup = rates[(100_000, "engine")] / rates[(100_000, "labeler")]
    assert speedup >= 5.0, f"engine only {speedup:.1f}x over labeler loop"

    # record the engine path in pytest-benchmark's stats (one 10k batch)
    points_10k = _grow_stream(basket, 10_000, seed=7)
    bench_engine = AssignmentEngine(model, cache_size=0)
    benchmark.pedantic(
        lambda: bench_engine.assign_batch(points_10k), rounds=3, iterations=1
    )

    text = format_table(
        ["n", "path", "seconds", "points/sec", "speedup vs labeler"],
        rows,
        title=f"Serve throughput (model: {model.n_clusters} clusters, "
              f"|L| = {sum(len(li) for li in model.labeling_sets)} reps)",
    )
    text += "\n\nEngine metrics snapshot:\n"
    text += json.dumps(engine_metrics.snapshot(), indent=2)
    text += "\n\n" + machine_summary()
    save_result("serve_throughput", text)
    save_manifest(
        "serve_throughput",
        RunManifest.from_tracer(
            "bench_serve_throughput", tracer,
            config={
                "sizes": list(SIZES),
                "workers": WORKERS,
                "theta": 0.45,
                "k": 4,
            },
        ),
    )


# -- the backend-tier comparison ---------------------------------------------


def tier_model(n_clusters, vocab, reps_per_cluster=6, items_per_rep=8, seed=0):
    """A deployment-shaped model built directly from synthetic L_i sets.

    Fitting hundreds of clusters is the fit benches' problem; here only
    the *assignment* cost matters, so the labeling sets are drawn
    straight from per-cluster item pools carved out of a ``vocab``-item
    universe (with pool overlap, so candidate sets are non-trivial).
    """
    rng = random.Random(seed)
    universe = list(range(vocab))
    pool_width = max(items_per_rep + 4, vocab // n_clusters)
    labeling_sets = []
    pools = []
    for _ in range(n_clusters):
        pool = rng.sample(universe, pool_width)
        pools.append(pool)
        labeling_sets.append([
            Transaction(rng.sample(pool, items_per_rep))
            for _ in range(reps_per_cluster)
        ])
    model = RockModel(
        labeling_sets=labeling_sets, theta=0.5, f_theta=(1 - 0.5) / (1 + 0.5)
    )
    return model, pools


def tier_points(pools, vocab, n, seed=1):
    """A query stream: cluster-shaped points plus 5% out-of-vocab noise."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        if rng.random() < 0.05:
            points.append(
                Transaction(rng.sample(range(vocab, vocab + 64), 5))
            )
        else:
            pool = pools[rng.randrange(len(pools))]
            points.append(Transaction(rng.sample(pool, 6)))
    return points


def available_tiers():
    """pruned always; native when a probed kernel provides it."""
    tiers = ["pruned"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        backend, _ = resolve_assign_backend("native")
    if backend == "native":
        tiers.append("native")
    return tiers


def oracle_labeler(model):
    """Batch labels from the dense LabelingIndex oracle: every point
    scored against every representative, then the normalised argmax."""
    index = LabelingIndex(model.labeling_sets, model.theta, model.f_theta)

    def label(points):
        counts = index.neighbor_counts(points)
        labels = np.argmax(counts / index.normalisers, axis=1)
        labels[~counts.any(axis=1)] = -1
        return labels

    return label


def tier_labeler(model, tier):
    """The batch-labeling callable timed for ``tier``."""
    if tier == "oracle":
        return oracle_labeler(model)
    return AssignmentEngine(
        model, assign_backend=tier, cache_size=0
    ).assign_batch


def _drive_tier(model, points, tier, rounds=TIER_ROUNDS, batch=TIER_BATCH):
    """Per-call latencies + total wall across ``rounds`` full passes."""
    label_batch = tier_labeler(model, tier)
    latencies = []
    labels = None
    start = time.perf_counter()
    for _ in range(rounds):
        got = []
        for lo in range(0, len(points), batch):
            t0 = time.perf_counter()
            part = label_batch(points[lo : lo + batch])
            latencies.append(time.perf_counter() - t0)
            got.append(part)
        labels = [int(v) for part in got for v in part]
    wall = time.perf_counter() - start
    return labels, latencies, wall


def _pctl(values, q):
    return statistics.quantiles(sorted(values), n=100)[q - 1]


def test_assign_tiers(benchmark, save_result, save_manifest):
    from repro.obs import RunManifest, Tracer

    tracer = Tracer()
    tiers = ["oracle"] + available_tiers()
    rows = []
    results = []
    for n_clusters, vocab in TIER_CONFIGS:
        model, pools = tier_model(n_clusters, vocab)
        points = tier_points(pools, vocab, TIER_POINTS)
        per_tier = {}
        for backend in tiers:
            with tracer.span(
                "assign_tier", backend=backend,
                n_clusters=n_clusters, vocab=vocab,
            ):
                labels, latencies, wall = _drive_tier(model, points, backend)
            per_tier[backend] = {
                "labels": labels,
                "rps": TIER_ROUNDS * len(points) / wall,
                "p50_ms": 1000 * _pctl(latencies, 50),
                "p99_ms": 1000 * _pctl(latencies, 99),
            }
        oracle = per_tier["oracle"]
        for backend in tiers:
            r = per_tier[backend]
            # every tier is a pure optimisation, or it is wrong
            assert r["labels"] == oracle["labels"], (
                f"{backend} labels diverge at {n_clusters}x{vocab}"
            )
            rows.append([
                str(n_clusters), f"{vocab:,}", backend,
                f"{r['rps']:,.0f}",
                f"{r['p50_ms']:.2f}", f"{r['p99_ms']:.2f}",
                f"{r['rps'] / oracle['rps']:.1f}x",
            ])
            results.append({
                "n_clusters": n_clusters, "vocab": vocab,
                "backend": backend, "rps": r["rps"],
                "p50_ms": r["p50_ms"], "p99_ms": r["p99_ms"],
            })
        # the acceptance bar: pruning beats the dense oracle at every
        # config in the grid (all sit at >= 100 clusters / >= 1k vocab)
        assert per_tier["pruned"]["rps"] > oracle["rps"], (
            f"pruned lost to the oracle at {n_clusters} clusters / "
            f"{vocab} vocab"
        )
        if "native" in per_tier:
            assert per_tier["native"]["rps"] > oracle["rps"], (
                f"native lost to the oracle at {n_clusters} clusters / "
                f"{vocab} vocab"
            )

    # pytest-benchmark stats: the pruned tier on the largest config
    model, pools = tier_model(*TIER_CONFIGS[-1])
    points = tier_points(pools, TIER_CONFIGS[-1][1], TIER_POINTS)
    bench_engine = AssignmentEngine(
        model, assign_backend="pruned", cache_size=0
    )
    benchmark.pedantic(
        lambda: bench_engine.assign_batch(points), rounds=3, iterations=1
    )

    text = format_table(
        ["clusters", "vocab", "tier", "points/sec",
         "p50 ms", "p99 ms", "vs oracle"],
        rows,
        title=(
            f"Assignment tiers ({TIER_POINTS:,} points x {TIER_ROUNDS} "
            f"rounds, batches of {TIER_BATCH}; 6 reps/cluster, theta=0.5; "
            f"oracle = dense LabelingIndex matmul)"
        ),
    )
    if "native" not in tiers:
        text += "\n\n(native tier unavailable on this machine: not probed)"
    text += "\n\n" + machine_summary()
    save_result("serve_throughput_tiers", text)
    save_manifest(
        "serve_throughput_tiers",
        RunManifest.from_tracer(
            "bench_assign_tiers", tracer,
            config={
                "configs": [list(c) for c in TIER_CONFIGS],
                "points": TIER_POINTS,
                "batch": TIER_BATCH,
                "rounds": TIER_ROUNDS,
                "tiers": tiers,
                "results": results,
            },
        ),
    )


def test_assign_tiers_smoke(save_result):
    """CI-sized: pruned (and native where probed) equal the dense oracle
    on a small model and the engine wires the index through -- no
    throughput bars."""
    model, pools = tier_model(20, 200, reps_per_cluster=4, items_per_rep=6)
    points = tier_points(pools, 200, 2_000)
    rows = []
    reference = None
    for backend in ["oracle"] + available_tiers():
        if backend != "oracle":
            engine = AssignmentEngine(model, assign_backend=backend)
            assert engine.assign_backend == backend
            assert engine.fast_index is not None
        label_batch = tier_labeler(model, backend)
        label_batch(points[:64])  # warm-up: first-call imports and setup
        start = time.perf_counter()
        labels = label_batch(points).tolist()
        seconds = time.perf_counter() - start
        if reference is None:
            reference = labels
        assert labels == reference, f"{backend} diverges from the oracle"
        rows.append([backend, f"{len(points) / seconds:,.0f}"])
    text = format_table(
        ["tier", "points/sec"], rows,
        title="Assign tier smoke (correctness + wiring only, 20x200 model)",
    )
    save_result("serve_throughput_tiers_smoke", text)
