"""Fast assignment: the dense oracle vs candidate pruning vs native kernel.

The reference labeler (``ClusterLabeler``, backed by a dense
``LabelingIndex``) scores every point against *every* representative
with one big indicator matmul.  But a point can only neighbor
representatives it shares an item with, and real categorical points
touch a handful of the vocabulary — so on deployment-shaped models
(hundreds of clusters, thousands of vocabulary items) almost all of
that work scores exact zeros.  The production path, an inverted index
over the labeling sets, scores only candidates; ``assign_backend``
picks its tier:

* ``"pruned"`` — inverted-index candidate gather + sparse scoring;
* ``"native"`` — the fused ``assign_block`` kernel from ``repro.native``;
* ``"auto"``   — native when available, else pruned (the default).

Both tiers are bit-identical to ``ClusterLabeler.assign`` (the
property tests in ``tests/test_assign_index.py`` prove it); this
example shows the throughput gap to the dense oracle and the
``serve.assign.backend`` gauge that reports which tier a live engine
resolved to.

    python examples/fast_assign.py
"""

import random
import time
import warnings

import numpy as np

from repro.core.labeling import LabelingIndex
from repro.data.transactions import Transaction
from repro.serve import (
    AssignmentEngine,
    RockModel,
    ServeMetrics,
    resolve_assign_backend,
)

N_CLUSTERS = 150
VOCAB = 2_000
N_POINTS = 6_000


def build_model(n_clusters, vocab, reps_per_cluster=6, items_per_rep=8, seed=0):
    """A deployment-shaped model straight from synthetic labeling sets.

    Only assignment cost matters here, so the L_i sets are drawn from
    overlapping per-cluster item pools instead of running a full fit.
    """
    rng = random.Random(seed)
    universe = list(range(vocab))
    pool_width = max(items_per_rep + 4, vocab // n_clusters)
    labeling_sets, pools = [], []
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


def build_points(pools, vocab, n, seed=1):
    """A query stream: cluster-shaped points plus 5% out-of-vocab noise."""
    rng = random.Random(seed)
    noise_pool = list(range(vocab, vocab + 64))
    points = []
    for _ in range(n):
        if rng.random() < 0.05:
            points.append(Transaction(rng.sample(noise_pool, 6)))
        else:
            pool = pools[rng.randrange(len(pools))]
            points.append(Transaction(rng.sample(pool, 6)))
    return points


def main() -> None:
    model, pools = build_model(N_CLUSTERS, VOCAB)
    points = build_points(pools, VOCAB, N_POINTS)
    n_reps = sum(len(li) for li in model.labeling_sets)
    print(f"model: {model.n_clusters} clusters, {n_reps} representatives, "
          f"{VOCAB}-item vocabulary; stream of {len(points):,} points\n")

    # the dense oracle: all counts from one matmul, then the argmax
    oracle = LabelingIndex(model.labeling_sets, model.theta, model.f_theta)
    start = time.perf_counter()
    counts = oracle.neighbor_counts(points)
    reference = np.argmax(counts / oracle.normalisers, axis=1)
    reference[~counts.any(axis=1)] = -1
    oracle_rate = len(points) / (time.perf_counter() - start)
    print(f"{'oracle':>6}: {oracle_rate:>10,.0f} points/sec  (dense matmul)")

    backends = ["pruned"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        native_tier, _ = resolve_assign_backend("native")
    if native_tier == "native":
        backends.append("native")
    else:
        print("repro.native has no assign kernel here -- "
              "comparing the oracle vs pruned only")

    for backend in backends:
        metrics = ServeMetrics()
        engine = AssignmentEngine(
            model, cache_size=0, metrics=metrics, assign_backend=backend
        )
        engine.assign_batch(points[:256])  # warm-up
        start = time.perf_counter()
        labels = engine.assign_batch(points)
        seconds = time.perf_counter() - start

        assert (labels == reference).all(), "tiers must match the oracle"

        gauges = metrics.registry.snapshot()["gauges"]
        active = [
            key.rsplit(".", 1)[1]
            for key, value in gauges.items()
            if key.startswith("serve.assign.backend.") and value
        ]
        rate = len(points) / seconds
        print(f"{backend:>6}: {rate:>10,.0f} points/sec  "
              f"({rate / oracle_rate:4.1f}x oracle)  gauge={active}")

    auto_tier, _ = resolve_assign_backend("auto")
    outliers = int((reference == -1).sum())
    print(f"\nall tiers agree; {outliers:,} points (every out-of-vocab "
          f"one included) had no theta-neighbor and landed at outlier -1")
    print(f'"auto" resolves to "{auto_tier}" on this machine')


if __name__ == "__main__":
    main()
