"""Over-budget fit: clustering past the dense-similarity memory wall.

Past the memory budget the fit runs the fused neighbor+link pass
(``repro.parallel.links.fused_neighbor_links``, or its native tier),
which scores one row block at a time and never holds the neighbor
graph, so a fit can run at sample sizes where the dense ``n x n``
float64 similarity matrix would not fit in RAM.  Two benches:

* a **smoke** run at tiny ``n`` proving that ``auto`` over a tiny
  memory budget with the native tier opted out resolves the fused pass
  and is label-identical to the dense path end to end (this is what
  ``make bench-smoke`` runs in CI);
* a **full-scale** run (marked ``slow``) at ``n = 33,600``, whose dense
  similarity matrix would occupy ~9.0 GB -- beyond the default 1 GiB
  memory budget, and beyond :data:`~repro.core.neighbors.DENSIFY_LIMIT`,
  so *any* accidental densification anywhere in the fit path raises.
  Peak RSS is asserted to stay under half the dense-matrix footprint and
  the measured numbers are written to ``benchmarks/results/``.

Peak memory is read from ``ru_maxrss`` -- the process high-water mark --
so the slow bench is meaningful only in a fresh process (run this file
alone, as ``make bench`` does per-file collection anyway).
"""

import resource

import numpy as np
import pytest

from benchmarks.machine import machine_summary
from repro.core import RockPipeline
from repro.core.neighbors import (
    DEFAULT_MEMORY_BUDGET,
    DENSIFY_LIMIT,
    dense_similarity_bytes,
)
from repro.data.transactions import TransactionDataset

THETA = 0.5
VOCAB = 400
POOL_SIZE = 14
TXN_SIZE = 10
PER_CLUSTER = 24


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def make_clustered_baskets(n_clusters: int, seed: int = 0) -> TransactionDataset:
    """Well-separated market baskets: each cluster draws size-10
    transactions from its own 14-item pool out of a 400-item vocabulary.

    In-cluster Jaccard clears theta=0.5 with probability ~0.79 (needs 7
    of 10 items shared); cross-cluster pools share ~0.5 items on
    average, so cross-cluster neighbors are essentially impossible.
    """
    rng = np.random.default_rng(seed)
    transactions = []
    for _ in range(n_clusters):
        pool = rng.choice(VOCAB, size=POOL_SIZE, replace=False)
        for _ in range(PER_CLUSTER):
            transactions.append(
                frozenset(rng.choice(pool, size=TXN_SIZE, replace=False).tolist())
            )
    return TransactionDataset(transactions)


def fit_blocked(dataset: TransactionDataset, k: int) -> object:
    return RockPipeline(k=k, theta=THETA, sample_size=None, seed=0).fit(
        dataset, label_remaining=False
    )


def mean_purity(labels: np.ndarray, n_clusters: int) -> float:
    """Mean modal-label fraction over the generated (true) clusters."""
    purities = []
    for c in range(n_clusters):
        block = labels[c * PER_CLUSTER : (c + 1) * PER_CLUSTER]
        block = block[block >= 0]
        if block.size == 0:
            purities.append(0.0)
            continue
        _, counts = np.unique(block, return_counts=True)
        purities.append(counts.max() / PER_CLUSTER)
    return float(np.mean(purities))


def test_blocked_fit_smoke(benchmark, save_result, monkeypatch):
    """Tiny-n proof that the over-budget fit equals the dense fit."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    n_clusters = 10
    dataset = make_clustered_baskets(n_clusters)
    dense = RockPipeline(
        k=n_clusters, theta=THETA, sample_size=None, seed=0, fit_mode="dense"
    ).fit(dataset, label_remaining=False)
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "result",
            RockPipeline(
                k=n_clusters, theta=THETA, sample_size=None, seed=0,
                memory_budget=1,
            ).fit(dataset, label_remaining=False),
        ),
        rounds=1,
        iterations=1,
    )
    over = holder["result"]
    assert over.plan.fit == "fused"
    assert np.array_equal(over.labels, dense.labels)
    assert over.clusters == dense.clusters
    purity = mean_purity(over.labels, n_clusters)
    assert purity > 0.95
    save_result(
        "blocked_fit_smoke",
        "\n".join([
            "Over-budget fit smoke: auto (fused, memory_budget=1) == dense "
            "at tiny n",
            f"n={len(dataset)}  clusters={over.n_clusters}  "
            f"purity={purity:.3f}",
            f"clustering_seconds={over.clustering_seconds():.3f}",
            f"peak_rss_gb={peak_rss_bytes() / 1024**3:.2f}",
            "",
            machine_summary(),
        ]),
    )


@pytest.mark.slow
def test_blocked_fit_beyond_dense_memory(benchmark, save_result):
    """Fit 33,600 points whose dense similarity matrix would be ~9 GB.

    ``dense_similarity_bytes(n)`` exceeds both the 8 GB bar and
    ``DENSIFY_LIMIT``, so the auto plan must choose a fused kernel
    (native or fused) and nothing downstream may densify.  Peak RSS is
    asserted under half the dense footprint.
    """
    n_clusters = 1400
    dataset = make_clustered_baskets(n_clusters)
    n = len(dataset)
    dense_bytes = dense_similarity_bytes(n)
    assert dense_bytes > 8 * 1024**3
    assert dense_bytes > DEFAULT_MEMORY_BUDGET
    assert n * n > DENSIFY_LIMIT  # any densification would raise

    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault("result", fit_blocked(dataset, k=n_clusters)),
        rounds=1,
        iterations=1,
    )
    result = holder["result"]
    peak = peak_rss_bytes()

    assert peak < dense_bytes / 2, (
        f"peak RSS {peak / 1024**3:.2f} GB is not memory-bounded vs the "
        f"{dense_bytes / 1024**3:.2f} GB dense matrix"
    )
    assert len(result.labels) == n
    purity = mean_purity(result.labels, n_clusters)
    assert purity > 0.9
    assert abs(result.n_clusters - n_clusters) <= n_clusters * 0.05

    timings = result.timings
    save_result(
        "blocked_fit",
        "\n".join([
            "Blocked fit at n beyond the dense-similarity memory wall",
            "",
            f"points                  {n}  ({n_clusters} clusters x "
            f"{PER_CLUSTER}, vocab {VOCAB}, theta {THETA})",
            f"dense similarity matrix {dense_bytes / 1024**3:.2f} GB "
            "(never materialised)",
            f"memory budget           "
            f"{DEFAULT_MEMORY_BUDGET / 1024**3:.2f} GB (default)",
            f"peak RSS                {peak / 1024**3:.2f} GB",
            f"clusters found          {result.n_clusters}  "
            f"(mean purity {purity:.3f})",
            "",
            "stage seconds:",
            *(
                f"  {stage:<10} {seconds:8.2f}"
                for stage, seconds in timings.items()
            ),
            "",
            machine_summary(),
        ]),
    )
