"""The benchmark's workloads: seeded inputs, pipeline settings, output checks.

Each workload is one user journey through the public entry points:
generate data, fit it with :class:`repro.RockPipeline`, package the
result as a :class:`repro.RockModel` and serve that model over HTTP.
The two workloads differ in which fit layer does the work:

``fit-clustered``
    2,520 baskets in 105 well-separated clusters, clustered whole with
    pipeline defaults.  The neighbor phase does ~90% of the fit (the
    dense path ``auto`` picks); the merge runs over 105 small
    components and labeling does nothing.  The served model is
    deployment-shaped (105 clusters, 6 representatives each, 400
    items), so queries touch few candidates.
``paper-basket``
    The paper's Table 5 generator at quarter scale (28,646 baskets, 10
    clusters, ~5% outliers) through the Figure 2 pipeline: sample
    1,000, cluster with links, weed small clusters, label the rest.
    Labeling does ~80% of the fit; the merge runs over a few large
    components.  The served model has 10 clusters with ~24
    representatives each over shared items, so queries score many
    candidates.

Everything random derives from the ``seed`` argument; the program only
ever sees the generated points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

THETA = 0.5

# fit-clustered generator: each cluster draws 10-item baskets from its
# own 14-item pool out of a 400-item vocabulary, so in-cluster Jaccard
# clears theta=0.5 with probability ~0.79 and cross-cluster neighbors
# are essentially impossible
CLUSTERED_VOCAB = 400
CLUSTERED_POOL = 14
CLUSTERED_BASKET = 10
CLUSTERED_PER_CLUSTER = 24

# serving traffic: half the single-point requests repeat a hot set far
# smaller than the engine's 4,096-entry LRU, half are fresh draws.  Each
# reload starts a cold cache, and about 200 hot requests arrive between
# reloads, so the hot set must be small for the cache to matter.
HOT_SET = 64
HOT_SHARE = 0.5
BULK_BATCH = 256
BULK_BATCHES = 32  # 8,192 distinct points: cycling them defeats the LRU


@dataclass
class Inputs:
    """One workload instance: points, fit settings, checks and a traffic source."""

    points: Any
    pipeline_kwargs: dict[str, Any]
    warmup_points: Any
    warmup_kwargs: dict[str, Any]
    draw_point: Callable[[random.Random], list]
    check_fit: Callable[[Any], list[str]]
    facts: dict[str, Any] = field(default_factory=dict)


def _purity(labels: np.ndarray, truth: np.ndarray) -> float:
    """Share of assigned points whose cluster's majority truth they share."""
    assigned = labels >= 0
    if not assigned.any():
        return 0.0
    hits = 0
    for cluster in np.unique(labels[assigned]):
        members = truth[labels == cluster]
        members = members[members >= 0]
        if members.size:
            hits += int(np.bincount(members).max())
    return hits / int(assigned.sum())


def clustered(seed: int, smoke: bool) -> Inputs:
    from repro import TransactionDataset

    n_clusters = 12 if smoke else 105
    rng = np.random.default_rng(seed)
    pools = []
    baskets = []
    truth = []
    for c in range(n_clusters):
        pool = rng.choice(CLUSTERED_VOCAB, size=CLUSTERED_POOL, replace=False)
        pools.append(sorted(int(i) for i in pool))
        for _ in range(CLUSTERED_PER_CLUSTER):
            basket = rng.choice(pool, size=CLUSTERED_BASKET, replace=False)
            baskets.append(frozenset(int(i) for i in basket))
            truth.append(c)
    points = TransactionDataset(baskets)
    warm = 10 * CLUSTERED_PER_CLUSTER

    def draw_point(r: random.Random) -> list:
        return sorted(r.sample(pools[r.randrange(n_clusters)], CLUSTERED_BASKET))

    def check_fit(result: Any) -> list[str]:
        problems = []
        if result.n_clusters != n_clusters:
            problems.append(
                f"{result.n_clusters} clusters, expected {n_clusters}"
            )
        purity = _purity(np.asarray(result.labels), np.asarray(truth))
        if purity <= 0.95:
            problems.append(f"purity {purity:.4f} <= 0.95")
        return problems

    return Inputs(
        points=points,
        pipeline_kwargs={"k": n_clusters, "theta": THETA, "seed": seed},
        warmup_points=points.subset(list(range(warm))),
        warmup_kwargs={"k": 10, "theta": THETA, "seed": seed},
        draw_point=draw_point,
        check_fit=check_fit,
        facts={"n": len(baskets), "clusters": n_clusters},
    )


def paper_basket(seed: int, smoke: bool) -> Inputs:
    from repro.datasets.synthetic_basket import (
        TABLE5_CLUSTER_SIZES,
        TABLE5_OUTLIERS,
        SyntheticBasketConfig,
        generate_synthetic_basket,
    )

    # sizes are Table 5's divided by ``scale``; the sample keeps labeling
    # the dominant phase, and a smaller sample labels the smallest
    # clusters less exactly, hence the looser size tolerance at toy size
    scale, sample_size, min_size, tolerance = (
        (20, 500, 5, 0.1) if smoke else (4, 1000, 10, 0.02)
    )
    config = SyntheticBasketConfig(
        cluster_sizes=tuple(s // scale for s in TABLE5_CLUSTER_SIZES),
        n_outliers=TABLE5_OUTLIERS // scale,
    )
    basket = generate_synthetic_basket(config, seed=seed)
    truth = list(basket.labels)
    sizes = list(config.cluster_sizes)
    pools = [sorted(items) for items in basket.cluster_items]
    all_items = sorted(frozenset().union(*basket.cluster_items))
    outlier_share = config.n_outliers / config.n_transactions

    def draw_point(r: random.Random) -> list:
        if r.random() < outlier_share:
            pool = all_items
        else:
            pool = r.choices(pools, weights=sizes)[0]
        size = round(r.gauss(config.mean_transaction_size,
                             config.std_transaction_size))
        size = max(config.min_transaction_size, min(size, len(pool)))
        return sorted(r.sample(pool, size))

    def check_fit(result: Any) -> list[str]:
        problems = []
        k = config.n_clusters
        if result.n_clusters != k:
            return [f"{result.n_clusters} clusters, expected {k}"]
        labels = np.asarray(result.labels)
        true = np.asarray(truth)
        matched = set()
        for cluster in range(k):
            members = true[labels == cluster]
            members = members[members >= 0]
            if members.size == 0:
                problems.append(f"cluster {cluster} holds only outliers")
                continue
            majority = int(np.bincount(members).argmax())
            matched.add(majority)
            found = int((labels == cluster).sum())
            if abs(found - sizes[majority]) > tolerance * sizes[majority]:
                problems.append(
                    f"cluster {cluster} has {found} points, generator "
                    f"cluster {majority} has {sizes[majority]}"
                )
        if len(matched) != k:
            problems.append("found clusters do not map one-to-one")
        purity = _purity(labels, true)
        if purity < 0.99:
            problems.append(f"purity {purity:.4f} < 0.99")
        return problems

    warm = min(1000, len(truth))
    return Inputs(
        points=basket.transactions,
        pipeline_kwargs={
            "k": config.n_clusters, "theta": THETA,
            "sample_size": sample_size, "min_cluster_size": min_size,
            "seed": seed,
        },
        warmup_points=basket.transactions.subset(list(range(warm))),
        warmup_kwargs={
            "k": config.n_clusters, "theta": THETA, "sample_size": 200,
            "min_cluster_size": 2, "seed": seed,
        },
        draw_point=draw_point,
        check_fit=check_fit,
        facts={"n": len(truth), "clusters": config.n_clusters,
               "generated_outliers": config.n_outliers},
    )


WORKLOADS = {"fit-clustered": clustered, "paper-basket": paper_basket}


@dataclass
class Traffic:
    """Seeded serving traffic: per-round open-loop windows plus bulk batches."""

    light: list[tuple[list[list], list[float]]]
    heavy: list[tuple[list[list], list[float]]]
    bulk: list[list[list]]


def poisson_offsets(rng: random.Random, rate: float, seconds: float) -> list[float]:
    offsets = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def make_traffic(
    inputs: Inputs,
    rng: random.Random,
    rounds: int,
    light: tuple[float, float],
    heavy: tuple[float, float],
) -> Traffic:
    """``light``/``heavy`` are ``(rate, seconds)`` of one round's window."""
    hot = [inputs.draw_point(rng) for _ in range(HOT_SET)]

    def window(rate: float, seconds: float) -> tuple[list[list], list[float]]:
        offsets = poisson_offsets(rng, rate, seconds)
        points = [
            hot[rng.randrange(HOT_SET)] if rng.random() < HOT_SHARE
            else inputs.draw_point(rng)
            for _ in offsets
        ]
        return points, offsets

    return Traffic(
        light=[window(*light) for _ in range(rounds)],
        heavy=[window(*heavy) for _ in range(rounds)],
        bulk=[
            [inputs.draw_point(rng) for _ in range(BULK_BATCH)]
            for _ in range(BULK_BATCHES)
        ],
    )
