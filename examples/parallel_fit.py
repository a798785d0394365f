"""The fused fit path: fit_mode, workers, and the memory budget.

Per §4.4 of the paper, neighbor and link computation dominate ROCK's
cost — O(n²·m) set intersections plus O(Σ mᵢ²) link increments.  The
fused kernel scores the similarity matrix one row block at a time,
fans the blocks out across processes, and folds link counting into the
same pass, so the neighbor graph never exists in memory.

Every mode produces byte-identical clusters; the only differences are
wall-time and peak memory.  This example fits the same baskets with
the dense reference, the fused kernel, the native tier, and ``auto``
over a tiny memory budget, including a strict ``min_neighbors``
pruning (the fused kernels rerun over the kept points), and shows the
timings and the agreement.

    python examples/parallel_fit.py
"""

import warnings

import numpy as np

from repro import RockPipeline
from repro.datasets import small_synthetic_basket
from repro.parallel import fused_neighbor_links


def main() -> None:
    basket = small_synthetic_basket(
        n_clusters=4, cluster_size=150, n_outliers=20, seed=3
    )
    points = basket.transactions
    print(f"{len(points)} baskets, 4 planted clusters\n")

    # --- one pipeline per fit mode; everything else identical -----------
    for min_neighbors in (1, 3):
        results = {}
        for mode, workers, budget in [
            ("dense", None, None),   # the full n x n similarity matrix
            ("fused", "auto", None), # one pass: links accumulate per
                                     # block, the graph is never built
            ("native", "auto", None),  # the fused pass, native kernels
            ("auto", None, 1),       # over budget: native, else fused
        ]:
            pipeline = RockPipeline(
                k=4, theta=0.5, seed=0, fit_mode=mode, workers=workers,
                memory_budget=budget, min_neighbors=min_neighbors,
            )
            with warnings.catch_warnings():
                # a forced native mode without a probed tier runs fused
                warnings.simplefilter("ignore", RuntimeWarning)
                result = pipeline.fit(points, label_remaining=False)
            results[mode] = result
            timings = result.timings
            print(f"min_neighbors={min_neighbors} fit_mode={mode:<7} "
                  f"ran {result.backends['fit']:<12} neighbors+links "
                  f"{timings['neighbors'] + timings['links']:6.3f}s  "
                  f"-> {result.n_clusters} clusters")

        # --- all modes agree exactly ------------------------------------
        base = results["dense"]
        for mode, result in results.items():
            assert np.array_equal(result.labels, base.labels), mode
        print(f"all fit modes produced byte-identical labels "
              f"(min_neighbors={min_neighbors})\n")

    # --- the kernel is also usable directly -----------------------------
    fused = fused_neighbor_links(points, 0.5, workers=2)
    print(f"fused: {fused.links.nnz_pairs()} linked pairs, "
          f"{int(fused.degrees.sum()) // 2} neighbor edges via "
          f"fused.degrees (graph never materialised)")


if __name__ == "__main__":
    main()
