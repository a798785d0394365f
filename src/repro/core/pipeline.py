"""The end-to-end ROCK pipeline (Section 4.1, Figure 2).

    data -> draw random sample -> cluster with links -> label data on disk

plus the outlier handling of Section 4.6 woven in at its two moments:
isolated points are discarded after the neighbor computation, and
(optionally) clustering pauses at a small multiple of ``k`` to weed
small clusters before resuming to ``k``.

:class:`RockPipeline` is the main public entry point of the library.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.assign import build_assignment_index, resolve_assign_backend
from repro.core.goodness import default_f, goodness as normalized_goodness
from repro.core.labeling import (
    ClusterLabeler,
    draw_labeling_sets,
    labels_from_clusters,
)
from repro.core.merge import MERGE_METHODS
from repro.core.outliers import weed_small_clusters, weeding_stop_count
from repro.core.plan import (
    FIT_MODES,
    FitPlan,
    require_kept,
    resolve_fit_plan,
    subset_points,
)
from repro.core.rock import GoodnessFunction, RockResult, cluster_with_links
from repro.core.sampling import sample_indices
from repro.core.similarity import SimilarityFunction
from repro.obs.trace import Tracer


@dataclass
class PipelineResult:
    """Everything a caller needs from one pipeline run.

    Attributes
    ----------
    labels:
        Per-point cluster index over the *full* input (length ``n``),
        -1 for outliers.
    clusters:
        Final clusters as lists of original point indices (sample
        members plus labeled points), ordered by decreasing size.
    sample_indices:
        Original indices of the sampled points.
    outlier_indices:
        Original indices of sampled points discarded as outliers
        (isolated points and weeded small clusters).
    rock_result:
        The raw merge-loop result over the pruned sample (its point
        indexing is internal; use ``clusters``/``labels`` instead).
    timings:
        Wall-clock seconds per stage: ``sample``, ``neighbors``,
        ``links``, ``cluster``, ``label``.  Figure 5 of the paper
        excludes the labeling phase; its bench sums the others.
    labeling_sets:
        The per-cluster ``L_i`` representative sets actually used by the
        labeling scan (in final cluster order), or ``None`` when no
        labeling happened (full-input clustering, or
        ``label_remaining=False``).  These are what
        :meth:`RockPipeline.to_model` persists so a saved model
        reproduces the run's labels exactly.
    similarity:
        The similarity function the run used (``None`` = default
        Jaccard); recorded so persistence can round-trip the
        configuration.
    backends:
        Which implementation actually ran each phase, e.g.
        ``{"fit": "native:cext", "merge": "native:cext"}`` or
        ``{"fit": "fused", "merge": "fast"}`` -- the resolved backends,
        not the requested modes, so benchmarks and model metadata can
        tell a silent fallback from the real thing.
    plan:
        The full :class:`~repro.core.plan.FitPlan` the run resolved,
        including the reason code of every fallback.
    """

    labels: np.ndarray
    clusters: list[list[int]]
    sample_indices: list[int]
    outlier_indices: list[int]
    rock_result: RockResult
    timings: dict[str, float] = field(default_factory=dict)
    labeling_sets: list[list[Any]] | None = None
    similarity: SimilarityFunction | None = None
    backends: dict[str, str] = field(default_factory=dict)
    plan: FitPlan | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]

    def clustering_seconds(self) -> float:
        """Total time excluding labeling (the Figure 5 measurement)."""
        return sum(v for k, v in self.timings.items() if k != "label")


class RockPipeline:
    """Configurable ROCK pipeline: sample, prune, cluster, weed, label.

    Parameters
    ----------
    k:
        Desired number of clusters (a hint; see paper Section 5.2).
    theta:
        Neighbor similarity threshold in [0, 1].
    similarity:
        Similarity function (default: Jaccard over transactions /
        ``A.v``-encoded categorical records).
    f:
        The ``f(theta)`` estimate (default: market-basket heuristic).
    sample_size:
        Random-sample size; ``None`` clusters the entire input.
    min_neighbors:
        Discard sampled points with fewer neighbors than this before
        clustering (0 disables the pruning).
    outlier_multiple / min_cluster_size:
        When ``min_cluster_size`` is set, clustering pauses at
        ``outlier_multiple * k`` clusters, weeds clusters smaller than
        ``min_cluster_size``, then resumes to ``k``.
    labeling_fraction:
        Fraction of each cluster used as the labeling set ``L_i``.
    goodness_fn:
        Merge-goodness strategy (ablation hook).
    memory_budget:
        Bytes of dense intermediates the fit may allocate (default
        :data:`repro.core.neighbors.DEFAULT_MEMORY_BUDGET`, 1 GiB):
        where ``auto`` without a native tier leaves the dense path for
        the fused pass, and the fused kernels' block-size bound.
    fit_mode:
        Coarse switch over the neighbor+link stage, resolved together
        with ``merge_method`` by :func:`repro.core.plan.resolve_fit_plan`
        (``PipelineResult.plan``).  ``"auto"`` (default) runs the native
        fused pass whenever a :mod:`repro.native` tier passed its probe
        and the sample is native-supported (built-in Jaccard/overlap
        over transaction-shaped points, ``theta > 0``); otherwise the
        dense reference path within ``memory_budget`` and the fused
        pass beyond it.  ``REPRO_NATIVE=0`` opts out of the native
        tier.  ``"dense"`` pins the reference oracle; ``"fused"`` runs
        the one-pass fused neighbor+link kernel (the neighbor graph is
        never materialised); ``"native"`` is the fused pass with
        :mod:`repro.native` block kernels, degrading to ``"fused"``
        with a single warning when no backend or an unsupported
        configuration rules it out.  The fused kernels take the
        pruning degrees from their one pass; when ``min_neighbors``
        drops a point with two or more neighbors, the same kernel runs
        a second pass over the kept points, since dropping a common
        neighbor changes link counts.  A forced fused-family mode over a similarity without a
        block scorer steps down to the dense path with one warning.
        All modes produce identical results (property-tested).
    workers:
        Process count for the fused kernels and the fast merge
        engine's component fan-out: an int, ``"auto"`` (CPU
        count capped at 8), or ``None`` for serial.
    merge_method:
        Engine for the Figure 3 merge phase: ``"heap"`` (the reference
        loop), ``"fast"`` (the component-partitioned array-backed
        engine of :mod:`repro.core.merge`), ``"native"`` (that engine
        with :mod:`repro.native` component kernels, degrading with one
        warning when unavailable), or ``"auto"`` (default: native when
        a :mod:`repro.native` tier passed its probe, else fast, for
        built-in goodness measures; heap for custom callables).
        Byte-identical results either way (property-tested).
    shard_block_rows / spill_dir / max_retries:
        Sharded-fit knobs (``fit_mode="sharded"``): rows per scoring
        block (default: the fused kernels' budget-aware block
        size), the crash-safe run directory (default: a temporary
        directory, no resume), and how many times a died worker pool
        is rebuilt before the remaining units run in the coordinator.
        ``fit_mode="sharded"`` requires ``min_neighbors <= 1``, no
        ``min_cluster_size`` weeding, no ``initial_clusters`` and a
        built-in goodness measure; anything else degrades to the
        fused kernel with one warning.  Results are byte-identical
        to the fused path (property-tested).
    seed:
        Seed for sampling and labeling-set draws; runs are fully
        deterministic for a fixed seed.
    """

    def __init__(
        self,
        k: int,
        theta: float,
        similarity: SimilarityFunction | None = None,
        f: Callable[[float], float] = default_f,
        sample_size: int | None = None,
        min_neighbors: int = 1,
        outlier_multiple: float = 3.0,
        min_cluster_size: int | None = None,
        labeling_fraction: float = 0.25,
        goodness_fn: GoodnessFunction = normalized_goodness,
        memory_budget: int | None = None,
        fit_mode: str = "auto",
        workers: int | str | None = None,
        merge_method: str = "auto",
        shard_block_rows: int | None = None,
        spill_dir: "str | None" = None,
        max_retries: int = 2,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        if sample_size is not None and sample_size < 1:
            raise ValueError("sample_size must be positive when given")
        if fit_mode not in FIT_MODES:
            raise ValueError(
                f"fit_mode must be one of {FIT_MODES}, got {fit_mode!r}"
            )
        if merge_method not in MERGE_METHODS:
            raise ValueError(
                f"merge_method must be one of {MERGE_METHODS}, "
                f"got {merge_method!r}"
            )
        if shard_block_rows is not None and shard_block_rows < 1:
            raise ValueError("shard_block_rows must be positive when given")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.k = k
        self.theta = theta
        self.similarity = similarity
        self.f = f
        self.sample_size = sample_size
        self.min_neighbors = min_neighbors
        self.outlier_multiple = outlier_multiple
        self.min_cluster_size = min_cluster_size
        self.labeling_fraction = labeling_fraction
        self.goodness_fn = goodness_fn
        self.memory_budget = memory_budget
        self.fit_mode = fit_mode
        self.workers = workers
        self.merge_method = merge_method
        self.shard_block_rows = shard_block_rows
        self.spill_dir = spill_dir
        self.max_retries = max_retries
        self.seed = seed

    def fit(
        self,
        points: Any,
        label_remaining: bool = True,
        tracer: Tracer | None = None,
        initial_clusters: Sequence[Sequence[int]] | None = None,
    ) -> PipelineResult:
        """Run the pipeline over an in-memory point collection.

        ``points`` may be a :class:`TransactionDataset`, a
        :class:`CategoricalDataset`, or any sequence accepted by the
        similarity function.  When ``label_remaining`` is False the
        non-sampled points keep the label -1 (used by the Figure 5
        scalability bench, which excludes labeling).

        ``tracer`` is an optional :class:`~repro.obs.trace.Tracer`.
        Every fit mode records one root ``fit`` span with a child span
        per phase (``sample`` / ``neighbors`` / ``links`` / ``cluster``
        / ``label``); the root carries the resolved backends and the
        plan's fallback reasons, each of which is also counted as
        ``fit.fallback.<reason>``.  The kernels record counters and histograms
        into ``tracer.registry`` -- the fused kernels merge worker-side
        metric deltas back through the process pool, so the trace
        survives multiprocessing.  Phase timings land in
        ``PipelineResult.timings`` either way (they are read off the
        spans), so passing a tracer changes observability only, never
        results.

        ``initial_clusters`` is the resume seam used by streaming
        refits: a starting partition over the *input* points (indices
        into ``points``), as produced e.g. by labeling the sample
        against an earlier model.  Merging starts from that partition
        instead of singletons, exactly as
        :func:`~repro.core.rock.cluster_with_links` resumes (the
        outlier-weeding pause already relies on the same machinery).
        Members that fall outside the drawn sample or are pruned as
        isolated points drop out of their cluster; kept points not
        covered by any initial cluster start as singletons.
        """
        tracer = tracer if tracer is not None else Tracer()
        rng = random.Random(self.seed)
        n_total = len(points)
        if n_total == 0:
            raise ValueError("cannot cluster an empty dataset")
        workers = self.workers
        with tracer.span(
            "fit",
            n_points=n_total,
            fit_mode=self.fit_mode,
            k=self.k,
            theta=self.theta,
            workers=workers,
            merge_method=self.merge_method,
            resumed=initial_clusters is not None,
        ) as root_span:
            return self._fit_phases(
                points, n_total, label_remaining, rng, tracer,
                initial_clusters, root_span,
            )

    def _fit_phases(
        self,
        points: Any,
        n_total: int,
        label_remaining: bool,
        rng: random.Random,
        tracer: Tracer,
        initial_clusters: Sequence[Sequence[int]] | None = None,
        root_span: Any | None = None,
    ) -> PipelineResult:
        registry = tracer.registry
        timings: dict[str, float] = {}

        # -- 1. draw random sample ----------------------------------------
        with tracer.span("sample") as span:
            if self.sample_size is not None and self.sample_size < n_total:
                sampled = sample_indices(n_total, self.sample_size, rng=rng)
            else:
                sampled = list(range(n_total))
            sample_points = subset_points(points, sampled)
            registry.set_gauge("fit.n_points", n_total)
            registry.set_gauge("fit.n_sampled", len(sampled))
        timings["sample"] = span.wall_seconds

        # -- 2 + 3. neighbors, isolated-point pruning, links ---------------
        # one plan for the whole fit: the weeding pause calls
        # cluster_with_links twice with the already-resolved engine, so
        # a forced-but-unavailable mode warns exactly once
        min_neighbors = max(self.min_neighbors, 0)
        plan = resolve_fit_plan(
            sample_points, self.similarity, self.theta, min_neighbors,
            self.fit_mode, self.merge_method, self.goodness_fn,
            memory_budget=self.memory_budget,
            weeding=self.min_cluster_size is not None,
            resumed=initial_clusters is not None,
        )
        plan.record(registry, root_span)
        if plan.fit == "sharded":
            # the coordinator covers phases 2-4 in one go
            from repro.shard.coordinator import shard_fit

            sharded = shard_fit(
                sample_points,
                k=self.k,
                theta=self.theta,
                f_theta=self.f(self.theta),
                similarity=self.similarity,
                goodness_fn=self.goodness_fn,
                min_neighbors=min_neighbors,
                workers=self.workers,
                block_rows=self.shard_block_rows,
                spill_dir=self.spill_dir,
                max_retries=self.max_retries,
                memory_budget=self.memory_budget,
                tracer=tracer,
            )
            kept, discarded = sharded.kept, sharded.discarded
            require_kept(kept, discarded)
            result = sharded.result
            for phase in ("neighbors", "links", "cluster"):
                timings[phase] = sharded.timings.get(phase, 0.0)
        else:
            links, kept, discarded = plan.neighbors_and_links(
                sample_points, self.theta, self.similarity, min_neighbors,
                self.workers, self.memory_budget, tracer, timings,
            )
        outlier_sample_positions = list(discarded)
        backends = plan.backends

        # -- 4. cluster (with optional pause-and-weed) ----------------------
        # (a sharded fit already clustered inside the coordinator)
        if plan.fit != "sharded":
            starting_partition = (
                None
                if initial_clusters is None
                else _map_initial_clusters(
                    initial_clusters, sampled, kept, n_total
                )
            )
            with tracer.span(
                "cluster", k=self.k, merge_method=plan.merge
            ) as span:
                f_theta = self.f(self.theta)
                merge_kwargs = dict(
                    f_theta=f_theta, goodness_fn=self.goodness_fn,
                    merge_method=plan.merge, workers=self.workers,
                    registry=registry,
                )
                if self.min_cluster_size is not None:
                    pause_at = weeding_stop_count(
                        self.k, self.outlier_multiple
                    )
                    first = cluster_with_links(
                        links, k=pause_at,
                        initial_clusters=starting_partition, **merge_kwargs,
                    )
                    # both passes merge: count the pre-weeding merges too
                    registry.inc("fit.cluster.merges", len(first.merges))
                    survivors, weeded = weed_small_clusters(
                        first.clusters, self.min_cluster_size
                    )
                    outlier_sample_positions.extend(
                        int(kept[p]) for p in weeded
                    )
                    if not survivors:
                        raise ValueError(
                            "outlier weeding removed every cluster; lower "
                            "min_cluster_size"
                        )
                    starting_partition = survivors
                result = cluster_with_links(
                    links, k=self.k, initial_clusters=starting_partition,
                    **merge_kwargs,
                )
                registry.inc("fit.cluster.merges", len(result.merges))
            timings["cluster"] = span.wall_seconds

        # translate pruned-graph indices -> original dataset indices
        clusters_original: list[list[int]] = [
            sorted(int(sampled[int(kept[p])]) for p in cluster)
            for cluster in result.clusters
        ]
        outlier_indices = sorted(int(sampled[p]) for p in outlier_sample_positions)
        registry.set_gauge("fit.n_sample_outliers", len(outlier_indices))

        # -- 5. label remaining data ----------------------------------------
        labeled = label_remaining and len(sampled) < n_total
        n_clusters = len(clusters_original)
        with tracer.span("label", enabled=labeled) as span:
            labeling_sets: list[list[Any]] | None = None
            if labeled:
                point_list = list(points)
                # drawn in merge order, which fixes the rng draw sequence
                labeling_sets = draw_labeling_sets(
                    clusters_original,
                    point_list,
                    fraction=self.labeling_fraction,
                    rng=rng,
                )
                todo = rest = np.setdiff1d(np.arange(n_total), sampled)
                f_theta = self.f(self.theta)
                tier, kernels = resolve_assign_backend("auto")
            # label with clusters already in final (size) order, so ties
            # break as in the saved model; relabel while tied points
            # reorder the sizes.  Each round moves points only toward
            # clusters sorted ahead, raising the sorted sizes' prefix
            # sums, so the loop ends.
            labels = labels_from_clusters(clusters_original, n_total)
            order = _size_order(labels, n_clusters)
            relabels = 0
            while True:
                rank = np.argsort(order)  # rank[c]: new position of c
                if labeled and relabels:
                    # a point can move only when its score ties with a
                    # cluster that now sorts ahead of its own
                    later = np.minimum.accumulate(rank[::-1])[::-1]
                    overtaken = np.append(later[1:], n_clusters) < rank
                    owners = labels[rest]
                    todo = rest[(owners >= 0) & overtaken[owners]]
                labels = np.where(labels >= 0, rank[labels], -1)
                if labeled:
                    labeling_sets = [labeling_sets[c] for c in order]
                    fast_index = build_assignment_index(
                        labeling_sets, self.theta, f_theta, self.similarity
                    )
                    todo_points = [point_list[i] for i in todo]
                    if fast_index is not None:
                        labels[todo] = fast_index.assign(
                            todo_points, kernels=kernels
                        )
                    else:
                        tier = "fallback"
                        labels[todo] = ClusterLabeler(
                            labeling_sets, self.theta, self.similarity, self.f
                        ).assign_all(todo_points)
                order = _size_order(labels, n_clusters)
                if (order == np.arange(n_clusters)).all():
                    break
                relabels += 1
            if labeled:
                span.attrs.update(assign_backend=tier, relabel_rounds=relabels)
                registry.inc("fit.labeled_points", len(rest))
                registry.inc("fit.label.relabel_rounds", relabels)
        timings["label"] = span.wall_seconds

        full_clusters: list[list[int]] = [[] for _ in range(n_clusters)]
        for index, label in enumerate(labels.tolist()):
            if label >= 0:
                full_clusters[label].append(index)

        registry.set_gauge("fit.n_clusters", len(full_clusters))
        registry.set_gauge("fit.n_unassigned", int((labels == -1).sum()))
        return PipelineResult(
            labels=labels,
            clusters=full_clusters,
            sample_indices=list(map(int, sampled)),
            outlier_indices=outlier_indices,
            rock_result=result,
            timings=timings,
            labeling_sets=labeling_sets,
            similarity=self.similarity,
            backends=backends,
            plan=plan,
        )

    def to_model(self, result: PipelineResult, points: Any | None = None):
        """Package a finished run as a servable :class:`~repro.serve.RockModel`.

        Uses the labeling sets the run actually assigned with, so model
        assignments reproduce the run's labels exactly.  For runs that
        never labeled (no sampling, or ``label_remaining=False``) fresh
        labeling sets are drawn from the final clusters, which requires
        the original ``points``.
        """
        from repro.serve.model import model_from_result

        return model_from_result(self, result, points)

    def fit_model(
        self,
        points: Any,
        label_remaining: bool = True,
        tracer: Tracer | None = None,
    ):
        """Fit and package in one call: ``(PipelineResult, RockModel)``."""
        result = self.fit(
            points, label_remaining=label_remaining, tracer=tracer
        )
        return result, self.to_model(result, points)


def _map_initial_clusters(
    initial_clusters: Sequence[Sequence[int]],
    sampled: Sequence[int],
    kept: Sequence[int],
    n_total: int,
) -> list[list[int]]:
    """Translate an input-space starting partition into pruned-sample space.

    ``initial_clusters`` index the original input points; the merge loop
    operates on positions within the pruned sample.  Members outside the
    sample or pruned as isolated points are dropped (their cluster
    shrinks), emptied clusters disappear, and kept points not covered by
    any cluster are appended as singletons so the partition always
    covers the pruned sample exactly.
    """
    sample_pos = {int(orig): pos for pos, orig in enumerate(sampled)}
    kept_pos = {int(orig): pos for pos, orig in enumerate(kept)}
    mapped: list[list[int]] = []
    covered: set[int] = set()
    for cluster in initial_clusters:
        members: list[int] = []
        for p in cluster:
            p = int(p)
            if not 0 <= p < n_total:
                raise ValueError(
                    f"initial cluster member {p} outside [0, {n_total})"
                )
            sp = sample_pos.get(p)
            if sp is None:
                continue
            kp = kept_pos.get(sp)
            if kp is None:
                continue
            if kp in covered:
                raise ValueError(
                    f"point {p} appears in multiple initial clusters"
                )
            covered.add(kp)
            members.append(kp)
        if members:
            mapped.append(sorted(members))
    mapped.extend([pos] for pos in range(len(kept)) if pos not in covered)
    return mapped


def _size_order(labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """Cluster ids by decreasing size, ties by their smallest member."""
    members = np.flatnonzero(labels >= 0)
    owners = labels[members]
    sizes = np.bincount(owners, minlength=n_clusters)
    first = np.full(n_clusters, labels.size, dtype=np.int64)
    np.minimum.at(first, owners, members)
    return np.lexsort((first, -sizes))

