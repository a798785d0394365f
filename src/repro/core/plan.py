"""The fit plan: which neighbor/link path and merge engine a fit runs.

:func:`resolve_fit_plan` is the one place that turns the user-facing
switches (``fit_mode``, ``merge_method``) plus the input's shape into
the kernels that actually run, and records *why* whenever it had to
step down from the requested or preferred path.
:func:`repro.core.rock.rock` and
:meth:`repro.core.pipeline.RockPipeline.fit` both consume it, and both
run the resolved plan's neighbor -> prune -> link stage through
:meth:`FitPlan.neighbors_and_links`, so every front end
(``RockClusterer``, ``StreamClusterer``, the CLI) runs the same kernels
for the same configuration.

There is one production neighbor+link kernel, the fused pass (Section
4.4's neighbor lists reduced straight to Figure 4 pair counts, the
neighbor graph never materialised), in two tiers: ``native`` block
kernels from :mod:`repro.native`, and the scipy/numpy ``fused`` pass
of :func:`repro.parallel.links.fused_neighbor_links`.  The dense
similarity matrix + adjacency square is the reference oracle
(``fit_mode="dense"``), and the path for similarities without a block
scorer.

The ``auto`` policy: the native fused pass plus the native merge engine
wherever a :mod:`repro.native` tier passed its probe and the
configuration is native-supported (built-in Jaccard/overlap similarity
over transaction-shaped points, ``theta > 0``, unweighted links).
Otherwise, for inputs with a block scorer, the dense path while the
dense similarity matrix fits ``memory_budget`` and the fused pass
beyond it; inputs without one always take the dense path.  Every path
is bit-identical to the dense reference, so the plan changes speed and
memory, never results.

Each reason the plan degrades becomes a short code in
:attr:`FitPlan.fallbacks` (``no_backend``, ``theta_le_0``,
``custom_similarity``, ``categorical_overlap``, ``not_transactions``,
``weighted_links``, ``custom_goodness``, and for the sharded path
``min_neighbors``, ``weeding``, ``resume``, ``no_store_encoding``),
which :meth:`FitPlan.record` turns into ``fit.fallback.<code>``
counters.  Forced modes that cannot run additionally warn once;
``auto`` stays silent.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

# The coarse fit-path switch threaded through rock(), RockPipeline and
# the CLI.  "auto" is the policy above; "dense" pins the reference
# oracle, "fused" / "native" force the fused kernel's two tiers, and
# "sharded" the out-of-core coordinator of repro.shard.  All modes
# produce identical results.
FIT_MODES = ("auto", "dense", "fused", "native", "sharded")


@dataclass(frozen=True)
class FitPlan:
    """The resolved plan of one fit.

    Attributes
    ----------
    fit:
        The neighbor+link path: ``"native"`` / ``"fused"`` (one fused
        pass, the neighbor graph never exists), ``"dense"`` (dense
        similarity matrix, neighbor graph, then link table),
        ``"weighted"`` (the similarity-weighted link variant) or
        ``"sharded"`` (the out-of-core coordinator, which also runs the
        merge).
    merge:
        The merge engine: ``"heap"``, ``"fast"`` or ``"native"``.
    native_backend:
        The probed :mod:`repro.native` tier when ``fit`` or ``merge``
        is native, else ``None``.
    fallbacks:
        Short reason codes, one per distinct degradation cause, in
        resolution order.
    """

    fit: str
    merge: str
    native_backend: str | None = None
    fallbacks: tuple[str, ...] = ()

    @property
    def fused(self) -> bool:
        return self.fit in ("fused", "native")

    @property
    def backends(self) -> dict[str, str]:
        """Which implementation runs each phase, e.g. ``{"fit": "native:cext"}``."""
        if self.fit == "sharded":
            # the coordinator's workers run the component streams; the
            # stitch is the fast engine's k-way replay
            return {"fit": "sharded", "merge": "fast"}
        fit = (
            f"native:{self.native_backend}" if self.fit == "native" else self.fit
        )
        merge = (
            f"native:{self.native_backend}"
            if self.merge == "native" else self.merge
        )
        return {"fit": fit, "merge": merge}

    def record(self, registry: Any, span: Any | None = None) -> None:
        """Publish the plan: fallback counters, backend gauges, span attrs."""
        for reason in self.fallbacks:
            registry.inc(f"fit.fallback.{reason}")
        backends = self.backends
        registry.set_gauge(
            "fit.backend.native_fit", int(backends["fit"].startswith("native"))
        )
        registry.set_gauge(
            "fit.backend.native_merge",
            int(backends["merge"].startswith("native")),
        )
        if span is not None:
            span.attrs["fit_backend"] = backends["fit"]
            span.attrs["merge_backend"] = backends["merge"]
            span.attrs["fallbacks"] = list(self.fallbacks)

    def fused_pass(
        self,
        points: Any,
        theta: float,
        similarity: Any,
        workers: int | str | None,
        memory_budget: int | None,
        registry: Any,
    ) -> Any:
        """Run the fused neighbor+link pass (``fit`` native or fused)."""
        if self.fit == "native":
            from repro.native.links import native_neighbor_links as run
        else:
            from repro.parallel.links import fused_neighbor_links as run
        return run(
            points, theta, similarity=similarity, workers=workers,
            memory_budget=memory_budget, registry=registry,
        )

    def neighbors_and_links(
        self,
        points: Any,
        theta: float,
        similarity: Any,
        min_neighbors: int,
        workers: int | str | None,
        memory_budget: int | None,
        tracer: Any,
        timings: dict[str, float] | None = None,
    ) -> tuple[Any, np.ndarray, np.ndarray]:
        """Neighbors, the §4.6 pruning, links: ``(links, kept, discarded)``.

        Points with fewer than ``min_neighbors`` neighbors are
        discarded; ``links`` covers the kept points only, reindexed to
        their positions in ``kept``, and equals
        ``compute_links(graph.subgraph(kept))`` on every unweighted
        path.  The
        fused kernels take the degrees from their one pass.  A point
        is a common neighbor of some pair only when it has at least two
        neighbors, so dropping points of degree 0 or 1 removes no pair
        increment among the kept points and that pass's table is
        subset; dropping a point of degree >= 2 removes its neighbors'
        common-neighbor credit, so the same kernel runs a second pass
        over the kept points.  Records ``neighbors`` /
        ``links`` spans on ``tracer`` (and their wall seconds in
        ``timings`` when given).
        """
        from repro.core.links import LinkTable, compute_links, weighted_link_matrix
        from repro.core.neighbors import (
            NeighborGraph,
            adjacency_from_similarity_matrix,
            similarity_matrix,
        )

        registry = tracer.registry
        with tracer.span("neighbors", n=len(points), fit=self.fit) as span:
            if self.fused:
                fused = self.fused_pass(
                    points, theta, similarity, workers, memory_budget, registry
                )
                degrees = fused.degrees
            else:
                sim = similarity_matrix(points, similarity)
                graph = NeighborGraph(
                    adjacency_from_similarity_matrix(sim, theta), theta=theta
                )
                degrees = graph.degrees()
            kept = np.flatnonzero(degrees >= min_neighbors)
            discarded = np.flatnonzero(degrees < min_neighbors)
            require_kept(kept, discarded)
        if timings is not None:
            timings["neighbors"] = span.wall_seconds

        whole = len(discarded) == 0
        repass = self.fused and bool((degrees[discarded] >= 2).any())
        with tracer.span("links", fit=self.fit, second_pass=repass) as span:
            if repass:
                links = self.fused_pass(
                    subset_points(points, kept), theta, similarity, workers,
                    memory_budget, registry,
                ).links
            elif self.fused:
                links = fused.links if whole else fused.links.subset(kept)
            elif self.fit == "weighted":
                # only rock() resolves it, with min_neighbors=0: whole
                links = LinkTable.from_dense(weighted_link_matrix(graph, sim))
            else:
                links = compute_links(graph if whole else graph.subgraph(kept))
            registry.inc("fit.links.pairs", links.nnz_pairs())
        if timings is not None:
            timings["links"] = span.wall_seconds
        return links, kept, discarded


def require_kept(kept: np.ndarray, discarded: np.ndarray) -> None:
    """Refuse a pruning that discarded every point."""
    if len(kept) == 0 and len(discarded):
        raise ValueError(
            "every sampled point was pruned as an outlier; lower "
            "theta or min_neighbors"
        )


def subset_points(points: Any, indices: Sequence[int]) -> Any:
    """``points`` restricted to ``indices``, in the same container kind."""
    from repro.data.records import CategoricalDataset
    from repro.data.transactions import TransactionDataset

    if isinstance(points, (TransactionDataset, CategoricalDataset)):
        return points.subset(indices)
    return [points[i] for i in indices]


def resolve_fit_plan(
    points: Any,
    similarity: Any,
    theta: float,
    min_neighbors: int = 0,
    fit_mode: str = "auto",
    merge_method: str = "auto",
    goodness_fn: Any = None,
    weighted_links: bool = False,
    memory_budget: int | None = None,
    weeding: bool = False,
    resumed: bool = False,
) -> FitPlan:
    """Resolve the neighbor/link path and merge engine of one fit.

    ``points`` / ``similarity`` / ``theta`` / ``min_neighbors`` are the
    fit's input (for the pipeline: the drawn sample and its pruning
    threshold); ``goodness_fn`` ``None`` means the built-in normalised
    goodness.  ``memory_budget`` (default
    :data:`~repro.core.neighbors.DEFAULT_MEMORY_BUDGET`) is where
    ``auto`` without a native tier leaves the dense path for the fused
    pass.  ``weeding`` (the outlier-weeding pause), ``resumed`` (a
    starting partition) and ``min_neighbors > 1`` only matter to the
    sharded path, whose coordinator cannot pause, resume or re-prune.
    """
    from repro.core.goodness import goodness as normalized_goodness
    from repro.core.merge import _merge_choice
    from repro.core.neighbors import (
        DEFAULT_MEMORY_BUDGET,
        dense_similarity_bytes,
        supports_blocked,
    )

    if fit_mode not in FIT_MODES:
        raise ValueError(
            f"fit_mode must be one of {FIT_MODES}, got {fit_mode!r}"
        )
    if goodness_fn is None:
        goodness_fn = normalized_goodness
    merge, reason = _merge_choice(merge_method, goodness_fn)
    fallbacks: list[str] = []

    def note(code: str | None) -> None:
        # one entry per distinct reason: "no_backend" degrading both
        # the fit and the merge is one cause, counted once
        if code is not None and code not in fallbacks:
            fallbacks.append(code)

    note(reason)

    def plan(fit: str) -> FitPlan:
        native_backend = None
        if fit == "native" or merge == "native":
            from repro.native import available_backend

            native_backend = available_backend()
        return FitPlan(
            fit=fit, merge=merge, native_backend=native_backend,
            fallbacks=tuple(fallbacks),
        )

    def degrade(code: str, message: str) -> None:
        note(code)
        warnings.warn(message, RuntimeWarning, stacklevel=4)

    if (
        fit_mode in ("fused", "native", "sharded")
        and not weighted_links
        and not supports_blocked(points, similarity)
    ):
        # every fused-family kernel scores through a block scorer
        degrade(
            "custom_similarity",
            f"fit_mode={fit_mode!r} unavailable (no block scorer for "
            f"{type(similarity).__name__} over these points); falling "
            "back to the dense path",
        )
        return plan("dense")
    if fit_mode == "sharded":
        blocker = _shard_blocker(
            points, similarity, goodness_fn, min_neighbors, weighted_links,
            weeding, resumed,
        )
        if blocker is None:
            return plan("sharded")
        degrade(
            blocker[0],
            f"fit_mode='sharded' unavailable ({blocker[1]}); "
            "falling back to the fused kernel",
        )
        fit_mode = "fused"
    if weighted_links:
        # the weighted variant needs the dense similarity matrix itself
        if fit_mode in ("auto", "native", "fused"):
            note("weighted_links")
        return plan("weighted")
    if fit_mode == "dense":
        return plan("dense")
    if fit_mode in ("auto", "native"):
        from repro.native.links import native_fit_blocker

        blocker = native_fit_blocker(points, theta, similarity)
        if blocker is None:
            return plan("native")
        if fit_mode == "native":
            degrade(
                blocker[0],
                f"fit_mode='native' unavailable ({blocker[1]}); "
                "falling back to the fused kernel",
            )
            return plan("fused")
        note(blocker[0])
        budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
        if (
            supports_blocked(points, similarity)
            and dense_similarity_bytes(len(points)) > budget
        ):
            return plan("fused")
        return plan("dense")
    return plan("fused")


def _shard_blocker(
    points: Any,
    similarity: Any,
    goodness_fn: Any,
    min_neighbors: int,
    weighted_links: bool,
    weeding: bool,
    resumed: bool,
) -> tuple[str, str] | None:
    if weighted_links:
        return (
            "weighted_links",
            "weighted links need the dense similarity matrix",
        )
    if min_neighbors > 1:
        return "min_neighbors", "min_neighbors <= 1 required"
    if weeding:
        return "weeding", "outlier weeding pauses the merge loop"
    if resumed:
        return "resume", "resume from initial_clusters"
    from repro.shard.coordinator import shard_blocker

    return shard_blocker(points, similarity, goodness_fn)
