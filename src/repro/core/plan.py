"""The fit plan: which neighbor/link path and merge engine a fit runs.

:func:`resolve_fit_plan` is the one place that turns the user-facing
switches (``fit_mode``, ``merge_method``, ``neighbor_method`` /
``link_method``) plus the input's shape into the kernels that actually
run, and records *why* whenever it had to step down from the requested
or preferred path.  :func:`repro.core.rock.rock` and
:meth:`repro.core.pipeline.RockPipeline.fit` both consume it, so every
front end (``RockClusterer``, ``StreamClusterer``, the CLI) resolves
the same plan for the same configuration.

The ``auto`` policy: the native fused neighbor+link pass plus the
native merge engine wherever a :mod:`repro.native` tier passed its
probe and the configuration is native-supported (built-in
Jaccard/overlap similarity over transaction-shaped points, ``theta >
0``, unweighted links, ``min_neighbors <= 1``); everywhere else the
dense/blocked rule of :func:`~repro.core.neighbors.compute_neighbor_graph`
and :func:`~repro.core.links.compute_links`.  Every path is
bit-identical to the dense reference, so the plan changes speed and
memory, never results.

Each reason the plan degrades becomes a short code in
:attr:`FitPlan.fallbacks` (``no_backend``, ``theta_le_0``,
``custom_similarity``, ``categorical_overlap``, ``not_transactions``,
``weighted_links``, ``min_neighbors``, ``custom_goodness``, and for the
sharded path ``weeding``, ``resume``, ``no_store_encoding``), which
:meth:`FitPlan.record` turns into ``fit.fallback.<code>`` counters.
Forced modes that cannot run additionally warn once; ``auto`` stays
silent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any

# The coarse fit-path switch threaded through rock(), RockPipeline and
# the CLI.  "auto" is the policy above; the explicit modes force one of
# the kernels end to end ("native" is the fused kernel with
# repro.native block scoring, "sharded" the out-of-core coordinator of
# repro.shard).  All modes produce identical results.
FIT_MODES = ("auto", "dense", "blocked", "parallel", "fused", "native", "sharded")


def resolve_fit_mode(fit_mode: str) -> tuple[str, str]:
    """Map a fit mode to its ``(neighbor_method, link_method)`` pair.

    ``fused``, ``native`` and ``sharded`` are not expressible as method
    pairs -- :func:`resolve_fit_plan` routes them to their own kernels
    -- but mapping them to the parallel pair keeps a single safe
    fallback for configurations that cannot fuse.
    """
    if fit_mode not in FIT_MODES:
        raise ValueError(
            f"fit_mode must be one of {FIT_MODES}, got {fit_mode!r}"
        )
    return {
        "auto": ("auto", "auto"),
        "dense": ("vectorized", "auto"),
        "blocked": ("blocked", "auto"),
        "parallel": ("parallel", "parallel"),
        "fused": ("parallel", "parallel"),
        "native": ("parallel", "parallel"),
        "sharded": ("parallel", "parallel"),
    }[fit_mode]


@dataclass(frozen=True)
class FitPlan:
    """The resolved plan of one fit.

    Attributes
    ----------
    fit:
        The neighbor+link path: ``"native"`` / ``"fused"`` (one fused
        pass, the neighbor graph never exists), ``"graph"`` (neighbor
        graph then link table via ``neighbor_method`` /
        ``link_method``), ``"weighted"`` (the similarity-weighted link
        variant) or ``"sharded"`` (the out-of-core coordinator, which
        also runs the merge).
    merge:
        The merge engine: ``"heap"``, ``"fast"`` or ``"native"``.
    neighbor_method / link_method:
        The :func:`~repro.core.neighbors.compute_neighbor_graph` /
        :func:`~repro.core.links.compute_links` methods of the graph
        path.
    native_backend:
        The probed :mod:`repro.native` tier when ``fit`` or ``merge``
        is native, else ``None``.
    fallbacks:
        Short reason codes, one per distinct degradation cause, in
        resolution order.
    """

    fit: str
    merge: str
    neighbor_method: str = "auto"
    link_method: str = "auto"
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
        fit = {
            "native": f"native:{self.native_backend}",
            "graph": self.neighbor_method,
        }.get(self.fit, self.fit)
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


def resolve_fit_plan(
    points: Any,
    similarity: Any,
    theta: float,
    min_neighbors: int = 0,
    fit_mode: str = "auto",
    merge_method: str = "auto",
    goodness_fn: Any = None,
    weighted_links: bool = False,
    neighbor_method: str = "auto",
    link_method: str = "auto",
    weeding: bool = False,
    resumed: bool = False,
) -> FitPlan:
    """Resolve the neighbor/link path and merge engine of one fit.

    ``points`` / ``similarity`` / ``theta`` / ``min_neighbors`` are the
    fit's input (for the pipeline: the drawn sample and its pruning
    threshold); ``goodness_fn`` ``None`` means the built-in normalised
    goodness.  ``weeding`` (the outlier-weeding pause) and ``resumed``
    (a starting partition) only matter to the sharded path, whose
    coordinator cannot pause or resume.  ``neighbor_method`` /
    ``link_method`` other than ``"auto"`` pin the graph path under
    ``fit_mode="auto"`` (no promotion, no fallback).
    """
    from repro.core.goodness import goodness as normalized_goodness
    from repro.core.merge import _merge_choice

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

    def plan(fit: str, methods: tuple[str, str] = ("auto", "auto")) -> FitPlan:
        native_backend = None
        if fit == "native" or merge == "native":
            from repro.native import available_backend

            native_backend = available_backend()
        return FitPlan(
            fit=fit, merge=merge, neighbor_method=methods[0],
            link_method=methods[1], native_backend=native_backend,
            fallbacks=tuple(fallbacks),
        )

    def degrade(code: str, message: str) -> None:
        note(code)
        warnings.warn(message, RuntimeWarning, stacklevel=4)

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
            "falling back to the parallel kernels",
        )
        fit_mode = "parallel"
    if weighted_links:
        # the weighted variant needs the dense similarity matrix itself
        if fit_mode in ("auto", "native", "fused"):
            note("weighted_links")
        return plan("weighted")
    if fit_mode == "auto" and (neighbor_method, link_method) != ("auto", "auto"):
        return plan("graph", (neighbor_method, link_method))
    if min_neighbors > 1 and fit_mode in ("auto", "native", "fused"):
        # pruning points of positive degree changes link counts, so the
        # fused pass's exact subset shortcut no longer applies
        if fit_mode == "native":
            degrade(
                "min_neighbors",
                "fit_mode='native' requires min_neighbors <= 1; falling "
                "back to the parallel kernels",
            )
        else:
            note("min_neighbors")
        return plan("graph", resolve_fit_mode(fit_mode))
    if fit_mode in ("auto", "native"):
        from repro.native.links import native_fit_blocker

        blocker = native_fit_blocker(points, theta, similarity)
        if blocker is None:
            return plan("native")
        if fit_mode == "auto":
            note(blocker[0])
            return plan("graph")
        degrade(
            blocker[0],
            f"fit_mode='native' unavailable ({blocker[1]}); "
            "falling back to the fused kernel",
        )
        fit_mode = "fused"
    if fit_mode == "fused":
        return plan("fused")
    return plan("graph", resolve_fit_mode(fit_mode))


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
