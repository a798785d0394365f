"""The ROCK agglomerative clustering loop (Section 4.3, Figure 3).

Given the link table over ``n`` points, the algorithm repeatedly merges
the pair of clusters with the highest goodness measure until ``k``
clusters remain, or until no pair of remaining clusters has any links
("it also stops clustering if the number of links between every pair of
the remaining clusters becomes zero" -- this is how the mushroom
experiment ends with 21 clusters when 20 were requested).

The bookkeeping matches Figure 3: a local heap ``q[i]`` per cluster
holding every cluster with a positive cross-link count ordered by
goodness, and a global heap ``Q`` of clusters ordered by each cluster's
best goodness.  On merging ``u`` and ``v`` into ``w``,
``link[x, w] = link[x, u] + link[x, v]`` for every ``x`` linked to
either parent, and the affected heaps are repaired.

The goodness measure is pluggable so the normalisation ablation (the
naive cross-link count of Section 4.2's cautionary paragraph) can reuse
the identical merge machinery.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.goodness import default_f, goodness as normalized_goodness
from repro.core.heaps import AddressableMaxHeap
from repro.core.labeling import labels_from_clusters
from repro.core.links import LinkTable, compute_links
from repro.core.neighbors import compute_neighbor_graph
from repro.core.plan import (
    FIT_MODES as FIT_MODES,
    FitPlan,
    resolve_fit_mode as resolve_fit_mode,
    resolve_fit_plan,
)
from repro.core.similarity import SimilarityFunction

if TYPE_CHECKING:  # deferred: repro.obs must stay import-light here
    from repro.obs.trace import Tracer

GoodnessFunction = Callable[[int, int, int, float], float]
_NEG_INF = float("-inf")


@dataclass(frozen=True)
class MergeStep:
    """One merge of the agglomeration: clusters ``left`` + ``right`` -> ``merged``."""

    left: int
    right: int
    merged: int
    goodness: float
    size: int


@dataclass
class RockResult:
    """Outcome of a ROCK clustering run.

    Attributes
    ----------
    clusters:
        Final clusters as sorted lists of point indices, ordered by
        decreasing size (ties: smallest member first).
    merges:
        The merge history, in order.
    stopped_early:
        True when merging halted because no cross-links remained before
        reaching ``k`` clusters.
    n_points:
        Number of points that were clustered.
    plan:
        The :class:`~repro.core.plan.FitPlan` that produced the result
        when it came from :func:`rock` (``None`` otherwise).  Not part
        of equality: every plan yields the same clusters and merges.
    """

    clusters: list[list[int]]
    merges: list[MergeStep] = field(default_factory=list)
    stopped_early: bool = False
    n_points: int = 0
    plan: FitPlan | None = field(default=None, compare=False, repr=False)

    def labels(self) -> np.ndarray:
        """Per-point cluster index (aligned with ``clusters`` order)."""
        return labels_from_clusters(self.clusters, self.n_points)

    def sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RockResult(k={len(self.clusters)}, n={self.n_points}, "
            f"stopped_early={self.stopped_early})"
        )


def cluster_with_links(
    links: LinkTable,
    k: int,
    f_theta: float,
    initial_clusters: Sequence[Sequence[int]] | None = None,
    goodness_fn: GoodnessFunction = normalized_goodness,
    merge_method: str = "auto",
    workers: int | str | None = None,
    registry: Any | None = None,
) -> RockResult:
    """Run the Figure 3 merge loop over a precomputed link table.

    Parameters
    ----------
    links:
        Point-pair link counts (from :func:`repro.core.links.compute_links`).
    k:
        Desired number of clusters.  Treated as a hint, exactly as in
        the paper: the run may end with more clusters when links run
        out.
    f_theta:
        The value ``f(theta)`` used by the goodness normalisation.
    initial_clusters:
        Optional starting partition (used by the outlier-weeding
        pipeline to resume clustering after small clusters are
        removed).  Defaults to singletons.  Must cover a subset of
        points disjointly; uncovered points are simply not clustered.
    goodness_fn:
        Merge-goodness strategy, ``(cross_links, ni, nj, f_theta) -> float``.
    merge_method:
        ``"heap"`` runs this module's Figure 3 reference loop;
        ``"fast"`` the component-partitioned array-backed engine of
        :mod:`repro.core.merge` (byte-identical results); ``"native"``
        that engine with :mod:`repro.native` component kernels;
        ``"auto"`` (default) picks native when a tier passed its probe,
        else fast, for the built-in goodness measures and the
        reference loop for custom callables.
    workers:
        Process count for the fast engine's per-component fan-out
        (int, ``"auto"``, or ``None`` for serial).  The heap reference
        loop is always serial.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        ``fit.cluster.*`` counters from the fast engine.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    from repro.core.merge import fast_cluster_with_links, resolve_merge_method

    resolved = resolve_merge_method(merge_method, goodness_fn, registry)
    if resolved in ("fast", "native"):
        return fast_cluster_with_links(
            links,
            k=k,
            f_theta=f_theta,
            initial_clusters=initial_clusters,
            goodness_fn=goodness_fn,
            workers=workers,
            registry=registry,
            engine=resolved,
        )
    n = links.n
    if initial_clusters is None:
        cluster_list: list[list[int]] = [[i] for i in range(n)]
    else:
        cluster_list = [sorted(int(p) for p in c) for c in initial_clusters]
        _validate_partition(cluster_list, n)

    members: dict[int, list[int]] = dict(enumerate(cluster_list))
    cross = _aggregate_cross_links(links, cluster_list)
    next_id = len(cluster_list)

    local: dict[int, AddressableMaxHeap] = {}
    for cid, row in cross.items():
        size = len(members[cid])
        local[cid] = AddressableMaxHeap.from_pairs(
            [
                (other, goodness_fn(count, size, len(members[other]), f_theta))
                for other, count in sorted(row.items())
            ]
        )

    global_heap = AddressableMaxHeap()
    for cid in members:
        global_heap.insert(cid, _best_key(local[cid]))

    merges: list[MergeStep] = []
    stopped_early = False
    while len(global_heap) > k:
        u, best = global_heap.peek()
        if best == _NEG_INF or best <= 0.0:
            # no positive-goodness merge remains anywhere; with the
            # normalised measure this happens exactly when no pair of
            # remaining clusters has links
            stopped_early = True
            break
        v, merge_goodness = local[u].peek()
        global_heap.delete(u)
        global_heap.delete(v)

        w = next_id
        next_id += 1
        # members stay unsorted during the run (only sizes matter here);
        # final clusters are sorted once at the end
        members[w] = members.pop(u) + members.pop(v)
        partners = (set(cross[u]) | set(cross[v])) - {u, v}
        cross[w] = {}
        heap_w = AddressableMaxHeap()
        for x in sorted(partners):
            count = cross[x].pop(u, 0) + cross[x].pop(v, 0)
            cross[x][w] = count
            cross[w][x] = count
            heap_x = local[x]
            if u in heap_x:
                heap_x.delete(u)
            if v in heap_x:
                heap_x.delete(v)
            g = goodness_fn(count, len(members[x]), len(members[w]), f_theta)
            heap_x.insert(w, g)
            heap_w.insert(x, g)
            global_heap.update(x, _best_key(heap_x))
        del cross[u], cross[v], local[u], local[v]
        local[w] = heap_w
        global_heap.insert(w, _best_key(heap_w))
        merges.append(
            MergeStep(left=u, right=v, merged=w, goodness=merge_goodness, size=len(members[w]))
        )

    final = [sorted(c) for c in members.values()]
    final.sort(key=lambda c: (-len(c), c[0] if c else -1))
    return RockResult(
        clusters=final,
        merges=merges,
        stopped_early=stopped_early,
        n_points=n,
    )


def rock(
    points: Any,
    k: int,
    theta: float,
    similarity: SimilarityFunction | None = None,
    f: Callable[[float], float] = default_f,
    goodness_fn: GoodnessFunction = normalized_goodness,
    link_method: str = "auto",
    neighbor_method: str = "auto",
    weighted_links: bool = False,
    memory_budget: int | None = None,
    fit_mode: str = "auto",
    workers: int | str | None = None,
    merge_method: str = "auto",
    shard_block_rows: int | None = None,
    spill_dir: "str | None" = None,
    max_retries: int = 2,
    tracer: "Tracer | None" = None,
) -> RockResult:
    """Convenience end-to-end run on in-memory points (no sampling/labeling).

    Computes the neighbor graph at threshold ``theta``, the link table,
    and runs the merge loop to ``k`` clusters.  ``weighted_links``
    switches to the similarity-weighted link variant of
    :func:`repro.core.links.weighted_link_matrix` (a Section 3.2
    "alternative definition"; see ablation A7).

    ``fit_mode`` is the coarse switch over the whole neighbor+link
    stage, resolved together with ``merge_method`` by
    :func:`repro.core.plan.resolve_fit_plan` (the resolved plan is
    ``result.plan``).  ``"auto"`` (default) runs the native fused
    neighbor+link pass whenever a :mod:`repro.native` tier passed its
    probe and the input is native-supported (built-in Jaccard/overlap
    over transaction-shaped points, ``theta > 0``, unweighted links);
    otherwise it defers to ``neighbor_method`` / ``link_method``, whose
    ``"auto"`` picks the memory-bounded blocked kernel when the dense
    similarity matrix would exceed ``memory_budget``.  Explicit
    ``neighbor_method`` / ``link_method`` values pin that graph path.
    ``"dense"`` / ``"blocked"`` / ``"parallel"`` force those kernels;
    ``"fused"`` runs the one-pass fused neighbor+link kernel of
    :func:`repro.parallel.links.fused_neighbor_links` (never
    materialising the neighbor graph); ``"native"`` is the fused pass
    with :mod:`repro.native` block kernels, degrading to ``"fused"``
    with one warning when unsupported; ``"sharded"`` runs the
    out-of-core coordinator of :mod:`repro.shard` (memory-mapped
    store, per-block workers, component-wise merge), honouring
    ``shard_block_rows`` / ``spill_dir`` / ``max_retries`` and
    degrading to the parallel kernels with one warning when the
    input cannot be store-encoded.  ``workers`` (int, ``"auto"``,
    or ``None`` for serial) sets the process count for the parallel
    and fused kernels.  Every mode yields identical clusters.  For the
    full sample -> prune -> cluster -> weed -> label pipeline of
    Figure 2, use :class:`repro.core.pipeline.RockPipeline`.

    ``merge_method`` is the analogous switch over the merge phase:
    ``"heap"`` forces the Figure 3 reference loop, ``"fast"`` the
    component-partitioned engine of :mod:`repro.core.merge`,
    ``"native"`` that engine with :mod:`repro.native` component
    kernels, and ``"auto"`` (default) picks native whenever a tier
    passed its probe, else fast, for the built-in goodness measures
    and the reference loop for custom callables.  All produce
    byte-identical results; the fast engine additionally fans
    components out across ``workers``.  ``REPRO_NATIVE=0`` keeps both
    ``auto`` switches off the native kernels.

    ``tracer`` is an optional :class:`~repro.obs.trace.Tracer`: a root
    ``fit`` span (carrying the resolved backends and fallback reasons)
    with ``neighbors`` / ``links`` / ``cluster`` children is recorded,
    and the kernels record metrics into ``tracer.registry``, including
    one ``fit.fallback.<reason>`` count per plan degradation.  Tracing
    never changes results.
    """
    if tracer is None:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    registry = tracer.registry
    plan = resolve_fit_plan(
        points, similarity, theta, fit_mode=fit_mode,
        merge_method=merge_method, goodness_fn=goodness_fn,
        weighted_links=weighted_links, neighbor_method=neighbor_method,
        link_method=link_method,
    )
    with tracer.span(
        "fit", n_points=len(points), fit_mode=fit_mode, k=k, theta=theta,
        workers=workers, merge_method=merge_method,
    ) as root_span:
        plan.record(registry, root_span)
        if plan.fit == "sharded":
            from repro.shard.coordinator import shard_fit

            result = shard_fit(
                points, k=k, theta=theta, f_theta=f(theta),
                similarity=similarity, goodness_fn=goodness_fn,
                workers=workers, block_rows=shard_block_rows,
                spill_dir=spill_dir, max_retries=max_retries,
                memory_budget=memory_budget, tracer=tracer,
            ).result
            result.plan = plan
            return result
        if plan.fit == "weighted":
            from repro.core.links import weighted_link_matrix
            from repro.core.neighbors import (
                NeighborGraph,
                adjacency_from_similarity_matrix,
                similarity_matrix,
            )

            with tracer.span("neighbors", weighted=True, n=len(points)):
                sim = similarity_matrix(points, similarity)
                graph = NeighborGraph(
                    adjacency_from_similarity_matrix(sim, theta), theta=theta
                )
            with tracer.span("links", weighted=True):
                links = LinkTable.from_dense(weighted_link_matrix(graph, sim))
                registry.inc("fit.links.pairs", links.nnz_pairs())
        elif plan.fused:
            with tracer.span("neighbors", fused=True,
                             native=plan.fit == "native", n=len(points)):
                fused = plan.fused_pass(
                    points, theta, similarity, workers, memory_budget,
                    registry,
                )
            with tracer.span("links", fused=True):
                links = fused.links
                registry.inc("fit.links.pairs", links.nnz_pairs())
        else:
            with tracer.span("neighbors", method=plan.neighbor_method,
                             n=len(points)):
                graph = compute_neighbor_graph(
                    points, theta, similarity=similarity,
                    method=plan.neighbor_method, memory_budget=memory_budget,
                    workers=workers, registry=registry,
                )
            with tracer.span("links", method=plan.link_method):
                links = compute_links(
                    graph, method=plan.link_method, workers=workers,
                    registry=registry,
                )
        with tracer.span("cluster", k=k, merge_method=plan.merge):
            result = cluster_with_links(
                links, k=k, f_theta=f(theta), goodness_fn=goodness_fn,
                merge_method=plan.merge, workers=workers, registry=registry,
            )
            registry.inc("fit.cluster.merges", len(result.merges))
    result.plan = plan
    return result


def _best_key(heap: AddressableMaxHeap) -> float:
    if not heap:
        return _NEG_INF
    return heap.peek()[1]


def _validate_partition(clusters: list[list[int]], n: int) -> None:
    seen: set[int] = set()
    for cluster in clusters:
        if not cluster:
            raise ValueError("initial clusters must be non-empty")
        for p in cluster:
            if not 0 <= p < n:
                raise ValueError(f"point index {p} outside [0, {n})")
            if p in seen:
                raise ValueError(f"point {p} appears in multiple initial clusters")
            seen.add(p)


def _aggregate_cross_links(
    links: LinkTable, clusters: list[list[int]]
) -> dict[int, dict[int, int]]:
    """Cross-cluster link counts summed over member point pairs."""
    cluster_of: dict[int, int] = {}
    for cid, cluster in enumerate(clusters):
        for p in cluster:
            cluster_of[p] = cid
    cross: dict[int, dict[int, int]] = {cid: {} for cid in range(len(clusters))}
    for i, j, count in links.pairs():
        ci = cluster_of.get(i)
        cj = cluster_of.get(j)
        if ci is None or cj is None or ci == cj:
            continue
        cross[ci][cj] = cross[ci].get(cj, 0) + count
        cross[cj][ci] = cross[cj].get(ci, 0) + count
    return cross
