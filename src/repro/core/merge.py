"""The fast merge engine: component-partitioned, array-backed agglomeration.

A drop-in replacement for the Figure 3 reference loop in
:mod:`repro.core.rock`, selected via ``merge_method="fast"`` (or
``"auto"`` with a built-in goodness measure).  It reproduces the
reference loop's output **byte for byte** -- the same clusters, the
same :class:`~repro.core.rock.MergeStep` history in the same order with
bitwise-identical goodness values, the same ``stopped_early`` flag --
while replacing the dict-of-dicts + addressable-heap bookkeeping with
two structural ideas:

**1. Component partitioning.**  Links are positive only within a
connected component of the neighbor graph (the QROCK property already
documented in :mod:`repro.core.components`), so cross-cluster goodness
is positive only within a component of the *cluster* link graph and
the greedy loop decomposes exactly: each component is agglomerated
independently to exhaustion, recording its greedy merge stream, and the
streams are then k-way **replayed** in descending goodness order until
``k`` clusters remain.  Components are embarrassingly parallel and fan
out across :mod:`repro.parallel.pool` workers.

*Why the replay equals the global greedy order.*  The reference picks
``u`` = the alive cluster with the globally best goodness (ties: the
smallest cluster id -- heap insertion order equals id-creation order,
see below) and merges it with ``v`` = its best partner.  Goodness is
positive only within a component, merging never crosses components,
and a merge changes goodness values only inside its own component.  So
the state of every component evolves exactly as in its standalone run,
and at any instant the reference's next merge is the *head* (next
unconsumed entry) of some component's stream: the head whose goodness
is maximal, tie-broken by the smallest ``u`` id.  A per-component
stream is **not** sorted by goodness (agglomeration is non-monotone),
but its head is always that component's next greedy move, so comparing
heads only -- a k-way merge over streams -- reproduces the global
order.  Merged-cluster ids are assigned at replay time in replay
order, which is exactly the order the reference creates them.

*Tie-breaking.*  The reference's :class:`~repro.core.heaps.AddressableMaxHeap`
breaks ties by insertion sequence, and insertion order equals cluster-id
order everywhere (initial clusters are inserted in id order; merged
clusters are inserted at creation, and ``update()`` preserves a key's
sequence number).  The global tie rule therefore reduces to "smallest
``u`` id, then smallest partner id", which both the per-component runs
(local ids are order-isomorphic to global ids) and the replay heap
(``(-goodness, u_global_id)`` keys) implement deterministically.

**2. Slot-indexed inner loop with lazy heaps.**  Within a component,
clusters live in int-indexed slots (flat lists for sizes and liveness,
plain dicts for the sparse cross-link rows) and selection is fully
lazy: each cluster keeps a ``heapq`` of ``(-goodness, partner)``
entries whose values are *immutable* -- a cross-link count never
changes while both endpoints are alive, and sizes are frozen until a
cluster dies -- so an entry is valid exactly when its partner is still
alive and stale entries are simply skipped on access.  A global token
heap of ``(-goodness, cluster)`` candidates drives selection the same
way (a token is honoured only if it still equals the cluster's cleaned
local head; otherwise the true best is re-armed).  Nothing is ever
rescanned or sifted in place: a merge costs one goodness evaluation
and O(log) heap pushes per surviving partner, with the memoized
``n^(1+2f)`` power table of :mod:`repro.core.goodness` replacing the
two ``pow()`` calls per candidate, and the initial pair goodness
evaluated in one vectorized kernel call.  No addressable-heap deletes,
no per-merge ``O(degree)`` recomputes.

Bitwise equivalence is property-tested against the reference loop over
random link tables, both goodness measures, ``f(theta)`` in {0,
default} and resumed ``initial_clusters`` partitions
(``tests/test_merge_engine.py``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.components import UnionFind
from repro.core.goodness import (
    CallableGoodnessKernel,
    goodness as normalized_goodness,
    merge_kernel_for,
)
from repro.core.links import LinkTable
from repro.core.rock import (
    GoodnessFunction,
    MergeStep,
    RockResult,
    _validate_partition,
)

__all__ = [
    "MERGE_METHODS",
    "ComponentProblem",
    "MergeStream",
    "component_merge_stream",
    "fast_cluster_with_links",
    "partition_components",
    "resolve_merge_method",
]

# The merge-engine switch threaded through cluster_with_links, rock(),
# RockPipeline and the CLI.  "heap" is the Figure 3 reference loop;
# "fast" is this module; "native" is this module with the component
# inner loop handed to a repro.native backend kernel; "auto" picks
# native whenever a repro.native tier passes its probe, else fast,
# whenever the goodness measure has a vectorized kernel (both
# built-ins do), and falls back to the reference for custom callables,
# whose evaluation order the engines cannot promise to reproduce.  All
# methods produce identical results for the built-in measures.
MERGE_METHODS = ("auto", "heap", "fast", "native")

# don't spin up a process pool for trivially small merge problems
_PARALLEL_MIN_PAIRS = 2048


def resolve_merge_method(
    merge_method: str,
    goodness_fn: GoodnessFunction = normalized_goodness,
    registry: Any | None = None,
) -> str:
    """Normalise ``merge_method`` to ``"heap"``, ``"fast"`` or ``"native"``.

    ``"auto"`` picks native whenever a :mod:`repro.native` tier passes
    its probe (:func:`repro.native.auto_native`), else fast, for the
    built-in goodness measures, and the reference heap loop for custom
    callables (the engines cannot reproduce a callable's evaluation
    order); it never warns.  A forced ``"native"`` that cannot run
    degrades with a single :class:`RuntimeWarning` -- to ``"heap"`` for
    callables and to ``"fast"`` when no backend works.  Every
    degradation increments ``fit.fallback.<reason>`` in ``registry``
    (``custom_goodness`` or ``no_backend``).
    """
    resolved, reason = _merge_choice(merge_method, goodness_fn)
    if reason is not None and registry is not None:
        registry.inc(f"fit.fallback.{reason}")
    return resolved


def _merge_choice(
    merge_method: str, goodness_fn: GoodnessFunction
) -> tuple[str, str | None]:
    """``(engine, fallback_reason)`` behind :func:`resolve_merge_method`."""
    if merge_method not in MERGE_METHODS:
        raise ValueError(
            f"merge_method must be one of {MERGE_METHODS}, got {merge_method!r}"
        )
    if merge_method not in ("auto", "native"):
        return merge_method, None
    import warnings

    if merge_kernel_for(goodness_fn, 0.0) is None:
        if merge_method == "native":
            warnings.warn(
                "merge_method='native' does not support custom goodness "
                "callables; falling back to the reference heap loop",
                RuntimeWarning,
                stacklevel=4,
            )
        return "heap", "custom_goodness"
    from repro.native import native_available

    # auto promotes exactly when a forced native could run
    # (repro.native.auto_native is native_available)
    if native_available():
        return "native", None
    if merge_method == "native":
        warnings.warn(
            "merge_method='native' requested but no native backend is "
            "available; falling back to the fast merge engine",
            RuntimeWarning,
            stacklevel=4,
        )
    return "fast", "no_backend"


@dataclass
class ComponentProblem:
    """One component of the cluster link graph, in local coordinates.

    ``global_ids`` maps local slot ``0..s-1`` back to the initial
    cluster ids (ascending, so local order is order-isomorphic to
    global order -- the tie-breaking invariant).  Pairs are local and
    satisfy ``pair_lo < pair_hi``.  Everything is picklable arrays, so
    a problem ships to a pool worker as-is.
    """

    index: int
    global_ids: np.ndarray
    sizes: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    pair_count: np.ndarray


@dataclass
class MergeStream:
    """A component's greedy merge sequence, run to exhaustion.

    Entry ``t`` merges local clusters ``left[t]`` and ``right[t]`` into
    local id ``s + t``; ``goodness`` carries the bitwise reference
    goodness and ``sizes`` the merged member count.
    """

    left: np.ndarray
    right: np.ndarray
    goodness: np.ndarray
    sizes: np.ndarray
    heap_ops: int = 0

    def __len__(self) -> int:
        return int(self.left.shape[0])


def fast_cluster_with_links(
    links: LinkTable,
    k: int,
    f_theta: float,
    initial_clusters: Sequence[Sequence[int]] | None = None,
    goodness_fn: GoodnessFunction = normalized_goodness,
    workers: int | str | None = None,
    registry: Any | None = None,
    engine: str = "fast",
) -> RockResult:
    """Component-partitioned fast equivalent of
    :func:`repro.core.rock.cluster_with_links` (same contract, same
    byte-for-byte result).

    ``workers`` fans the per-component agglomerations across a process
    pool (built-in goodness measures only -- custom callables are not
    assumed picklable); ``registry`` receives
    ``fit.cluster.components`` / ``fit.cluster.heap_ops`` counters,
    with worker-side deltas merged in on the parallel path.

    ``engine="native"`` runs each component's inner loop on a
    :mod:`repro.native` backend kernel instead of the Python loop
    (built-in goodness only; silently reverts to the Python engines
    when no backend is available -- callers resolve and warn up front
    via :func:`resolve_merge_method`).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = links.n
    if initial_clusters is None:
        cluster_list: list[list[int]] = [[i] for i in range(n)]
        singletons = True
    else:
        cluster_list = [sorted(int(p) for p in c) for c in initial_clusters]
        _validate_partition(cluster_list, n)
        singletons = False

    m = len(cluster_list)
    sizes = np.fromiter((len(c) for c in cluster_list), np.int64, count=m)
    lo, hi, counts = _cross_pair_arrays(links, cluster_list, singletons)
    problems = partition_components(m, sizes, lo, hi, counts)
    if registry is not None:
        registry.inc("fit.cluster.components", len(problems))

    kernel = merge_kernel_for(goodness_fn, f_theta, n_max=n)
    if engine == "native" and kernel is not None:
        from repro.native import get_kernels
        from repro.native.merge import (
            native_component_streams,
            native_merge_supported,
        )

        backend = get_kernels()
        if backend is not None and native_merge_supported(kernel):
            streams = native_component_streams(
                problems, kernel, backend, registry=registry
            )
            return _replay_streams(
                cluster_list, problems, streams, k, n, registry
            )
    if _use_parallel(problems, counts.size, kernel, workers):
        from repro.parallel.merge import parallel_component_streams
        from repro.parallel.pool import resolve_workers

        streams = parallel_component_streams(
            problems,
            f_theta=f_theta,
            kernel_name=kernel.name,
            n_max=n,
            workers=resolve_workers(workers),
            registry=registry,
        )
    else:
        if kernel is None:
            kernel = CallableGoodnessKernel(goodness_fn, f_theta)
        streams = [component_merge_stream(p, kernel) for p in problems]
        if registry is not None:
            registry.inc(
                "fit.cluster.heap_ops", sum(s.heap_ops for s in streams)
            )
    return _replay_streams(cluster_list, problems, streams, k, n, registry)


def _use_parallel(
    problems: list[ComponentProblem],
    total_pairs: int,
    kernel: Any,
    workers: int | str | None,
) -> bool:
    if workers is None or kernel is None or len(problems) < 2:
        return False
    if total_pairs < _PARALLEL_MIN_PAIRS:
        return False
    from repro.parallel.pool import resolve_workers

    return resolve_workers(workers) > 1


def _cross_pair_arrays(
    links: LinkTable, cluster_list: list[list[int]], singletons: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster-pair cross-link counts as ``(lo, hi, counts)`` arrays.

    The vectorized counterpart of
    :func:`repro.core.rock._aggregate_cross_links`.  With the default
    singleton start the link table's pair arrays *are* the answer.
    With an ``initial_clusters`` partition, counts are summed per
    cluster pair by ``np.add.at``, which adds in array order -- the
    reference's :meth:`LinkTable.pairs` order -- so even float
    (similarity-weighted) sums match it bit for bit.
    """
    if singletons:
        return links.pair_arrays()
    m = len(cluster_list)
    i_arr, j_arr, counts = links.pair_arrays()
    cluster_of = np.full(links.n, -1, dtype=np.int64)
    for cid, cluster in enumerate(cluster_list):
        cluster_of[cluster] = cid
    ci = cluster_of[i_arr]
    cj = cluster_of[j_arr]
    keep = (ci >= 0) & (cj >= 0) & (ci != cj)
    ci, cj = ci[keep], cj[keep]
    codes, slot = np.unique(
        np.minimum(ci, cj) * m + np.maximum(ci, cj), return_inverse=True
    )
    summed = np.zeros(codes.size, dtype=counts.dtype)
    np.add.at(summed, slot, counts[keep])
    return codes // m, codes % m, summed


def partition_components(
    m: int,
    sizes: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    counts: np.ndarray,
) -> list[ComponentProblem]:
    """Split the cluster link graph into independent merge sub-problems.

    Components are ordered by their smallest member id (a canonical
    order independent of the labeling backend); clusters with no cross
    links form no problem at all -- they can never merge and are carried
    straight through to the final clustering.
    """
    if m == 0 or lo.size == 0:
        return []
    labels = _component_labels(m, lo, hi)
    # canonicalise: number components by their smallest member id
    _, inverse = np.unique(labels, return_inverse=True)
    n_comp = int(inverse.max()) + 1
    min_member = np.full(n_comp, m, dtype=np.int64)
    np.minimum.at(min_member, inverse, np.arange(m, dtype=np.int64))
    rank = np.empty(n_comp, dtype=np.int64)
    rank[np.argsort(min_member, kind="stable")] = np.arange(
        n_comp, dtype=np.int64
    )
    comp_of = rank[inverse]

    member_order = np.argsort(comp_of, kind="stable")  # ascending ids per comp
    sorted_comp = comp_of[member_order]
    group_starts = np.flatnonzero(
        np.r_[True, sorted_comp[1:] != sorted_comp[:-1]]
    )
    group_ends = np.r_[group_starts[1:], m]
    local_of = np.empty(m, dtype=np.int64)
    local_of[member_order] = np.arange(m, dtype=np.int64) - np.repeat(
        group_starts, group_ends - group_starts
    )

    pair_comp = comp_of[lo]
    pair_order = np.argsort(pair_comp, kind="stable")
    sorted_pair_comp = pair_comp[pair_order]
    pair_starts = np.flatnonzero(
        np.r_[True, sorted_pair_comp[1:] != sorted_pair_comp[:-1]]
    )
    pair_ends = np.r_[pair_starts[1:], lo.size]
    pair_comp_ids = sorted_pair_comp[pair_starts]
    lo_local = local_of[lo][pair_order]
    hi_local = local_of[hi][pair_order]
    counts_sorted = np.asarray(counts, dtype=np.float64)[pair_order]

    pair_slice = {
        int(comp): (int(start), int(end))
        for comp, start, end in zip(pair_comp_ids, pair_starts, pair_ends)
    }
    problems: list[ComponentProblem] = []
    for index, (start, end) in enumerate(zip(group_starts, group_ends)):
        if end - start < 2:
            continue  # isolated cluster: nothing to merge
        global_ids = member_order[start:end].copy()
        span = pair_slice.get(index)
        if span is None:
            continue
        p_start, p_end = span
        problems.append(
            ComponentProblem(
                index=index,
                global_ids=global_ids,
                sizes=sizes[global_ids],
                pair_lo=lo_local[p_start:p_end].copy(),
                pair_hi=hi_local[p_start:p_end].copy(),
                pair_count=counts_sorted[p_start:p_end].copy(),
            )
        )
    return problems


def _component_labels(m: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Component label per cluster; scipy's csgraph when importable."""
    try:
        from scipy import sparse
        from scipy.sparse.csgraph import connected_components as _cc
    except ImportError:
        uf = UnionFind(m)
        for a, b in zip(lo.tolist(), hi.tolist()):
            uf.union(a, b)
        return np.fromiter(
            (uf.find(x) for x in range(m)), np.int64, count=m
        )
    graph = sparse.coo_matrix(
        (np.ones(lo.size, dtype=np.int8), (lo, hi)), shape=(m, m)
    )
    _, labels = _cc(graph, directed=False)
    return labels.astype(np.int64)


def component_merge_stream(
    problem: ComponentProblem, kernel: Any
) -> MergeStream:
    """Agglomerate one component to exhaustion, recording its stream.

    Local merge ``t`` creates slot ``s + t``; slots are never reused,
    so a slot's id doubles as its creation order and the reference
    tie-break ("smallest id among maximal-goodness clusters, then
    smallest partner id") is implemented directly on ids.

    Selection is doubly lazy.  Each slot owns a local ``heapq`` of
    ``(-goodness, partner)`` entries whose values never go stale (the
    count and both sizes are frozen while the partner lives), so the
    slot's true best is its head after discarding dead partners -- ties
    resolve to the smallest partner id by the tuple order, matching the
    reference local heap's insertion-sequence rule.  A global heap of
    ``(-goodness, slot)`` *tokens* proposes initiators; a popped token
    is honoured only when it still equals the slot's cleaned head
    (otherwise the slot's current best is pushed back, keeping every
    live slot covered by a token at least as good as its true best).
    Equal-goodness tokens pop in slot-id order -- the reference's
    global tie-break.  ``best_token`` tracks a lower bound on each
    slot's best token still in the heap, letting the partner loop skip
    redundant token pushes.
    """
    s = int(problem.global_ids.shape[0])
    neg_inf = -math.inf
    filler = [0] * (s - 1)
    size: list[int] = problem.sizes.tolist() + filler
    alive: list[bool] = [True] * s + [False] * (s - 1)
    rows: list[dict[int, float] | None] = [
        {} for _ in range(s)
    ] + [None] * (s - 1)
    local: list[list[tuple[float, int]] | None] = [
        [] for _ in range(s)
    ] + [None] * (s - 1)
    best_token: list[float] = [neg_inf] * (2 * s - 1)

    pair_g = kernel.vector(
        problem.pair_count,
        problem.sizes[problem.pair_lo],
        problem.sizes[problem.pair_hi],
    ).tolist()
    for a, b, count, g in zip(
        problem.pair_lo.tolist(),
        problem.pair_hi.tolist(),
        problem.pair_count.tolist(),
        pair_g,
    ):
        rows[a][b] = count
        rows[b][a] = count
        local[a].append((-g, b))
        local[b].append((-g, a))

    heapify = heapq.heapify
    heappush = heapq.heappush
    heappop = heapq.heappop
    heap: list[tuple[float, int]] = []
    for x in range(s):
        h = local[x]
        if not h:
            continue
        heapify(h)
        head_neg = h[0][0]
        if head_neg < 0.0:  # best goodness > 0
            heap.append((head_neg, x))
            best_token[x] = -head_neg
    heapify(heap)
    heap_ops = len(heap)
    scalar = kernel.bind(int(problem.sizes.sum()))

    left: list[int] = []
    right: list[int] = []
    goodness_out: list[float] = []
    sizes_out: list[int] = []
    alive_count = s
    next_slot = s
    while alive_count > 1 and heap:
        neg_g, u = heappop(heap)
        heap_ops += 1
        if not alive[u]:
            continue
        hu = local[u]
        while hu and not alive[hu[0][1]]:
            heappop(hu)
            heap_ops += 1
        if not hu:
            best_token[u] = neg_inf
            continue
        head_neg = hu[0][0]
        if head_neg != neg_g:
            # stale token: u's best changed since the push; re-arm it
            if head_neg < 0.0:
                heappush(heap, (head_neg, u))
                heap_ops += 1
                best_token[u] = -head_neg
            else:
                best_token[u] = neg_inf
            continue
        v = hu[0][1]
        w = next_slot
        next_slot += 1

        row_u = rows[u]
        row_v = rows[v]
        del row_u[v], row_v[u]
        # link[x, w] = link[x, u] + link[x, v], u's contribution first
        # (matches the reference's pop order for weighted counts)
        row_w = dict(row_u)
        if row_v:
            get = row_w.get
            for x, count in row_v.items():
                row_w[x] = get(x, 0) + count
        rows[u] = rows[v] = None
        rows[w] = row_w
        local[u] = local[v] = None
        alive[u] = False
        alive[v] = False
        alive[w] = True
        size_w = size[u] + size[v]
        size[w] = size_w
        alive_count -= 1

        left.append(u)
        right.append(v)
        goodness_out.append(-neg_g)
        sizes_out.append(size_w)

        local_w: list[tuple[float, int]] = []
        for x, count in row_w.items():
            row_x = rows[x]
            row_x.pop(u, None)
            row_x.pop(v, None)
            row_x[w] = count
            g = scalar(count, size[x], size_w)
            neg = -g
            heappush(local[x], (neg, w))
            local_w.append((neg, x))
            if g > best_token[x] and g > 0.0:
                heappush(heap, (neg, x))
                best_token[x] = g
                heap_ops += 1
        heap_ops += 1 + len(local_w)
        if local_w:
            heapify(local_w)
            head_neg = local_w[0][0]
            if head_neg < 0.0:
                heappush(heap, (head_neg, w))
                best_token[w] = -head_neg
                heap_ops += 1
        local[w] = local_w

    return MergeStream(
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        goodness=np.asarray(goodness_out, dtype=np.float64),
        sizes=np.asarray(sizes_out, dtype=np.int64),
        heap_ops=heap_ops,
    )


def _replay_streams(
    cluster_list: list[list[int]],
    problems: list[ComponentProblem],
    streams: list[MergeStream],
    k: int,
    n: int,
    registry: Any | None,
) -> RockResult:
    """K-way replay of the per-component streams down to ``k`` clusters.

    The replay heap holds one entry per non-exhausted stream, keyed
    ``(-head_goodness, head_u_global_id)`` -- exactly the reference's
    selection rule (see module docstring).  Merged global ids are
    handed out in replay order, so the emitted
    :class:`~repro.core.rock.MergeStep` list is the reference's, entry
    for entry.
    """
    m = len(cluster_list)
    pointers = [0] * len(streams)
    merged_gids: list[list[int]] = [[] for _ in streams]

    def to_global(comp: int, local: int) -> int:
        s = int(problems[comp].global_ids.shape[0])
        if local < s:
            return int(problems[comp].global_ids[local])
        return merged_gids[comp][local - s]

    heap: list[tuple[float, int, int]] = []
    for comp, stream in enumerate(streams):
        if len(stream):
            heap.append(
                (
                    -float(stream.goodness[0]),
                    to_global(comp, int(stream.left[0])),
                    comp,
                )
            )
    heapq.heapify(heap)
    heap_ops = len(heap)

    merges: list[MergeStep] = []
    stopped_early = False
    alive_total = m
    next_id = m
    while alive_total > k:
        if not heap:
            # no positive-goodness merge remains anywhere (all streams
            # exhausted): the mushroom-style early stop
            stopped_early = True
            break
        _, u_gid, comp = heapq.heappop(heap)
        heap_ops += 1
        stream = streams[comp]
        t = pointers[comp]
        v_gid = to_global(comp, int(stream.right[t]))
        w = next_id
        next_id += 1
        merged_gids[comp].append(w)
        merges.append(
            MergeStep(
                left=u_gid,
                right=v_gid,
                merged=w,
                goodness=float(stream.goodness[t]),
                size=int(stream.sizes[t]),
            )
        )
        pointers[comp] = t + 1
        alive_total -= 1
        if t + 1 < len(stream):
            heapq.heappush(
                heap,
                (
                    -float(stream.goodness[t + 1]),
                    to_global(comp, int(stream.left[t + 1])),
                    comp,
                ),
            )
            heap_ops += 1
    if registry is not None:
        registry.inc("fit.cluster.heap_ops", heap_ops)

    in_problem = np.zeros(m, dtype=bool)
    final: list[list[int]] = []
    for comp, (problem, stream) in enumerate(zip(problems, streams)):
        in_problem[problem.global_ids] = True
        s = int(problem.global_ids.shape[0])
        consumed = pointers[comp]
        if consumed == 0:
            final.extend(
                list(cluster_list[int(g)]) for g in problem.global_ids
            )
            continue
        members: dict[int, list[int]] = {
            i: list(cluster_list[int(problem.global_ids[i])])
            for i in range(s)
        }
        stream_left = stream.left.tolist()
        stream_right = stream.right.tolist()
        for t in range(consumed):
            members[s + t] = members.pop(stream_left[t]) + members.pop(
                stream_right[t]
            )
        final.extend(members.values())
    final.extend(
        list(cluster_list[cid]) for cid in np.flatnonzero(~in_problem)
    )

    final = [sorted(c) for c in final]
    final.sort(key=lambda c: (-len(c), c[0] if c else -1))
    return RockResult(
        clusters=final,
        merges=merges,
        stopped_early=stopped_early,
        n_points=n,
    )
