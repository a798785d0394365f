"""High-throughput batch assignment against a :class:`RockModel`.

The per-point :class:`~repro.core.labeling.ClusterLabeler` pays Python
overhead for every point.  :class:`AssignmentEngine` amortises that
over whole batches through the model's
:class:`~repro.core.assign.AssignmentIndex` (built once at engine
construction), and adds:

* an LRU cache keyed on the point's item set, so duplicate and repeated
  points (ubiquitous in categorical data, where the value space is
  small) skip scoring entirely;
* a tiered fast path: the ``pruned`` backend scores each point only
  against candidate representatives gathered from the inverted index,
  and ``native`` fuses that gather with the argmax in a
  :mod:`repro.native` kernel;
* a pure-Python fallback for labelings the index cannot take (custom
  similarities), delegating per point to the scalar
  :class:`ClusterLabeler` -- the only case that builds one;
* metrics (requests, outlier rate, cache hit rate, latency) recorded on
  a shared :class:`~repro.serve.metrics.ServeMetrics`, plus one
  ``serve.assign.backend.<tier>`` gauge marking the active tier.

Assignments are bit-for-bit identical to ``ClusterLabeler.assign`` --
the equivalence is property-tested for every backend tier.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence, Sized
from typing import Any

import numpy as np

from repro.core.similarity import _as_item_set
from repro.core.assign import AssignmentIndex, resolve_assign_backend
from repro.serve.metrics import ServeMetrics
from repro.serve.model import RockModel

# every value engine.assign_backend can take; "fallback" marks the
# scalar custom-similarity path where no index exists at all
BACKEND_TIERS = ("pruned", "native", "fallback")


class AssignmentEngine:
    """Vectorised batch assignment with caching and metrics.

    Parameters
    ----------
    model:
        The servable artifact to assign against.
    cache_size:
        Maximum number of distinct points remembered by the LRU cache;
        0 disables caching.
    metrics:
        Shared metrics sink; a private one is created when omitted.
    block_size:
        Rows per scoring block, bounding peak memory for huge batches.
    assign_backend:
        ``"auto"`` (default: native when a tier passes its probe,
        else pruned), ``"pruned"`` or ``"native"``.  Ignored (scalar
        fallback) when the model's labeling admits no index.
    prebuilt_index:
        An :class:`AssignmentIndex` built elsewhere for this model --
        the stream-worker path ships one through the pool payload so
        every worker skips the build.
    """

    def __init__(
        self,
        model: RockModel,
        cache_size: int = 4096,
        metrics: ServeMetrics | None = None,
        block_size: int = 8192,
        assign_backend: str = "auto",
        prebuilt_index: AssignmentIndex | None = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.model = model
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.block_size = block_size
        backend, kernels = resolve_assign_backend(assign_backend)
        self._index = (
            prebuilt_index
            if prebuilt_index is not None
            else model.assignment_index()
        )
        self._kernels = kernels  # None on the pruned tier
        self._labeler = model.labeler() if self._index is None else None
        self._backend = backend if self._index is not None else "fallback"
        registry = self.metrics.registry
        for tier in BACKEND_TIERS:
            registry.set_gauge(
                f"serve.assign.backend.{tier}", int(tier == self._backend)
            )
        self._cache: OrderedDict[Any, int] = OrderedDict()
        self._cache_size = cache_size
        # the async HTTP server shares one engine between the event
        # loop's executor threads and direct assign_batch callers, so
        # the LRU's read-reorder and eviction must be atomic
        self._cache_lock = threading.Lock()

    @property
    def vectorized(self) -> bool:
        """Whether the batch index path is active (vs the scalar fallback)."""
        return self._index is not None

    @property
    def assign_backend(self) -> str:
        """The resolved scoring tier: pruned / native / fallback."""
        return self._backend

    @property
    def fast_index(self) -> AssignmentIndex | None:
        """The inverted index (``None`` on the fallback tier)."""
        return self._index

    @property
    def n_clusters(self) -> int:
        return self.model.n_clusters

    def assign(self, point: Any) -> int:
        """Cluster index for one point, -1 for an outlier."""
        return int(self.assign_batch([point])[0])

    def assign_batch(self, points: Sequence[Any]) -> np.ndarray:
        """Labels for a whole batch, in input order.

        Cache lookups run first; each distinct *keyable* point is
        scored at most once per batch, regardless of how often it
        repeats -- including when ``cache_size=0``, where hashable
        points still dedupe within the batch but bypass the LRU.
        Points that never reach the cache (unhashable, or caching
        disabled) are reported to the metrics as ``uncacheable`` per
        occurrence, not as cache misses, so the hit rate reflects real
        LRU lookups only.
        """
        start = time.perf_counter()
        points = list(points)
        labels = np.empty(len(points), dtype=np.int64)
        hits = 0
        pending: dict[Any, list[int]] = {}  # cache key -> positions (LRU on)
        nocache: dict[Any, list[int]] = {}  # key -> positions (LRU off)
        unkeyed: list[tuple[int, Any]] = []  # position, unhashable point
        for i, point in enumerate(points):
            key = self._cache_key(point)
            if key is None:
                unkeyed.append((i, point))
                continue
            if self._cache_size == 0:
                nocache.setdefault(key, []).append(i)
                continue
            cached = self._cache_get(key)
            if cached is not None:
                labels[i] = cached
                hits += 1
            else:
                pending.setdefault(key, []).append(i)
        misses = len(pending)
        uncacheable = len(unkeyed) + sum(len(v) for v in nocache.values())
        to_score = [points[positions[0]] for positions in pending.values()]
        to_score.extend(points[positions[0]] for positions in nocache.values())
        to_score.extend(point for _, point in unkeyed)
        if to_score:
            scored = self._assign_uncached(to_score)
            for j, (key, positions) in enumerate(pending.items()):
                labels[positions] = scored[j]
                self._cache_put(key, int(scored[j]))
            offset = len(pending)
            for j, positions in enumerate(nocache.values()):
                labels[positions] = scored[offset + j]
            offset += len(nocache)
            for j, (i, _) in enumerate(unkeyed):
                labels[i] = scored[offset + j]
        self.metrics.record_batch(
            n_points=len(points),
            n_outliers=int((labels == -1).sum()),
            seconds=time.perf_counter() - start,
            stage="assign_batch" if self.vectorized else "assign_fallback",
            cache_hits=hits,
            cache_misses=misses,
            uncacheable=uncacheable,
        )
        return labels

    def assign_iter(
        self, points: Iterable[Any], batch_size: int = 1024
    ) -> Iterator[int]:
        """Stream labels for an iterable, batching internally.

        Yields one ``int`` label per input point, in order -- the §4.6
        disk scan without materialising the data set.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        batch: list[Any] = []
        for point in points:
            batch.append(point)
            if len(batch) >= batch_size:
                yield from map(int, self.assign_batch(batch))
                batch = []
        if batch:
            yield from map(int, self.assign_batch(batch))

    def assign_all(self, points: Iterable[Any], batch_size: int = 1024) -> np.ndarray:
        """Labels for an iterable as one array (batched internally).

        A sized input pre-sizes the output array (``np.fromiter`` with
        ``count=``), so a disk-scale labeled scan never pays the
        doubling-reallocation churn of growing the result.
        """
        labels = self.assign_iter(points, batch_size=batch_size)
        if isinstance(points, Sized):
            return np.fromiter(labels, dtype=np.int64, count=len(points))
        return np.fromiter(labels, dtype=np.int64)

    # -- internals ----------------------------------------------------------

    def _assign_uncached(self, points: list[Any]) -> np.ndarray:
        if self._index is not None:
            return self._index.assign(
                points, block_size=self.block_size, kernels=self._kernels
            )
        assert self._labeler is not None
        return self._labeler.assign_all(points)

    def _cache_key(self, point: Any) -> Any | None:
        try:
            return _as_item_set(point)
        except TypeError:
            pass
        try:
            hash(point)
        except TypeError:
            return None
        return point

    def _cache_get(self, key: Any) -> int | None:
        with self._cache_lock:
            label = self._cache.get(key)
            if label is not None:
                self._cache.move_to_end(key)
            return label

    def _cache_put(self, key: Any, label: int) -> None:
        with self._cache_lock:
            self._cache[key] = label
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
