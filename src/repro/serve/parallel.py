"""Chunked multiprocessing assignment for disk-scale labeling runs.

The §4.6 labeling scan is embarrassingly parallel: every point is
scored independently against the same frozen model.  This module
shards an input stream into chunks, ships the *model* (as its JSON
dict -- cheap, a few KB) plus the caller's prebuilt
:class:`~repro.core.assign.AssignmentIndex` (pure numpy arrays, so it
pickles; each worker skips the index build) to each worker once via
the pool initializer, and assigns chunks with a per-worker
:class:`AssignmentEngine`.
``imap`` keeps results in submission order, so output labels line up
with input points exactly.  Each chunk travels back as a label array
plus a :class:`ServeMetrics` snapshot delta, which the caller merges
into its sink -- worker-side cache and latency activity is observable,
not discarded.

Models whose configuration cannot be serialised (a custom similarity
callable) fall back to single-process assignment transparently.

The pool/chunking mechanics live in :mod:`repro.parallel.pool` (shared
with the fit-path kernels); this module only supplies the serving
payload and task functions.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.core.assign import resolve_assign_backend
from repro.parallel.pool import default_workers, imap_chunked, iter_chunks
from repro.serve.engine import AssignmentEngine
from repro.serve.metrics import ServeMetrics
from repro.serve.model import RockModel

# back-compat alias: chunking moved to repro.parallel.pool
_chunks = iter_chunks

__all__ = ["assign_stream", "default_workers"]

# per-worker engine, built once by _init_worker
_WORKER_ENGINE: AssignmentEngine | None = None


def _init_worker(
    model_dict: dict[str, Any],
    cache_size: int,
    assign_backend: str = "auto",
    prebuilt_index: Any | None = None,
) -> None:
    global _WORKER_ENGINE
    # the index arrives prebuilt through the payload; native kernel
    # handles are never shipped -- each worker re-resolves its own
    _WORKER_ENGINE = AssignmentEngine(
        RockModel.from_dict(model_dict),
        cache_size=cache_size,
        assign_backend=assign_backend,
        prebuilt_index=prebuilt_index,
    )


def _assign_chunk(chunk: list[Any]) -> tuple[np.ndarray, dict[str, Any]]:
    """Assign one chunk; return its labels plus a metrics *delta*.

    A fresh :class:`ServeMetrics` is swapped in per chunk so the
    returned snapshot covers exactly this chunk's activity (the
    worker's LRU cache still persists across chunks) -- the caller
    merges the deltas into its sink without double counting.
    """
    assert _WORKER_ENGINE is not None, "worker pool not initialised"
    _WORKER_ENGINE.metrics = ServeMetrics()
    labels = _WORKER_ENGINE.assign_batch(chunk)
    return labels, _WORKER_ENGINE.metrics.snapshot()


def assign_stream(
    model: RockModel,
    points: Iterable[Any],
    workers: int | None = None,
    chunk_size: int = 2048,
    cache_size: int = 4096,
    metrics: ServeMetrics | None = None,
    assign_backend: str = "auto",
    prebuilt_index: Any | None = None,
) -> np.ndarray:
    """Assign an arbitrarily large stream of points, in input order.

    Parameters
    ----------
    model:
        The servable artifact.
    points:
        Any iterable of points (e.g.
        :func:`repro.data.io.iter_transactions` streaming from disk).
    workers:
        Process count; ``None`` picks :func:`default_workers`, ``<= 1``
        runs single-process.
    chunk_size:
        Points per work unit; larger chunks amortise IPC, smaller
        chunks balance better.
    cache_size:
        Per-worker LRU size (each worker caches independently).
    metrics:
        Optional sink; receives every per-worker batch observation
        (cache hits/misses/uncacheable, per-batch latencies, outlier
        counts) merged from worker snapshots, plus one
        ``assign_stream`` latency observation for the whole run.
    assign_backend:
        Scoring tier for the per-worker engines (see
        :class:`AssignmentEngine`).
    prebuilt_index:
        An :class:`~repro.core.assign.AssignmentIndex` already built
        for this model; shipped to every worker through the pool
        payload so none of them rebuilds it.  Built here once when
        omitted (and the model's labeling is indexable).

    Returns
    -------
    ``(n,)`` int64 labels, -1 for outliers, aligned with the input.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if workers is None:
        workers = default_workers()
    start = time.perf_counter()
    model_dict: dict[str, Any] | None = None
    if workers > 1:
        try:
            model_dict = model.to_dict()
        except ValueError:
            # custom similarity: the model cannot cross a process
            # boundary without pickle, so stay in-process
            workers = 1
    if workers <= 1 or model_dict is None:
        engine = AssignmentEngine(
            model,
            cache_size=cache_size,
            metrics=metrics,
            assign_backend=assign_backend,
            prebuilt_index=prebuilt_index,
        )
        labels = engine.assign_all(points, batch_size=chunk_size)
        if metrics is not None:
            metrics.observe_latency("assign_stream", time.perf_counter() - start)
        return labels

    # reject a bad backend name here, not inside every worker
    resolve_assign_backend(assign_backend)
    if prebuilt_index is None:
        # build the index once here rather than once per worker
        prebuilt_index = model.assignment_index()

    # per-chunk label arrays, concatenated once at the end -- a stream
    # of millions of points must not be re-boxed into Python ints
    collected: list[np.ndarray] = []
    for part, snapshot in imap_chunked(
        _assign_chunk,
        iter_chunks(points, chunk_size),
        workers=workers,
        initializer=_init_worker,
        initargs=(model_dict, cache_size, assign_backend, prebuilt_index),
    ):
        collected.append(part)
        if metrics is not None:
            metrics.merge(snapshot)
    labels = (
        np.concatenate(collected) if collected else np.empty(0, dtype=np.int64)
    )
    if metrics is not None:
        metrics.observe_latency("assign_stream", time.perf_counter() - start)
    return labels
