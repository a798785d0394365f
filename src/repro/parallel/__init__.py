"""Shared chunked multi-worker execution for the fit and serve paths.

The ROCK cost profile (paper Section 4.4) is dominated by the neighbor
and link kernels -- ``O(n^2 m)`` set intersections plus ``O(sum m_i^2)``
link increments.  This package makes the row blocks of
:func:`repro.core.neighbors.block_tasks` the unit of parallelism:

* :mod:`repro.parallel.pool` -- the generic chunked-execution layer
  (order-preserving ``imap`` over a worker pool whose one-time payload
  travels through the pool initializer, with a transparent serial
  fallback).  :mod:`repro.serve.parallel` is a thin consumer of it.
* :mod:`repro.parallel.links` -- the **fused** neighbor+link kernel
  (:func:`~repro.parallel.links.fused_neighbor_links`) that accumulates
  Figure 4 link counts block by block without keeping the neighbor
  graph, plus the vectorised pair-count helpers it and the sharded fit
  share.

Every kernel here is a pure optimisation: outputs are exactly equal to
the dense reference path (property-tested), and merges preserve block
order so runs are deterministic for any worker count.
"""

from repro.core.neighbors import block_tasks, worker_block_size
from repro.parallel.links import (
    FusedFitResult,
    fused_neighbor_links,
    merge_pair_counts,
    pair_link_counts,
)
from repro.parallel.pool import (
    default_workers,
    imap_chunked,
    iter_chunks,
    map_chunked,
    resolve_workers,
)

__all__ = [
    "FusedFitResult",
    "block_tasks",
    "default_workers",
    "fused_neighbor_links",
    "imap_chunked",
    "iter_chunks",
    "map_chunked",
    "merge_pair_counts",
    "pair_link_counts",
    "resolve_workers",
    "worker_block_size",
]
