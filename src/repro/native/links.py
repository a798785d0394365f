"""The native fused neighbor+link pass (``fit_mode="native"``).

Same shape as :func:`repro.parallel.links.fused_neighbor_links` -- row
blocks fanned across :mod:`repro.parallel.pool` workers, one
:class:`~repro.core.links.LinkTable` at the end -- but each block is
scored by a native kernel instead of the scipy sparse product, and the
Figure 4 pair counting runs as a single native reduction in the parent
instead of the Python ``pair_link_counts`` loop.  Similarity is
symmetric, so the block kernel scores only the upper triangle
(``j > row``, half the accumulate work of the reference product); a
linear-time mirror pass rebuilds the full ascending neighbor lists the
pair counter and degree accounting consume.  Bit-identical by
construction: intersections are the same integer counts (each shared
item contributes exactly +1, whichever triangle it is counted in), the
survivor test is the same exact float64 ``inter / denom >= theta``
division the sparse scorer performs, and pair counting is pure integer
arithmetic either way.

Only the configurations the kernel understands are supported --
transaction-shaped points (or categorical records encoded to
transactions) under builtin Jaccard/overlap similarity with
``theta > 0``.  :func:`native_fit_blocker` reports the reason a
configuration is not, so callers can warn once and fall back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.encoding import transaction_csr
from repro.core.links import LinkTable
from repro.core.neighbors import block_tasks, worker_block_size
from repro.core.similarity import (
    JaccardSimilarity,
    OverlapSimilarity,
    SimilarityFunction,
)
from repro.obs.registry import MetricsRegistry
from repro.parallel.links import FusedFitResult
from repro.parallel.pool import imap_chunked, resolve_workers

__all__ = [
    "TransactionCSR",
    "native_fit_blocker",
    "native_fit_supported",
    "native_neighbor_links",
    "native_transaction_csr",
]


@dataclass
class TransactionCSR:
    """Picklable CSR encoding of a transaction dataset.

    ``indptr``/``indices`` map each transaction to its sorted item
    codes; ``t_indptr``/``t_indices`` are the transpose (item -> the
    ascending transactions containing it), which is what lets the
    kernel accumulate row intersections by walking only the
    transactions that share an item.  Ids are int32 (the kernels
    require ``n < 2**31``; pair codes upstream bound ``n`` far below
    that anyway), halving the bandwidth of the randomly-accessed hot
    arrays; the indptrs stay int64 so totals never overflow.
    """

    indptr: np.ndarray
    indices: np.ndarray
    t_indptr: np.ndarray
    t_indices: np.ndarray
    sizes: np.ndarray
    n: int
    n_items: int
    overlap: int  # 0 = jaccard, 1 = overlap similarity


def _as_transactions(points: Any) -> Any | None:
    """Coerce supported point containers to a TransactionDataset."""
    from repro.data.records import CategoricalDataset
    from repro.data.transactions import Transaction, TransactionDataset

    if isinstance(points, TransactionDataset):
        return points
    if isinstance(points, CategoricalDataset):
        from repro.core.encoding import dataset_to_transactions

        return dataset_to_transactions(points)
    try:
        pts = list(points)
    except TypeError:
        return None
    if pts and isinstance(pts[0], (Transaction, frozenset, set)):
        return TransactionDataset(pts)
    return None


def native_transaction_csr(
    points: Any, similarity: SimilarityFunction | None = None
) -> TransactionCSR | None:
    """Encode points for the native kernel, or ``None`` if unsupported.

    Supported: transaction datasets / sequences of set-like points
    under Jaccard or overlap similarity, and categorical datasets under
    Jaccard (encoded via ``A.v`` items exactly like the blocked
    scorers, so the similarity values match).
    """
    from repro.data.records import CategoricalDataset

    if similarity is None:
        similarity = JaccardSimilarity()
    if isinstance(points, CategoricalDataset):
        if not isinstance(similarity, JaccardSimilarity):
            return None
    elif not isinstance(similarity, (JaccardSimilarity, OverlapSimilarity)):
        return None
    dataset = _as_transactions(points)
    if dataset is None:
        return None
    n = len(dataset)
    if n >= 2**31 or dataset.n_items >= 2**31:
        return None
    n_items = dataset.n_items
    indptr, codes = transaction_csr(dataset)
    sizes = np.diff(indptr).astype(np.int32)
    indices = codes.astype(np.int32)
    # transpose: stable sort of (item, transaction) pairs by item --
    # stability keeps each item's transaction list ascending because
    # the rows were emitted in transaction order
    t_counts = np.bincount(indices, minlength=n_items).astype(np.int64)
    t_indptr = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(t_counts, out=t_indptr[1:])
    row_ids = np.repeat(np.arange(n, dtype=np.int32), sizes)
    t_indices = row_ids[np.argsort(indices, kind="stable")]
    overlap = int(isinstance(similarity, OverlapSimilarity))
    return TransactionCSR(
        indptr=indptr,
        indices=indices,
        t_indptr=t_indptr,
        t_indices=t_indices,
        sizes=sizes,
        n=n,
        n_items=n_items,
        overlap=overlap,
    )


def native_fit_blocker(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
) -> tuple[str, str] | None:
    """Why the native fused pass cannot run, as ``(code, message)``.

    ``None`` when it can.  ``code`` is the short fallback-counter name
    the fit planner records (``fit.fallback.<code>``); ``message`` is
    the human-readable reason for warnings.
    """
    from repro.data.records import CategoricalDataset
    from repro.native import native_available

    if not native_available():
        return "no_backend", "no native backend available"
    if theta <= 0.0:
        return (
            "theta_le_0",
            "theta <= 0 links every pair (python path handles it)",
        )
    if similarity is not None and not isinstance(
        similarity, (JaccardSimilarity, OverlapSimilarity)
    ):
        return (
            "custom_similarity",
            f"similarity {type(similarity).__name__} not native-supported",
        )
    if isinstance(points, CategoricalDataset):
        if isinstance(similarity, OverlapSimilarity):
            return (
                "categorical_overlap",
                "overlap similarity over categorical records unsupported",
            )
    elif not _transaction_shaped(points):
        return "not_transactions", "points are not transaction-shaped"
    return None


def native_fit_supported(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
) -> tuple[bool, str | None]:
    """Whether the native fused pass can run; ``(ok, reason_if_not)``."""
    blocker = native_fit_blocker(points, theta, similarity)
    return (True, None) if blocker is None else (False, blocker[1])


def _transaction_shaped(points: Any) -> bool:
    """Whether :func:`_as_transactions` accepts ``points`` (without encoding)."""
    from repro.data.transactions import Transaction, TransactionDataset

    if isinstance(points, TransactionDataset):
        return True
    try:
        first = next(iter(points))
    except (TypeError, StopIteration):
        return False
    return isinstance(first, (Transaction, frozenset, set))


# -- worker side --------------------------------------------------------------

_NATIVE_STATE: dict[str, Any] = {}


def _init_native_worker(
    csr: TransactionCSR, theta: float, backend: str | None
) -> None:
    from repro.native import get_kernels

    _NATIVE_STATE["csr"] = csr
    _NATIVE_STATE["theta"] = theta
    # On fork-start platforms the parent's probed kernels (and loaded
    # shared object) are inherited; on spawn this re-probes in the
    # child.  The parent probes before fan-out either way, so the cache
    # is warm and the probe cannot flip to a different tier mid-fit.
    _NATIVE_STATE["kernels"] = get_kernels(backend)


def _native_block(
    task: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Upper-triangle neighbor lists for one row block."""
    start, stop = task
    csr: TransactionCSR = _NATIVE_STATE["csr"]
    kernels = _NATIVE_STATE["kernels"]
    t0 = time.perf_counter()
    upper_indptr, upper_indices = kernels.score_block(
        csr.indptr,
        csr.indices,
        csr.t_indptr,
        csr.t_indices,
        csr.sizes,
        csr.n,
        start,
        stop,
        _NATIVE_STATE["theta"],
        csr.overlap,
    )
    local = MetricsRegistry()
    local.inc("fit.native.blocks")
    local.inc("fit.native.rows", stop - start)
    local.observe("fit.native.block_seconds", time.perf_counter() - t0)
    return upper_indptr, upper_indices, local.snapshot()


def native_neighbor_links(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
    workers: int | str | None = "auto",
    block_size: int | None = None,
    memory_budget: int | None = None,
    registry: MetricsRegistry | None = None,
) -> FusedFitResult:
    """The fused fit pass with native block kernels.

    Raises ``ValueError`` for unsupported configurations -- callers are
    expected to consult :func:`native_fit_supported` first and fall
    back to :func:`repro.parallel.links.fused_neighbor_links`.
    """
    from repro.native import available_backend, get_kernels

    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be positive")
    ok, reason = native_fit_supported(points, theta, similarity)
    if not ok:
        raise ValueError(f"native fit unsupported: {reason}")
    # probe (and for the C tier, compile + dlopen) in the parent before
    # fan-out: forked workers inherit the loaded library, spawned ones
    # hit a warm on-disk cache
    backend = available_backend()
    get_kernels(backend)
    csr = native_transaction_csr(points, similarity)
    assert csr is not None  # native_fit_supported vouched for this
    count = resolve_workers(workers)
    n = csr.n
    if block_size is None:
        block_size = worker_block_size(n, count, memory_budget)

    # workers emit per-block upper-triangle lists in task order; stitch
    # them into one global upper CSR by offsetting each block's indptr
    upper_len_blocks: list[np.ndarray] = []
    upper_index_blocks: list[np.ndarray] = []
    for upper_indptr, upper_indices, delta in imap_chunked(
        _native_block,
        block_tasks(n, block_size),
        workers=count,
        initializer=_init_native_worker,
        initargs=(csr, theta, backend),
    ):
        if registry is not None:
            registry.merge(delta)
        upper_len_blocks.append(np.diff(upper_indptr))
        upper_index_blocks.append(upper_indices)

    upper_indptr = np.zeros(n + 1, dtype=np.int64)
    if upper_len_blocks:
        np.cumsum(np.concatenate(upper_len_blocks), out=upper_indptr[1:])
    upper_indices = (
        np.concatenate(upper_index_blocks)
        if upper_index_blocks
        else np.empty(0, dtype=np.int32)
    )

    kernels = get_kernels(backend)
    full_indptr, full_indices = kernels.mirror_neighbors(
        upper_indptr, upper_indices, n
    )
    degrees = np.diff(full_indptr)
    codes, counts = kernels.pair_count_reduce(full_indptr, full_indices, n)
    if registry is not None:
        registry.inc("fit.native.pair_increments", int(counts.sum()))
    links = LinkTable.from_pair_counts(n, codes, counts)
    return FusedFitResult(links=links, degrees=degrees, theta=theta)
