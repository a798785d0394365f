"""The inverted-index fast path for §4.6 batch assignment.

:class:`~repro.core.labeling.LabelingIndex` scores a batch against
*every* representative with one dense ``(B, vocab) @ (vocab, total)``
matmul.  That is wasteful in exactly the way serving traffic is shaped:
at ``theta > 0`` a point can only be a neighbor of representatives it
shares at least one item with, and real categorical points touch a
handful of the vocabulary.  :class:`AssignmentIndex` therefore builds,
once per model load:

* an **item -> representatives inverted index** (the CSC view of the
  representative indicator matrix, stored as ``inv_indptr`` /
  ``inv_reps`` flat arrays);
* exact per-representative set sizes and cluster ids, plus the
  per-cluster ``(|L_i| + 1)^f`` normalisers.

``assign`` then encodes each query block as a sparse CSR (column
indices only -- the dense ``(B, vocab)`` 0/1 matrix never exists),
gathers the candidate representatives per point from the posting
lists, and scores **only candidates**: the same integer intersections
and the same float64 division as the dense path, so labels are
bit-for-bit identical to ``ClusterLabeler.assign`` (property-tested).
Points with no candidate representative short-circuit straight to the
outlier label ``-1`` without touching any arithmetic.

Three scoring tiers share this index:

``pruned``
    Candidate gather via a scipy sparse product (the
    :class:`~repro.core.neighbors.SparseTransactionScorer` machinery:
    CSR x CSR intersection counts, ``searchsorted`` row recovery), or
    a pure-numpy posting-list gather when scipy is unavailable.
``native``
    The ``assign_block`` kernel of :mod:`repro.native` (numba or C
    tier) fusing candidate gather, threshold test and best-cluster
    argmax in one pass over the CSR arrays; pass the probed kernel
    namespace into :meth:`assign`.
``dense``
    Not in this module -- callers keep using ``LabelingIndex.assign``
    (the engine's ``assign_backend="dense"``).

Why the tiers agree bit for bit: intersections are small integers
(exact in float64), a candidate pair has ``inter >= 1`` and hence
``union >= 1``, so the dense path's guarded ``inter / max(union,
1e-300)`` reduces to the plain ``inter / union`` every tier computes;
non-candidates have ``sim == 0.0 < theta``.  ``theta == 0`` makes
*every* representative a neighbor of every point (``sim >= 0`` always
holds, matching the dense ``np.where``), so that degenerate case is
answered with constant per-cluster counts instead of candidate
pruning.  Ties in the final argmax break toward the lowest cluster
index in every tier (``np.argmax`` semantics); a cluster without
neighbors scores exactly ``0.0`` while any neighbor count >= 1 scores
``> 0``, which is what lets the native kernel scan only the touched
clusters.

The index is a pure-data object (numpy arrays + the vocabulary dict):
it pickles cleanly, so :func:`repro.serve.parallel.assign_stream`
ships one prebuilt copy to every worker through the pool initializer
instead of rebuilding it per process.  Kernel namespaces hold ctypes
handles and are deliberately *not* stored on the index -- they are
resolved per process and passed into ``assign``.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.labeling import LabelingIndex
from repro.core.neighbors import _scipy_sparse_available

# engine-facing backend names: "auto" resolves to the best available
# tier, the rest force one (forced "native" degrades to "pruned" with
# a warning when no probed kernel offers assign_block)
ASSIGN_BACKENDS = ("auto", "dense", "pruned", "native")


def resolve_assign_backend(requested: str = "auto") -> tuple[str, Any | None]:
    """Resolve a requested assignment backend to ``(tier, kernels)``.

    ``auto`` promotes to ``native`` whenever
    :func:`repro.native.auto_native` holds (a tier passed its probe;
    off under ``REPRO_NATIVE=0``) *and* the probed kernel namespace
    provides ``assign_block``; otherwise it picks ``pruned``.  ``dense`` and
    ``pruned`` never touch the native probe.  The returned ``kernels``
    is ``None`` except for the ``native`` tier.
    """
    if requested not in ASSIGN_BACKENDS:
        raise ValueError(
            f"unknown assign backend {requested!r}; expected one of "
            f"{ASSIGN_BACKENDS}"
        )
    if requested in ("dense", "pruned"):
        return requested, None
    from repro.native import auto_native, get_kernels

    if requested == "native":
        kernels = get_kernels()
        if kernels is not None and hasattr(kernels, "assign_block"):
            return "native", kernels
        warnings.warn(
            "assign_backend='native' requested but no native backend "
            "provides the assign kernel; falling back to 'pruned'",
            RuntimeWarning,
            stacklevel=2,
        )
        return "pruned", None
    # auto: silent best-available choice
    if auto_native():
        kernels = get_kernels()
        if kernels is not None and hasattr(kernels, "assign_block"):
            return "native", kernels
    return "pruned", None


class AssignmentIndex:
    """Item->representative inverted index over a :class:`LabelingIndex`.

    Parameters
    ----------
    index:
        The dense labeling index to mirror.  All derived arrays are
        built once here; the source index is not retained.
    """

    def __init__(self, index: LabelingIndex) -> None:
        self.theta = float(index.theta)
        self.f_theta = float(index.f_theta)
        self.normalisers = np.ascontiguousarray(index.normalisers, dtype=np.float64)
        self.vocabulary = index.vocabulary
        n_reps, vocab = index.rep_matrix.shape
        self.n_reps = n_reps
        self.vocab_size = vocab
        # CSC of the (total_reps, vocab) indicator matrix: transposing
        # first makes np.nonzero emit (item, rep) pairs item-major with
        # ascending rep ids inside each posting list
        items_of, reps_of = np.nonzero(index.rep_matrix.T)
        self.inv_indptr = np.zeros(vocab + 1, dtype=np.int64)
        np.cumsum(np.bincount(items_of, minlength=vocab), out=self.inv_indptr[1:])
        self.inv_reps = np.ascontiguousarray(reps_of, dtype=np.int32)
        # exact integer set sizes (the dense index stores them as
        # float64; the values are small integers either way)
        self.rep_sizes = np.ascontiguousarray(index.rep_sizes, dtype=np.int32)
        rep_cluster = np.empty(n_reps, dtype=np.int32)
        for c, (a, b) in enumerate(index.slices):
            rep_cluster[a:b] = c
        self.rep_cluster = rep_cluster
        self.n_clusters = index.n_clusters
        # |L_c| per cluster: the constant neighbor counts of theta == 0
        self.cluster_rep_counts = np.array(
            [b - a for a, b in index.slices], dtype=np.int64
        )
        self._rep_t = None  # lazily built scipy CSR of the transpose

    # -- pickling (pool payloads) -------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["_rep_t"] = None  # rebuilt lazily in the worker
        return state

    # -- sparse query encoding ----------------------------------------------

    def encode_sparse(
        self, points: Sequence[Any]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-encode a batch: ``(q_indptr, q_items, q_sizes)``.

        ``q_items[q_indptr[b]:q_indptr[b+1]]`` are the in-vocabulary
        column ids of point ``b``; ``q_sizes[b]`` is the point's *true*
        item count -- out-of-vocabulary items intersect nothing but
        still enlarge every union, exactly as in
        :meth:`LabelingIndex.encode`.
        """
        from repro.core.similarity import _as_item_set

        n = len(points)
        q_indptr = np.zeros(n + 1, dtype=np.int64)
        q_sizes = np.zeros(n, dtype=np.int64)
        columns: list[int] = []
        lookup = self.vocabulary.get
        for b, point in enumerate(points):
            items = _as_item_set(point)
            q_sizes[b] = len(items)
            for item in items:
                column = lookup(item)
                if column is not None:
                    columns.append(column)
            q_indptr[b + 1] = len(columns)
        q_items = np.asarray(columns, dtype=np.int32)
        return q_indptr, q_items, q_sizes

    # -- candidate scoring ---------------------------------------------------

    def _candidates(
        self, q_indptr: np.ndarray, q_items: np.ndarray, n_points: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, reps, inter)`` for every point/representative pair
        sharing at least one item.  Intersection counts are exact
        integers; pairs not returned have ``inter == 0``.
        """
        if q_items.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        if _scipy_sparse_available():
            from scipy import sparse

            if self._rep_t is None:
                # CSR of the (vocab, n_reps) transpose: the inverted
                # index arrays *are* its indptr/indices
                self._rep_t = sparse.csr_matrix(
                    (
                        np.ones(self.inv_reps.size, dtype=np.int64),
                        self.inv_reps,
                        self.inv_indptr,
                    ),
                    shape=(self.vocab_size, self.n_reps),
                )
            q = sparse.csr_matrix(
                (np.ones(q_items.size, dtype=np.int64), q_items, q_indptr),
                shape=(n_points, self.vocab_size),
            )
            inter_mat = (q @ self._rep_t).tocsr()
            # searchsorted row recovery, as in SparseTransactionScorer:
            # side="right" walks correctly across empty rows
            pos = np.arange(inter_mat.data.size)
            rows = np.searchsorted(inter_mat.indptr, pos, side="right") - 1
            cols = inter_mat.indices.astype(np.int64, copy=False)
            inter = inter_mat.data.astype(np.int64, copy=False)
            return rows.astype(np.int64, copy=False), cols, inter
        # numpy fallback: gather each query item's posting list with the
        # concatenated-aranges trick, then multiplicity-count the
        # (point, rep) codes -- the multiplicity IS the intersection
        starts = self.inv_indptr[q_items]
        lens = self.inv_indptr[q_items + np.int32(1)] - starts
        total = int(lens.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        point_of_item = np.repeat(
            np.arange(n_points, dtype=np.int64), np.diff(q_indptr)
        )
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        gather = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
        gather += np.repeat(starts, lens)
        reps = self.inv_reps[gather].astype(np.int64, copy=False)
        rows = np.repeat(point_of_item, lens)
        codes, inter = np.unique(rows * self.n_reps + reps, return_counts=True)
        return codes // self.n_reps, codes % self.n_reps, inter.astype(np.int64)

    def neighbor_counts(self, points: Sequence[Any]) -> np.ndarray:
        """``(B, n_clusters)`` neighbor counts, equal to the dense path's."""
        points = list(points)
        q_indptr, q_items, q_sizes = self.encode_sparse(points)
        return self._block_counts(q_indptr, q_items, q_sizes)

    def _block_counts(
        self, q_indptr: np.ndarray, q_items: np.ndarray, q_sizes: np.ndarray
    ) -> np.ndarray:
        n_points = q_sizes.size
        if self.theta <= 0.0:
            # sim >= 0 always holds, so every representative is a
            # neighbor of every point -- constant per-cluster counts
            return np.broadcast_to(
                self.cluster_rep_counts, (n_points, self.n_clusters)
            )
        rows, reps, inter = self._candidates(q_indptr, q_items, n_points)
        counts = np.zeros((n_points, self.n_clusters), dtype=np.int64)
        if rows.size == 0:
            return counts
        # candidates have inter >= 1 hence union >= 1: the dense path's
        # guarded division reduces to this exact float64 quotient
        union = self.rep_sizes[reps] + q_sizes[rows] - inter
        sim = inter.astype(np.float64) / union.astype(np.float64)
        neighbor = sim >= self.theta
        flat = rows[neighbor] * self.n_clusters + self.rep_cluster[reps[neighbor]]
        counts.ravel()[:] = np.bincount(
            flat, minlength=n_points * self.n_clusters
        )
        return counts

    # -- assignment ----------------------------------------------------------

    def assign(
        self,
        points: Sequence[Any],
        block_size: int = 8192,
        kernels: Any | None = None,
    ) -> np.ndarray:
        """Batch-assign; ``-1`` for points with no neighbors anywhere.

        ``kernels`` is a probed :mod:`repro.native` namespace; when it
        provides ``assign_block`` (and ``theta > 0``) the fused native
        kernel runs, otherwise the numpy/scipy pruned path.
        """
        return self.assign_with_scores(points, block_size=block_size, kernels=kernels)[0]

    def assign_with_scores(
        self,
        points: Sequence[Any],
        block_size: int = 8192,
        kernels: Any | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Labels plus each point's winning normalised score.

        Outliers score ``0.0``.  The score array equals
        ``(counts / normalisers)[arange, labels]`` of the dense path --
        the :class:`~repro.stream.runner.StreamClusterer` confidence
        values -- bit for bit.
        """
        points = list(points)
        n = len(points)
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=np.float64)
        use_kernel = (
            kernels is not None
            and getattr(kernels, "assign_block", None) is not None
            and self.theta > 0.0
        )
        for start in range(0, n, max(block_size, 1)):
            block = points[start : start + block_size]
            q_indptr, q_items, q_sizes = self.encode_sparse(block)
            stop = start + len(block)
            if use_kernel:
                labels[start:stop], best[start:stop] = kernels.assign_block(
                    q_indptr,
                    q_items,
                    q_sizes,
                    self.inv_indptr,
                    self.inv_reps,
                    self.rep_sizes,
                    self.rep_cluster,
                    self.normalisers,
                    self.n_clusters,
                    self.theta,
                )
                continue
            counts = self._block_counts(q_indptr, q_items, q_sizes)
            scores = counts / self.normalisers
            block_labels = np.argmax(scores, axis=1)
            block_best = scores[np.arange(len(block)), block_labels]
            outliers = ~counts.any(axis=1)
            block_labels[outliers] = -1
            block_best[outliers] = 0.0
            labels[start:stop] = block_labels
            best[start:stop] = block_best
        return labels, best
