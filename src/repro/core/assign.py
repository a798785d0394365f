"""The production §4.6 labeling path: an item -> representative index.

Section 4.6 labels each point left out of the sample with the cluster
maximising ``N_i / (|L_i| + 1)^{f(theta)}``, ``N_i`` being the point's
neighbors in the representative set ``L_i``.  At ``theta > 0`` a point
can only neighbor representatives it shares an item with, and real
categorical points touch a handful of the vocabulary, so
:class:`AssignmentIndex` builds flat posting lists (``inv_indptr`` /
``inv_reps``, ascending representative ids per item) straight from the
labeling sets, plus exact per-representative sizes and cluster ids and
the per-cluster normalisers.  ``assign`` encodes each query block as a
sparse CSR, gathers each point's candidates from the posting lists and
scores **only candidates**; points with none label ``-1`` at once.

The pipeline's label phase, :class:`~repro.serve.engine.AssignmentEngine`,
:func:`~repro.serve.parallel.assign_stream` and
:class:`~repro.stream.runner.StreamClusterer` all label through this
module, and :func:`build_assignment_index` decides for all of them
whether a labeling is indexable (plain Jaccard over item-set-like
representatives).  Anything else runs the scalar
:class:`~repro.core.labeling.ClusterLabeler`, which is also the oracle
every tier is property-tested against.  Two scoring tiers share the
index:

``pruned``
    Candidate gather via a scipy CSR x CSR product (``searchsorted``
    row recovery, as in :class:`~repro.core.neighbors.SparseTransactionScorer`),
    or a pure-numpy posting-list gather when scipy is unavailable.
``native``
    The ``assign_block`` kernel of :mod:`repro.native` fusing gather,
    threshold test and best-cluster argmax in one pass; pass the probed
    kernel namespace into :meth:`AssignmentIndex.assign`.

Why the tiers equal the oracle bit for bit: intersections are small
integers (exact in float64), and a candidate pair has ``inter >= 1``,
hence ``union >= 1``, so the oracle's guarded ``inter / max(union,
1e-300)`` is the plain ``inter / union`` every tier computes;
non-candidates have ``sim == 0.0 < theta``.  At ``theta == 0`` every
representative neighbors every point, answered with constant
per-cluster counts.  Argmax ties break toward the lowest cluster index
everywhere; a cluster without neighbors scores exactly ``0.0`` and any
neighbor count >= 1 scores ``> 0``, which lets the native kernel scan
only the touched clusters.

The index is pure data (numpy arrays + the vocabulary dict), so it
pickles: :func:`~repro.serve.parallel.assign_stream` ships one prebuilt
copy to every worker.  Kernel namespaces hold ctypes handles and are
resolved per process, never stored on the index.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.labeling import compute_normalisers
from repro.core.neighbors import _scipy_sparse_available
from repro.core.similarity import (
    JaccardSimilarity,
    SimilarityFunction,
    _as_item_set,
)

# "auto" resolves to the best available tier, the rest force one
ASSIGN_BACKENDS = ("auto", "pruned", "native")


def resolve_assign_backend(requested: str = "auto") -> tuple[str, Any | None]:
    """Resolve a requested assignment backend to ``(tier, kernels)``.

    ``auto`` promotes to ``native`` whenever
    :func:`repro.native.auto_native` holds (a tier passed its probe;
    off under ``REPRO_NATIVE=0``) *and* the probed kernel namespace
    provides ``assign_block``; otherwise it picks ``pruned``.
    ``pruned`` never touches the native probe.  The returned
    ``kernels`` is ``None`` except for the ``native`` tier.
    """
    if requested not in ASSIGN_BACKENDS:
        raise ValueError(
            f"unknown assign backend {requested!r}; expected one of "
            f"{ASSIGN_BACKENDS}"
        )
    if requested == "pruned":
        return "pruned", None
    from repro.native import auto_native, get_kernels

    if requested == "native" or auto_native():
        kernels = get_kernels()
        if kernels is not None and hasattr(kernels, "assign_block"):
            return "native", kernels
    if requested == "native":
        warnings.warn(
            "assign_backend='native' requested but no native backend "
            "provides the assign kernel; falling back to 'pruned'",
            RuntimeWarning,
            stacklevel=2,
        )
    return "pruned", None


def build_assignment_index(
    labeling_sets: Sequence[Sequence[Any]],
    theta: float,
    f_theta: float,
    similarity: SimilarityFunction | None = None,
) -> "AssignmentIndex | None":
    """The index for a labeling, or ``None`` when it is not indexable:
    a similarity other than plain Jaccard (``None`` is the default
    Jaccard), or a representative that is not item-set-like."""
    if similarity is not None and not isinstance(similarity, JaccardSimilarity):
        return None
    try:
        return AssignmentIndex(labeling_sets, theta, f_theta)
    except TypeError:
        return None


class AssignmentIndex:
    """Item->representative inverted index over the labeling sets ``L_i``.

    Parameters
    ----------
    labeling_sets:
        One list of item-set-like representatives per cluster; a set
        may be empty (its cluster never wins).  Raises ``TypeError``
        for representatives that are not item-set-like.
    theta:
        The neighbor threshold.
    f_theta:
        The evaluated ``f(theta)`` of the normalisers.
    """

    def __init__(
        self,
        labeling_sets: Sequence[Sequence[Any]],
        theta: float,
        f_theta: float,
    ) -> None:
        rep_sets = [[_as_item_set(rep) for rep in li] for li in labeling_sets]
        self.theta = float(theta)
        self.f_theta = float(f_theta)
        self.normalisers = compute_normalisers(rep_sets, self.f_theta)
        self.n_clusters = len(rep_sets)
        # |L_c| per cluster: the constant neighbor counts of theta == 0
        self.cluster_rep_counts = np.array(
            [len(li) for li in rep_sets], dtype=np.int64
        )
        reps = [items for li in rep_sets for items in li]
        self.n_reps = len(reps)
        self.rep_sizes = np.array([len(items) for items in reps], dtype=np.int32)
        self.rep_cluster = np.repeat(
            np.arange(self.n_clusters, dtype=np.int32), self.cluster_rep_counts
        )
        # the item column of every (rep, item) pair, rep-major: a stable
        # sort by item leaves each posting list in ascending rep order
        vocabulary: dict[Any, int] = {}
        items_of = np.array([
            vocabulary.setdefault(item, len(vocabulary))
            for items in reps for item in items
        ], dtype=np.int64)
        self.vocabulary = vocabulary
        self.vocab_size = vocab = max(len(vocabulary), 1)
        self.inv_indptr = np.zeros(vocab + 1, dtype=np.int64)
        np.cumsum(np.bincount(items_of, minlength=vocab), out=self.inv_indptr[1:])
        reps_of = np.repeat(np.arange(self.n_reps, dtype=np.int32), self.rep_sizes)
        self.inv_reps = reps_of[np.argsort(items_of, kind="stable")]
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
        still enlarge every union.
        """
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
        """``(B, n_clusters)`` neighbor counts ``N_i``, equal to the oracle's."""
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
        # candidates have inter >= 1 hence union >= 1: the oracle's
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
        kernel runs, otherwise the numpy/scipy pruned path.  Blocks of
        ``block_size >= 1`` rows are scored at a time.
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
        ``(counts / normalisers)[arange, labels]`` of the oracle's
        neighbor counts -- the :class:`~repro.stream.runner.StreamClusterer`
        confidence values -- bit for bit.
        """
        if block_size < 1:
            raise ValueError("block_size must be positive")
        points = list(points)
        n = len(points)
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=np.float64)
        use_kernel = (
            kernels is not None
            and getattr(kernels, "assign_block", None) is not None
            and self.theta > 0.0
        )
        for start in range(0, n, block_size):
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
