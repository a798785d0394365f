"""The disk-labeling phase (Section 4.6, "Labeling Data on Disk").

After clustering a random sample, the remaining database is assigned to
the discovered clusters:

1. draw a fraction of points ``L_i`` from each cluster ``i``;
2. stream the original data set; each point ``p`` with ``N_i``
   neighbors in ``L_i`` is assigned to the cluster maximising the
   normalised count ``N_i / (|L_i| + 1)^{f(theta)}`` -- the denominator
   is the expected number of neighbors ``p`` would have in ``L_i`` were
   it a member of cluster ``i``.

A point with zero neighbors in every labeling set is an outlier and
receives the label ``-1``.

:class:`ClusterLabeler` is the per-point reference implementation of
that rule -- the oracle the batch path is property-tested against, and
the labeler for similarities the batch path cannot index.  Production
labeling (the pipeline's label phase, the serving engine, the stream
runner) runs the inverted index of :mod:`repro.core.assign`.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.core.goodness import default_f
from repro.core.similarity import JaccardSimilarity, SimilarityFunction


def labels_from_clusters(
    clusters: Sequence[Sequence[int]], n: int
) -> np.ndarray:
    """Per-point cluster index from a cluster list; ``-1`` = unassigned.

    ``labels[p] = c`` for every ``p`` in ``clusters[c]``, vectorised
    with one fancy-indexed assignment per cluster.  The shared
    implementation behind every ``labels()``/``labels`` accessor
    (``RockResult``, the pipeline, the baseline clusterers), replacing
    nine copy-pasted per-point loops.
    """
    labels = np.full(n, -1, dtype=np.int64)
    for c, members in enumerate(clusters):
        if len(members):
            labels[np.asarray(members, dtype=np.int64)] = c
    return labels


def compute_normalisers(
    labeling_sets: Sequence[Sequence[Any]], f_theta: float
) -> np.ndarray:
    """The per-cluster denominators ``(|L_i| + 1)^{f(theta)}``.

    An *empty* labeling set -- legal when a shard or a weeded cluster
    contributed no representatives -- normalises by ``(0+1)^f = 1``; its
    neighbor count is always 0, so its score is always 0 and it can
    never win an assignment (points without neighbors anywhere are
    outliers before scores are compared).
    """
    return np.array([(len(li) + 1.0) ** f_theta for li in labeling_sets])


class LabelingIndex:
    """Dense indicator-matrix view of the labeling sets (the Jaccard oracle).

    All representatives are encoded once into a ``(total_reps, vocab)``
    0/1 matrix, so :meth:`neighbor_counts` scores a batch of ``B``
    points with one ``(B, vocab) @ (vocab, total_reps)`` product.  It
    backs :class:`ClusterLabeler`'s Jaccard path and is the dense
    reference the inverted index of :mod:`repro.core.assign` is tested
    against.  Only item-set-like points (transactions, sets,
    categorical records) can be indexed; the constructor raises
    ``TypeError`` otherwise, and the labeler falls back to the scalar
    similarity path.
    """

    def __init__(
        self,
        labeling_sets: Sequence[Sequence[Any]],
        theta: float,
        f_theta: float,
    ) -> None:
        from repro.core.similarity import _as_item_set

        rep_sets = [[_as_item_set(rep) for rep in li] for li in labeling_sets]
        self.theta = theta
        self.f_theta = f_theta
        self.normalisers = compute_normalisers(labeling_sets, f_theta)
        vocabulary: dict[Any, int] = {}
        for li in rep_sets:
            for items in li:
                for item in items:
                    vocabulary.setdefault(item, len(vocabulary))
        total = sum(len(li) for li in rep_sets)
        matrix = np.zeros((total, max(len(vocabulary), 1)), dtype=np.float64)
        sizes = np.zeros(total, dtype=np.float64)
        slices: list[tuple[int, int]] = []
        row = 0
        for li in rep_sets:
            start = row
            for items in li:
                for item in items:
                    matrix[row, vocabulary[item]] = 1.0
                sizes[row] = len(items)
                row += 1
            slices.append((start, row))
        self.vocabulary = vocabulary
        self.rep_matrix = matrix
        self.rep_sizes = sizes
        self.slices = slices

    @property
    def n_clusters(self) -> int:
        return len(self.slices)

    def encode(self, points: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
        """Batch of points as a ``(B, vocab)`` 0/1 matrix plus true set sizes.

        Items outside the representative vocabulary cannot intersect any
        ``L_i`` member, so they contribute no column -- but they still
        enlarge the union, hence the separately returned exact sizes.
        """
        from repro.core.similarity import _as_item_set

        matrix = np.zeros((len(points), self.rep_matrix.shape[1]), dtype=np.float64)
        sizes = np.zeros(len(points), dtype=np.float64)
        lookup = self.vocabulary.get
        rows: list[int] = []
        columns: list[int] = []
        for b, point in enumerate(points):
            items = _as_item_set(point)
            sizes[b] = len(items)
            for item in items:
                column = lookup(item)
                if column is not None:
                    rows.append(b)
                    columns.append(column)
        # one fancy-index write beats len(rows) scalar __setitem__ calls
        matrix[rows, columns] = 1.0
        return matrix, sizes

    def neighbor_counts(self, points: Sequence[Any]) -> np.ndarray:
        """``(B, n_clusters)`` matrix of per-cluster neighbor counts ``N_i``."""
        matrix, point_sizes = self.encode(points)
        inter = matrix @ self.rep_matrix.T
        union = self.rep_sizes[None, :] + point_sizes[:, None] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(union > 0, inter / np.maximum(union, 1e-300), 0.0)
        is_neighbor = sim >= self.theta
        counts = np.zeros((len(points), self.n_clusters), dtype=np.int64)
        for c, (a, b) in enumerate(self.slices):
            if b > a:
                counts[:, c] = is_neighbor[:, a:b].sum(axis=1)
        return counts


class ClusterLabeler:
    """Assigns points to clusters via normalised neighbor counts in L_i sets.

    Parameters
    ----------
    labeling_sets:
        One list of representative points per cluster (the ``L_i``).
        Individual sets may be empty (their cluster simply never wins an
        assignment); at least one set must be non-empty.
    theta:
        The neighbor threshold used during clustering.
    similarity:
        The similarity function used during clustering (default Jaccard).
    f:
        The ``f(theta)`` estimate; the default is the market-basket
        heuristic of Section 3.3.
    """

    def __init__(
        self,
        labeling_sets: Sequence[Sequence[Any]],
        theta: float,
        similarity: SimilarityFunction | None = None,
        f: Callable[[float], float] = default_f,
    ) -> None:
        if not labeling_sets:
            raise ValueError("need at least one cluster labeling set")
        if all(len(li) == 0 for li in labeling_sets):
            raise ValueError("at least one labeling set must be non-empty")
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        self.labeling_sets = [list(li) for li in labeling_sets]
        self.theta = theta
        self.similarity = similarity if similarity is not None else JaccardSimilarity()
        self.f_theta = f(theta)
        self._normalisers = compute_normalisers(self.labeling_sets, self.f_theta)
        # the dense Jaccard index, or None for the scalar similarity path
        self.index: LabelingIndex | None = None
        if isinstance(self.similarity, JaccardSimilarity):
            try:
                self.index = LabelingIndex(
                    self.labeling_sets, self.theta, self.f_theta
                )
            except TypeError:
                pass  # representatives are not item-set-like

    def neighbor_counts(self, point: Any) -> np.ndarray:
        """``N_i``: how many members of each ``L_i`` are neighbors of ``point``."""
        if self.index is not None:
            return self.index.neighbor_counts([point])[0]
        counts = np.zeros(len(self.labeling_sets), dtype=np.int64)
        for i, li in enumerate(self.labeling_sets):
            counts[i] = sum(
                1 for rep in li if self.similarity(point, rep) >= self.theta
            )
        return counts

    def scores(self, point: Any) -> np.ndarray:
        """The normalised per-cluster assignment scores for one point."""
        return self.neighbor_counts(point) / self._normalisers

    def assign(self, point: Any) -> int:
        """Cluster index for a point, or -1 when it has no neighbors anywhere."""
        counts = self.neighbor_counts(point)
        if not counts.any():
            return -1
        return int(np.argmax(counts / self._normalisers))

    def assign_all(self, points: Iterable[Any]) -> np.ndarray:
        """Label a stream of points (the sequential disk scan of §4.6)."""
        return np.array([self.assign(p) for p in points], dtype=np.int64)


def draw_labeling_sets(
    clusters: Sequence[Sequence[int]],
    points: Sequence[Any],
    fraction: float = 0.25,
    min_points: int = 1,
    rng: random.Random | int | None = None,
) -> list[list[Any]]:
    """Draw the per-cluster labeling fraction ``L_i`` from clustered sample points.

    Parameters
    ----------
    clusters:
        Clusters as lists of indices into ``points``.
    points:
        The sampled points that were clustered.
    fraction:
        Fraction of each cluster to use for labeling, in (0, 1].
    min_points:
        Lower bound on ``|L_i|`` so tiny clusters still label.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if min_points < 1:
        raise ValueError("min_points must be at least 1")
    if isinstance(rng, random.Random):
        generator = rng
    else:
        generator = random.Random(rng)
    labeling_sets: list[list[Any]] = []
    for cluster in clusters:
        if not cluster:
            raise ValueError("clusters must be non-empty")
        size = max(min_points, int(round(fraction * len(cluster))))
        size = min(size, len(cluster))
        chosen = generator.sample(list(cluster), size)
        labeling_sets.append([points[i] for i in sorted(chosen)])
    return labeling_sets
