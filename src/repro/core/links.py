"""Link computation (Sections 3.2 and 4.4, Figure 4).

``link(p_i, p_j)`` is the number of common neighbors of ``p_i`` and
``p_j`` -- equivalently, the number of distinct paths of length 2
between them in the neighbor graph.  The paper gives two computation
strategies:

* view the problem as squaring the boolean adjacency matrix ``A``
  (Section 4.4, first paragraph) -- implemented by
  :func:`dense_link_matrix` with one numpy integer matrix product;
* the sparse neighbor-list algorithm of Figure 4, which for every point
  increments the link count of every pair of its neighbors -- cost
  ``O(sum_i m_i^2)`` -- implemented by :func:`sparse_link_table`.

Both return the same counts; the equivalence is property-tested.

As an extension (the paper's Section 3.2 sketches "alternative
definitions for links, based on paths of length 3 or more"),
:func:`path_link_matrix` counts simple paths of length 3, used by the
link-order ablation bench.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.core.neighbors import NeighborGraph


class LinkTable:
    """Sparse symmetric table of positive link counts.

    Stores, for every point ``i``, a dict of ``j -> link(i, j)`` for the
    points ``j`` with at least one common neighbor.  Pairs absent from
    the table have zero links.  Both directions are stored so lookups
    and row iteration are O(1)/O(row).

    Counts are integers for the paper's binary links and floats for the
    similarity-weighted variant (:func:`weighted_link_matrix`); the
    merge loop consumes either.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._rows: list[dict[int, float]] = [dict() for _ in range(n)]

    def increment(self, i: int, j: int, amount: float = 1) -> None:
        if i == j:
            raise ValueError("links are defined between distinct points")
        self._rows[i][j] = self._rows[i].get(j, 0) + amount
        self._rows[j][i] = self._rows[j].get(i, 0) + amount

    def get(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("links are defined between distinct points")
        return self._rows[i].get(j, 0)

    def row(self, i: int) -> dict[int, float]:
        """Positive-link partners of point ``i`` (do not mutate)."""
        return self._rows[i]

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        """Yield each linked pair once as ``(i, j, count)`` with ``i < j``."""
        for i, row in enumerate(self._rows):
            for j, count in row.items():
                if i < j:
                    yield i, j, count

    def nnz_pairs(self) -> int:
        """Number of unordered pairs with a positive link count."""
        return sum(len(row) for row in self._rows) // 2

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every linked pair as ``(i, j, counts)`` arrays with ``i < j``.

        Pairs appear in the same order :meth:`pairs` yields them (row
        by row); one O(pairs) pass, no ``n x n`` intermediate.  The
        vectorized entry point for the fast merge engine.
        """
        total = self.nnz_pairs()
        i_arr = np.empty(total, dtype=np.int64)
        j_arr = np.empty(total, dtype=np.int64)
        counts = np.empty(total, dtype=np.float64)
        pos = 0
        for i, row in enumerate(self._rows):
            for j, count in row.items():
                if i < j:
                    i_arr[pos] = i
                    j_arr[pos] = j
                    counts[pos] = count
                    pos += 1
        return i_arr, j_arr, counts

    def to_dense(self) -> np.ndarray:
        integral = all(
            float(count).is_integer() for _, _, count in self.pairs()
        )
        dtype = np.int64 if integral else np.float64
        dense = np.zeros((self.n, self.n), dtype=dtype)
        for i, j, count in self.pairs():
            dense[i, j] = dense[j, i] = count
        return dense

    @classmethod
    def from_pair_counts(
        cls, n: int, codes: np.ndarray, counts: np.ndarray
    ) -> "LinkTable":
        """Build a table from packed pair codes ``i * n + j`` (``i < j``).

        The inverse of :func:`repro.parallel.links.pair_link_counts` /
        ``merge_pair_counts``: one dict store per linked pair instead of
        one per increment.
        """
        codes = np.asarray(codes, dtype=np.int64)
        counts = np.asarray(counts)
        if codes.shape != counts.shape or codes.ndim != 1:
            raise ValueError("codes and counts must be matching 1-d arrays")
        if codes.size and (codes.min() < 0 or codes.max() >= n * n):
            raise ValueError("pair codes out of range")
        table = cls(n)
        rows = table._rows
        i_indices = codes // n
        j_indices = codes % n
        if np.any(i_indices >= j_indices):
            raise ValueError("pair codes must encode i < j")
        for i, j, count in zip(
            i_indices.tolist(), j_indices.tolist(), counts.tolist()
        ):
            rows[i][j] = count
            rows[j][i] = count
        return table

    def subset(self, indices: "np.ndarray | list[int]") -> "LinkTable":
        """Restrict to ``indices``, reindexed to their positions.

        ``subset(kept)`` after isolated-point pruning equals computing
        links on the pruned subgraph *when the dropped points are
        degree-0*: an isolated point appears in no neighbor list, so it
        participates in no pair increment on either side.
        """
        index_list = [int(i) for i in indices]
        remap = {old: new for new, old in enumerate(index_list)}
        if len(remap) != len(index_list):
            raise ValueError("subset indices must be unique")
        table = LinkTable(len(index_list))
        for new_i, old_i in enumerate(index_list):
            row: dict[int, float] = {}
            for old_j, count in self._rows[old_i].items():
                new_j = remap.get(old_j)
                if new_j is not None:
                    row[new_j] = count
            table._rows[new_i] = row
        return table

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "LinkTable":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("link matrix must be square")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("link matrix must be symmetric")
        if matrix.size and np.diagonal(matrix).any():
            raise ValueError("link matrix must have an empty diagonal")
        table = cls(matrix.shape[0])
        for i in range(matrix.shape[0]):
            row = matrix[i]
            partners = np.flatnonzero(row)
            if partners.size:
                table._rows[i] = dict(
                    zip(partners.tolist(), row[partners].tolist())
                )
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkTable(n={self.n}, linked_pairs={self.nnz_pairs()})"


def dense_link_matrix(graph: NeighborGraph) -> np.ndarray:
    """Link counts as the square of the adjacency matrix (Section 4.4).

    With a hollow adjacency ``A``, ``(A @ A)[i, j]`` counts the common
    neighbors of ``i`` and ``j`` exactly: every walk ``i -> k -> j``
    has ``k != i`` and ``k != j`` because the diagonal is empty.  The
    diagonal of the product (each point's degree) is zeroed since
    ``link(p, p)`` is not defined by the paper.
    """
    # float64 matmul hits BLAS (int64 does not); 0/1 products are exact
    a = graph.adjacency.astype(np.float64)
    links = np.rint(a @ a).astype(np.int64)
    np.fill_diagonal(links, 0)
    return links


def sparse_link_table(graph: NeighborGraph) -> LinkTable:
    """The Figure 4 algorithm: every point links each pair of its neighbors.

    Cost is ``O(sum_i m_i^2)`` where ``m_i`` is point ``i``'s neighbor
    count -- the paper's ``O(n * m_m * m_a)`` bound.  The inner pair loop
    is vectorised per point: the contribution of point ``i`` is +1 to
    every unordered pair drawn from ``nbrlist[i]``.
    """
    table = LinkTable(graph.n)
    rows = table._rows
    for neighbors in graph.neighbor_lists():
        m = len(neighbors)
        if m < 2:
            continue
        nbr = [int(x) for x in neighbors]
        for a_pos in range(m - 1):
            a = nbr[a_pos]
            row_a = rows[a]
            for b_pos in range(a_pos + 1, m):
                b = nbr[b_pos]
                row_a[b] = row_a.get(b, 0) + 1
                row_b = rows[b]
                row_b[a] = row_b.get(a, 0) + 1
    return table


def compute_links(
    graph: NeighborGraph,
    method: str = "auto",
    registry: Any | None = None,
) -> LinkTable:
    """Compute the link table, picking dense vs sparse by expected cost.

    ``auto`` uses the Figure 4 sparse algorithm when the pair-increment
    work ``sum_i m_i^2`` is small relative to the ``n^2`` (scaled by a
    constant reflecting numpy's matmul advantage) of the dense product,
    and the dense matrix square otherwise.  A sparse-backed graph (the
    blocked neighbor kernel's) always stays sparse unless ``dense`` is
    forced -- the whole point of that kernel is that no ``n x n`` array
    ever exists.  ``dense`` / ``sparse`` force a path; both return
    identical counts.  A ``registry``
    (:class:`~repro.obs.registry.MetricsRegistry`) receives the linked
    pair count.
    """
    if method not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        if not graph.has_dense:
            method = "sparse"
        else:
            degrees = graph.degrees()
            pair_work = int(np.sum(degrees.astype(np.float64) ** 2))
            # the dense path is one BLAS matrix square (cheap until the
            # n x n product itself dominates memory); the sparse path
            # costs one Python dict increment per neighbor pair
            method = "sparse" if pair_work < 4 * graph.n * graph.n else "dense"
    if method == "sparse":
        table = sparse_link_table(graph)
    else:
        table = LinkTable.from_dense(dense_link_matrix(graph))
    if registry is not None:
        registry.inc("fit.links.pairs", table.nnz_pairs())
    return table


def weighted_link_matrix(
    graph: NeighborGraph, similarity: np.ndarray
) -> np.ndarray:
    """Similarity-weighted links (a Section 3.2 'alternative definition').

    The binary link counts every common neighbor equally; the weighted
    variant credits each common neighbor ``z`` of ``(p, q)`` with
    ``sim(p, z) * sim(z, q)``, so barely-over-threshold neighbors
    contribute less than strong ones:

        L_w[p, q] = sum_z  A[p, z] A[z, q] sim(p, z) sim(z, q)
                  = (W @ W)[p, q]   with  W = A * sim.

    With an all-ones similarity this reduces exactly to
    :func:`dense_link_matrix` (property-tested).  Returned as a float
    matrix; :class:`LinkTable` and the merge loop accept float counts,
    so ``LinkTable.from_dense(weighted_link_matrix(...))`` feeds
    :func:`repro.core.rock.cluster_with_links` directly.  Ablation A7
    measures what the weighting buys on noisy cluster boundaries.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    if similarity.shape != graph.adjacency.shape:
        raise ValueError(
            "similarity matrix shape does not match the neighbor graph"
        )
    w = graph.adjacency * similarity
    links = w @ w
    links = (links + links.T) / 2.0  # exact symmetry against BLAS rounding
    np.fill_diagonal(links, 0.0)
    return links


def path_link_matrix(graph: NeighborGraph, length: int = 2) -> np.ndarray:
    """Counts of simple paths of the given length between every pair.

    ``length=2`` reproduces :func:`dense_link_matrix`.  ``length=3``
    implements the paper's sketched alternative link definition: the
    number of distinct (simple) paths ``i - a - b - j`` with consecutive
    neighbors.  Walk counts from ``A^3`` are corrected for the two ways
    a length-3 walk can revisit an endpoint (``a = j`` or ``b = i``),
    which overlap exactly when the walk is ``i - j - i - j``:

    ``P3[i,j] = A^3[i,j] - A[i,j] * (deg(i) + deg(j) - 1)``.
    """
    if length == 2:
        return dense_link_matrix(graph)
    if length != 3:
        raise ValueError("only path lengths 2 and 3 are supported")
    a = graph.adjacency.astype(np.int64)
    a3 = a @ a @ a
    deg = graph.degrees()
    correction = a * (deg[:, None] + deg[None, :] - 1)
    paths = a3 - correction
    np.fill_diagonal(paths, 0)
    return paths
