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

from collections.abc import Iterator, Mapping
from typing import Any

import numpy as np

from repro.core.neighbors import NeighborGraph


class LinkTable:
    """Sparse symmetric table of positive link counts, as sorted pair arrays.

    Each linked pair is stored once, as ``lo[k] < hi[k]`` with count
    ``counts[k]``, in increasing order of the pair code ``lo * n + hi``
    -- the form the Figure 4 pair reducers emit and the merge engines
    consume.  Pairs absent from the table have zero links.

    Counts keep the dtype they were built with: int64 for the paper's
    binary links, float64 for the similarity-weighted variant
    (:func:`weighted_link_matrix`); the merge loop consumes either.

    ``pairs`` maps ``(i, j)`` to a count, each unordered pair once in
    either orientation; it is how small tables (the Figure 4 oracle,
    hand-written fixtures) are built.
    """

    def __init__(
        self, n: int, pairs: Mapping[tuple[int, int], float] | None = None
    ) -> None:
        self.n = n
        if not pairs:
            self.lo = np.empty(0, dtype=np.int64)
            self.hi = np.empty(0, dtype=np.int64)
            self.counts = np.empty(0, dtype=np.int64)
            return
        ends = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        lo = ends.min(axis=1)
        hi = ends.max(axis=1)
        if np.any(lo == hi):
            raise ValueError("links are defined between distinct points")
        if lo.min() < 0 or hi.max() >= n:
            raise ValueError("pair indices out of range")
        codes = lo * n + hi
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        if np.any(codes[1:] == codes[:-1]):
            raise ValueError("each unordered pair may appear only once")
        self.lo = lo[order]
        self.hi = hi[order]
        self.counts = np.asarray(list(pairs.values()))[order]

    def get(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("links are defined between distinct points")
        a, b = min(i, j), max(i, j)
        if a < 0 or b >= self.n:
            raise IndexError(f"point index outside [0, {self.n})")
        start, stop = np.searchsorted(self.lo, [a, a + 1])
        pos = start + int(np.searchsorted(self.hi[start:stop], b))
        if pos < stop and self.hi[pos] == b:
            return self.counts[pos].item()
        return 0

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        """Yield each linked pair once as ``(i, j, count)`` with ``i < j``."""
        return zip(self.lo.tolist(), self.hi.tolist(), self.counts.tolist())

    def nnz_pairs(self) -> int:
        """Number of unordered pairs with a positive link count."""
        return int(self.lo.size)

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored ``(lo, hi, counts)`` arrays (do not mutate)."""
        return self.lo, self.hi, self.counts

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n), dtype=self.counts.dtype)
        dense[self.lo, self.hi] = self.counts
        dense[self.hi, self.lo] = self.counts
        return dense

    @classmethod
    def _wrap(
        cls, n: int, lo: np.ndarray, hi: np.ndarray, counts: np.ndarray
    ) -> "LinkTable":
        table = cls(n)
        table.lo, table.hi, table.counts = lo, hi, counts
        return table

    @classmethod
    def from_pair_counts(
        cls, n: int, codes: np.ndarray, counts: np.ndarray
    ) -> "LinkTable":
        """Wrap packed pair codes ``i * n + j`` (``i < j``, strictly increasing).

        The form :func:`repro.parallel.links.merge_pair_counts` and the
        native ``pair_count_reduce`` emit; only the arrays are checked.
        """
        codes = np.asarray(codes, dtype=np.int64)
        counts = np.asarray(counts)
        if codes.shape != counts.shape or codes.ndim != 1:
            raise ValueError("codes and counts must be matching 1-d arrays")
        if codes.size and (codes[0] < 0 or codes[-1] >= n * n):
            raise ValueError("pair codes out of range")
        if np.any(codes[1:] <= codes[:-1]):
            raise ValueError("pair codes must be strictly increasing")
        lo, hi = np.divmod(codes, max(n, 1))
        if np.any(lo >= hi):
            raise ValueError("pair codes must encode i < j")
        return cls._wrap(n, lo, hi, counts)

    def subset(self, indices: "np.ndarray | list[int]") -> "LinkTable":
        """Restrict to ``indices``, reindexed to their positions.

        ``subset(kept)`` after isolated-point pruning equals computing
        links on the pruned subgraph *when the dropped points are
        degree-0*: an isolated point appears in no neighbor list, so it
        participates in no pair increment on either side.
        """
        index = np.asarray(indices, dtype=np.int64).reshape(-1)
        m = index.size
        if np.unique(index).size != m:
            raise ValueError("subset indices must be unique")
        if m and (index.min() < 0 or index.max() >= self.n):
            raise ValueError("subset indices out of range")
        position = np.full(self.n, -1, dtype=np.int64)
        position[index] = np.arange(m, dtype=np.int64)
        a = position[self.lo]
        b = position[self.hi]
        keep = (a >= 0) & (b >= 0)
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.argsort(lo * m + hi, kind="stable")
        return self._wrap(m, lo[order], hi[order], self.counts[keep][order])

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "LinkTable":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("link matrix must be square")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("link matrix must be symmetric")
        if matrix.size and np.diagonal(matrix).any():
            raise ValueError("link matrix must have an empty diagonal")
        lo, hi = np.nonzero(matrix)  # row-major: codes come out sorted
        upper = lo < hi
        lo, hi = lo[upper].astype(np.int64), hi[upper].astype(np.int64)
        return cls._wrap(matrix.shape[0], lo, hi, matrix[lo, hi])

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
    count -- the paper's ``O(n * m_m * m_a)`` bound.  Point ``i``
    contributes +1 to every unordered pair drawn from ``nbrlist[i]``
    (sorted, so each pair is keyed ``(a, b)`` with ``a < b``); the
    increments accumulate in one dict that becomes the table once.
    """
    counts: dict[tuple[int, int], int] = {}
    for neighbors in graph.neighbor_lists():
        nbr = [int(x) for x in neighbors]
        for a_pos, a in enumerate(nbr):
            for b in nbr[a_pos + 1:]:
                counts[a, b] = counts.get((a, b), 0) + 1
    return LinkTable(graph.n, counts)


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
