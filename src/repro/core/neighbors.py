"""Neighbor computation (Section 3.1).

A pair of points are *neighbors* when ``sim(p_i, p_j) >= theta`` for a
user-chosen threshold ``theta`` in [0, 1].  The neighbor relation over a
point set is captured by a :class:`NeighborGraph` -- a symmetric
self-loop-free graph stored either as a dense boolean adjacency or as
per-point sorted neighbor lists (the Section 4.5 ``nbrlist`` view).

A point is **not** its own neighbor here.  The paper's Example 1.2
counts 5 common neighbors for the pair ({1,2,3}, {1,2,4}) -- a count
that excludes the two endpoints themselves -- so the operative neighbor
lists used by link computation must exclude self-loops (otherwise each
adjacent pair would gain two spurious links from its own endpoints).

Three computation paths are provided:

* a **vectorised** path for datasets whose similarity exposes a
  ``pairwise`` bulk method (Jaccard over transactions, missing-aware
  Jaccard over records) -- set intersections become one integer matrix
  product, mirroring the adjacency-matrix view of Section 4.4;
* a **blocked** path (:func:`blocked_neighbor_graph`) computing the
  same similarity one row-block at a time and emitting sparse neighbor
  lists, so the dense ``n x n`` similarity matrix never exists -- the
  only path whose peak memory is ``O(block_size * n)`` instead of
  ``O(n^2)``;
* a **generic** O(n^2) path calling ``sim(a, b)`` pairwise, which works
  for any :class:`~repro.core.similarity.SimilarityFunction` including
  domain-expert similarity tables.

``compute_neighbor_graph(method="auto")`` picks the blocked path
automatically whenever the dense similarity matrix would not fit the
``memory_budget`` (default :data:`DEFAULT_MEMORY_BUDGET`) and the
similarity/dataset pair supports blocking; the three paths produce
identical graphs (property-tested).  The graph consumers (QROCK
components, DBSCAN) rely on that; the ROCK fit itself never builds the
graph over budget -- it runs the fused neighbor+link pass of
:func:`repro.parallel.links.fused_neighbor_links` instead.

The per-block math lives in the picklable :class:`BlockScorer` objects
built by :func:`build_block_scorer`, which the blocked graph kernel,
the fused pass and the sharded fit share, over the row-block schedule
of :func:`block_tasks` / :func:`worker_block_size`: block scoring is
row-independent and exact (integer intersections below 2**24, one
float64 division), so every path produces bit-identical neighbor
lists for any block size or worker count.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.similarity import JaccardSimilarity, OverlapSimilarity, SimilarityFunction
from repro.data.records import CategoricalDataset, CategoricalRecord
from repro.data.transactions import TransactionDataset

# Dense-intermediate budget (bytes) used by the ``auto`` method choice
# and as the default blocked-kernel working-set bound: one n x n float64
# similarity matrix must fit, or the blocked path takes over.
DEFAULT_MEMORY_BUDGET = 1 << 30

# A sparse-backed graph refuses to synthesize a dense adjacency bigger
# than this (bytes) -- consumers that truly need the dense view at that
# scale should not exist on the blocked path.
DENSIFY_LIMIT = 1 << 30


def dense_similarity_bytes(n: int) -> int:
    """Bytes of the dense ``n x n`` float64 similarity matrix."""
    return 8 * n * n


class NeighborGraph:
    """Symmetric neighbor relation over points ``0 .. n-1``.

    Backed either by a dense ``(n, n)`` boolean adjacency (validated
    symmetric and hollow) or by per-point sorted neighbor-index lists
    (:meth:`from_neighbor_lists`, produced by the blocked kernel).  The
    two representations are interchangeable: ``neighbor_lists()`` is
    derived lazily from a dense backing, and ``adjacency`` is
    synthesized lazily from a sparse backing -- but only while
    ``n^2`` bytes stay under :data:`DENSIFY_LIMIT`, so the blocked fit
    path can never accidentally materialise the quadratic matrix.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` boolean array.  It is validated to be symmetric and
        hollow (zero diagonal).
    theta:
        The similarity threshold that produced the graph (recorded for
        provenance; used by downstream goodness defaults).
    """

    def __init__(self, adjacency: np.ndarray, theta: float | None = None) -> None:
        adjacency = np.asarray(adjacency, dtype=bool)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adjacency.size and adjacency.diagonal().any():
            raise ValueError("adjacency must have an empty diagonal (no self loops)")
        if not np.array_equal(adjacency, adjacency.T):
            raise ValueError("adjacency must be symmetric")
        self._adjacency: np.ndarray | None = adjacency
        self._n = adjacency.shape[0]
        self.theta = theta
        self._neighbor_lists: list[np.ndarray] | None = None

    @classmethod
    def from_neighbor_lists(
        cls,
        neighbor_lists: Sequence[np.ndarray | Sequence[int]],
        theta: float | None = None,
        validate: bool = True,
    ) -> "NeighborGraph":
        """Build a sparse-backed graph from per-point neighbor lists.

        ``neighbor_lists[i]`` holds the sorted indices of point ``i``'s
        neighbors.  With ``validate`` the lists are checked to be
        in-range, sorted, self-loop-free and mutual (``j`` listing ``i``
        whenever ``i`` lists ``j``) -- an O(E log E) pass; internal
        callers whose construction is symmetric by design skip it.
        """
        lists = [np.asarray(lst, dtype=np.int64) for lst in neighbor_lists]
        n = len(lists)
        if validate:
            for i, lst in enumerate(lists):
                if lst.size == 0:
                    continue
                if lst.min() < 0 or lst.max() >= n:
                    raise ValueError(f"neighbor index out of range in list {i}")
                if np.any(np.diff(lst) <= 0):
                    raise ValueError(f"neighbor list {i} must be strictly sorted")
                if np.searchsorted(lst, i) < lst.size and lst[np.searchsorted(lst, i)] == i:
                    raise ValueError(f"point {i} lists itself as a neighbor")
            for i, lst in enumerate(lists):
                for j in lst.tolist():
                    other = lists[j]
                    pos = np.searchsorted(other, i)
                    if pos >= other.size or other[pos] != i:
                        raise ValueError(
                            f"asymmetric neighbor lists: {i} lists {j} "
                            f"but not vice versa"
                        )
        graph = cls.__new__(cls)
        graph._adjacency = None
        graph._neighbor_lists = lists
        graph._n = n
        graph.theta = theta
        return graph

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self.n

    @property
    def has_dense(self) -> bool:
        """Whether the dense adjacency is already materialised."""
        return self._adjacency is not None

    @property
    def adjacency(self) -> np.ndarray:
        """The boolean adjacency matrix (do not mutate).

        Synthesized lazily for sparse-backed graphs; refuses when the
        ``n x n`` matrix would exceed :data:`DENSIFY_LIMIT` bytes.
        """
        if self._adjacency is None:
            if self._n * self._n > DENSIFY_LIMIT:
                raise ValueError(
                    f"refusing to densify a {self._n}x{self._n} sparse "
                    "neighbor graph (would exceed the densify limit); use "
                    "neighbor_lists() / degrees() instead"
                )
            adjacency = np.zeros((self._n, self._n), dtype=bool)
            assert self._neighbor_lists is not None
            for i, neighbors in enumerate(self._neighbor_lists):
                adjacency[i, neighbors] = True
            self._adjacency = adjacency
        return self._adjacency

    def neighbor_lists(self) -> list[np.ndarray]:
        """``nbrlist[i]`` of Figure 4: sorted neighbor indices per point."""
        if self._neighbor_lists is None:
            assert self._adjacency is not None
            self._neighbor_lists = [
                np.flatnonzero(row) for row in self._adjacency
            ]
        return self._neighbor_lists

    def degrees(self) -> np.ndarray:
        """Number of neighbors of each point."""
        if self._neighbor_lists is not None:
            return np.array([lst.size for lst in self._neighbor_lists], dtype=np.int64)
        assert self._adjacency is not None
        return self._adjacency.sum(axis=1, dtype=np.int64)

    def edge_count(self) -> int:
        """Number of undirected neighbor edges."""
        return int(self.degrees().sum()) // 2

    def are_neighbors(self, i: int, j: int) -> bool:
        if self._adjacency is not None:
            return bool(self._adjacency[i, j])
        assert self._neighbor_lists is not None
        lst = self._neighbor_lists[i]
        pos = int(np.searchsorted(lst, j))
        return pos < lst.size and int(lst[pos]) == j

    def isolated_points(self) -> np.ndarray:
        """Indices of points with zero neighbors (outlier candidates, §4.6)."""
        return np.flatnonzero(self.degrees() == 0)

    def subgraph(self, indices: Sequence[int]) -> "NeighborGraph":
        """The induced neighbor graph on a subset of points (reindexed).

        Preserves the backing representation: a sparse-backed graph
        yields a sparse-backed subgraph (the blocked fit path prunes
        outliers without ever densifying).
        """
        idx = np.asarray(list(indices), dtype=np.int64)
        if self._adjacency is not None:
            return NeighborGraph(self._adjacency[np.ix_(idx, idx)], theta=self.theta)
        assert self._neighbor_lists is not None
        remap = np.full(self._n, -1, dtype=np.int64)
        remap[idx] = np.arange(idx.size, dtype=np.int64)
        lists = []
        for old in idx.tolist():
            mapped = remap[self._neighbor_lists[old]]
            lists.append(np.sort(mapped[mapped >= 0]))
        return NeighborGraph.from_neighbor_lists(lists, theta=self.theta, validate=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "dense" if self.has_dense else "sparse"
        return f"NeighborGraph(n={self.n}, edges={self.edge_count()}, {backing})"


def similarity_matrix(
    points: Any, similarity: SimilarityFunction | None = None
) -> np.ndarray:
    """Dense pairwise similarity matrix (vectorised when possible).

    The same computation :func:`compute_neighbor_graph` performs before
    thresholding, exposed for callers that need the raw values --
    similarity-weighted links, theta profiling, the MST/group-average
    baselines.
    """
    if similarity is None:
        similarity = JaccardSimilarity()
    matrix = _bulk_similarity(points, similarity)
    if matrix is None:
        matrix = _bruteforce_similarity(points, similarity)
    return matrix


def adjacency_from_similarity_matrix(sim: np.ndarray, theta: float) -> np.ndarray:
    """Threshold a dense similarity matrix into a hollow boolean adjacency."""
    sim = np.asarray(sim, dtype=np.float64)
    adjacency = sim >= theta
    np.fill_diagonal(adjacency, False)
    # force exact symmetry against floating asymmetries in callers' matrices
    adjacency &= adjacency.T
    return adjacency


def compute_neighbor_graph(
    points: TransactionDataset | CategoricalDataset | Sequence[Any],
    theta: float,
    similarity: SimilarityFunction | None = None,
    method: str = "auto",
    memory_budget: int | None = None,
    block_size: int | None = None,
    registry: Any | None = None,
) -> NeighborGraph:
    """Build the neighbor graph of a point set at threshold ``theta``.

    Parameters
    ----------
    points:
        A :class:`TransactionDataset`, a :class:`CategoricalDataset`,
        or any sequence of points the similarity accepts.
    theta:
        Neighbor threshold in [0, 1].
    similarity:
        Similarity function; defaults to Jaccard (over ``A.v``-encoded
        transactions for categorical data, per Section 3.1.2 -- note
        this treats missing values by *ignoring* them globally; use
        :class:`~repro.core.similarity.MissingAwareJaccard` explicitly
        for the per-pair restriction of the time-series variant).
    method:
        ``"auto"`` (blocked when the dense matrix would exceed the
        memory budget, else vectorised when possible), ``"vectorized"``
        (require the bulk path), ``"blocked"`` (require the row-blocked
        sparse path), or ``"bruteforce"`` (always pairwise calls).
    memory_budget:
        Bytes the dense similarity intermediates may occupy before
        ``auto`` switches to the blocked path (default
        :data:`DEFAULT_MEMORY_BUDGET`).
    block_size:
        Rows per block for the blocked path; ``None`` sizes blocks to
        the memory budget.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; the
        blocked kernel records per-block metrics into it.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if method not in ("auto", "vectorized", "bruteforce", "blocked"):
        raise ValueError(f"unknown method {method!r}")
    if similarity is None:
        similarity = JaccardSimilarity()
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget

    if method == "blocked" or (
        method == "auto"
        and supports_blocked(points, similarity)
        and dense_similarity_bytes(len(points)) > budget
    ):
        return blocked_neighbor_graph(
            points, theta, similarity=similarity,
            block_size=block_size, memory_budget=budget, registry=registry,
        )

    sim_matrix = None
    if method in ("auto", "vectorized"):
        sim_matrix = _bulk_similarity(points, similarity)
        if sim_matrix is None and method == "vectorized":
            raise ValueError(
                "vectorized method requested but the similarity/dataset "
                "combination has no bulk path"
            )
    if sim_matrix is None:
        sim_matrix = _bruteforce_similarity(points, similarity)
    return NeighborGraph(adjacency_from_similarity_matrix(sim_matrix, theta), theta=theta)


# ---------------------------------------------------------------------------
# blocked kernel
# ---------------------------------------------------------------------------

def supports_blocked(points: Any, similarity: SimilarityFunction | None = None) -> bool:
    """Whether :func:`blocked_neighbor_graph` has a kernel for this input.

    Blocking needs a similarity whose row-block can be computed from a
    compact per-point encoding: Jaccard/overlap over transactions (or
    ``A.v``-encoded categorical records) and the missing-aware Jaccard
    over records.
    """
    if similarity is None:
        similarity = JaccardSimilarity()
    from repro.core.similarity import MissingAwareJaccard

    from repro.data.transactions import Transaction

    if isinstance(points, TransactionDataset):
        return isinstance(similarity, (JaccardSimilarity, OverlapSimilarity))
    if isinstance(points, CategoricalDataset):
        return isinstance(similarity, (JaccardSimilarity, MissingAwareJaccard))
    if isinstance(points, Sequence) and len(points) > 0:
        if isinstance(points[0], CategoricalRecord):
            return isinstance(similarity, MissingAwareJaccard)
        if isinstance(points[0], (Transaction, frozenset, set)):
            # e.g. a sampled subset of a dataset (the pipeline passes
            # plain lists); wrapped into a TransactionDataset on the fly
            return isinstance(similarity, (JaccardSimilarity, OverlapSimilarity))
    return False


def blocked_neighbor_graph(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
    block_size: int | None = None,
    memory_budget: int | None = None,
    registry: Any | None = None,
) -> NeighborGraph:
    """Memory-bounded neighbor graph: threshold similarity block by block.

    Computes the same similarity values as the vectorised bulk path,
    but one ``(block_size, n)`` row-block at a time: score the block
    with a single matmul against the full encoding, threshold it, emit
    each row's sorted neighbor indices, and discard the block.  Peak
    additional memory is ``O(block_size * n)`` -- the full ``n x n``
    float similarity matrix never exists, which is what lets the fit
    path run at sample sizes where the dense matrix would not fit in
    RAM (the Section 4.4 adjacency view scaled past main memory).

    The emitted graph is sparse-backed
    (:meth:`NeighborGraph.from_neighbor_lists`) and exactly equals the
    dense path's thresholded graph (property-tested): block scoring
    reproduces the bulk similarity's integer intersections and float
    divisions bit for bit.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if similarity is None:
        similarity = JaccardSimilarity()
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be positive")
    if not supports_blocked(points, similarity):
        raise ValueError(
            "blocked method requested but the similarity/dataset "
            "combination has no blocked kernel"
        )
    n = len(points)
    if block_size is None:
        block_size = default_block_size(n, memory_budget)

    scorer = build_block_scorer(points, similarity)
    lists: list[np.ndarray] = []
    for start, stop in block_tasks(n, block_size):
        block_start = time.perf_counter()
        rows = scorer.neighbor_rows(start, stop, theta)
        lists.extend(rows)
        if registry is not None:
            registry.inc("fit.neighbors.blocks")
            registry.inc("fit.neighbors.rows", len(rows))
            registry.inc("fit.neighbors.edges", sum(len(r) for r in rows))
            registry.observe(
                "fit.neighbors.block_seconds", time.perf_counter() - block_start
            )
    return NeighborGraph.from_neighbor_lists(lists, theta=theta, validate=False)


def resolve_memory_budget(memory_budget: int | None = None) -> int:
    """An explicit budget verbatim; otherwise a host-aware default.

    With no explicit budget, half the host's *available* physical
    memory (from :func:`repro.obs.manifest.host_memory`) clamped to
    [256 MiB, 4 GiB] -- conservative enough that a fit never plans to
    fill RAM it would have to share, while small containers get a
    budget that actually reflects their limits instead of the blanket
    :data:`DEFAULT_MEMORY_BUDGET`.  Falls back to the blanket default
    where ``/proc/meminfo`` is unavailable.
    """
    if memory_budget is not None:
        return int(memory_budget)
    from repro.obs.manifest import host_memory

    _, available = host_memory()
    if available is None:
        return DEFAULT_MEMORY_BUDGET
    return max(256 << 20, min(available // 2, 4 << 30))


def default_block_size(n: int, memory_budget: int | None = None) -> int:
    """Rows per block keeping a block's working set inside the budget.

    The working set per block row is roughly float32 intersections +
    float64 similarities + int64 unions + bool adjacency ~= 24
    bytes/entry, with headroom for temporaries.
    """
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    block_size = int(budget // max(32 * n, 1))
    return max(16, min(block_size, 8192, max(n, 16)))


def worker_block_size(
    n: int, workers: int, memory_budget: int | None = None
) -> int:
    """Per-worker block size: the budget is split across workers so the
    sum of concurrently-resident block working sets stays within it."""
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    return default_block_size(n, max(budget // max(workers, 1), 1))


def block_tasks(n: int, block_size: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` row ranges of the block schedule, in order."""
    return [
        (start, min(start + block_size, n)) for start in range(0, n, block_size)
    ]


# -- block scorers ------------------------------------------------------------
#
# A BlockScorer owns a compact per-point encoding and computes any row
# range of the pairwise similarity matrix on demand.  Scorers are plain
# picklable objects (numpy/scipy arrays + flags) so the fused pass can
# ship one to each worker through the pool initializer.

class BlockScorer:
    """Base: compute similarity row blocks and threshold them to neighbors."""

    n: int

    def score_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the full similarity matrix, float64."""
        raise NotImplementedError

    def neighbor_rows(self, start: int, stop: int, theta: float) -> list[np.ndarray]:
        """Sorted neighbor indices of each point in ``start:stop``."""
        sim_block = self.score_rows(start, stop)
        adj_block = sim_block >= theta
        # clear the self-loop positions that fall inside this block
        rows = np.arange(adj_block.shape[0])
        adj_block[rows, start + rows] = False
        return [np.flatnonzero(row) for row in adj_block]


class DenseTransactionScorer(BlockScorer):
    """Jaccard/overlap over transactions via one dense matmul per block.

    The PR 2 blocked kernel: float32 keeps the matmul on the BLAS fast
    path; intersection counts are bounded by the vocabulary size, far
    below 2**24, so the products are exact integers.
    """

    def __init__(self, dataset: TransactionDataset, overlap: bool) -> None:
        self.n = len(dataset)
        m = dataset.indicator_matrix().astype(np.float32)
        self._m = m
        self._mt = np.ascontiguousarray(m.T)
        self._sizes = m.sum(axis=1, dtype=np.int64)
        self._overlap = overlap

    def score_rows(self, start: int, stop: int) -> np.ndarray:
        sizes = self._sizes
        inter = np.rint(self._m[start:stop] @ self._mt).astype(np.int64)
        if self._overlap:
            denom = np.minimum(sizes[start:stop, None], sizes[None, :])
        else:
            denom = sizes[start:stop, None] + sizes[None, :] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(denom > 0, inter / np.maximum(denom, 1), 0.0)
        # identical-to-empty convention of the bulk paths: the diagonal
        # is 1 even for empty transactions
        rows = np.arange(stop - start)
        sim[rows, start + rows] = 1.0
        return sim


class SparseTransactionScorer(BlockScorer):
    """Jaccard/overlap over transactions via sparse intersection products.

    Computes ``S[start:stop] @ S.T`` with scipy CSR matrices, touching
    only pairs that share at least one item -- ``O(nnz)`` work instead
    of the dense kernel's ``O(rows * n * vocab)``.  Most co-occurring
    pairs share just one or two items, so before any per-pair
    arithmetic a conservative integer prefilter drops every pair whose
    raw intersection count cannot clear ``theta`` even under the most
    favourable set sizes (one vectorised comparison over the product's
    nnz).  Survivors then get the exact similarity -- the same integer
    intersections and the same float64 division as the dense kernel --
    so the thresholded adjacency is reproduced bit for bit.
    ``theta == 0`` (every pair a neighbor, as ``sim >= 0`` always
    holds) is answered directly.
    """

    def __init__(self, dataset: TransactionDataset, overlap: bool) -> None:
        from repro.core.encoding import transaction_csr

        self._load_csr(*transaction_csr(dataset), dataset.n_items, overlap)

    def _load_csr(
        self, indptr: np.ndarray, indices: np.ndarray, n_items: int, overlap: bool
    ) -> None:
        """Set up the int64 CSR, its transpose and the row sizes."""
        from scipy import sparse

        self.n = len(indptr) - 1
        data = np.ones(len(indices), dtype=np.int64)
        matrix = sparse.csr_matrix((data, indices, indptr), shape=(self.n, n_items))
        self._s = matrix
        self._st = matrix.T.tocsr()
        self._sizes = np.diff(indptr).astype(np.int64)
        self._min_size = int(self._sizes.min()) if self.n else 0
        self._overlap = overlap

    def _prefilter_bound(self, theta: float) -> float:
        """Smallest intersection count that could still clear ``theta``.

        Jaccard: ``i / (sa + sb - i) >= theta`` implies
        ``i >= 2 * theta * min_size / (1 + theta)``; overlap:
        ``i / min(sa, sb) >= theta`` implies ``i >= theta * min_size``.
        Both substitute the global minimum set size, so the bound only
        ever under-estimates -- no qualifying pair is dropped.
        """
        if self._overlap:
            return theta * self._min_size
        return 2.0 * theta * self._min_size / (1.0 + theta)

    def neighbor_rows(self, start: int, stop: int, theta: float) -> list[np.ndarray]:
        n = self.n
        if theta <= 0.0:
            everyone = np.arange(n, dtype=np.int64)
            return [
                np.concatenate([everyone[:i], everyone[i + 1:]])
                for i in range(start, stop)
            ]
        inter = (self._s[start:stop] @ self._st).tocsr()
        indptr = inter.indptr
        # prefilter on the raw counts, then gather only the survivors;
        # searchsorted recovers their block rows from indptr (correct
        # across empty rows: side="right" skips repeated offsets)
        pos = np.flatnonzero(inter.data >= self._prefilter_bound(theta) - 1e-9)
        cols = inter.indices[pos].astype(np.int64, copy=False)
        vals = inter.data[pos].astype(np.int64, copy=False)
        block_rows = np.searchsorted(indptr, pos, side="right") - 1
        sizes = self._sizes
        if self._overlap:
            denom = np.minimum(sizes[start + block_rows], sizes[cols])
        else:
            denom = sizes[start + block_rows] + sizes[cols] - vals
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(denom > 0, vals / np.maximum(denom, 1), 0.0)
        keep = (sim >= theta) & (cols != start + block_rows)
        kept_cols = cols[keep]
        kept_rows = block_rows[keep]
        # the product's columns are unsorted within a row; order the
        # survivors so every emitted neighbor list is ascending
        order = np.lexsort((kept_cols, kept_rows))
        kept_cols = kept_cols[order]
        per_row = np.bincount(kept_rows, minlength=stop - start)
        return np.split(kept_cols, np.cumsum(per_row)[:-1])

class MissingAwareScorer(BlockScorer):
    """Per-pair missing-aware Jaccard over categorical records."""

    def __init__(self, records: list[CategoricalRecord]) -> None:
        n = len(records)
        self.n = n
        if n == 0:
            self._codes = np.zeros((0, 0), dtype=np.int64)
            self._present = np.zeros((0, 0), dtype=np.int64)
            return
        schema = records[0].schema
        d = len(schema)
        codes = np.full((n, d), -1, dtype=np.int64)
        value_codes: list[dict[Any, int]] = [{} for _ in range(d)]
        for i, r in enumerate(records):
            if r.schema != schema:
                raise ValueError("records must share a schema")
            for j, v in enumerate(r.values):
                if v is None:
                    continue
                table = value_codes[j]
                codes[i, j] = table.setdefault(v, len(table))
        self._codes = codes
        self._present = (codes >= 0).astype(np.int64)

    def score_rows(self, start: int, stop: int) -> np.ndarray:
        codes = self._codes
        shared = self._present[start:stop] @ self._present.T
        sim = np.zeros((stop - start, self.n), dtype=np.float64)
        for offset in range(stop - start):
            i = start + offset
            both = (codes[i] >= 0) & (codes >= 0)
            equal = ((codes == codes[i]) & both).sum(axis=1)
            union = 2 * shared[offset] - equal
            with np.errstate(divide="ignore", invalid="ignore"):
                sim[offset] = np.where(union > 0, equal / np.maximum(union, 1), 0.0)
        return sim


def _scipy_sparse_available() -> bool:
    try:
        from scipy import sparse  # noqa: F401
    except ImportError:  # pragma: no cover - scipy is present in dev envs
        return False
    return True


def build_block_scorer(
    points: Any,
    similarity: SimilarityFunction | None = None,
    prefer_sparse: bool = False,
) -> BlockScorer:
    """Build the block scorer for a supported points/similarity pair.

    ``prefer_sparse`` opts transactions into
    :class:`SparseTransactionScorer` when scipy is importable (the fused
    pass does); the serial blocked kernel keeps the dense matmul
    scorer.  Raises for combinations
    :func:`supports_blocked` rejects.
    """
    if similarity is None:
        similarity = JaccardSimilarity()
    if not supports_blocked(points, similarity):
        raise ValueError(
            "no block scorer for this similarity/dataset combination"
        )
    from repro.core.similarity import MissingAwareJaccard

    if isinstance(points, CategoricalDataset):
        if isinstance(similarity, MissingAwareJaccard):
            return MissingAwareScorer(list(points))
        from repro.core.encoding import dataset_to_transactions

        points = dataset_to_transactions(points)
        similarity = JaccardSimilarity()
    if not isinstance(points, TransactionDataset):
        pts = list(points)
        if pts and isinstance(pts[0], CategoricalRecord):
            return MissingAwareScorer(pts)
        # plain sequence of Transaction / set-like points
        points = TransactionDataset(pts)
    overlap = isinstance(similarity, OverlapSimilarity)
    if prefer_sparse and _scipy_sparse_available():
        return SparseTransactionScorer(points, overlap)
    return DenseTransactionScorer(points, overlap)


def _bulk_similarity(points: Any, similarity: SimilarityFunction) -> np.ndarray | None:
    pairwise = getattr(similarity, "pairwise", None)
    if pairwise is None:
        return None
    if isinstance(points, TransactionDataset):
        if isinstance(similarity, (JaccardSimilarity, OverlapSimilarity)):
            return pairwise(points)
        return None
    if isinstance(points, CategoricalDataset):
        from repro.core.encoding import dataset_to_transactions
        from repro.core.similarity import MissingAwareJaccard

        if isinstance(similarity, MissingAwareJaccard):
            return pairwise(list(points))
        if isinstance(similarity, JaccardSimilarity):
            return similarity.pairwise(dataset_to_transactions(points))
        return None
    if (
        isinstance(points, Sequence)
        and points
        and isinstance(points[0], CategoricalRecord)
    ):
        from repro.core.similarity import MissingAwareJaccard

        if isinstance(similarity, MissingAwareJaccard):
            return pairwise(list(points))
    return None


def _bruteforce_similarity(points: Any, similarity: SimilarityFunction) -> np.ndarray:
    pts = list(points)
    n = len(pts)
    sim = np.ones((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            value = similarity(pts[i], pts[j])
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"similarity returned {value} for pair ({i}, {j}); "
                    "sim must be normalised to [0, 1]"
                )
            sim[i, j] = sim[j, i] = value
    return sim
