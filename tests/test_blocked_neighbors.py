"""Blocked neighbor kernel vs the dense path, and sparse NeighborGraph.

The blocked path is only admissible if it is a pure memory optimisation:
identical :class:`NeighborGraph`, identical :class:`LinkTable`, identical
:class:`RockResult` clusters for every input the dense path accepts.
The hypothesis properties here drive randomized transaction, categorical
and missing-value data through both paths at tiny block sizes (so every
run exercises multi-block stitching) and assert exact equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.neighbors as neighbors_mod
from repro.core.goodness import default_f
from repro.core.links import compute_links
from repro.core.neighbors import (
    DEFAULT_MEMORY_BUDGET,
    NeighborGraph,
    blocked_neighbor_graph,
    compute_neighbor_graph,
    dense_similarity_bytes,
    supports_blocked,
)
from repro.core.pipeline import RockPipeline
from repro.core.rock import cluster_with_links, rock
from repro.core.similarity import (
    JaccardSimilarity,
    MissingAwareJaccard,
    OverlapSimilarity,
    SimilarityTable,
)
from repro.data.records import CategoricalDataset, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset

THETAS = [0.0, 0.25, 0.5, 0.75, 1.0]

item_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), max_size=6),
    min_size=1,
    max_size=40,
)


def graphs_equal(a: NeighborGraph, b: NeighborGraph) -> bool:
    if a.n != b.n:
        return False
    return all(
        np.array_equal(la, lb)
        for la, lb in zip(a.neighbor_lists(), b.neighbor_lists())
    )


# -- the equivalence properties ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from(THETAS),
    block_size=st.sampled_from([1, 2, 3, 7, 64]),
    overlap=st.booleans(),
)
def test_blocked_equals_dense_on_random_baskets(sets, theta, block_size, overlap):
    dataset = TransactionDataset([Transaction(s) for s in sets])
    similarity = OverlapSimilarity() if overlap else JaccardSimilarity()
    dense = compute_neighbor_graph(
        dataset, theta, similarity=similarity, method="vectorized"
    )
    blocked = blocked_neighbor_graph(
        dataset, theta, similarity=similarity, block_size=block_size
    )
    assert not blocked.has_dense
    assert graphs_equal(blocked, dense)
    assert blocked.theta == theta
    assert np.array_equal(blocked.degrees(), dense.degrees())
    assert blocked.edge_count() == dense.edge_count()
    # downstream equality: links and final clusters
    dense_links = compute_links(dense, method="dense")
    blocked_links = compute_links(blocked)
    assert np.array_equal(blocked_links.to_dense(), dense_links.to_dense())
    k = max(1, len(dataset) // 3)
    r_dense = rock(dataset, k=k, theta=theta, similarity=similarity,
                   fit_mode="dense")
    r_blocked = cluster_with_links(
        compute_links(
            compute_neighbor_graph(
                dataset, theta, similarity=similarity, method="blocked",
                block_size=block_size,
            )
        ),
        k=k, f_theta=default_f(theta),
    )
    assert r_blocked.clusters == r_dense.clusters
    assert r_blocked.stopped_early == r_dense.stopped_early


records = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", None]),
        st.sampled_from(["x", "y", None]),
        st.sampled_from([0, 1, 2, None]),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(rows=records, theta=st.sampled_from(THETAS), block_size=st.sampled_from([1, 3, 50]))
def test_blocked_equals_dense_on_missing_aware_records(rows, theta, block_size):
    schema = CategoricalSchema(("f1", "f2", "f3"))
    points = [CategoricalRecord(schema, row) for row in rows]
    similarity = MissingAwareJaccard()
    dense = compute_neighbor_graph(
        points, theta, similarity=similarity, method="vectorized"
    )
    blocked = blocked_neighbor_graph(
        points, theta, similarity=similarity, block_size=block_size
    )
    assert graphs_equal(blocked, dense)


@settings(max_examples=30, deadline=None)
@given(rows=records, theta=st.sampled_from(THETAS), missing_aware=st.booleans())
def test_blocked_equals_dense_on_categorical_dataset(rows, theta, missing_aware):
    schema = CategoricalSchema(("f1", "f2", "f3"))
    dataset = CategoricalDataset(schema, rows)
    similarity = MissingAwareJaccard() if missing_aware else JaccardSimilarity()
    dense = compute_neighbor_graph(
        dataset, theta, similarity=similarity, method="vectorized"
    )
    blocked = blocked_neighbor_graph(dataset, theta, similarity=similarity, block_size=4)
    assert graphs_equal(blocked, dense)


def test_pipeline_blocked_equals_dense():
    rng = np.random.default_rng(7)
    sets = []
    for c in range(6):
        pool = list(range(c * 10, c * 10 + 8))
        for _ in range(15):
            sets.append(frozenset(rng.choice(pool, size=5, replace=False).tolist()))
    points = [Transaction(s) for s in sets]
    base = dict(k=6, theta=0.5, sample_size=None, seed=0)
    dense = RockPipeline(**base, fit_mode="dense").fit(points)
    # over budget the fit runs the fused pass; graph consumers still
    # get the blocked graph from compute_neighbor_graph
    auto = RockPipeline(**base, memory_budget=1).fit(points)
    blocked = compute_neighbor_graph(points, 0.5, method="blocked")
    assert graphs_equal(
        blocked, compute_neighbor_graph(points, 0.5, method="bruteforce")
    )
    assert compute_neighbor_graph(points, 0.5, memory_budget=1).has_dense is False
    assert np.array_equal(auto.labels, dense.labels)
    assert auto.clusters == dense.clusters


# -- method/budget selection -------------------------------------------------


class TestAutoSelection:
    def test_auto_blocks_when_budget_exceeded(self):
        dataset = TransactionDataset([Transaction({i, i + 1}) for i in range(40)])
        graph = compute_neighbor_graph(dataset, 0.3, memory_budget=1)
        assert not graph.has_dense
        default = compute_neighbor_graph(dataset, 0.3)
        assert default.has_dense
        assert graphs_equal(graph, default)

    def test_auto_stays_dense_within_budget(self):
        dataset = TransactionDataset([Transaction({i, i + 1}) for i in range(10)])
        graph = compute_neighbor_graph(
            dataset, 0.3, memory_budget=DEFAULT_MEMORY_BUDGET
        )
        assert graph.has_dense

    def test_auto_falls_back_to_bruteforce_for_tables(self):
        # a similarity table has no blocked kernel; a tiny budget must
        # not break it -- auto quietly keeps the generic path
        table = SimilarityTable({("a", "b"): 0.9})
        graph = compute_neighbor_graph(["a", "b"], 0.5, similarity=table,
                                       memory_budget=1)
        assert graph.are_neighbors(0, 1)

    def test_blocked_requires_kernel(self):
        table = SimilarityTable({("a", "b"): 0.9})
        with pytest.raises(ValueError, match="blocked"):
            blocked_neighbor_graph(["a", "b"], 0.5, similarity=table)

    def test_supports_blocked(self):
        txns = TransactionDataset([Transaction({1})])
        schema = CategoricalSchema(("f",))
        recs = [CategoricalRecord(schema, ("v",))]
        assert supports_blocked(txns)
        assert supports_blocked(txns, OverlapSimilarity())
        assert not supports_blocked(txns, MissingAwareJaccard())
        assert supports_blocked(CategoricalDataset(schema, recs))
        assert supports_blocked([Transaction({1}), Transaction({2})])
        assert supports_blocked(recs, MissingAwareJaccard())
        assert not supports_blocked(recs)  # plain Jaccard on raw records
        assert not supports_blocked(["a"], SimilarityTable({("a", "a"): 1.0}))
        assert not supports_blocked([])

    def test_dense_similarity_bytes(self):
        assert dense_similarity_bytes(1000) == 8_000_000

    def test_validation(self):
        dataset = TransactionDataset([Transaction({1})])
        with pytest.raises(ValueError, match="theta"):
            blocked_neighbor_graph(dataset, 1.5)
        with pytest.raises(ValueError, match="block_size"):
            blocked_neighbor_graph(dataset, 0.5, block_size=0)

    def test_empty_dataset(self):
        graph = blocked_neighbor_graph(TransactionDataset([]), 0.5)
        assert graph.n == 0
        assert graph.edge_count() == 0


# -- sparse-backed NeighborGraph behaviours ----------------------------------


class TestSparseNeighborGraph:
    def make(self):
        # 0-1 and 1-2 neighbors, 3 isolated
        return NeighborGraph.from_neighbor_lists(
            [[1], [0, 2], [1], []], theta=0.5
        )

    def test_accessors_without_densifying(self):
        g = self.make()
        assert not g.has_dense
        assert g.n == 4 and len(g) == 4
        assert g.degrees().tolist() == [1, 2, 1, 0]
        assert g.edge_count() == 2
        assert g.are_neighbors(0, 1) and g.are_neighbors(2, 1)
        assert not g.are_neighbors(0, 2)
        assert g.isolated_points().tolist() == [3]
        assert not g.has_dense  # none of the above densified

    def test_lazy_densify_matches_lists(self):
        g = self.make()
        adj = g.adjacency
        assert g.has_dense
        expected = np.zeros((4, 4), dtype=bool)
        expected[0, 1] = expected[1, 0] = True
        expected[1, 2] = expected[2, 1] = True
        assert np.array_equal(adj, expected)

    def test_densify_refused_beyond_limit(self, monkeypatch):
        monkeypatch.setattr(neighbors_mod, "DENSIFY_LIMIT", 8)
        g = self.make()
        with pytest.raises(ValueError, match="densify"):
            _ = g.adjacency
        # sparse accessors still work under the limit
        assert g.degrees().tolist() == [1, 2, 1, 0]

    def test_subgraph_stays_sparse(self):
        g = self.make()
        sub = g.subgraph([0, 1, 3])
        assert not sub.has_dense
        assert sub.n == 3
        assert [lst.tolist() for lst in sub.neighbor_lists()] == [[1], [0], []]
        assert sub.theta == g.theta

    def test_validation_rejects_bad_lists(self):
        with pytest.raises(ValueError, match="out of range"):
            NeighborGraph.from_neighbor_lists([[5], []])
        with pytest.raises(ValueError, match="sorted"):
            NeighborGraph.from_neighbor_lists([[2, 1], [0], [0]])
        with pytest.raises(ValueError, match="itself"):
            NeighborGraph.from_neighbor_lists([[0, 1], [0]])
        with pytest.raises(ValueError, match="asymmetric"):
            NeighborGraph.from_neighbor_lists([[1], []])

    def test_links_auto_uses_sparse_path(self):
        g = self.make()
        links = compute_links(g)
        assert not g.has_dense  # link counting never densified
        # point 1 is the single common neighbor of the pair (0, 2)
        assert links.get(0, 2) == 1
        assert links.get(0, 1) == 0
