"""Edge cases and failure injection across module boundaries."""

import numpy as np
import pytest

from repro.core import (
    RockPipeline,
    cluster_with_links,
    compute_links,
    compute_neighbor_graph,
    rock,
)
from repro.core.links import LinkTable
from repro.data.records import CategoricalDataset, CategoricalSchema, MISSING
from repro.data.transactions import Transaction, TransactionDataset


class TestDegenerateInputs:
    def test_single_point(self):
        result = rock(TransactionDataset([{1, 2}]), k=1, theta=0.5)
        assert result.clusters == [[0]]

    def test_all_identical_points(self):
        ds = TransactionDataset([{1, 2, 3}] * 10)
        result = rock(ds, k=1, theta=0.99)
        assert result.clusters == [list(range(10))]

    def test_all_disjoint_points(self):
        ds = TransactionDataset([{i} for i in range(8)])
        result = rock(ds, k=2, theta=0.5)
        # nothing is a neighbor of anything; no merge ever happens
        assert len(result.clusters) == 8
        assert result.stopped_early

    def test_empty_transactions_never_neighbors(self):
        ds = TransactionDataset([set(), set(), {1, 2}, {1, 2}])
        graph = compute_neighbor_graph(ds, theta=0.5)
        assert not graph.are_neighbors(0, 1)
        assert graph.are_neighbors(2, 3)

    def test_theta_zero_everything_neighbors(self):
        ds = TransactionDataset([{1}, {2}, {3}])
        graph = compute_neighbor_graph(ds, theta=0.0)
        assert graph.degrees().tolist() == [2, 2, 2]

    def test_theta_one_only_identical_neighbors(self):
        ds = TransactionDataset([{1, 2}, {1, 2}, {1, 3}])
        graph = compute_neighbor_graph(ds, theta=1.0)
        assert graph.are_neighbors(0, 1)
        assert not graph.are_neighbors(0, 2)

    def test_identical_pairs_at_theta_one_have_no_links(self):
        # two identical points are mutual neighbors but share no third
        # common neighbor: zero links, so they can never merge --
        # definitional ROCK behaviour worth pinning
        ds = TransactionDataset([{1, 2}, {1, 2}, {5, 6}, {5, 6}])
        result = rock(ds, k=2, theta=1.0)
        assert len(result.clusters) == 4
        assert result.stopped_early

    def test_f_theta_zero_degenerate_goodness_still_clusters(self):
        # theta = 1 makes f = 0 and every positive-link goodness inf;
        # with identical TRIPLES each pair shares the third point as a
        # common neighbor, so merging proceeds and must terminate
        # deterministically
        ds = TransactionDataset([{1, 2}] * 3 + [{5, 6}] * 3)
        result = rock(ds, k=2, theta=1.0)
        assert sorted(map(sorted, result.clusters)) == [[0, 1, 2], [3, 4, 5]]


class TestRecordsEdgeCases:
    def test_record_with_all_values_missing(self):
        schema = CategoricalSchema(["a", "b"])
        ds = CategoricalDataset(schema, [[MISSING, MISSING], ["x", "y"], ["x", "y"]])
        # the empty record encodes to an empty transaction: never a neighbor
        graph = compute_neighbor_graph(ds, theta=0.5)
        assert graph.degrees()[0] == 0

    def test_pipeline_rejects_when_all_points_isolated(self):
        ds = TransactionDataset([{1}, {2}, {3}])
        with pytest.raises(ValueError, match="pruned"):
            RockPipeline(k=1, theta=0.5).fit(ds)

    def test_pipeline_min_neighbors_zero_keeps_isolated(self):
        ds = TransactionDataset([{1}, {2}, {1, 2}])
        result = RockPipeline(k=3, theta=0.9, min_neighbors=0).fit(ds)
        assert result.n_clusters == 3


class TestLinkTableEdges:
    def test_zero_size_table(self):
        table = LinkTable(0)
        assert table.nnz_pairs() == 0
        assert list(table.pairs()) == []

    def test_cluster_with_empty_links(self):
        result = cluster_with_links(LinkTable(3), k=1, f_theta=0.5)
        assert len(result.clusters) == 3
        assert result.stopped_early

    def test_saturated_links(self):
        table = LinkTable(
            4, {(i, j): 100 for i in range(4) for j in range(i + 1, 4)}
        )
        result = cluster_with_links(table, k=1, f_theta=0.5)
        assert result.clusters == [[0, 1, 2, 3]]
        assert not result.stopped_early


class TestSampleBoundaries:
    def test_sample_size_equal_to_n(self):
        ds = TransactionDataset([{1, 2}, {1, 3}, {2, 3}] * 4)
        result = RockPipeline(k=1, theta=0.3, sample_size=12, seed=0).fit(ds)
        assert len(result.sample_indices) == 12

    def test_sample_size_larger_than_n(self):
        ds = TransactionDataset([{1, 2}, {1, 3}, {2, 3}])
        result = RockPipeline(k=1, theta=0.3, sample_size=50, seed=0).fit(ds)
        assert len(result.sample_indices) == 3

    def test_tiny_sample_still_labels(self):
        import random

        rng = random.Random(0)
        a = [Transaction(rng.sample(range(10), 5)) for _ in range(40)]
        b = [Transaction(rng.sample(range(20, 30), 5)) for _ in range(40)]
        ds = TransactionDataset(a + b)
        result = RockPipeline(
            k=2, theta=0.3, sample_size=10, labeling_fraction=1.0, seed=1
        ).fit(ds)
        # a 10-point sample cannot label everything at this theta, but a
        # solid majority must land, and nothing lands in a wrong cluster
        assigned = int((result.labels >= 0).sum())
        assert assigned >= len(ds) // 2
        truth = [0] * 40 + [1] * 40
        for cluster in result.clusters:
            assert len({truth[i] for i in cluster}) == 1

    def test_k_exceeds_surviving_points(self):
        ds = TransactionDataset([{1, 2}, {1, 2, 3}, {9}, {10}])
        result = RockPipeline(k=10, theta=0.4).fit(ds)
        # only two points survive pruning; both returned as clusters
        assert result.n_clusters == 2


class TestNumericalExtremes:
    def test_huge_link_counts_do_not_overflow(self):
        table = LinkTable(3, {(0, 1): 10**12, (1, 2): 10**12})
        result = cluster_with_links(table, k=1, f_theta=1.0)
        assert result.clusters == [[0, 1, 2]]

    def test_large_cluster_size_goodness_finite(self):
        from repro.core.goodness import goodness

        value = goodness(10**9, 10**6, 10**6, 1.0)
        assert np.isfinite(value)
        assert value > 0
