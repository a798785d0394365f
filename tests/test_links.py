"""Tests for link computation (Sections 3.2, 4.4, Figure 4)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import (
    LinkTable,
    compute_links,
    dense_link_matrix,
    path_link_matrix,
    sparse_link_table,
)
from repro.core.neighbors import NeighborGraph, compute_neighbor_graph
from repro.data.transactions import Transaction, TransactionDataset


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return NeighborGraph(adj)


def random_graph_strategy(max_n=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        edges = draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=n * (n - 1) // 2,
            )
        )
        return graph_from_edges(n, edges)

    return build()


class TestLinkTable:
    def test_pairs_constructor_and_get_symmetric(self):
        table = LinkTable(3, {(2, 0): 5})
        assert table.get(0, 2) == 5
        assert table.get(2, 0) == 5
        assert table.get(0, 1) == 0
        assert table.lo.tolist() == [0] and table.hi.tolist() == [2]

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            LinkTable(2, {(1, 1): 1})
        with pytest.raises(ValueError):
            LinkTable(2).get(0, 0)
        with pytest.raises(IndexError):
            LinkTable(2).get(0, 2)

    def test_duplicate_and_out_of_range_pairs_rejected(self):
        with pytest.raises(ValueError, match="once"):
            LinkTable(3, {(0, 2): 1, (2, 0): 4})
        with pytest.raises(ValueError, match="range"):
            LinkTable(3, {(0, 3): 1})

    def test_pairs_each_once(self):
        table = LinkTable(3, {(1, 2): 3, (0, 1): 2})
        assert list(table.pairs()) == [(0, 1, 2), (1, 2, 3)]
        assert table.nnz_pairs() == 2

    def test_counts_keep_their_dtype(self):
        assert LinkTable(3, {(0, 1): 2}).counts.dtype == np.int64
        assert LinkTable(3, {(0, 1): 2.5}).counts.dtype == np.float64
        assert LinkTable(3).pair_arrays()[2].dtype == np.int64

    def test_dense_round_trip(self):
        table = LinkTable(4, {(0, 3): 7, (1, 2): 1})
        dense = table.to_dense()
        back = LinkTable.from_dense(dense)
        assert sorted(back.pairs()) == sorted(table.pairs())

    def test_from_dense_validation(self):
        with pytest.raises(ValueError, match="square"):
            LinkTable.from_dense(np.zeros((2, 3)))
        asym = np.zeros((2, 2), dtype=np.int64)
        asym[0, 1] = 1
        with pytest.raises(ValueError, match="symmetric"):
            LinkTable.from_dense(asym)
        diag = np.eye(2, dtype=np.int64)
        with pytest.raises(ValueError, match="diagonal"):
            LinkTable.from_dense(diag)


class TestLinkCounts:
    def test_triangle_every_pair_links_once(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        links = dense_link_matrix(g)
        # in a triangle each pair has exactly one common neighbor
        for i, j in combinations(range(3), 2):
            assert links[i, j] == 1

    def test_star_leaves_link_through_hub(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        links = dense_link_matrix(g)
        for i, j in combinations([1, 2, 3], 2):
            assert links[i, j] == 1
        assert links[0, 1] == 0  # hub shares no neighbor with a leaf

    def test_path_endpoints(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        links = dense_link_matrix(g)
        assert links[0, 2] == 1
        assert links[0, 1] == 0

    def test_isolated_point_zero_links(self):
        g = graph_from_edges(3, [(0, 1)])
        assert dense_link_matrix(g)[2].sum() == 0

    def test_diagonal_zeroed(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert dense_link_matrix(g).diagonal().tolist() == [0, 0, 0]

    def test_example_1_2_exact_counts(self):
        """The paper's Example 1.2 / Section 3.2 link counts, verbatim."""
        big = [frozenset(c) for c in combinations([1, 2, 3, 4, 5], 3)]
        small = [frozenset(c) for c in combinations([1, 2, 6, 7], 3)]
        ds = TransactionDataset([Transaction(t) for t in big + small])
        idx = {t.items: i for i, t in enumerate(ds)}
        graph = compute_neighbor_graph(ds, theta=0.5)
        links = compute_links(graph)

        def link(a, b):
            return links.get(idx[frozenset(a)], idx[frozenset(b)])

        assert link({1, 2, 3}, {1, 2, 4}) == 5
        assert link({1, 2, 3}, {1, 2, 6}) == 3
        assert link({1, 2, 6}, {1, 2, 7}) == 5
        assert link({1, 6, 7}, {1, 2, 6}) == 2
        # {1,6,7} has 0 links with non-12x members of the big cluster
        assert link({1, 6, 7}, {3, 4, 5}) == 0


class TestSparseDenseEquivalence:
    def test_forced_methods_agree(self):
        g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (2, 3)])
        dense = compute_links(g, method="dense").to_dense()
        sparse = compute_links(g, method="sparse").to_dense()
        assert np.array_equal(dense, sparse)

    def test_invalid_method(self):
        g = graph_from_edges(2, [])
        with pytest.raises(ValueError, match="unknown method"):
            compute_links(g, method="quantum")

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_figure4_equals_matrix_square(self, graph):
        assert np.array_equal(
            sparse_link_table(graph).to_dense(), dense_link_matrix(graph)
        )

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy(max_n=8))
    def test_links_bounded_by_min_degree(self, graph):
        links = dense_link_matrix(graph)
        degrees = graph.degrees()
        for i in range(graph.n):
            for j in range(graph.n):
                if i != j:
                    assert links[i, j] <= min(degrees[i], degrees[j])

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy(max_n=10))
    def test_space_bound_of_section_4_5(self, graph):
        """Section 4.5: "a point i can have links to at most
        min{n, m_m m_i} other points" -- the storage bound for the
        sparse link table."""
        table = sparse_link_table(graph)
        degrees = graph.degrees()
        mm = int(degrees.max()) if graph.n else 0
        lo, hi, _ = table.pair_arrays()
        for i in range(graph.n):
            partners = int(np.count_nonzero(lo == i) + np.count_nonzero(hi == i))
            assert partners <= min(graph.n, mm * int(degrees[i])), i
        assert table.nnz_pairs() <= min(
            graph.n * graph.n, mm * int(degrees.sum())
        )


class TestPathLinks:
    def test_length_2_is_dense_links(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert np.array_equal(path_link_matrix(g, 2), dense_link_matrix(g))

    def test_unsupported_length(self):
        g = graph_from_edges(2, [])
        with pytest.raises(ValueError):
            path_link_matrix(g, 4)

    def brute_force_paths3(self, graph):
        adj = graph.adjacency
        n = graph.n
        counts = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for a in range(n):
                    if a in (i, j) or not adj[i, a]:
                        continue
                    for b in range(n):
                        if b in (i, j, a) or not adj[a, b] or not adj[b, j]:
                            continue
                        counts[i, j] += 1
        return counts

    def test_length_3_path_count_on_square(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert np.array_equal(path_link_matrix(g, 3), self.brute_force_paths3(g))

    @settings(max_examples=30, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_length_3_matches_bruteforce(self, graph):
        assert np.array_equal(
            path_link_matrix(graph, 3), self.brute_force_paths3(graph)
        )
