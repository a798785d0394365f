"""Exact reproductions of the paper's worked examples (Sections 1 and 3).

These tests pin the combinatorial facts the paper states verbatim --
distances in Example 1.1, Jaccard coefficients and link counts in
Example 1.2 / Figure 1 -- so any regression in the similarity, neighbor,
or link machinery is caught against ground truth from the text.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from repro.baselines.centroid import centroid_cluster, squared_euclidean_matrix
from repro.core.links import compute_links
from repro.core.neighbors import compute_neighbor_graph
from repro.core.similarity import JaccardSimilarity
from repro.data.transactions import Transaction, TransactionDataset


@pytest.fixture(scope="module")
def example_1_1():
    """Transactions (a)-(d) of Example 1.1 over items 1..6."""
    return TransactionDataset(
        [{1, 2, 3, 5}, {2, 3, 4, 5}, {1, 4}, {6}],
        vocabulary=[1, 2, 3, 4, 5, 6],
    )


@pytest.fixture(scope="module")
def figure_1():
    """The two overlapping transaction clusters of Figure 1 /
    Example 1.2: all 3-subsets of {1..5} and of {1,2,6,7}."""
    big = [frozenset(c) for c in combinations([1, 2, 3, 4, 5], 3)]
    small = [frozenset(c) for c in combinations([1, 2, 6, 7], 3)]
    ds = TransactionDataset([Transaction(t) for t in big + small])
    index = {t.items: i for i, t in enumerate(ds)}
    return ds, index, [0] * len(big) + [1] * len(small)


class TestExample11:
    def test_distance_between_first_two_is_sqrt_2(self, example_1_1):
        d2 = squared_euclidean_matrix(example_1_1.indicator_matrix().astype(float))
        assert math.sqrt(d2[0, 1]) == pytest.approx(math.sqrt(2))
        # and it is the smallest pairwise distance
        masked = d2 + np.eye(4) * 1e9
        assert masked.min() == pytest.approx(2.0)

    def test_distance_third_fourth_is_sqrt_3(self, example_1_1):
        d2 = squared_euclidean_matrix(example_1_1.indicator_matrix().astype(float))
        assert math.sqrt(d2[2, 3]) == pytest.approx(math.sqrt(3))

    def test_centroid_distances_after_first_merge(self, example_1_1):
        """Paper: after merging (a), (b), the centroid (0.5,1,1,0.5,1,0)
        sits at distance sqrt(3.5) and sqrt(4.5) from (c) and (d)."""
        m = example_1_1.indicator_matrix().astype(float)
        centroid = (m[0] + m[1]) / 2
        assert centroid.tolist() == [0.5, 1.0, 1.0, 0.5, 1.0, 0.0]
        d_c = ((centroid - m[2]) ** 2).sum()
        d_d = ((centroid - m[3]) ** 2).sum()
        assert d_c == pytest.approx(3.5)
        assert d_d == pytest.approx(4.5)

    def test_centroid_algorithm_merges_disjoint_transactions(self, example_1_1):
        """The paper's punchline: {1,4} and {6} -- no common item -- end
        in one cluster under the centroid algorithm at k=2."""
        result = centroid_cluster(example_1_1, k=2, eliminate_singletons=False)
        assert [2, 3] in [sorted(c) for c in result.clusters]

    def test_rock_with_one_common_item_rule_keeps_them_apart(self, example_1_1):
        """Section 1.2: with neighbors = 'share at least one item',
        {1,4} and {6} have no links and are never merged."""
        graph = compute_neighbor_graph(example_1_1, theta=1e-9)
        links = compute_links(graph)
        assert links.get(2, 3) == 0

    def test_ripple_effect_mean_spreading(self):
        """Section 1.1's ripple example: the distance between the two
        spread-out means is smaller than a member's distance to its own
        mean."""
        mean1 = np.array([1 / 3] * 3 + [0.0] * 3)
        mean2 = np.array([0.0] * 3 + [1 / 3] * 3)
        point = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        d_means = np.linalg.norm(mean1 - mean2)
        d_point = np.linalg.norm(point - mean1)
        assert d_means < d_point
        # and the merged mean is even further from the point
        merged = np.array([1 / 6] * 6)
        assert np.linalg.norm(point - merged) > d_point


class TestExample12Jaccard:
    def test_coefficient_range_within_cluster(self, figure_1):
        ds, index, _ = figure_1
        sim = JaccardSimilarity()
        assert sim({1, 2, 3}, {3, 4, 5}) == pytest.approx(0.2)
        assert sim({1, 2, 3}, {1, 2, 4}) == pytest.approx(0.5)

    def test_cross_cluster_pair_same_coefficient(self):
        """{1,2,3} and {1,2,7} are in different clusters yet share the
        maximal Jaccard value 0.5 -- the paper's motivating confusion."""
        sim = JaccardSimilarity()
        assert sim({1, 2, 3}, {1, 2, 7}) == pytest.approx(0.5)


class TestExample12Links:
    THETA = 0.5

    def links(self, figure_1):
        ds, index, _ = figure_1
        graph = compute_neighbor_graph(ds, theta=self.THETA)
        return compute_links(graph), index

    def test_same_cluster_pair_has_5_links(self, figure_1):
        links, index = self.links(figure_1)
        assert links.get(index[frozenset({1, 2, 3})], index[frozenset({1, 2, 4})]) == 5

    def test_cross_cluster_pair_has_3_links(self, figure_1):
        links, index = self.links(figure_1)
        assert links.get(index[frozenset({1, 2, 3})], index[frozenset({1, 2, 6})]) == 3

    def test_section_3_2_small_cluster_counts(self, figure_1):
        links, index = self.links(figure_1)
        # {1,2,6} has 5 links with {1,2,7} in its own cluster ...
        assert links.get(index[frozenset({1, 2, 6})], index[frozenset({1, 2, 7})]) == 5
        # ... and {1,6,7} has 2 links with every transaction in the small
        # cluster and 0 with every non-{1,2,x} one in the big cluster
        f167 = index[frozenset({1, 6, 7})]
        for other in [{1, 2, 6}, {1, 2, 7}, {2, 6, 7}]:
            assert links.get(f167, index[frozenset(other)]) == 2
        for other in [{3, 4, 5}, {1, 3, 4}, {2, 4, 5}]:
            assert links.get(f167, index[frozenset(other)]) == 0

    def test_common_neighbor_identities(self, figure_1):
        """The paper lists the exact common neighbors of ({1,2,3},{1,2,4}):
        {1,2,5}, {1,2,6}, {1,2,7}, {1,3,4} and {2,3,4}."""
        ds, index, _ = figure_1
        graph = compute_neighbor_graph(ds, theta=self.THETA)
        adjacency = graph.adjacency
        a = index[frozenset({1, 2, 3})]
        b = index[frozenset({1, 2, 4})]
        common = {
            i for i in range(len(ds)) if adjacency[a, i] and adjacency[b, i]
        }
        expected = {
            index[frozenset(s)]
            for s in [{1, 2, 5}, {1, 2, 6}, {1, 2, 7}, {1, 3, 4}, {2, 3, 4}]
        }
        assert common == expected

    def test_max_link_partner_stays_home(self, figure_1):
        """Section 3.2's operative claim: every transaction's strongest
        link partner belongs to its own cluster."""
        ds, index, truth = figure_1
        links, _ = self.links(figure_1)
        dense = links.to_dense()
        for i in range(len(ds)):
            best_partners = np.flatnonzero(dense[i] == dense[i].max())
            assert dense[i].max() > 0
            assert any(truth[j] == truth[i] for j in best_partners)
