"""The link-table format: one canonical array form from every producer.

A :class:`LinkTable` is ``(lo, hi, counts)`` with ``lo < hi`` and the
pair codes ``lo * n + hi`` strictly increasing.  The Figure 4 oracle,
the dense matrix square, the fused pass and (where a tier probes) the
native pass must all emit exactly the same arrays -- same pairs, same
order, same integer counts -- and ``subset`` must keep that form while
reindexing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import LinkTable, dense_link_matrix, sparse_link_table
from repro.core.neighbors import compute_neighbor_graph
from repro.data.transactions import Transaction, TransactionDataset
from repro.native import native_available
from repro.native.links import native_fit_supported, native_neighbor_links
from repro.parallel.links import fused_neighbor_links

THETAS = [0.0, 0.2, 0.25, 0.5, 0.75, 1.0]

item_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), max_size=6),
    min_size=1,
    max_size=40,
)


def canonical_arrays(table: LinkTable) -> tuple[list, list, list]:
    """The table's arrays, after asserting they are in canonical form."""
    lo, hi, counts = table.pair_arrays()
    assert lo.dtype == hi.dtype == np.int64
    assert lo.shape == hi.shape == counts.shape
    assert np.all(lo < hi)
    assert np.all((lo >= 0) & (hi < table.n))
    assert np.all(np.diff(lo * table.n + hi) > 0)
    return lo.tolist(), hi.tolist(), counts.tolist()


@settings(max_examples=80, deadline=None)
@given(item_sets, st.sampled_from(THETAS), st.integers(min_value=1, max_value=7))
def test_every_producer_emits_the_same_arrays(sets, theta, block_size):
    dataset = TransactionDataset([Transaction(s) for s in sets])
    graph = compute_neighbor_graph(dataset, theta)
    oracle = sparse_link_table(graph)
    expected = canonical_arrays(oracle)
    produced = [
        LinkTable.from_dense(dense_link_matrix(graph)),
        fused_neighbor_links(
            dataset, theta, workers=1, block_size=block_size
        ).links,
    ]
    if native_available() and native_fit_supported(dataset, theta)[0]:
        produced.append(
            native_neighbor_links(
                dataset, theta, workers=1, block_size=block_size
            ).links
        )
    for table in [oracle, *produced]:
        assert table.n == graph.n
        assert table.counts.dtype == np.int64
        assert canonical_arrays(table) == expected


@settings(max_examples=80, deadline=None)
@given(item_sets, st.sampled_from(THETAS), st.data())
def test_subset_is_canonical_and_reindexed(sets, theta, data):
    dataset = TransactionDataset([Transaction(s) for s in sets])
    table = sparse_link_table(compute_neighbor_graph(dataset, theta))
    order = data.draw(st.permutations(range(table.n)))
    index = order[: data.draw(st.integers(min_value=0, max_value=table.n))]
    sub = table.subset(index)
    assert sub.n == len(index)
    canonical_arrays(sub)
    assert sub.counts.dtype == table.counts.dtype
    for a in range(len(index)):
        for b in range(len(index)):
            if a != b:
                assert sub.get(a, b) == table.get(index[a], index[b])
    if index:
        with pytest.raises(ValueError, match="unique"):
            table.subset([*index, index[0]])


def test_from_pair_counts_requires_strictly_increasing_codes():
    n = 4
    codes = np.array([0 * n + 1, 2 * n + 3])
    table = LinkTable.from_pair_counts(n, codes, np.array([2, 5]))
    assert canonical_arrays(table) == ([0, 2], [1, 3], [2, 5])
    with pytest.raises(ValueError, match="increasing"):
        LinkTable.from_pair_counts(n, codes[::-1], np.array([5, 2]))
    with pytest.raises(ValueError, match="increasing"):
        LinkTable.from_pair_counts(n, np.array([1, 1]), np.array([1, 1]))


def test_float_counts_keep_their_dtype_through_subset():
    table = LinkTable.from_dense(
        np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 1.5], [0.0, 1.5, 0.0]])
    )
    assert table.counts.dtype == np.float64
    sub = table.subset([2, 1])
    assert canonical_arrays(sub) == ([0], [1], [1.5])
    assert sub.counts.dtype == np.float64
