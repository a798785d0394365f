"""The fused fit kernel vs the dense and serial-blocked paths.

The fused neighbor+link pass is only admissible as a pure
optimisation: identical degrees, identical :class:`LinkTable`,
identical final clusters for every input and worker count, with
order-preserving (hence byte-deterministic) merges.  The hypothesis
properties drive randomized baskets and categorical records through
every path at tiny block sizes so each run exercises multi-block
stitching and multi-block pair-count merging.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import LinkTable, compute_links
from repro.core.neighbors import (
    NeighborGraph,
    SparseTransactionScorer,
    block_tasks,
    blocked_neighbor_graph,
    build_block_scorer,
    compute_neighbor_graph,
)
from repro.core.pipeline import RockPipeline
from repro.core.rock import FIT_MODES, rock
from repro.core.similarity import (
    JaccardSimilarity,
    MissingAwareJaccard,
    OverlapSimilarity,
)
from repro.data.records import CategoricalDataset, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset
from repro.obs.trace import Tracer
from repro.parallel import (
    fused_neighbor_links,
    merge_pair_counts,
    pair_link_counts,
)
from repro.parallel.pool import (
    default_workers,
    imap_chunked,
    iter_chunks,
    resolve_workers,
)

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


def tables_equal(a: LinkTable, b: LinkTable) -> bool:
    if a.n != b.n:
        return False
    return sorted(a.pairs()) == sorted(b.pairs())


def assert_fused_matches(fused, graph: NeighborGraph) -> None:
    """Fused degrees and links equal the graph's and its Figure 4 table."""
    assert np.array_equal(fused.degrees, graph.degrees())
    assert tables_equal(fused.links, compute_links(graph, method="sparse"))


def make_baskets(n: int, vocab: int = 40, seed: int = 0) -> TransactionDataset:
    rng = np.random.default_rng(seed)
    return TransactionDataset([
        Transaction(frozenset(
            map(int, rng.choice(vocab, size=rng.integers(1, 8), replace=False))
        ))
        for _ in range(n)
    ])


# -- hypothesis equivalence: every kernel, every path -------------------------


@settings(max_examples=50, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from(THETAS),
    block_size=st.sampled_from([1, 2, 3, 7, 64]),
    overlap=st.booleans(),
    workers=st.sampled_from([1, 3]),
)
def test_parallel_graph_equals_dense_and_blocked(
    sets, theta, block_size, overlap, workers
):
    # the fused pass fanned across workers reproduces the dense and the
    # serial blocked neighbor graphs (as degrees + links) exactly
    dataset = TransactionDataset([Transaction(s) for s in sets])
    similarity = OverlapSimilarity() if overlap else JaccardSimilarity()
    dense = compute_neighbor_graph(
        dataset, theta, similarity=similarity, method="vectorized"
    )
    blocked = blocked_neighbor_graph(
        dataset, theta, similarity=similarity, block_size=block_size
    )
    assert graphs_equal(blocked, dense)
    fused = fused_neighbor_links(
        dataset, theta, similarity=similarity, workers=workers,
        block_size=block_size,
    )
    assert_fused_matches(fused, dense)
    assert_fused_matches(fused, blocked)


@settings(max_examples=50, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from(THETAS),
    block_size=st.sampled_from([1, 3, 64]),
    workers=st.sampled_from([1, 3]),
)
def test_fused_links_equal_dense_and_sparse_paths(sets, theta, block_size, workers):
    dataset = TransactionDataset([Transaction(s) for s in sets])
    dense = compute_neighbor_graph(dataset, theta, method="vectorized")
    fused = fused_neighbor_links(
        dataset, theta, workers=workers, block_size=block_size,
    )
    assert tables_equal(fused.links, compute_links(dense, method="dense"))
    assert_fused_matches(fused, dense)


@settings(max_examples=25, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from([0.25, 0.5]),
    mode=st.sampled_from(["dense", "fused", "native"]),
)
def test_rock_clusters_identical_across_fit_modes(sets, theta, mode):
    dataset = TransactionDataset([Transaction(s) for s in sets])
    base = rock(dataset, k=2, theta=theta)
    with warnings.catch_warnings():
        # a forced native mode without a probed tier warns and runs fused
        warnings.simplefilter("ignore", RuntimeWarning)
        alt = rock(dataset, k=2, theta=theta, fit_mode=mode, workers=2)
    assert sorted(map(sorted, alt.clusters)) == sorted(map(sorted, base.clusters))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", None]),
            st.sampled_from(["x", "y", None]),
        ),
        min_size=2,
        max_size=25,
    ),
    theta=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_parallel_graph_on_missing_aware_records(rows, theta):
    schema = CategoricalSchema(("p", "q"))
    dataset = CategoricalDataset(
        schema, [CategoricalRecord(schema, row) for row in rows]
    )
    similarity = MissingAwareJaccard()
    dense = compute_neighbor_graph(
        dataset, theta, similarity=similarity, method="vectorized"
    )
    fused = fused_neighbor_links(
        dataset, theta, similarity=similarity, workers=3, block_size=2,
    )
    assert_fused_matches(fused, dense)


# -- determinism: identical bytes across repeated multi-worker runs ----------


def test_workers4_runs_are_byte_identical():
    dataset = make_baskets(400)
    runs = [
        fused_neighbor_links(dataset, 0.4, workers=4, block_size=37)
        for _ in range(2)
    ]
    first, second = (
        (run.degrees.tobytes(), list(run.links.pairs())) for run in runs
    )
    assert first == second

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # native w/o a tier
        fits = [
            RockPipeline(
                k=5, theta=0.4, seed=3, fit_mode=mode, workers=4
            ).fit(dataset, label_remaining=False)
            for mode in ("fused", "fused", "native", "native")
        ]
    labels = [fit.labels.tobytes() for fit in fits]
    assert labels[0] == labels[1] == labels[2] == labels[3]


def test_fused_merge_is_submission_ordered():
    # degrees must line up with point order even when later blocks are
    # cheaper than earlier ones (completion order != submission order)
    dataset = make_baskets(300)
    serial = fused_neighbor_links(dataset, 0.4, workers=1, block_size=17)
    parallel = fused_neighbor_links(dataset, 0.4, workers=4, block_size=17)
    assert np.array_equal(serial.degrees, parallel.degrees)
    assert tables_equal(serial.links, parallel.links)


# -- pool layer ---------------------------------------------------------------


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers("auto") == default_workers()
    with pytest.raises(ValueError):
        resolve_workers(0)
    with pytest.raises(ValueError):
        resolve_workers("many")


def test_iter_chunks():
    assert list(iter_chunks(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
    assert list(iter_chunks([], 3)) == []
    with pytest.raises(ValueError):
        list(iter_chunks([1], 0))


def test_imap_chunked_serial_runs_initializer_in_process():
    state = {}
    results = list(
        imap_chunked(
            lambda x: x * state["factor"],
            [1, 2, 3],
            workers=1,
            initializer=lambda f: state.__setitem__("factor", f),
            initargs=(10,),
        )
    )
    assert results == [10, 20, 30]


def test_serve_parallel_reexports_pool_layer():
    # serve.parallel became a thin consumer; its public names survive
    from repro.parallel.pool import iter_chunks as pool_chunks
    from repro.serve.parallel import _chunks, default_workers as serve_workers

    assert _chunks is pool_chunks
    assert serve_workers() == default_workers()


# -- pair-count plumbing ------------------------------------------------------


def test_pair_link_counts_and_merge():
    lists = [np.array([1, 3, 4]), np.array([3, 4]), np.array([], dtype=np.int64)]
    codes, counts = pair_link_counts(lists, n=5)
    # pairs: (1,3), (1,4), (3,4) from the first list; (3,4) again
    assert codes.tolist() == [1 * 5 + 3, 1 * 5 + 4, 3 * 5 + 4]
    assert counts.tolist() == [1, 1, 2]

    merged = merge_pair_counts([
        (codes, counts),
        pair_link_counts([np.array([3, 4])], n=5),
    ])
    assert merged[0].tolist() == [8, 9, 19]
    assert merged[1].tolist() == [1, 1, 3]
    empty = merge_pair_counts([])
    assert empty[0].size == 0 and empty[1].size == 0


def test_link_table_from_pair_counts_round_trip():
    dataset = make_baskets(60)
    graph = compute_neighbor_graph(dataset, 0.3, method="vectorized")
    expected = compute_links(graph, method="sparse")
    codes, counts = pair_link_counts(graph.neighbor_lists(), graph.n)
    rebuilt = LinkTable.from_pair_counts(graph.n, codes, counts)
    assert tables_equal(rebuilt, expected)
    with pytest.raises(ValueError):
        LinkTable.from_pair_counts(3, np.array([2 * 3 + 1]), np.array([1]))


def test_link_table_subset_equals_subgraph_links():
    dataset = make_baskets(80, vocab=120, seed=2)
    graph = compute_neighbor_graph(dataset, 0.3, method="vectorized")
    links = compute_links(graph, method="sparse")
    kept = np.flatnonzero(graph.degrees() >= 1)
    assert len(kept) < graph.n  # the seed produces isolated points
    expected = compute_links(graph.subgraph(kept), method="sparse")
    assert tables_equal(links.subset(kept), expected)


# -- fallbacks and routing ----------------------------------------------------


def test_sparse_scorer_is_opt_in_for_parallel_paths():
    pytest.importorskip("scipy")
    dataset = make_baskets(30)
    assert isinstance(
        build_block_scorer(dataset, prefer_sparse=True), SparseTransactionScorer
    )
    assert not isinstance(
        build_block_scorer(dataset), SparseTransactionScorer
    )


@settings(max_examples=30, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from(THETAS),
    block_size=st.sampled_from([1, 3, 64]),
    overlap=st.booleans(),
)
def test_sparse_scorer_matches_dense_scorer(sets, theta, block_size, overlap):
    # the fused pass defaults to the CSR scorer; its prefilter and
    # unsorted-product handling need their own equivalence property
    # against the forced-dense scorer: same rows and same fused links
    pytest.importorskip("scipy")
    dataset = TransactionDataset([Transaction(s) for s in sets])
    similarity = OverlapSimilarity() if overlap else JaccardSimilarity()
    dense_rows, sparse_rows = (
        [
            row
            for start, stop in block_tasks(len(dataset), block_size)
            for row in build_block_scorer(
                dataset, similarity, prefer_sparse=prefer
            ).neighbor_rows(start, stop, theta)
        ]
        for prefer in (False, True)
    )
    assert all(map(np.array_equal, sparse_rows, dense_rows))
    dense_fused = fused_neighbor_links(
        dataset, theta, similarity=similarity, workers=2,
        block_size=block_size, prefer_sparse=False,
    )
    sparse_fused = fused_neighbor_links(
        dataset, theta, similarity=similarity, workers=2,
        block_size=block_size, prefer_sparse=True,
    )
    assert tables_equal(sparse_fused.links, dense_fused.links)
    assert np.array_equal(sparse_fused.degrees, dense_fused.degrees)


def test_fused_pipeline_with_strict_pruning_falls_back():
    # min_neighbors > 1 invalidates the subset shortcut; the fused pass
    # itself runs a second pass over the kept points -- no fallback --
    # and still agrees with the dense oracle
    dataset = make_baskets(200)
    base = RockPipeline(
        k=4, theta=0.4, seed=1, min_neighbors=3, fit_mode="dense"
    ).fit(dataset, label_remaining=False)
    tracer = Tracer()
    fused = RockPipeline(
        k=4, theta=0.4, seed=1, min_neighbors=3, fit_mode="fused", workers=2
    ).fit(dataset, label_remaining=False, tracer=tracer)
    assert fused.plan.fit == "fused"
    assert fused.plan.fallbacks == base.plan.fallbacks
    assert "min_neighbors" not in fused.plan.fallbacks
    (root,) = tracer.spans()
    links_span = next(s for s in root.children if s.name == "links")
    assert links_span.attrs["second_pass"] is True
    assert np.array_equal(base.labels, fused.labels)
    assert fused.outlier_indices == base.outlier_indices
    assert fused.rock_result.merges == base.rock_result.merges


def test_fit_mode_validation():
    for removed in ("blocked", "parallel"):
        with pytest.raises(ValueError):
            RockPipeline(k=2, theta=0.5, fit_mode=removed)
    with pytest.raises(ValueError):
        RockPipeline(k=2, theta=0.5, fit_mode="warp")
    with pytest.raises(ValueError):
        rock(make_baskets(10), k=2, theta=0.5, fit_mode="warp")
    assert FIT_MODES == ("auto", "dense", "fused", "native", "sharded")


def test_model_metadata_records_fit_mode_and_workers():
    dataset = make_baskets(120)
    pipeline = RockPipeline(
        k=4, theta=0.4, seed=0, sample_size=80, fit_mode="fused", workers=2
    )
    _, model = pipeline.fit_model(dataset)
    assert model.metadata["fit_mode"] == "fused"
    assert model.metadata["workers"] == 2


def test_cli_fit_mode_and_workers(tmp_path, capsys):
    from repro.cli import main

    lines = [
        " ".join(str(x) for x in sorted(txn.items))
        for txn in make_baskets(60, vocab=20, seed=4)
    ]
    data = tmp_path / "baskets.txt"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main([
        "fit-model", "--input", str(data), "--format", "transactions",
        "-k", "3", "--theta", "0.4", "--model", str(model_path),
        "--fit-mode", "fused", "--workers", "2", "--seed", "0",
    ]) == 0
    capsys.readouterr()
    from repro.serve.model import RockModel

    model = RockModel.load(model_path)
    assert model.metadata["fit_mode"] == "fused"
    assert model.metadata["workers"] == 2
    with pytest.raises(SystemExit):
        main([
            "cluster", "--input", str(data), "--format", "transactions",
            "-k", "3", "--theta", "0.4", "--workers", "nope",
        ])


def test_fused_tier_never_builds_the_dense_indicator_matrix(monkeypatch):
    """Without a native backend the fused pass encodes transactions
    straight to CSR: the n x vocabulary indicator matrix never exists,
    and the fit still equals the dense path."""
    import repro.native as native

    dataset = make_baskets(120, vocab=60, seed=4)
    dense = rock(dataset, k=3, theta=0.3, fit_mode="dense")

    def refuse(self):
        raise AssertionError("the fused tier built the dense indicator matrix")

    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setattr(TransactionDataset, "indicator_matrix", refuse)
    native._reset_for_tests()
    try:
        fused = rock(dataset, k=3, theta=0.3, fit_mode="fused")
    finally:
        native._reset_for_tests()
    assert fused.clusters == dense.clusters
    assert fused.merges == dense.merges
    assert fused.stopped_early == dense.stopped_early
