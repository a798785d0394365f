"""Native kernels vs the reference paths -- byte-for-byte equivalence.

The :mod:`repro.native` kernels are only admissible as pure
optimisations: for every input the native fused pass must produce the
same survivor sets, neighbor lists, degrees and link counts as
:func:`repro.parallel.links.fused_neighbor_links`, and the native merge
engine must replay the same merge history -- bitwise-equal goodness
floats and identical ``heap_ops`` accounting -- as both the Figure 3
reference loop and the fast Python engine.  The hypothesis properties
mirror ``tests/test_merge_engine.py`` and ``tests/test_parallel_fit.py``
and run against every backend tier that probes successfully on this
machine (numba where the ``[native]`` extra is installed, the C
extension wherever a system compiler exists); unavailable tiers skip.
"""

import math
import os
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodness import (
    default_f,
    goodness,
    merge_kernel_for,
    naive_goodness,
)
from repro.core.links import LinkTable, compute_links
from repro.core.merge import (
    component_merge_stream,
    fast_cluster_with_links,
    partition_components,
)
from repro.core.neighbors import compute_neighbor_graph
from repro.core.pipeline import RockPipeline
from repro.core.rock import cluster_with_links, rock
from repro.core.similarity import JaccardSimilarity, OverlapSimilarity
from repro.data.transactions import Transaction, TransactionDataset
from repro.native import _BACKEND_NAMES, _reset_for_tests, get_kernels
from repro.native.links import (
    native_fit_supported,
    native_neighbor_links,
    native_transaction_csr,
)
from repro.native.merge import native_component_streams, native_merge_supported
from repro.obs.registry import MetricsRegistry
from repro.parallel.links import fused_neighbor_links

# probe once per tier; tests loop over whatever works on this machine
AVAILABLE = [name for name in _BACKEND_NAMES if get_kernels(name) is not None]

pytestmark = pytest.mark.skipif(
    not AVAILABLE, reason="no native backend available on this machine"
)


@contextmanager
def forced_backend(name: str):
    """Pin ``get_kernels()`` (no-arg form) to one tier for a block."""
    old = os.environ.get("REPRO_NATIVE_BACKEND")
    os.environ["REPRO_NATIVE_BACKEND"] = name
    _reset_for_tests()
    try:
        yield get_kernels(name)
    finally:
        if old is None:
            os.environ.pop("REPRO_NATIVE_BACKEND", None)
        else:
            os.environ["REPRO_NATIVE_BACKEND"] = old
        _reset_for_tests()


item_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), max_size=6),
    min_size=1,
    max_size=40,
)

THETAS = [0.2, 0.25, 0.5, 0.75, 1.0]


def tables_equal(a: LinkTable, b: LinkTable) -> bool:
    return a.n == b.n and sorted(a.pairs()) == sorted(b.pairs())


def assert_identical(ref, other) -> None:
    """Byte-for-byte RockResult equality, goodness floats included."""
    assert ref.clusters == other.clusters
    assert ref.stopped_early == other.stopped_early
    assert len(ref.merges) == len(other.merges)
    for a, b in zip(ref.merges, other.merges):
        assert a == b
        assert math.isclose(a.goodness, b.goodness, rel_tol=0.0, abs_tol=0.0) or (
            np.float64(a.goodness).tobytes() == np.float64(b.goodness).tobytes()
        )


# -- the fused pass: native block kernel vs scipy-product reference -----------


class TestNativeFusedPass:
    @settings(max_examples=40, deadline=None)
    @given(
        sets=item_sets,
        theta=st.sampled_from(THETAS),
        block_size=st.sampled_from([1, 3, 64]),
        overlap=st.booleans(),
    )
    def test_links_degrees_graph_identical(self, sets, theta, block_size, overlap):
        dataset = TransactionDataset([Transaction(s) for s in sets])
        similarity = OverlapSimilarity() if overlap else JaccardSimilarity()
        graph = compute_neighbor_graph(
            dataset, theta, similarity=similarity, method="vectorized"
        )
        reference = compute_links(graph, method="sparse")
        fused = fused_neighbor_links(
            dataset, theta, similarity=similarity, workers=1,
            block_size=block_size,
        )
        assert tables_equal(fused.links, reference)
        for name in AVAILABLE:
            with forced_backend(name):
                native = native_neighbor_links(
                    dataset, theta, similarity=similarity, workers=1,
                    block_size=block_size,
                )
            assert tables_equal(native.links, reference)
            assert np.array_equal(native.degrees, graph.degrees())

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_worker_count_invariance(self, backend):
        rng = np.random.default_rng(5)
        dataset = TransactionDataset([
            Transaction(frozenset(
                map(int, rng.choice(30, size=rng.integers(1, 8), replace=False))
            ))
            for _ in range(120)
        ])
        with forced_backend(backend):
            serial = native_neighbor_links(
                dataset, 0.4, workers=1, block_size=16
            )
            fanned = native_neighbor_links(
                dataset, 0.4, workers=3, block_size=16
            )
        assert tables_equal(serial.links, fanned.links)
        assert np.array_equal(serial.degrees, fanned.degrees)
        reference = fused_neighbor_links(dataset, 0.4, workers=1, block_size=16)
        assert tables_equal(serial.links, reference.links)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_csr_roundtrip_and_metrics(self, backend):
        dataset = TransactionDataset(
            [Transaction({1, 2, 3}), Transaction({2, 3, 4}), Transaction({9})]
        )
        csr = native_transaction_csr(dataset)
        assert csr is not None and csr.n == 3
        assert np.array_equal(np.diff(csr.indptr), csr.sizes)
        assert csr.t_indices.size == csr.indices.size
        registry = MetricsRegistry()
        with forced_backend(backend):
            native_neighbor_links(dataset, 0.5, workers=1, registry=registry)
        counters = registry.snapshot()["counters"]
        assert counters["fit.native.blocks"] >= 1
        assert counters["fit.native.rows"] == 3

    def test_unsupported_configs_rejected(self):
        ok, reason = native_fit_supported([Transaction({1, 2})], 0.0)
        assert not ok and "theta" in reason
        ok, reason = native_fit_supported(
            [Transaction({1, 2})], 0.5, similarity=lambda a, b: 1.0
        )
        assert not ok
        with pytest.raises(ValueError, match="native fit unsupported"):
            native_neighbor_links([Transaction({1, 2})], 0.0)


# -- the merge engine: native component loop vs heap and fast engines ---------


@st.composite
def link_problems(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    weighted = draw(st.booleans())
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda p: p[0] != p[1])
    if weighted:
        counts = st.floats(min_value=0.05, max_value=8.0, allow_nan=False, width=64)
    else:
        counts = st.integers(min_value=1, max_value=6).map(float)
    raw = draw(st.dictionaries(pairs, counts, max_size=n * 3))
    edges = {(min(a, b), max(a, b)): c for (a, b), c in raw.items()}
    k = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    use_partition = draw(st.booleans())
    initial = None
    if use_partition and n > 1:
        rng = random.Random(seed)
        ids = list(range(n))
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        initial = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n]) if b > a]
    return n, edges, k, initial


class TestNativeMergeEngine:
    @settings(max_examples=60, deadline=None)
    @given(problem=link_problems(), naive=st.booleans())
    def test_merge_history_identical(self, problem, naive):
        n, edges, k, initial = problem
        goodness_fn = naive_goodness if naive else goodness
        kwargs = dict(
            k=k, f_theta=default_f(0.5), initial_clusters=initial,
            goodness_fn=goodness_fn,
        )
        links = LinkTable(n, edges)
        ref = cluster_with_links(links, merge_method="heap", **kwargs)
        fast = cluster_with_links(links, merge_method="fast", **kwargs)
        assert_identical(ref, fast)
        for name in AVAILABLE:
            with forced_backend(name):
                native = cluster_with_links(
                    links, merge_method="native", **kwargs
                )
            assert_identical(ref, native)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_streams_and_heap_ops_identical(self, backend):
        """The native streams match the Python ones field for field."""
        rng = random.Random(11)
        links = LinkTable(90, {
            (i, j): rng.randint(1, 5)
            for base in range(0, 90, 6)
            for i in range(base, base + 6)
            for j in range(i + 1, base + 6)
        })
        sizes = np.ones(90, dtype=np.int64)
        lo, hi, counts = links.pair_arrays()
        problems = partition_components(90, sizes, lo, hi, counts)
        kernel = merge_kernel_for(goodness, default_f(0.5), n_max=90)
        serial = [component_merge_stream(p, kernel) for p in problems]
        registry = MetricsRegistry()
        with forced_backend(backend) as kernels:
            native = native_component_streams(
                problems, kernel, kernels, registry=registry
            )
        assert len(native) == len(serial)
        for a, b in zip(serial, native):
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.right, b.right)
            assert a.goodness.tobytes() == b.goodness.tobytes()
            assert np.array_equal(a.sizes, b.sizes)
            assert a.heap_ops == b.heap_ops
        counters = registry.snapshot()["counters"]
        assert counters["fit.cluster.heap_ops"] == sum(
            s.heap_ops for s in serial
        )

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_stopped_early_disconnected(self, backend):
        edges = {(0, 1): 3.0, (1, 2): 2.0, (3, 4): 4.0, (5, 6): 1.0}
        links = LinkTable(8, edges)  # point 7 fully isolated
        ref = cluster_with_links(
            links, k=1, f_theta=default_f(0.5), merge_method="heap"
        )
        with forced_backend(backend):
            native = cluster_with_links(
                links, k=1, f_theta=default_f(0.5), merge_method="native"
            )
        assert ref.stopped_early and native.stopped_early
        assert_identical(ref, native)

    def test_merge_supported_matrix(self):
        assert native_merge_supported(merge_kernel_for(goodness, 0.5))
        assert native_merge_supported(merge_kernel_for(naive_goodness, 0.5))
        assert not native_merge_supported(None)
        assert not native_merge_supported(
            merge_kernel_for(lambda c, ni, nj, f: c, 0.5)
        )


# -- the serving assign kernel: fused gather/threshold/argmax ----------------


class TestNativeAssignKernel:
    def test_probe_advertises_assign_block(self):
        """Every advertised tier carries the serving assign kernel.

        The probe's smoke test exercises ``assign_block`` before a tier
        is offered at all, so a namespace without it (or with a broken
        one) must never reach ``AVAILABLE``.
        """
        for name in AVAILABLE:
            kernels = get_kernels(name)
            assert hasattr(kernels, "assign_block"), name

    @settings(max_examples=40, deadline=None)
    @given(
        sets=item_sets,
        points=st.lists(
            st.frozensets(st.integers(min_value=0, max_value=20), max_size=6),
            min_size=1,
            max_size=25,
        ),
        theta=st.sampled_from(THETAS),
        block_size=st.sampled_from([1, 3, 8192]),
    )
    def test_assign_block_matches_pruned_path(
        self, sets, points, theta, block_size
    ):
        from repro.core.assign import AssignmentIndex
        from repro.core.labeling import ClusterLabeler
        from repro.data.transactions import Transaction as T

        half = max(1, len(sets) // 2)
        labeling_sets = [
            [T(s) for s in sets[:half]], [T(s) for s in sets[half:]]
        ]
        fast = AssignmentIndex(labeling_sets, theta, 0.4)
        batch = [T(p) for p in points]
        ref_labels, ref_best = fast.assign_with_scores(
            batch, block_size=block_size
        )
        oracle = ClusterLabeler(labeling_sets, theta, f=lambda _t: 0.4)
        assert ref_labels.tolist() == [oracle.assign(p) for p in batch]
        for name in AVAILABLE:
            kernels = get_kernels(name)
            labels, best = fast.assign_with_scores(
                batch, block_size=block_size, kernels=kernels
            )
            assert np.array_equal(labels, ref_labels), name
            assert best.tobytes() == ref_best.tobytes(), name


# -- end to end ---------------------------------------------------------------


class TestNativeEndToEnd:
    def _baskets(self, n_clusters: int = 4, per: int = 12, seed: int = 3):
        rng = np.random.default_rng(seed)
        txns = []
        for c in range(n_clusters):
            pool = np.arange(c * 12, c * 12 + 12)
            for _ in range(per):
                txns.append(
                    Transaction(rng.choice(pool, 8, replace=False).tolist())
                )
        return TransactionDataset(txns)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_rock_native_modes(self, backend):
        data = self._baskets()
        ref = rock(data, k=4, theta=0.5, fit_mode="fused", merge_method="heap")
        with forced_backend(backend):
            native = rock(
                data, k=4, theta=0.5, fit_mode="native", merge_method="native"
            )
        assert_identical(ref, native)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_pipeline_native_equals_fused(self, backend):
        data = self._baskets(n_clusters=5, per=10)
        kwargs = dict(
            k=5, theta=0.5, sample_size=40, min_cluster_size=3, seed=9
        )
        ref = RockPipeline(
            fit_mode="fused", merge_method="heap", **kwargs
        ).fit(data)
        with forced_backend(backend):
            native = RockPipeline(
                fit_mode="native", merge_method="native", **kwargs
            ).fit(data)
        assert ref.clusters == native.clusters
        assert np.array_equal(ref.labels, native.labels)
        assert ref.outlier_indices == native.outlier_indices
        assert native.backends["fit"] == f"native:{backend}"
        assert native.backends["merge"] == f"native:{backend}"
        assert ref.backends["fit"] == "fused"
