"""The fast merge engine vs the Figure 3 reference loop.

The fast engine (:mod:`repro.core.merge`) is only admissible as a pure
optimisation: for every link table, goodness measure, ``f(theta)``,
``k`` and starting partition it must reproduce the reference loop's
:class:`~repro.core.rock.RockResult` **byte for byte** -- the same
clusters, the same :class:`~repro.core.rock.MergeStep` history entry
for entry with bitwise-identical goodness floats, and the same
``stopped_early`` flag.  The hypothesis property drives randomized
link tables (integer and similarity-weighted counts) through both
engines across the goodness measures, ``f(theta)`` in {0, default},
and random ``initial_clusters`` partitions.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodness import (
    NaiveGoodnessKernel,
    NormalizedGoodnessKernel,
    PowerTable,
    default_f,
    goodness,
    merge_kernel_by_name,
    merge_kernel_for,
    naive_goodness,
)
from repro.core.labeling import labels_from_clusters
from repro.core.links import LinkTable
from repro.core.merge import (
    MERGE_METHODS,
    component_merge_stream,
    fast_cluster_with_links,
    partition_components,
    resolve_merge_method,
)
from repro.core.pipeline import RockPipeline
from repro.core.rock import cluster_with_links, rock
from repro.data.transactions import Transaction, TransactionDataset
from repro.obs.registry import MetricsRegistry

F_THETAS = [0.0, default_f(0.5)]


def assert_identical(ref, fast) -> None:
    """Byte-for-byte RockResult equality, goodness floats included."""
    assert ref.clusters == fast.clusters
    assert ref.stopped_early == fast.stopped_early
    assert len(ref.merges) == len(fast.merges)
    for a, b in zip(ref.merges, fast.merges):
        assert a == b  # dataclass equality covers the goodness float
        # == treats -0.0/0.0 and nan loosely; pin the exact bits too
        assert math.isclose(a.goodness, b.goodness, rel_tol=0.0, abs_tol=0.0) or (
            np.float64(a.goodness).tobytes() == np.float64(b.goodness).tobytes()
        )


@st.composite
def link_problems(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    weighted = draw(st.booleans())
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda p: p[0] != p[1])
    if weighted:
        counts = st.floats(
            min_value=0.05, max_value=8.0, allow_nan=False, width=64
        )
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
        initial = [
            ids[a:b] for a, b in zip([0] + cuts, cuts + [n]) if b > a
        ]
    return n, edges, k, initial


class TestMergeHistoryEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(link_problems())
    def test_normalized_goodness(self, problem):
        n, edges, k, initial = problem
        for f_theta in F_THETAS:
            links = LinkTable(n, edges)
            ref = cluster_with_links(
                links, k=k, f_theta=f_theta, initial_clusters=initial,
                merge_method="heap",
            )
            fast = cluster_with_links(
                links, k=k, f_theta=f_theta, initial_clusters=initial,
                merge_method="fast",
            )
            assert_identical(ref, fast)

    @settings(max_examples=60, deadline=None)
    @given(link_problems())
    def test_naive_goodness(self, problem):
        n, edges, k, initial = problem
        links = LinkTable(n, edges)
        ref = cluster_with_links(
            links, k=k, f_theta=default_f(0.5), initial_clusters=initial,
            goodness_fn=naive_goodness, merge_method="heap",
        )
        fast = cluster_with_links(
            links, k=k, f_theta=default_f(0.5), initial_clusters=initial,
            goodness_fn=naive_goodness, merge_method="fast",
        )
        assert_identical(ref, fast)

    def test_stopped_early_disconnected(self):
        """Mushroom-style early stop: k below the component count."""
        edges = {(0, 1): 3.0, (1, 2): 2.0, (3, 4): 4.0, (5, 6): 1.0}
        links = LinkTable(8, edges)  # point 7 fully isolated
        ref = cluster_with_links(
            links, k=1, f_theta=default_f(0.5), merge_method="heap"
        )
        fast = cluster_with_links(
            links, k=1, f_theta=default_f(0.5), merge_method="fast"
        )
        assert ref.stopped_early and fast.stopped_early
        assert_identical(ref, fast)

    def test_initial_clusters_resume(self):
        """Resuming from a partial partition replays identically."""
        rng = random.Random(7)
        edges: dict[tuple[int, int], int] = {}
        for _ in range(60):
            i, j = sorted(rng.sample(range(20), 2))
            edges[i, j] = edges.get((i, j), 0) + rng.randint(1, 4)
        links = LinkTable(20, edges)
        initial = [[0, 5, 7], [1, 2], [3], [4, 6, 8, 9], [10, 11],
                   [12, 13, 14], [15], [16, 17], [18, 19]]
        for f_theta in F_THETAS:
            ref = cluster_with_links(
                links, k=3, f_theta=f_theta, initial_clusters=initial,
                merge_method="heap",
            )
            fast = cluster_with_links(
                links, k=3, f_theta=f_theta, initial_clusters=initial,
                merge_method="fast",
            )
            assert_identical(ref, fast)


class TestMergeMethodDispatch:
    def test_resolve(self):
        from repro.native import auto_native

        # auto promotes to native exactly when a tier passed its probe
        expected = "native" if auto_native() else "fast"
        assert resolve_merge_method("auto", goodness) == expected
        assert resolve_merge_method("auto", naive_goodness) == expected
        assert resolve_merge_method("heap", goodness) == "heap"
        assert resolve_merge_method("fast", goodness) == "fast"
        # custom callables stay on the reference loop under auto
        custom = lambda c, ni, nj, f: float(c)  # noqa: E731
        assert resolve_merge_method("auto", custom) == "heap"
        assert resolve_merge_method("fast", custom) == "fast"

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="merge_method"):
            resolve_merge_method("turbo", goodness)
        with pytest.raises(ValueError, match="merge_method"):
            RockPipeline(k=2, theta=0.5, merge_method="turbo")

    def test_forced_fast_with_custom_callable(self):
        """A symmetric custom goodness works when fast is forced."""
        links = LinkTable(6, {(0, 1): 2.0, (1, 2): 1.0, (3, 4): 3.0})

        def halved(count, ni, nj, f_theta):
            return count / (ni + nj)

        ref = cluster_with_links(
            links, k=2, f_theta=0.3, goodness_fn=halved, merge_method="heap"
        )
        fast = cluster_with_links(
            links, k=2, f_theta=0.3, goodness_fn=halved, merge_method="fast"
        )
        assert_identical(ref, fast)


class TestKernelsBitwise:
    def test_power_table_matches_pow(self):
        for f_theta in [0.0, default_f(0.5), default_f(0.73)]:
            table = PowerTable(f_theta, 50)
            exponent = 1.0 + 2.0 * f_theta
            for i in range(51):
                assert table[i] == float(i) ** exponent
            arr = table.array()
            assert arr.shape == (51,)
            assert np.all(arr == np.array([table[i] for i in range(51)]))

    def test_normalized_kernel_matches_goodness(self):
        f_theta = default_f(0.5)
        kernel = NormalizedGoodnessKernel(f_theta, 40)
        bound = kernel.bind(20)
        for count, ni, nj in [(3.0, 1, 1), (2.5, 4, 9), (7.0, 9, 4), (1.0, 17, 3)]:
            expected = goodness(count, ni, nj, f_theta)
            assert kernel.scalar(count, ni, nj) == expected
            assert bound(count, ni, nj) == expected
        vec = kernel.vector(
            np.array([3.0, 2.5, 2.5]),
            np.array([1, 4, 9]),
            np.array([1, 9, 4]),
        )
        assert vec[0] == goodness(3.0, 1, 1, f_theta)
        assert vec[1] == goodness(2.5, 4, 9, f_theta)
        assert vec[2] == vec[1]  # bitwise symmetric in (ni, nj)

    def test_degenerate_denominator(self):
        """f(theta)=0: positive counts are infinitely good, zeros are 0."""
        kernel = NormalizedGoodnessKernel(0.0, 10)
        assert kernel.scalar(2.0, 1, 1) == math.inf
        assert kernel.scalar(0.0, 1, 1) == 0.0
        vec = kernel.vector(np.array([2.0, 0.0]), np.array([1, 1]), np.array([1, 1]))
        assert vec[0] == math.inf and vec[1] == 0.0

    def test_kernel_registry(self):
        assert merge_kernel_for(goodness, 0.5).name == "normalized"
        assert merge_kernel_for(naive_goodness, 0.5).name == "naive"
        assert merge_kernel_for(lambda c, ni, nj, f: c, 0.5) is None
        assert isinstance(
            merge_kernel_by_name("naive", 0.5), NaiveGoodnessKernel
        )
        with pytest.raises(ValueError, match="unknown merge kernel"):
            merge_kernel_by_name("bogus", 0.5)


class TestParallelDeterminism:
    def _problem_set(self):
        rng = random.Random(11)
        # 15 components of 6 points each, fully linked inside
        return LinkTable(90, {
            (i, j): rng.randint(1, 5)
            for base in range(0, 90, 6)
            for i in range(base, base + 6)
            for j in range(i + 1, base + 6)
        })

    def test_worker_count_invariance(self):
        from repro.parallel.merge import parallel_component_streams

        links = self._problem_set()
        sizes = np.ones(90, dtype=np.int64)
        lo, hi, counts = links.pair_arrays()
        problems = partition_components(90, sizes, lo, hi, counts)
        assert len(problems) == 15
        kernel = merge_kernel_for(goodness, default_f(0.5), n_max=90)
        serial = [component_merge_stream(p, kernel) for p in problems]
        registry = MetricsRegistry()
        parallel = parallel_component_streams(
            problems, f_theta=default_f(0.5), kernel_name="normalized",
            n_max=90, workers=2, registry=registry,
        )
        assert len(parallel) == len(serial)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.right, b.right)
            assert a.goodness.tobytes() == b.goodness.tobytes()
            assert np.array_equal(a.sizes, b.sizes)
            assert a.heap_ops == b.heap_ops
        counters = registry.snapshot()["counters"]
        assert counters["fit.cluster.chunks"] >= 1
        assert counters["fit.cluster.heap_ops"] == sum(
            s.heap_ops for s in serial
        )

    def test_workers_end_to_end(self):
        links = self._problem_set()
        ref = cluster_with_links(
            links, k=15, f_theta=default_f(0.5), merge_method="heap"
        )
        fast = fast_cluster_with_links(
            links, k=15, f_theta=default_f(0.5), workers=2
        )
        assert_identical(ref, fast)


class TestRegistryCounters:
    def test_component_and_heap_counters(self):
        links = LinkTable(
            10, {(0, 1): 2.0, (1, 2): 1.0, (3, 4): 3.0, (5, 6): 1.0, (6, 7): 2.0}
        )
        registry = MetricsRegistry()
        fast_cluster_with_links(
            links, k=3, f_theta=default_f(0.5), registry=registry
        )
        counters = registry.snapshot()["counters"]
        assert counters["fit.cluster.components"] == 3
        assert counters["fit.cluster.heap_ops"] > 0


class TestEngineIntegration:
    def _baskets(self, n_clusters: int = 4, per: int = 12, seed: int = 3):
        rng = np.random.default_rng(seed)
        txns = []
        for c in range(n_clusters):
            pool = np.arange(c * 12, c * 12 + 12)
            for _ in range(per):
                txns.append(Transaction(rng.choice(pool, 8, replace=False).tolist()))
        return TransactionDataset(txns)

    def test_rock_end_to_end(self):
        data = self._baskets()
        ref = rock(data, k=4, theta=0.5, merge_method="heap")
        fast = rock(data, k=4, theta=0.5, merge_method="fast")
        auto = rock(data, k=4, theta=0.5)
        assert_identical(ref, fast)
        assert_identical(ref, auto)

    def test_pipeline_with_weeding_resume(self):
        """The weed-then-resume path goes through the fast engine too."""
        data = self._baskets(n_clusters=5, per=10)
        kwargs = dict(
            k=5, theta=0.5, sample_size=40, min_cluster_size=3, seed=9
        )
        ref = RockPipeline(merge_method="heap", **kwargs).fit(data)
        fast = RockPipeline(merge_method="fast", **kwargs).fit(data)
        assert ref.clusters == fast.clusters
        assert np.array_equal(ref.labels, fast.labels)
        assert ref.outlier_indices == fast.outlier_indices

    def test_model_metadata_records_merge_method(self):
        from repro.serve.model import model_from_result

        data = self._baskets()
        pipeline = RockPipeline(k=4, theta=0.5, merge_method="fast", seed=1)
        result = pipeline.fit(data)
        model = model_from_result(pipeline, result, points=data)
        assert model.metadata["merge_method"] == "fast"

    def test_estimator_param_roundtrip(self):
        from repro.estimator import RockClusterer

        est = RockClusterer(n_clusters=2, merge_method="fast")
        assert est.get_params()["merge_method"] == "fast"
        est.set_params(merge_method="heap")
        assert est.merge_method == "heap"

    def test_methods_tuple(self):
        assert MERGE_METHODS == ("auto", "heap", "fast", "native")


class TestLabelsFromClusters:
    def test_basic(self):
        labels = labels_from_clusters([[0, 2], [1], []], 5)
        assert labels.tolist() == [0, 1, 0, -1, -1]
        assert labels.dtype == np.int64

    def test_empty(self):
        assert labels_from_clusters([], 3).tolist() == [-1, -1, -1]
        assert labels_from_clusters([[]], 0).shape == (0,)
