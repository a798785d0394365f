"""AssignmentIndex tiers vs the LabelingIndex oracle -- bitwise equivalence.

The inverted index (:mod:`repro.core.assign`) is the production §4.6
labeling path, admissible only as a pure optimisation: for every input,
every tier -- ``pruned`` (scipy or numpy candidate gather) and
``native`` (the fused ``assign_block`` kernel) -- must produce the same
labels *and* the same winning scores, bit for bit, as the dense neighbor
counts of :class:`~repro.core.labeling.LabelingIndex` (the oracle behind
:class:`~repro.core.labeling.ClusterLabeler`).  The hypothesis properties
drive random labeling sets (including empty clusters and empty
representative sets), random points (including empty item sets and
points with zero vocabulary overlap), every interesting theta --
``0.0`` (the every-rep-is-a-neighbor degenerate case) through ``1.0``
-- and categorical records with missing values through all tiers.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labeling import ClusterLabeler, LabelingIndex
from repro.data.records import MISSING, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction
from repro.native import _BACKEND_NAMES, get_kernels
from repro.core.assign import build_assignment_index
from repro.core.similarity import JaccardSimilarity, SimilarityTable
from repro.serve import (
    AssignmentEngine,
    AssignmentIndex,
    RockModel,
    resolve_assign_backend,
)

# every probed kernel namespace that offers the assign kernel; tests
# loop over whatever works on this machine (numba and/or the C tier)
ASSIGN_KERNELS = [
    kernels
    for kernels in (get_kernels(name) for name in _BACKEND_NAMES)
    if kernels is not None and hasattr(kernels, "assign_block")
]

THETAS = [0.0, 0.2, 0.4, 0.5, 0.75, 1.0]


def make_model(labeling_sets, theta=0.4, **kwargs):
    return RockModel(
        labeling_sets=labeling_sets,
        theta=theta,
        f_theta=(1 - theta) / (1 + theta),
        **kwargs,
    )


def oracle_assign_with_scores(index: LabelingIndex, points):
    """The oracle's ``(labels, best scores)`` from its dense neighbor counts.

    Normalised argmax with the lowest-index tie-break, ``-1`` and score
    ``0.0`` for points without neighbors -- the contract the fast tiers
    must reproduce bit for bit.
    """
    counts = index.neighbor_counts(points)
    all_scores = counts / index.normalisers
    labels = np.argmax(all_scores, axis=1)
    best = all_scores[np.arange(len(points)), labels]
    outliers = ~counts.any(axis=1)
    labels[outliers] = -1
    best[outliers] = 0.0
    return labels.astype(np.int64), best


def assert_bitwise_equal(ref_labels, ref_best, labels, best):
    assert np.array_equal(ref_labels, labels)
    assert ref_best.tobytes() == np.asarray(best, dtype=np.float64).tobytes()


# -- the equivalence property -------------------------------------------------

rep_sets = st.frozensets(st.integers(min_value=0, max_value=12), max_size=5)
labeling_sets_strategy = st.lists(
    st.lists(rep_sets, max_size=4), min_size=1, max_size=4
).filter(lambda ls: any(len(li) for li in ls))
# points reach past the vocabulary bound on purpose: out-of-vocabulary
# items intersect nothing but still enlarge every union
points_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=20), max_size=6),
    min_size=0,
    max_size=25,
)


class TestTierEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        sets=labeling_sets_strategy,
        points=points_strategy,
        theta=st.sampled_from(THETAS),
        block_size=st.sampled_from([1, 3, 8192]),
    )
    def test_all_tiers_bitwise_identical(self, sets, points, theta, block_size):
        labeling_sets = [[Transaction(s) for s in li] for li in sets]
        batch = [Transaction(p) for p in points]
        f_theta = (1 - theta) / (1 + theta)
        oracle = LabelingIndex(labeling_sets, theta, f_theta)
        fast = AssignmentIndex(labeling_sets, theta, f_theta)

        # neighbor counts agree exactly (integers, so plain equality)
        assert np.array_equal(
            oracle.neighbor_counts(batch), fast.neighbor_counts(batch)
        )

        ref_labels, ref_best = oracle_assign_with_scores(oracle, batch)

        # pruned tier
        labels, best = fast.assign_with_scores(batch, block_size=block_size)
        assert_bitwise_equal(ref_labels, ref_best, labels, best)

        # native tier(s)
        for kernels in ASSIGN_KERNELS:
            labels, best = fast.assign_with_scores(
                batch, block_size=block_size, kernels=kernels
            )
            assert_bitwise_equal(ref_labels, ref_best, labels, best)

        # the scalar §4.6 labeler agrees point for point
        labeler = ClusterLabeler(
            labeling_sets, theta=theta, f=lambda _t: f_theta
        )
        assert fast.assign(batch).tolist() == [
            labeler.assign(p) for p in batch
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", None]),
                st.sampled_from(["x", "y", None]),
                st.sampled_from(["1", "2", "3", None]),
            ),
            min_size=1,
            max_size=12,
        ),
        split=st.integers(min_value=1, max_value=11),
        theta=st.sampled_from(THETAS),
    )
    def test_records_with_missing_values(self, rows, split, theta):
        """Categorical records (``None`` = missing) agree across tiers."""
        schema = CategoricalSchema(["f0", "f1", "f2"])
        records = [
            CategoricalRecord(
                schema, [MISSING if v is None else v for v in row]
            )
            for row in rows
        ]
        split = min(split, len(records))
        labeling_sets = [records[:split], records[split:]]
        if all(len(li) == 0 for li in labeling_sets):
            return
        f_theta = (1 - theta) / (1 + theta)
        oracle = LabelingIndex(labeling_sets, theta, f_theta)
        fast = AssignmentIndex(labeling_sets, theta, f_theta)
        # query with the records themselves plus an all-missing one
        batch = records + [CategoricalRecord(schema, [MISSING] * 3)]
        ref_labels, ref_best = oracle_assign_with_scores(oracle, batch)
        labels, best = fast.assign_with_scores(batch)
        assert_bitwise_equal(ref_labels, ref_best, labels, best)
        for kernels in ASSIGN_KERNELS:
            labels, best = fast.assign_with_scores(batch, kernels=kernels)
            assert_bitwise_equal(ref_labels, ref_best, labels, best)

    def test_outlier_short_circuit(self):
        """Zero-overlap points label -1 without touching any arithmetic."""
        fast = AssignmentIndex(
            [[Transaction({1, 2})], [Transaction({3, 4})]], 0.5, 0.4
        )
        batch = [Transaction({99, 100}), Transaction(set()), Transaction({1, 2})]
        labels, best = fast.assign_with_scores(batch)
        assert labels.tolist() == [-1, -1, 0]
        assert best[:2].tolist() == [0.0, 0.0]
        assert best[2] > 0.0

    def test_empty_batch_every_tier(self):
        fast = AssignmentIndex([[Transaction({1})]], 0.5, 0.4)
        assert fast.assign([]).shape == (0,)
        for kernels in ASSIGN_KERNELS:
            labels, best = fast.assign_with_scores([], kernels=kernels)
            assert labels.shape == (0,) and best.shape == (0,)

    def test_pickle_roundtrip_preserves_assignments(self):
        """The index ships through pool payloads; behaviour must survive."""
        fast = AssignmentIndex(
            [[Transaction({1, 2, 3}), Transaction({2, 3, 4})],
             [Transaction({7, 8})]],
            0.4,
            0.4,
        )
        batch = [Transaction({1, 2}), Transaction({7, 8}), Transaction({50})]
        before = fast.assign_with_scores(batch)
        clone = pickle.loads(pickle.dumps(fast))
        assert clone._rep_t is None  # the scipy handle never travels
        after = clone.assign_with_scores(batch)
        assert_bitwise_equal(before[0], before[1], after[0], after[1])

    def test_block_size_must_be_positive(self):
        """Regression: ``block_size < 1`` returned uninitialised labels."""
        fast = AssignmentIndex([[Transaction({1, 2})]], 0.4, 0.4)
        batch = [Transaction({1, 2}), Transaction({1}), Transaction({9})]
        for block_size in (0, -1):
            with pytest.raises(ValueError, match="block_size"):
                fast.assign(batch, block_size=block_size)
            with pytest.raises(ValueError, match="block_size"):
                fast.assign_with_scores(batch, block_size=block_size)

    def test_posting_lists_match_the_oracle_matrix(self):
        """Posting lists built from the sets equal the oracle's matrix
        columns, in ascending representative order."""
        labeling_sets = [
            [Transaction({"a", "b"}), Transaction({"b", "c"})],
            [],
            [Transaction({"c"}), Transaction(set()), Transaction({"a", "d"})],
        ]
        oracle = LabelingIndex(labeling_sets, 0.3, 0.5)
        fast = AssignmentIndex(labeling_sets, 0.3, 0.5)
        assert fast.vocabulary == oracle.vocabulary
        assert fast.rep_sizes.tolist() == oracle.rep_sizes.tolist()
        assert fast.normalisers.tobytes() == oracle.normalisers.tobytes()
        assert fast.rep_cluster.tolist() == [0, 0, 2, 2, 2]
        assert fast.cluster_rep_counts.tolist() == [2, 0, 3]
        for column in range(oracle.rep_matrix.shape[1]):
            posting = fast.inv_reps[
                fast.inv_indptr[column] : fast.inv_indptr[column + 1]
            ]
            expected = np.flatnonzero(oracle.rep_matrix[:, column])
            assert posting.tolist() == expected.tolist()


class TestIndexability:
    def test_jaccard_item_sets_are_indexable(self):
        sets = [[Transaction({1, 2})], [frozenset({3})]]
        for similarity in (None, JaccardSimilarity()):
            index = build_assignment_index(sets, 0.5, 0.4, similarity)
            assert isinstance(index, AssignmentIndex)

    def test_other_similarities_are_not(self):
        table = SimilarityTable({("p", "a1"): 0.9})
        assert build_assignment_index([["a1"]], 0.5, 0.4, table) is None
        scalar = lambda a, b: JaccardSimilarity()(a, b)  # noqa: E731
        assert build_assignment_index(
            [[Transaction({1})]], 0.5, 0.4, scalar
        ) is None

    def test_non_item_set_representatives_are_not(self):
        assert build_assignment_index([[[0.1, 0.9]]], 0.5, 0.4) is None


# -- backend resolution and engine wiring -------------------------------------

CLUSTER_A = [Transaction({1, 2, 3}), Transaction({1, 2, 4})]
CLUSTER_B = [Transaction({7, 8, 9}), Transaction({7, 8, 10})]


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown assign backend"):
            resolve_assign_backend("turbo")

    def test_pruned_never_probes(self, monkeypatch):
        import repro.native

        def probe(*_args):
            raise AssertionError("pruned must not probe the native tier")

        monkeypatch.setattr(repro.native, "get_kernels", probe)
        monkeypatch.setattr(repro.native, "auto_native", probe)
        assert resolve_assign_backend("pruned") == ("pruned", None)

    def test_auto_resolves_to_fast_tier(self):
        backend, kernels = resolve_assign_backend("auto")
        assert backend in ("pruned", "native")
        if backend == "native":
            assert hasattr(kernels, "assign_block")
        else:
            assert kernels is None

    def test_native_degrades_with_warning_when_unavailable(self, monkeypatch):
        import repro.native

        monkeypatch.setattr(repro.native, "get_kernels", lambda *a: None)
        with pytest.warns(RuntimeWarning, match="falling back to 'pruned'"):
            backend, kernels = resolve_assign_backend("native")
        assert backend == "pruned" and kernels is None

    @pytest.mark.skipif(not ASSIGN_KERNELS, reason="no native assign kernel")
    def test_native_resolves_when_available(self):
        backend, kernels = resolve_assign_backend("native")
        assert backend == "native"
        assert hasattr(kernels, "assign_block")


class TestEngineBackends:
    def engine_backends(self):
        backends = ["pruned"]
        if ASSIGN_KERNELS:
            backends.append("native")
        return backends

    def test_every_backend_matches_the_labeler(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        labeler = model.labeler()
        batch = [
            Transaction({1, 2}), Transaction({7, 8}), Transaction({42}),
            Transaction({1, 2, 7, 8}), Transaction(set()),
        ]
        expected = labeler.assign_all(batch).tolist()
        for backend in self.engine_backends():
            engine = AssignmentEngine(
                model, assign_backend=backend, cache_size=0
            )
            assert engine.assign_batch(batch).tolist() == expected
            assert engine.assign_backend == backend

    def test_backend_gauge_marks_the_active_tier(self):
        engine = AssignmentEngine(
            make_model([CLUSTER_A, CLUSTER_B]), assign_backend="pruned"
        )
        gauges = engine.metrics.registry.snapshot()["gauges"]
        assert gauges["serve.assign.backend.pruned"] == 1
        assert gauges["serve.assign.backend.native"] == 0
        assert gauges["serve.assign.backend.fallback"] == 0

    def test_fallback_tier_for_custom_similarity(self):
        table = SimilarityTable({("p", "a1"): 0.9})
        model = make_model([["a1"], ["b1"]], theta=0.5, similarity=table)
        engine = AssignmentEngine(model, assign_backend="auto")
        assert engine.assign_backend == "fallback"
        assert engine.fast_index is None
        gauges = engine.metrics.registry.snapshot()["gauges"]
        assert gauges["serve.assign.backend.fallback"] == 1

    def test_indexed_engine_builds_no_labeler(self, monkeypatch):
        """The scalar labeler is built only for the fallback tier."""
        model = make_model([CLUSTER_A, CLUSTER_B])

        def no_labeler(_model):
            raise AssertionError("an indexable model built a labeler")

        monkeypatch.setattr(RockModel, "labeler", no_labeler)
        engine = AssignmentEngine(model, assign_backend="pruned")
        assert engine.fast_index is not None
        assert engine.assign_batch(
            [Transaction({1, 2}), Transaction({7, 8}), Transaction({42})]
        ).tolist() == [0, 1, -1]

    def test_prebuilt_index_is_reused(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        donor = AssignmentEngine(model, assign_backend="pruned")
        engine = AssignmentEngine(
            model, assign_backend="pruned", prebuilt_index=donor.fast_index
        )
        assert engine.fast_index is donor.fast_index
        assert engine.assign(Transaction({1, 2})) == 0

    @settings(max_examples=25, deadline=None)
    @given(
        sets=labeling_sets_strategy,
        points=points_strategy,
        theta=st.sampled_from(THETAS),
    )
    def test_engine_tiers_agree_on_random_inputs(self, sets, points, theta):
        labeling_sets = [[Transaction(s) for s in li] for li in sets]
        model = make_model(labeling_sets, theta=theta)
        batch = [Transaction(p) for p in points]
        oracle = LabelingIndex(labeling_sets, theta, model.f_theta)
        expected = oracle_assign_with_scores(oracle, batch)[0].tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for backend in ("pruned", "native"):
                engine = AssignmentEngine(
                    model, assign_backend=backend, cache_size=0
                )
                assert engine.assign_batch(batch).tolist() == expected
