"""The fit plan: one resolver behind rock() and RockPipeline.fit.

``resolve_fit_plan`` decides the neighbor/link path and the merge
engine of every fit.  These tests pin

* the ``auto`` policy: native fused pass + native merge wherever a tier
  passed its probe and the configuration is native-supported, today's
  dense/blocked rule everywhere else;
* one ``fit.fallback.<reason>`` counter (and a root-span attribute) per
  degradation cause;
* the merge counter counting both passes of the outlier-weeding pause;
* as a hypothesis property: default ``rock()`` and default
  ``RockPipeline.fit()`` resolve the same plan, and each is
  byte-identical to its ``REPRO_NATIVE=0`` run (clusters, labels and
  the merge history with bitwise goodness floats).
"""

import contextlib
import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.core.goodness import default_f
from repro.core.links import compute_links
from repro.core.neighbors import compute_neighbor_graph
from repro.core.outliers import prune_sparse_points, weed_small_clusters, weeding_stop_count
from repro.core.pipeline import RockPipeline
from repro.core.plan import FitPlan, resolve_fit_plan
from repro.core.rock import cluster_with_links, rock
from repro.core.similarity import (
    JaccardSimilarity,
    MissingAwareJaccard,
    OverlapSimilarity,
)
from repro.data.records import CategoricalDataset, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset
from repro.obs.trace import Tracer

HAS_NATIVE = native.native_available()
needs_native = pytest.mark.skipif(
    not HAS_NATIVE, reason="no native tier passes its probe here"
)


def custom_goodness(links, ni, nj, f_theta):
    return float(links) / (ni + nj)


@contextlib.contextmanager
def native_disabled():
    """``REPRO_NATIVE=0`` for the duration of the block."""
    previous = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = previous


def baskets(n_clusters: int = 3, per: int = 10, seed: int = 4):
    rng = np.random.default_rng(seed)
    txns = []
    for c in range(n_clusters):
        pool = np.arange(c * 12, c * 12 + 12)
        for _ in range(per):
            txns.append(Transaction(rng.choice(pool, 6, replace=False).tolist()))
    txns.append(Transaction([900, 901]))  # an isolated point
    return TransactionDataset(txns)


def records():
    schema = CategoricalSchema(("f1", "f2", "f3"))
    rows = [("a", "x", 0), ("a", "x", 1), ("a", "y", 0), ("b", "y", 2),
            ("b", "y", 1), ("b", None, 2), ("c", "x", None)]
    return CategoricalDataset(schema, rows)


def fallback_counts(tracer: Tracer) -> dict[str, int]:
    counters = tracer.registry.snapshot()["counters"]
    prefix = "fit.fallback."
    return {
        name[len(prefix):]: value
        for name, value in counters.items() if name.startswith(prefix)
    }


def root_span(tracer: Tracer):
    return next(s for s in tracer.spans() if s.name == "fit")


# ---------------------------------------------------------------------------
# the auto policy
# ---------------------------------------------------------------------------

class TestAutoPolicy:
    def test_default_plan_follows_probe(self):
        plan = resolve_fit_plan(baskets(), None, 0.5)
        if HAS_NATIVE:
            tier = native.available_backend()
            assert plan == FitPlan(fit="native", merge="native",
                                   native_backend=tier)
            assert plan.backends == {"fit": f"native:{tier}",
                                     "merge": f"native:{tier}"}
        else:
            assert plan.fit == "graph" and plan.merge == "fast"
            assert plan.fallbacks == ("no_backend",)

    def test_opt_out_resolves_reference_plan(self):
        with native_disabled():
            plan = resolve_fit_plan(baskets(), None, 0.5)
        assert plan == FitPlan(fit="graph", merge="fast",
                               fallbacks=("no_backend",))
        assert plan.backends == {"fit": "auto", "merge": "fast"}

    def test_explicit_graph_methods_pin_the_graph_path(self):
        plan = resolve_fit_plan(baskets(), None, 0.5,
                                neighbor_method="blocked")
        assert plan.fit == "graph"
        assert plan.neighbor_method == "blocked"
        # pinning is a choice, not a fallback (only the merge may degrade)
        assert plan.fallbacks == (() if HAS_NATIVE else ("no_backend",))

    def test_forced_modes_are_not_promoted(self):
        for mode, fit in (("dense", "graph"), ("blocked", "graph"),
                          ("parallel", "graph"), ("fused", "fused")):
            assert resolve_fit_plan(baskets(), None, 0.5,
                                    fit_mode=mode).fit == fit

    def test_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="fit_mode"):
            resolve_fit_plan(baskets(), None, 0.5, fit_mode="warp")
        with pytest.raises(ValueError, match="merge_method"):
            resolve_fit_plan(baskets(), None, 0.5, merge_method="warp")

    @needs_native
    def test_rock_and_pipeline_record_the_native_plan(self):
        tracer = Tracer()
        result = RockPipeline(k=3, theta=0.5, seed=1).fit(
            baskets(), tracer=tracer
        )
        tier = native.available_backend()
        assert result.backends == {"fit": f"native:{tier}",
                                   "merge": f"native:{tier}"}
        gauges = tracer.registry.snapshot()["gauges"]
        assert gauges["fit.backend.native_fit"] == 1
        assert gauges["fit.backend.native_merge"] == 1
        assert root_span(tracer).attrs["fallbacks"] == []
        assert fallback_counts(tracer) == {}
        assert rock(baskets(), k=3, theta=0.5).plan == result.plan


# ---------------------------------------------------------------------------
# every degradation is a counter and a root-span attribute
# ---------------------------------------------------------------------------

def assert_single_fallback(tracer: Tracer, reason: str) -> None:
    assert fallback_counts(tracer).get(reason) == 1
    assert reason in root_span(tracer).attrs["fallbacks"]


class TestFallbackCounters:
    def test_no_backend(self):
        for run in (
            lambda t: rock(baskets(), k=3, theta=0.5, tracer=t),
            lambda t: RockPipeline(k=3, theta=0.5, seed=1).fit(
                baskets(), tracer=t),
        ):
            tracer = Tracer()
            with native_disabled():
                run(tracer)
            # the fit and the merge both degrade for the same cause
            assert fallback_counts(tracer) == {"no_backend": 1}
            assert root_span(tracer).attrs["fallbacks"] == ["no_backend"]

    @needs_native
    def test_custom_similarity(self):
        tracer = Tracer()
        result = rock(records(), k=2, theta=0.4,
                      similarity=MissingAwareJaccard(), tracer=tracer)
        assert result.plan.fit == "graph"
        assert_single_fallback(tracer, "custom_similarity")

    @needs_native
    def test_categorical_overlap(self):
        tracer = Tracer()
        result = rock(records(), k=2, theta=0.4,
                      similarity=OverlapSimilarity(), tracer=tracer)
        assert result.plan.fit == "graph"
        assert_single_fallback(tracer, "categorical_overlap")

    def test_weighted_links(self):
        tracer = Tracer()
        result = rock(baskets(), k=3, theta=0.5, weighted_links=True,
                      tracer=tracer)
        assert result.plan.fit == "weighted"
        assert_single_fallback(tracer, "weighted_links")

    def test_min_neighbors(self):
        tracer = Tracer()
        result = RockPipeline(k=3, theta=0.5, min_neighbors=2, seed=1).fit(
            baskets(), tracer=tracer
        )
        assert result.plan.fit == "graph"
        assert result.backends["fit"] == "auto"
        assert_single_fallback(tracer, "min_neighbors")

    @needs_native
    def test_theta_le_0(self):
        tracer = Tracer()
        result = rock(baskets(), k=3, theta=0.0, tracer=tracer)
        assert result.plan.fit == "graph"
        assert_single_fallback(tracer, "theta_le_0")

    def test_custom_goodness(self):
        tracer = Tracer()
        result = RockPipeline(
            k=3, theta=0.5, goodness_fn=custom_goodness, seed=1
        ).fit(baskets(), tracer=tracer)
        assert result.backends["merge"] == "heap"
        assert_single_fallback(tracer, "custom_goodness")

    def test_forced_native_warns_once_and_counts(self):
        tracer = Tracer()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = rock(baskets(), k=3, theta=0.0, fit_mode="native",
                          tracer=tracer)
        assert len([w for w in caught
                    if "fit_mode='native'" in str(w.message)]) == 1
        assert result.plan.fit == "fused"
        reason = "theta_le_0" if HAS_NATIVE else "no_backend"
        assert_single_fallback(tracer, reason)

    def test_forced_sharded_weeding(self):
        tracer = Tracer()
        pipeline = RockPipeline(k=3, theta=0.5, min_cluster_size=2,
                                fit_mode="sharded", seed=1)
        with pytest.warns(RuntimeWarning, match="weeding"):
            result = pipeline.fit(baskets(), tracer=tracer)
        assert result.plan.fit == "graph"
        assert_single_fallback(tracer, "weeding")

    def test_resolve_merge_method_counts(self):
        from repro.core.merge import resolve_merge_method
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        assert resolve_merge_method("auto", custom_goodness, registry) == "heap"
        counters = registry.snapshot()["counters"]
        assert counters["fit.fallback.custom_goodness"] == 1


# ---------------------------------------------------------------------------
# bugfix: fit.cluster.merges counts both passes of the weeding pause
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("opt_out", [False, True])
def test_merges_counter_covers_both_weeding_passes(opt_out):
    data = baskets(n_clusters=4, per=12)
    k, multiple, min_size, theta = 2, 3.0, 3, 0.5
    tracer = Tracer()
    with native_disabled() if opt_out else contextlib.nullcontext():
        result = RockPipeline(
            k=k, theta=theta, min_cluster_size=min_size,
            outlier_multiple=multiple, seed=1,
        ).fit(data, tracer=tracer)

    # the reference two-pass run over the same (whole-input) sample
    graph = compute_neighbor_graph(data, theta, method="vectorized")
    kept, _ = prune_sparse_points(graph, 1)
    links = compute_links(graph.subgraph(kept))
    f_theta = default_f(theta)
    first = cluster_with_links(
        links, k=weeding_stop_count(k, multiple), f_theta=f_theta,
        merge_method="heap",
    )
    survivors, _ = weed_small_clusters(first.clusters, min_size)
    second = cluster_with_links(
        links, k=k, f_theta=f_theta, initial_clusters=survivors,
        merge_method="heap",
    )
    assert result.rock_result.merges == second.merges
    assert len(first.merges) > 0
    counters = tracer.registry.snapshot()["counters"]
    assert counters["fit.cluster.merges"] == (
        len(first.merges) + len(second.merges)
    )


# ---------------------------------------------------------------------------
# property: one plan for both entry points, byte-identical to the opt-out
# ---------------------------------------------------------------------------

transactions = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=10), min_size=1,
                  max_size=5),
    min_size=2,
    max_size=24,
)
record_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", None]),
        st.sampled_from(["x", "y", None]),
        st.sampled_from([0, 1, 2, None]),
    ),
    min_size=2,
    max_size=20,
)


@st.composite
def fit_configs(draw):
    if draw(st.booleans()):
        points = TransactionDataset(
            [Transaction(sorted(t)) for t in draw(transactions)]
        )
        similarity = draw(st.sampled_from(
            [None, JaccardSimilarity(), OverlapSimilarity()]
        ))
    else:
        points = CategoricalDataset(
            CategoricalSchema(("f1", "f2", "f3")), draw(record_rows)
        )
        similarity = draw(st.sampled_from([None, JaccardSimilarity()]))
    return {
        "points": points,
        "similarity": similarity,
        "theta": draw(st.sampled_from([0.0, 0.3, 0.5, 0.8])),
        "k": draw(st.integers(min_value=1, max_value=4)),
        "min_neighbors": draw(st.sampled_from([0, 1, 2])),
        "weighted_links": draw(st.booleans()),
        "goodness_fn": draw(st.sampled_from([None, custom_goodness])),
    }


def merge_bytes(result) -> list[tuple]:
    return [
        (m.left, m.right, m.merged, m.size, struct.pack("<d", m.goodness))
        for m in result.merges
    ]


def outcome(run):
    """A fit's comparable result, or the error it raised."""
    try:
        result = run()
    except ValueError as exc:
        return ("error", str(exc)), None
    return result, result.plan


def pipeline_view(result) -> tuple:
    return (
        result.labels.tobytes(),
        result.clusters,
        result.outlier_indices,
        result.rock_result.clusters,
        merge_bytes(result.rock_result),
        result.rock_result.stopped_early,
    )


def rock_view(result) -> tuple:
    return (
        result.clusters,
        merge_bytes(result),
        result.stopped_early,
        result.labels().tobytes(),
    )


@settings(max_examples=40, deadline=None)
@given(config=fit_configs())
def test_default_plans_agree_and_match_opt_out(config):
    points = config["points"]
    similarity = config["similarity"]
    theta = config["theta"]
    k = config["k"]
    min_neighbors = config["min_neighbors"]
    weighted = config["weighted_links"]
    goodness_kw = (
        {} if config["goodness_fn"] is None
        else {"goodness_fn": config["goodness_fn"]}
    )

    def run_rock():
        return rock(points, k=k, theta=theta, similarity=similarity,
                    weighted_links=weighted, **goodness_kw)

    def run_pipeline():
        return RockPipeline(k=k, theta=theta, similarity=similarity,
                            min_neighbors=min_neighbors, seed=0,
                            **goodness_kw).fit(points)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # auto never warns
        rock_result, rock_plan = outcome(run_rock)
        pipe_result, pipe_plan = outcome(run_pipeline)
        with native_disabled():
            rock_ref, rock_ref_plan = outcome(run_rock)
            pipe_ref, pipe_ref_plan = outcome(run_pipeline)

    # both entry points consume the same resolver ...
    expected = resolve_fit_plan(
        points, similarity, theta, 0, weighted_links=weighted,
        goodness_fn=config["goodness_fn"],
    )
    if rock_plan is not None:
        assert rock_plan == expected
    if pipe_plan is not None:
        assert pipe_plan == resolve_fit_plan(
            points, similarity, theta, min_neighbors,
            goodness_fn=config["goodness_fn"],
        )
        # ... so with nothing pipeline-specific in play they agree
        if rock_plan is not None and min_neighbors <= 1 and not weighted:
            assert pipe_plan == rock_plan
    if rock_ref_plan is not None:
        assert not rock_ref_plan.backends["fit"].startswith("native")
        assert rock_ref_plan.merge != "native"

    # ... and whatever it picks is byte-identical to the opt-out plan
    if rock_plan is None:
        assert rock_result == rock_ref
    else:
        assert rock_view(rock_result) == rock_view(rock_ref)
    if pipe_plan is None:
        assert pipe_result == pipe_ref
    else:
        assert pipeline_view(pipe_result) == pipeline_view(pipe_ref)
