"""Stream-mode unit tests: drift detection and the session loop."""

import json
import random

import numpy as np
import pytest

from repro.core.pipeline import RockPipeline
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.http import load_versioned_model
from repro.stream import DriftDetector, StreamClusterer, publish_model


def make_transactions(vocab, count, size=4, seed=0):
    rng = random.Random(seed)
    return [frozenset(rng.sample(vocab, size)) for _ in range(count)]

A_VOCAB = list(range(10))
B_VOCAB = list(range(50, 60))  # disjoint: every B point is an A-outlier


def make_pipeline(**overrides):
    params = dict(k=3, theta=0.3, seed=11)
    params.update(overrides)
    return RockPipeline(**params)


class TestDriftDetector:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(window=0)
        with pytest.raises(ValueError):
            DriftDetector(max_outlier_rate=1.5)
        with pytest.raises(ValueError):
            DriftDetector(min_mean_score=-0.1)

    def test_enabled_only_with_a_threshold(self):
        assert not DriftDetector().enabled
        assert DriftDetector(max_outlier_rate=0.5).enabled
        assert DriftDetector(min_mean_score=0.1).enabled

    def test_no_trigger_until_window_full(self):
        detector = DriftDetector(window=4, max_outlier_rate=0.25)
        assert detector.observe([-1, -1, -1], [0.0, 0.0, 0.0]) is None
        reason = detector.observe([-1], [0.0])
        assert reason is not None and "outlier_rate" in reason

    def test_outlier_rate_trigger_and_window_slide(self):
        detector = DriftDetector(window=4, max_outlier_rate=0.5)
        assert detector.observe([0, 0, -1, -1], [1.0, 1.0, 0.0, 0.0]) is None
        assert detector.outlier_rate == 0.5  # not > 0.5: no trigger
        # two more outliers slide the healthy labels out
        reason = detector.observe([-1, -1], [0.0, 0.0])
        assert reason is not None
        assert detector.outlier_rate == 1.0

    def test_mean_score_trigger(self):
        detector = DriftDetector(window=3, min_mean_score=0.5)
        reason = detector.observe([0, 0, 0], [0.3, 0.3, 0.3])
        assert reason is not None and "mean_score" in reason

    def test_gauges_published(self):
        registry = MetricsRegistry()
        detector = DriftDetector(registry=registry, window=4)
        detector.observe([0, -1], [0.8, 0.0])
        gauges = registry.snapshot()["gauges"]
        assert gauges["stream.drift.outlier_rate"] == pytest.approx(0.5)
        assert gauges["stream.drift.mean_score"] == pytest.approx(0.4)

    def test_reset_empties_window(self):
        detector = DriftDetector(window=2, max_outlier_rate=0.1)
        assert detector.observe([-1, -1], [0.0, 0.0]) is not None
        detector.reset()
        assert detector.outlier_rate == 0.0
        # window must refill before the next trigger
        assert detector.observe([-1], [0.0]) is None
        assert detector.observe([-1], [0.0]) is not None


class TestPublishModel:
    def test_version_matches_loader_and_no_tmp_left(self, tmp_path):
        pipeline = make_pipeline()
        points = make_transactions(A_VOCAB, 120, seed=1)
        result = pipeline.fit(points)
        model = pipeline.to_model(result, points)
        path = tmp_path / "m.json"
        version = publish_model(model, path)
        loaded, loaded_version = load_versioned_model(path)
        assert loaded_version == version
        assert loaded.n_clusters == model.n_clusters
        assert list(tmp_path.iterdir()) == [path]

    def test_republish_overwrites_atomically(self, tmp_path):
        pipeline = make_pipeline()
        points = make_transactions(A_VOCAB, 120, seed=1)
        result = pipeline.fit(points)
        model = pipeline.to_model(result, points)
        path = tmp_path / "m.json"
        v1 = publish_model(model, path)
        model.metadata["generation"] = 2
        v2 = publish_model(model, path)
        assert v1 != v2
        assert load_versioned_model(path)[1] == v2


class TestStreamClusterer:
    def test_parameter_validation(self):
        pipeline = make_pipeline()
        with pytest.raises(ValueError):
            StreamClusterer(pipeline, 50, refit_mode="bogus")
        with pytest.raises(ValueError):
            StreamClusterer(pipeline, 50, refit_every=0)
        with pytest.raises(ValueError):
            StreamClusterer(pipeline, 50, batch_size=0)
        with pytest.raises(ValueError):
            StreamClusterer(pipeline, 50, warmup=0)

    def test_warmup_then_interval_then_drain(self):
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=60, warmup=100,
            refit_every=150, batch_size=50, seed=5,
        )
        summary = clusterer.process(make_transactions(A_VOCAB, 420, seed=2))
        reasons = [event.reason for event in summary.refits]
        assert reasons[0] == "warmup"
        assert "interval" in reasons
        assert reasons[-1] == "drain"
        assert summary.arrivals == 420
        # labeling starts only once a model exists
        assert 0 < summary.labeled < summary.arrivals
        assert summary.final_version == clusterer.version

    def test_no_drain_refit_when_nothing_new(self):
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=50, warmup=100, batch_size=50,
            seed=5,
        )
        summary = clusterer.process(make_transactions(A_VOCAB, 100, seed=3))
        # the warmup fit consumed every arrival: no drain refit on top
        assert [event.reason for event in summary.refits] == ["warmup"]

    def test_small_stream_still_fits_at_drain(self):
        clusterer = StreamClusterer(
            make_pipeline(k=2), reservoir_size=100, batch_size=32, seed=5,
        )
        summary = clusterer.process(make_transactions(A_VOCAB, 40, seed=4))
        assert [event.reason for event in summary.refits] == ["drain"]
        assert clusterer.model is not None

    def test_drift_triggers_refit_and_resets_window(self):
        drift = DriftDetector(window=40, max_outlier_rate=0.5)
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=60, warmup=120, batch_size=40,
            drift=drift, seed=5,
        )
        stream = (
            make_transactions(A_VOCAB, 200, seed=6)
            + make_transactions(B_VOCAB, 120, seed=7)
        )
        summary = clusterer.process(stream)
        drift_events = [
            event for event in summary.refits
            if event.reason.startswith("drift")
        ]
        assert drift_events, [event.reason for event in summary.refits]
        assert "outlier_rate" in drift_events[0].reason
        # post-refit the window restarted empty
        assert len(drift._outliers) < drift.window or drift.outlier_rate < 1.0

    def test_resume_mode_marks_refits_resumed(self):
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=60, warmup=100, refit_every=100,
            batch_size=50, refit_mode="resume", seed=5,
        )
        summary = clusterer.process(make_transactions(A_VOCAB, 300, seed=8))
        assert not summary.refits[0].resumed  # nothing to resume from
        assert all(event.resumed for event in summary.refits[1:])

    def test_scratch_mode_never_resumes(self):
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=60, warmup=100, refit_every=100,
            batch_size=50, refit_mode="scratch", seed=5,
        )
        summary = clusterer.process(make_transactions(A_VOCAB, 300, seed=8))
        assert len(summary.refits) >= 2
        assert not any(event.resumed for event in summary.refits)

    def test_request_drain_stops_consumption(self):
        clusterer = StreamClusterer(
            make_pipeline(k=2), reservoir_size=40, warmup=40, batch_size=20,
            seed=5,
        )
        batches = [0]

        def endless():
            rng = random.Random(9)
            while True:
                yield frozenset(rng.sample(A_VOCAB, 4))

        def on_batch(points, labels, scores, version):
            batches[0] += 1
            if batches[0] >= 3:
                clusterer.request_drain()

        clusterer.on_batch = on_batch
        summary = clusterer.process(endless())
        assert summary.drained
        # warmup batches (2) before the model exists + 3 labeled batches
        assert summary.arrivals <= 20 * 6
        assert summary.refits[-1].reason == "drain"

    def test_publishes_every_generation(self, tmp_path):
        path = tmp_path / "model.json"
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=60, warmup=100, refit_every=100,
            batch_size=50, publish_to=path, seed=5,
        )
        seen = []
        clusterer.on_refit = lambda event: seen.append(
            (event.version, load_versioned_model(path)[1])
        )
        summary = clusterer.process(make_transactions(A_VOCAB, 300, seed=8))
        assert len(seen) == len(summary.refits) >= 2
        for published, on_disk in seen:
            assert published == on_disk

    def test_on_batch_shapes_and_version(self):
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=60, warmup=100, batch_size=50,
            seed=5,
        )
        calls = []
        clusterer.on_batch = lambda points, labels, scores, version: calls.append(
            (len(points), labels, scores, version)
        )
        clusterer.process(make_transactions(A_VOCAB, 250, seed=2))
        assert calls  # batches after the warmup fit were labeled
        for count, labels, scores, version in calls:
            assert labels.shape == scores.shape == (count,)
            assert labels.dtype == np.int64
            assert version == clusterer.version or version  # non-empty
            outliers = labels < 0
            assert np.all(scores[outliers] == 0.0)
            assert np.all(scores[~outliers] > 0.0)

    def test_state_persists_across_process_calls(self):
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=60, warmup=100, batch_size=50,
            seed=5,
        )
        first = clusterer.process(make_transactions(A_VOCAB, 150, seed=2))
        assert [event.reason for event in first.refits][0] == "warmup"
        second = clusterer.process(make_transactions(A_VOCAB, 80, seed=3))
        # no second warmup: the model carried over; drain refit only
        assert [event.reason for event in second.refits] == ["drain"]
        assert clusterer.reservoir.seen == 230
        assert second.labeled == 80

    def test_scalar_path_scores_each_representative_once(self):
        """A non-Jaccard model labels through the scalar labeler: one
        similarity call per representative per labeled point."""
        from repro.core.similarity import OverlapSimilarity

        class CountingOverlap(OverlapSimilarity):
            calls = 0

            def __call__(self, a, b):
                self.calls += 1
                return super().__call__(a, b)

        similarity = CountingOverlap()
        clusterer = StreamClusterer(
            make_pipeline(similarity=similarity), reservoir_size=60,
            warmup=100, batch_size=50, seed=5,
        )
        clusterer.process(make_transactions(A_VOCAB, 100, seed=2))
        assert clusterer._fast_index is None  # the scalar path runs
        reps = sum(len(li) for li in clusterer.model.labeling_sets)
        assert reps > 0
        per_batch = []

        def on_batch(points, labels, scores, version):
            per_batch.append((similarity.calls, len(points)))
            similarity.calls = 0

        clusterer.on_batch = on_batch
        similarity.calls = 0
        clusterer.process(make_transactions(A_VOCAB, 120, seed=3))
        assert [points for _, points in per_batch] == [50, 50, 20]
        assert all(calls == reps * points for calls, points in per_batch)

    def test_metrics_and_spans_recorded(self):
        tracer = Tracer()
        clusterer = StreamClusterer(
            make_pipeline(), reservoir_size=60, warmup=100, refit_every=100,
            batch_size=50, seed=5, tracer=tracer,
        )
        summary = clusterer.process(make_transactions(A_VOCAB, 250, seed=2))
        snap = tracer.registry.snapshot()
        counters = snap["counters"]
        assert counters["stream.arrivals"] == 250
        assert counters["stream.labeled"] == summary.labeled
        assert counters["stream.refits"] == len(summary.refits)
        assert snap["histograms"]["stream.refit.fit_seconds"]["count"] == len(
            summary.refits
        )
        assert snap["gauges"]["stream.reservoir.seen"] == 250
        names = tracer.span_names()
        assert "stream.refit" in names
        assert "fit" in names  # the pipeline's span tree nests underneath


class TestStreamCli:
    def test_cli_stream_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.data.io import write_transactions
        from repro.data.transactions import Transaction

        source = tmp_path / "txns.txt"
        rng = random.Random(0)
        write_transactions(
            [
                Transaction([f"i{x}" for x in rng.sample(range(12), 4)], tid=t)
                for t in range(300)
            ],
            source,
        )
        model_path = tmp_path / "model.json"
        manifest_path = tmp_path / "trace.json"
        code = main([
            "stream", "--input", str(source), "--theta", "0.3", "-k", "3",
            "--reservoir", "80", "--refit-every", "120",
            "--max-outlier-rate", "0.9", "--drift-window", "40",
            "--publish-to", str(model_path),
            "--trace-out", str(manifest_path), "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ROCK stream" in out
        assert "refit #1 [warmup]" in out
        model, version = load_versioned_model(model_path)
        assert version in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["reservoir"] == 80
