"""End-to-end observability tests: traced fits, persisted timings, CLI.

Covers the acceptance criterion of the observability issue: a
``fit_mode="fused", workers=2`` fit under a tracer must leave a
single :class:`~repro.obs.manifest.RunManifest` whose span tree covers
every fit phase and whose metrics include worker-side counters merged
back through the process pool.
"""

import json

import pytest

from repro.cli import main
from repro.core.pipeline import RockPipeline
from repro.datasets import small_synthetic_basket
from repro.obs import MetricsRegistry, RunManifest, Tracer
from repro.serve.metrics import ServeMetrics

FIT_PHASES = ("sample", "neighbors", "links", "cluster", "label")


@pytest.fixture(scope="module")
def basket():
    return small_synthetic_basket(n_clusters=4, cluster_size=80, n_outliers=10)


class TestTracedParallelFit:
    """The ISSUE acceptance test."""

    @pytest.fixture(scope="class")
    def manifest(self):
        data = small_synthetic_basket(
            n_clusters=4, cluster_size=80, n_outliers=10
        ).transactions
        tracer = Tracer()
        pipeline = RockPipeline(
            k=4, theta=0.5, sample_size=200, seed=0,
            fit_mode="fused", workers=2,
        )
        pipeline.fit(data, tracer=tracer)
        return RunManifest.from_tracer(
            "fit", tracer, config={"fit_mode": "fused", "workers": 2},
        ), len(data)

    def test_single_root_span_covers_every_phase(self, manifest):
        manifest, _n = manifest
        assert len(manifest.spans) == 1
        root = manifest.spans[0]
        assert root["name"] == "fit"
        child_names = [c["name"] for c in root["children"]]
        for phase in FIT_PHASES:
            assert phase in child_names, f"missing phase span {phase!r}"
        assert all(c["wall_seconds"] >= 0.0 for c in root["children"])
        assert all(c["error"] is None for c in root["children"])

    def test_worker_metrics_merged_into_manifest(self, manifest):
        manifest, n = manifest
        counters = manifest.metrics["counters"]
        # recorded inside pool workers, shipped back as snapshot deltas
        assert counters["fit.fused.rows"] == 200  # the sample size
        assert counters["fit.fused.blocks"] >= 1
        assert counters["fit.fused.pair_increments"] > 0
        gauges = manifest.metrics["gauges"]
        assert gauges["fit.n_points"] == n
        assert gauges["fit.n_sampled"] == 200
        assert gauges["fit.n_clusters"] >= 1

    def test_manifest_survives_json(self, manifest, tmp_path):
        manifest, _n = manifest
        path = tmp_path / "fit.manifest.json"
        manifest.save(path)
        assert RunManifest.load(path).to_dict() == manifest.to_dict()


class TestFitTimingsPersisted:
    """Bugfix regression: phase timings must reach the saved model."""

    def test_metadata_has_all_phase_timings(self, basket):
        pipeline = RockPipeline(k=4, theta=0.5, sample_size=None, seed=0)
        result, model = pipeline.fit_model(basket.transactions)
        timings = model.metadata["fit_timings"]
        assert set(timings) == set(FIT_PHASES)
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert timings == {k: pytest.approx(v) for k, v in result.timings.items()}

    def test_timings_survive_model_round_trip(self, basket, tmp_path):
        pipeline = RockPipeline(k=4, theta=0.5, sample_size=None, seed=0)
        _, model = pipeline.fit_model(basket.transactions)
        path = tmp_path / "model.json"
        model.save(path)
        from repro.serve.model import RockModel

        assert set(RockModel.load(path).metadata["fit_timings"]) == set(
            FIT_PHASES
        )


class TestLabelSpan:
    """The ``label`` span names the §4.6 tier that labeled the rest."""

    def label_span(self, points, **kwargs):
        tracer = Tracer()
        RockPipeline(k=4, theta=0.5, sample_size=150, seed=0, **kwargs).fit(
            points, tracer=tracer
        )
        span = next(
            c for c in tracer.spans()[0].children if c.name == "label"
        )
        return span, tracer.registry.snapshot()["counters"]

    def test_indexable_labeling_records_the_auto_tier(self, basket):
        from repro.core.assign import resolve_assign_backend

        span, counters = self.label_span(basket.transactions)
        assert span.attrs["assign_backend"] == resolve_assign_backend()[0]
        assert span.attrs["relabel_rounds"] >= 0
        assert counters["fit.label.relabel_rounds"] == (
            span.attrs["relabel_rounds"]
        )

    def test_opt_out_labels_on_the_pruned_tier(self, basket, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        span, _ = self.label_span(basket.transactions)
        assert span.attrs["assign_backend"] == "pruned"

    def test_other_similarities_take_the_scalar_fallback(self, basket):
        from repro.core.similarity import OverlapSimilarity

        span, _ = self.label_span(
            basket.transactions, similarity=OverlapSimilarity()
        )
        assert span.attrs["assign_backend"] == "fallback"


class TestUntracedFitUnchanged:
    def test_fit_without_tracer_still_times_phases(self, basket):
        pipeline = RockPipeline(k=4, theta=0.5, sample_size=None, seed=0)
        result = pipeline.fit(basket.transactions)
        assert set(result.timings) == set(FIT_PHASES)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCli:
    @pytest.fixture
    def basket_file(self, tmp_path, capsys):
        out = tmp_path / "txns.txt"
        run(capsys, "generate", "basket", "--out", str(out))
        return out

    def test_cluster_trace_out_parallel(self, basket_file, tmp_path, capsys):
        trace = tmp_path / "run.manifest.json"
        code, stdout = run(
            capsys, "cluster", "--input", str(basket_file),
            "--theta", "0.4", "-k", "4", "--min-cluster-size", "5",
            "--fit-mode", "fused", "--workers", "2",
            "--trace-out", str(trace),
        )
        assert code == 0
        assert "phase seconds" in stdout
        manifest = RunManifest.load(trace)
        assert manifest.name == "cluster"
        names = manifest.span_names()
        for phase in ("fit",) + FIT_PHASES:
            assert phase in names
        assert manifest.metrics["counters"]["fit.fused.blocks"] >= 1
        assert manifest.config["fit_mode"] == "fused"

    def test_cluster_metrics_format_prom(self, basket_file, capsys):
        code, stdout = run(
            capsys, "cluster", "--input", str(basket_file),
            "--theta", "0.4", "-k", "4", "--min-cluster-size", "5",
            "--metrics-format", "prom",
        )
        assert code == 0
        assert "# TYPE rock_fit_n_clusters gauge" in stdout
        assert "rock_fit_cluster_merges_total" in stdout

    def test_cluster_metrics_format_json(self, basket_file, capsys):
        code, stdout = run(
            capsys, "cluster", "--input", str(basket_file),
            "--theta", "0.4", "-k", "4", "--min-cluster-size", "5",
            "--metrics-format", "json",
        )
        assert code == 0
        json_lines = [
            line for line in stdout.splitlines() if line.startswith("{")
        ]
        assert json_lines
        names = {json.loads(line)["name"] for line in json_lines}
        assert "fit.n_clusters" in names

    def test_fit_model_renders_persisted_timings(
        self, basket_file, tmp_path, capsys
    ):
        model = tmp_path / "model.json"
        code, stdout = run(
            capsys, "fit-model", "--input", str(basket_file),
            "--theta", "0.45", "-k", "4", "--sample", "300",
            "--model", str(model),
        )
        assert code == 0
        phase_row = [
            line for line in stdout.splitlines() if "phase seconds" in line
        ][0]
        for phase in FIT_PHASES:
            assert f"{phase}:" in phase_row

    def test_assign_trace_out_carries_serve_metrics(
        self, basket_file, tmp_path, capsys
    ):
        model = tmp_path / "model.json"
        run(
            capsys, "fit-model", "--input", str(basket_file),
            "--theta", "0.45", "-k", "4", "--sample", "300",
            "--model", str(model),
        )
        assigned = tmp_path / "assigned.txt"
        trace = tmp_path / "assign.manifest.json"
        code, _ = run(
            capsys, "assign", "--model", str(model),
            "--input", str(basket_file), "--output", str(assigned),
            "--trace-out", str(trace),
        )
        assert code == 0
        manifest = RunManifest.load(trace)
        assert "assign" in manifest.span_names()
        counters = manifest.metrics["counters"]
        n_lines = len(basket_file.read_text().splitlines())
        assert counters["serve.points"] == n_lines
        assert counters["serve.requests"] >= 1
        assert "serve.batch_size" in manifest.metrics["histograms"]


class TestServeMetricsSharedRegistry:
    def test_records_through_external_registry(self):
        registry = MetricsRegistry()
        metrics = ServeMetrics(registry=registry)
        assert metrics.registry is registry
        metrics.record_batch(
            n_points=10, n_outliers=1, seconds=0.5,
            cache_hits=4, cache_misses=6,
        )
        snap = registry.snapshot()
        assert snap["counters"]["serve.requests"] == 1
        assert snap["counters"]["serve.points"] == 10
        assert snap["histograms"]["serve.batch_size"]["count"] == 1
        assert snap["histograms"]["serve.latency.assign"]["count"] == 1
        # and the legacy view stays intact on top of the same registry
        legacy = metrics.snapshot()
        assert legacy["requests"] == 1
        assert legacy["cache"]["hits"] == 4
