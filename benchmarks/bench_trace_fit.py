"""Trace smoke: a small traced fit leaves one complete RunManifest.

CI-fast proof of the observability wiring end to end: a fused
(workers=2) fit under a :class:`~repro.obs.trace.Tracer` must produce a
manifest that (a) round-trips through JSON, (b) contains a span for
every fit phase, and (c) carries worker-side kernel counters merged
back through the process pool.  Runs under ``make bench-smoke``.
"""

import json

from benchmarks.machine import machine_summary
from repro.core.pipeline import RockPipeline
from repro.obs import RunManifest, Tracer

THETA = 0.5
N_CLUSTERS = 30
FIT_PHASES = ("sample", "neighbors", "links", "cluster", "label")


def test_trace_fit_smoke(benchmark, save_result, save_manifest, results_dir):
    from benchmarks.bench_blocked_fit import make_clustered_baskets

    dataset = make_clustered_baskets(N_CLUSTERS)
    tracer = Tracer()
    pipeline = RockPipeline(
        k=N_CLUSTERS, theta=THETA, sample_size=None, seed=0,
        fit_mode="fused", workers=2,
    )
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "result", pipeline.fit(dataset, label_remaining=False, tracer=tracer)
        ),
        rounds=1,
        iterations=1,
    )
    result = holder["result"]

    manifest = RunManifest.from_tracer(
        "bench_trace_fit_smoke", tracer,
        config={"n": len(dataset), "theta": THETA, "fit_mode": "fused",
                "workers": 2},
    )
    save_manifest("trace_fit_smoke", manifest)

    # the manifest parses back and its span tree covers every phase
    reloaded = RunManifest.load(results_dir / "trace_fit_smoke.manifest.json")
    assert reloaded.to_dict() == manifest.to_dict()
    names = reloaded.span_names()
    assert "fit" in names
    for phase in FIT_PHASES:
        assert phase in names, f"missing span {phase!r}"

    # worker-side kernel counters made it back through the pool
    counters = reloaded.metrics["counters"]
    assert counters["fit.fused.rows"] == len(dataset)
    assert counters["fit.fused.blocks"] >= 1

    fit_span = reloaded.find_span("fit")
    phase_lines = [
        f"{child['name']:<10} {child['wall_seconds']:>8.3f}s"
        for child in fit_span["children"]
    ]
    save_result(
        "trace_fit_smoke",
        "\n".join([
            "Trace smoke: fused (workers=2) fit under a Tracer",
            f"n={len(dataset)}  theta={THETA}  "
            f"clusters={result.n_clusters}",
            "",
            "per-phase wall clock (from the span tree):",
            *phase_lines,
            "",
            "merged worker counters: "
            + json.dumps(
                {k: v for k, v in sorted(counters.items())
                 if k.startswith(("fit.fused", "fit.links"))},
            ),
            "",
            machine_summary(),
        ]),
    )
