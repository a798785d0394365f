"""Tracing a fit end to end with repro.obs.

A :class:`~repro.obs.trace.Tracer` wraps every pipeline phase — sample,
neighbors, links, cluster, label — in a span that records wall clock,
CPU time, and peak-RSS delta, while the kernels count rows, edges, and
link increments into the tracer's metrics registry.  With a fused
fit over two workers the pool workers record into their own local registries and ship
snapshot deltas back per chunk, so the merged counters cover the whole
run.  Everything lands in one :class:`~repro.obs.manifest.RunManifest`
JSON artifact.

    python examples/trace_fit.py
"""

from repro import RockPipeline
from repro.datasets import small_synthetic_basket
from repro.obs import RunManifest, Tracer, metrics_to_prometheus


def main() -> None:
    basket = small_synthetic_basket(
        n_clusters=4, cluster_size=300, n_outliers=20, seed=3
    )
    points = basket.transactions

    # --- fit under a tracer (fused mode: 2 worker processes) ------------
    tracer = Tracer()
    pipeline = RockPipeline(
        k=4, theta=0.5, seed=0, fit_mode="fused", workers=2
    )
    result = pipeline.fit(points, tracer=tracer)
    print(f"{len(points)} baskets -> {result.n_clusters} clusters\n")

    # --- the span tree: one root, one child per phase -------------------
    fit_span = tracer.spans()[0]
    print("span tree (wall seconds):")
    for span in fit_span.iter_spans():
        depth = 0 if span is fit_span else 1
        print(f"  {'  ' * depth}{span.name:<10} {span.wall_seconds:8.3f}s")

    # --- merged counters, including worker-side kernel metrics ----------
    counters = tracer.registry.snapshot()["counters"]
    print("\nkernel counters merged back from the worker pool:")
    for name in sorted(counters):
        print(f"  {name:<28} {counters[name]}")

    # --- one JSON artifact for the whole run ----------------------------
    manifest = RunManifest.from_tracer(
        "example_trace_fit", tracer,
        config={"n": len(points), "theta": 0.5, "fit_mode": "fused",
                "workers": 2},
    )
    manifest.save("trace_fit.manifest.json")
    print("\nwrote trace_fit.manifest.json "
          f"(spans: {sorted(manifest.span_names())})")

    # --- or scrape-ready text for a metrics endpoint --------------------
    prom = metrics_to_prometheus(tracer.registry.snapshot())
    print("\nfirst prometheus lines:")
    print("\n".join(prom.splitlines()[:6]))


if __name__ == "__main__":
    main()
