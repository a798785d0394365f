"""repro.obs -- the shared observability substrate for fit and serve.

The ROADMAP's north star is a production system, and the paper argues
its own case with wall-clock curves (Figure 5) and per-phase cost
analysis (Section 4.4) -- both need first-class, reproducible
instrumentation.  This package is that layer, dependency-free:

* :class:`~repro.obs.registry.MetricsRegistry` -- thread-safe named
  counters / gauges / histograms with ``snapshot()``/``merge()``
  semantics, so worker processes record locally and ship deltas back
  (:class:`~repro.serve.metrics.ServeMetrics` is now a thin adapter
  over it);
* :class:`~repro.obs.trace.Tracer` -- nestable ``span()`` context
  managers capturing wall time, CPU time, and peak-RSS delta into a
  serialisable span tree;
* :mod:`~repro.obs.export` -- JSON-lines and Prometheus text
  exposition exporters (plain strings);
* :class:`~repro.obs.manifest.RunManifest` -- span tree + metrics
  snapshot + host metadata + config in one versioned JSON artifact.

Quickstart::

    from repro import RockPipeline
    from repro.obs import RunManifest, Tracer

    tracer = Tracer()
    result = RockPipeline(k=4, theta=0.5, fit_mode="fused",
                          workers=2, seed=0).fit(points, tracer=tracer)
    RunManifest.from_tracer("fit", tracer,
                            config={"k": 4, "theta": 0.5}).save("run.json")
"""

from repro.obs.export import (
    metrics_to_jsonl,
    metrics_to_prometheus,
    prometheus_name,
    spans_to_jsonl,
)
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    RunManifest,
    host_memory,
    host_metadata,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_labels,
)
from repro.obs.trace import Span, Tracer, peak_rss_bytes

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "MetricsRegistry",
    "RunManifest",
    "Span",
    "Tracer",
    "bucket_labels",
    "host_memory",
    "host_metadata",
    "metrics_to_jsonl",
    "metrics_to_prometheus",
    "peak_rss_bytes",
    "prometheus_name",
    "spans_to_jsonl",
]
