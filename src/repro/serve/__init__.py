"""repro.serve -- deploy a finished clustering as an assignment service.

The paper's own deployment story (Section 4.6) is fit-once /
serve-many: cluster a (sampled) data set once, persist the labeling
sets, then stream any amount of data through cheap per-point
assignment.  This package is that second phase, productionised:

* :class:`~repro.serve.model.RockModel` -- the versioned JSON artifact
  (labeling sets, theta, ``f(theta)``, similarity config, cluster
  metadata);
* :class:`~repro.serve.engine.AssignmentEngine` -- vectorised batch
  assignment with an LRU cache, exactly equivalent to
  :class:`~repro.core.labeling.ClusterLabeler`;
* :class:`~repro.core.assign.AssignmentIndex` (re-exported here) --
  the item -> representative inverted index behind the ``pruned`` and
  ``native`` fast-assignment tiers, the one §4.6 batch labeling path
  the fit pipeline uses too;
* :func:`~repro.serve.parallel.assign_stream` -- chunked
  multiprocessing for disk-scale labeling runs, order-preserving;
* :class:`~repro.serve.metrics.ServeMetrics` -- counters / histograms
  behind one ``snapshot()`` dict;
* :class:`~repro.serve.service.ClusteringService` -- the facade tying
  it all together (what ``repro assign`` uses);
* :mod:`repro.serve.http` -- the async network front-end
  (``repro serve``): request batching, hot model reload,
  backpressure, Prometheus ``/metrics``.

Quickstart::

    from repro import RockPipeline
    from repro.serve import ClusteringService, RockModel

    result, model = RockPipeline(k=4, theta=0.5, sample_size=500,
                                 seed=0).fit_model(points)
    model.save("model.json")

    service = ClusteringService.from_file("model.json")
    labels = service.assign_batch(new_points)
"""

from repro.serve.engine import AssignmentEngine
from repro.core.assign import AssignmentIndex, resolve_assign_backend
from repro.serve.metrics import ServeMetrics
from repro.serve.model import MODEL_FORMAT, MODEL_VERSION, RockModel, model_from_result
from repro.serve.parallel import assign_stream, default_workers
from repro.serve.service import ClusteringService

__all__ = [
    "AssignmentEngine",
    "AssignmentIndex",
    "ClusteringService",
    "MODEL_FORMAT",
    "MODEL_VERSION",
    "RockModel",
    "ServeMetrics",
    "assign_stream",
    "default_workers",
    "model_from_result",
    "resolve_assign_backend",
]
