"""A scikit-learn-style estimator facade.

:class:`RockClusterer` wraps :class:`~repro.core.pipeline.RockPipeline`
behind the fit / fit_predict / ``labels_`` convention so the library
drops into sklearn-shaped codebases (pipelines that duck-type
estimators, grid-search loops, etc.).  scikit-learn itself is *not* a
dependency -- the class simply follows the protocol.

Accepted inputs to ``fit``: a :class:`TransactionDataset`, a
:class:`CategoricalDataset`, any sequence of item sets, or a 2-D 0/1
array (rows become transactions of their nonzero column indices --
the boolean-attribute view of Example 1.1).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.goodness import default_f
from repro.core.pipeline import RockPipeline
from repro.core.similarity import SimilarityFunction
from repro.data.records import CategoricalDataset
from repro.data.transactions import Transaction, TransactionDataset


class RockClusterer:
    """ROCK clustering with the sklearn estimator protocol.

    Parameters mirror :class:`RockPipeline` under sklearn-style names.
    ``fit_mode`` and ``merge_method`` default to ``"auto"``, resolved by
    :func:`repro.core.plan.resolve_fit_plan`: the native fused pass and
    native merge engine whenever a :mod:`repro.native` tier passes its
    probe and the input is native-supported (``REPRO_NATIVE=0`` opts
    out), the reference dense/blocked rule otherwise -- identical
    clusters either way.

    Attributes (set by :meth:`fit`)
    -------------------------------
    labels_ : ndarray of shape (n_samples,)
        Cluster index per sample; -1 marks outliers.
    clusters_ : list[list[int]]
        Sample indices per cluster, largest first.
    n_clusters_ : int
        Number of clusters found (k is a hint, see the paper).
    outlier_indices_ : list[int]
        Samples removed by the outlier handling.

    Example
    -------
    >>> from repro.estimator import RockClusterer
    >>> model = RockClusterer(n_clusters=2, theta=0.4)
    >>> model.fit_predict([{1, 2, 3}, {1, 2, 4}, {1, 3, 4},
    ...                    {7, 8, 9}, {7, 8, 10}, {7, 9, 10}])
    array([0, 0, 0, 1, 1, 1])
    """

    def __init__(
        self,
        n_clusters: int = 2,
        theta: float = 0.5,
        similarity: SimilarityFunction | None = None,
        f=default_f,
        sample_size: int | None = None,
        min_neighbors: int = 1,
        min_cluster_size: int | None = None,
        outlier_multiple: float = 3.0,
        labeling_fraction: float = 0.25,
        fit_mode: str = "auto",
        merge_method: str = "auto",
        workers: int | str | None = None,
        shard_block_rows: int | None = None,
        spill_dir: "str | None" = None,
        max_retries: int = 2,
        random_state: int | None = None,
    ) -> None:
        self.n_clusters = n_clusters
        self.theta = theta
        self.similarity = similarity
        self.f = f
        self.sample_size = sample_size
        self.min_neighbors = min_neighbors
        self.min_cluster_size = min_cluster_size
        self.outlier_multiple = outlier_multiple
        self.labeling_fraction = labeling_fraction
        self.fit_mode = fit_mode
        self.merge_method = merge_method
        self.workers = workers
        self.shard_block_rows = shard_block_rows
        self.spill_dir = spill_dir
        self.max_retries = max_retries
        self.random_state = random_state

    # -- sklearn protocol ---------------------------------------------------
    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {
            "n_clusters": self.n_clusters,
            "theta": self.theta,
            "similarity": self.similarity,
            "f": self.f,
            "sample_size": self.sample_size,
            "min_neighbors": self.min_neighbors,
            "min_cluster_size": self.min_cluster_size,
            "outlier_multiple": self.outlier_multiple,
            "labeling_fraction": self.labeling_fraction,
            "fit_mode": self.fit_mode,
            "merge_method": self.merge_method,
            "workers": self.workers,
            "shard_block_rows": self.shard_block_rows,
            "spill_dir": self.spill_dir,
            "max_retries": self.max_retries,
            "random_state": self.random_state,
        }

    def set_params(self, **params: Any) -> "RockClusterer":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for RockClusterer; valid: "
                    f"{sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def fit(self, X: Any, y: Any = None) -> "RockClusterer":
        """Cluster ``X``; ``y`` is ignored (sklearn convention)."""
        points = _coerce_points(X)
        pipeline = RockPipeline(
            k=self.n_clusters,
            theta=self.theta,
            similarity=self.similarity,
            f=self.f,
            sample_size=self.sample_size,
            min_neighbors=self.min_neighbors,
            min_cluster_size=self.min_cluster_size,
            outlier_multiple=self.outlier_multiple,
            labeling_fraction=self.labeling_fraction,
            fit_mode=self.fit_mode,
            merge_method=self.merge_method,
            workers=self.workers,
            shard_block_rows=self.shard_block_rows,
            spill_dir=self.spill_dir,
            max_retries=self.max_retries,
            seed=self.random_state,
        )
        result = pipeline.fit(points)
        self.labels_ = result.labels
        self.clusters_ = result.clusters
        self.n_clusters_ = result.n_clusters
        self.outlier_indices_ = result.outlier_indices
        self.pipeline_result_ = result
        return self

    def fit_predict(self, X: Any, y: Any = None) -> np.ndarray:
        """Cluster ``X`` and return the labels."""
        return self.fit(X, y).labels_

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RockClusterer(n_clusters={self.n_clusters}, theta={self.theta}, "
            f"sample_size={self.sample_size})"
        )


def _coerce_points(X: Any):
    """Normalise estimator input to something the pipeline accepts."""
    if isinstance(X, (TransactionDataset, CategoricalDataset)):
        return X
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise ValueError("array input must be 2-D (samples x features)")
        return TransactionDataset(
            [
                Transaction(np.flatnonzero(row).tolist(), tid=i)
                for i, row in enumerate(X)
            ],
            vocabulary=list(range(X.shape[1])),
        )
    try:
        rows = list(X)
    except TypeError:
        raise TypeError(f"cannot interpret {type(X).__name__} as input data")
    if not rows:
        raise ValueError("cannot cluster an empty dataset")
    return [
        row if isinstance(row, Transaction) else Transaction(row) for row in rows
    ]
