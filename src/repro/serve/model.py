"""The versioned, servable ``RockModel`` artifact.

The paper's deployment story (Section 4.6) is fit-once / serve-many:
cluster a sample, then stream any amount of data through cheap
per-point assignment against the labeling sets ``L_i``.  The labeling
sets -- plus theta, ``f(theta)`` and the similarity configuration --
are therefore the *servable* artifact, and that is exactly what
:class:`RockModel` persists.

Persistence follows the no-pickle conventions of
:mod:`repro.core.serialization`: plain JSON, explicit format name and
version, hard rejection of mismatched versions.  Three representative
encodings cover the library's point types:

* ``"sets"`` -- transactions / raw item sets (items must be JSON
  scalars);
* ``"records"`` -- :class:`~repro.data.records.CategoricalRecord`
  representatives, stored as a shared schema plus per-record value
  rows (``null`` marks a missing value) so the missing-aware
  similarity still sees real records after a round-trip;
* ``"raw"`` -- anything already JSON-shaped (e.g. numeric vectors for
  :class:`~repro.core.similarity.LpSimilarity`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

from repro.core.assign import AssignmentIndex, build_assignment_index
from repro.core.goodness import default_f
from repro.core.labeling import ClusterLabeler, draw_labeling_sets
from repro.core.similarity import (
    SimilarityFunction,
    similarity_from_dict,
    similarity_to_dict,
)
from repro.data.records import MISSING, CategoricalRecord, CategoricalSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import PipelineResult, RockPipeline

MODEL_FORMAT = "rock-model"
MODEL_VERSION = 1
CHECKSUM_KEY = "checksum"

_SCALAR_TYPES = (str, int, float, bool)


def artifact_checksum(payload: dict[str, Any]) -> str:
    """The sha256 hex digest of a model payload's canonical JSON.

    The digest covers every key except :data:`CHECKSUM_KEY` itself,
    over a canonical rendering (sorted keys, no whitespace) -- so the
    on-disk indentation never matters and save/verify agree by
    construction.
    """
    body = {k: v for k, v in payload.items() if k != CHECKSUM_KEY}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def verify_artifact_checksum(payload: dict[str, Any]) -> str:
    """Check a loaded payload against its recorded checksum.

    Returns the *actual* digest of the payload either way.  Artifacts
    written before checksums existed (no :data:`CHECKSUM_KEY`) pass
    untouched; a recorded checksum that does not match raises with a
    clear corrupt-artifact message instead of letting a bit-flipped
    model silently mis-assign.
    """
    actual = artifact_checksum(payload)
    stored = payload.get(CHECKSUM_KEY)
    if stored is None:
        return actual
    expected = stored.split(":", 1)[-1] if isinstance(stored, str) else stored
    if expected != actual:
        raise ValueError(
            f"model artifact checksum mismatch: recorded sha256:{expected} "
            f"but content hashes to sha256:{actual} -- the artifact is "
            "corrupt or truncated; refusing to serve it"
        )
    return actual


@dataclass
class RockModel:
    """Everything needed to assign new points to a finished clustering.

    Attributes
    ----------
    labeling_sets:
        Per-cluster representative sets ``L_i``, in final cluster order
        (cluster ``i`` of the model is label ``i`` of the run that
        produced it).
    theta:
        The neighbor threshold the clustering used.
    f_theta:
        The evaluated ``f(theta)`` -- stored as a number, not a
        function, so the artifact is self-contained.
    similarity:
        The similarity function (``None`` = default Jaccard).
    cluster_sizes:
        Final cluster sizes from the producing run (metadata only).
    metadata:
        Free-form provenance: pipeline parameters, outlier stats,
        dataset size.  Never consulted during assignment.
    """

    labeling_sets: list[list[Any]]
    theta: float
    f_theta: float
    similarity: SimilarityFunction | None = None
    cluster_sizes: list[int] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.labeling_sets:
            raise ValueError("model needs at least one labeling set")
        if all(len(li) == 0 for li in self.labeling_sets):
            raise ValueError("at least one labeling set must be non-empty")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.f_theta < 0.0:
            raise ValueError(f"f_theta must be non-negative, got {self.f_theta}")
        self.labeling_sets = [list(li) for li in self.labeling_sets]

    @property
    def n_clusters(self) -> int:
        return len(self.labeling_sets)

    def labeler(self) -> ClusterLabeler:
        """A :class:`ClusterLabeler` reproducing this model's assignments."""
        return ClusterLabeler(
            self.labeling_sets,
            theta=self.theta,
            similarity=self.similarity,
            f=lambda _theta: self.f_theta,
        )

    def assignment_index(self) -> AssignmentIndex | None:
        """The batch index for this model; ``None`` means use :meth:`labeler`."""
        return build_assignment_index(
            self.labeling_sets, self.theta, self.f_theta, self.similarity
        )

    # -- JSON round-trip ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict; raises for non-serialisable configurations."""
        similarity = similarity_to_dict(self.similarity)
        if similarity is not None and similarity.get("custom"):
            raise ValueError(
                f"cannot serialise a model with custom similarity "
                f"{type(self.similarity).__name__}; only the built-in "
                "similarity classes round-trip through JSON"
            )
        kind, sets, extra = _encode_labeling_sets(self.labeling_sets)
        payload: dict[str, Any] = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "theta": self.theta,
            "f_theta": self.f_theta,
            "similarity": similarity,
            "points": kind,
            "labeling_sets": sets,
            "cluster_sizes": (
                None
                if self.cluster_sizes is None
                else [int(s) for s in self.cluster_sizes]
            ),
            "metadata": dict(self.metadata),
        }
        payload.update(extra)
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RockModel":
        if data.get("format") != MODEL_FORMAT:
            raise ValueError(
                f"expected format {MODEL_FORMAT!r}, got {data.get('format')!r}"
            )
        version = data.get("version")
        if version != MODEL_VERSION:
            raise ValueError(
                f"unsupported {MODEL_FORMAT} version {version!r} "
                f"(this library reads version {MODEL_VERSION})"
            )
        labeling_sets = _decode_labeling_sets(
            data.get("points", "sets"), data["labeling_sets"], data
        )
        sizes = data.get("cluster_sizes")
        return cls(
            labeling_sets=labeling_sets,
            theta=float(data["theta"]),
            f_theta=float(data["f_theta"]),
            similarity=similarity_from_dict(data.get("similarity")),
            cluster_sizes=None if sizes is None else [int(s) for s in sizes],
            metadata=dict(data.get("metadata", {})),
        )

    def save(self, target: str | Path | TextIO) -> None:
        """Write the model as JSON (with a sha256 content checksum).

        The checksum covers the canonical payload, so :meth:`load` can
        fail fast on corrupt or truncated artifacts; files written by
        older versions (without a checksum) still load.
        """
        payload = self.to_dict()
        payload[CHECKSUM_KEY] = "sha256:" + artifact_checksum(payload)
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        else:
            json.dump(payload, target, indent=2)

    @classmethod
    def load(cls, source: str | Path | TextIO) -> "RockModel":
        """Read a model saved by :meth:`save`, verifying its checksum."""
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.load(source)
        verify_artifact_checksum(data)
        return cls.from_dict(data)


def model_from_result(
    pipeline: "RockPipeline",
    result: "PipelineResult",
    points: Any | None = None,
) -> RockModel:
    """Build a :class:`RockModel` from a finished pipeline run.

    Prefers the labeling sets the run actually used (stored on the
    result, in final cluster order) so that model assignments agree
    with the run's own labels.  When the run never labeled, fresh sets
    are drawn from the final clusters over ``points``.
    """
    labeling_sets = result.labeling_sets
    if labeling_sets is None:
        if points is None:
            raise ValueError(
                "this run drew no labeling sets (it clustered every point); "
                "pass the original points so representatives can be drawn"
            )
        point_list = list(points)
        labeling_sets = draw_labeling_sets(
            result.clusters,
            point_list,
            fraction=pipeline.labeling_fraction,
            rng=random.Random(pipeline.seed),
        )
    n_points = int(len(result.labels))
    metadata = {
        "k": pipeline.k,
        "theta": pipeline.theta,
        "seed": pipeline.seed,
        "labeling_fraction": pipeline.labeling_fraction,
        "sample_size": len(result.sample_indices),
        "n_points": n_points,
        "n_sample_outliers": len(result.outlier_indices),
        "n_unassigned": int((result.labels == -1).sum()),
        "uses_default_f": pipeline.f is default_f,
        "fit_mode": getattr(pipeline, "fit_mode", "auto"),
        "merge_method": getattr(pipeline, "merge_method", "auto"),
        "workers": getattr(pipeline, "workers", None),
        **(
            {
                "shard_block_rows": getattr(pipeline, "shard_block_rows", None),
                "spill_dir": (
                    None
                    if getattr(pipeline, "spill_dir", None) is None
                    else str(pipeline.spill_dir)
                ),
                "max_retries": getattr(pipeline, "max_retries", 2),
            }
            if getattr(pipeline, "fit_mode", "auto") == "sharded"
            else {}
        ),
        # the backends that actually ran (fallbacks resolved), e.g.
        # {"fit": "native:cext", "merge": "fast"}
        "backends": dict(getattr(result, "backends", {}) or {}),
        # per-phase wall-clock of the producing run; previously this
        # died with the PipelineResult and tools downstream could only
        # show a summed total
        "fit_timings": {
            phase: float(seconds)
            for phase, seconds in result.timings.items()
        },
    }
    return RockModel(
        labeling_sets=labeling_sets,
        theta=pipeline.theta,
        f_theta=pipeline.f(pipeline.theta),
        similarity=pipeline.similarity,
        cluster_sizes=result.cluster_sizes(),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# representative encoding/decoding
# ---------------------------------------------------------------------------

def _encode_labeling_sets(
    labeling_sets: list[list[Any]],
) -> tuple[str, list[list[Any]], dict[str, Any]]:
    reps = [rep for li in labeling_sets for rep in li]
    if reps and all(isinstance(r, CategoricalRecord) for r in reps):
        schema = reps[0].schema
        if any(r.schema != schema for r in reps):
            raise ValueError("record representatives must share one schema")
        encoded = [
            [[None if v is MISSING else v for v in rep.values] for rep in li]
            for li in labeling_sets
        ]
        return "records", encoded, {"schema": list(schema.attributes)}
    try:
        from repro.core.similarity import _as_item_set

        encoded = []
        for li in labeling_sets:
            rows = []
            for rep in li:
                items = sorted(_as_item_set(rep), key=repr)
                for item in items:
                    if not isinstance(item, _SCALAR_TYPES):
                        raise TypeError(
                            f"item {item!r} is not a JSON scalar"
                        )
                rows.append(items)
            encoded.append(rows)
        return "sets", encoded, {}
    except TypeError:
        pass
    try:
        json.dumps(labeling_sets)
    except TypeError as exc:
        raise ValueError(
            "labeling-set representatives are neither item sets, "
            "categorical records, nor JSON-serialisable values"
        ) from exc
    return "raw", [list(li) for li in labeling_sets], {}


def _decode_labeling_sets(
    kind: str, sets: list[list[Any]], data: dict[str, Any]
) -> list[list[Any]]:
    if kind == "sets":
        return [[frozenset(items) for items in li] for li in sets]
    if kind == "records":
        schema = CategoricalSchema(data["schema"])
        return [
            [
                CategoricalRecord(
                    schema, [MISSING if v is None else v for v in values]
                )
                for values in li
            ]
            for li in sets
        ]
    if kind == "raw":
        return [list(li) for li in sets]
    raise ValueError(f"unknown representative encoding {kind!r}")
