"""Tests for the servable RockModel artifact and the pipeline bridge."""

import io
import json
import random

import numpy as np
import pytest

from repro.core.pipeline import RockPipeline
from repro.core.similarity import LpSimilarity, MissingAwareJaccard, SimilarityTable
from repro.data.records import MISSING, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset
from repro.serve import AssignmentEngine, RockModel
from repro.serve.model import MODEL_VERSION

CLUSTER_A = [Transaction({1, 2, 3}), Transaction({1, 2, 4}), Transaction({2, 3, 4})]
CLUSTER_B = [Transaction({7, 8, 9}), Transaction({7, 8, 10})]


@pytest.fixture
def model():
    return RockModel(
        labeling_sets=[CLUSTER_A, CLUSTER_B],
        theta=0.4,
        f_theta=(1 - 0.4) / (1 + 0.4),
        cluster_sizes=[30, 20],
        metadata={"k": 2},
    )


@pytest.fixture
def dataset():
    return TransactionDataset(
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {8, 9, 10}, {8, 9, 11}, {8, 10, 11}] * 20
    )


class TestRoundTrip:
    def test_dict_round_trip(self, model):
        back = RockModel.from_dict(model.to_dict())
        assert back.theta == model.theta
        assert back.f_theta == model.f_theta
        assert back.cluster_sizes == model.cluster_sizes
        assert back.metadata == model.metadata
        assert [
            [frozenset(r) for r in li] for li in back.labeling_sets
        ] == [[r.items for r in li] for li in model.labeling_sets]

    def test_file_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        back = RockModel.load(path)
        assert back.n_clusters == 2
        # loaded model assigns identically
        points = [Transaction({1, 2, 3}), Transaction({7, 8}), Transaction({42})]
        assert back.labeler().assign_all(points).tolist() == \
            model.labeler().assign_all(points).tolist()

    def test_json_is_plain_and_versioned(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        assert data["format"] == "rock-model"
        assert data["version"] == MODEL_VERSION
        assert data["points"] == "sets"
        assert isinstance(data["labeling_sets"][0][0], list)

    def test_stream_round_trip(self, model):
        buf = io.StringIO()
        model.save(buf)
        buf.seek(0)
        assert RockModel.load(buf).theta == model.theta

    def test_version_mismatch_rejected(self, model):
        data = model.to_dict()
        data["version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            RockModel.from_dict(data)

    def test_wrong_format_rejected(self, model):
        data = model.to_dict()
        data["format"] = "pipeline-result"
        with pytest.raises(ValueError, match="format"):
            RockModel.from_dict(data)

    def test_record_representatives_round_trip(self):
        schema = CategoricalSchema(["a", "b", "c"])
        reps = [
            [CategoricalRecord(schema, ["x", "y", MISSING])],
            [CategoricalRecord(schema, ["p", MISSING, "q"])],
        ]
        model = RockModel(
            labeling_sets=reps, theta=0.5, f_theta=0.3,
            similarity=MissingAwareJaccard(),
        )
        back = RockModel.from_dict(model.to_dict())
        assert isinstance(back.similarity, MissingAwareJaccard)
        rep = back.labeling_sets[0][0]
        assert isinstance(rep, CategoricalRecord)
        assert rep.values == ("x", "y", MISSING)

    def test_vector_representatives_round_trip(self):
        model = RockModel(
            labeling_sets=[[[0.0, 1.0]], [[5.0, 5.0]]],
            theta=0.5,
            f_theta=0.3,
            similarity=LpSimilarity(p=2.0, scale=2.0),
        )
        back = RockModel.from_dict(model.to_dict())
        assert isinstance(back.similarity, LpSimilarity)
        assert back.similarity.scale == 2.0
        assert back.labeler().assign([0.1, 0.9]) == 0

    def test_custom_similarity_rejected(self):
        table = SimilarityTable({("a", "b"): 0.9})
        model = RockModel(
            labeling_sets=[["a"], ["b"]], theta=0.5, f_theta=0.3,
            similarity=table,
        )
        with pytest.raises(ValueError, match="custom similarity"):
            model.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            RockModel(labeling_sets=[], theta=0.5, f_theta=0.3)
        with pytest.raises(ValueError, match="non-empty"):
            RockModel(labeling_sets=[[], []], theta=0.5, f_theta=0.3)
        with pytest.raises(ValueError, match="theta"):
            RockModel(labeling_sets=[CLUSTER_A], theta=1.5, f_theta=0.3)


class TestPipelineBridge:
    def test_fit_model_reproduces_labels_on_held_out(self, dataset):
        # the second input holds points whose best scores tie across
        # clusters (regression: point 9, {5}, was labeled 2 by the run
        # but 1 by the model, because the run broke the tie in the
        # pre-sort cluster order)
        rng = random.Random(18)
        n = rng.randint(20, 60)
        tied = [
            Transaction(sorted(rng.sample(range(8), rng.randint(1, 4))))
            for _ in range(n)
        ]
        k, theta = rng.randint(2, 4), rng.choice([0.2, 0.3, 0.5])
        cases = [
            (dataset, RockPipeline(k=2, theta=0.4, sample_size=40, seed=0)),
            (tied, RockPipeline(k, theta, sample_size=n // 2, seed=18)),
        ]
        for points, pipeline in cases:
            result, model = pipeline.fit_model(points)
            in_sample = set(result.sample_indices)
            held_out = [i for i in range(len(points)) if i not in in_sample]
            assert held_out  # the split is real
            engine = AssignmentEngine(model)
            labels = engine.assign_batch([points[i] for i in held_out])
            assert np.array_equal(labels, result.labels[held_out])
            labeler = model.labeler()
            assert [labeler.assign(points[i]) for i in held_out] == \
                result.labels[held_out].tolist()

    def test_fit_model_survives_json_round_trip(self, dataset, tmp_path):
        pipeline = RockPipeline(k=2, theta=0.4, sample_size=40, seed=0)
        result, model = pipeline.fit_model(dataset)
        path = tmp_path / "model.json"
        model.save(path)
        engine = AssignmentEngine(RockModel.load(path))
        in_sample = set(result.sample_indices)
        held_out = [i for i in range(len(dataset)) if i not in in_sample]
        labels = engine.assign_batch([dataset[i] for i in held_out])
        assert np.array_equal(labels, result.labels[held_out])

    def test_to_model_without_stored_sets_needs_points(self, dataset):
        pipeline = RockPipeline(k=2, theta=0.4, seed=0)  # clusters every point
        result = pipeline.fit(dataset)
        assert result.labeling_sets is None
        with pytest.raises(ValueError, match="original points"):
            pipeline.to_model(result)
        model = pipeline.to_model(result, dataset)
        assert model.n_clusters == result.n_clusters

    def test_labeling_sets_follow_final_cluster_order(self, dataset):
        pipeline = RockPipeline(k=2, theta=0.4, sample_size=40, seed=0)
        result, model = pipeline.fit_model(dataset)
        # each labeling set's representatives belong to its final cluster
        for c, li in enumerate(model.labeling_sets):
            member_items = {dataset[i].items for i in result.clusters[c]}
            assert all(rep.items in member_items for rep in li)

    def test_metadata_records_provenance(self, dataset):
        pipeline = RockPipeline(k=2, theta=0.4, sample_size=40, seed=7)
        _, model = pipeline.fit_model(dataset)
        assert model.metadata["k"] == 2
        assert model.metadata["seed"] == 7
        assert model.metadata["sample_size"] == 40
        assert model.metadata["n_points"] == len(dataset)
        assert model.metadata["uses_default_f"] is True
        assert model.cluster_sizes == result_sizes(dataset, pipeline)


def result_sizes(dataset, pipeline):
    return RockPipeline(
        k=pipeline.k, theta=pipeline.theta,
        sample_size=pipeline.sample_size, seed=pipeline.seed,
    ).fit(dataset).cluster_sizes()


class TestArtifactChecksum:
    """Content checksums written on save and verified on load."""

    def test_save_embeds_sha256_checksum(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        from repro.serve.model import artifact_checksum

        assert data["checksum"] == "sha256:" + artifact_checksum(data)
        assert len(data["checksum"]) == len("sha256:") + 64

    def test_checksum_is_content_addressed(self, model, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save(p1)
        model.save(p2)
        c1 = json.loads(p1.read_text())["checksum"]
        c2 = json.loads(p2.read_text())["checksum"]
        assert c1 == c2  # same content, same digest, mtime-independent

    def test_clean_round_trip_verifies(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        loaded = RockModel.load(path)
        assert loaded.theta == model.theta

    def test_tampered_artifact_fails_fast(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        data["theta"] = 0.7
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            RockModel.load(path)

    def test_truncated_labeling_set_fails_fast(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        data["labeling_sets"][0].pop()
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            RockModel.load(path)

    def test_pre_checksum_artifacts_still_load(self, model, tmp_path):
        """Artifacts written before checksums existed have no key."""
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        del data["checksum"]
        path.write_text(json.dumps(data))
        loaded = RockModel.load(path)
        assert loaded.theta == model.theta
        assert loaded.n_clusters == model.n_clusters

    def test_checksum_survives_reserialization(self, model, tmp_path):
        """Round-tripping through json.loads/dumps keeps the digest valid."""
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        (tmp_path / "copy.json").write_text(json.dumps(data))
        loaded = RockModel.load(tmp_path / "copy.json")
        assert loaded.theta == model.theta
