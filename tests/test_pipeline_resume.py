"""The resume seam streaming refits rely on: pause + resume == one shot.

Greedy agglomeration is memoryless: the merges that remain after
pausing at ``k'`` clusters depend only on the partition at the pause,
not on how it was reached.  So resuming via ``initial_clusters`` must
reproduce the one-shot run **byte for byte** -- same final clusters,
same merge history (pause prefix + resume suffix), same goodness
floats bit for bit -- across ``merge_method={heap,fast}``.

Merge ids are partition-relative (a resumed run renumbers its starting
clusters 0..m-1), so histories are compared after canonicalising each
step to its *member sets*; goodness floats are compared by their
``float64`` bytes.

Link weights in the property are distinct random integers below
``2**40``: integer-valued floats keep every cross-link sum exact under
any summation order (no float-associativity drift between the
incremental one-shot aggregation and the resume's re-aggregation),
while 40-bit entropy makes an exact goodness tie -- the one legitimate
divergence source, since ties break by heap insertion order --
astronomically unlikely.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodness import default_f
from repro.core.links import LinkTable
from repro.core.pipeline import RockPipeline
from repro.core.rock import cluster_with_links

F_THETA = default_f(0.5)


def canonical_history(merges, initial_member_sets):
    """Merge steps as id-free ``({left_set, right_set}, goodness_bytes, size)``."""
    members = {i: frozenset(c) for i, c in enumerate(initial_member_sets)}
    out = []
    for step in merges:
        left = members.pop(step.left)
        right = members.pop(step.right)
        members[step.merged] = left | right
        assert step.size == len(left) + len(right)
        out.append(
            (
                frozenset((left, right)),
                np.float64(step.goodness).tobytes(),
                step.size,
            )
        )
    return out


def canonical_clusters(clusters):
    return {frozenset(c) for c in clusters}


@st.composite
def resume_problems(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(all_pairs) - 1),
            max_size=min(len(all_pairs), 3 * n),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    k_final = draw(st.integers(min_value=1, max_value=n - 1))
    k_pause = draw(st.integers(min_value=k_final, max_value=n))
    rng = random.Random(seed)
    weights = rng.sample(range(1, 2**40), len(picked))
    edges = {
        all_pairs[index]: float(weight)
        for index, weight in zip(sorted(picked), weights)
    }
    return n, edges, k_final, k_pause


class TestClusterWithLinksResume:
    @given(problem=resume_problems())
    @settings(max_examples=60, deadline=None)
    def test_pause_resume_byte_identical_to_one_shot(self, problem):
        n, edges, k_final, k_pause = problem
        for merge_method in ("heap", "fast"):
            links = LinkTable(n, edges)
            direct = cluster_with_links(
                links, k=k_final, f_theta=F_THETA, merge_method=merge_method
            )
            paused = cluster_with_links(
                links, k=k_pause, f_theta=F_THETA, merge_method=merge_method
            )
            resumed = cluster_with_links(
                links,
                k=k_final,
                f_theta=F_THETA,
                initial_clusters=paused.clusters,
                merge_method=merge_method,
            )
            assert canonical_clusters(resumed.clusters) == canonical_clusters(
                direct.clusters
            ), merge_method
            singletons = [[i] for i in range(n)]
            want = canonical_history(direct.merges, singletons)
            got = canonical_history(paused.merges, singletons) + canonical_history(
                resumed.merges, paused.clusters
            )
            assert got == want, merge_method
            assert resumed.stopped_early == direct.stopped_early or (
                not resumed.merges and paused.stopped_early
            )


class TestPipelineResumeSeam:
    """The pipeline-level seam: a refit resuming from an earlier fit's
    partition over the same sample equals the one-shot fit, including
    sampling and isolated-point pruning in front of the merge loop."""

    def run_pair(self, seed, merge_method, sample_size=None):
        rng = random.Random(seed)
        vocab_a, vocab_b = list(range(12)), list(range(20, 32))
        points = [
            frozenset(rng.sample(vocab_a if i % 2 else vocab_b, 4))
            for i in range(160)
        ]
        params = dict(
            theta=0.3, seed=seed, merge_method=merge_method,
            sample_size=sample_size,
        )
        coarse = RockPipeline(k=8, **params).fit(points)
        fine_pipeline = RockPipeline(k=2, **params)
        direct = fine_pipeline.fit(points)
        resumed = fine_pipeline.fit(
            points, initial_clusters=coarse.clusters
        )
        return coarse, direct, resumed

    def test_refit_byte_identical_across_merge_methods(self):
        for merge_method in ("heap", "fast"):
            for seed in (0, 1, 7):
                coarse, direct, resumed = self.run_pair(seed, merge_method)
                assert resumed.clusters == direct.clusters, (merge_method, seed)
                assert np.array_equal(resumed.labels, direct.labels)
                assert resumed.outlier_indices == direct.outlier_indices
                # merge history: one-shot == coarse prefix + resumed suffix,
                # goodness floats bit for bit
                def tail(result):
                    return [
                        (np.float64(m.goodness).tobytes(), m.size)
                        for m in result.rock_result.merges
                    ]
                assert tail(coarse) + tail(resumed) == tail(direct), (
                    merge_method, seed,
                )

    def test_refit_byte_identical_with_sampling_and_pruning(self):
        for merge_method in ("heap", "fast"):
            coarse, direct, resumed = self.run_pair(
                3, merge_method, sample_size=90
            )
            assert resumed.clusters == direct.clusters
            assert np.array_equal(resumed.labels, direct.labels)

    def test_converged_partition_is_a_fixed_point(self):
        points = [
            frozenset(random.Random(i).sample(range(10), 4))
            for i in range(120)
        ]
        pipeline = RockPipeline(k=3, theta=0.3, seed=5)
        once = pipeline.fit(points)
        again = pipeline.fit(points, initial_clusters=once.clusters)
        assert again.clusters == once.clusters
        assert again.rock_result.merges == []

    def test_invalid_initial_clusters_rejected(self):
        points = [
            frozenset(random.Random(i).sample(range(10), 4))
            for i in range(40)
        ]
        pipeline = RockPipeline(k=2, theta=0.3, seed=5)
        with pytest.raises(ValueError, match="outside"):
            pipeline.fit(points, initial_clusters=[[0, 999]])
        with pytest.raises(ValueError, match="multiple"):
            pipeline.fit(points, initial_clusters=[[0, 1], [1, 2]])

    def test_members_outside_sample_are_dropped(self):
        points = [
            frozenset(random.Random(i).sample(range(10), 4))
            for i in range(120)
        ]
        pipeline = RockPipeline(k=2, theta=0.3, sample_size=60, seed=5)
        # a partition naming every input point: non-sampled members must
        # silently drop out rather than corrupt the merge loop
        result = pipeline.fit(
            points,
            initial_clusters=[list(range(60)), list(range(60, 120))],
        )
        assert result.n_clusters >= 1
        assert len(result.labels) == 120
