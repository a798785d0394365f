"""Deterministic shard schedules for the coordinator.

Two unit families make up a sharded fit:

* **block units** (``block-<i>``): contiguous row ranges of the store,
  each scored by the sharded fused kernel in a worker process;
* **component units** (``comps-<j>``): contiguous chunks of connected
  components, each agglomerated into merge streams by a worker.

Both schedules are pure functions of the problem (n, block size,
component costs) and never of the worker count, so a run directory
written under ``workers=4`` resumes cleanly under ``workers=1`` and
the stitched result is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.neighbors import block_tasks, worker_block_size

__all__ = ["ShardPlan", "component_chunks", "plan_shards"]

# fixed ceiling on component units: fine enough that retries and resume
# lose little work, coarse enough that dispatch overhead stays amortised
MAX_COMPONENT_UNITS = 64


@dataclass(frozen=True)
class ShardPlan:
    """The block schedule for one sharded fit."""

    n: int
    block_rows: int
    blocks: list[tuple[int, int]] = field(repr=False)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_units(self) -> list[tuple[str, tuple[int, int]]]:
        return [
            (f"block-{index:05d}", span)
            for index, span in enumerate(self.blocks)
        ]


def plan_shards(
    n: int,
    block_rows: int | None = None,
    workers: int = 1,
    memory_budget: int | None = None,
) -> ShardPlan:
    """Resolve the row-block schedule.

    An explicit ``block_rows`` wins; otherwise the per-worker block
    size of the fused pass (budget-aware, floor 16) is reused so
    the sharded scorer touches the same-shaped slices the fused path
    would.  With no explicit budget either, the host-aware default of
    :func:`repro.core.neighbors.resolve_memory_budget` applies.
    """
    if block_rows is None:
        from repro.core.neighbors import resolve_memory_budget

        block_rows = worker_block_size(
            n, max(workers, 1), resolve_memory_budget(memory_budget)
        )
    if block_rows < 1:
        raise ValueError("block_rows must be >= 1")
    return ShardPlan(n=n, block_rows=int(block_rows), blocks=block_tasks(n, block_rows))


def component_chunks(
    costs: np.ndarray, max_units: int = MAX_COMPONENT_UNITS
) -> list[tuple[int, int]]:
    """Chunk components ``0..len(costs)-1`` into contiguous cost-balanced units.

    ``costs`` is a per-component work estimate (pair counts).  Chunks
    are contiguous in component order -- components are already ordered
    by smallest member id, and contiguity keeps the spill layout
    independent of everything but the component partition itself.
    Returns ``(start, stop)`` component ranges.
    """
    n_comps = int(len(costs))
    if n_comps == 0:
        return []
    n_units = min(int(max_units), n_comps)
    weights = np.maximum(np.asarray(costs, dtype=np.float64), 1.0)
    target = float(weights.sum()) / n_units
    chunks: list[tuple[int, int]] = []
    start = 0
    acc = 0.0
    for index in range(n_comps):
        acc += float(weights[index])
        if acc >= target and len(chunks) < n_units - 1 and index + 1 < n_comps:
            chunks.append((start, index + 1))
            start = index + 1
            acc = 0.0
    chunks.append((start, n_comps))
    return chunks
