"""A deliberately naive reference implementation of the merge loop.

Figure 3's efficiency comes from intricate bookkeeping: per-cluster
local heaps, a global heap keyed by each cluster's best goodness, and
incremental cross-link updates ``link[x, w] = link[x, u] + link[x, v]``.
Any slip in that bookkeeping produces plausible-looking but wrong
clusterings, so this module re-implements the same semantics the
slowest possible way -- on every step, recompute every pair's cross-link
count from the raw point-level table and scan all pairs for the best
goodness -- and the test suite property-checks that
:func:`repro.core.rock.cluster_with_links` produces merge-for-merge
identical output (``tests/test_reference.py``).

O(n^3)-ish; never use it for real work.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.goodness import goodness as normalized_goodness
from repro.core.links import LinkTable
from repro.core.rock import GoodnessFunction, MergeStep, RockResult


def naive_cluster_with_links(
    links: LinkTable,
    k: int,
    f_theta: float,
    initial_clusters: Sequence[Sequence[int]] | None = None,
    goodness_fn: GoodnessFunction = normalized_goodness,
) -> RockResult:
    """Reference merge loop: full rescan per step, same tie-breaking.

    Ties on goodness follow the same deterministic rule as the fast
    implementation: among equal-goodness candidate pairs, the one whose
    "owner" cluster entered the global heap earliest wins, and within
    one owner, the partner that entered its local heap earliest.  Both
    orders reduce to cluster-id creation order, which is what this
    implementation uses.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = links.n
    if initial_clusters is None:
        members: dict[int, list[int]] = {i: [i] for i in range(n)}
    else:
        members = {
            cid: sorted(int(p) for p in cluster)
            for cid, cluster in enumerate(initial_clusters)
        }
        seen: set[int] = set()
        for cluster in members.values():
            if not cluster:
                raise ValueError("initial clusters must be non-empty")
            for p in cluster:
                if not 0 <= p < n:
                    raise ValueError(f"point index {p} outside [0, {n})")
                if p in seen:
                    raise ValueError(f"point {p} appears in multiple initial clusters")
                seen.add(p)
    next_id = len(members)
    # order[cid] approximates heap insertion order: creation order
    creation = {cid: cid for cid in members}
    linked = list(links.pairs())

    merges: list[MergeStep] = []
    stopped_early = False
    while len(members) > k:
        best = None  # (goodness, owner_creation, partner_creation, u, v)
        for u, mu in members.items():
            mu_set = set(mu)
            for v, mv in members.items():
                if u == v:
                    continue
                cross = _cross_links(linked, mu_set, set(mv))
                if cross == 0:
                    continue
                g = goodness_fn(cross, len(mu), len(mv), f_theta)
                candidate = (-g, creation[u], creation[v], u, v)
                if best is None or candidate < best:
                    best = candidate
        if best is None or -best[0] <= 0.0:
            stopped_early = True
            break
        _, _, _, u, v = best
        w = next_id
        next_id += 1
        members[w] = sorted(members.pop(u) + members.pop(v))
        creation[w] = w
        merges.append(
            MergeStep(left=u, right=v, merged=w, goodness=-best[0], size=len(members[w]))
        )

    final = sorted(members.values(), key=lambda c: (-len(c), c[0]))
    return RockResult(
        clusters=final, merges=merges, stopped_early=stopped_early, n_points=n
    )


def _cross_links(
    linked: list[tuple[int, int, float]], cluster_a: set[int], cluster_b: set[int]
) -> float:
    total = 0
    for p, q, count in linked:
        if (p in cluster_a and q in cluster_b) or (p in cluster_b and q in cluster_a):
            total += count
    return total
