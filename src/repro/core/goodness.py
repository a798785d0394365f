"""Criterion function and goodness measure (Sections 3.3 and 4.2).

The criterion function the best clustering maximises is

    E_l = sum_i  n_i * ( intra_links(C_i) / n_i^(1 + 2 f(theta)) )

and the merge-time goodness measure between clusters ``C_i`` and ``C_j``
is the cross-link count normalised by its expectation:

    g(C_i, C_j) = link[C_i, C_j]
                  / ( (n_i + n_j)^(1+2f) - n_i^(1+2f) - n_j^(1+2f) )

with the market-basket heuristic ``f(theta) = (1 - theta)/(1 + theta)``
derived in Section 3.3.  ``f`` is pluggable: the paper stresses that an
"inaccurate but reasonable estimate" suffices, which the f-sensitivity
ablation bench demonstrates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.links import LinkTable

FThetaFunction = Callable[[float], float]


def default_f(theta: float) -> float:
    """``f(theta) = (1 - theta) / (1 + theta)`` (Section 3.3).

    Endpoints behave as the paper describes: ``f(1) = 0`` (a point's
    only neighbor is itself, expected links ``n_i``) and ``f(0) = 1``
    (everyone is a neighbor, expected links ``n_i^3``).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    return (1.0 - theta) / (1.0 + theta)


def constant_f(value: float) -> FThetaFunction:
    """An ``f`` ignoring theta -- used by the f-sensitivity ablation."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"f value must be in [0, 1], got {value}")
    return lambda theta: value


def expected_intra_links(n: int, f_theta: float) -> float:
    """``n^(1 + 2 f(theta))``: expected links inside a cluster of n points."""
    if n < 0:
        raise ValueError("cluster size must be non-negative")
    return float(n) ** (1.0 + 2.0 * f_theta)


def expected_cross_links(ni: int, nj: int, f_theta: float) -> float:
    """Expected cross links when merging clusters of sizes ni and nj.

    ``(ni + nj)^(1+2f) - ni^(1+2f) - nj^(1+2f)`` -- the links the merged
    cluster is expected to have beyond those of its parts (Section 4.2).
    Strictly positive for ni, nj >= 1 whenever ``f(theta) > 0``; exactly
    zero when ``f(theta) = 0`` (theta = 1), which callers must guard.
    """
    if ni < 0 or nj < 0:
        raise ValueError("cluster sizes must be non-negative")
    return (
        expected_intra_links(ni + nj, f_theta)
        - expected_intra_links(ni, f_theta)
        - expected_intra_links(nj, f_theta)
    )


def goodness(cross_links: int, ni: int, nj: int, f_theta: float) -> float:
    """The merge goodness ``g(C_i, C_j)`` of Section 4.2.

    Degenerate denominator (``f(theta) = 0``): any positive cross-link
    count is infinitely better than its zero expectation, so the measure
    degrades gracefully to +inf for linked pairs and 0 otherwise.
    """
    if cross_links < 0:
        raise ValueError("cross_links must be non-negative")
    if ni < 1 or nj < 1:
        raise ValueError("clusters must be non-empty")
    if ni > nj:
        # mathematically symmetric; ordering the arguments makes it
        # bitwise symmetric too, so both orientations of a pair carry
        # the identical float and tie-breaking stays deterministic
        ni, nj = nj, ni
    denominator = expected_cross_links(ni, nj, f_theta)
    if denominator <= 0.0:
        return math.inf if cross_links > 0 else 0.0
    return cross_links / denominator


def naive_goodness(cross_links: int, ni: int, nj: int, f_theta: float) -> float:
    """Un-normalised goodness: the raw cross-link count.

    This is the "naive approach" Section 4.2 warns about -- large
    clusters swallow their neighbors because they simply have more cross
    links.  Kept as a first-class strategy for the normalisation
    ablation bench (A1).
    """
    if cross_links < 0:
        raise ValueError("cross_links must be non-negative")
    if ni < 1 or nj < 1:
        raise ValueError("clusters must be non-empty")
    return float(cross_links)


class PowerTable:
    """Memoized ``n^(1 + 2 f(theta))`` over integer cluster sizes.

    Cluster sizes in the merge loop are small integers bounded by the
    point count, while ``pow()`` dominates its profile (two calls per
    goodness evaluation).  Entries are produced by the same scalar
    CPython ``float(n) ** exponent`` expression as
    :func:`expected_intra_links`, so every lookup is bitwise identical
    to the reference's on-the-fly computation -- a requirement for the
    fast merge engine's byte-for-byte equivalence guarantee (``np.power``
    may differ in the last ulp and is deliberately avoided).
    """

    def __init__(self, f_theta: float, n_max: int = 0) -> None:
        self.f_theta = f_theta
        self.exponent = 1.0 + 2.0 * f_theta
        self._values: list[float] = []
        self._array = np.empty(0, dtype=np.float64)
        self.ensure(n_max)

    def ensure(self, n_max: int) -> "PowerTable":
        """Grow the table to cover sizes ``0..n_max``; returns self."""
        if n_max + 1 > len(self._values):
            start = len(self._values)
            self._values.extend(
                float(i) ** self.exponent for i in range(start, n_max + 1)
            )
            self._array = np.array(self._values, dtype=np.float64)
        return self

    def array(self) -> np.ndarray:
        """The memoized values as a read-only-by-convention float64 array."""
        return self._array

    def __getitem__(self, n: int) -> float:
        return self._values[n]

    def __len__(self) -> int:
        return len(self._values)


class NormalizedGoodnessKernel:
    """Vectorized :func:`goodness` backed by a :class:`PowerTable`.

    ``vector`` evaluates the Section 4.2 measure for many candidate
    pairs at once; ``scalar`` is the table-backed single-pair form.
    Both reproduce :func:`goodness` bitwise: the sizes are ordered
    ``lo <= hi`` first (matching the reference's argument swap), the
    denominator keeps the reference's association
    ``(P[lo+hi] - P[lo]) - P[hi]``, and a non-positive denominator
    degrades to ``+inf`` for linked pairs and ``0`` otherwise.
    """

    name = "normalized"

    def __init__(self, f_theta: float, n_max: int = 0) -> None:
        self.f_theta = f_theta
        self.table = PowerTable(f_theta, n_max)

    def scalar(self, count: float, ni: int, nj: int) -> float:
        if ni > nj:
            ni, nj = nj, ni
        table = self.table.ensure(ni + nj)._values
        denominator = (table[ni + nj] - table[ni]) - table[nj]
        if denominator <= 0.0:
            return math.inf if count > 0 else 0.0
        return count / denominator

    def bind(self, n_max: int) -> Callable[[float, int, int], float]:
        """A closure over the pre-grown table for the merge hot loop.

        Bitwise equal to :meth:`scalar`; skips the per-call ``ensure``
        bookkeeping, which dominates at merge-loop call rates.
        """
        table = self.table.ensure(2 * n_max)._values
        inf = math.inf

        def bound(count: float, ni: int, nj: int) -> float:
            if ni > nj:
                ni, nj = nj, ni
            denominator = (table[ni + nj] - table[ni]) - table[nj]
            if denominator <= 0.0:
                return inf if count > 0 else 0.0
            return count / denominator

        return bound

    def vector(self, counts: np.ndarray, ni, nj) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.float64)
        lo = np.minimum(ni, nj)
        hi = np.maximum(ni, nj)
        table = self.table.ensure(int(np.max(lo + hi, initial=0))).array()
        denominator = (table[lo + hi] - table[lo]) - table[hi]
        positive = denominator > 0.0
        out = np.where(counts > 0, np.inf, 0.0)
        if out.ndim == 0:  # scalar broadcast: keep the array contract
            out = np.full(np.shape(denominator), float(out))
        np.divide(counts, denominator, out=out, where=positive)
        return out


class NaiveGoodnessKernel:
    """Vectorized :func:`naive_goodness`: the raw cross-link count."""

    name = "naive"

    def __init__(self, f_theta: float = 0.0, n_max: int = 0) -> None:
        self.f_theta = f_theta

    def scalar(self, count: float, ni: int, nj: int) -> float:
        return float(count)

    def bind(self, n_max: int) -> Callable[[float, int, int], float]:
        return lambda count, ni, nj: float(count)

    def vector(self, counts: np.ndarray, ni, nj) -> np.ndarray:
        return np.asarray(counts, dtype=np.float64).copy()


class CallableGoodnessKernel:
    """Adapter running an arbitrary goodness callable pair-by-pair.

    Used only when ``merge_method="fast"`` is *forced* with a custom
    goodness function; ``"auto"`` keeps custom callables on the heap
    reference loop.  The callable must be symmetric in ``(ni, nj)`` --
    the fast engine evaluates each pair once, while the reference loop
    evaluates both orientations (built-in measures are bitwise
    symmetric, so they are unaffected).
    """

    name = "callable"

    def __init__(self, fn: Callable[[float, int, int, float], float], f_theta: float) -> None:
        self.fn = fn
        self.f_theta = f_theta

    def scalar(self, count: float, ni: int, nj: int) -> float:
        return self.fn(count, int(ni), int(nj), self.f_theta)

    def bind(self, n_max: int) -> Callable[[float, int, int], float]:
        fn, f_theta = self.fn, self.f_theta
        return lambda count, ni, nj: fn(count, int(ni), int(nj), f_theta)

    def vector(self, counts: np.ndarray, ni, nj) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.float64)
        ni_b = np.broadcast_to(np.asarray(ni), counts.shape)
        nj_b = np.broadcast_to(np.asarray(nj), counts.shape)
        fn, f_theta = self.fn, self.f_theta
        return np.array(
            [
                fn(c, a, b, f_theta)
                for c, a, b in zip(
                    counts.tolist(), ni_b.tolist(), nj_b.tolist()
                )
            ],
            dtype=np.float64,
        )


# picklable kernel registry: workers rebuild kernels from these names
MERGE_KERNELS = {
    "normalized": NormalizedGoodnessKernel,
    "naive": NaiveGoodnessKernel,
}


def merge_kernel_for(
    goodness_fn: Callable[..., float], f_theta: float, n_max: int = 0
):
    """The vectorized kernel matching a goodness callable, or ``None``.

    ``None`` signals an unrecognised (custom) callable: ``auto`` merge
    dispatch then stays on the reference heap loop, and a forced fast
    run falls back to :class:`CallableGoodnessKernel`.
    """
    if goodness_fn is goodness:
        return NormalizedGoodnessKernel(f_theta, n_max)
    if goodness_fn is naive_goodness:
        return NaiveGoodnessKernel(f_theta, n_max)
    return None


def merge_kernel_by_name(name: str, f_theta: float, n_max: int = 0):
    """Rebuild a named built-in kernel (the worker-side constructor)."""
    try:
        kernel_cls = MERGE_KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown merge kernel {name!r}") from None
    return kernel_cls(f_theta, n_max)


def intra_cluster_links(cluster: Sequence[int], links: LinkTable) -> int:
    """Total links over unordered point pairs inside one cluster."""
    member = np.zeros(links.n, dtype=bool)
    member[np.asarray(cluster, dtype=np.int64)] = True
    lo, hi, counts = links.pair_arrays()
    return counts[member[lo] & member[hi]].sum().item()


def criterion_value(
    clusters: Sequence[Sequence[int]],
    links: LinkTable,
    f_theta: float,
) -> float:
    """Evaluate the criterion function ``E_l`` for a clustering.

    Singleton clusters contribute 0 (they have no internal pairs); empty
    clusters are rejected.
    """
    total = 0.0
    for cluster in clusters:
        n = len(cluster)
        if n == 0:
            raise ValueError("clusters must be non-empty")
        expected = expected_intra_links(n, f_theta)
        if expected <= 0:
            continue
        total += n * intra_cluster_links(cluster, links) / expected
    return total
