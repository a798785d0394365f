"""Native-speed kernels for the two remaining fit hot loops.

``repro.native`` provides drop-in native implementations of

* the fused neighbor+link block kernel (score a row block of the
  transaction similarity matrix, threshold it, and reduce the
  surviving neighbor lists straight to packed Figure 4 pair counts),
  replacing the scipy-product + ``pair_link_counts`` Python loop of
  :mod:`repro.parallel.links`; and
* the component merge inner loop (the lazy-heap agglomeration of
  :func:`repro.core.merge.component_merge_stream`) on flat typed
  arrays with binary heaps instead of ``heapq`` tuples; and
* the serving assignment hot loop (``assign_block``): candidate
  gather over the :class:`repro.core.assign.AssignmentIndex` inverted
  index, Jaccard threshold test and best-cluster argmax fused into
  one pass per query point.

All are selected through the existing switches -- ``fit_mode="native"``,
``merge_method="native"`` and ``assign_backend="native"``, and by
their ``"auto"`` defaults whenever a tier passes its probe -- and all
are **bit-identical** to the reference paths: same survivor sets, same
merge history with bitwise equal goodness floats, same ``heap_ops``
accounting, same assignment labels and scores
(property-tested in ``tests/test_native_kernels.py``).

Two backend tiers implement the same kernel interface:

``numba``
    ``@njit`` kernels (:mod:`repro.native.numba_backend`), used when
    numba is importable (``pip install repro[native]``).
``cext``
    A small C file (``kernels.c``) compiled on demand with the system
    C compiler and bound through :mod:`ctypes`
    (:mod:`repro.native.cext`).  No build-time dependency: the shared
    object is built once into a user cache directory keyed by the
    source hash, so steady-state runs pay nothing.

Backend selection (:func:`available_backend`) prefers numba, falls
back to the C extension, and degrades to ``None`` -- callers then run
the existing pure-Python/numpy paths -- when neither tier works.  A
probe *runs* every kernel on a tiny smoke problem before a tier is
declared available, so a broken toolchain can never take down a fit.

Environment overrides:

``REPRO_NATIVE=0`` (or ``off``/``false``/``no``)
    Disable native kernels entirely: the ``auto`` resolvers keep the
    reference paths (silently), and forced ``native`` modes fall back
    with a warning.  This is the opt-out.
``REPRO_NATIVE=1`` (or ``on``/``true``/``yes``)
    Accepted for compatibility; it means the same as leaving the
    variable unset.  By default ``auto`` promotes to native whenever a
    tier passes its probe -- the C tier counts, not only numba -- so a
    plain checkout with a working C compiler runs the native fit and
    merge kernels.
``REPRO_NATIVE_BACKEND=numba|cext``
    Restrict the probe to one tier.
``REPRO_NATIVE_CACHE=<dir>``
    Where the C tier caches compiled shared objects
    (default ``$XDG_CACHE_HOME/repro-native``).
"""

from __future__ import annotations

import os
from typing import Any

__all__ = [
    "available_backend",
    "auto_native",
    "backend_info",
    "get_kernels",
    "native_available",
]

_BACKEND_NAMES = ("numba", "cext")

# probe results, cached per tier: missing = not yet probed,
# None = probed and unusable, object = the kernel namespace
_KERNELS: dict[str, Any | None] = {}


def _env_flag(name: str) -> str | None:
    value = os.environ.get(name)
    if value is None:
        return None
    return value.strip().lower()


def _disabled() -> bool:
    return _env_flag("REPRO_NATIVE") in ("0", "off", "false", "no")


def _forced_backend() -> str | None:
    value = _env_flag("REPRO_NATIVE_BACKEND")
    return value if value in _BACKEND_NAMES else None


def _smoke_test(kernels: Any) -> None:
    """Run every kernel on a tiny problem; raises when the tier is broken.

    This is what makes the probe trustworthy: a tier is advertised only
    after it has actually compiled and produced sane output, so JIT or
    toolchain failures degrade to the Python paths instead of erroring
    mid-fit.
    """
    import numpy as np

    # two transactions sharing 2 of 3 items: jaccard 0.5.  score_block
    # emits only the upper triangle (row 0 -> [1], row 1 -> []);
    # mirror_neighbors rebuilds the full symmetric lists.
    indptr = np.array([0, 3, 6], dtype=np.int64)
    indices = np.array([0, 1, 2, 1, 2, 3], dtype=np.int32)
    t_indptr = np.array([0, 1, 3, 5, 6], dtype=np.int64)
    t_indices = np.array([0, 0, 1, 0, 1, 1], dtype=np.int32)
    sizes = np.array([3, 3], dtype=np.int32)
    upper_indptr, upper_indices = kernels.score_block(
        indptr, indices, t_indptr, t_indices, sizes, 2, 0, 2, 0.5, 0
    )
    if upper_indptr.tolist() != [0, 1, 1] or upper_indices.tolist() != [1]:
        raise RuntimeError("score_block smoke test mismatch")
    full_indptr, full_indices = kernels.mirror_neighbors(
        upper_indptr, upper_indices, 2
    )
    if full_indptr.tolist() != [0, 1, 2] or full_indices.tolist() != [1, 0]:
        raise RuntimeError("mirror_neighbors smoke test mismatch")
    codes, counts = kernels.pair_count_reduce(
        np.array([0, 3], dtype=np.int64),
        np.array([0, 1, 2], dtype=np.int32),
        4,
    )
    if codes.tolist() != [1, 2, 6] or counts.tolist() != [1, 1, 1]:
        raise RuntimeError("pair_count_reduce smoke test mismatch")
    # one pair of singletons, naive goodness: a single merge of count 2
    left, right, goodness, out_sizes, heap_ops = kernels.merge_component(
        np.array([1, 1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([2.0], dtype=np.float64),
        np.zeros(1, dtype=np.float64),
        1,
    )
    if (
        left.tolist() != [0]
        or right.tolist() != [1]
        or goodness.tolist() != [2.0]
        or out_sizes.tolist() != [2]
    ):
        raise RuntimeError("merge_component smoke test mismatch")
    # two representatives {0,1} (cluster 0) and {1,2} (cluster 1) at
    # theta 0.5: point {0,1} matches rep 0 exactly, the empty point is
    # an outlier, point {2} half-overlaps rep 1
    labels, best = kernels.assign_block(
        np.array([0, 2, 2, 3], dtype=np.int64),   # q_indptr
        np.array([0, 1, 2], dtype=np.int32),      # q_items
        np.array([2, 0, 1], dtype=np.int64),      # q_sizes
        np.array([0, 1, 3, 4], dtype=np.int64),   # inv_indptr
        np.array([0, 0, 1, 1], dtype=np.int32),   # inv_reps
        np.array([2, 2], dtype=np.int32),         # rep_sizes
        np.array([0, 1], dtype=np.int32),         # rep_cluster
        np.array([1.0, 1.0], dtype=np.float64),   # normalisers
        2,
        0.5,
    )
    if labels.tolist() != [0, -1, 1] or best.tolist() != [1.0, 0.0, 1.0]:
        raise RuntimeError("assign_block smoke test mismatch")


def _probe(name: str) -> Any | None:
    if name in _KERNELS:
        return _KERNELS[name]
    kernels: Any | None = None
    try:
        if name == "numba":
            from repro.native import numba_backend

            kernels = numba_backend.load_kernels()
        else:
            from repro.native import cext

            kernels = cext.load_kernels()
        if kernels is not None:
            _smoke_test(kernels)
    except Exception:
        kernels = None
    _KERNELS[name] = kernels
    return kernels


def get_kernels(name: str | None = None) -> Any | None:
    """The kernel namespace of a working backend, or ``None``.

    With ``name=None`` the tiers are probed in preference order
    (numba, then the C extension) honouring the environment overrides;
    a specific ``name`` probes only that tier (the test suite uses this
    to exercise every available backend).
    """
    if _disabled():
        return None
    if name is not None:
        if name not in _BACKEND_NAMES:
            raise ValueError(f"unknown native backend {name!r}")
        return _probe(name)
    forced = _forced_backend()
    order = (forced,) if forced else _BACKEND_NAMES
    for candidate in order:
        kernels = _probe(candidate)
        if kernels is not None:
            return kernels
    return None


def available_backend() -> str | None:
    """Name of the backend :func:`get_kernels` would return, or ``None``."""
    kernels = get_kernels()
    return None if kernels is None else kernels.name


def native_available() -> bool:
    """Whether a forced ``native`` mode has a backend to run on."""
    return get_kernels() is not None


def auto_native() -> bool:
    """Whether the ``auto`` resolvers should promote to native kernels.

    True exactly when a tier passed its probe (numba or the C
    extension), i.e. :func:`native_available`; ``REPRO_NATIVE=0``
    turns it off.  The probe smoke-tests every kernel against exact
    fixtures first, which is what makes promoting by default safe.
    """
    return native_available()


def backend_info() -> dict[str, Any]:
    """Probe state for benches and manifests (never raises)."""
    if _disabled():
        return {"backend": None, "disabled": True}
    kernels = get_kernels()
    info: dict[str, Any] = {
        "backend": None if kernels is None else kernels.name,
        "disabled": False,
        "auto": auto_native(),
    }
    if kernels is not None:
        detail = getattr(kernels, "info", None)
        if detail:
            info.update(detail)
    return info


def _reset_for_tests() -> None:
    """Forget probe results (the fallback tests flip env vars)."""
    _KERNELS.clear()
