"""Backend fallback: native modes degrade, never crash.

The native kernels are an acceleration, not a requirement: a checkout
without any working backend (or with ``REPRO_NATIVE=0``) must keep
every reference behaviour byte for byte.  ``auto`` promotes to native
whenever a tier passes its probe -- the C tier counts, not only numba.
Forced ``native`` modes that cannot run fall back to the reference
paths with exactly one warning; ``auto`` modes stay silent.  These tests simulate the failure modes -- numba
missing (an import hook, which is also the true state of a machine
without the ``[native]`` extra), every backend disabled via
``REPRO_NATIVE=0``, custom goodness callables, and ``min_neighbors > 1``
-- and pin the warning counts, the fallback targets, and the recorded
backend observability (``PipelineResult.backends``, model metadata,
``fit.backend.*`` gauges).
"""

import builtins
import sys
import warnings

import numpy as np
import pytest

import repro.native as native
from repro.core.goodness import naive_goodness
from repro.core.merge import resolve_merge_method
from repro.core.pipeline import RockPipeline
from repro.core.rock import rock
from repro.data.transactions import Transaction, TransactionDataset
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def reset_probe_cache():
    """Every test starts (and leaves) with a cold probe cache."""
    native._reset_for_tests()
    yield
    native._reset_for_tests()


@pytest.fixture
def no_backends(monkeypatch):
    """Disable every native tier, as on a machine with no toolchain."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    native._reset_for_tests()


@pytest.fixture
def no_numba(monkeypatch):
    """Make ``import numba`` fail even if the extra is installed."""
    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name == "numba" or name.startswith("numba."):
            raise ImportError("numba blocked by test")
        return real_import(name, *args, **kwargs)

    monkeypatch.delitem(sys.modules, "numba", raising=False)
    monkeypatch.delitem(sys.modules, "repro.native.numba_backend", raising=False)
    monkeypatch.setattr(builtins, "__import__", blocked)
    native._reset_for_tests()


def baskets(n_clusters: int = 3, per: int = 8, seed: int = 3):
    rng = np.random.default_rng(seed)
    txns = []
    for c in range(n_clusters):
        pool = np.arange(c * 12, c * 12 + 12)
        for _ in range(per):
            txns.append(Transaction(rng.choice(pool, 6, replace=False).tolist()))
    return TransactionDataset(txns)


class TestProbe:
    def test_numba_absent_probe_returns_none(self, no_numba):
        assert native.get_kernels("numba") is None
        # auto promotes exactly when some tier (here: the C extension,
        # if a compiler works) passed its probe
        assert native.auto_native() == native.native_available()
        assert native.auto_native() == (native.available_backend() == "cext")

    def test_auto_policy_is_probe_health(self, monkeypatch):
        """auto_native() == native_available() unless REPRO_NATIVE=0."""
        for value in (None, "1", "on", "yes"):
            if value is None:
                monkeypatch.delenv("REPRO_NATIVE", raising=False)
            else:
                monkeypatch.setenv("REPRO_NATIVE", value)
            native._reset_for_tests()
            assert native.auto_native() == native.native_available()
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native._reset_for_tests()
        assert not native.auto_native()

    def test_numba_absent_is_not_fatal(self, no_numba):
        """The full fit still runs (C tier or pure-Python fallback)."""
        data = baskets()
        result = rock(data, k=3, theta=0.5)
        assert len(result.clusters) >= 1

    def test_disabled_env_kills_every_tier(self, no_backends):
        assert native.get_kernels() is None
        assert native.available_backend() is None
        assert not native.native_available()
        assert not native.auto_native()
        assert native.backend_info() == {"backend": None, "disabled": True}

    def test_backend_env_restricts_probe(self, monkeypatch):
        cext = native.get_kernels("cext")
        if cext is None:
            pytest.skip("C tier unavailable")
        monkeypatch.setenv("REPRO_NATIVE_BACKEND", "cext")
        native._reset_for_tests()
        assert native.available_backend() == "cext"

    def test_unknown_backend_name_rejected(self, monkeypatch):
        # name validation happens past the opt-out check
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        with pytest.raises(ValueError, match="unknown native backend"):
            native.get_kernels("turbo")

    def test_broken_kernels_degrade_silently(self, monkeypatch):
        """A tier whose probe blows up is treated as absent."""
        # the probe only runs when native kernels are not opted out
        monkeypatch.delenv("REPRO_NATIVE", raising=False)

        def boom(name):
            raise RuntimeError("toolchain on fire")

        monkeypatch.setattr(native, "_probe", boom, raising=True)
        # get_kernels propagates nothing: _probe is wrapped per-tier, so
        # patching the whole probe simulates total breakage
        with pytest.raises(RuntimeError):
            native.get_kernels()
        # the real guard lives inside _probe: a backend loader that
        # raises is recorded as None
        monkeypatch.undo()
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        native._reset_for_tests()

        class BrokenLoader:
            @staticmethod
            def load_kernels():
                raise RuntimeError("jit exploded")

        monkeypatch.setitem(
            sys.modules, "repro.native.numba_backend", BrokenLoader
        )
        assert native.get_kernels("numba") is None


class TestForcedNativeFallsBack:
    def test_merge_custom_goodness_single_warning(self, recwarn):
        custom = lambda c, ni, nj, f: float(c)  # noqa: E731
        with pytest.warns(RuntimeWarning, match="custom goodness"):
            resolved = resolve_merge_method("native", custom)
        assert resolved == "heap"

    def test_merge_no_backend_single_warning(self, no_backends):
        with pytest.warns(RuntimeWarning, match="no native backend"):
            resolved = resolve_merge_method("native")
        assert resolved == "fast"

    def test_fit_no_backend_single_warning(self, no_backends):
        data = baskets()
        reference = rock(data, k=3, theta=0.5, fit_mode="fused")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = rock(data, k=3, theta=0.5, fit_mode="native")
        native_warnings = [
            w for w in caught if "fit_mode='native'" in str(w.message)
        ]
        assert len(native_warnings) == 1
        assert result.clusters == reference.clusters

    def test_fit_min_neighbors_single_warning(self, no_backends):
        data = baskets()
        pipeline = RockPipeline(
            k=3, theta=0.5, min_neighbors=2, fit_mode="native", seed=1
        )
        reference = RockPipeline(
            k=3, theta=0.5, min_neighbors=2, fit_mode="parallel", seed=1
        ).fit(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = pipeline.fit(data)
        native_warnings = [
            w for w in caught if "min_neighbors" in str(w.message)
        ]
        assert len(native_warnings) == 1
        assert result.clusters == reference.clusters
        assert np.array_equal(result.labels, reference.labels)

    def test_pipeline_forced_native_no_backend_never_raises(self, no_backends):
        data = baskets()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = RockPipeline(
                k=3, theta=0.5, fit_mode="native", merge_method="native", seed=1
            ).fit(data)
        assert result.backends["fit"] == "fused"
        assert result.backends["merge"] == "fast"


class TestAutoStaysSilent:
    def test_auto_without_opt_in_is_quiet(self, no_numba):
        """Plain checkout: auto modes never warn, and go native exactly
        when a tier (the C extension here) passed its probe."""
        data = baskets()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            result = RockPipeline(k=3, theta=0.5, seed=1).fit(data)
        tier = native.available_backend()
        if tier is None:
            assert result.backends == {"fit": "auto", "merge": "fast"}
        else:
            assert result.backends == {
                "fit": f"native:{tier}", "merge": f"native:{tier}",
            }

    def test_auto_disabled_env_is_quiet(self, no_backends):
        data = baskets()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = RockPipeline(k=3, theta=0.5, seed=1).fit(data)
        assert result.backends == {"fit": "auto", "merge": "fast"}


class TestObservability:
    def test_gauges_and_span_attrs_reference_path(self, no_backends):
        tracer = Tracer()
        data = baskets()
        RockPipeline(k=3, theta=0.5, seed=1).fit(data, tracer=tracer)
        gauges = tracer.registry.snapshot()["gauges"]
        assert gauges["fit.backend.native_fit"] == 0
        assert gauges["fit.backend.native_merge"] == 0
        root = next(s for s in tracer.spans() if s.name == "fit")
        assert root.attrs["fit_backend"] == "auto"
        assert root.attrs["merge_backend"] == "fast"

    def test_model_metadata_records_backends(self, no_backends):
        from repro.serve.model import model_from_result

        data = baskets()
        pipeline = RockPipeline(k=3, theta=0.5, seed=1)
        result = pipeline.fit(data)
        model = model_from_result(pipeline, result, points=data)
        assert model.metadata["backends"] == result.backends
        assert model.metadata["backends"]["merge"] == "fast"

    def test_naive_goodness_auto_merge(self, no_backends):
        """Built-in naive goodness still routes through fast under auto."""
        assert resolve_merge_method("auto", naive_goodness) == "fast"


class TestStreamRunnerRefit:
    def test_stream_clusterer_with_native_pipeline(self, no_backends):
        """A native-mode pipeline inside the stream runner degrades too."""
        from repro.stream.runner import StreamClusterer

        pipeline = RockPipeline(k=2, theta=0.5, fit_mode="native", seed=1)
        clusterer = StreamClusterer(
            pipeline, reservoir_size=24, warmup=12, seed=0
        )
        rng = np.random.default_rng(0)
        records = [
            Transaction(
                rng.choice(
                    np.arange(12) if rng.random() < 0.5 else np.arange(12, 24),
                    6,
                    replace=False,
                ).tolist()
            )
            for _ in range(30)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clusterer.process(records)
        assert clusterer.model is not None
        assert clusterer.model.metadata["backends"]["fit"] == "fused"
