PYTHON ?= python
PYTHONPATH := src

.PHONY: test test-fast lint examples-smoke bench bench-smoke bench-assign bench-serve bench-serve-http bench-stream bench-shard clean-spill example-fast-assign example-serve example-serve-http example-shard example-stream

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/ -q

test-fast:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/ -q -m "not slow"

lint:
	ruff check src tests benchmarks examples

# run the fit and assignment examples end to end (lint alone would not
# catch an example calling a fit mode, assign tier or option that no
# longer exists); choose_k builds its link table through compute_links,
# so the LinkTable API runs here too (merge_engine.py stays out: ~30 s)
examples-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/quickstart.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/parallel_fit.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/trace_fit.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/shard_fit.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/choose_k.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/fast_assign.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/serve_assign.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/stream_cluster.py

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# tiny-n proofs that the over-budget (fused) and workers=2 fused and
# native fit paths work and equal the dense path, that the fast merge
# engine matches the reference loop byte for byte, that a traced fit
# leaves a complete RunManifest, that the HTTP server answers +
# coalesces under concurrent load, that stream mode's warmup -> drift refit
# -> republish chain runs end to end, that the sharded out-of-core
# fit is merge-identical to fused, and that the pruned/native assign
# tiers equal the dense LabelingIndex oracle -- fast enough for CI
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_blocked_fit.py benchmarks/bench_parallel_fit.py \
		benchmarks/bench_merge_phase.py benchmarks/bench_trace_fit.py \
		benchmarks/bench_serve_http.py benchmarks/bench_stream.py \
		benchmarks/bench_shard_fit.py benchmarks/bench_serve_throughput.py \
		-k smoke --benchmark-disable -s

# the assignment-tier comparison: inverted-index pruning and the native
# fused kernel against the dense LabelingIndex oracle across a
# (clusters x vocab) grid, engine-level and over HTTP
bench-assign:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_serve_throughput.py::test_assign_tiers \
		benchmarks/bench_serve_http.py::test_serve_http_assign_backends \
		--benchmark-disable -s

# the full sharded-fit bench: 30k overhead/RSS comparison plus the
# 120k RLIMIT_AS reach demonstration (slow; a few minutes)
bench-shard:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_shard_fit.py::test_shard_fit_scale \
		--benchmark-disable -s -m slow

# sharded fits spill per-unit npz checkpoints under a run directory;
# interrupted runs left behind with --spill-dir land here by default
clean-spill:
	rm -rf .rock-spill bench-shard-* /tmp/bench-shard-* 2>/dev/null || true

bench-serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_serve_throughput.py --benchmark-disable -s

# the full load comparison: coalescing vs batch_max=1 at several
# concurrency levels (not CI -- throughput assertions want quiet iron)
bench-serve-http:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_serve_http.py::test_serve_http_load \
		--benchmark-disable -s

# the full stream bench: label throughput + refit/republish latency,
# resume vs scratch on the identical shifted stream (not CI)
bench-stream:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_stream.py::test_stream_load \
		--benchmark-disable -s

example-stream:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/stream_cluster.py

example-fast-assign:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/fast_assign.py

example-serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/serve_assign.py

example-serve-http:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/serve_http.py

example-shard:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/shard_fit.py
