"""Parallel fit path: speedup-vs-workers and peak RSS vs the blocked baseline.

Benches the neighbor+link kernel configurations against each other on
the same clustered-basket generator as ``bench_blocked_fit``:

* ``blocked`` -- the serial row-block graph kernel (dense matmul
  scorer) followed by the Figure 4 sparse link counter: the baseline,
  and the memory-bounded graph builder the graph consumers still use.
* ``fused:W`` -- ``fused_neighbor_links`` with W workers (CSR
  intersection scorer with integer prefilter, vectorised pair
  counting): one pass, neighbor graph never materialised.
* ``native:W`` -- ``native_neighbor_links`` with W workers: the fused
  pass with the block kernel and pair reduction run natively
  (:mod:`repro.native`).  Skipped when no backend probes; the one-time
  backend warmup (numba JIT / C compile + probe) is timed separately
  and excluded from the steady-state numbers.

On hosts exposing a single effective core the worker curve is flat and
the speedup over the baseline is carried by the scorer and the
vectorised link counter; the machine block in the saved results records
the core count so the numbers read honestly either way.

Each variant runs in a **fresh subprocess** (this file doubles as the
runner: ``python bench_parallel_fit.py --variant fused:4 --n-clusters
1260``) so ``ru_maxrss`` is a true per-variant high-water mark; worker
processes are folded in via ``RUSAGE_CHILDREN``.  The smoke test
(``make bench-smoke``, workers=2) also proves label-identity of the
fused and native fit modes with the dense reference end to end; the
slow test runs at n >= 30k and asserts the acceptance bar: >= 2.5x
speedup at 4 workers over the serial blocked kernel and fused peak RSS
<= the blocked path's.

All timings are wall-clock over the neighbor+link stage only -- the
merge loop is identical across variants.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
for path in (SRC, str(ROOT)):  # direct `-m` runner invocation
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.machine import machine_summary  # noqa: E402
from repro.core import RockPipeline  # noqa: E402

THETA = 0.5
WORKER_CURVE = (1, 2, 4)
SLOW_N_CLUSTERS = 1260  # x24 points/cluster = 30,240 points
SMOKE_N_CLUSTERS = 30


def peak_rss_bytes() -> int:
    """High-water RSS of this process plus its (pool) children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) * 1024


def run_variant(variant: str, n_clusters: int) -> dict:
    """Time one neighbor+link kernel configuration; meant for a fresh process."""
    from benchmarks.bench_blocked_fit import make_clustered_baskets
    from repro.core.links import compute_links
    from repro.core.neighbors import blocked_neighbor_graph
    from repro.parallel import fused_neighbor_links

    dataset = make_clustered_baskets(n_clusters)
    n = len(dataset)
    name, _, arg = variant.partition(":")
    workers = int(arg) if arg else 1
    backend = None
    warmup_s = 0.0

    start = time.perf_counter()
    if name == "blocked":
        graph = blocked_neighbor_graph(dataset, THETA)
        neighbors_s = time.perf_counter() - start
        links_start = time.perf_counter()
        links = compute_links(graph, method="sparse")
        links_s = time.perf_counter() - links_start
    elif name == "fused":
        fused = fused_neighbor_links(dataset, THETA, workers=workers)
        neighbors_s = time.perf_counter() - start
        links_s = 0.0
        links = fused.links
    elif name == "native":
        import repro.native as native_mod
        from repro.native.links import native_neighbor_links

        # one-time backend warmup (numba JIT / C compile + probe) is a
        # per-process cost, not a per-fit one: report it separately
        warm_start = time.perf_counter()
        backend = native_mod.available_backend()
        warmup_s = time.perf_counter() - warm_start
        if backend is None:
            raise SystemExit("no native backend available")
        start = time.perf_counter()
        fused = native_neighbor_links(dataset, THETA, workers=workers)
        neighbors_s = time.perf_counter() - start
        links_s = 0.0
        links = fused.links
    else:
        raise SystemExit(f"unknown variant {variant!r}")
    total = neighbors_s + links_s
    return {
        "variant": variant,
        "n": n,
        "seconds_neighbors": neighbors_s,
        "seconds_links": links_s,
        "seconds_total": total,
        "seconds_warmup": warmup_s,
        "backend": backend,
        "linked_pairs": links.nnz_pairs(),
        "peak_rss": peak_rss_bytes(),
    }


def measure_fresh(variant: str, n_clusters: int) -> dict:
    """Run one variant in a fresh interpreter so RSS peaks don't bleed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.bench_parallel_fit",
            "--variant", variant, "--n-clusters", str(n_clusters),
        ],
        capture_output=True, text=True, env=env, check=True,
        cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def format_curve(rows: list[dict], baseline: dict) -> list[str]:
    lines = [
        f"{'variant':<12} {'neighbors_s':>11} {'links_s':>8} "
        f"{'total_s':>8} {'speedup':>8} {'peak_rss_mb':>12}",
    ]
    for row in rows:
        speedup = baseline["seconds_total"] / max(row["seconds_total"], 1e-9)
        lines.append(
            f"{row['variant']:<12} {row['seconds_neighbors']:>11.2f} "
            f"{row['seconds_links']:>8.2f} {row['seconds_total']:>8.2f} "
            f"{speedup:>7.2f}x {row['peak_rss'] / 1024**2:>12.1f}"
        )
    return lines


def _run_suite(
    n_clusters: int, tracer=None
) -> tuple[dict, list[dict]]:
    import repro.native as native_mod

    variants = ["blocked"] + [f"fused:{w}" for w in WORKER_CURVE]
    if native_mod.available_backend() is not None:
        variants += [f"native:{w}" for w in WORKER_CURVE]
    rows = [measure_traced(v, n_clusters, tracer) for v in variants]
    return rows[0], rows


def measure_traced(variant: str, n_clusters: int, tracer=None) -> dict:
    """``measure_fresh`` under a span, with the row mirrored as gauges."""
    if tracer is None:
        return measure_fresh(variant, n_clusters)
    with tracer.span(variant, n_clusters=n_clusters):
        row = measure_fresh(variant, n_clusters)
    for key in ("seconds_neighbors", "seconds_links", "seconds_total"):
        tracer.registry.set_gauge(f"bench.{variant}.{key}", row[key])
    tracer.registry.set_gauge(f"bench.{variant}.peak_rss", row["peak_rss"])
    return row


def test_parallel_fit_smoke(benchmark, save_result, save_manifest):
    """Small-n: fused/native label-identical to dense; record workers=2."""
    from repro.obs import RunManifest, Tracer

    n_clusters = SMOKE_N_CLUSTERS
    from benchmarks.bench_blocked_fit import make_clustered_baskets

    import repro.native as native_mod

    dataset = make_clustered_baskets(n_clusters)
    base = RockPipeline(
        k=n_clusters, theta=THETA, sample_size=None, seed=0,
        fit_mode="dense",
    ).fit(dataset, label_remaining=False)
    modes = ["fused"]
    if native_mod.available_backend() is not None:
        modes.append("native")
    results = {}
    for mode in modes:
        results[mode] = RockPipeline(
            k=n_clusters, theta=THETA, sample_size=None, seed=0,
            fit_mode=mode, workers=2,
        ).fit(dataset, label_remaining=False)
        assert np.array_equal(results[mode].labels, base.labels), mode
        assert results[mode].clusters == base.clusters, mode

    tracer = Tracer()
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "rows",
            [measure_traced("blocked", n_clusters, tracer)]
            + [
                measure_traced(f"{v}:2", n_clusters, tracer)
                for v in modes
            ],
        ),
        rounds=1,
        iterations=1,
    )
    rows = holder["rows"]
    save_result(
        "parallel_fit_smoke",
        "\n".join([
            "Parallel fit smoke: fused/native label-identical to dense "
            "(workers=2)",
            f"n={len(dataset)}  theta={THETA}",
            "",
            *format_curve(rows, rows[0]),
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "parallel_fit_smoke",
        RunManifest.from_tracer(
            "bench_parallel_fit_smoke", tracer,
            config={"n": len(dataset), "theta": THETA, "workers": 2},
        ),
    )


@pytest.mark.slow
def test_parallel_fit_scale(benchmark, save_result, save_manifest):
    """n >= 30k: the acceptance bar for the parallel fit path.

    >= 2.5x total speedup at 4 workers over the serial blocked graph
    kernel, and fused peak RSS no higher than the blocked path's.
    """
    from repro.obs import RunManifest, Tracer

    tracer = Tracer()
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault("suite", _run_suite(SLOW_N_CLUSTERS, tracer)),
        rounds=1,
        iterations=1,
    )
    baseline, rows = holder["suite"]
    n = baseline["n"]
    assert n >= 30_000
    by_variant = {row["variant"]: row for row in rows}

    # every variant counted the same linked pairs -- same graph, same links
    assert len({row["linked_pairs"] for row in rows}) == 1

    fused_speedup4 = (
        baseline["seconds_total"] / by_variant["fused:4"]["seconds_total"]
    )
    assert fused_speedup4 >= 2.5, (
        f"fused:4 speedup {fused_speedup4:.2f}x below the 2.5x bar "
        f"({baseline['seconds_total']:.1f}s -> "
        f"{by_variant['fused:4']['seconds_total']:.1f}s)"
    )
    assert by_variant["fused:4"]["peak_rss"] <= baseline["peak_rss"], (
        "fused peak RSS exceeds the blocked baseline"
    )

    native_lines = []
    if "native:1" in by_variant:
        # workers-matched single-core comparison: same schedule, same
        # pool (none), only the kernels differ.  The full curve is in
        # the table above.
        native_speedup = (
            by_variant["fused:1"]["seconds_total"]
            / max(by_variant["native:1"]["seconds_total"], 1e-9)
        )
        # hard floor kept below the steady-state target to absorb
        # machine noise; the measured multiple is recorded either way
        assert native_speedup >= 3.0, (
            f"native fit {native_speedup:.2f}x over fused at n={n}, "
            "need >= 3x"
        )
        backend = by_variant["native:1"]["backend"]
        warmup = by_variant["native:1"]["seconds_warmup"]
        native_lines = [
            f"native:1 vs fused:1: {native_speedup:.2f}x "
            "(floor: >= 3x, steady-state target: >= 5x)",
            f"native backend {backend}, one-time warmup "
            f"{warmup:.2f}s per process (excluded from timings above)",
        ]

    save_result(
        "parallel_fit",
        "\n".join([
            "Parallel fit at n >= 30k: speedup-vs-workers and peak RSS",
            "",
            f"points     {n}  ({SLOW_N_CLUSTERS} clusters x 24, theta {THETA})",
            "baseline   serial blocked graph kernel, fresh process",
            "",
            *format_curve(rows, baseline),
            "",
            f"fused:4 speedup {fused_speedup4:.2f}x (bar: >= 2.5x)",
            "fused peak RSS <= blocked baseline: "
            f"{by_variant['fused:4']['peak_rss'] / 1024**2:.1f} MB vs "
            f"{baseline['peak_rss'] / 1024**2:.1f} MB",
            *native_lines,
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "parallel_fit",
        RunManifest.from_tracer(
            "bench_parallel_fit_scale", tracer,
            config={
                "n": n,
                "n_clusters": SLOW_N_CLUSTERS,
                "theta": THETA,
                "worker_curve": list(WORKER_CURVE),
            },
        ),
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", required=True)
    parser.add_argument("--n-clusters", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(run_variant(args.variant, args.n_clusters)))
