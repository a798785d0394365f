"""Command-line interface for the ROCK reproduction.

The subcommands cover the end-to-end workflow from the paper:

* ``generate`` -- write one of the synthetic data sets (the Section 5.3
  market-basket generator or a real-data replica) to disk, with its
  ground-truth labels alongside;
* ``cluster`` -- run the ROCK pipeline over a transactions or UCI
  ``.data`` file and write per-record cluster labels;
* ``evaluate`` -- score a predicted labeling against ground truth;
* ``fit-model`` / ``assign`` -- the fit-once / serve-many split of
  Section 4.6: fit on a (sampled) file and persist a JSON
  :class:`~repro.serve.RockModel`, then label any other file against
  the saved model without re-clustering;
* ``serve`` -- stand the saved model up as a long-running HTTP
  service (batched ``/assign``, hot reload on artifact change,
  Prometheus ``/metrics``);
* ``stream`` -- incremental clustering over an unbounded stream: an
  online reservoir feeds periodic refits (interval- or
  drift-triggered), each refit atomically republishes the artifact a
  running ``serve`` hot-swaps.  SIGINT/SIGTERM drain gracefully.

Examples::

    python -m repro generate basket --scale small --out txns.txt
    python -m repro cluster --input txns.txt --theta 0.5 -k 4 \\
        --sample 500 --output labels.txt
    python -m repro evaluate --predicted labels.txt --truth txns.txt.labels
    python -m repro fit-model --input txns.txt --theta 0.5 -k 4 \\
        --sample 500 --model model.json
    python -m repro assign --model model.json --input heldout.txt \\
        --output labels.txt --workers 4 --show-metrics

All randomness is seedable; identical invocations reproduce identical
outputs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any

from repro.core.assign import ASSIGN_BACKENDS
from repro.core.pipeline import RockPipeline
from repro.core.plan import FIT_MODES
from repro.core.similarity import MissingAwareJaccard
from repro.data.io import read_transactions, read_uci_data, write_transactions, write_uci_data
from repro.eval.metrics import (
    adjusted_rand_index,
    misclassified_count,
    normalized_mutual_information,
    purity,
)
from repro.eval.reporting import format_table


def _add_fit_memory_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--memory-budget-mb", type=int, default=None,
        help="dense-intermediate budget in MiB: past it, auto without a "
        "native tier runs the fused pass instead of the dense path "
        "(default 1024)",
    )
    sub.add_argument(
        "--fit-mode",
        choices=list(FIT_MODES),
        default="auto",
        help="coarse fit-path switch; 'auto' runs the native fused pass "
        "whenever a repro.native tier passes its probe and the input is "
        "native-supported (REPRO_NATIVE=0 opts out), else the dense path "
        "within the memory budget and the fused pass beyond it; 'dense' "
        "pins the reference path, 'fused' folds link counting into the "
        "neighbor pass with row blocks fanned out across --workers "
        "processes (lowest peak memory), 'native' runs the fused pass "
        "with repro.native kernels (falls back to fused with a warning "
        "when unavailable), 'sharded' runs the out-of-core coordinator/"
        "worker fit over a memory-mapped store (crash-safe, resumable); "
        "all modes produce identical clusters",
    )
    sub.add_argument(
        "--shard-block-rows", type=int, default=None,
        help="rows per sharded scoring unit (fit_mode=sharded; default "
        "derives from the memory budget)",
    )
    sub.add_argument(
        "--spill-dir", type=Path, default=None,
        help="sharded-fit run directory; reusing the same path resumes "
        "an interrupted fit (default: a private temp dir, removed "
        "after the fit)",
    )
    sub.add_argument(
        "--max-retries", type=int, default=2,
        help="pool rebuilds tolerated after shard worker crashes before "
        "degrading to in-coordinator execution",
    )
    sub.add_argument(
        "--merge-method",
        choices=["auto", "heap", "fast", "native"],
        default="auto",
        help="merge-loop engine; 'heap' is the Figure 3 reference "
        "loop, 'fast' the component-partitioned engine, 'native' that "
        "engine with repro.native component kernels, 'auto' picks "
        "native when a tier passes its probe (else fast) for the "
        "built-in goodness measures and heap for custom ones; all engines "
        "produce byte-identical clusters and merge history",
    )
    sub.add_argument(
        "--workers", default=None,
        help="process count for the parallel/fused kernels: an int, "
        "'auto' (CPU count, capped at 8), or omitted for serial",
    )


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace-out", type=Path, default=None,
        help="write a RunManifest JSON (span tree + metrics snapshot + "
        "host metadata + config) to this path",
    )
    sub.add_argument(
        "--metrics-format", choices=["json", "prom"], default=None,
        help="also print the run's metrics to stdout, as JSON lines or "
        "Prometheus text exposition",
    )


def _emit_observability(
    args: argparse.Namespace,
    name: str,
    tracer: Any,
    config: dict[str, Any],
) -> None:
    """Honour ``--trace-out`` / ``--metrics-format`` for a traced command."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        from repro.obs import RunManifest

        RunManifest.from_tracer(name, tracer, config=config).save(trace_out)
        print(f"trace manifest written to {trace_out}")
    metrics_format = getattr(args, "metrics_format", None)
    if metrics_format is not None:
        from repro.obs import metrics_to_jsonl, metrics_to_prometheus

        snap = tracer.registry.snapshot()
        rendered = (
            metrics_to_jsonl(snap)
            if metrics_format == "json"
            else metrics_to_prometheus(snap)
        )
        print(rendered, end="")


def _format_phase_timings(timings: dict[str, float]) -> str:
    return "  ".join(
        f"{phase}:{seconds:.2f}" for phase, seconds in timings.items()
    )


def _memory_budget_bytes(args: argparse.Namespace) -> int | None:
    if getattr(args, "memory_budget_mb", None) is None:
        return None
    if args.memory_budget_mb < 1:
        raise SystemExit("--memory-budget-mb must be positive")
    return args.memory_budget_mb << 20


def _fit_workers(args: argparse.Namespace) -> int | str | None:
    workers = getattr(args, "workers", None)
    if workers is None or workers == "auto":
        return workers
    try:
        count = int(workers)
    except ValueError:
        raise SystemExit(
            f"--workers must be a positive int or 'auto', got {workers!r}"
        ) from None
    if count < 1:
        raise SystemExit("--workers must be positive")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ROCK (Guha, Rastogi, Shim; ICDE 1999) -- reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic data set to disk")
    gen.add_argument(
        "dataset", choices=["basket", "votes", "mushroom", "funds"],
        help="which data set to generate",
    )
    gen.add_argument("--out", required=True, type=Path, help="output file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--scale", choices=["small", "full"], default="small",
        help="small = laptop-scale instance; full = the paper's sizes",
    )

    gen_data = sub.add_parser(
        "gen-data",
        help="stream a synthetic basket transactions file of arbitrary "
        "size to disk (chunked writer; never holds the rows in memory)",
    )
    gen_data.add_argument("--out", required=True, type=Path, help="output file")
    gen_data.add_argument(
        "-n", "--rows", dest="rows", type=int, required=True,
        help="number of transactions to write",
    )
    gen_data.add_argument(
        "--clusters", type=int, default=None,
        help="generating cluster count (default: rows // 1000, min 2)",
    )
    gen_data.add_argument("--items-per-cluster", type=int, default=20)
    gen_data.add_argument("--outlier-fraction", type=float, default=0.05)
    gen_data.add_argument(
        "--chunk-rows", type=int, default=8192,
        help="rows buffered per write",
    )
    gen_data.add_argument("--seed", type=int, default=0)
    gen_data.add_argument(
        "--labels", type=Path, default=None,
        help="also stream ground-truth labels here (one per line, -1 "
        "for outliers)",
    )

    cluster = sub.add_parser("cluster", help="cluster a data file with ROCK")
    cluster.add_argument("--input", required=True, type=Path)
    cluster.add_argument(
        "--format", choices=["transactions", "uci"], default="transactions",
        dest="input_format",
    )
    cluster.add_argument("--theta", type=float, required=True)
    cluster.add_argument("-k", type=int, required=True, help="cluster-count hint")
    cluster.add_argument("--sample", type=int, default=None, help="random sample size")
    cluster.add_argument("--min-cluster-size", type=int, default=None)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--missing-aware", action="store_true",
        help="use the per-pair missing-value similarity (UCI input only)",
    )
    cluster.add_argument(
        "--output", type=Path, default=None,
        help="write per-record cluster labels here (default: stdout summary only)",
    )
    _add_fit_memory_args(cluster)
    _add_obs_args(cluster)

    ev = sub.add_parser("evaluate", help="score predicted labels against truth")
    ev.add_argument("--predicted", required=True, type=Path)
    ev.add_argument("--truth", required=True, type=Path)

    tune = sub.add_parser(
        "suggest-theta", help="suggest a neighbor threshold from the data"
    )
    tune.add_argument("--input", required=True, type=Path)
    tune.add_argument(
        "--format", choices=["transactions", "uci"], default="transactions",
        dest="input_format",
    )
    tune.add_argument("--max-pairs", type=int, default=2000)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--missing-aware", action="store_true")

    rep = sub.add_parser(
        "report", help="cluster a UCI file and write a markdown report"
    )
    rep.add_argument("--input", required=True, type=Path)
    rep.add_argument("--theta", type=float, required=True)
    rep.add_argument("-k", type=int, required=True)
    rep.add_argument("--min-cluster-size", type=int, default=None)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--output", required=True, type=Path)
    rep.add_argument("--title", default="ROCK clustering report")

    fit = sub.add_parser(
        "fit-model",
        help="cluster a file and persist a servable JSON RockModel",
    )
    fit.add_argument("--input", required=True, type=Path)
    fit.add_argument(
        "--format", choices=["transactions", "uci"], default="transactions",
        dest="input_format",
    )
    fit.add_argument("--theta", type=float, required=True)
    fit.add_argument("-k", type=int, required=True, help="cluster-count hint")
    fit.add_argument("--sample", type=int, default=None, help="random sample size")
    fit.add_argument("--min-cluster-size", type=int, default=None)
    fit.add_argument("--labeling-fraction", type=float, default=0.25)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--missing-aware", action="store_true")
    fit.add_argument("--model", required=True, type=Path, help="model output path")
    fit.add_argument(
        "--labels", type=Path, default=None,
        help="also write the fit run's per-record labels here",
    )
    _add_fit_memory_args(fit)
    _add_obs_args(fit)

    assign = sub.add_parser(
        "assign", help="label a data file against a saved RockModel"
    )
    assign.add_argument("--model", required=True, type=Path)
    assign.add_argument("--input", required=True, type=Path)
    assign.add_argument(
        "--format", choices=["transactions", "uci"], default="transactions",
        dest="input_format",
    )
    assign.add_argument(
        "--output", type=Path, default=None,
        help="write per-record labels here (default: stdout summary only)",
    )
    assign.add_argument("--workers", type=int, default=1)
    assign.add_argument("--chunk-size", type=int, default=2048)
    assign.add_argument(
        "--assign-backend",
        choices=ASSIGN_BACKENDS, default="auto",
        help="scoring tier: inverted-index pruning or the native fused "
        "kernel (auto probes native, falls back to pruned)",
    )
    assign.add_argument(
        "--show-metrics", action="store_true",
        help="print the serving metrics snapshot after assignment",
    )
    _add_obs_args(assign)

    serve = sub.add_parser(
        "serve",
        help="serve a saved RockModel over HTTP (batched /assign, hot "
        "reload, Prometheus /metrics)",
    )
    serve.add_argument("--model", required=True, type=Path)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="TCP port; 0 picks an ephemeral port (printed on start)",
    )
    serve.add_argument(
        "--batch-max", type=int, default=64,
        help="flush coalesced /assign requests at this batch size",
    )
    serve.add_argument(
        "--batch-wait-us", type=int, default=2000,
        help="flush once the oldest queued point is this old (microseconds)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=1024,
        help="pending-point bound before requests are shed with 503",
    )
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument(
        "--assign-backend",
        choices=ASSIGN_BACKENDS, default="auto",
        help="scoring tier for each model generation's engine (see "
        "assign --assign-backend)",
    )
    serve.add_argument(
        "--poll-seconds", type=float, default=1.0,
        help="how often to poll the model artifact for hot reload",
    )
    serve.add_argument(
        "--shutdown-after", type=float, default=None,
        help="gracefully stop after this many seconds (smoke tests / demos)",
    )
    _add_obs_args(serve)

    stream = sub.add_parser(
        "stream",
        help="incrementally cluster an unbounded transactions stream "
        "(online reservoir, drift-triggered refits, atomic republish)",
    )
    stream.add_argument(
        "--input", required=True,
        help="transactions file, or '-' to consume stdin",
    )
    stream.add_argument("--theta", type=float, required=True)
    stream.add_argument("-k", type=int, required=True, help="cluster-count hint")
    stream.add_argument(
        "--reservoir", type=int, default=500,
        help="online reservoir capacity (the Section 4.6 sample size)",
    )
    stream.add_argument(
        "--warmup", type=int, default=None,
        help="arrivals before the first fit (default: reservoir capacity)",
    )
    stream.add_argument(
        "--refit-every", type=int, default=None,
        help="refit after this many arrivals since the last fit "
        "(omit to refit only on drift / drain)",
    )
    stream.add_argument(
        "--refit-mode", choices=["resume", "scratch"], default="resume",
        help="'resume' restarts each merge loop from the partition the "
        "current model induces on the reservoir; 'scratch' refits from "
        "singletons",
    )
    stream.add_argument(
        "--drift-window", type=int, default=512,
        help="assignments in the drift detector's sliding window",
    )
    stream.add_argument(
        "--max-outlier-rate", type=float, default=None,
        help="refit when the windowed outlier rate exceeds this",
    )
    stream.add_argument(
        "--min-mean-score", type=float, default=None,
        help="refit when the windowed mean assignment score drops below this",
    )
    stream.add_argument(
        "--batch-size", type=int, default=256,
        help="arrivals labeled per vectorised batch",
    )
    stream.add_argument(
        "--max-records", type=int, default=None,
        help="stop after this many arrivals (smoke tests / demos)",
    )
    stream.add_argument(
        "--publish-to", type=Path, default=None,
        help="atomically republish each refit model artifact here "
        "(a serving ModelWatcher hot-swaps it)",
    )
    stream.add_argument("--min-cluster-size", type=int, default=None)
    stream.add_argument("--seed", type=int, default=0)
    _add_fit_memory_args(stream)
    _add_obs_args(stream)
    return parser


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _write_labels(path: Path, labels: list[Any]) -> None:
    path.write_text("\n".join(str(l) for l in labels) + "\n", encoding="utf-8")


def cmd_generate(args: argparse.Namespace) -> int:
    labels_path = Path(str(args.out) + ".labels")
    if args.dataset == "basket":
        from repro.datasets import generate_synthetic_basket, small_synthetic_basket

        if args.scale == "full":
            basket = generate_synthetic_basket(seed=args.seed)
        else:
            basket = small_synthetic_basket(seed=args.seed)
        write_transactions(basket.transactions, args.out)
        _write_labels(labels_path, basket.labels)
        n = len(basket.transactions)
    elif args.dataset == "votes":
        from repro.datasets import generate_votes

        votes = generate_votes(seed=args.seed)
        write_uci_data(votes, args.out)
        _write_labels(labels_path, votes.labels())
        n = len(votes)
    elif args.dataset == "mushroom":
        from repro.datasets import generate_mushroom, small_mushroom

        data = generate_mushroom(seed=args.seed) if args.scale == "full" else small_mushroom(seed=args.seed)
        write_uci_data(data.dataset, args.out)
        _write_labels(labels_path, data.class_labels)
        n = len(data.dataset)
    else:  # funds
        from repro.datasets import TABLE4_GROUPS, generate_mutual_funds

        if args.scale == "full":
            data = generate_mutual_funds(seed=args.seed)
        else:
            data = generate_mutual_funds(
                groups=TABLE4_GROUPS[:6], n_pairs=3, n_outliers=20,
                n_days=150, seed=args.seed,
            )
        write_uci_data(data.dataset, args.out)
        _write_labels(labels_path, data.group_labels)
        n = len(data.dataset)
    print(f"wrote {n} records to {args.out} (labels: {labels_path})")
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    from repro.datasets import write_basket_file

    summary = write_basket_file(
        args.out,
        args.rows,
        n_clusters=args.clusters,
        items_per_cluster=args.items_per_cluster,
        outlier_fraction=args.outlier_fraction,
        chunk_rows=args.chunk_rows,
        seed=args.seed,
        labels_path=args.labels,
    )
    print(
        f"wrote {summary['rows']} transactions to {args.out} "
        f"({summary['clusters']} clusters, {summary['outliers']} outliers, "
        f"{summary['items']} distinct items)"
    )
    if args.labels is not None:
        print(f"labels written to {args.labels}")
    return 0


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

def _load_points(args: argparse.Namespace):
    if args.input_format == "transactions":
        if args.missing_aware:
            raise SystemExit("--missing-aware applies to UCI input only")
        return read_transactions(args.input)
    with open(args.input, encoding="utf-8") as handle:
        first = handle.readline()
    n_columns = len(first.strip().split(","))
    attributes = [f"col{i}" for i in range(n_columns - 1)]
    return read_uci_data(args.input, attributes)


def cmd_cluster(args: argparse.Namespace) -> int:
    points = _load_points(args)
    if len(points) == 0:
        raise SystemExit(f"no records in {args.input}")
    similarity = MissingAwareJaccard() if args.missing_aware else None
    pipeline = RockPipeline(
        k=args.k,
        theta=args.theta,
        similarity=similarity,
        sample_size=args.sample,
        min_cluster_size=args.min_cluster_size,
        memory_budget=_memory_budget_bytes(args),
        fit_mode=args.fit_mode,
        merge_method=args.merge_method,
        workers=_fit_workers(args),
        shard_block_rows=args.shard_block_rows,
        spill_dir=args.spill_dir,
        max_retries=args.max_retries,
        seed=args.seed,
    )
    from repro.obs import Tracer

    tracer = Tracer()
    result = pipeline.fit(points, tracer=tracer)

    sizes = result.cluster_sizes()
    rows = [
        ["records", len(points)],
        ["clusters", result.n_clusters],
        ["cluster sizes", " ".join(map(str, sizes))],
        ["outliers / unassigned", int((result.labels == -1).sum())],
        ["wall-clock (s)", f"{sum(result.timings.values()):.2f}"],
        ["phase seconds", _format_phase_timings(result.timings)],
    ]
    print(format_table(["measure", "value"], rows, title="ROCK clustering"))
    if args.output is not None:
        _write_labels(args.output, result.labels.tolist())
        print(f"labels written to {args.output}")
    _emit_observability(
        args, "cluster", tracer,
        config={
            "input": str(args.input),
            "k": args.k,
            "theta": args.theta,
            "sample": args.sample,
            "fit_mode": args.fit_mode,
            "merge_method": args.merge_method,
            "workers": getattr(args, "workers", None),
            "seed": args.seed,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _read_labels(path: Path) -> list[str]:
    return [
        line.strip()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def cmd_evaluate(args: argparse.Namespace) -> int:
    predicted = _read_labels(args.predicted)
    truth = _read_labels(args.truth)
    if len(predicted) != len(truth):
        raise SystemExit(
            f"label files differ in length: {len(predicted)} vs {len(truth)}"
        )
    clusters: dict[str, list[int]] = {}
    for i, label in enumerate(predicted):
        if label != "-1":
            clusters.setdefault(label, []).append(i)
    cluster_lists = list(clusters.values())
    rows = [
        ["records", len(truth)],
        ["clusters (predicted)", len(cluster_lists)],
        ["purity", purity(cluster_lists, truth) if cluster_lists else 0.0],
        ["misclassified", misclassified_count(truth, predicted)],
        ["adjusted Rand index", adjusted_rand_index(truth, predicted)],
        ["NMI", normalized_mutual_information(truth, predicted)],
    ]
    print(format_table(["metric", "value"], rows, title="Evaluation"))
    return 0


def cmd_suggest_theta(args: argparse.Namespace) -> int:
    from repro.core.tuning import suggest_theta

    points = _load_points(args)
    if len(points) < 2:
        raise SystemExit("need at least two records to profile similarities")
    similarity = MissingAwareJaccard() if args.missing_aware else None
    suggestion = suggest_theta(
        points, similarity=similarity, max_pairs=args.max_pairs, rng=args.seed
    )
    rows = [
        ["suggested theta", f"{suggestion.theta:.3f}"],
        ["similarity gap", f"{suggestion.gap[0]:.3f} .. {suggestion.gap[1]:.3f}"],
        ["gap width", f"{suggestion.gap_width:.3f}"],
        ["pairs sampled", len(suggestion.profile)],
        ["median pairwise similarity",
         f"{float(suggestion.profile[len(suggestion.profile) // 2]):.3f}"],
    ]
    print(format_table(["measure", "value"], rows, title="theta suggestion"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import clustering_report

    args.input_format = "uci"
    args.missing_aware = False
    dataset = _load_points(args)
    if len(dataset) == 0:
        raise SystemExit(f"no records in {args.input}")
    pipeline = RockPipeline(
        k=args.k,
        theta=args.theta,
        min_cluster_size=args.min_cluster_size,
        seed=args.seed,
    )
    result = pipeline.fit(dataset)
    truth = dataset.labels()
    report = clustering_report(
        result,
        truth=truth if any(t is not None for t in truth) else None,
        dataset=dataset,
        title=args.title,
        parameters={
            "theta": args.theta,
            "k": args.k,
            "min_cluster_size": args.min_cluster_size,
            "seed": args.seed,
        },
    )
    args.output.write_text(report, encoding="utf-8")
    print(f"report written to {args.output} "
          f"({result.n_clusters} clusters over {len(dataset)} records)")
    return 0


# ---------------------------------------------------------------------------
# fit-model / assign (the repro.serve loop)
# ---------------------------------------------------------------------------

def cmd_fit_model(args: argparse.Namespace) -> int:
    points = _load_points(args)
    if len(points) == 0:
        raise SystemExit(f"no records in {args.input}")
    similarity = MissingAwareJaccard() if args.missing_aware else None
    pipeline = RockPipeline(
        k=args.k,
        theta=args.theta,
        similarity=similarity,
        sample_size=args.sample,
        min_cluster_size=args.min_cluster_size,
        labeling_fraction=args.labeling_fraction,
        memory_budget=_memory_budget_bytes(args),
        fit_mode=args.fit_mode,
        merge_method=args.merge_method,
        workers=_fit_workers(args),
        shard_block_rows=args.shard_block_rows,
        spill_dir=args.spill_dir,
        max_retries=args.max_retries,
        seed=args.seed,
    )
    from repro.obs import Tracer

    tracer = Tracer()
    result, model = pipeline.fit_model(points, tracer=tracer)
    model.save(args.model)
    # render the per-phase timings off the *persisted* model metadata:
    # this is the wiring that used to be dropped on the floor
    fit_timings = model.metadata.get("fit_timings", {})
    rows = [
        ["records", len(points)],
        ["clusters", result.n_clusters],
        ["cluster sizes", " ".join(map(str, result.cluster_sizes()))],
        ["|L_i| sizes", " ".join(str(len(li)) for li in model.labeling_sets)],
        ["outliers / unassigned", int((result.labels == -1).sum())],
        ["wall-clock (s)", f"{sum(result.timings.values()):.2f}"],
        ["phase seconds", _format_phase_timings(fit_timings)],
        ["model", args.model],
    ]
    print(format_table(["measure", "value"], rows, title="ROCK fit-model"))
    if args.labels is not None:
        _write_labels(args.labels, result.labels.tolist())
        print(f"labels written to {args.labels}")
    _emit_observability(
        args, "fit-model", tracer,
        config={
            "input": str(args.input),
            "k": args.k,
            "theta": args.theta,
            "sample": args.sample,
            "labeling_fraction": args.labeling_fraction,
            "fit_mode": args.fit_mode,
            "merge_method": args.merge_method,
            "workers": getattr(args, "workers", None),
            "seed": args.seed,
            "model": str(args.model),
        },
    )
    return 0


def cmd_assign(args: argparse.Namespace) -> int:
    from repro.obs import Tracer
    from repro.serve import ClusteringService, ServeMetrics

    # the service records into the tracer's registry, so serving
    # counters and the assign span land in the same manifest
    tracer = Tracer()
    metrics = ServeMetrics(registry=tracer.registry)
    service = ClusteringService.from_file(
        args.model, metrics=metrics, assign_backend=args.assign_backend
    )
    start = time.perf_counter()
    with tracer.span(
        "assign", input=str(args.input), workers=args.workers
    ):
        labels = service.assign_file(
            args.input,
            output=args.output,
            input_format=args.input_format,
            workers=args.workers,
            chunk_size=args.chunk_size,
        )
    elapsed = time.perf_counter() - start
    n = len(labels)
    rows = [
        ["records", n],
        ["clusters in model", service.n_clusters],
        ["outliers / unassigned", int((labels == -1).sum())],
        ["assign backend", service.engine.assign_backend],
        ["workers", args.workers],
        ["wall-clock (s)", f"{elapsed:.2f}"],
        ["throughput (points/s)", f"{n / elapsed:,.0f}" if elapsed > 0 else "inf"],
    ]
    print(format_table(["measure", "value"], rows, title="ROCK assign"))
    if args.output is not None:
        print(f"labels written to {args.output}")
    if args.show_metrics:
        print()
        print(service.metrics.render())
    _emit_observability(
        args, "assign", tracer,
        config={
            "model": str(args.model),
            "input": str(args.input),
            "workers": args.workers,
            "chunk_size": args.chunk_size,
            "assign_backend": service.engine.assign_backend,
        },
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.obs import Tracer
    from repro.serve.http import RockHttpServer

    if not args.model.is_file():
        raise SystemExit(f"model artifact not found: {args.model}")
    tracer = Tracer()
    server = RockHttpServer(
        args.model,
        host=args.host,
        port=args.port,
        batch_max=args.batch_max,
        batch_wait_us=args.batch_wait_us,
        queue_depth=args.queue_depth,
        cache_size=args.cache_size,
        assign_backend=args.assign_backend,
        poll_seconds=args.poll_seconds,
        tracer=tracer,
    )

    async def _main() -> None:
        await server.start()
        host, port = server.address
        served = server.watcher.current
        print(
            f"serving {args.model} (version {served.version}, "
            f"{served.model.n_clusters} clusters) on http://{host}:{port}",
            flush=True,
        )
        print(
            f"batching: max {args.batch_max} points / "
            f"{args.batch_wait_us} us wait; queue depth {args.queue_depth}; "
            f"reload poll every {args.poll_seconds:g}s",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                # non-POSIX loops, or running off the main thread
                # (embedded / under tests) -- rely on --shutdown-after
                pass
        if args.shutdown_after is not None:
            loop.call_later(args.shutdown_after, stop.set)
        await stop.wait()
        print("shutting down: draining in-flight requests", flush=True)
        await server.shutdown()

    asyncio.run(_main())
    counters = tracer.registry.snapshot()["counters"]
    served_requests = sum(
        int(v) for name, v in counters.items()
        if name.startswith("http.requests.")
    )
    print(
        f"served {served_requests} requests "
        f"({int(counters.get('serve.points', 0))} points, "
        f"{int(counters.get('http.reload.count', 0))} reloads)"
    )
    _emit_observability(
        args, "serve", tracer,
        config={
            "model": str(args.model),
            "host": args.host,
            "port": args.port,
            "batch_max": args.batch_max,
            "batch_wait_us": args.batch_wait_us,
            "queue_depth": args.queue_depth,
            "poll_seconds": args.poll_seconds,
        },
    )
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    import signal
    from itertools import islice

    from repro.data.io import iter_transactions
    from repro.obs import Tracer
    from repro.stream import DriftDetector, StreamClusterer

    tracer = Tracer()
    pipeline = RockPipeline(
        k=args.k,
        theta=args.theta,
        min_cluster_size=args.min_cluster_size,
        memory_budget=_memory_budget_bytes(args),
        fit_mode=args.fit_mode,
        merge_method=args.merge_method,
        workers=_fit_workers(args),
        shard_block_rows=args.shard_block_rows,
        spill_dir=args.spill_dir,
        max_retries=args.max_retries,
        seed=args.seed,
    )
    drift = None
    if args.max_outlier_rate is not None or args.min_mean_score is not None:
        drift = DriftDetector(
            registry=tracer.registry,
            window=args.drift_window,
            max_outlier_rate=args.max_outlier_rate,
            min_mean_score=args.min_mean_score,
        )

    def _on_refit(event) -> None:
        print(
            f"refit #{event.index} [{event.reason}] at arrival "
            f"{event.arrivals_seen}: {event.n_clusters} clusters, "
            f"version {event.version} "
            f"(fit {event.fit_seconds:.2f}s, "
            f"publish {event.publish_seconds * 1000:.1f}ms)",
            flush=True,
        )

    clusterer = StreamClusterer(
        pipeline,
        reservoir_size=args.reservoir,
        publish_to=args.publish_to,
        warmup=args.warmup,
        refit_every=args.refit_every,
        drift=drift,
        refit_mode=args.refit_mode,
        batch_size=args.batch_size,
        seed=args.seed,
        tracer=tracer,
        on_refit=_on_refit,
    )

    def _drain(signum, frame) -> None:
        print("drain requested: finishing current batch", flush=True)
        clusterer.request_drain()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _drain)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        source = sys.stdin if args.input == "-" else args.input
        records = iter_transactions(source)
        if args.max_records is not None:
            records = islice(records, args.max_records)
        summary = clusterer.process(records)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    rows = [
        ["arrivals", summary.arrivals],
        ["labeled", summary.labeled],
        ["outliers / unassigned", summary.outliers],
        ["label throughput (points/s)", f"{summary.labels_per_second():,.0f}"],
        ["refits", len(summary.refits)],
        ["refit reasons", " | ".join(e.reason for e in summary.refits)],
        ["final version", summary.final_version or "-"],
        ["drained early", summary.drained],
    ]
    if args.publish_to is not None:
        rows.append(["published to", args.publish_to])
    print(format_table(["measure", "value"], rows, title="ROCK stream"))
    _emit_observability(
        args, "stream", tracer,
        config={
            "input": str(args.input),
            "k": args.k,
            "theta": args.theta,
            "reservoir": args.reservoir,
            "refit_every": args.refit_every,
            "refit_mode": args.refit_mode,
            "drift_window": args.drift_window,
            "max_outlier_rate": args.max_outlier_rate,
            "min_mean_score": args.min_mean_score,
            "publish_to": None if args.publish_to is None else str(args.publish_to),
            "seed": args.seed,
        },
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "gen-data":
        return cmd_gen_data(args)
    if args.command == "cluster":
        return cmd_cluster(args)
    if args.command == "suggest-theta":
        return cmd_suggest_theta(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "fit-model":
        return cmd_fit_model(args)
    if args.command == "assign":
        return cmd_assign(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "stream":
        return cmd_stream(args)
    return cmd_evaluate(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
