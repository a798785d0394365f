"""Compare two result sets of the benchmark, metric by metric.

Usage::

    python3 perfbench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are ``runs.jsonl`` files (or directories
holding one) written by ``run.py``, typically the ``.bench_results``
of two checkouts run with the same seeds and ``--seconds``.  For each
workload and metric the report prints each side's median and
quartiles over its runs, the delta and the ratio to the parent (with
the parent as base), the share of same-seed pairs the change wins,
and a verdict:

``unresolved``
    the parent's own run-to-run spread (quartile distance over median)
    exceeds the metric's bound, and the change does not beat every
    parent run -- the data cannot tell a change from noise;
``worse``
    the change's median is worse than the parent's by more than the
    bound;
``better``
    the change wins at least nine tenths of the same-seed pairs and
    the medians differ by more than the parent's quartile distance;
``same``
    anything else.

Per-layer metrics have no bound; they get the ``better``/``same``
verdicts only, for reading where a change landed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    if path.is_dir():
        path = path / "runs.jsonl"
    runs = [json.loads(line) for line in path.read_text().splitlines() if line]
    return [r for r in runs if not r.get("smoke")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_seed(runs: list[dict], workload: str, metric: str) -> dict:
    """``{seed: value}`` from the untraced runs, which measure every
    figure but the trace-only ones; those come from the traced runs."""
    for trace in (0, 1):
        values = {
            r["seed"]: r["measured"][metric]
            for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["measured"]
        }
        if values:
            return values
    return {}


def verdict(base: dict, change: dict, lower_better: bool,
            bound: float | None) -> tuple[str, float]:
    """The verdict and the share of same-seed pairs the change wins."""
    sign = 1.0 if lower_better else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, c_med, _ = quartiles(list(change.values()))
    pairs = [(base[s], change[s]) for s in base if s in change]
    decided = [(b, c) for b, c in pairs if b != c]
    wins = sum(sign * (c - b) < 0 for b, c in decided)
    win_share = wins / len(decided) if decided else 0.0
    beats_all = (max(sign * v for v in change.values())
                 < min(sign * v for v in base.values()))
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if bound is not None:
        if spread > bound and not beats_all:
            return "unresolved", win_share
        if worse_by > bound:
            return "worse", win_share
    if win_share >= 0.9 and abs(c_med - b_med) > (b_q3 - b_q1):
        return "better", win_share
    return "same", win_share


def report(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    def cell(values: list[float]) -> str:
        q1, med, q3 = quartiles(values)
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    lines = ["workload | metric | parent median [q1, q3] | change median "
             "[q1, q3] | delta | ratio to parent | pair wins | verdict"]
    workloads = [w["name"] for w in spec["workloads"]]
    for key in ("end_to_end", "per_layer"):
        for workload in workloads:
            for metric in spec[key]:
                name = metric["name"]
                base = by_seed(parent, workload, name)
                new = by_seed(change, workload, name)
                if not base or not new:
                    continue
                b_med = quartiles(list(base.values()))[1]
                c_med = quartiles(list(new.values()))[1]
                word, wins = verdict(base, new, metric["better"] == "lower",
                                     metric.get("bound"))
                ratio = f"{c_med / b_med:.3f}" if b_med else "n/a"
                lines.append(
                    f"{workload} | {name} ({metric['unit']}) | "
                    f"{cell(list(base.values()))} | {cell(list(new.values()))}"
                    f" | {c_med - b_med:+.4g} | {ratio} of {b_med:.4g} | "
                    f"{wins:.0%} | {word} (n={len(base)}/{len(new)})"
                )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    print("\n".join(report(load_runs(args.parent), load_runs(args.change), spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
