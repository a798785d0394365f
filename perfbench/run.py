"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit-clustered --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke          # every workload at toy size

``--trace 0`` prints the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` runs the traced variant and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Each run also
appends a full record (plan, host, every figure) to
``.bench_results/runs.jsonl`` and warns when the resolved plan differs
from an earlier run of the same workload there.

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
BUILD = ROOT / ".bench_build"
BASELINE_SEED = 1
HELD_OUT_SEED = 7  # kept out of development; confirms a claimed gain once
SETUP_REPEATS = 3  # set-ups timed per run; see hostspeed.scaled
WORKER_TIMEOUT = 160.0  # seconds; a run must finish well inside 180 s
SMOKE_SECONDS = 2.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(mode: str, args: argparse.Namespace, scratch: Path,
               deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process group; return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # the C kernel tier compiles into a cache; keep it inside the checkout
    env["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--workdir", str(scratch / mode)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} worker timed out") from None
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group (its server,
    after a crash or timeout) and wait until the group is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def plan_changes(workload: str, smoke: bool, plan: dict) -> list[dict]:
    """Earlier recorded runs of ``workload`` (same size) whose plan differs."""
    path = RESULTS / "runs.jsonl"
    if not path.exists():
        return []
    differing = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if (record.get("workload"), record.get("smoke")) == (workload, smoke) \
                and record.get("plan") != plan:
            differing.append({"seed": record.get("seed"),
                              "plan": record.get("plan")})
    return differing


def run_workload(args: argparse.Namespace, spec: dict) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT
    with tempfile.TemporaryDirectory(dir=BUILD, prefix="run-") as tmp:
        scratch = Path(tmp)
        if args.trace:
            reports = [run_worker("traced", args, scratch, deadline)]
        else:
            reports = [run_worker("setup", args, scratch, deadline)
                       for _ in range(SETUP_REPEATS - 1)]
            reports.append(run_worker("untraced", args, scratch, deadline))
    full = reports[-1]
    metrics = {**full["metrics"], **full["layers"],
               "setup_s": hostspeed.scaled(
                   [r["setup_wall_s"] for r in reports],
                   [r["setup_reference_s"] for r in reports]),
               "setup.wall_s": statistics.fmean(r["setup_wall_s"]
                                                for r in reports)}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    problems = list(full["problems"])
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return {
        "correct": not problems and all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units if name in metrics
        },
        "problems": problems,
        "measured": metrics,
        "plan": full.get("plan"),
        "memory_budget": full.get("memory_budget"),
        "counts": full.get("counts"),
        "rounds": full.get("rounds"),
        "setup_wall_s_each": [r["setup_wall_s"] for r in reports],
        "setup_reference_ms_each": [r["setup_reference_s"] * 1e3
                                    for r in reports],
        "host": full.get("host"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload (or --workload) at toy size")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC}/repro) is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.smoke:
        args.seconds = SMOKE_SECONDS
        todo = [args.workload] if args.workload else names
    elif args.workload in names:
        todo = [args.workload]
    else:
        parser.error(f"--workload must be one of {names}")
    BUILD.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    for workload in todo:
        args.workload = workload
        result = run_workload(args, spec)
        changed = plan_changes(workload, args.smoke, result["plan"])
        if changed:
            print(f"warning: {workload} resolved a different plan than "
                  f"{len(changed)} earlier recorded run(s): now "
                  f"{result['plan']}, before {changed[0]['plan']}",
                  file=sys.stderr)
        record = {"workload": workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke,
                  "plan_changed": bool(changed), **result}
        with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        for problem in result["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
