"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The smoke runs take about a minute: every workload at toy size, traced
and untraced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hostspeed  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_exactly_the_declared_metrics(trace, key):
    done = run("--smoke", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(results) == len(SPEC["workloads"])
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], done.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def record(seed, value, metric="fit_s", workload="w"):
    return {"workload": workload, "seed": seed, "trace": 0,
            "measured": {metric: value}}


def test_compare_verdicts():
    parent = {s: 10.0 + 0.1 * s for s in range(10)}
    better = {s: v * 0.7 for s, v in parent.items()}
    worse = {s: v * 1.3 for s, v in parent.items()}
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(parent, better, True, 0.1)[0] == "better"
    assert compare.verdict(parent, worse, True, 0.1)[0] == "worse"
    assert compare.verdict(parent, parent, True, 0.1)[0] == "same"
    assert compare.verdict(noisy, parent, True, 0.1)[0] == "unresolved"
    # a higher-is-better metric reads the other way round
    assert compare.verdict(parent, better, False, 0.1)[0] == "worse"


def test_compare_report_lists_each_workload_and_metric(tmp_path):
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "fit_s", "unit": "s", "better": "lower",
                            "bound": 0.1}],
            "per_layer": []}
    parent = [record(s, 10.0 + 0.1 * s) for s in range(5)]
    change = [record(s, 7.0 + 0.1 * s) for s in range(5)]
    lines = compare.report(parent, change, spec)
    assert len(lines) == 2
    assert lines[1].startswith("w | fit_s (s) |")
    assert lines[1].endswith("| better (n=5/5)")


def test_hostspeed_scaling():
    # each reading drops its slowest pass, a momentary stall
    assert hostspeed.reference_s([0.04, 0.04, 0.9], [0.08, 0.08, 0.08]) \
        == pytest.approx(0.06)
    # a run reports sum(wall) / sum(reference) at the nominal pass time
    walls, refs = [2.0, 4.0], [0.04, 0.08]
    assert hostspeed.scaled(walls, refs) == pytest.approx(
        hostspeed.NOMINAL_S * 6.0 / 0.12)
    assert len(hostspeed.reading()) == hostspeed.PASSES
