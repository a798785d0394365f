"""One benchmark process: set up, fit, publish, serve, check.

``run.py`` starts this file in a fresh interpreter (so set-up pays the
imports every user pays) with ``PYTHONPATH`` pointing at the checkout's
``src``.  Modes:

``setup``
    Generate the inputs, run a small warm-up fit through the public
    entry point, start ``python -m repro serve`` on the warm-up model,
    wait for ``/healthz`` and send one ``/assign``; then stop.
``untraced``
    Set up, then the measured part: a fixed number of rounds, each a
    fit followed by three traffic windows -- open-loop ``/assign`` at a
    light and at a heavy Poisson rate (the heavy window replaces the
    served artifact mid-window) and closed-loop ``/assign_batch``.  The
    first fit's model is packaged, published, and hot-reloaded by the
    server before any traffic.  Every output is checked.
``traced``
    The same, with every other fit given a :class:`repro.obs.Tracer`,
    ``/metrics`` scraped around each window and direct timed calls into
    the serving layers afterwards; reports the per-layer figures.

Rounds interleave the phases so that each metric samples the whole
run: on a shared host, speed changes over tens of seconds, and one long
phase per metric would catch only one host state.  Set-up and every
fit are also bracketed by readings of :mod:`hostspeed`'s reference
kernel, so that their times can be reported at a fixed host speed.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

# the host-speed reading that opens set-up; its own time is not set-up
_t0 = time.perf_counter()
SETUP_READING = hostspeed.reading()
SETUP_READING_S = time.perf_counter() - _t0

# one round: a fit, then (rate requests/s, seconds) open-loop windows
# and a closed-loop bulk window.  Two connections sustain ~330
# requests/s while the host runs at full speed and ~220 when it slows;
# heavy stays below both, since a rate past capacity measures only how
# fast the backlog grows.
LIGHT = (100.0, 2.0)
HEAVY = (150.0, 1.4)
BULK_SECONDS = 0.5
ROUND_SECONDS = 8.0  # --seconds / ROUND_SECONDS rounds (at least 2)
HOST = "127.0.0.1"


def vm_hwm_mb(pid: int | str = "self") -> float:
    """The process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def request(port: int, method: str, path: str,
            payload: object | None = None) -> tuple[int, bytes]:
    """One control-plane request on a fresh connection."""
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> dict[str, float]:
    """``GET /metrics`` keyed by the registry's dotted names.

    Each family's ``# HELP`` line carries its registry name; histogram
    ``_sum``/``_count`` samples become ``<name>.sum``/``<name>.count``.
    """
    status, body = request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values: dict[str, float] = {}
    family, source = "", ""
    for line in body.decode().splitlines():
        if line.startswith("# HELP "):
            _, _, family, source = line.split(" ", 3)
            continue
        if not line or line.startswith("#") or "{" in line:
            continue
        sample, _, value = line.rpartition(" ")
        suffix = sample[len(family):]
        if suffix in ("_sum", "_count"):
            values[source + "." + suffix[1:]] = float(value)
        else:
            values[source] = float(value)
    return values


def write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def model_bytes(model) -> bytes:
    from io import StringIO

    buffer = StringIO()
    model.save(buffer)
    return buffer.getvalue().encode()


class Server:
    """``python -m repro serve`` in its own process."""

    def __init__(self, model_path: Path, workdir: Path) -> None:
        self.log = workdir / "server.log"
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--model", str(model_path), "--host", HOST, "--port", "0"],
                stdout=log, stderr=subprocess.STDOUT,
            )
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited: {self.log.read_text()[-2000:]}"
                )
            for line in self.log.read_text().splitlines():
                if " on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            time.sleep(0.01)
        raise RuntimeError("server did not report its port")

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, body = request(self.port, "GET", "/healthz")
            if status == 200 and json.loads(body)["status"] == "ok":
                return
            time.sleep(0.01)
        raise RuntimeError("server never became healthy")

    def wait_version(self, version: str) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, body = request(self.port, "GET", "/model")
            if json.loads(body)["model_version"] == version:
                return
            time.sleep(0.02)
        raise RuntimeError(f"server never loaded version {version}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def setup(args: argparse.Namespace, workdir: Path) -> tuple:
    """Inputs, a warm server and the first-request latency."""
    from repro import RockPipeline

    inputs = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    _, warm_model = RockPipeline(**inputs.warmup_kwargs).fit_model(
        inputs.warmup_points
    )
    artifact = workdir / "model.json"
    write_atomic(artifact, model_bytes(warm_model))
    server = Server(artifact, workdir)
    try:
        server.wait_healthy()
        point = inputs.draw_point(random.Random(args.seed))
        t0 = time.perf_counter()
        status, _ = request(server.port, "POST", "/assign",
                            {"point": point})
        first_ms = (time.perf_counter() - t0) * 1e3
    except BaseException:
        server.stop()
        raise
    return inputs, server, artifact, first_ms, status == 200


def variant(model):
    """The model with each multi-representative L_i one shorter."""
    from repro import RockModel

    return RockModel(
        labeling_sets=[li[:-1] if len(li) > 1 else li
                       for li in model.labeling_sets],
        theta=model.theta,
        f_theta=model.f_theta,
        similarity=model.similarity,
        cluster_sizes=model.cluster_sizes,
        metadata={**model.metadata, "benchmark_variant": "shortened"},
    )


class Fit(NamedTuple):
    """One timed ``RockPipeline.fit`` and the host's speed around it."""

    wall_s: float
    traced: bool
    reference_s: float  # mean reference pass in the readings around it


def scaled_fit(fits: list[Fit]) -> float:
    """The fits' mean wall time at the nominal host speed."""
    return hostspeed.scaled([fit.wall_s for fit in fits],
                            [fit.reference_s for fit in fits])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Checker:
    """Expected labels per served version, from ``ClusterLabeler.assign``."""

    def __init__(self, models: dict) -> None:
        self.labelers = {v: m.labeler() for v, m in models.items()}
        self.cache: dict[tuple, int] = {}

    def expected(self, version: str, point: list) -> int:
        from repro import Transaction

        key = (version, tuple(point))
        if key not in self.cache:
            self.cache[key] = int(
                self.labelers[version].assign(Transaction(point))
            )
        return self.cache[key]

    def single(self, reply, point: list) -> bool:
        body = reply.body
        version = body.get("model_version")
        return (
            reply.status == 200
            and version in self.labelers
            and body.get("label") == self.expected(version, point)
        )

    def batch(self, reply, points: list[list]) -> bool:
        body = reply.body
        version = body.get("model_version")
        return (
            reply.status == 200
            and version in self.labelers
            and body.get("labels")
            == [self.expected(version, p) for p in points]
        )


class Run:
    """The measured part of one run: rounds of fit + traffic windows."""

    def __init__(self, args, inputs, server, artifact: Path) -> None:
        from repro import RockPipeline

        self.inputs = inputs
        self.server, self.artifact = server, artifact
        self.traced = args.mode == "traced"
        self.pipeline = RockPipeline(**inputs.pipeline_kwargs)
        self.rounds = max(2, round(args.seconds / ROUND_SECONDS))
        # toy-size runs shorten every window
        self.window = 0.2 if args.smoke else 1.0
        self.traffic = workloads.make_traffic(
            inputs, random.Random(args.seed * 7919 + 1), self.rounds,
            (LIGHT[0], LIGHT[1] * self.window),
            (HEAVY[0], HEAVY[1] * self.window),
        )
        self.conns = max(1, min(2, len(os.sched_getaffinity(0))))
        self.fits: list[Fit] = []
        self.fit_failed = 0
        self.problems: list[str] = []
        self.result = None
        self.tracer = None
        self.light: list = []  # (reply, point) over all rounds
        self.heavy: list = []
        self.bulk: list = []  # (reply, batch)
        self.lags: list[float] = []
        self.scrapes: list[list[dict]] = []  # per round, 4 snapshots
        self.bulk_next = 0
        self.round_stats: list[dict] = []

    def fit(self, index: int) -> None:
        from repro.obs import Tracer

        tracer = Tracer() if self.traced and index % 2 else None
        before = hostspeed.reading()
        t0 = time.perf_counter()
        try:
            result = self.pipeline.fit(self.inputs.points, tracer=tracer)
        except Exception as exc:  # a raised fit is a failed operation
            print(f"fit raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.fit_failed += 1
            return
        finally:
            wall = time.perf_counter() - t0
            after = hostspeed.reading()
            self.fits.append(Fit(wall, tracer is not None,
                                 hostspeed.reference_s(before, after)))
        if self.result is None:
            problems = self.inputs.check_fit(result)
            self.problems += problems
            self.fit_failed += bool(problems)
            self.result = result
        elif not (result.labels == self.result.labels).all():
            self.problems.append(f"fit {index} labels differ from fit 0")
            self.fit_failed += 1
        if tracer is not None:
            self.tracer = tracer

    def publish(self) -> None:
        """Serve the fitted model; prepare the variant for mid-window swaps."""
        from repro.serve.http import load_versioned_model

        self.model = self.pipeline.to_model(self.result, self.inputs.points)
        self.alt = variant(self.model)
        self.blobs, self.versions = {}, {}
        for tag, model in (("fitted", self.model), ("variant", self.alt)):
            self.blobs[tag] = model_bytes(model)
            path = self.artifact.with_name(f"{tag}.json")
            path.write_bytes(self.blobs[tag])
            self.versions[tag] = load_versioned_model(path)[1]
        write_atomic(self.artifact, self.blobs["fitted"])
        self.server.wait_version(self.versions["fitted"])

    def traffic_round(self, index: int) -> None:
        port = self.server.port
        snaps = [scrape(port)] if self.traced else []
        fit = self.fits[-1]
        stats = {"fit_s": scaled_fit([fit]), "fit_wall_s": fit.wall_s,
                 "reference_ms": fit.reference_s * 1e3}
        for name, windows in (("light", self.traffic.light),
                              ("heavy", self.traffic.heavy)):
            points, offsets = windows[index]
            actions = []
            if name == "heavy":  # swap the served artifact mid-window
                swapped = ("variant", "fitted")[index % 2]
                blob = self.blobs[swapped]
                actions = [(HEAVY[1] * self.window / 2,
                            lambda: write_atomic(self.artifact, blob))]
            replies, lags = asyncio.run(loadgen.open_loop(
                HOST, port, "/assign",
                [json.dumps({"point": p}).encode() for p in points],
                offsets, self.conns, actions=actions,
            ))
            getattr(self, name).extend((r, points[r.index]) for r in replies)
            self.lags += lags
            stats[f"{name}_p50_ms"] = statistics.median(
                (r.done - r.due) * 1e3 for r in replies)
            if self.traced:
                snaps.append(scrape(port))
        # let the swap's reload finish here, not during the next fit
        self.server.wait_version(self.versions[swapped])
        batches = self.traffic.bulk
        t0 = time.perf_counter()
        replies = asyncio.run(loadgen.closed_loop(
            HOST, port, "/assign_batch",
            [json.dumps({"points": b}).encode() for b in batches],
            self.conns, BULK_SECONDS * self.window, start=self.bulk_next,
        ))
        stats["bulk_points_per_s"] = (
            workloads.BULK_BATCH * sum(r.status == 200 for r in replies)
            / (time.perf_counter() - t0)
        )
        self.bulk_next += len(replies)
        self.bulk += [(r, batches[r.index % len(batches)]) for r in replies]
        self.round_stats.append(stats)
        if self.traced:
            snaps.append(scrape(port))
            self.scrapes.append(snaps)

    def execute(self) -> None:
        for index in range(self.rounds):
            self.fit(index)
            if self.result is None:
                return
            if index == 0:
                self.publish()
            self.traffic_round(index)
        self.peak_rss_mb = vm_hwm_mb()
        self.server_rss_mb = vm_hwm_mb(self.server.proc.pid)

    def failed_requests(self) -> int:
        checker = Checker({self.versions["fitted"]: self.model,
                           self.versions["variant"]: self.alt})
        return (
            sum(not checker.single(r, p) for r, p in self.light + self.heavy)
            + sum(not checker.batch(r, b) for r, b in self.bulk)
        )

    def latencies(self, name: str) -> list[float]:
        return [(r.done - r.due) * 1e3 for r, _ in getattr(self, name)
                if r.status == 200]

    def metrics(self) -> dict:
        """Figures every run measures: medians over rounds and requests,
        and the fits' mean wall time at the nominal host speed.

        ``BENCHMARK.json`` decides which are end-to-end and which are
        reported only by the traced run.
        """
        light, heavy = self.latencies("light"), self.latencies("heavy")
        untraced = [fit for fit in self.fits if not fit.traced]
        return {
            "fit_s": scaled_fit(untraced),
            "fit.wall_s": statistics.median(fit.wall_s for fit in untraced),
            "host.reference_ms": statistics.median(
                fit.reference_s for fit in self.fits) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
            "server_peak_rss_mb": self.server_rss_mb,
            "light.assign_p50_ms": statistics.median(light),
            "light.assign_p99_ms": percentile(light, 99),
            "heavy.assign_p50_ms": statistics.median(heavy),
            "heavy.assign_p99_ms": percentile(heavy, 99),
            "bulk_points_per_s": statistics.median(
                r["bulk_points_per_s"] for r in self.round_stats),
        }

    def layers(self) -> dict:
        layers = fit_layers(self.tracer, self.fits)
        layers.update(serve_layers(self.scrapes, self.light + self.heavy))
        layers["gen.lag_p99_ms"] = percentile(self.lags, 99) * 1e3
        layers.update(direct_engine(self.artifact.with_name("fitted.json"),
                                    self.traffic))
        return layers


def serve_layers(scrapes: list[list[dict]], single: list) -> dict:
    """Per-layer serving figures from ``/metrics`` deltas and client spans.

    Each round has four snapshots: before light, after light, after
    heavy, after bulk.  Single-point figures span light + heavy.
    """
    def total(name: str, first: int, last: int) -> float:
        return sum(s[last].get(name, 0.0) - s[first].get(name, 0.0)
                   for s in scrapes)

    flushes = total("http.batcher.flushes", 0, 2)
    batched = total("http.batcher.batch_size.sum", 0, 2)
    server_n = total("http.latency.assign.count", 0, 2)
    server_mean_ms = total("http.latency.assign.sum", 0, 2) / server_n * 1e3
    client_mean_ms = statistics.fmean((r.done - r.sent) * 1e3
                                      for r, _ in single)
    hits = total("serve.cache.hits", 0, 2)
    misses = total("serve.cache.misses", 0, 2)
    names = {name for s in scrapes for snap in s for name in snap}
    return {
        "batcher.points_per_flush": batched / flushes,
        "http.server_assign_mean_ms": server_mean_ms,
        "http.outside_server_mean_ms": client_mean_ms - server_mean_ms,
        "cache.hit_ratio": hits / (hits + misses),
        "http.rejected": total("http.rejected", 0, 3),
        "http.errors": sum(total(name, 0, 3) for name in names
                           if name.startswith("http.errors.")),
        "reload.count": total("http.reload.count", 0, 3),
        "reload.errors": total("http.reload.errors", 0, 3),
    }


def direct_engine(path: Path, traffic) -> dict:
    """Time the serving layers' public calls from outside the server."""
    from repro import AssignmentEngine, RockModel, Transaction

    t0 = time.perf_counter()
    model = RockModel.load(path)
    load_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    AssignmentEngine(model)
    build_s = time.perf_counter() - t0
    engine = AssignmentEngine(model, cache_size=0)
    points = [Transaction(p) for batch in traffic.bulk for p in batch]
    t0 = time.perf_counter()
    engine.assign_batch(points)
    engine_s = time.perf_counter() - t0
    return {
        "model.load.s": load_s,
        "index.build.s": build_s,
        "engine.points_per_s": len(points) / engine_s,
    }


def fit_layers(tracer, fits: list[Fit]) -> dict:
    """Per-layer fit figures from the last traced fit's spans and counters."""
    root = tracer.spans()[0]
    phases = {span.name: span.wall_seconds for span in root.children}
    counters = tracer.registry.snapshot()["counters"]
    label_points = counters.get("fit.labeled_points", 0)
    label_s = phases.get("label", 0.0)
    traced = scaled_fit([fit for fit in fits if fit.traced])
    untraced = scaled_fit([fit for fit in fits if not fit.traced])
    return {
        "sample.s": phases.get("sample", 0.0),
        "neighbors.s": phases.get("neighbors", 0.0),
        "links.s": phases.get("links", 0.0),
        "links.pairs": counters.get("fit.links.pairs", 0),
        "cluster.s": phases.get("cluster", 0.0),
        "cluster.components": counters.get("fit.cluster.components", 0),
        "cluster.heap_ops": counters.get("fit.cluster.heap_ops", 0),
        "cluster.merges": counters.get("fit.cluster.merges", 0),
        "label.s": label_s,
        "label.points": label_points,
        "label.points_per_s": label_points / label_s if label_points else 0.0,
        "fit.unattributed.s": root.wall_seconds - sum(phases.values()),
        "trace.overhead_share": traced / untraced - 1.0,
    }


def plan_record(result, port: int) -> dict:
    """The resolved plan: which implementation ran each phase, and the
    inputs of the ``auto`` rules -- the dense similarity matrix against
    the default budget (dense vs blocked neighbors) and against the
    host-derived budget (native promotion)."""
    from repro.core.neighbors import (
        DEFAULT_MEMORY_BUDGET,
        dense_similarity_bytes,
        resolve_memory_budget,
    )
    from repro.native import auto_native, available_backend

    dense = dense_similarity_bytes(len(result.sample_indices))
    return {
        "backends": dict(result.backends),
        "dense_within_default_budget": dense <= DEFAULT_MEMORY_BUDGET,
        "dense_within_host_budget": dense <= resolve_memory_budget(None),
        "native_backend": available_backend(),
        "auto_native": auto_native(),
        "assign_backend": json.loads(
            request(port, "GET", "/model")[1])["assign_backend"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "untraced", "traced"])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)

    inputs, server, artifact, first_ms, first_ok = setup(args, args.workdir)
    setup_wall = time.perf_counter() - STARTED - SETUP_READING_S
    report = {"setup_wall_s": setup_wall,
              "setup_reference_s": hostspeed.reference_s(
                  SETUP_READING, hostspeed.reading()),
              "attempted": 1, "failed": int(not first_ok),
              "problems": [] if first_ok else ["first /assign failed"],
              "metrics": {}, "layers": {"http.first_request_ms": first_ms}}
    try:
        if args.mode != "setup":
            run = Run(args, inputs, server, artifact)
            run.execute()
            report["problems"] += run.problems
            report["attempted"] += (len(run.fits) + len(run.light)
                                    + len(run.heavy) + len(run.bulk))
            report["failed"] += run.fit_failed
            if run.result is not None:
                report["failed"] += run.failed_requests()
                report["metrics"] = run.metrics()
                if run.traced:
                    report["layers"].update(run.layers())
                report["plan"] = plan_record(run.result, server.port)
            report["counts"] = {"rounds": run.rounds, "fits": len(run.fits),
                                "light": len(run.light),
                                "heavy": len(run.heavy),
                                "bulk": len(run.bulk)}
            report["rounds"] = run.round_stats
            report["facts"] = inputs.facts
            # host-dependent input to the plan; varies with free memory
            from repro.core.neighbors import resolve_memory_budget
            from repro.obs.manifest import host_metadata

            report["memory_budget"] = resolve_memory_budget(None)
            report["host"] = {**host_metadata(),
                              "nproc": len(os.sched_getaffinity(0))}
    finally:
        server.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
