"""Run one workload: spawn child processes, check gates, fold metrics.

A simulation run is one *episode* (a fresh process that builds the
seeded world and runs its join phase) that replays the steady phase a
fixed number of times, set by ``--seconds``, plus fresh processes for
set-up samples.  ``serve_mixed`` runs one server process under the
timed request schedule and more for set-up samples.

End-to-end metrics (untraced runs):

* ``setup_s`` — spawn until the world is built (serve: until the first
  ``/healthz`` 200), median of ``SETUP_SAMPLES`` fresh processes;
* ``records_per_s`` — ledger records committed per wall second of the
  steady phase after the join, median over replays (serve: reports
  acknowledged per second in the 128x step);
* ``peak_rss_mb`` — peak resident set (``VmHWM``) of a replay process,
  median over replays (serve: the server);
* ``latency_p50_ms`` — median wall time of one 100 ms simulated
  reporting interval of the steady phase (serve: of one request, timed
  from its due time, in the 2x step).

The steady-phase and serve latency times are scaled to the reference
host speed by host speed probes taken between them, in the same process,
and each set-up sample by a reference set-up timed in a fresh process
just before it (:mod:`hostspeed`); the raw values are in the run detail.
Serve's ``records_per_s`` is left raw: the delayed-ACK timer, not the
CPU, sets it.

Traced runs report the per-layer metrics of :func:`tracer.layer_metrics`.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from . import serve as serve_load
from .hostspeed import REFERENCE_SETUP_S, scale
from .stats import quantile
from .tracer import (
    SERVICE_ENTRY_KEYS,
    SIM_WORKLOADS,
    WORKLOADS,
    dead_hooks,
    layer_metrics,
)

ROOT = Path(__file__).resolve().parents[2]
SETUP_SAMPLES = 3
# Steady-phase replays per 20 measured seconds; runs scale this with
# --seconds.  On a 2-vCPU Xeon VM the join takes ~6.5 s on the fleets and
# ~0.7 s on roaming_mqtt, a replay ~3.5 s on fleet_scalar, ~1.5 s on
# fleet_vector and ~5 s on roaming_mqtt; the counts keep a run near half
# a minute.
REPLAYS_PER_20S = {"fleet_scalar": 2, "fleet_vector": 3, "roaming_mqtt": 2}
# Bounds every child so a hung one cannot hold a run past its budget.
CHILD_TIMEOUT_S = 90.0


class ChildError(RuntimeError):
    """An episode process failed or printed no result."""


def _child_command(args: dict[str, Any]) -> list[str]:
    return [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(args)]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _last_json(text: str, what: str) -> dict[str, Any]:
    lines = text.strip().splitlines()
    if not lines:
        raise ChildError(f"{what} printed no result")
    return json.loads(lines[-1])


def _spawn(command: list[str], what: str) -> dict[str, Any]:
    """Run one process to completion; adds ``setup_s`` (spawn → built)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildError(f"{what} exited with {proc.returncode}")
    result = _last_json(proc.stdout, what)
    if "built_at" in result:
        result["setup_s"] = result["built_at"] - spawned
    return result


def spawn(args: dict[str, Any]) -> dict[str, Any]:
    """Run one child (:mod:`child`) to completion."""
    return _spawn(_child_command(args), f"child {args}")


def _merge_traces(summaries: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for key, entry in summary.items():
            into = merged.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field in into:
                into[field] += entry[field]
    return merged


def _subtract_trace(
    later: dict[str, dict[str, float]], earlier: dict[str, dict[str, float]]
) -> dict[str, dict[str, float]]:
    """What a cumulative tracer summary gained between two snapshots."""
    return {
        key: {field: value - earlier.get(key, {}).get(field, 0) for field, value in entry.items()}
        for key, entry in later.items()
    }


def _result(
    workload: str, seed: int, seconds: float, trace: bool, failures: list[str],
    attempted: int, failed: int, metrics: dict[str, float], detail: dict[str, Any],
) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "detail": detail,
    }


def replay_count(workload: str, seconds: float) -> int:
    """Replays a run of ``seconds`` makes: fixed work, never measured speed."""
    return max(1, round(REPLAYS_PER_20S[workload] * seconds / 20.0))


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, NaN (not measured) when it is 0."""
    return numerator / denominator if denominator else math.nan


def setup_samples(sample: Callable[[], float]) -> dict[str, Any]:
    """``setup_s`` and its detail from ``SETUP_SAMPLES`` calls of ``sample()``.

    Each sample is scaled by the reference set-up timed just before it.
    """
    reference = [sys.executable, "-m", "benchmarks.e2e.hostspeed"]
    raw, references = [], []
    for _ in range(SETUP_SAMPLES):
        references.append(_spawn(reference, "reference set-up")["setup_s"])
        raw.append(sample())
    scaled = [s * REFERENCE_SETUP_S / r for s, r in zip(raw, references)]
    return {
        "setup_s": statistics.median(scaled),
        "setup_samples_s": raw,
        "setup_reference_s": references,
    }


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One episode of a simulation workload with a fixed number of replays.

    Every replay runs the steady phase from the same joined world, so
    each does the same work.  Each replay's interval times are scaled by
    the host speed probes taken between its intervals; the steady-phase
    wall time is the median over replays.
    """
    base = {"kind": "sim", "workload": workload, "seed": seed, "trace": trace}
    episode = spawn(dict(base, replays=replay_count(workload, seconds)))
    replays = episode["replays"]
    failures = [f for replay in replays for f in replay["failures"]]
    tips = {replay["tip_hash"] for replay in replays}
    if len(tips) != 1:
        failures.append(f"same state, different tip hashes across replays: {sorted(tips)}")
    if workload in ("fleet_scalar", "fleet_vector"):
        twin = spawn({"kind": "twin", "seed": seed})
        if twin["scalar"] != twin["vector"]:
            failures.append(f"scalar and vector twin tips differ: {twin}")

    world = replays[0]
    records = world["records"] - episode["join_records"]
    if records <= 0:
        failures.append("no records committed after the join phase")
    replay_wall_s = [sum(r["intervals_ms"]) / 1000.0 for r in replays]
    scales = [scale(r["probes_ms"]) for r in replays]
    run_wall_s = statistics.median(w * f for w, f in zip(replay_wall_s, scales))
    detail = {
        "replays": len(replays),
        "replay_wall_s": replay_wall_s,
        "replay_scale": scales,
        "run_wall_s": run_wall_s,
        "run_records": records,
        "raw_records_per_s": _ratio(records, statistics.median(replay_wall_s)),
        # The one-time join burst, reported but not measured.
        "join_wall_s": episode["join_wall_s"],
        "join_records": episode["join_records"],
        "join_records_share": _ratio(episode["join_records"], world["records"]),
        "tip_hash": world["tip_hash"],
        "nacks": world["nacks"],
        "error_share": _ratio(world["nacks"], world["acks"] + world["nacks"]),
        "forwarded_home": world["forwarded"],
        "events_per_record": _ratio(world["events"], world["records"]),
    }
    if trace:
        join = episode["trace_join"]
        steady = _merge_traces([_subtract_trace(r["trace"], join) for r in replays])
        everything = _merge_traces([join, steady])
        failures += [f"hook fired 0 calls: {key}" for key in dead_hooks(everything, workload)]
        # Layer shares cover the measured steady phase only.
        metrics = layer_metrics(steady, sum(replay_wall_s))
        metrics["sim.kernel.events_per_record"] = _ratio(world["events"], world["records"])
        metrics["chain.records_per_block"] = _ratio(world["records"], world["blocks"])
        detail["traced_records_per_s"] = _ratio(records, run_wall_s)
    else:
        setup = setup_samples(lambda: spawn(dict(base, setup_only=True))["setup_s"])
        timed = [ms * f for r, f in zip(replays, scales) for ms in r["intervals_ms"]]
        metrics = {
            "setup_s": setup.pop("setup_s"),
            "records_per_s": _ratio(records, run_wall_s),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in replays),
            "latency_p50_ms": quantile(timed, 0.50),
        }
        detail.update(
            setup,
            latency_samples=len(timed),
            latency_p90_ms=quantile(timed, 0.90),
            latency_p95_ms=quantile(timed, 0.95),
        )
    # Nacks that only trigger the membership handshake (the report is
    # re-buffered and committed later) are not failures; screen
    # rejections are.
    failed = world["rejected"] + len(failures)
    return _result(workload, seed, seconds, trace, failures,
                   world["acks"] + world["nacks"], failed, metrics, detail)


class Server:
    """A served world in a child process; ``setup_s`` is spawn → healthy."""

    def __init__(self, seed: int, trace: bool) -> None:
        spawned = time.monotonic()
        self._proc = subprocess.Popen(
            _child_command({"kind": "serve", "seed": seed, "trace": trace}),
            cwd=ROOT,
            env=_child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self._proc.stdout], [], [], CHILD_TIMEOUT_S)
            if not ready:
                raise ChildError("server did not start")
            self.port = _last_json(self._proc.stdout.readline(), "server")["port"]
            self.setup_s = self._wait_healthy(spawned)
        except BaseException:
            self.kill()
            raise

    def _wait_healthy(self, spawned: float) -> float:
        deadline = spawned + CHILD_TIMEOUT_S
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return time.monotonic() - spawned
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise ChildError("server never became healthy")

    def probe(self) -> None:
        """Ask the server for a host speed probe (reported by :meth:`stop`)."""
        self._proc.stdin.write("probe\n")
        self._proc.stdin.flush()

    def stop(self) -> dict[str, Any]:
        """Close stdin (the shutdown signal) and read the final report."""
        try:
            out, _ = self._proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            self.kill()
        if self._proc.returncode != 0:
            raise ChildError(f"server exited with {self._proc.returncode}")
        return _last_json(out, "server")

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()


def run_serve(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """The open-loop request schedule against one served world."""
    server = Server(seed, trace)
    try:
        load = serve_load.run_load("127.0.0.1", server.port, seed, seconds, server.probe)
    finally:
        stats = server.stop()
    failures = list(stats["failures"]) + list(load["failures"])
    failed = load["failed"] + len(stats["failures"])
    detail = {
        key: load[key]
        for key in ("model", "steps", "sat_rps", "max_ok_rps", "shed", "queue_wait_s",
                    "gen_lag_ms_p95", "receipts_verified", "header_height",
                    "latency_samples", "latency_probes")
    }
    # The first step's latencies are CPU-bound: scale them by the probes
    # the server took between its requests.
    probes = stats["latency_probes_ms"]
    latency_scale = scale(probes) if probes else math.nan
    detail.update(
        latency_scale=latency_scale,
        latency_raw_p50_ms=load["latency_p50_ms"],
        latency_p90_ms=load["latency_p90_ms"] * latency_scale,
        latency_p95_ms=load["latency_p95_ms"] * latency_scale,
    )
    detail.update(tip_hash=stats["tip_hash"], records=stats["records"],
                  events_per_record=_ratio(stats["events"], stats["records"]))
    if trace:
        summary = stats["trace"]
        dead = dead_hooks(summary, "serve_mixed")
        failures += [f"hook fired 0 calls: {key}" for key in dead]
        failed += len(dead)
        metrics = layer_metrics(summary, load["load_wall_s"])
        service_s = sum(summary.get(key, {}).get("total_s", 0.0) for key in SERVICE_ENTRY_KEYS)
        front_s = load["client_busy_s"] - service_s
        metrics.update({
            "sim.kernel.events_per_record": _ratio(stats["events"], stats["records"]),
            "chain.records_per_block": _ratio(stats["records"], stats["blocks"]),
            "serve.http.front_s": front_s,
            "serve.http.front_share": _ratio(front_s, load["client_busy_s"]),
            "serve.queue_wait_s": load["queue_wait_s"],
            "serve.shed": load["shed"],
            "serve.gen_lag_ms_p95": load["gen_lag_ms_p95"],
        })
        detail["traced_records_per_s"] = load["records_per_s"]
    else:

        def sample() -> float:
            extra = Server(seed, False)
            extra.stop()
            return extra.setup_s

        setup = setup_samples(sample)
        metrics = {
            "setup_s": setup.pop("setup_s"),
            "records_per_s": load["records_per_s"],
            "peak_rss_mb": stats["rss_mb"],
            "latency_p50_ms": load["latency_p50_ms"] * latency_scale,
        }
        detail.update(setup)
    return _result("serve_mixed", seed, seconds, trace, failures, load["attempted"],
                   failed, metrics, detail)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run of ``workload``; see the module docstring for the metrics."""
    if workload in SIM_WORKLOADS:
        return run_sim(workload, seed, seconds, trace)
    if workload == "serve_mixed":
        return run_serve(seed, seconds, trace)
    raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")


def benchmark_spec() -> dict[str, Any]:
    """The repository's ``BENCHMARK.json`` (metric names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def failed_run(
    workload: str, seed: int, seconds: float, trace: bool, note: str
) -> dict[str, Any]:
    """The result of a run that broke off before measuring anything."""
    return _result(workload, seed, seconds, trace, [note], 1, 1, {}, {})


def contract_line(result: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """The one-line result: every end-to-end (or, traced, per-layer) metric.

    A metric that was not measured (missing or not finite) is left out,
    counts as a failure and makes the run incorrect.
    """
    section = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in section:
        value = result["metrics"].get(entry["name"], math.nan)
        if math.isfinite(value):
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    unmeasured = len(section) - len(metrics)
    return {
        "correct": result["correct"] and not unmeasured,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"] + unmeasured,
        "metrics": metrics,
    }
