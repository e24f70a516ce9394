"""One fresh process per episode: build a world, run it, report JSON.

Run by the benchmark as ``python -m benchmarks.e2e.child '<json args>'``
with ``src`` on ``PYTHONPATH``.  Kinds:

* ``sim`` — build a simulation workload and run its join phase; then,
  unless only set-up is sampled, replay the steady phase ``replays``
  times, each in a forked copy of the joined world, and check the gates;
* ``twin`` — the scalar and vector tip hashes of the small twin fleet;
* ``serve`` — build and serve the world, print the port, take a host
  speed probe for each line read from stdin, serve until stdin closes,
  then report.

The last stdout line is the JSON result; ``built_at`` is a
``time.monotonic`` stamp (system-wide on Linux), so the parent measures
set-up from its own spawn stamp.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import traceback
from typing import Any, Callable

from repro.errors import ChainError

from .hostspeed import probe_ms
from .tracer import Tracer


def _emit(payload: dict[str, Any]) -> None:
    print(json.dumps(payload), flush=True)


def _rss_mb() -> float:
    """Peak resident set of this process's own address space, in MB.

    Not ``ru_maxrss``: on exec Linux folds the spawning process's peak
    into it, so a child of a large parent would report the parent.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _replay(sim: Any, scenario: Any, movers: set[str], horizon: float,
            tracer: Tracer | None, gates: bool) -> dict[str, Any]:
    """Run the steady phase, then (``gates``) the gates; runs in a forked process.

    Replays end in the same state, which their tip hashes confirm, so
    one replay checking the gates covers all of them.
    """
    intervals_ms, probes_ms = sim.run_steady(scenario, horizon)
    result: dict[str, Any] = {"intervals_ms": intervals_ms, "probes_ms": probes_ms}
    if tracer is not None:
        # Snapshot before the gates: chain.validate re-hashes the ledger.
        result["trace"] = tracer.summary()
        tracer.uninstall()
    result["failures"], result["forwarded"] = (
        sim.check_gates(scenario, movers, validate=True) if gates else ([], None)
    )
    result.update(sim.outcome(scenario), rss_mb=_rss_mb())
    return result


def _forked(work: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    """``work()`` in a forked copy of this process, which then exits.

    The copy starts from this process's exact state and leaves it
    untouched, so the same work can be timed several times.  Safe here:
    an episode process runs no threads.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(work(), out)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            # A forked copy must never return into its parent's code.
            os._exit(status)
    os.close(write_fd)
    # Read everything before waiting: a full pipe would block the copy.
    with os.fdopen(read_fd) as result:
        payload = result.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"replay process failed with wait status {status}")
    return json.loads(payload)


def run_sim(args: dict[str, Any]) -> dict[str, Any]:
    tracer = Tracer() if args.get("trace") else None
    if tracer is not None:
        tracer.install()
    from . import sim

    scenario, movers, horizon = sim.build_world(args["workload"], args["seed"])
    result: dict[str, Any] = {"built_at": time.monotonic()}
    if args.get("setup_only"):
        return result
    result["join_wall_s"], result["join_records"] = sim.run_join(scenario)
    if tracer is not None:
        result["trace_join"] = tracer.summary()
    sys.stdout.flush()
    result["replays"] = [
        _forked(functools.partial(_replay, sim, scenario, movers, horizon, tracer, i == 0))
        for i in range(args["replays"])
    ]
    return result


def run_serve(args: dict[str, Any]) -> dict[str, Any]:
    tracer = Tracer() if args.get("trace") else None
    if tracer is not None:
        tracer.install()
    from repro.ids import DeviceId
    from repro.serve import AggregatorService, ServeRunner

    from .serve import TrafficModel, device_name, serve_spec

    spec = serve_spec(args["seed"])
    service = AggregatorService(spec)
    runner = ServeRunner(service).start()
    _emit({"port": runner.address[1]})
    # Each stdin line asks for a host speed probe; end of input stops.
    latency_probes_ms = [probe_ms() for _line in sys.stdin]
    runner.stop()
    result: dict[str, Any] = {"latency_probes_ms": latency_probes_ms}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.uninstall()
    scenario = service.scenario
    failures = []
    try:
        scenario.chain.validate()
    except ChainError as exc:
        failures.append(f"chain.validate: {type(exc).__name__}: {exc}")
    silent = [
        device_name(i)
        for i in range(TrafficModel.of(spec).devices)
        if not scenario.chain.records_for_device(DeviceId(device_name(i)).uid)
    ]
    if silent:
        failures.append(f"{len(silent)} devices without ledger records, e.g. {silent[:3]}")
    result.update(
        failures=failures,
        records=scenario.chain.records_total,
        blocks=scenario.chain.height,
        tip_hash=scenario.chain.tip_hash,
        events=scenario.simulator.events_executed,
        rss_mb=_rss_mb(),
    )
    return result


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    kind = args["kind"]
    if kind == "sim":
        result = run_sim(args)
    elif kind == "twin":
        from .sim import twin_tips

        result = twin_tips(args["seed"])
    elif kind == "serve":
        result = run_serve(args)
    else:
        raise SystemExit(f"unknown child kind {kind!r}")
    _emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
