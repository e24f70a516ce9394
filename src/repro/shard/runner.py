"""Drive one scenario as N kernel shards.

:func:`run_sharded` is the entry point behind the CLI's ``--shards``:
it partitions the spec (:mod:`repro.shard.partition`), builds one
:class:`~repro.shard.engine.ShardEngine` per shard, runs them in
conservative lockstep windows exchanging backhaul outboxes at each
barrier, and merges the per-shard results back into the serial view
(:mod:`repro.shard.merge`).

Execution modes:

* ``shards == 1`` — *the* serial path: one :func:`~repro.runtime.build`
  world on one kernel, no windows, no proxies.
* in-process — every engine lives in this process and windows run
  round-robin.  Deterministic, zero IPC, and the mode that measures
  per-shard compute cleanly on any machine; the default on a single
  CPU.
* multi-process — one worker process per shard, window batches crossing
  :class:`multiprocessing.Pipe`, the parent acting as the barrier and
  router.  The default when the machine has CPUs to spare.

All modes produce byte-identical merged output for the same plan; the
mode only decides where the compute happens.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.chain.ledger import Blockchain
from repro.errors import ConfigError, ExperimentError
from repro.monitoring.timeseries import SeriesBank
from repro.obs.metrics import fold_counters, write_series_csv
from repro.parallel import available_cpus
from repro.runtime.build import build
from repro.runtime.context import SimContext
from repro.runtime.spec import ObsSpec, ScenarioSpec
from repro.shard.engine import ShardEngine, ShardResult
from repro.shard.merge import merge_chain_ops, merge_summaries
from repro.shard.partition import ShardPlan, partition
from repro.shard.plane import RemoteMessage


def _boundaries(window_s: float | None, until: float) -> Iterator[float]:
    """Window right edges up to and including ``until``.

    Boundary ``k`` is computed as ``k * window_s`` (never accumulated),
    so every shard — and the parent router — sees bit-identical floats.
    """
    if window_s is None or window_s >= until:
        yield until
        return
    k = 1
    while True:
        boundary = k * window_s
        if boundary >= until:
            yield until
            return
        yield boundary
        k += 1


def _route(
    outboxes: list[list[RemoteMessage]], plan: ShardPlan
) -> list[list[RemoteMessage]]:
    """Sort one window's outboxes into per-destination-shard inboxes."""
    inbound: list[list[RemoteMessage]] = [[] for _ in plan.groups]
    for outbox in outboxes:
        for message in outbox:
            inbound[plan.shard_of(message.destination.name)].append(message)
    return inbound


@dataclass
class ShardedRun:
    """The merged result of a sharded (or serial) run.

    Mirrors the read API experiment code uses on
    :class:`~repro.runtime.scenario.Scenario` — ``summary()``,
    ``snapshot()``, ``export_monitoring()``, ``ledger_digest`` — plus
    the sharding provenance (plan, per-shard event counts and busy
    times) the benchmark reads.
    """

    spec: ScenarioSpec
    until: float
    mode: str
    groups: tuple[tuple[str, ...], ...]
    window_s: float | None
    chain: Blockchain
    counters: dict[str, int]
    monitoring: dict[str, SeriesBank]
    devices: dict[str, dict[str, Any]]
    aggregators: dict[str, dict[str, Any]]
    shard_events: list[int]
    shard_busy_s: list[float]
    wall_s: float
    faults: list[dict[str, Any]]

    @property
    def shards(self) -> int:
        """Number of shards the run used."""
        return len(self.groups)

    @property
    def master_seed(self) -> int:
        """The seed every shard derived its streams from."""
        return self.spec.seed

    @property
    def ledger_digest(self) -> str:
        """Tip hash of the merged chain — the determinism fingerprint."""
        return self.chain.tip_hash

    @property
    def events_executed(self) -> int:
        """Total kernel events across all shards."""
        return sum(self.shard_events)

    def summary(self) -> dict[str, Any]:
        """Same shape as :meth:`Scenario.summary`."""
        return {
            "time": self.until,
            "chain_height": self.chain.height,
            "total_energy_mwh": self.chain.total_energy_mwh(),
            "devices": dict(self.devices),
            "aggregators": dict(self.aggregators),
        }

    def snapshot(self) -> dict[str, Any]:
        """Same shape as :meth:`Scenario.snapshot`, plus a ``sharding`` block."""
        return {
            "master_seed": self.master_seed,
            "spec": self.spec.to_dict(),
            "ledger_digest": self.ledger_digest,
            "counters": dict(self.counters),
            "faults": list(self.faults),
            **self.summary(),
            "sharding": {
                "mode": self.mode,
                "shards": self.shards,
                "window_s": self.window_s,
                "groups": [list(group) for group in self.groups],
                "events_per_shard": list(self.shard_events),
                "busy_s_per_shard": [round(b, 6) for b in self.shard_busy_s],
                "wall_s": round(self.wall_s, 6),
            },
        }

    def export_monitoring(self, directory) -> list[Path]:
        """Write per-aggregator series CSVs, byte-identical to
        :meth:`Scenario.export_monitoring` on the serial run."""
        return write_series_csv(directory, self.monitoring)


def _resolve_obs(spec: ScenarioSpec, obs_dir) -> ObsSpec:
    # Mirrors the CLI capture-session behavior: an --obs-dir request
    # force-enables observability without rewriting the spec.
    if obs_dir is not None and not spec.obs.enabled:
        return ObsSpec(enabled=True)
    return spec.obs


def _run_serial(spec: ScenarioSpec, until: float, obs_dir) -> ShardedRun:
    """``--shards 1``: exactly today's serial path, wrapped."""
    ctx = SimContext.create(seed=spec.seed, obs=_resolve_obs(spec, obs_dir))
    scenario = build(spec, context=ctx)
    start = time.perf_counter()
    scenario.run_until(until)
    elapsed = time.perf_counter() - start
    if obs_dir is not None:
        scenario.write_obs_artifacts(obs_dir)
    summary = scenario.summary()
    return ShardedRun(
        spec=spec,
        until=until,
        mode="serial",
        groups=(tuple(spec.network_names),),
        window_s=None,
        chain=scenario.chain,
        counters=scenario.counters.snapshot(),
        monitoring=scenario.monitoring,
        devices=summary["devices"],
        aggregators=summary["aggregators"],
        shard_events=[scenario.simulator.events_executed],
        shard_busy_s=[elapsed],
        wall_s=elapsed,
        faults=(
            scenario.fault_plan.describe() if scenario.fault_plan is not None else []
        ),
    )


def _merge_results(
    spec: ScenarioSpec,
    until: float,
    mode: str,
    plan: ShardPlan,
    results: list[ShardResult],
    wall_s: float,
) -> ShardedRun:
    chain = merge_chain_ops(
        [result.chain_ops for result in results],
        spec.network_names,
        ledger=spec.ledger,
    )
    counters = fold_counters(result.counters for result in results)
    monitoring = merge_summaries(result.series for result in results)
    devices = merge_summaries(result.devices_summary for result in results)
    aggregators = merge_summaries(result.aggregators_summary for result in results)
    # Every shard describes the environment faults it armed; one entry
    # per fault name, in the serial plan's (start, name) order.
    faults: dict[str, dict[str, Any]] = {}
    for result in results:
        for entry in result.faults:
            faults.setdefault(entry["name"], entry)
    # Spec declaration order, matching the serial world's dict order.
    return ShardedRun(
        spec=spec,
        until=until,
        mode=mode,
        groups=plan.groups,
        window_s=plan.window_s,
        chain=chain,
        counters=counters,
        monitoring={
            name: monitoring[name] for name in spec.network_names if name in monitoring
        },
        devices={d.name: devices[d.name] for d in spec.devices if d.name in devices},
        aggregators={
            name: aggregators[name]
            for name in spec.network_names
            if name in aggregators
        },
        shard_events=[result.events_executed for result in results],
        shard_busy_s=[result.busy_s for result in results],
        wall_s=wall_s,
        faults=sorted(faults.values(), key=lambda f: (f["start_at"], f["name"])),
    )


def _run_in_process(
    spec: ScenarioSpec,
    until: float,
    plan: ShardPlan,
    obs_dir,
) -> ShardedRun:
    obs_spec = _resolve_obs(spec, obs_dir)
    engines = [
        ShardEngine(spec, plan, index, obs=obs_spec) for index in range(plan.shards)
    ]
    busy = [0.0] * plan.shards
    start = time.perf_counter()
    for boundary in _boundaries(plan.window_s, until):
        outboxes = []
        for index, engine in enumerate(engines):
            t0 = time.perf_counter()
            outboxes.append(engine.run_window(boundary))
            busy[index] += time.perf_counter() - t0
        for index, inbox in enumerate(_route(outboxes, plan)):
            if inbox:
                t0 = time.perf_counter()
                engines[index].absorb(inbox)
                busy[index] += time.perf_counter() - t0
    for index, engine in enumerate(engines):
        t0 = time.perf_counter()
        engine.finish(until)
        busy[index] += time.perf_counter() - t0
    wall = time.perf_counter() - start
    if obs_dir is not None:
        shard_dirs = []
        for index, engine in enumerate(engines):
            shard_dir = Path(obs_dir) / f"shard-{index:04d}"
            engine.scenario.write_obs_artifacts(shard_dir)
            shard_dirs.append(shard_dir)
        _merge_obs(shard_dirs, obs_dir)
    results = [engine.result(busy[index]) for index, engine in enumerate(engines)]
    return _merge_results(spec, until, "in-process", plan, results, wall)


def _merge_obs(shard_dirs: list[Path], out_dir) -> None:
    from repro.obs.artifacts import merge_artifact_dirs

    merge_artifact_dirs([str(path) for path in shard_dirs], str(out_dir))


def _shard_worker(
    conn,
    spec_data: dict,
    groups: tuple[tuple[str, ...], ...],
    window_s: float | None,
    index: int,
    until: float,
    obs_spec_data: dict | None,
    obs_dir: str | None,
) -> None:
    """Run one shard in a worker process (module-level for picklability).

    Protocol, in lockstep with the parent's router loop: for every
    window boundary send the drained outbox, receive the routed inbox;
    after the final window, send the :class:`ShardResult`.
    """
    try:
        spec = ScenarioSpec.from_dict(spec_data)
        plan = ShardPlan(
            groups=tuple(tuple(group) for group in groups), window_s=window_s
        )
        obs_spec = (
            ObsSpec.from_dict(obs_spec_data) if obs_spec_data is not None else None
        )
        engine = ShardEngine(spec, plan, index, obs=obs_spec)
        busy = 0.0
        for boundary in _boundaries(window_s, until):
            # process_time: this worker's own CPU, immune to the other
            # shards' time-slicing on an oversubscribed machine.
            t0 = time.process_time()
            outbox = engine.run_window(boundary)
            busy += time.process_time() - t0
            conn.send(outbox)
            inbox = conn.recv()
            if inbox:
                t0 = time.process_time()
                engine.absorb(inbox)
                busy += time.process_time() - t0
        t0 = time.process_time()
        engine.finish(until)
        busy += time.process_time() - t0
        if obs_dir is not None:
            engine.scenario.write_obs_artifacts(obs_dir)
        conn.send(engine.result(busy))
    except BaseException as exc:  # surface the failure to the parent
        conn.send(ExperimentError(f"shard {index} failed: {exc!r}"))
        raise
    finally:
        conn.close()


def _run_processes(
    spec: ScenarioSpec,
    until: float,
    plan: ShardPlan,
    obs_dir,
) -> ShardedRun:
    obs_spec = _resolve_obs(spec, obs_dir)
    obs_spec_data = obs_spec.to_dict() if obs_spec.enabled else None
    spec_data = spec.to_dict()
    mp = multiprocessing.get_context()
    connections = []
    workers = []
    shard_dirs: list[Path] = []
    start = time.perf_counter()
    try:
        for index in range(plan.shards):
            shard_dir = (
                Path(obs_dir) / f"shard-{index:04d}" if obs_dir is not None else None
            )
            if shard_dir is not None:
                shard_dirs.append(shard_dir)
            parent_conn, child_conn = mp.Pipe()
            worker = mp.Process(
                target=_shard_worker,
                args=(
                    child_conn,
                    spec_data,
                    plan.groups,
                    plan.window_s,
                    index,
                    until,
                    obs_spec_data,
                    str(shard_dir) if shard_dir is not None else None,
                ),
                name=f"repro-shard-{index}",
            )
            worker.start()
            child_conn.close()
            connections.append(parent_conn)
            workers.append(worker)

        def receive(index: int) -> Any:
            try:
                payload = connections[index].recv()
            except EOFError as exc:
                raise ExperimentError(
                    f"shard {index} worker died without a result"
                ) from exc
            if isinstance(payload, Exception):
                raise payload
            return payload

        for _boundary in _boundaries(plan.window_s, until):
            outboxes = [receive(index) for index in range(plan.shards)]
            for index, inbox in enumerate(_route(outboxes, plan)):
                connections[index].send(inbox)
        results = [receive(index) for index in range(plan.shards)]
    finally:
        for connection in connections:
            connection.close()
        for worker in workers:
            worker.join(timeout=30)
            if worker.is_alive():  # pragma: no cover - defensive cleanup
                worker.terminate()
                worker.join()
    wall = time.perf_counter() - start
    if obs_dir is not None:
        _merge_obs(shard_dirs, obs_dir)
    return _merge_results(spec, until, "processes", plan, results, wall)


def run_sharded(
    spec: ScenarioSpec,
    until: float,
    shards: int | str | None = None,
    *,
    assignment: tuple[tuple[str, ...], ...] | None = None,
    window_s: float | None = None,
    processes: bool | None = None,
    obs_dir=None,
) -> ShardedRun:
    """Run ``spec`` to ``until`` across ``shards`` kernel shards.

    Args:
        spec: The world to run.
        until: End time (inclusive, serial ``run_until`` semantics).
        shards: Shard count; ``None`` takes ``spec.sharding.shards``,
            ``"auto"`` takes ``min(available CPUs, aggregator count)``.
        assignment: Explicit per-shard network groups (defaults to the
            spec's, else round-robin).
        window_s: Requested sync window (clamped to the conservative
            lookahead).
        processes: Run shards in worker processes.  ``None`` decides by
            CPU budget — workers when more than one CPU is available,
            in-process otherwise.  Output is identical either way.
        obs_dir: Write (merged) observability artifacts here.

    The ``direct`` transport is required for ``shards > 1``: the mqtt
    backend's shared wireless channel draws shadowing/loss from one
    global random stream in event order, which no partitioning can
    reproduce; the direct backend uses per-device streams.
    """
    if shards == "auto":
        shards = min(available_cpus(), len(spec.network_names))
    if shards is None:
        shards = spec.sharding.shards
    if shards == 1:
        return _run_serial(spec, until, obs_dir)
    if spec.transport.kind != "direct":
        raise ConfigError(
            f"sharded execution requires transport 'direct', got "
            f"{spec.transport.kind!r}: the shared wireless channel stream "
            "cannot be partitioned deterministically"
        )
    plan = partition(spec, shards, assignment=assignment, window_s=window_s)
    if processes is None:
        processes = available_cpus() > 1
    if processes:
        return _run_processes(spec, until, plan, obs_dir)
    return _run_in_process(spec, until, plan, obs_dir)
