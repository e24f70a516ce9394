"""``serve_mixed``: an open-loop request mix against the served aggregator.

The server is a child process hosting an ``AggregatorService`` behind a
``ServeRunner`` (the paper testbed, with no simulated device entering).
This module holds the client side, which runs in the benchmark process.

The traffic is derived from the served world's own parameters
(:class:`TrafficModel`):

* Devices: one full network, one device per TDMA slot
  (``AggregatorConfig.slot_count``, 16).
* Ingest: one ``POST /reports`` per reporting interval
  (``t_measure_s``, 100 ms) carrying every device's report of that
  interval; ``ServeSpec.step_s`` is the same interval, so simulated time
  keeps pace with the reports.  Device ``k`` draws the paper testbed's
  load profile ``k mod 4`` from a seeded time offset.
* Headers: each device follows the chain as ``SyncPolicy`` paces a light
  client: ``header_batch_size`` (16) headers every
  ``effective_interval_s`` (16 block intervals of 1 s), from a seeded
  phase.  Sixteen devices make one poll per simulated second.
* Proofs (synthetic: the repository has no model of how often a device
  audits its records): after each header sync the device asks for the
  receipt of one of its own reports acked at least two block intervals
  earlier (so it is committed), and verifies it offline.

That is 12 requests per simulated second, the real-time rate of one
full network.  The load is open-loop on 2 keep-alive connections:
requests are due on a fixed schedule whether or not earlier ones
finished.  The rate steps are multiples of the real-time rate: 2x (the
paper testbed's two networks) for 40 % of the run, then 8x, 32x and 128x
for 20 % each.  Latency is timed from the due time, so a stall also
charges the requests queued behind it; a request not sent within 1 s of
its due time is shed.  The first 5 simulated seconds run closed-loop
first, as warm-up.  In the 2x step the server takes a host speed probe
midway between every fourth pair of due times, which scales that step's
latencies.

Receipts are verified against their own Merkle root at once, and
against the requesting device's header chain at the end.  A hard
failure is a non-200 response, a non-ack verdict, a receipt that fails
verification, a broken header link or a connection error.
"""

from __future__ import annotations

import bisect
import dataclasses
import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.aggregator.unit import AggregatorConfig
from repro.chain.receipts import receipt_from_dict
from repro.chain.sync import HeaderChain, HeaderRecord, SyncPolicy
from repro.errors import ChainError, ReproError
from repro.ids import DeviceId
from repro.protocol.codec import encode_message
from repro.protocol.messages import RegistrationRequest
from repro.runtime.spec import ServeSpec
from repro.workloads.scenarios import paper_testbed_spec

from .stats import quantile

# (multiple of the real-time rate, share of the measured seconds)
STEPS = ((2, 0.4), (8, 0.2), (32, 0.2), (128, 0.2))
CONNECTIONS = 2
WARMUP_S = 5.0
PROOF_AGE_BLOCKS = 2
SHED_AFTER_S = 1.0
LATENCY_LIMIT_MS = 50.0
# In the first step the server takes a host speed probe midway between
# every this many due times; one reached later than this is skipped.
PROBE_EVERY = 4
PROBE_SLACK_S = 0.005
# Headers per request when the devices catch up, untimed, at the end.
CATCH_UP_COUNT = 1024


def serve_spec(seed: int):
    """The served world: paper testbed, no simulated devices entering.

    Each ingestion request advances the kernel one reporting interval.
    """
    spec = paper_testbed_spec(seed=seed, enter_devices=False)
    return dataclasses.replace(spec, serve=ServeSpec(enabled=True, step_s=spec.t_measure_s))


@dataclass(frozen=True)
class TrafficModel:
    """The request mix's parameters, read from the served world's spec."""

    devices: int
    interval_s: float
    block_interval_s: float
    header_batch: int
    sync_period_s: float
    supply_voltage_v: float

    @classmethod
    def of(cls, spec: Any) -> "TrafficModel":
        network = spec.networks[0]
        config = AggregatorConfig(t_measure_s=spec.t_measure_s)
        sync = SyncPolicy(
            batch_size=spec.ledger.header_batch_size, interval_s=spec.ledger.sync_interval_s
        )
        return cls(
            devices=network.slot_count or config.slot_count,
            interval_s=spec.t_measure_s,
            block_interval_s=config.block_interval_s,
            header_batch=sync.batch_size,
            sync_period_s=sync.effective_interval_s(config.block_interval_s),
            supply_voltage_v=network.supply_voltage_v,
        )

    def intervals_in(self, seconds: float) -> int:
        """Reporting intervals in ``seconds`` simulated seconds."""
        return round(seconds / self.interval_s)

    @property
    def requests_per_s(self) -> float:
        """Requests per simulated (and, at 1x, wall) second."""
        polls = self.devices / self.sync_period_s
        return 1.0 / self.interval_s + 2.0 * polls


@dataclass
class Planned:
    """One generated request; ``pick`` selects a proof target at send time."""

    kind: str
    device: int = -1
    reports: list[dict[str, Any]] = field(default_factory=list)
    pick: float = 0.0


@dataclass
class Outcome:
    """What happened to one request (times are ``time.monotonic``)."""

    step: int
    due: float | None
    sent: float | None = None
    done: float | None = None
    ok: bool = False
    shed: bool = False
    acked: int = 0


def device_name(index: int) -> str:
    return f"ext-{index:02d}"


def plan_requests(
    seed: int, count: int, model: TrafficModel, spec: Any, addresses: list[str], start_s: float
) -> list[Planned]:
    """The seeded request stream, in simulated-time order.

    Interval ``n`` is one ingest of every device's report ``n``, measured
    at ``start_s + n * interval``; then each device whose sync falls due
    fetches headers and asks for a proof.
    """
    rng = random.Random(seed)
    profiles = [spec.devices[k % len(spec.devices)].profile.build() for k in range(model.devices)]
    offsets = [rng.uniform(0.0, model.sync_period_s) for _ in range(model.devices)]
    period = model.intervals_in(model.sync_period_s)
    phases = [rng.randrange(period) for _ in range(model.devices)]
    plan: list[Planned] = []
    n = 0
    while len(plan) < count:
        n += 1
        measured_at = start_s + n * model.interval_s
        reports = []
        for k in range(model.devices):
            current = profiles[k](measured_at + offsets[k])
            reports.append({
                "type": "consumption_report",
                "device": device_name(k),
                "master": addresses[k],
                "temporary": None,
                "sequence": n,
                "measured_at": measured_at,
                "interval_s": model.interval_s,
                "current_ma": current,
                "voltage_v": model.supply_voltage_v,
                "energy_mwh": current * model.supply_voltage_v * model.interval_s / 3600.0,
                "buffered": False,
            })
        plan.append(Planned("ingest", reports=reports))
        for k in range(model.devices):
            if n % period == phases[k]:
                plan.append(Planned("headers", device=k))
                plan.append(Planned("proof", device=k, pick=rng.random()))
    return plan[:count]


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(*self._address, timeout=30)
        try:
            self._conn.request(method, path, body)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class LoadState:
    """State the sender threads share, behind one lock."""

    def __init__(self, model: TrafficModel) -> None:
        self.model = model
        self.lock = threading.Lock()
        self.index = {device_name(k): k for k in range(model.devices)}
        self.chains = [HeaderChain() for _ in range(model.devices)]
        # Ingests completed, i.e. kernel steps the server has taken.
        self.ingests = 0
        # Per device: acked sequences and the ingest count at their ack.
        self.acked: list[list[int]] = [[] for _ in range(model.devices)]
        self.acked_at: list[list[int]] = [[] for _ in range(model.devices)]
        self.receipts: list[tuple[int, Any]] = []
        self.failures: list[str] = []
        self.failed = 0
        self.busy_s = 0.0

    def fail(self, note: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(note)

    def proof_target(self, device: int, pick: float) -> int | None:
        """A sequence of ``device`` acked long enough ago to be committed."""
        lag = self.model.intervals_in(PROOF_AGE_BLOCKS * self.model.block_interval_s)
        with self.lock:
            eligible = bisect.bisect_right(self.acked_at[device], self.ingests - lag)
            return self.acked[device][int(pick * eligible)] if eligible else None


def sync_headers(conn: Connection, state: LoadState, device: int, count: int) -> int | None:
    """One header request for ``device``'s chain: headers applied, None on failure."""
    chain = state.chains[device]
    status, payload = conn.call(
        "GET", f"/ledger/headers?from_height={chain.height}&count={count}"
    )
    if status != 200:
        state.fail(f"GET /ledger/headers -> {status}")
        return None
    batch = [HeaderRecord.from_dict(h) for h in json.loads(payload)["headers"]]
    try:
        with state.lock:
            return chain.extend(batch)
    except ChainError as exc:
        state.fail(f"header chain of {device_name(device)}: {exc}")
        return None


def execute(conn: Connection, state: LoadState, planned: Planned) -> tuple[bool, int]:
    """Send one request and check its answer; ``(ok, reports acked)``."""
    kind = planned.kind
    target = None
    if kind == "proof":
        target = state.proof_target(planned.device, planned.pick)
        if target is None:
            kind = "headers"
    if kind == "ingest":
        body = json.dumps({"reports": planned.reports}).encode()
        status, payload = conn.call("POST", "/reports", body)
        if status != 200:
            state.fail(f"POST /reports -> {status}")
            return False, 0
        results = json.loads(payload)["results"]
        bad = [r for r in results if r.get("verdict") != "ack"]
        with state.lock:
            state.ingests += 1
            for r in results:
                if r.get("verdict") == "ack":
                    k = state.index[r["device"]]
                    state.acked[k].append(r["sequence"])
                    state.acked_at[k].append(state.ingests)
        if bad:
            state.fail(f"non-ack verdicts {bad[:2]}")
        return not bad, len(results) - len(bad)
    if kind == "proof":
        device = device_name(planned.device)
        status, payload = conn.call("GET", f"/proofs/{device}/{target}")
        if status != 200:
            state.fail(f"GET /proofs/{device}/{target} -> {status}")
            return False, 0
        receipt = receipt_from_dict(json.loads(payload))
        record = receipt.record
        if (
            record.get("device") != device
            or record.get("sequence") != target
            or not receipt.verify()
        ):
            state.fail(f"receipt for {device}/{target} does not verify")
            return False, 0
        with state.lock:
            state.receipts.append((planned.device, receipt))
        return True, 0
    return sync_headers(conn, state, planned.device, state.model.header_batch) is not None, 0


class Schedule:
    """Requests in due order, handed out to whichever sender is free."""

    def __init__(self, items: list[tuple[int, float | None, Planned]]) -> None:
        self._items = items
        self._next = 0
        self._lock = threading.Lock()
        self.outcomes: list[Outcome] = []

    def take(self) -> tuple[Outcome, Planned] | None:
        with self._lock:
            if self._next >= len(self._items):
                return None
            step, due, planned = self._items[self._next]
            self._next += 1
            outcome = Outcome(step, due)
            self.outcomes.append(outcome)
            return outcome, planned


def _sender(conn: Connection, state: LoadState, schedule: Schedule) -> None:
    while True:
        taken = schedule.take()
        if taken is None:
            return
        outcome, planned = taken
        if outcome.due is not None:
            delay = outcome.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if time.monotonic() - outcome.due > SHED_AFTER_S:
                outcome.shed = True
                continue
        outcome.sent = time.monotonic()
        try:
            outcome.ok, outcome.acked = execute(conn, state, planned)
        except (OSError, http.client.HTTPException, ValueError, KeyError, ReproError) as exc:
            state.fail(f"{planned.kind}: {type(exc).__name__}: {exc}")
        outcome.done = time.monotonic()
        with state.lock:
            state.busy_s += outcome.done - outcome.sent


def _drive(
    conns: list[Connection],
    state: LoadState,
    schedule: Schedule,
    probe_at: list[float] = (),
    probe: Callable[[], None] | None = None,
) -> int:
    """Run ``schedule`` on one sender thread per connection.

    Meanwhile this thread calls ``probe()`` at each ``probe_at`` time
    (midway between due times, when no request should be in flight),
    skipping those it reaches late; returns how many it made.
    """
    threads = [
        threading.Thread(target=_sender, args=(conn, state, schedule), daemon=True)
        for conn in conns
    ]
    for thread in threads:
        thread.start()
    probes = 0
    for at in probe_at:
        delay = at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        elif delay < -PROBE_SLACK_S:
            continue
        probe()
        probes += 1
    for thread in threads:
        thread.join()
    return probes


def register_devices(conn: Connection, state: LoadState) -> tuple[list[str], float]:
    """Register the external devices: their addresses and the sim time after."""
    addresses = []
    for index in range(state.model.devices):
        body = encode_message(RegistrationRequest(DeviceId(device_name(index))))
        sent = time.monotonic()
        status, payload = conn.call("POST", "/register", body)
        state.busy_s += time.monotonic() - sent
        reply = json.loads(payload)
        if status != 200 or reply.get("status") != "registered":
            raise RuntimeError(f"registration of {device_name(index)} failed: {reply}")
        addresses.append(reply["address"])
    status, payload = conn.call("GET", "/healthz")
    if status != 200:
        raise RuntimeError(f"GET /healthz -> {status}")
    return addresses, json.loads(payload)["sim_time_s"]


def step_stats(outcomes: list[Outcome], step: int, start: float) -> dict[str, Any]:
    """Counts, latencies and achieved rates of one rate step."""
    mine = [o for o in outcomes if o.step == step]
    ok = [o for o in mine if o.ok]
    latencies = [(o.done - o.due) * 1000.0 for o in ok]
    lags = [(o.sent - o.due) * 1000.0 for o in mine if o.sent is not None]
    finished = [o.done for o in mine if o.done is not None]
    wall = (max(finished) - start) if finished else float("nan")
    stats = {
        "due": len(mine),
        "sent": sum(1 for o in mine if o.sent is not None),
        "shed": sum(1 for o in mine if o.shed),
        "ok": len(ok),
        "failed": sum(1 for o in mine if o.sent is not None and not o.ok),
        "wall_s": wall,
        "ok_rps": len(ok) / wall if finished else 0.0,
        "acked_rps": sum(o.acked for o in mine) / wall if finished else 0.0,
        "p50_ms": quantile(latencies, 0.50) if latencies else float("nan"),
        "p90_ms": quantile(latencies, 0.90) if latencies else float("nan"),
        "p95_ms": quantile(latencies, 0.95) if latencies else float("nan"),
        "samples": len(latencies),
        "gen_lag_ms_p50": quantile(lags, 0.50) if lags else float("nan"),
    }
    stats["meets_limit"] = (
        bool(latencies)
        and stats["p95_ms"] <= LATENCY_LIMIT_MS
        and stats["failed"] == 0
        and stats["shed"] == 0
    )
    return stats


def run_load(
    host: str, port: int, seed: int, seconds: float, probe: Callable[[], None]
) -> dict[str, Any]:
    """Register, warm up, run the rate steps, then check every receipt.

    ``probe()`` asks the server for a host speed probe; it is called
    between requests of the first step.
    """
    spec = serve_spec(seed)
    model = TrafficModel.of(spec)
    state = LoadState(model)
    conns = [Connection(host, port) for _ in range(CONNECTIONS)]
    try:
        load_start = time.monotonic()
        addresses, start_s = register_devices(conns[0], state)
        rates = [multiple * model.requests_per_s for multiple, _ in STEPS]
        counts = [int(rate * share * seconds) for rate, (_, share) in zip(rates, STEPS)]
        warmup_count = round(WARMUP_S * model.requests_per_s)
        plan = plan_requests(seed, warmup_count + sum(counts), model, spec, addresses, start_s)
        warmup = Schedule([(-1, None, p) for p in plan[:warmup_count]])
        _drive(conns, state, warmup)

        items = []
        cursor = warmup_count
        step_starts = []
        start = time.monotonic() + 0.2
        for step, (rate, count) in enumerate(zip(rates, counts)):
            step_starts.append(start)
            for i in range(count):
                items.append((step, start + i / rate, plan[cursor]))
                cursor += 1
            start += count / rate
        probe_at = [
            step_starts[0] + (i + 0.5) / rates[0] for i in range(0, counts[0], PROBE_EVERY)
        ]
        schedule = Schedule(items)
        probes = _drive(conns, state, schedule, probe_at, probe)
        load_end = time.monotonic()

        # Untimed: every device catches its header chain up to the tip,
        # then each receipt must verify against its device's chain.
        for device in range(model.devices):
            while sync_headers(conns[0], state, device, CATCH_UP_COUNT):
                pass
        unverified = [
            receipt for device, receipt in state.receipts
            if not state.chains[device].verify_receipt(receipt)
        ]
        if unverified:
            state.fail(f"{len(unverified)} receipts fail against their device's header chain")
    finally:
        for conn in conns:
            conn.close()

    steps = [step_stats(schedule.outcomes, i, s) for i, s in enumerate(step_starts)]
    sent = [o for o in schedule.outcomes if o.sent is not None]
    lags = [(o.sent - o.due) * 1000.0 for o in sent]
    meeting = [s for s in steps if s["meets_limit"]]
    return {
        "model": dataclasses.asdict(model),
        "steps": [dict(stats, rate=rate) for stats, rate in zip(steps, rates)],
        "attempted": model.devices + len(warmup.outcomes) + len(sent),
        "failed": state.failed,
        "failures": state.failures,
        "shed": sum(s["shed"] for s in steps),
        "receipts_verified": len(state.receipts) - len(unverified),
        "header_height": min(chain.height for chain in state.chains),
        "queue_wait_s": sum(o.sent - o.due for o in sent),
        "gen_lag_ms_p95": quantile(lags, 0.95) if lags else 0.0,
        "client_busy_s": state.busy_s,
        "load_wall_s": load_end - load_start,
        "latency_probes": probes,
        "latency_samples": steps[0]["samples"],
        "latency_p50_ms": steps[0]["p50_ms"],
        "latency_p90_ms": steps[0]["p90_ms"],
        "latency_p95_ms": steps[0]["p95_ms"],
        "sat_rps": steps[-1]["ok_rps"],
        "records_per_s": steps[-1]["acked_rps"],
        "max_ok_rps": meeting[-1]["ok_rps"] if meeting else 0.0,
    }
