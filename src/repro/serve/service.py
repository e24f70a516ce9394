"""The aggregator as a long-running service: world + wire boundary.

:class:`AggregatorService` wraps a spec-built world behind a
thread-safe facade that external clients drive over a real network
boundary.  The simulation kernel still owns every aggregator duty
(feeder sampling, block flushes, membership expiry, fault schedules),
but time no longer belongs to an experiment harness: the service
advances the kernel one :attr:`~repro.runtime.spec.ServeSpec.step_s`
window per ingestion step, so the world is always quiescent between
requests and every request observes a consistent state.

The trust boundary is the HTTP body.  The world is built on the
``serve`` transport backend (the :mod:`repro.transport.direct` router
with ``wire_bytes=True``).  The codec validates each body once, and the
service *delivers the decoded message into the aggregator's own
endpoint*, the topic a radio frame arrives on; the aggregator's receive
handlers take it as they take any in-process message.  Only the
aggregator's downlink replies (which the service decodes and correlates)
and the traffic of simulated devices cross the endpoint as wire bytes.
Nothing in :mod:`repro.aggregator` knows it is being served.

Batched ingestion follows the d3a ``batch_command`` idiom: one request
carries many device reports, the service injects them all, advances one
step, and returns one blocking response with a per-report verdict.

A service runs for as long as its clients keep it, so what it holds
grows per block, not per record: the chain lives in a
:class:`~repro.chain.store.BlockStore` archive in a temporary directory
the service owns (block bodies on disk, the newest and the last one
read kept), and the alert stream is a bounded ring.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
import threading
import time
import weakref
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Any

from repro.chain.receipts import find_and_issue, receipt_to_dict
from repro.chain.store import BlockStore
from repro.chain.sync import header_batch
from repro.errors import ChainError, CodecError, ConfigError
from repro.ids import DeviceId
from repro.obs.metrics import render_prometheus, snapshot_metrics
from repro.protocol.codec import as_message, message_from_dict
from repro.protocol.messages import (
    Ack,
    ConsumptionReport,
    Nack,
    RegistrationRequest,
    RegistrationResponse,
)
from repro.runtime.build import build
from repro.runtime.spec import ScenarioSpec

# Alerts kept in the ring before the oldest are dropped; cursors stay
# valid because they are absolute sequence numbers, not ring positions.
_MAX_ALERTS = 1024


class AggregatorService:
    """Thread-safe serving facade over one spec-built world.

    Args:
        spec: The world to serve.  The transport is forced to the
            ``serve`` backend (wire bytes through the endpoint) — any
            simulated devices in the spec keep running inside the world
            and send their frames as wire bytes; external clients' bodies
            are decoded once, at the front.
        network: Name of the served aggregator; overrides
            ``spec.serve.network`` (None: the spec's choice, falling
            back to the first network).

    All public methods are safe to call from concurrent HTTP handler
    threads; kernel access is serialized under one lock.  The ledger
    archive is deleted by :meth:`close`, or when the service is
    garbage-collected.
    """

    def __init__(self, spec: ScenarioSpec, network: str | None = None) -> None:
        transport = dataclasses.replace(spec.transport, kind="serve")
        spec = dataclasses.replace(spec, transport=transport)
        self._spec = spec
        self._serve = spec.serve
        archive = tempfile.mkdtemp(prefix="repro-serve-")
        self._delete_archive = weakref.finalize(
            self, shutil.rmtree, archive, ignore_errors=True
        )
        self._scenario = build(spec, store=BlockStore(Path(archive) / "ledger.jsonl"))
        self._network = network or spec.serve.network or spec.networks[0].name
        self._unit = self._scenario.aggregator(self._network)
        self._lock = threading.RLock()
        self._alert_cond = threading.Condition(self._lock)
        self._started_wall = time.monotonic()
        # External clients registered through the API; only their
        # downlink traffic is correlated into verdicts/inboxes (the
        # simulated fleet's Acks would otherwise accumulate forever).
        self._external: set[str] = set()
        # Reports an ingest request is waiting on, keyed (device,
        # sequence); the downlink fills in their verdicts.
        self._verdicts: dict[tuple[str, int], dict[str, Any] | None] = {}
        self._registrations: dict[str, dict[str, Any]] = {}
        self._alerts: deque[dict[str, Any]] = deque(maxlen=_MAX_ALERTS)
        self._alerts_total = 0
        self._anomalies_seen = 0
        # Downlink tap: every aggregator's control-plane replies cross
        # the wire boundary; tap them all so alerts cover roaming too.
        for unit in self._scenario.aggregators.values():
            unit.endpoint.subscribe("device/+/ctrl", self._on_downlink)

    # -- introspection ---------------------------------------------------

    @property
    def scenario(self):
        """The served world (tests and the CLI reach through here)."""
        return self._scenario

    @property
    def unit(self):
        """The served aggregator unit."""
        return self._unit

    @property
    def sim_now(self) -> float:
        """Current simulated time."""
        with self._lock:
            return self._scenario.simulator.now

    def close(self) -> None:
        """Delete the ledger archive; the world's chain is unreadable after."""
        self._delete_archive()

    def _count(self, name: str, by: int = 1) -> None:
        self._scenario.counters.increment(f"serve.{name}", by)

    # -- time ------------------------------------------------------------

    def advance(self, dt: float | None = None) -> float:
        """Advance the kernel by ``dt`` (default: the spec's step).

        Returns the new simulated time.  Every duty scheduled in the
        window runs — feeder ticks, block flushes, membership expiry,
        simulated-device reporting, armed faults.
        """
        with self._lock:
            sim = self._scenario.simulator
            sim.run_until(sim.now + (self._serve.step_s if dt is None else dt))
            self._collect_anomalies()
            return sim.now

    def _collect_anomalies(self) -> None:
        # Network-level residual anomalies are flagged (traced and
        # counted), never Nack'd — surface them on the alert stream.
        total = sum(
            unit.verifier.stats.network_anomalies
            for unit in self._scenario.aggregators.values()
        )
        if total > self._anomalies_seen:
            for _ in range(total - self._anomalies_seen):
                self._push_alert(
                    {"kind": "network_anomaly", "aggregator": self._network}
                )
            self._anomalies_seen = total

    # -- downlink capture ------------------------------------------------

    def _on_downlink(self, topic: str, payload: Any) -> None:
        try:
            message = as_message(payload)
        except CodecError:
            return
        if isinstance(message, Nack):
            self._push_alert(
                {
                    "kind": "nack",
                    "device": message.device_id.name,
                    "reason": message.reason.value,
                    "sequence": message.sequence,
                }
            )
        device = message.device_id.name if hasattr(message, "device_id") else None
        if device not in self._external:
            return
        if isinstance(message, Ack):
            self._settle(device, message.sequence, {"verdict": "ack"})
        elif isinstance(message, Nack):
            if message.sequence is None:
                self._registrations[device] = {
                    "status": "rejected",
                    "reason": message.reason.value,
                }
            else:
                self._settle(
                    device,
                    message.sequence,
                    {"verdict": "nack", "reason": message.reason.value},
                )
        elif isinstance(message, RegistrationResponse):
            self._registrations[device] = {
                "status": "registered",
                "address": str(message.address),
                "temporary": message.temporary,
            }

    def _settle(self, device: str, sequence: int, verdict: dict[str, Any]) -> None:
        # A verdict arriving after its request answered "pending" has no
        # one waiting for it, and is dropped.
        key = (device, sequence)
        if key in self._verdicts:
            self._verdicts[key] = verdict

    def _push_alert(self, alert: dict[str, Any]) -> None:
        self._alerts.append({"seq": self._alerts_total, **alert})
        self._alerts_total += 1
        self._alert_cond.notify_all()

    # -- membership handshake -------------------------------------------

    def register(self, payload: bytes | str) -> dict[str, Any]:
        """Run the Fig. 3 membership handshake for one wire payload.

        ``payload`` is the HTTP body: an encoded
        ``registration_request``.  The request is decoded by the codec,
        the message delivered into the aggregator's endpoint, and the kernel
        advanced one step so the handshake (processing latency,
        registry, downlink response) completes before this returns.
        """
        message = as_message(payload)
        if not isinstance(message, RegistrationRequest):
            raise CodecError(
                f"expected a registration_request, got {type(message).__name__}"
            )
        device = message.device_id.name
        with self._lock:
            self._count("register_requests")
            self._external.add(device)
            self._registrations.pop(device, None)
            self._unit.endpoint.deliver(f"meter/{device}/register", message)
            self.advance()
            outcome = self._registrations.pop(device, None)
        if outcome is None:
            return {"device": device, "status": "pending"}
        return {"device": device, **outcome}

    # -- batched report ingestion ---------------------------------------

    def ingest(self, payload: bytes | str) -> dict[str, Any]:
        """Ingest one batch of consumption reports (d3a batch idiom).

        ``payload`` is the HTTP body: either a JSON array of
        ``consumption_report`` objects or ``{"reports": [...]}``.  The
        codec checks each entry once; the valid reports are delivered
        into the endpoint as messages, the kernel advances one step, and
        the response carries one verdict per report in order: ``ack``,
        ``nack`` (with the aggregator's reason), ``error`` (the entry
        failed the codec and never reached the aggregator), or
        ``pending``.  A body that is not such a batch, including one
        nested too deeply to parse, raises
        :class:`~repro.errors.CodecError`.
        """
        if isinstance(payload, (bytes, bytearray)):
            payload = bytes(payload).decode("utf-8", errors="replace")
        try:
            body = json.loads(payload)
        except ValueError as exc:
            # Bad JSON is a ValueError, and so is an integer literal
            # past the interpreter's digit limit.
            raise CodecError(f"malformed batch body: {exc}") from exc
        except RecursionError:
            raise CodecError("batch body is nested too deeply") from None
        entries = body.get("reports") if isinstance(body, dict) else body
        if not isinstance(entries, list):
            raise CodecError("batch body must be a JSON array or {'reports': [...]}")
        reports: list[tuple[int, ConsumptionReport]] = []
        results: list[dict[str, Any] | None] = [None] * len(entries)
        for i, entry in enumerate(entries):
            try:
                message = message_from_dict(entry)
            except CodecError as exc:
                results[i] = {"verdict": "error", "error": str(exc)}
                continue
            if not isinstance(message, ConsumptionReport):
                results[i] = {
                    "verdict": "error",
                    "error": f"expected a consumption_report, got {type(message).__name__}",
                }
                continue
            reports.append((i, message))
        with self._lock:
            self._count("report_batches")
            self._count("reports_ingested", len(reports))
            for _, report in reports:
                self._external.add(report.device_id.name)
                self._verdicts[(report.device_id.name, report.sequence)] = None
                self._unit.endpoint.deliver(f"meter/{report.device_id.name}/report", report)
            self.advance()
            for i, report in reports:
                verdict = self._verdicts.pop(
                    (report.device_id.name, report.sequence), None
                )
                results[i] = {
                    "device": report.device_id.name,
                    "sequence": report.sequence,
                    **(verdict if verdict is not None else {"verdict": "pending"}),
                }
        accepted = sum(1 for r in results if r and r.get("verdict") == "ack")
        return {
            "results": results,
            "accepted": accepted,
            "rejected": len(results) - accepted,
        }

    # -- alert stream ----------------------------------------------------

    def alerts(
        self, since: int = 0, timeout_s: float | None = None
    ) -> dict[str, Any]:
        """Alerts with ``seq >= since``, long-polling when none exist.

        Blocks up to ``timeout_s``, and never longer than the spec's
        poll timeout (also the default), for a new alert before
        returning an empty batch; ``next`` is the cursor to pass as
        ``since`` on the next poll.  A non-finite ``timeout_s`` raises
        :class:`~repro.errors.ConfigError`.
        """
        longest = self._serve.poll_timeout_s
        if timeout_s is not None and not math.isfinite(timeout_s):
            raise ConfigError(f"alert poll timeout must be finite, got {timeout_s}")
        deadline = time.monotonic() + (
            longest if timeout_s is None else min(timeout_s, longest)
        )
        with self._alert_cond:
            while self._alerts_total <= since:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._alert_cond.wait(remaining):
                    break
            start = max(0, since - (self._alerts_total - len(self._alerts)))
            return {
                "alerts": list(islice(self._alerts, start, None)),
                "next": self._alerts_total,
            }

    # -- ledger plane ----------------------------------------------------

    def ledger_headers(self, from_height: int = 0, count: int = 64) -> dict[str, Any]:
        """Header-chain batch: the in-band ``meter/+/chainsync`` answer.

        Both answer through :func:`~repro.chain.sync.header_batch`: at
        most ``MAX_HEADER_BATCH`` (256) headers, and a fresh client asking
        from height 0 against a long chain is anchored at the latest
        committed checkpoint instead of replaying from genesis.
        """
        if from_height < 0 or count < 1:
            raise ConfigError(
                f"need from_height >= 0 and count >= 1, got {from_height}/{count}"
            )
        with self._lock:
            chain = self._scenario.chain
            start, headers, checkpoint = header_batch(chain, from_height, count)
            return {
                "from_height": start,
                "tip_height": chain.height,
                "headers": [hr.to_dict() for hr in headers],
                "checkpoint": None if checkpoint is None else checkpoint.to_dict(),
            }

    def proof(self, device: str, sequence: int) -> dict[str, Any]:
        """Merkle inclusion receipt for one committed record.

        Raises :class:`~repro.errors.ChainError` when no such record is
        in the retained chain (the HTTP layer maps it to 404).  The
        returned receipt verifies offline against the header chain.
        """
        uid = DeviceId(device).uid
        with self._lock:
            receipt = find_and_issue(self._scenario.chain, uid, sequence)
            if not receipt.verify(self._scenario.chain):
                raise ChainError(
                    f"issued receipt for {device}/{sequence} failed self-verification"
                )
        return receipt_to_dict(receipt)

    # -- observability plane --------------------------------------------

    def metrics(self) -> str:
        """Prometheus text exposition of the whole served world."""
        with self._lock:
            return render_prometheus(*snapshot_metrics(self._scenario))

    def healthz(self) -> dict[str, Any]:
        """Liveness and a cheap world snapshot."""
        with self._lock:
            return {
                "status": "down" if self._unit.down else "ok",
                "network": self._network,
                "uptime_s": round(time.monotonic() - self._started_wall, 3),
                "sim_time_s": self._scenario.simulator.now,
                "members": self._unit.registry.member_count,
                "chain_height": self._scenario.chain.height,
                "external_clients": len(self._external),
            }
