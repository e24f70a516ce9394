"""Outside-in layer timing: wrap public functions, keep per-thread spans.

The benchmark never edits the program to time it.  A :class:`Tracer`
replaces each hooked function with a wrapper that counts calls and
measures total and self time (duration minus the time of hooked calls
nested inside it).  Module-level functions are replaced in *every*
loaded module that bound them by ``from x import f``, so a call through
an alias (``repro.chain.block.merkle_root``) is timed like a call
through the defining module.  :meth:`Tracer.uninstall` puts every
original function object back.

Spans live on a per-thread stack, so serve mode's concurrent handler
threads never charge each other's time.  Install before ``build(spec)``:
objects built afterwards then bind the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

SIM_WORKLOADS = ("fleet_scalar", "fleet_vector", "roaming_mqtt")
WORKLOADS = SIM_WORKLOADS + ("serve_mixed",)


@dataclass(frozen=True)
class Hook:
    """One timed function.

    Attributes:
        layer: Layer name; metrics are ``<layer>.<fn>.{calls,self_s}``.
        target: ``module:qualname`` of the function, named on the class
            that defines it.
        expect: Workloads on which the function must fire at least once
            (the liveness check fails the run otherwise).
    """

    layer: str
    target: str
    expect: tuple[str, ...]

    @property
    def fn(self) -> str:
        return self.target.rsplit(".", 1)[-1].rsplit(":", 1)[-1]

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.fn}"


HOOKS: tuple[Hook, ...] = (
    Hook("sim.kernel", "repro.sim.kernel:Simulator.run_until", WORKLOADS),
    Hook("device.metering", "repro.device.metering:EnergyMeter.sample", SIM_WORKLOADS),
    Hook("hw.ina219", "repro.hw.ina219:Ina219.measure_ma", WORKLOADS),
    Hook("device.storage", "repro.device.storage:LocalStore.store", SIM_WORKLOADS),
    Hook("device.storage", "repro.device.storage:LocalStore.drain", SIM_WORKLOADS),
    Hook("device.stack", "repro.device.stack:MeteringDevice.enter_network", SIM_WORKLOADS),
    Hook("device.stack", "repro.device.stack:MeteringDevice.leave_network", ("roaming_mqtt",)),
    Hook("transport.direct", "repro.transport.direct:DirectLink.publish",
         ("fleet_scalar", "fleet_vector")),
    Hook("transport.direct", "repro.transport.direct:DirectHub.deliver",
         ("fleet_scalar", "fleet_vector", "serve_mixed")),
    Hook("net.mqtt", "repro.net.mqtt:MqttClient.publish", ("roaming_mqtt",)),
    Hook("net.mqtt", "repro.net.mqtt:MqttBroker.deliver", ("roaming_mqtt",)),
    Hook("net.channel", "repro.net.channel:WirelessChannel.packet_lost", ("roaming_mqtt",)),
    Hook("net.channel", "repro.net.channel:WirelessChannel.airtime_s", ("roaming_mqtt",)),
    Hook("net.backhaul", "repro.net.backhaul:BackhaulMesh.send", ("roaming_mqtt",)),
    Hook("protocol.codec", "repro.protocol.codec:encode_message",
         ("roaming_mqtt", "serve_mixed")),
    Hook("protocol.codec", "repro.protocol.codec:decode_message",
         ("roaming_mqtt", "serve_mixed")),
    Hook("protocol.codec", "repro.protocol.codec:as_message", WORKLOADS),
    Hook("aggregator.verification",
         "repro.aggregator.verification:ReportVerifier.screen_report", WORKLOADS),
    Hook("aggregator.verification",
         "repro.aggregator.verification:ReportVerifier.check_network", SIM_WORKLOADS),
    Hook("aggregator.aggregation",
         "repro.aggregator.aggregation:ReportAggregator.add_report", WORKLOADS),
    Hook("aggregator.ledger_writer", "repro.aggregator.ledger_writer:LedgerWriter.stage",
         WORKLOADS),
    Hook("aggregator.ledger_writer", "repro.aggregator.ledger_writer:LedgerWriter.flush",
         WORKLOADS),
    Hook("aggregator.membership",
         "repro.aggregator.membership:MembershipRegistry.register_master", WORKLOADS),
    Hook("aggregator.membership",
         "repro.aggregator.membership:MembershipRegistry.register_temporary",
         ("roaming_mqtt",)),
    Hook("aggregator.membership",
         "repro.aggregator.membership:MembershipRegistry.expire_temporaries", WORKLOADS),
    Hook("aggregator.roaming",
         "repro.aggregator.roaming:RoamingLiaison.request_verification", ("roaming_mqtt",)),
    Hook("aggregator.roaming",
         "repro.aggregator.roaming:RoamingLiaison.forward_report", ("roaming_mqtt",)),
    Hook("aggregator.roaming",
         "repro.aggregator.roaming:RoamingLiaison.answer_verification", ("roaming_mqtt",)),
    Hook("monitoring.timeseries", "repro.monitoring.timeseries:SeriesBank.record", WORKLOADS),
    Hook("chain.ledger", "repro.chain.ledger:Blockchain.append", WORKLOADS),
    Hook("chain.merkle", "repro.chain.merkle:merkle_root", WORKLOADS),
    Hook("chain.merkle", "repro.chain.merkle:MerkleTree.proof", ("serve_mixed",)),
    Hook("chain.hashing", "repro.chain.hashing:canonical_bytes", WORKLOADS),
    Hook("chain.hashing", "repro.chain.hashing:chain_hash", WORKLOADS),
    Hook("chain.store", "repro.chain.store:InMemoryBlockStore.put", WORKLOADS),
    Hook("chain.receipts", "repro.chain.receipts:find_and_issue", ("serve_mixed",)),
    Hook("chain.receipts", "repro.chain.receipts:InclusionReceipt.verify", ("serve_mixed",)),
    Hook("vector.fleet", "repro.vector.fleet:Cohort.add", ("fleet_vector",)),
    Hook("serve.service", "repro.serve.service:AggregatorService.ingest", ("serve_mixed",)),
    Hook("serve.service", "repro.serve.service:AggregatorService.register", ("serve_mixed",)),
    Hook("serve.service", "repro.serve.service:AggregatorService.proof", ("serve_mixed",)),
    Hook("serve.service", "repro.serve.service:AggregatorService.ledger_headers",
         ("serve_mixed",)),
    Hook("serve.service", "repro.serve.service:AggregatorService.advance", ("serve_mixed",)),
)

# Service entry points the HTTP handlers call; their summed total time
# is the service's share of a request (``advance`` nests inside them).
SERVICE_ENTRY_KEYS = (
    "serve.service.ingest",
    "serve.service.register",
    "serve.service.proof",
    "serve.service.ledger_headers",
)


class Tracer:
    """Call counts plus total/self wall time per hooked function.

    Args:
        clock: Monotonic seconds source (tests pass a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._tables_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _thread_state(self) -> tuple[dict[str, list], list[float]]:
        table: dict[str, list] = {}
        with self._tables_lock:
            self._tables.append(table)
        state = (table, [])
        self._local.state = state
        return state

    def wrap(self, key: str, fn: Callable) -> Callable:
        """A timed stand-in for ``fn`` recording under ``key``."""
        clock = self._clock
        local = self._local
        thread_state = self._thread_state

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = getattr(local, "state", None)
            if state is None:
                state = thread_state()
            table, stack = state
            # [calls, total_s, self_s, active depth of this key]
            record = table.get(key)
            if record is None:
                record = table[key] = [0, 0.0, 0.0, 0]
            record[3] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                record[3] -= 1
                record[0] += 1
                record[2] += elapsed - nested
                if record[3] == 0:
                    # Only the outermost frame of a recursive key adds to
                    # total, so total never double-counts itself.
                    record[1] += elapsed
                if stack:
                    stack[-1] += elapsed

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """``{key: {calls, total_s, self_s}}`` merged over every thread."""
        merged: dict[str, dict[str, float]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, self_s, _depth) in list(table.items()):
                entry = merged.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += self_s
        return merged

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, hooks: Iterable[Hook] = HOOKS) -> None:
        """Replace every hooked function with its timed wrapper.

        Raises ``ImportError``, ``AttributeError`` or ``KeyError`` when a
        target does not exist, so a renamed function fails the run
        instead of reading 0.
        """
        for hook in hooks:
            module_name, qualname = hook.target.split(":")
            module = importlib.import_module(module_name)
            if "." not in qualname:
                original = module.__dict__[qualname]
                wrapper = self.wrap(hook.key, original)
                # Every module that bound the function by from-import
                # (and the package re-exports) gets the wrapper too.
                for loaded in list(sys.modules.values()):
                    namespace = getattr(loaded, "__dict__", None)
                    if not namespace:
                        continue
                    for attr, value in list(namespace.items()):
                        if value is original:
                            self._patch(loaded, attr, wrapper)
                continue
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                self._patch(owner, attr, staticmethod(self.wrap(hook.key, original.__func__)))
            elif callable(original):
                self._patch(owner, attr, self.wrap(hook.key, original))
            else:
                raise TypeError(f"{hook.target} is not a plain function")

    def uninstall(self) -> None:
        """Restore every original function object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(
    summary: dict[str, dict[str, float]], wall_s: float, hooks: Iterable[Hook] = HOOKS
) -> dict[str, float]:
    """Flat per-layer metrics from a tracer summary.

    ``<layer>.<fn>.calls`` / ``.self_s`` for every hook, ``<layer>.self_share``
    (summed self time over ``wall_s``), ``chain.self_share`` over every
    ``chain.*`` layer, and ``traced_share`` over all of them.  The kernel's
    self time holds every callback no hook covers, so ``sim.kernel``'s
    share is reported as ``unattributed_share`` as well.
    """
    metrics: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for hook in hooks:
        entry = summary.get(hook.key, {"calls": 0, "self_s": 0.0})
        metrics[f"{hook.key}.calls"] = entry["calls"]
        metrics[f"{hook.key}.self_s"] = entry["self_s"]
        layer_self[hook.layer] = layer_self.get(hook.layer, 0.0) + entry["self_s"]
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_share"] = self_s / wall_s
    metrics["chain.self_share"] = sum(
        s for layer, s in layer_self.items() if layer.startswith("chain.")
    ) / wall_s
    metrics["traced_share"] = sum(layer_self.values()) / wall_s
    metrics["unattributed_share"] = metrics["sim.kernel.self_share"]
    return metrics


def dead_hooks(
    summary: dict[str, dict[str, float]], workload: str, hooks: Iterable[Hook] = HOOKS
) -> list[str]:
    """Hooks expected to fire on ``workload`` that recorded no call."""
    return [
        hook.key
        for hook in hooks
        if workload in hook.expect and summary.get(hook.key, {}).get("calls", 0) == 0
    ]
