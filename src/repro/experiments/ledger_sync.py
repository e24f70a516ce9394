"""Lightweight-client ledger sync: the Danzi delay-vs-traffic study.

Reproduces the central trade-off of Danzi et al. (arXiv:1807.07422,
1711.00540): IoT devices that follow the ledger as lightweight clients
choose a header *batch size* — syncing in large batches amortises
per-request overhead (less traffic) but headers arrive later (more
delay), while small batches track the chain tip closely at higher
per-header cost.  :func:`run_ledger_sync` sweeps the batch size over a
fixed world and reports, per size, the synced-header traffic and the
header age distribution, plus whether receipts verified fully offline
against the device's local header chain.

:func:`validate_bench` is the schema gate CI runs against the committed
``BENCH_ledger.json``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.errors import ExperimentError
from repro.runtime.build import build
from repro.runtime.spec import LedgerSpec, ObsSpec, TransportSpec
from repro.workloads.scenarios import scaled_spec

# The pruning bound the benchmark must demonstrate: a pruned ledger
# retains at most this fraction of the unpruned ledger's blocks while
# every sampled receipt still verifies.
MAX_RETAINED_FRACTION = 0.10


@dataclass(frozen=True)
class SyncTradeoffPoint:
    """One batch size's position on the delay-vs-traffic curve.

    Attributes:
        batch_size: Headers requested per sync round.
        sync_interval_s: Effective sync period the devices used.
        blocks_produced: Chain height at the end of the run.
        headers_per_device: Mean headers applied per device.
        sync_bytes_per_device: Mean sync traffic (up + down) per device.
        bytes_per_block_per_device: Traffic normalised by chain growth —
            the cost axis of the Danzi curves.
        mean_delay_s: Mean header age on arrival (block timestamp to
            application at the device) — the delay axis.
        max_delay_s: Worst header age observed.
        receipts_verified_offline: Receipts verified against the local
            header chain (no trust in the aggregator's coordinates).
        receipts_requested: Receipts requested across all devices.
    """

    batch_size: int
    sync_interval_s: float
    blocks_produced: int
    headers_per_device: float
    sync_bytes_per_device: float
    bytes_per_block_per_device: float
    mean_delay_s: float
    max_delay_s: float
    receipts_verified_offline: int
    receipts_requested: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form."""
        return dataclasses.asdict(self)


def run_ledger_sync(
    batch_sizes: tuple[int, ...] = (1, 4, 16),
    horizon_s: float = 40.0,
    seed: int = 23,
    n_networks: int = 2,
    devices_per_network: int = 3,
) -> list[SyncTradeoffPoint]:
    """Sweep the header batch size over a fixed world.

    Each batch size builds the same world (same seed, same shape) with
    only the ledger-sync policy changed, runs it for ``horizon_s``,
    then has every device with an acknowledged report request one
    receipt so offline verification is exercised end to end.
    """
    if not batch_sizes:
        raise ExperimentError("need at least one batch size")
    points: list[SyncTradeoffPoint] = []
    for batch in batch_sizes:
        spec = dataclasses.replace(
            scaled_spec(
                n_networks,
                devices_per_network,
                seed=seed,
                transport=TransportSpec(kind="direct"),
            ),
            name=f"ledger-sync-b{batch}",
            ledger=LedgerSpec(sync_enabled=True, header_batch_size=batch),
            # Offline verifications are counted from their trace points,
            # which only an observed world keeps.
            obs=ObsSpec(enabled=True, profile=False),
        )
        scenario = build(spec)
        scenario.simulator.run_until(horizon_s)
        requested = 0
        for device in scenario.devices.values():
            acked = sorted(device.acked_sequences)
            if acked and device.connected:
                device.request_receipt(acked[0])
                requested += 1
        scenario.simulator.run_until(horizon_s + 2.0)

        devices = list(scenario.devices.values())
        n = len(devices)
        headers = sum(d.sync_stats.headers_applied for d in devices)
        traffic = sum(
            d.sync_stats.bytes_sent + d.sync_stats.bytes_received for d in devices
        )
        delay_sum = sum(d.sync_stats.delay_sum_s for d in devices)
        delay_samples = sum(d.sync_stats.delay_samples for d in devices)
        max_delay = max((d.sync_stats.delay_max_s for d in devices), default=0.0)
        offline = sum(
            1
            for span in scenario.simulator.spans.by_name("device.receipt_verified")
            if span.tags["offline"]
        )
        blocks = scenario.chain.height
        interval = spec.ledger.sync_interval_s
        if interval is None:
            from repro.chain.sync import SyncPolicy

            interval = SyncPolicy(batch_size=batch).effective_interval_s()
        points.append(
            SyncTradeoffPoint(
                batch_size=batch,
                sync_interval_s=interval,
                blocks_produced=blocks,
                headers_per_device=headers / n if n else 0.0,
                sync_bytes_per_device=traffic / n if n else 0.0,
                bytes_per_block_per_device=(
                    traffic / n / blocks if n and blocks else 0.0
                ),
                mean_delay_s=delay_sum / delay_samples if delay_samples else 0.0,
                max_delay_s=max_delay,
                receipts_verified_offline=offline,
                receipts_requested=requested,
            )
        )
    return points


# -- BENCH_ledger.json schema gate -------------------------------------------


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_POINT_KEYS = (
    "batch_size",
    "sync_interval_s",
    "blocks_produced",
    "headers_per_device",
    "sync_bytes_per_device",
    "bytes_per_block_per_device",
    "mean_delay_s",
    "max_delay_s",
    "receipts_verified_offline",
    "receipts_requested",
)

_PRUNING_KEYS = (
    "reports",
    "blocks_total",
    "blocks_retained",
    "retained_fraction",
    "receipts_sampled",
    "receipts_verified",
)


def validate_bench(data: Any) -> list[str]:
    """Schema-check a BENCH_ledger.json document; returns problems.

    An empty list means the document is well-formed AND demonstrates
    the acceptance bound: a delay-vs-traffic curve over >= 3 distinct
    batch sizes, and a pruned ledger retaining <= 10% of its blocks
    with every sampled receipt verifying.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["document is not an object"]
    if data.get("suite") != "ledger":
        problems.append(f"suite must be 'ledger', got {data.get('suite')!r}")
    configs = data.get("configs")
    if not isinstance(configs, dict) or not configs:
        problems.append("configs must be a non-empty object")
        return problems
    for name, config in configs.items():
        if not isinstance(config, dict):
            problems.append(f"{name}: config is not an object")
            continue
        curve = config.get("delay_vs_traffic")
        if not isinstance(curve, list) or len(curve) < 3:
            problems.append(f"{name}: delay_vs_traffic needs >= 3 points")
        else:
            batches = set()
            for i, point in enumerate(curve):
                if not isinstance(point, dict):
                    problems.append(f"{name}: point {i} is not an object")
                    continue
                for key in _POINT_KEYS:
                    if not _numeric(point.get(key)):
                        problems.append(f"{name}: point {i} key {key!r} not numeric")
                if _numeric(point.get("batch_size")):
                    batches.add(point["batch_size"])
            if len(batches) < 3:
                problems.append(f"{name}: needs >= 3 distinct batch sizes")
        pruning = config.get("pruning")
        if not isinstance(pruning, dict):
            problems.append(f"{name}: pruning section missing")
            continue
        for key in _PRUNING_KEYS:
            if not _numeric(pruning.get(key)):
                problems.append(f"{name}: pruning key {key!r} not numeric")
        if _numeric(pruning.get("retained_fraction")):
            if pruning["retained_fraction"] > MAX_RETAINED_FRACTION:
                problems.append(
                    f"{name}: retained_fraction {pruning['retained_fraction']} "
                    f"exceeds the {MAX_RETAINED_FRACTION} bound"
                )
        if _numeric(pruning.get("receipts_sampled")) and _numeric(
            pruning.get("receipts_verified")
        ):
            if pruning["receipts_verified"] != pruning["receipts_sampled"]:
                problems.append(
                    f"{name}: {pruning['receipts_verified']} of "
                    f"{pruning['receipts_sampled']} sampled receipts verified"
                )
    return problems
