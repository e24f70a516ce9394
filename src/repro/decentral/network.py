"""Devices metering, gossiping and agreeing on a common blockchain.

Round structure (period ``round_interval_s``):

1. **Gossip** — every device broadcasts the records it measured since
   the last round to every peer over the device mesh.  A device counts
   gossip only from a committee member's mesh identity, and only records
   carrying that member's own device uid.
2. **Settle** — a short wait (a few link latencies) lets views converge.
3. **Propose** — the round's proposer (rotating) batches *its own view*
   (its records plus everything gossiped to it) and starts a consensus
   round; the proposal names the gossip round it was built for.
4. **Validate** — for every member whose records a device holds for
   that round (its own, or that member's gossip), the batch must carry
   exactly those records **unaltered**; a proposer that drops, rewrites
   or adds a record under such a member's uid is voted down by everyone
   who holds that member's records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.chain.consensus_net import NetworkedPoaConsensus, NetworkedValidator, _Proposal
from repro.chain.hashing import hash_value
from repro.chain.ledger import Blockchain
from repro.device.firmware import Firmware
from repro.device.metering import EnergyMeter, Measurement
from repro.errors import ConsensusError
from repro.hw.ina219 import Ina219, Ina219Config
from repro.ids import AggregatorId, DeviceId
from repro.net.backhaul import BackhaulLink
from repro.sim.kernel import Simulator
from repro.transport.base import Mesh

LoadProfile = Callable[[float], float]


@dataclass(frozen=True)
class _Gossip:
    """One device's records for one round."""

    round_index: int
    origin: str
    records: tuple[dict[str, Any], ...]


class DecentralizedDevice(NetworkedValidator):
    """A self-metering device that is also a consensus validator.

    Args:
        simulator: The kernel.
        device_id: The device's identity.
        mesh: The device-to-device mesh (any
            :class:`~repro.transport.base.Mesh` implementation).
        load_profile: Grid-side draw over time (mA).
        t_measure_s: Sampling interval.
        voltage_v: Supply voltage for the energy computation.
    """

    def __init__(
        self,
        simulator: Simulator,
        device_id: DeviceId,
        mesh: Mesh,
        load_profile: LoadProfile,
        t_measure_s: float = 0.1,
        voltage_v: float = 3.3,
    ) -> None:
        node_id = AggregatorId(f"node-{device_id.name}")
        super().__init__(simulator, node_id, mesh)
        self._device_id = device_id
        self._mesh = mesh
        sensor = Ina219(Ina219Config(), self.rng("sensor"))
        self._meter = EnergyMeter(sensor, load_profile, voltage_v)
        self._firmware = Firmware(simulator, self._meter, self._on_measurement, t_measure_s)
        self._sequence = 0
        self._staged: list[dict[str, Any]] = []
        # What I know about each round: member device uid -> the hashes
        # of its records, for every member whose records I hold.
        self._view: dict[int, dict[str, set[str]]] = {}
        self._round_records: dict[int, list[dict[str, Any]]] = {}
        self._current_round = 0
        self._rejections = 0
        # Committee member mesh identity -> that member's device uid.
        self._committee: dict[AggregatorId, str] = {}

    @property
    def device_id(self) -> DeviceId:
        """The metered device's identity."""
        return self._device_id

    @property
    def meter(self) -> EnergyMeter:
        """This device's energy meter."""
        return self._meter

    @property
    def rejections(self) -> int:
        """Proposals this device voted against."""
        return self._rejections

    def start(self) -> None:
        """Begin sampling."""
        self._firmware.start()

    def stop(self) -> None:
        """Halt sampling."""
        self._firmware.stop()

    def _on_measurement(self, measurement: Measurement) -> None:
        record = {
            "device": self._device_id.name,
            "device_uid": self._device_id.uid,
            "sequence": self._sequence,
            "measured_at": measurement.measured_at,
            "interval_s": measurement.interval_s,
            "current_ma": measurement.current_ma,
            "voltage_v": measurement.voltage_v,
            "energy_mwh": measurement.energy_mwh,
        }
        self._sequence += 1
        self._staged.append(record)

    # -- gossip ---------------------------------------------------------

    def broadcast_round(self, round_index: int) -> list[dict[str, Any]]:
        """Gossip staged records to every peer; returns what was sent."""
        records = self._staged
        self._staged = []
        self._remember(round_index, self._device_id.uid, records)
        gossip = _Gossip(round_index, self._device_id.name, tuple(records))
        self._mesh.broadcast(self.node_id, gossip)
        self.trace("decentral.gossip", round=round_index, records=len(records))
        return records

    def _remember(
        self, round_index: int, uid: str, records: list[dict[str, Any]]
    ) -> None:
        """Keep member ``uid``'s records for a round (its own or its gossip)."""
        view = self._view.setdefault(round_index, {})
        bucket = self._round_records.setdefault(round_index, [])
        for record in records:
            view.setdefault(uid, set()).add(hash_value(record))
            bucket.append(record)
        # Bound memory: forget rounds older than a few.
        for old in [r for r in self._view if r < round_index - 4]:
            del self._view[old]
            self._round_records.pop(old, None)

    def round_view(self, round_index: int) -> list[dict[str, Any]]:
        """Everything this device knows for a round (own + gossiped)."""
        return list(self._round_records.get(round_index, []))

    def enter_round(self, round_index: int) -> None:
        """Advance the validator's round clock (set by the coordinator):
        the round a proposal that names none is checked against."""
        self._current_round = round_index

    def set_committee(self, members: dict[AggregatorId, str]) -> None:
        """Install the committee: member mesh identity -> its device uid."""
        self._committee = dict(members)

    def _on_message(self, source: AggregatorId, payload: Any) -> None:
        if isinstance(payload, _Gossip):
            uid = self._committee.get(source)
            if uid is None or any(r.get("device_uid") != uid for r in payload.records):
                self.trace(
                    "decentral.gossip_ignored",
                    round=payload.round_index,
                    source=source.name,
                )
                return
            self._remember(payload.round_index, uid, list(payload.records))
            return
        super()._on_message(source, payload)

    # -- validation -------------------------------------------------------

    def accepts(self, proposal: _Proposal) -> bool:
        """Accept only batches consistent with my view of their round.

        The round is the one the proposal was built for.  For every
        member whose records I hold that round (mine, or its gossip),
        the batch's records under that member's uid must be exactly
        those, byte-identical: a missing record is a drop, a different
        one a rewrite, an extra one a forgery.  Records of a member I
        have not heard from yet are tolerated (its gossip to me may have
        raced the proposal).
        """
        round_index = self._current_round if proposal.view_round is None else proposal.view_round
        view = self._view.get(round_index, {})
        proposed: dict[str, set[str]] = {uid: set() for uid in view}
        for record in proposal.records:
            filed = proposed.get(str(record.get("device_uid")))
            if filed is not None:
                filed.add(hash_value(record))
        if proposed != view:
            self._rejections += 1
            return False
        return True


class DecentralizedNetwork:
    """Round coordinator for a committee of decentralized devices.

    Args:
        simulator: The kernel.
        devices: The committee (also the validator set).
        chain: The common blockchain.
        link_latency_s: Device-to-device mesh latency (fully meshed).
        round_interval_s: Gossip-and-commit period.
        gossip_settle_s: Wait between gossip and proposal.
    """

    def __init__(
        self,
        simulator: Simulator,
        devices: list[DecentralizedDevice],
        chain: Blockchain,
        link_latency_s: float = 0.002,
        round_interval_s: float = 1.0,
        gossip_settle_s: float = 0.05,
    ) -> None:
        if len(devices) < 2:
            raise ConsensusError("a decentralized committee needs >= 2 devices")
        if round_interval_s <= gossip_settle_s:
            raise ConsensusError("round interval must exceed the gossip settle time")
        self._sim = simulator
        self._devices = list(devices)
        self._chain = chain
        self._round_interval_s = round_interval_s
        self._gossip_settle_s = gossip_settle_s
        members = {device.node_id: device.device_id.uid for device in devices}
        for device in devices:
            device.set_committee(members)
        # Fully mesh the committee.
        for i, a in enumerate(devices):
            for b in devices[i + 1:]:
                a.mesh.connect(
                    BackhaulLink(a.node_id, b.node_id, latency_s=link_latency_s)
                )
        self._consensus = NetworkedPoaConsensus(simulator, devices, chain)
        self._round_index = 0
        self._commits = 0
        self._failures = 0
        self._latencies: list[float] = []
        self._task = None

    @property
    def commits(self) -> int:
        """Rounds that committed a block."""
        return self._commits

    @property
    def failures(self) -> int:
        """Rounds rejected by the committee."""
        return self._failures

    @property
    def commit_latencies(self) -> list[float]:
        """Consensus latency of every decided round."""
        return list(self._latencies)

    def start(self) -> None:
        """Start sampling on every device and begin rounds."""
        for device in self._devices:
            device.start()
        if self._task is None:
            self._task = self._sim.every(
                self._round_interval_s, self._run_round, label="decentral:round"
            )

    def stop(self) -> None:
        """Stop rounds and sampling."""
        if self._task is not None:
            self._task.stop()
            self._task = None
        for device in self._devices:
            device.stop()

    def drain(self) -> None:
        """Stop sampling, then run one final round for the leftovers.

        Without this, measurements taken after the last periodic round
        would stay staged forever when the committee shuts down.
        """
        self.stop()
        self._run_round()

    def _run_round(self) -> None:
        round_index = self._round_index
        self._round_index += 1
        for device in self._devices:
            device.enter_round(round_index)
            device.broadcast_round(round_index)
        proposer = self._devices[round_index % len(self._devices)]

        def _propose() -> None:
            batch = proposer.round_view(round_index)
            if not batch:
                return
            self._consensus.propose(batch, self._on_decided, view_round=round_index)

        self._sim.call_later(self._gossip_settle_s, _propose, label="decentral:propose")

    def _on_decided(self, committed: bool, latency_s: float) -> None:
        if committed:
            self._commits += 1
        else:
            self._failures += 1
        self._latencies.append(latency_s)
