"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the *shape* of a simulation world as plain
data: which networks exist, which devices live in them and under what
load profile, how the backhaul mesh is wired, and which faults strike
when.  Specs round-trip losslessly through JSON (``to_dict`` /
``from_dict``, shared by every spec through
:class:`~repro.runtime.codec.SpecCodec`), so a scenario can live in a
file, travel in an experiment report, or be generated programmatically
for sweeps — protocol-parameter studies demand that scenario shape be
data, not code.

:func:`repro.runtime.build.build` compiles a spec into a fully wired
:class:`~repro.runtime.scenario.Scenario`; the canonical shapes (the
paper's 2x2 testbed, the scaled N x M worlds, the chaos variants) are
produced by the factories in :mod:`repro.workloads.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError
from repro.runtime.codec import SpecCodec

PROFILE_KINDS = ("constant", "duty_cycle", "sinusoid")
MESH_TOPOLOGIES = ("full", "line", "star", "explicit")
TRANSPORT_KINDS = ("mqtt", "direct", "serve")
FAULT_KINDS = (
    "channel_blackout",
    "channel_noise",
    "broker_noise",
    "aggregator_crash",
    "backhaul_partition",
)


@dataclass(frozen=True)
class ProfileSpec(SpecCodec):
    """A load-current profile as data.

    Attributes:
        kind: One of ``constant`` / ``duty_cycle`` / ``sinusoid``.
        params: Keyword arguments of the profile class (e.g.
            ``{"mean_ma": 120.0, "amplitude_ma": 100.0}``).
    """

    kind: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(
                f"profile kind must be one of {PROFILE_KINDS}, got {self.kind!r}"
            )

    def build(self) -> Callable[[float], float]:
        """Instantiate the deterministic ``t -> mA`` callable."""
        # Imported lazily: repro.workloads.* imports repro.runtime at
        # module level, so the reverse edge must resolve at call time.
        from repro.workloads.profiles import (
            ConstantProfile,
            DutyCycleProfile,
            SinusoidProfile,
        )

        classes = {
            "constant": ConstantProfile,
            "duty_cycle": DutyCycleProfile,
            "sinusoid": SinusoidProfile,
        }
        try:
            return classes[self.kind](**self.params)
        except TypeError as exc:
            raise ConfigError(f"bad {self.kind} profile params {self.params}: {exc}") from exc


@dataclass(frozen=True)
class NetworkSpec(SpecCodec):
    """One grid network and its aggregator.

    Attributes:
        name: Aggregator / network name (``agg1``, ``net-0``, ...).
        supply_voltage_v: Grid-side supply voltage of the network.
        wire_resistance_ohms: Default feeder wire resistance.
        wire_leakage_ma: Default feeder leakage current.
        slot_count: TDMA slots (None: the aggregator default, or the
            builder's devices-derived choice).
    """

    name: str
    supply_voltage_v: float = 5.0
    wire_resistance_ohms: float = 0.1
    wire_leakage_ma: float = 2.5
    slot_count: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("network name must be non-empty")
        if self.supply_voltage_v <= 0:
            raise ConfigError(
                f"supply voltage must be positive, got {self.supply_voltage_v}"
            )
        if self.slot_count is not None and self.slot_count < 1:
            raise ConfigError(f"slot count must be >= 1, got {self.slot_count}")


@dataclass(frozen=True)
class DeviceSpec(SpecCodec):
    """One metering device.

    Attributes:
        name: Device name.
        network: Home network it is scheduled to enter.
        profile: Load profile specification.
        enter_at: When the device enters its home network (None: never —
            a mobility itinerary or manual :meth:`Scenario.enter_at`
            drives it instead).
        distance_m: Radio distance to the home AP on entry.
    """

    name: str
    network: str
    profile: ProfileSpec
    enter_at: float | None = 0.0
    distance_m: float = 5.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("device name must be non-empty")
        if self.enter_at is not None and self.enter_at < 0:
            raise ConfigError(f"enter_at must be >= 0, got {self.enter_at}")
        if self.distance_m <= 0:
            raise ConfigError(f"distance must be positive, got {self.distance_m}")


@dataclass(frozen=True)
class MeshSpec(SpecCodec):
    """Backhaul mesh shape.

    Attributes:
        topology: ``full`` (every pair linked), ``line`` (a chain in
            network order), ``star`` (everyone through the first
            network), or ``explicit`` (exactly :attr:`links`).
        latency_s: Latency of every link.
        links: Explicit ``(a, b)`` name pairs (``explicit`` only).
    """

    topology: str = "full"
    latency_s: float = 0.001
    links: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.topology not in MESH_TOPOLOGIES:
            raise ConfigError(
                f"mesh topology must be one of {MESH_TOPOLOGIES}, got {self.topology!r}"
            )
        if self.latency_s <= 0:
            raise ConfigError(f"mesh latency must be positive, got {self.latency_s}")
        if self.links and self.topology != "explicit":
            raise ConfigError("explicit links require topology='explicit'")

    def resolve_links(self, names: list[str]) -> list[tuple[str, str]]:
        """The concrete link list for networks ``names`` (in order)."""
        if self.topology == "full":
            return [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        if self.topology == "line":
            return list(zip(names, names[1:]))
        if self.topology == "star":
            return [(names[0], other) for other in names[1:]]
        return [tuple(pair) for pair in self.links]


@dataclass(frozen=True)
class TransportSpec(SpecCodec):
    """Which wire backend carries device-to-aggregator traffic.

    Attributes:
        kind: ``mqtt`` (full radio fidelity — airtime, RSSI loss,
            connect jitter; the default, and the backend the pinned
            determinism digest is taken on), ``direct`` (in-process
            topic router with fixed latency/loss, for large fleets) or
            ``serve`` (the direct router carrying codec-encoded bytes for
            serve mode; it takes the ``direct`` parameters below).
        latency_s: Per-attempt link latency (``direct`` only).
        loss_p: Per-attempt loss probability (``direct`` only; 0
            disables the loss draw entirely).
        connect_s: Session connect latency (``direct`` only; the MQTT
            backend models its own connect jitter).
        scan_s: Fixed network-scan latency (``direct`` only).
        assoc_s: Fixed association latency (``direct`` only).
    """

    kind: str = "mqtt"
    latency_s: float = 0.0005
    loss_p: float = 0.0
    connect_s: float = 0.35
    scan_s: float = 4.29
    assoc_s: float = 1.2

    def __post_init__(self) -> None:
        if self.kind not in TRANSPORT_KINDS:
            raise ConfigError(
                f"transport kind must be one of {TRANSPORT_KINDS}, got {self.kind!r}"
            )
        if self.latency_s < 0:
            raise ConfigError(f"transport latency must be >= 0, got {self.latency_s}")
        if not 0.0 <= self.loss_p < 1.0:
            raise ConfigError(f"transport loss must be in [0, 1), got {self.loss_p}")
        if self.connect_s <= 0:
            raise ConfigError(
                f"transport connect latency must be positive, got {self.connect_s}"
            )
        if self.scan_s < 0 or self.assoc_s < 0:
            raise ConfigError(
                f"scan/assoc latencies must be >= 0, got {self.scan_s}/{self.assoc_s}"
            )

    def build(self, channel: Any = None) -> Any:
        """Instantiate the :class:`~repro.transport.base.Transport`.

        Args:
            channel: The scenario's wireless channel (``mqtt`` only).
        """
        # Imported lazily, matching ProfileSpec.build: keep the spec
        # layer importable without pulling in every backend.
        if self.kind == "mqtt":
            from repro.transport.mqtt import MqttTransport

            return MqttTransport(channel)
        from repro.transport.direct import DirectTransport

        return DirectTransport(
            latency_s=self.latency_s,
            loss_p=self.loss_p,
            connect_s=self.connect_s,
            scan_s=self.scan_s,
            assoc_s=self.assoc_s,
            wire_bytes=self.kind == "serve",
        )


@dataclass(frozen=True)
class ObsSpec(SpecCodec):
    """Observability configuration for a run.

    Default **off**: a spec without an ``obs`` block builds the exact
    same world as before this layer existed (the pinned determinism
    digest depends on it — span recording never perturbs the event
    order, but the default keeps old spec files byte-identical on
    round-trip).

    Attributes:
        enabled: Master switch; off means no spans and no profiler.
        spans: Record protocol-conversation spans (when enabled).
        profile: Install the kernel wall-clock profiler (when enabled);
            it samples events/sec every
            :data:`~repro.obs.profiler.SAMPLE_EVERY` events.
    """

    enabled: bool = False
    spans: bool = True
    profile: bool = True


@dataclass(frozen=True)
class LedgerSpec(SpecCodec):
    """Ledger sync, checkpointing and pruning configuration.

    Default **off** on every axis: a spec without a ``ledger`` block
    builds the exact world that existed before this layer (the pinned
    determinism digest depends on it).

    Attributes:
        sync_enabled: Devices run the lightweight-client header sync
            (Danzi et al., arXiv:1807.07422): periodic header-batch
            requests over the control topic, offline receipt
            verification against the local header chain.
        header_batch_size: Headers requested per batch — the
            delay-vs-traffic knob of the Danzi study.
        sync_interval_s: Fixed sync period (None: derived from the
            batch size so a client keeps up with block production).
        checkpoint_interval_blocks: Commit a checkpoint every N blocks
            (0: no checkpoints).
        pruning_depth_blocks: Blocks kept behind the latest checkpoint
            (0: never prune; > 0 requires checkpointing).
    """

    sync_enabled: bool = False
    header_batch_size: int = 16
    sync_interval_s: float | None = None
    checkpoint_interval_blocks: int = 0
    pruning_depth_blocks: int = 0

    def __post_init__(self) -> None:
        if self.header_batch_size < 1:
            raise ConfigError(
                f"header batch size must be >= 1, got {self.header_batch_size}"
            )
        if self.sync_interval_s is not None and self.sync_interval_s <= 0:
            raise ConfigError(
                f"sync interval must be positive, got {self.sync_interval_s}"
            )
        if self.checkpoint_interval_blocks < 0:
            raise ConfigError(
                f"checkpoint interval must be >= 0, got {self.checkpoint_interval_blocks}"
            )
        if self.pruning_depth_blocks < 0:
            raise ConfigError(
                f"pruning depth must be >= 0, got {self.pruning_depth_blocks}"
            )
        if self.pruning_depth_blocks > 0 and self.checkpoint_interval_blocks == 0:
            raise ConfigError(
                "pruning requires checkpointing (set checkpoint_interval_blocks)"
            )


@dataclass(frozen=True)
class VectorSpec(SpecCodec):
    """Vectorized (array-backed cohort) execution configuration.

    Default **off**: a spec without a ``vector`` block builds and runs
    exactly as before this layer existed.  When on, steady-state devices
    fold into per-aggregator cohort actors (:mod:`repro.vector`) that
    execute one kernel event per tick for the whole cohort; the digest,
    counters, summaries and monitoring exports stay bit-identical to the
    scalar path on steady-state runs.  Only the ``direct`` transport is
    vectorizable — on ``mqtt`` the flag is accepted but inert.

    Attributes:
        enabled: Master switch.
    """

    enabled: bool = False


@dataclass(frozen=True)
class ServeSpec(SpecCodec):
    """Serve-mode configuration: the aggregator as a networked service.

    Default **off**: a spec without a ``serve`` block builds and runs
    exactly as before this layer existed (the pinned determinism digest
    depends on it).  When enabled, ``repro.cli serve`` (or
    :class:`repro.serve.AggregatorService` directly) hosts the world
    behind a threaded HTTP server: external clients register, ingest
    batched reports, poll alerts and fetch ledger proofs over a real
    socket while the simulation kernel advances on demand.

    Attributes:
        enabled: Master switch (the CLI refuses to serve a spec whose
            block is off unless ``--force`` is given).
        host: Bind address of the HTTP server.
        port: Bind port (0: an ephemeral port, reported at startup).
        network: Name of the served network/aggregator (None: the
            spec's first network).
        step_s: Simulated seconds the kernel advances per ingestion
            step — one full aggregator duty cycle (processing latency,
            downlink, feeder tick, block flush) per batch.
        poll_timeout_s: Default and longest long-poll wait of ``GET
            /alerts``: a client's ``timeout_s`` is capped at it.
    """

    enabled: bool = False
    host: str = "127.0.0.1"
    port: int = 0
    network: str | None = None
    step_s: float = 1.0
    poll_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigError("serve host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"serve port must be in [0, 65535], got {self.port}")
        if self.step_s <= 0:
            raise ConfigError(f"serve step must be positive, got {self.step_s}")
        if self.poll_timeout_s < 0:
            raise ConfigError(
                f"serve poll timeout must be >= 0, got {self.poll_timeout_s}"
            )


@dataclass(frozen=True)
class FaultSpec(SpecCodec):
    """One named fault window.

    Attributes:
        kind: ``channel_blackout`` / ``channel_noise`` / ``broker_noise``
            / ``aggregator_crash`` / ``backhaul_partition``.
        name: Unique fault name (counters appear as
            ``fault.<name>.activations``).
        start_at: When the fault strikes.
        duration_s: Window length (None: open-ended noise).
        target: The struck component — the injector name for channel
            faults, the network name for broker/aggregator faults.
        groups: Partition groups of network names
            (``backhaul_partition`` only).
        params: Noise probabilities (``drop_p``, ``duplicate_p``,
            ``delay_p``, ``delay_s``, ``corrupt_p``) for noise kinds.
    """

    kind: str
    name: str
    start_at: float
    duration_s: float | None = None
    target: str | None = None
    groups: tuple[tuple[str, ...], ...] = ()
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not self.name:
            raise ConfigError("fault name must be non-empty")
        if self.start_at < 0:
            raise ConfigError(f"fault start must be >= 0, got {self.start_at}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigError(
                f"fault duration must be positive, got {self.duration_s}"
            )
        if self.kind in ("channel_blackout", "aggregator_crash") and self.duration_s is None:
            raise ConfigError(f"{self.kind} fault {self.name!r} needs a duration")
        if self.kind == "backhaul_partition":
            if self.duration_s is None:
                raise ConfigError(f"partition fault {self.name!r} needs a duration")
            if len(self.groups) < 2:
                raise ConfigError(f"partition fault {self.name!r} needs >= 2 groups")
        if self.kind in ("broker_noise", "aggregator_crash") and not self.target:
            raise ConfigError(f"{self.kind} fault {self.name!r} needs a target")


@dataclass(frozen=True)
class ScenarioSpec(SpecCodec):
    """A complete simulation world as data.

    Attributes:
        name: Human-readable scenario name (provenance only).
        seed: Master seed for every random stream.
        t_measure_s: Reporting interval shared by devices/aggregators.
        device_retry: Whether devices run the Ack-timeout retry path.
        networks: The grid networks (one aggregator each).
        devices: The metering devices.
        mesh: Backhaul shape over the networks.
        transport: Wire backend between devices and aggregators
            (default: full-fidelity ``mqtt``, so existing specs are
            unchanged).
        faults: Deterministic fault schedule (empty: a clean world).
        obs: Observability configuration (default off — see
            :class:`ObsSpec`).
        ledger: Ledger sync / checkpoint / pruning configuration
            (default off — see :class:`LedgerSpec`).
        vector: Vectorized-execution configuration (default off — see
            :class:`VectorSpec`).
        serve: Serve-mode configuration (default off — see
            :class:`ServeSpec`).
    """

    networks: tuple[NetworkSpec, ...]
    devices: tuple[DeviceSpec, ...] = ()
    name: str = "scenario"
    seed: int = 0
    t_measure_s: float = 0.1
    device_retry: bool = True
    mesh: MeshSpec = field(default_factory=MeshSpec)
    transport: TransportSpec = field(default_factory=TransportSpec)
    faults: tuple[FaultSpec, ...] = ()
    obs: ObsSpec = field(default_factory=ObsSpec)
    ledger: LedgerSpec = field(default_factory=LedgerSpec)
    vector: VectorSpec = field(default_factory=VectorSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative int, got {self.seed!r}")
        if self.t_measure_s <= 0:
            raise ConfigError(f"t_measure must be positive, got {self.t_measure_s}")
        if not self.networks:
            raise ConfigError("a scenario needs at least one network")
        network_names = [n.name for n in self.networks]
        if len(set(network_names)) != len(network_names):
            raise ConfigError(f"duplicate network names in {network_names}")
        device_names = [d.name for d in self.devices]
        if len(set(device_names)) != len(device_names):
            raise ConfigError(f"duplicate device names in {device_names}")
        known = set(network_names)
        for device in self.devices:
            if device.network not in known:
                raise ConfigError(
                    f"device {device.name!r} references unknown network "
                    f"{device.network!r} (have {sorted(known)})"
                )
        for a, b in self.mesh.resolve_links(network_names):
            if a not in known or b not in known:
                raise ConfigError(f"mesh link ({a!r}, {b!r}) references unknown network")
        if self.serve.network is not None and self.serve.network not in known:
            raise ConfigError(
                f"serve block references unknown network {self.serve.network!r} "
                f"(have {sorted(known)})"
            )
        fault_names = [f.name for f in self.faults]
        if len(set(fault_names)) != len(fault_names):
            raise ConfigError(f"duplicate fault names in {fault_names}")
        for fault in self.faults:
            if fault.kind in ("broker_noise", "aggregator_crash") and fault.target not in known:
                raise ConfigError(
                    f"fault {fault.name!r} targets unknown network {fault.target!r}"
                )
            for group in fault.groups:
                for member in group:
                    if member not in known:
                        raise ConfigError(
                            f"fault {fault.name!r} partitions unknown network {member!r}"
                        )

    @property
    def network_names(self) -> list[str]:
        """Network names in declaration order."""
        return [n.name for n in self.networks]

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a JSON document."""
        import json

        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON document produced by :meth:`to_json`."""
        import json

        return cls.from_dict(json.loads(text))
