"""Array-backed cohort actor for steady-state metering devices.

One :class:`VectorFleet` per scenario watches the device population.  A
periodic scan folds every *quiescent* device — registered home member,
connected, empty store, no in-flight reports, no faults anywhere near
its path — into a per-(aggregator, tick-phase) cohort.  Each cohort
replaces its members' per-device firmware tasks with **one** kernel
event per measurement tick (plus one shared delivery event per instant),
computing the INA219 sampling, energy accounting, RTC stamping and MCU
power-state bookkeeping across the whole cohort in arrays.

The moment anything interesting happens to a member — roaming, an
injected fault, an anomaly Nack, a management command, a ledger-sync
policy — the device **de-vectorizes**: its arrays are written back (they
are written back eagerly every tick anyway), its sensor-noise RNG is
replayed to the exact scalar position, and its real
:class:`~repro.device.stack.MeteringDevice` firmware task resumes on the
same tick grid.  It may re-join a cohort at a later scan once quiescent
again.

Determinism contract (holds for steady-state runs, i.e. runs where no
member de-vectorizes): ledger digest, counters, summaries and
monitoring exports are bit-identical to the scalar path.  The fleet
achieves this by

* drawing per-device sensor noise and per-report host latencies from
  the *same* RNG streams in the *same* order as the scalar path (batch
  draws are bit-compatible with sequential draws),
* replicating the scalar operation order of every float expression,
* processing reports inline only when no other kernel event falls
  before the report's arrival time, and deferring to the real
  ``AggregatorUnit._process_report`` otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Any

from repro.aggregator.membership import MembershipKind
from repro.hw.esp32 import McuState
from repro.protocol.device_fsm import DevicePhase
from repro.protocol.messages import ConsumptionReport
from repro.transport.direct import DirectHub, DirectLink, DirectTransport
from repro.vector.backend import NumpyBackend

if TYPE_CHECKING:
    from repro.device.stack import MeteringDevice
    from repro.runtime.scenario import Scenario

_IDLE_INDEX = McuState.IDLE.index

#: Sensor-noise draws prefetched per member between generator snapshots.
_NOISE_BLOCK = 64

#: How often the fleet scans for quiescent devices to vectorize (and
#: re-vectorize after a de-vectorization), in simulated seconds.
SCAN_INTERVAL_S = 1.0

#: Smallest device group worth folding into arrays.
MIN_COHORT = 2


class _Member:
    """Cached per-device handles for the cohort hot loops."""

    __slots__ = (
        "device", "unit", "meter", "sensor", "firmware", "mcu", "rtc",
        "profile", "idle_ma", "noise_std", "noise_state", "name", "uid",
        "device_id", "reports_key", "published_key", "series",
    )

    def __init__(self, device: "MeteringDevice", unit: Any) -> None:
        self.device = device
        self.unit = unit
        self.meter = device._meter
        self.sensor = device._sensor
        self.firmware = device._firmware
        self.mcu = device._mcu
        self.rtc = device._rtc
        self.profile = device._load_profile
        self.idle_ma = device._mcu._draw_by_index[_IDLE_INDEX]
        self.noise_std = device._sensor._config.noise_std_ma
        self.noise_state = None
        self.name = device.name
        self.device_id = device._device_id
        self.uid = device._device_id.uid
        self.reports_key = f"{device.name}.reports_sent"
        self.published_key = f"{device.name}-link.published"
        # Same cache the scalar report path fills on first report.
        received_keys = unit._received_keys
        key = received_keys.get(self.device_id)
        if key is None:
            key = received_keys[self.device_id] = f"received:{self.device_id.name}"
        self.series = unit._bank.series(key, "mA")


class Cohort:
    """Devices of one aggregator sharing one measurement-tick phase."""

    def __init__(self, fleet: "VectorFleet", unit: Any, interval_s: float,
                 first_tick: float, index: int) -> None:
        self._fleet = fleet
        self._sim = fleet._sim
        self._backend = fleet._backend
        self._unit = unit
        self._interval_s = interval_s
        self.next_tick = first_tick
        self._members: list[_Member] = []
        self._seqs: list[int] = []
        self._task = None
        self.sample_label = f"vector:sample:{unit.name}:{index}"
        # Parallel arrays, one slot per member (rebuilt on join/release).
        self._gain = None
        self._offset = None
        self._lsb = None
        self._range = None
        self._voltage = None
        self._ppm = None
        self._aging = None
        self._last_sync = None
        self._energy_total = None
        self._true_total = None
        self._idle_time = None
        self._entered_at = None
        self._noise_ticks: list = []
        self._noise_cursor = 0

    def __len__(self) -> int:
        return len(self._members)

    @property
    def members(self) -> list["_Member"]:
        return list(self._members)

    @property
    def interval_s(self) -> float:
        return self._interval_s

    # -- membership -----------------------------------------------------

    def add(self, device: "MeteringDevice", unit: Any) -> None:
        """Fold ``device`` in: cancel its firmware task, take over its
        pending tick, and extend the arrays."""
        member = _Member(device, unit)
        device._firmware.stop()
        members = list(self._members)
        members.append(member)
        seqs = list(self._seqs)
        seqs.append(device._sequence)
        self._install(members, seqs)
        device._vector_cohort = self
        self._fleet._watch_link(device)
        if self._task is None:
            self._task = self._sim.every(
                self._interval_s, self._tick,
                first_at=self.next_tick, label=self.sample_label,
            )

    def release(self, device: "MeteringDevice", reason: str) -> None:
        """De-vectorize ``device`` back to its full per-object actor.

        All observable device state is written back eagerly every tick,
        so only two things remain: replaying the sensor-noise stream to
        the exact position the scalar path would have reached, and
        re-arming the real firmware task on the same tick grid.
        """
        index = None
        for i, member in enumerate(self._members):
            if member.device is device:
                index = i
                break
        if index is None:
            return
        member = self._members[index]
        self._replay_noise()
        members = list(self._members)
        del members[index]
        seqs = list(self._seqs)
        del seqs[index]
        self._install(members, seqs)
        device._vector_cohort = None
        first_at = self.next_tick
        if first_at < self._sim.clock.now:
            # The cohort already ticked at this instant; resume on the
            # following grid point (matches the periodic re-arm).
            first_at = self._sim.clock.now + self._interval_s
        device._firmware.start(first_at=first_at)
        # Re-arm the cohort task AFTER the released device's firmware so
        # the fresh cohort event sequences after it: at a shared tick
        # instant the scalar device then transmits (and creates the hub
        # drain event) before the cohort stages its delivery, keeping
        # the host latency draws in scalar arrival order.
        if self._task is not None:
            self._task.stop()
            self._task = None
        if self._members:
            self._task = self._sim.every(
                self._interval_s, self._tick,
                first_at=first_at, label=self.sample_label,
            )
        device.trace("device.devectorized", reason=reason)

    def _install(self, members: list[_Member], seqs: list[int]) -> None:
        """Swap in a new member list and rebuild every parallel array."""
        # Rewind any outstanding noise block first: successive add()
        # calls in one scan each rebuild, and without the rewind every
        # previously-added member's generator would skip a whole block.
        self._replay_noise()
        backend = self._backend
        self._members = members
        self._seqs = seqs
        self._gain = backend.from_list([m.sensor._gain for m in members])
        self._offset = backend.from_list([m.sensor._offset_ma for m in members])
        self._lsb = backend.from_list([m.sensor._config.lsb_ma for m in members])
        self._range = backend.from_list([m.sensor._config.range_ma for m in members])
        self._voltage = backend.from_list([m.meter._voltage_v for m in members])
        self._ppm = backend.from_list([m.rtc._ppm for m in members])
        self._aging = backend.from_list([m.rtc._aging_ppm_per_year for m in members])
        self._last_sync = backend.from_list(
            [m.rtc._last_sync_true_time for m in members]
        )
        self._energy_total = backend.from_list(
            [m.meter._total_energy_mwh for m in members]
        )
        self._true_total = backend.from_list(
            [m.meter._total_true_energy_mwh for m in members]
        )
        self._idle_time = backend.from_list(
            [m.mcu._time_by_index[_IDLE_INDEX] for m in members]
        )
        self._entered_at = backend.from_list(
            [m.mcu._state_entered_at for m in members]
        )
        self._prefetch_noise()

    # -- sensor-noise stream management ---------------------------------

    def _prefetch_noise(self) -> None:
        """Snapshot each member's sensor generator and draw a block.

        A block draw consumes the stream exactly like the same number of
        sequential scalar draws, so a member can later be rewound to any
        intermediate position (see :meth:`_replay_noise`).
        """
        backend = self._backend
        blocks = []
        for member in self._members:
            if member.noise_std > 0:
                gen = member.sensor._rng
                member.noise_state = gen.bit_generator.state
                blocks.append(backend.noise_block(gen, member.noise_std, _NOISE_BLOCK))
            else:
                member.noise_state = None
                blocks.append([0.0] * _NOISE_BLOCK)
        self._noise_ticks = [
            backend.from_list([block[k] for block in blocks])
            for k in range(_NOISE_BLOCK)
        ]
        self._noise_cursor = 0

    def _replay_noise(self) -> None:
        """Rewind every member's sensor generator to the consumed
        position: restore the pre-block snapshot, then redraw exactly
        the consumed count (bit-compatible with sequential draws)."""
        consumed = self._noise_cursor
        for member in self._members:
            if member.noise_state is None:
                continue
            gen = member.sensor._rng
            gen.bit_generator.state = member.noise_state
            if consumed:
                gen.normal(0.0, member.noise_std, size=consumed)
            member.noise_state = None
        self._noise_ticks = []
        self._noise_cursor = 0

    # -- the measurement tick (event A) ---------------------------------

    def _tick(self) -> None:
        members = self._members
        if not members:
            return
        backend = self._backend
        now = self._sim.clock.now
        self.next_tick = now + self._interval_s
        # A time-sync round at this instant fired before us (it was
        # armed earlier); all member clocks discipline together, so one
        # representative detects it.
        if members[0].rtc._last_sync_true_time != self._last_sync[0]:
            self._last_sync = backend.from_list(
                [m.rtc._last_sync_true_time for m in members]
            )
        # Ground truth: load profile + MCU idle draw (the scalar sample
        # runs before the WIFI_TX transition, so the MCU reads IDLE).
        true_list = [m.profile(now) + m.idle_ma for m in members]
        true_arr = backend.from_list(true_list)
        bad = backend.any_out_of_range(true_arr, self._range)
        if bad is not None:
            from repro.errors import SensorRangeError

            member = members[bad]
            raise SensorRangeError(
                f"current {true_list[bad]} mA exceeds "
                f"+/-{member.sensor._config.range_ma} mA range"
            )
        if self._noise_cursor >= len(self._noise_ticks):
            self._prefetch_noise()
        noise = self._noise_ticks[self._noise_cursor]
        self._noise_cursor += 1
        reading, energy = backend.sample(
            true_arr, self._gain, self._offset, noise, self._lsb,
            self._voltage, self._interval_s, self._energy_total, self._true_total,
        )
        measured = backend.rtc_read(now, self._last_sync, self._ppm, self._aging)
        backend.accumulate_idle(self._idle_time, self._entered_at, now)

        current_list = backend.to_list(reading)
        energy_list = backend.to_list(energy)
        measured_list = backend.to_list(measured)
        energy_total_list = backend.to_list(self._energy_total)
        true_total_list = backend.to_list(self._true_total)
        idle_list = backend.to_list(self._idle_time)

        counts = self._fleet._counts
        counts_get = counts.get
        seqs = self._seqs
        tick_seqs = []
        for i, member in enumerate(members):
            device = member.device
            meter = member.meter
            meter._total_energy_mwh = energy_total_list[i]
            meter._total_true_energy_mwh = true_total_list[i]
            member.sensor._readings_taken += 1
            member.firmware._samples_taken += 1
            sequence = seqs[i]
            tick_seqs.append(sequence)
            seqs[i] = sequence + 1
            device._sequence = sequence + 1
            mcu = member.mcu
            mcu._time_by_index[_IDLE_INDEX] = idle_list[i]
            mcu._state_entered_at = now
            counts[member.reports_key] = counts_get(member.reports_key, 0) + 1
            counts[member.published_key] = counts_get(member.published_key, 0) + 1
        # The whole tick's reports route through the hub in one batch in
        # the scalar path; account them here (the hub never sees them).
        self._unit._broker._messages_routed += len(members)
        self._fleet._stage_delivery(
            self, now, members, tick_seqs, current_list, energy_list, measured_list
        )


class VectorFleet:
    """Scenario-wide coordinator: scans, cohorts, shared delivery."""

    def __init__(self, scenario: "Scenario") -> None:
        self._scenario = scenario
        context = scenario.context
        self._sim = scenario.simulator
        self._counts = context.counters._counts
        self._backend = NumpyBackend
        self._latency_s = scenario.transport.latency_s
        self._cohorts: list[Cohort] = []
        self._cohort_counter = 0
        self._pending: list[tuple] = []
        self._deliver_armed = False
        self.deliver_label = "vector:deliver"
        self._last_deliver_weight = 0
        self._watched_links: set[int] = set()
        self._units_by_hub: dict[int, Any] = {}
        transport = scenario.transport
        if isinstance(transport, DirectTransport):
            transport._state_watchers.append(self._on_transport_fault)
        for unit in scenario.aggregators.values():
            hub = unit._broker
            if isinstance(hub, DirectHub):
                self._units_by_hub[id(hub)] = unit
                hub._state_watchers.append(self._on_hub_fault)
        # Phase the scan off the measurement grid: a scan landing on the
        # exact tick instant races same-instant firmware events (float
        # drift decides which side fires first) and always sees the
        # just-sent report in flight.  Mid-interval the steady-state
        # fleet is quiescent — reports acked, MCU idle, store empty.
        first_scan = self._sim.clock.now + SCAN_INTERVAL_S * 0.55
        self._scan_task = self._sim.every(
            SCAN_INTERVAL_S, self._scan, first_at=first_scan,
            label="vector:scan",
        )
        profiler = self._sim.profiler
        if profiler is not None:
            profiler.set_weight(
                self.deliver_label, lambda: self._last_deliver_weight
            )

    # -- introspection ----------------------------------------------------

    @property
    def cohorts(self) -> list[Cohort]:
        """Live cohorts (for tests and observability)."""
        return [c for c in self._cohorts if len(c)]

    @property
    def vectorized_count(self) -> int:
        """Devices currently executing in array form."""
        return sum(len(c) for c in self._cohorts)

    def stop(self) -> None:
        """Release everything and stop scanning (end of run)."""
        self.release_all("stopped")
        self._scan_task.stop()

    # -- scanning ---------------------------------------------------------

    def _scan(self) -> None:
        groups: dict[tuple, list[tuple]] = {}
        for device in self._scenario.devices.values():
            if device._vector_cohort is not None:
                continue
            unit = self._eligible(device)
            if unit is None:
                continue
            task = device._firmware._task
            pending = task._event
            key = (unit.name, device._firmware._t_measure_s, pending.time)
            groups.setdefault(key, []).append((device, unit))
        for (unit_name, interval, first_tick), entries in groups.items():
            cohort = None
            for existing in self._cohorts:
                if (
                    existing._unit.name == unit_name
                    and existing._interval_s == interval
                    and len(existing)
                    and existing.next_tick == first_tick
                ):
                    cohort = existing
                    break
            if cohort is None:
                if len(entries) < MIN_COHORT:
                    continue
                cohort = Cohort(
                    self, entries[0][1], interval, first_tick, self._cohort_counter
                )
                self._cohort_counter += 1
                self._cohorts.append(cohort)
                profiler = self._sim.profiler
                if profiler is not None:
                    profiler.set_weight(
                        cohort.sample_label, lambda c=cohort: len(c)
                    )
            for device, unit in entries:
                cohort.add(device, unit)

    def _eligible(self, device: "MeteringDevice") -> Any | None:
        """The device's aggregator unit when it is safely quiescent."""
        unit = device._current_ap
        if unit is None or unit is not self._scenario.aggregators.get(unit.aggregator_id.name):
            return None
        if self._sim.spans.enabled:
            return None
        fsm = device._fsm
        if fsm.phase is not DevicePhase.REPORTING:
            return None
        if fsm.master is None or fsm.temporary is not None:
            return None
        if not device._client.connected:
            return None
        if not device._store.is_empty:
            return None
        if device._inflight or device._report_attempts:
            return None
        if device._reg_watchdog is not None or device._handshake_span is not None:
            return None
        if device._tamper_attack is not None:
            return None
        if device._sync_client is not None:
            return None
        handshake = device.last_handshake
        if handshake is None or handshake.registered_at is None:
            return None
        firmware = device._firmware
        if firmware._task is None or firmware._task._event is None:
            return None
        rtc = device._rtc
        if rtc._offset_s != 0.0:
            return None
        if device._mcu._state is not McuState.IDLE:
            return None
        member = unit._registry.get(device._device_id)
        if member is None or member.kind is not MembershipKind.MASTER:
            return None
        hub = unit._broker
        if not isinstance(hub, DirectHub) or hub._down or hub._injector is not None:
            return None
        link = device._client
        if not isinstance(link, DirectLink) or link._injector is not None:
            return None
        if link._endpoint is not hub:
            return None
        transport = self._scenario.transport
        if not isinstance(transport, DirectTransport):
            return None
        if transport._injector is not None or transport.loss_p != 0.0:
            return None
        return unit

    # -- de-vectorization -------------------------------------------------

    def release_all(self, reason: str) -> None:
        """Return every vectorized device to its per-object actor."""
        for cohort in self._cohorts:
            for member in cohort.members:
                cohort.release(member.device, reason)

    def _on_transport_fault(self) -> None:
        self.release_all("transport_fault")

    def _on_hub_fault(self, hub: Any) -> None:
        unit = self._units_by_hub.get(id(hub))
        if unit is None:
            self.release_all("hub_fault")
            return
        for cohort in self._cohorts:
            if cohort._unit is unit:
                for member in cohort.members:
                    cohort.release(member.device, "hub_fault")

    def _watch_link(self, device: "MeteringDevice") -> None:
        link = device._client
        if id(link) in self._watched_links:
            return
        self._watched_links.add(id(link))

        def _on_link_fault() -> None:
            cohort = device._vector_cohort
            if cohort is not None:
                cohort.release(device, "link_fault")

        link._state_watchers.append(_on_link_fault)

    # -- the delivery event (event B) -------------------------------------

    def _stage_delivery(self, cohort: Cohort, tick_time: float, members, seqs,
                        currents, energies, measureds) -> None:
        self._pending.append(
            (cohort, tick_time, members, seqs, currents, energies, measureds)
        )
        if not self._deliver_armed:
            self._deliver_armed = True
            self._sim.call_later(
                self._latency_s, self._deliver, label=self.deliver_label
            )

    def _deliver(self) -> None:
        """Process every pending cohort's reports at arrival.

        Replicates, in exact arrival order, what one hub drain plus N
        ``_process_report`` events do in the scalar path.  A report is
        handled inline only when its arrival time precedes the next
        pending kernel event *and* it would sail through screening;
        anything else becomes a real deferred ``_process_report`` event
        at its exact arrival time.
        """
        pending = self._pending
        self._pending = []
        self._deliver_armed = False
        self._last_deliver_weight = sum(len(entry[2]) for entry in pending)
        sim = self._sim
        backend = self._backend
        now = sim.clock.now
        next_event = sim.queue.peek_time()
        cutoff = math.inf if next_event is None else next_event
        for cohort, tick_time, members, seqs, currents, energies, measureds in pending:
            unit = cohort._unit
            count = len(members)
            host = unit._host
            arrival = backend.host_delays(
                host._rng, host._median, host._sigma, now, count
            )
            order = backend.stable_order(arrival)
            registry_get = unit._registry._members.get
            verifier = unit._verifier
            stats = verifier.stats
            policy = verifier._policy
            max_ma = policy.max_current_ma
            use_history = policy.use_history_screen
            histories = verifier._histories
            aggregation = unit._aggregation
            writer_queue = unit._writer._queue
            broker = unit._broker
            acks_key = unit._counter_names.get("acks_sent")
            if acks_key is None:
                acks_key = unit._counter_names["acks_sent"] = f"{unit.name}.acks_sent"
            counts = self._counts
            network_name = unit._aggregator_id.name
            interval_s = cohort.interval_s
            writer_append = writer_queue.append
            # Counter bumps batch to one update per cohort: nothing can
            # observe intermediate values inside this single event.
            screened = 0
            accepted = 0
            for position in order:
                arrived_at = arrival[position]
                member = members[position]
                current_ma = currents[position]
                if arrived_at < cutoff:
                    membership = registry_get(member.device_id)
                    if (
                        membership is not None
                        and membership.kind is MembershipKind.MASTER
                        and 0.0 <= current_ma <= max_ma
                    ):
                        if use_history:
                            detector = histories.get(member.device_id)
                            if detector is None:
                                detector = verifier._history_for(member.device_id)
                            ordered = detector._ordered
                            window = detector._window
                            if len(ordered) >= window.maxlen / 2:
                                median = ordered[len(ordered) // 2]
                                if (
                                    median > 1e-9
                                    and abs(current_ma - median) / median
                                    > detector._threshold
                                ):
                                    self._defer(
                                        cohort, tick_time, member, seqs[position],
                                        current_ma, energies[position],
                                        measureds[position], arrived_at,
                                    )
                                    continue
                            if len(window) == window.maxlen:
                                del ordered[bisect_left(ordered, window[0])]
                            window.append(current_ma)
                            insort(ordered, current_ma)
                        screened += 1
                        membership.last_report_at = arrived_at
                        aggregation.add_report(
                            member.device_id, measureds[position], current_ma
                        )
                        member.series.append(arrived_at, current_ma)
                        writer_append({
                            "device": member.name,
                            "device_uid": member.uid,
                            "sequence": seqs[position],
                            "measured_at": measureds[position],
                            "interval_s": interval_s,
                            "current_ma": current_ma,
                            "voltage_v": member.meter._voltage_v,
                            "energy_mwh": energies[position],
                            "buffered": False,
                            "roaming": False,
                            "network": network_name,
                        })
                        accepted += 1
                        # The Ack rides its own hub drain in the scalar
                        # path; its only lasting effects are the device's
                        # acked set and the batched counters below.
                        member.device._acked_sequences.add(seqs[position])
                        continue
                self._defer(
                    cohort, tick_time, member, seqs[position], current_ma,
                    energies[position], measureds[position], arrived_at,
                )
            if screened:
                stats.reports_screened += screened
            if accepted:
                counts[acks_key] = counts.get(acks_key, 0) + accepted
                broker._messages_routed += accepted

    def _defer(self, cohort: Cohort, tick_time: float, member: _Member,
               sequence: int, current_ma: float, energy_mwh: float,
               measured_at: float, arrived_at: float) -> None:
        """Fall back to the real aggregator path for one report.

        Builds the exact :class:`ConsumptionReport` the scalar transmit
        would have produced, puts it in the device's in-flight window
        with its Ack deadline counted from transmit time (the tick),
        and queues the real ``_process_report`` for the exact arrival
        time — screening, Nacks and Acks then run through the normal
        machinery, including the de-vectorization hook on the device's
        control topic.
        """
        device = member.device
        report = ConsumptionReport(
            device_id=member.device_id,
            master=device._fsm.master,
            temporary=None,
            sequence=sequence,
            measured_at=measured_at,
            interval_s=cohort.interval_s,
            current_ma=current_ma,
            voltage_v=member.meter._voltage_v,
            energy_mwh=energy_mwh,
            buffered=False,
        )
        device._await_ack(report, tick_time)
        cohort._unit._queue_report(arrived_at, report, None)
