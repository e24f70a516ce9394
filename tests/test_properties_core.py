"""Property-based tests for kernel, TDMA, storage, codec and FSM invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.storage import LocalStore
from repro.ids import AggregatorId, DeviceId, NetworkAddress
from repro.net.tdma import TdmaSchedule
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.device_fsm import DeviceFsm, DevicePhase
from repro.protocol.messages import (
    ConsumptionReport,
    Nack,
    NackReason,
    RegistrationResponse,
)
from repro.sim import Simulator

MASTER = NetworkAddress(AggregatorId("agg1"), 1)
TEMP = NetworkAddress(AggregatorId("agg2"), 2)

reports = st.builds(
    ConsumptionReport,
    device_id=st.just(DeviceId("d1")),
    master=st.one_of(st.none(), st.just(MASTER)),
    temporary=st.one_of(st.none(), st.just(TEMP)),
    sequence=st.integers(min_value=0, max_value=2**31),
    measured_at=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    interval_s=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    current_ma=st.floats(min_value=0, max_value=400.0, allow_nan=False),
    voltage_v=st.floats(min_value=0.1, max_value=240.0, allow_nan=False),
    energy_mwh=st.floats(min_value=0, max_value=1e3, allow_nan=False),
    buffered=st.booleans(),
)


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=40))
    def test_events_execute_in_time_order(self, times):
        sim = Simulator()
        executed = []
        for t in times:
            sim.schedule(t, lambda t=t: executed.append(t))
        sim.run()
        assert executed == sorted(executed)
        assert len(executed) == len(times)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_periodic_tasks_fire_expected_counts(self, tasks):
        sim = Simulator()
        counters = [0] * len(tasks)
        for i, (interval, _) in enumerate(tasks):
            def bump(i=i):
                counters[i] += 1
            sim.every(interval, bump)
        horizon = 10.0
        sim.run_until(horizon)
        for (interval, _), count in zip(tasks, counters):
            expected = int(horizon / interval)
            assert abs(count - expected) <= 1


class TestTdmaProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=32), st.data())
    def test_no_two_devices_share_a_slot(self, slot_count, data):
        schedule = TdmaSchedule(slot_count=slot_count)
        n = data.draw(st.integers(min_value=0, max_value=slot_count))
        assigned = {}
        for i in range(n):
            assigned[i] = schedule.assign(DeviceId(f"d{i}"))
        assert len(set(assigned.values())) == len(assigned)
        assert all(0 <= s < slot_count for s in assigned.values())

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["assign", "release"]), max_size=60))
    def test_slot_accounting_never_negative(self, ops):
        schedule = TdmaSchedule(slot_count=8)
        alive = []
        counter = 0
        for op in ops:
            if op == "assign" and schedule.free_slots > 0:
                name = f"d{counter}"
                counter += 1
                schedule.assign(DeviceId(name))
                alive.append(name)
            elif op == "release" and alive:
                schedule.release(DeviceId(alive.pop()))
            assert 0 <= schedule.free_slots <= 8


class TestStorageProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50),
           st.integers(min_value=1, max_value=20))
    def test_fifo_order_preserved_up_to_capacity(self, sequences, capacity):
        store = LocalStore(capacity=capacity)
        for seq in sequences:
            store.store(self._report(seq))
        drained = [r.sequence for r in store.drain()]
        expected = sequences[-capacity:] if len(sequences) > capacity else sequences
        assert drained == expected

    @staticmethod
    def _report(seq):
        return ConsumptionReport(
            device_id=DeviceId("d1"), master=None, temporary=None,
            sequence=seq, measured_at=float(seq), interval_s=0.1,
            current_ma=1.0, voltage_v=3.3, energy_mwh=0.0,
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=10))
    def test_conservation_stored_equals_pending_plus_drained_plus_dropped(self, n, cap):
        store = LocalStore(capacity=cap)
        for i in range(n):
            store.store(self._report(i))
        drained = len(store.drain(min(5, n) or None)) if n else 0
        assert store.stored_total == n
        assert store.pending + drained + store.dropped_total == n

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("store"), st.integers(0, 3)),
                st.tuples(st.just("drain"), st.integers(1, 6)),
            ),
            max_size=40,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_reference_model_under_interleavings(self, ops, capacity):
        # Random store/drain interleavings against a reference deque
        # model: same contents, same drop count, bound respected.
        from collections import deque

        store = LocalStore(capacity=capacity)
        model: deque[int] = deque()
        model_dropped = 0
        next_seq = 0
        for op, arg in ops:
            if op == "store":
                for _ in range(arg):
                    store.store(self._report(next_seq))
                    model.append(next_seq)
                    next_seq += 1
                    if len(model) > capacity:
                        model.popleft()
                        model_dropped += 1
            else:
                if store.is_empty:
                    continue
                drained = store.drain(arg)
                assert all(r.buffered for r in drained)
                assert [r.sequence for r in drained] == [
                    model.popleft() for _ in range(min(arg, len(model)))
                ]
            assert store.pending <= store.capacity
            assert store.pending == len(model)
        assert [r.sequence for r in store.drain()] == list(model)
        assert store.dropped_total == model_dropped


class TestCodecProperties:
    @settings(max_examples=100, deadline=None)
    @given(reports)
    def test_report_roundtrip(self, report):
        assert decode_message(encode_message(report)) == report

    @settings(max_examples=50, deadline=None)
    @given(reports)
    def test_record_form_has_no_addresses(self, report):
        record = report.to_record()
        assert "master" not in record and "temporary" not in record
        assert record["device_uid"] == report.device_id.uid


fsm_inputs = st.lists(
    st.sampled_from(["join", "leave", "grant_master", "grant_temp", "nack", "remove"]),
    max_size=40,
)


class TestFsmProperties:
    @settings(max_examples=100, deadline=None)
    @given(fsm_inputs)
    def test_fsm_invariants_hold_under_any_input_sequence(self, inputs):
        """Drive the FSM with arbitrary (legal) input orderings.

        Invariants: roaming implies a home exists; reporting is possible
        only when a home exists; temporary address never survives
        leaving a network.
        """
        fsm = DeviceFsm(DeviceId("d1"))
        for action in inputs:
            try:
                if action == "join":
                    if fsm.phase is DevicePhase.IN_TRANSIT:
                        fsm.begin_join()
                        fsm.network_joined()
                elif action == "leave":
                    fsm.network_left()
                elif action == "grant_master":
                    if fsm.phase is DevicePhase.REGISTERING:
                        fsm.registration_response(
                            RegistrationResponse(DeviceId("d1"), MASTER, temporary=False)
                        )
                elif action == "grant_temp":
                    if fsm.phase is DevicePhase.REGISTERING and fsm.has_home:
                        fsm.registration_response(
                            RegistrationResponse(DeviceId("d1"), TEMP, temporary=True)
                        )
                elif action == "nack":
                    fsm.report_nacked(Nack(DeviceId("d1"), NackReason.NOT_A_MEMBER))
                elif action == "remove":
                    fsm.removed()
            finally:
                if fsm.is_roaming:
                    assert fsm.has_home
                if fsm.can_report:
                    assert fsm.phase is DevicePhase.REPORTING
                if fsm.phase is DevicePhase.IN_TRANSIT:
                    assert fsm.temporary is None
