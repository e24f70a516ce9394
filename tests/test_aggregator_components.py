"""Tests for membership, aggregation, verification, ledger writer, roaming."""

import pytest

from repro.aggregator import (
    LedgerWriter,
    MembershipKind,
    MembershipRegistry,
    ReportAggregator,
    ReportVerifier,
    VerificationPolicy,
)
from repro.aggregator.roaming import RoamingLiaison
from repro.chain import Blockchain
from repro.errors import ChainError, MembershipError, ProtocolError
from repro.ids import AggregatorId, DeviceId, NetworkAddress
from repro.net import BackhaulLink, BackhaulMesh, TdmaSchedule
from repro.protocol.messages import (
    ConsumptionReport,
    MembershipVerifyRequest,
    MembershipVerifyResponse,
)
from repro.sim import Simulator

AGG1 = AggregatorId("agg1")
AGG2 = AggregatorId("agg2")


def make_registry(slot_count=4, aggregator=AGG1):
    return MembershipRegistry(aggregator, TdmaSchedule(slot_count=slot_count))


def make_report(device="d1", seq=0, current=50.0, measured_at=1.0):
    return ConsumptionReport(
        device_id=DeviceId(device),
        master=NetworkAddress(AGG1, 1),
        temporary=None,
        sequence=seq,
        measured_at=measured_at,
        interval_s=0.1,
        current_ma=current,
        voltage_v=3.3,
        energy_mwh=current * 3.3 * 0.1 / 3600.0,
    )


class TestMembershipRegistry:
    def test_master_registration_allocates_address_and_slot(self):
        registry = make_registry()
        member = registry.register_master(DeviceId("d1"), 1.0)
        assert member.kind is MembershipKind.MASTER
        assert member.address.aggregator == AGG1
        assert registry.is_master_member(DeviceId("d1"))

    def test_master_registration_idempotent(self):
        registry = make_registry()
        first = registry.register_master(DeviceId("d1"), 1.0)
        second = registry.register_master(DeviceId("d1"), 2.0)
        assert first is second
        assert registry.member_count == 1

    def test_addresses_unique(self):
        registry = make_registry()
        addresses = {
            registry.register_master(DeviceId(f"d{i}"), 0.0).address.host
            for i in range(4)
        }
        assert len(addresses) == 4

    def test_temporary_registration(self):
        registry = make_registry(aggregator=AGG2)
        master_addr = NetworkAddress(AGG1, 1)
        member = registry.register_temporary(DeviceId("d1"), master_addr, 5.0)
        assert member.kind is MembershipKind.TEMPORARY
        assert member.master_address == master_addr
        assert not registry.is_master_member(DeviceId("d1"))

    def test_temporary_claiming_self_rejected(self):
        registry = make_registry()
        with pytest.raises(MembershipError):
            registry.register_temporary(DeviceId("d1"), NetworkAddress(AGG1, 1), 0.0)

    def test_kind_conflicts_rejected(self):
        registry = make_registry(aggregator=AGG2)
        registry.register_temporary(DeviceId("d1"), NetworkAddress(AGG1, 1), 0.0)
        with pytest.raises(MembershipError):
            registry.register_master(DeviceId("d1"), 1.0)

    def test_remove_releases_slot(self):
        registry = make_registry(slot_count=1)
        registry.register_master(DeviceId("d1"), 0.0)
        registry.remove(DeviceId("d1"))
        registry.register_master(DeviceId("d2"), 1.0)  # slot reusable

    def test_remove_unknown_rejected(self):
        with pytest.raises(MembershipError):
            make_registry().remove(DeviceId("ghost"))

    def test_touch_updates_activity(self):
        registry = make_registry()
        registry.register_master(DeviceId("d1"), 0.0)
        registry.touch(DeviceId("d1"), 9.0)
        assert registry.get(DeviceId("d1")).last_report_at == 9.0

    def test_touch_unknown_rejected(self):
        with pytest.raises(MembershipError):
            make_registry().touch(DeviceId("ghost"), 1.0)

    def test_expire_temporaries_only(self):
        registry = make_registry(aggregator=AGG2)
        registry.register_master(DeviceId("stay"), 0.0)
        registry.register_temporary(DeviceId("roamer"), NetworkAddress(AGG1, 1), 0.0)
        expired = registry.expire_temporaries(now=10.0, timeout_s=2.0)
        assert [m.device_id.name for m in expired] == ["roamer"]
        assert registry.get(DeviceId("stay")) is not None
        assert registry.get(DeviceId("roamer")) is None

    def test_active_temporary_not_expired(self):
        registry = make_registry(aggregator=AGG2)
        registry.register_temporary(DeviceId("roamer"), NetworkAddress(AGG1, 1), 0.0)
        registry.touch(DeviceId("roamer"), 9.5)
        assert registry.expire_temporaries(now=10.0, timeout_s=2.0) == []

    def test_members_filter(self):
        registry = make_registry(aggregator=AGG2)
        registry.register_master(DeviceId("m"), 0.0)
        registry.register_temporary(DeviceId("t"), NetworkAddress(AGG1, 1), 0.0)
        assert len(registry.members()) == 2
        assert len(registry.members(MembershipKind.MASTER)) == 1
        assert len(registry.members(MembershipKind.TEMPORARY)) == 1


class TestReportAggregator:
    def test_windows_align_reports_and_feeder(self):
        agg = ReportAggregator(window_s=0.1)
        agg.add_report(DeviceId("d1"), 0.51, 10.0)
        agg.add_report(DeviceId("d2"), 0.55, 20.0)
        agg.add_feeder_sample(0.58, 33.0)
        window = agg.window_at(0.51)
        assert window.reported_sum_ma == pytest.approx(30.0)
        assert window.feeder_ma == 33.0
        assert window.complete

    def test_duplicate_report_overwrites(self):
        agg = ReportAggregator(window_s=0.1)
        agg.add_report(DeviceId("d1"), 0.55, 10.0)
        agg.add_report(DeviceId("d1"), 0.57, 12.0)
        assert agg.window_at(0.55).reported_sum_ma == pytest.approx(12.0)

    def test_latest_complete(self):
        agg = ReportAggregator(window_s=0.1)
        agg.add_report(DeviceId("d1"), 0.1, 1.0)
        agg.add_feeder_sample(0.1, 1.0)
        agg.add_report(DeviceId("d1"), 0.2, 2.0)
        agg.add_feeder_sample(0.2, 2.0)
        agg.add_report(DeviceId("d1"), 0.3, 3.0)  # no feeder yet
        assert agg.latest_complete().start == pytest.approx(0.2)

    def test_history_eviction(self):
        # In order, and backfilled: a late report can open a window
        # older than those held, and the oldest is still evicted first.
        for order in (range(6), (3, 4, 0, 5, 1, 2)):
            agg = ReportAggregator(window_s=0.1, keep_windows=3)
            for i in order:
                agg.add_feeder_sample(i * 0.1, 1.0)
            assert agg.window_at(0.0) is None
            assert agg.window_at(0.5) is not None
            held = [agg.window_at((i + 0.5) * 0.1) is not None for i in range(5)]
            assert held == [False, False, True, True, True], order

    def test_complete_windows_sorted(self):
        agg = ReportAggregator(window_s=1.0)
        for t in (3.0, 1.0, 2.0):
            agg.add_report(DeviceId("d1"), t, t)
            agg.add_feeder_sample(t, t)
        starts = [w.start for w in agg.complete_windows()]
        assert starts == sorted(starts)


class TestReportVerifier:
    def test_honest_reports_pass(self):
        verifier = ReportVerifier()
        for i in range(100):
            verdict = verifier.screen_report(make_report(seq=i, current=50.0 + i % 3))
            assert not verdict.anomalous
        assert verifier.stats.reports_rejected == 0

    def test_range_violation_rejected(self):
        verifier = ReportVerifier()
        verdict = verifier.screen_report(make_report(current=500.0))
        assert verdict.anomalous
        assert verifier.stats.reports_rejected == 1

    def test_gross_jump_rejected_by_history(self):
        verifier = ReportVerifier(VerificationPolicy(history_threshold=3.0))
        for i in range(40):
            verifier.screen_report(make_report(seq=i, current=20.0))
        verdict = verifier.screen_report(make_report(seq=99, current=300.0))
        assert verdict.anomalous

    def test_history_screen_disabled(self):
        verifier = ReportVerifier(VerificationPolicy(use_history_screen=False))
        for i in range(40):
            verifier.screen_report(make_report(seq=i, current=20.0))
        assert not verifier.screen_report(make_report(seq=99, current=300.0)).anomalous

    def test_histories_are_per_device(self):
        verifier = ReportVerifier(VerificationPolicy(history_threshold=3.0))
        for i in range(40):
            verifier.screen_report(make_report("d1", seq=i, current=20.0))
        # d2 has no history; its first big value passes the history screen.
        assert not verifier.screen_report(make_report("d2", seq=0, current=300.0)).anomalous

    def test_network_check_accepts_expected_loss(self):
        verifier = ReportVerifier(
            VerificationPolicy(expected_loss_fraction=0.04, residual_tolerance=0.08)
        )
        assert not verifier.check_network(100.0, 104.0).anomalous

    def test_network_check_flags_underreport(self):
        verifier = ReportVerifier()
        verdict = verifier.check_network(50.0, 104.0)
        assert verdict.anomalous
        assert verifier.stats.network_anomalies == 1

    def test_network_check_flags_dead_feeder_reports(self):
        verifier = ReportVerifier()
        assert verifier.check_network(50.0, 0.0).anomalous
        assert not verifier.check_network(0.0, 0.0).anomalous


class TestLedgerWriter:
    def test_stage_and_flush(self):
        chain = Blockchain()
        writer = LedgerWriter(chain, "agg1")
        writer.stage({"v": 1})
        writer.stage({"v": 2})
        blocks = writer.flush(5.0)
        assert len(blocks) == 1
        assert blocks[0].header.record_count == 2
        assert writer.pending == 0
        assert chain.height == 1

    def test_empty_flush_writes_nothing(self):
        chain = Blockchain()
        writer = LedgerWriter(chain, "agg1")
        assert writer.flush(1.0) == []
        assert chain.height == 0

    def test_oversize_queue_splits_blocks(self):
        chain = Blockchain()
        writer = LedgerWriter(chain, "agg1", max_records_per_block=10)
        for i in range(25):
            writer.stage({"v": i})
        blocks = writer.flush(1.0)
        assert [b.header.record_count for b in blocks] == [10, 10, 5]
        chain.validate()

    def test_counters(self):
        chain = Blockchain()
        writer = LedgerWriter(chain, "agg1")
        writer.stage({})
        writer.flush(1.0)
        writer.stage({})
        writer.flush(2.0)
        assert writer.blocks_written == 2
        assert writer.records_written == 2

    def test_unauthorized_writer_fails(self):
        chain = Blockchain(authorized={"other"})
        writer = LedgerWriter(chain, "agg1")
        writer.stage({})
        with pytest.raises(ChainError):
            writer.flush(1.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ChainError):
            LedgerWriter(Blockchain(), "agg1", max_records_per_block=0)


class TestRoamingLiaison:
    def make_pair(self):
        sim = Simulator()
        mesh = BackhaulMesh(sim)
        host = RoamingLiaison(AGG2, mesh)
        master = RoamingLiaison(AGG1, mesh)
        inbox = {"host": [], "master": []}
        mesh.add_aggregator(AGG2, lambda s, p: inbox["host"].append(p))
        mesh.add_aggregator(AGG1, lambda s, p: inbox["master"].append(p))
        mesh.connect(BackhaulLink(AGG1, AGG2, 0.001))
        return sim, host, master, inbox

    def test_verification_round_trip(self):
        sim, host, master, inbox = self.make_pair()
        verdicts = []
        host.request_verification(DeviceId("d1"), AGG1, verdicts.append)
        sim.run()
        request = inbox["master"][0]
        assert isinstance(request, MembershipVerifyRequest)
        master.answer_verification(request, is_member=True)
        sim.run()
        response = inbox["host"][0]
        host.handle_verify_response(response)
        assert verdicts[0].valid

    def test_duplicate_request_keeps_single_pending(self):
        sim, host, _, _ = self.make_pair()
        host.request_verification(DeviceId("d1"), AGG1, lambda r: None)
        host.request_verification(DeviceId("d1"), AGG1, lambda r: None)
        assert host.pending_verify_count == 1
        assert host.stats.verify_requests_sent == 1

    def test_unsolicited_response_rejected(self):
        _, host, _, _ = self.make_pair()
        response = MembershipVerifyResponse(DeviceId("d1"), AGG1, True)
        with pytest.raises(ProtocolError):
            host.handle_verify_response(response)

    def test_answer_for_wrong_master_rejected(self):
        _, _, master, _ = self.make_pair()
        request = MembershipVerifyRequest(DeviceId("d1"), AGG2, AGG1)
        with pytest.raises(ProtocolError):
            master.answer_verification(request, True)

    def test_forward_report_counts(self):
        sim, host, _, inbox = self.make_pair()
        host.forward_report(make_report(), AGG1)
        sim.run()
        assert host.stats.reports_forwarded == 1
        assert len(inbox["master"]) == 1

    def make_silent_master_host(self, expired_cap=2):
        """A host whose verifies always expire (the master never answers)."""
        from repro.faults.retry import RetryPolicy

        sim = Simulator()
        mesh = BackhaulMesh(sim)
        host = RoamingLiaison(
            AGG2,
            mesh,
            retry=RetryPolicy(
                timeout_s=0.1, base_backoff_s=0.1, max_attempts=1, jitter=0.0
            ),
            expired_cap=expired_cap,
        )
        mesh.add_aggregator(AGG2, lambda s, p: None)
        mesh.add_aggregator(AGG1, lambda s, p: None)
        mesh.connect(BackhaulLink(AGG1, AGG2, 0.001))
        return sim, host

    def test_expired_verifies_capped_with_fifo_eviction(self):
        # Pre-fix the expired set grew one entry per device forever.
        sim, host = self.make_silent_master_host(expired_cap=2)
        for name in ("d1", "d2", "d3"):
            host.request_verification(DeviceId(name), AGG1, lambda r: None)
        sim.run()
        assert host.stats.verify_timeouts == 3
        assert host.stats.expired_evictions == 1
        # d1's entry was evicted: its late verdict is unsolicited now.
        with pytest.raises(ProtocolError):
            host.handle_verify_response(
                MembershipVerifyResponse(DeviceId("d1"), AGG1, True)
            )
        # d2 survived under the cap: its late verdict is absorbed.
        host.handle_verify_response(
            MembershipVerifyResponse(DeviceId("d2"), AGG1, True)
        )
        assert host.stats.verify_responses_late == 1

    def test_reregistration_clears_expired_entry(self):
        sim, host = self.make_silent_master_host(expired_cap=8)
        host.request_verification(DeviceId("d1"), AGG1, lambda r: None)
        sim.run()
        assert host.stats.verify_timeouts == 1
        # The device registers again: the stale expired marker must not
        # linger (pre-fix it did, mis-counting the next late verdict).
        host.request_verification(DeviceId("d1"), AGG1, lambda r: None)
        sim.run()
        assert host.stats.verify_timeouts == 2
        assert host.stats.verify_responses_late == 0
        assert host.stats.expired_evictions == 0
