"""Lightweight-client ledger sync, checkpointing and pruning."""

import dataclasses
import json

import pytest

from repro.chain import (
    Blockchain,
    BlockStore,
    Checkpoint,
    HeaderChain,
    HeaderRecord,
    LedgerSyncClient,
    SyncPolicy,
    audit_chain,
)
from repro.chain.receipts import issue_receipt, receipt_from_dict, receipt_to_dict
from repro.errors import ChainError, ConfigError, PrunedBlockError
from repro.experiments.ledger_sync import validate_bench
from repro.ids import DeviceId
from repro.protocol.codec import encode_message
from repro.protocol.messages import RegistrationRequest
from repro.runtime import LedgerSpec, ObsSpec, ScenarioSpec, ServeSpec, build
from repro.runtime.spec import TransportSpec
from repro.serve import AggregatorService
from repro.workloads.scenarios import paper_testbed_spec, scaled_spec


def grow(chain, blocks, records_per_block=3, device="d1", uid="u1"):
    for b in range(chain.height, chain.height + blocks):
        chain.append(
            "agg1",
            float(b),
            [
                {"device": device, "device_uid": uid,
                 "sequence": b * records_per_block + i,
                 "measured_at": float(b), "energy_mwh": 0.5}
                for i in range(records_per_block)
            ],
        )


class TestHeaderChain:
    def make_synced(self, blocks=5):
        chain = Blockchain()
        grow(chain, blocks)
        light = HeaderChain()
        light.extend(chain.headers(0, blocks))
        return chain, light

    def test_extend_follows_chain(self):
        chain, light = self.make_synced(5)
        assert light.height == 5
        assert light.covers(0) and light.covers(4) and not light.covers(5)
        assert light.tip_hash == chain.tip_hash

    def test_duplicate_delivery_is_skipped(self):
        chain, light = self.make_synced(4)
        assert light.extend(chain.headers(0, 4)) == 0
        assert light.height == 4

    def test_gap_rejected(self):
        chain, light = self.make_synced(2)
        grow(chain, 4)
        with pytest.raises(ChainError, match="gap"):
            light.extend(chain.headers(4, 2))
        assert light.height == 2

    def test_broken_link_rejected(self):
        chain = Blockchain()
        grow(chain, 3)
        other = Blockchain()
        grow(other, 3, device="d2", uid="u2")
        light = HeaderChain()
        light.extend(chain.headers(0, 2))
        with pytest.raises(ChainError, match="link"):
            light.extend(other.headers(2, 1))

    def test_anchor_fast_forward(self):
        chain = Blockchain(checkpoint_interval=4)
        grow(chain, 10)
        checkpoint = chain.latest_checkpoint
        assert checkpoint is not None and checkpoint.height == 8
        light = HeaderChain()
        light.anchor_at(checkpoint)
        assert light.base == 8 and light.height == 8
        light.extend(chain.headers(8, 10))
        assert light.height == 10
        assert light.tip_hash == chain.tip_hash
        assert not light.covers(7)

    def test_anchor_only_when_empty(self):
        chain, light = self.make_synced(3)
        with pytest.raises(ChainError, match="anchor"):
            light.anchor_at(Checkpoint(2, "x", 6, 1.0))

    def test_verify_receipt_offline(self):
        chain, light = self.make_synced(5)
        receipt = issue_receipt(chain, 2, 1)
        assert light.verify_receipt(receipt)
        # A receipt for an uncovered height cannot be vouched for.
        tall = issue_receipt(chain, 4, 0)
        short = HeaderChain()
        short.extend(chain.headers(0, 3))
        assert not short.verify_receipt(tall)

    def test_verify_receipt_rejects_wrong_coordinates(self):
        chain, light = self.make_synced(5)
        receipt = issue_receipt(chain, 2, 1)
        forged = dataclasses.replace(receipt, block_hash="0" * 64)
        assert not light.verify_receipt(forged)
        forged = dataclasses.replace(receipt, leaf_count=4)
        assert not light.verify_receipt(forged)


def hostile_receipt(payload, case):
    """A copy of a wire receipt with one field made hostile."""
    bad = json.loads(json.dumps(payload))
    if case == "sibling_int":
        bad["proof"][0][1] = 5
    elif case == "sibling_non_ascii":
        bad["proof"][0][1] = "\u00e9" * 64
    elif case == "side_x":
        bad["proof"][0][0] = "X"
    elif case == "proof_triple":
        bad["proof"][0].append("L")
    elif case == "sibling_upper_hex":
        bad["proof"][0][1] = bad["proof"][0][1].upper()
    elif case == "block_hash_int":
        bad["block_hash"] = 7
    elif case == "block_hash_short":
        bad["block_hash"] = bad["block_hash"][:63]
    elif case == "merkle_root_none":
        bad["merkle_root"] = None
    else:
        raise AssertionError(case)
    return bad


HOSTILE_CASES = (
    "sibling_int", "sibling_non_ascii", "side_x", "proof_triple",
    "sibling_upper_hex", "block_hash_int", "block_hash_short", "merkle_root_none",
)


class TestReceiptPayload:
    def wire_receipt(self):
        chain = Blockchain()
        grow(chain, 3)
        return receipt_to_dict(issue_receipt(chain, 1, 1))

    def test_wire_receipt_round_trips_and_verifies(self):
        assert receipt_from_dict(self.wire_receipt()).verify()

    @pytest.mark.parametrize("case", HOSTILE_CASES)
    def test_hostile_payload_raises_chain_error(self, case):
        with pytest.raises(ChainError, match="malformed receipt"):
            receipt_from_dict(hostile_receipt(self.wire_receipt(), case))


# A header field, the hostile value put in its place.
HOSTILE_HEADERS = {
    "timestamp_text": (("header", "timestamp"), "noon"),
    "timestamp_nan": (("header", "timestamp"), float("nan")),
    "timestamp_past_any_float": (("header", "timestamp"), 10**400),
    "block_hash_text": (("block_hash",), "not-a-hash"),
    "merkle_root_upper_hex": (("header", "merkle_root"), "A" * 64),
    "previous_hash_int": (("header", "previous_hash"), 0),
    "record_count_float": (("header", "record_count"), 2.5),
    "height_bool": (("header", "height"), True),
    "height_text": (("header", "height"), "1"),
    "aggregator_int": (("header", "aggregator"), 5),
}
HOSTILE_CHECKPOINTS = {
    "height_float": ("height", 10.0),
    "tip_hash_short": ("tip_hash", "ab"),
    "record_count_bool": ("record_count", False),
    "timestamp_text": ("timestamp", "noon"),
    "timestamp_inf": ("timestamp", float("inf")),
    "timestamp_past_any_float": ("timestamp", -(10**400)),
}


class TestHeaderPayload:
    def wire_header(self):
        chain = Blockchain()
        grow(chain, 3)
        return chain.header_at(1)

    def test_wire_header_and_checkpoint_round_trip(self):
        header = self.wire_header()
        assert HeaderRecord.from_dict(json.loads(json.dumps(header.to_dict()))) == header
        checkpoint = Checkpoint(height=10, tip_hash="ab" * 32, record_count=30, timestamp=9.0)
        assert Checkpoint.from_dict(checkpoint.to_dict()) == checkpoint

    @pytest.mark.parametrize("case", sorted(HOSTILE_HEADERS))
    def test_hostile_header_raises_chain_error(self, case):
        path, value = HOSTILE_HEADERS[case]
        bad = self.wire_header().to_dict()
        parent = bad["header"] if len(path) == 2 else bad
        parent[path[-1]] = value
        with pytest.raises(ChainError, match="malformed header record"):
            HeaderRecord.from_dict(bad)

    @pytest.mark.parametrize("case", sorted(HOSTILE_CHECKPOINTS))
    def test_hostile_checkpoint_raises_chain_error(self, case):
        field, value = HOSTILE_CHECKPOINTS[case]
        good = Checkpoint(height=10, tip_hash="ab" * 32, record_count=30, timestamp=9.0)
        with pytest.raises(ChainError, match="malformed checkpoint"):
            Checkpoint.from_dict({**good.to_dict(), field: value})


class TestSyncClient:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            SyncPolicy(batch_size=0)
        with pytest.raises(ConfigError):
            SyncPolicy(interval_s=0.0)
        assert SyncPolicy(batch_size=8).effective_interval_s(1.0) == 8.0
        assert SyncPolicy(batch_size=8, interval_s=2.5).effective_interval_s() == 2.5

    def test_apply_response_tracks_progress_and_delay(self):
        chain = Blockchain()
        grow(chain, 6)
        client = LedgerSyncClient(SyncPolicy(batch_size=4))
        start, count = client.next_request()
        assert (start, count) == (0, 4)
        behind = client.apply_response(chain.headers(0, 4), chain.height, None, 10.0)
        assert behind
        assert client.chain.height == 4
        assert client.stats.headers_applied == 4
        assert client.stats.delay_samples == 4
        assert client.stats.delay_max_s == 10.0  # block 0 created at t=0
        behind = client.apply_response(chain.headers(4, 4), chain.height, None, 11.0)
        assert not behind
        assert client.chain.height == 6

    def test_bad_batch_counted_not_fatal(self):
        chain = Blockchain()
        grow(chain, 4)
        client = LedgerSyncClient(SyncPolicy(batch_size=4))
        client.apply_response(chain.headers(2, 2), chain.height, None, 1.0)
        assert client.stats.batches_rejected == 1
        assert client.chain.height == 0

    def test_partly_applied_batch_is_counted(self):
        chain = Blockchain()
        grow(chain, 3)
        held = chain.headers(0, 3)
        broken = dataclasses.replace(
            held[2], header=dataclasses.replace(held[2].header, previous_hash="f" * 64)
        )
        client = LedgerSyncClient(SyncPolicy(batch_size=4))
        assert not client.apply_response([*held[:2], broken], chain.height, None, 10.0)
        assert client.chain.height == 2
        assert client.stats.batches_rejected == 1
        assert client.stats.headers_applied == 2
        assert client.stats.delay_samples == 2
        assert client.stats.delay_max_s == 10.0  # block 0 created at t=0


class TestCheckpointPruning:
    def test_pruning_requires_checkpointing(self):
        with pytest.raises(ChainError, match="checkpoint"):
            Blockchain(pruning_depth=5)

    def test_checkpoints_committed_on_interval(self):
        chain = Blockchain(checkpoint_interval=3)
        grow(chain, 7)
        assert [c.height for c in chain.checkpoints] == [3, 6]
        assert chain.checkpoints[-1].record_count == 18
        assert chain.latest_checkpoint.height == 6

    def test_pruned_chain_stays_small(self):
        chain = Blockchain(checkpoint_interval=10, pruning_depth=5)
        grow(chain, 100, records_per_block=2)
        assert chain.height == 100
        assert chain.pruned_below == 95  # min(100 - 5, checkpoint at 100)
        assert chain.retained_blocks == 5
        with pytest.raises(PrunedBlockError):
            chain.get(0)
        with pytest.raises(PrunedBlockError):
            chain.get(94)
        chain.get(95)  # retained bodies still served

    def test_validate_and_audit_clean_after_pruning(self):
        chain = Blockchain(checkpoint_interval=10, pruning_depth=5)
        grow(chain, 40)
        assert chain.pruned_below > 0
        chain.validate()
        assert audit_chain(chain).clean

    def test_receipts_against_pruned_blocks_still_verify(self):
        chain = Blockchain(checkpoint_interval=10, pruning_depth=5)
        grow(chain, 5)
        receipt = issue_receipt(chain, 2, 0)
        grow(chain, 35)
        assert receipt.block_height < chain.pruned_below
        # The receipt survives a JSON round trip (devices get it wired).
        receipt = receipt_from_dict(receipt_to_dict(receipt))
        # Against the pruned chain's retained header view...
        assert receipt.verify(chain)
        # ...and fully offline against a lightweight client.
        light = HeaderChain()
        light.extend(chain.headers(0, 40))
        assert light.verify_receipt(receipt)
        # But issuing a NEW receipt for a pruned block is impossible.
        with pytest.raises(ChainError, match="pruned"):
            issue_receipt(chain, 2, 0)

    def test_records_for_device_uses_retained_bodies(self):
        chain = Blockchain(checkpoint_interval=10, pruning_depth=5)
        grow(chain, 30)
        records = chain.records_for_device("u1")
        # Only retained blocks can contribute record bodies.
        assert len(records) == chain.retained_blocks * 3
        assert chain.records_total == 30 * 3

    def test_pruning_trims_the_index_with_the_bodies(self):
        chain = Blockchain(checkpoint_interval=10, pruning_depth=5)
        for b in range(40):
            chain.append("agg1", float(b), [
                {"device_uid": "u1", "sequence": b},
                {"device_uid": "u2", "sequence": str(b)},
                *([{"device_uid": "early", "sequence": b}] if b < 10 else []),
            ])
        assert chain.pruned_below == 35
        for uid, index in (("u1", 0), ("u2", 1)):
            assert chain.records_for_device(uid) == [
                chain.get(b).records[index] for b in range(35, 40)
            ]
            for b in range(40):
                sequence = b if uid == "u1" else str(b)
                expected = (b, index) if b >= 35 else None
                assert chain.locate_record(uid, sequence) == expected
        assert chain.records_for_device("early") == []
        assert chain.locate_record("early", 0) is None

    def test_irregular_sequences_are_listed_and_found(self):
        # Sequences that are missing or not 64-bit ints; equality (and
        # so chain order) decides a match, as for plain ints.
        chain = Blockchain()
        first = [{"device_uid": "u1", "sequence": s} for s in (None, "7", 3.5, True)]
        second = [
            {"device_uid": "u1", "sequence": 2**70},
            {"device_uid": "u1", "sequence": -(2**63)},
            {"device_uid": "u1"},
            {"device_uid": "u1", "sequence": 1},
            {"device_uid": "u1", "sequence": 7},
        ]
        chain.append("agg1", 0.0, first)
        chain.append("agg1", 1.0, second)
        assert chain.records_for_device("u1") == first + second
        assert chain.locate_record("u1", None) == (0, 0)
        assert chain.locate_record("u1", "7") == (0, 1)
        assert chain.locate_record("u1", 3.5) == (0, 2)
        assert chain.locate_record("u1", 1) == (0, 3)  # True == 1
        assert chain.locate_record("u1", 2**70) == (1, 0)
        assert chain.locate_record("u1", -(2**63)) == (1, 1)
        assert chain.locate_record("u1", 7) == (1, 4)
        assert chain.locate_record("u1", 7.0) == (1, 4)
        assert chain.locate_record("u1", 8) is None

    def test_locate_record(self):
        chain = Blockchain()
        grow(chain, 4)
        assert chain.locate_record("u1", 5) == (1, 2)
        assert chain.locate_record("u1", 999) is None
        assert chain.locate_record("nobody", 0) is None


class TestJsonlRefresh:
    def test_second_reader_on_a_served_archive(self):
        service = AggregatorService(
            dataclasses.replace(
                paper_testbed_spec(enter_devices=False),
                serve=ServeSpec(enabled=True, step_s=1.0),
            )
        )
        service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
        # Four blocks: the served store keeps only the newest body.
        for sequence in range(1, 5):
            reply = service.ingest(json.dumps([{
                "type": "consumption_report", "device": "ext-1", "master": "agg1/1",
                "temporary": None, "sequence": sequence, "measured_at": 0.1 * sequence,
                "interval_s": 0.1, "current_ma": 100.0, "voltage_v": 5.0,
                "energy_mwh": 100.0 * 5.0 * 0.1 / 3600.0, "buffered": False,
            }]))
            assert reply["accepted"] == 1
        service.advance()
        served = service.scenario.chain
        reader = Blockchain(BlockStore(served._store.path))
        assert reader.height == served.height > 1
        assert reader.tip_hash == served.tip_hash
        reader.validate()
        uid = DeviceId("ext-1").uid
        assert reader.records_for_device(uid) == served.records_for_device(uid)
        assert reader.locate_record(uid, 1) == served.locate_record(uid, 1) == (0, 0)


class TestLedgerSpec:
    def test_round_trip(self):
        spec = LedgerSpec(
            sync_enabled=True, header_batch_size=8, sync_interval_s=2.0,
            checkpoint_interval_blocks=20, pruning_depth_blocks=10,
        )
        assert LedgerSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_round_trip_through_scenario(self):
        spec = scaled_spec(1, 1, seed=3)
        data = json.loads(spec.to_json())
        assert data["ledger"]["sync_enabled"] is False
        again = ScenarioSpec.from_dict(data)
        assert again == spec
        # Old documents without a ledger block still parse to defaults.
        del data["ledger"]
        assert ScenarioSpec.from_dict(data).ledger == LedgerSpec()

    def test_validation(self):
        with pytest.raises(ConfigError):
            LedgerSpec(header_batch_size=0)
        with pytest.raises(ConfigError):
            LedgerSpec(sync_interval_s=-1.0)
        with pytest.raises(ConfigError, match="checkpoint"):
            LedgerSpec(pruning_depth_blocks=5)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="ledger"):
            LedgerSpec.from_dict({"sync_enabled": True, "bogus": 1})


def build_sync_world(
    batch=4, *, checkpointing=False, seed=23, enter_devices=True, obs=ObsSpec()
):
    ledger = LedgerSpec(
        sync_enabled=True,
        header_batch_size=batch,
        checkpoint_interval_blocks=10 if checkpointing else 0,
        pruning_depth_blocks=5 if checkpointing else 0,
    )
    spec = dataclasses.replace(
        scaled_spec(
            1, 2, seed=seed,
            transport=TransportSpec(kind="direct"),
            enter_devices=enter_devices,
        ),
        name="sync-e2e",
        ledger=ledger,
        obs=obs,
    )
    return build(spec)


class TestEndToEndSync:
    def test_devices_follow_the_chain(self):
        scenario = build_sync_world(batch=4)
        scenario.simulator.run_until(30.0)
        chain = scenario.chain
        assert chain.height > 10
        for device in scenario.devices.values():
            light = device.header_chain
            assert light is not None
            assert light.height > 0
            stats = device.sync_stats
            assert stats.requests_sent > 0
            assert stats.headers_applied == light.header_count
            assert stats.batches_rejected == 0
            # Every held header is the ledger's own.
            for height in range(light.base, light.height):
                assert (
                    light.header_at(height).block_hash
                    == chain.header_at(height).block_hash
                )

    def test_receipt_verifies_offline_against_synced_headers(self):
        # Observed: offline verifications are read from trace points.
        scenario = build_sync_world(batch=4, obs=ObsSpec(enabled=True, profile=False))
        scenario.simulator.run_until(30.0)
        device = next(iter(scenario.devices.values()))
        sequence = sorted(device.acked_sequences)[0]
        device.request_receipt(sequence)
        scenario.simulator.run_until(32.0)
        receipt = device.receipts[sequence]
        assert receipt is not None
        verified = scenario.simulator.spans.by_name("device.receipt_verified")
        assert any(
            span.tags["offline"] and span.tags["sequence"] == sequence
            for span in verified
        )

    def test_hostile_receipt_is_invalid_and_the_device_keeps_running(self, monkeypatch):
        # The aggregator answers receipt requests with hostile payloads;
        # each must land as an invalid receipt, not escape the ctrl
        # handler and stop the kernel.
        scenario = build_sync_world(batch=4, obs=ObsSpec(enabled=True, profile=False))
        scenario.simulator.run_until(20.0)
        device = next(iter(scenario.devices.values()))
        cases = dict(zip(sorted(device.acked_sequences), HOSTILE_CASES + ("record_nan",)))
        assert len(cases) == len(HOSTILE_CASES) + 1

        def answer(receipt):
            case = cases[receipt.record["sequence"]]
            payload = receipt_to_dict(receipt)
            if case == "record_nan":
                payload["record"]["energy_mwh"] = float("nan")
                return payload
            return hostile_receipt(payload, case)

        monkeypatch.setattr("repro.chain.receipts.receipt_to_dict", answer)
        for sequence in cases:
            device.request_receipt(sequence)
        acked_before = len(device.acked_sequences)
        scenario.simulator.run_until(25.0)
        assert {seq: device.receipts[seq] for seq in cases} == dict.fromkeys(cases)
        invalid = scenario.simulator.spans.by_name("device.receipt_invalid")
        assert {span.tags["sequence"] for span in invalid} == set(cases)
        assert len(device.acked_sequences) > acked_before

    def test_malformed_header_batch_is_rejected_and_the_device_keeps_running(
        self, monkeypatch
    ):
        # The aggregator answers header requests with hashes that do not
        # parse; each batch must count as rejected, not escape the
        # handler and stop the kernel.
        scenario = build_sync_world(batch=4, obs=ObsSpec(enabled=True, profile=False))
        scenario.simulator.run_until(10.0)
        devices = list(scenario.devices.values())
        held = [device.header_chain.height for device in devices]
        to_dict = HeaderRecord.to_dict
        monkeypatch.setattr(
            HeaderRecord, "to_dict", lambda record: {**to_dict(record), "block_hash": "not-a-hash"}
        )
        scenario.simulator.run_until(20.0)
        rejected = scenario.simulator.spans.by_name("device.headers_rejected")
        assert rejected and all("block_hash" in span.tags["error"] for span in rejected)
        assert sum(device.sync_stats.batches_rejected for device in devices) == len(rejected)
        assert [device.header_chain.height for device in devices] == held
        monkeypatch.undo()
        scenario.simulator.run_until(30.0)
        assert all(device.header_chain.height > height for device, height in zip(devices, held))

    def test_late_device_anchors_at_checkpoint(self):
        # A device entering a mature network must not replay history:
        # the aggregator offers its newest checkpoint and the client
        # anchors there instead of syncing from genesis.
        scenario = build_sync_world(batch=4, checkpointing=True, enter_devices=False)
        sim = scenario.simulator
        scenario.enter_at("dev-0-0", "net-0", 0.0)
        scenario.enter_at("dev-0-1", "net-0", 40.0)
        sim.run_until(40.0)
        assert scenario.chain.latest_checkpoint is not None
        late = scenario.device("dev-0-1")
        sim.run_until(60.0)
        stats = late.sync_stats
        assert stats.checkpoint_anchors == 1
        light = late.header_chain
        assert light.anchor is not None
        assert light.base == light.anchor.height > 0
        assert light.height > light.base

    def test_disabled_by_default(self):
        spec = scaled_spec(1, 1, seed=5, transport=TransportSpec(kind="direct"))
        scenario = build(spec)
        scenario.simulator.run_until(5.0)
        device = next(iter(scenario.devices.values()))
        assert device.header_chain is None


class TestBenchSchema:
    def good_doc(self):
        point = {
            "batch_size": 1, "sync_interval_s": 1.0, "blocks_produced": 10,
            "headers_per_device": 10.0, "sync_bytes_per_device": 100.0,
            "bytes_per_block_per_device": 10.0, "mean_delay_s": 0.5,
            "max_delay_s": 1.0, "receipts_verified_offline": 2,
            "receipts_requested": 2,
        }
        return {
            "suite": "ledger",
            "configs": {
                "full": {
                    "delay_vs_traffic": [
                        {**point, "batch_size": b} for b in (1, 4, 16)
                    ],
                    "pruning": {
                        "reports": 1_000_000, "blocks_total": 1000,
                        "blocks_retained": 50, "retained_fraction": 0.05,
                        "receipts_sampled": 40, "receipts_verified": 40,
                    },
                }
            },
        }

    def test_committed_artifact_is_valid(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_ledger.json"
        assert path.exists(), "BENCH_ledger.json must be committed"
        assert validate_bench(json.loads(path.read_text())) == []

    def test_good_document_passes(self):
        assert validate_bench(self.good_doc()) == []

    def test_violations_caught(self):
        doc = self.good_doc()
        doc["configs"]["full"]["pruning"]["retained_fraction"] = 0.5
        assert any("retained_fraction" in p for p in validate_bench(doc))

        doc = self.good_doc()
        doc["configs"]["full"]["pruning"]["receipts_verified"] = 39
        assert any("receipts" in p for p in validate_bench(doc))

        doc = self.good_doc()
        for point in doc["configs"]["full"]["delay_vs_traffic"]:
            point["batch_size"] = 4
        assert any("distinct" in p for p in validate_bench(doc))

        doc = self.good_doc()
        del doc["configs"]["full"]["pruning"]
        assert any("pruning" in p for p in validate_bench(doc))

        assert validate_bench([]) == ["document is not an object"]
        assert any("suite" in p for p in validate_bench({"suite": "x", "configs": {}}))
