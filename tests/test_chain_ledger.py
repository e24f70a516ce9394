"""Tests for the ledger, stores, audit and consensus."""

import gc
import random
import tracemalloc

import pytest

from repro.chain import (
    Block,
    Blockchain,
    BlockStore,
    NetworkedPoaConsensus,
    NetworkedValidator,
    audit_chain,
    hashing,
)
from repro.chain.hashing import GENESIS_HASH
from repro.chain.receipts import find_and_issue, receipt_from_dict, receipt_to_dict
from repro.chain.sync import HeaderChain
from repro.errors import BlockValidationError, ChainError
from repro.ids import AggregatorId, DeviceId
from repro.net import BackhaulLink, BackhaulMesh
from repro.sim import Simulator


def record(device="d1", energy=1.0, seq=0):
    return {"device": device, "device_uid": device * 2, "energy_mwh": energy, "sequence": seq}


def accept(records):
    return True


def reject(records):
    return False


def plausible(records):
    return all(r["energy_mwh"] < 10 for r in records)


def poa_committee(checks, spans=False):
    """A fully meshed committee ``v0, v1, ...``, one per acceptance check."""
    sim = Simulator(seed=0, spans=spans)
    mesh = BackhaulMesh(sim)
    validators = [
        NetworkedValidator(sim, AggregatorId(f"v{i}"), mesh, check=check)
        for i, check in enumerate(checks)
    ]
    for i, a in enumerate(validators):
        for b in validators[i + 1:]:
            mesh.connect(BackhaulLink(a.node_id, b.node_id, latency_s=0.001))
    chain = Blockchain()
    return sim, mesh, chain, NetworkedPoaConsensus(sim, validators, chain)


def run_round(sim, consensus, records):
    """Run one round on ``records`` to its end; True if it committed."""
    outcomes = []
    consensus.propose(records, lambda committed, latency: outcomes.append(committed))
    sim.run()
    (committed,) = outcomes
    return committed


class TestBlockchain:
    def test_append_advances_height_and_tip(self):
        chain = Blockchain()
        first = chain.append("agg1", 1.0, [record()])
        assert chain.height == 1
        assert chain.tip_hash == first.block_hash

    def test_blocks_link(self):
        chain = Blockchain()
        a = chain.append("agg1", 1.0, [record(seq=0)])
        b = chain.append("agg1", 2.0, [record(seq=1)])
        assert b.header.previous_hash == a.block_hash
        assert a.header.previous_hash == GENESIS_HASH

    def test_validate_clean_chain(self):
        chain = Blockchain()
        for i in range(10):
            chain.append("agg1", float(i), [record(seq=i)])
        chain.validate()

    def test_permissioned_append(self):
        chain = Blockchain(authorized={"agg1"})
        chain.append("agg1", 1.0, [])
        with pytest.raises(ChainError):
            chain.append("intruder", 2.0, [])

    def test_authorize_grants_access(self):
        chain = Blockchain(authorized=set())
        chain.authorize("agg1")
        chain.append("agg1", 1.0, [])

    def test_open_chain_allows_anyone(self):
        chain = Blockchain()
        chain.append("whoever", 1.0, [])

    def test_iteration_and_len(self):
        chain = Blockchain()
        for i in range(3):
            chain.append("agg1", float(i), [])
        assert len(chain) == 3
        assert [b.header.height for b in chain] == [0, 1, 2]

    def test_records_for_device(self):
        chain = Blockchain()
        chain.append("agg1", 1.0, [record("d1", seq=0), record("d2", seq=0)])
        chain.append("agg1", 2.0, [record("d1", seq=1)])
        mine = chain.records_for_device("d1d1")
        assert len(mine) == 2

    def test_total_energy(self):
        chain = Blockchain()
        chain.append("agg1", 1.0, [record(energy=2.0, seq=0), record("d2", 3.0, 0)])
        assert chain.total_energy_mwh() == pytest.approx(5.0)
        assert chain.total_energy_mwh("d1d1") == pytest.approx(2.0)

    def test_resume_from_populated_store(self):
        store = BlockStore()
        chain = Blockchain(store)
        chain.append("agg1", 1.0, [record(seq=0)])
        resumed = Blockchain(store)
        assert resumed.height == 1
        assert resumed.tip_hash == chain.tip_hash
        resumed.append("agg1", 2.0, [record(seq=1)])
        resumed.validate()

    def test_memory_per_committed_record(self):
        # The fleets' ledger record (vector/fleet.py stages it): 11 keys,
        # the name and uid strings shared with the device, the current
        # in INA219 steps of 1/32 mA.  A block keeps each record's
        # canonical bytes (~240 B), not its dict (~800 B with its number
        # values).
        rng = random.Random(7)
        devices = [(f"dev-{n}-{d}", DeviceId(f"dev-{n}-{d}").uid)
                   for n in range(2) for d in range(20)]

        def interval(network, step):
            records = []
            for name, uid in devices[20 * network:20 * network + 20]:
                for k in range(10):
                    current_ma = rng.randrange(640, 12_800) / 32
                    records.append({
                        "device": name, "device_uid": uid, "sequence": 10 * step + k,
                        "measured_at": step + k / 10 - rng.random() / 1e6,
                        "interval_s": 0.1, "current_ma": current_ma, "voltage_v": 3.3,
                        "energy_mwh": current_ma * 3.3 * 0.1 / 3600, "buffered": False,
                        "roaming": False, "network": f"net-{network}",
                    })
            return records

        chain = Blockchain()
        chain.append("agg-0", 0.0, interval(0, 0))
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for step in range(1, 21):
                for network in range(2):
                    chain.append(f"agg-{network}", float(step), interval(network, step))
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_record = (after - before) / (chain.records_total - 200)
        assert per_record <= 320, f"{per_record:.0f} B retained per committed record"


class TestStores:
    def test_in_memory_height_ordering(self):
        store = BlockStore()
        block = Block.create(0, GENESIS_HASH, "a", 0.0, [])
        store.put(block)
        with pytest.raises(ChainError):
            store.put(block)  # height 0 again

    def test_in_memory_get_bounds(self):
        with pytest.raises(ChainError):
            BlockStore().get(0)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        store = BlockStore(path)
        chain = Blockchain(store)
        for i in range(5):
            chain.append("agg1", float(i), [record(seq=i)])
        # A fresh store instance reads the same chain back.
        reloaded = Blockchain(BlockStore(path))
        assert reloaded.height == 5
        reloaded.validate()

    def test_jsonl_corrupt_line_detected(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        store = BlockStore(path)
        Blockchain(store).append("agg1", 1.0, [])
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(ChainError):
            BlockStore(path).height()

    def test_jsonl_reopen_decodes_each_line_once(self, tmp_path, monkeypatch):
        path = tmp_path / "chain.jsonl"
        chain = Blockchain(BlockStore(path))
        for i in range(50):
            chain.append("agg1", float(i), [record(seq=i), record(device="d2", seq=i)])
        decoded = []
        from_line = Block.from_line
        monkeypatch.setattr(
            Block, "from_line", staticmethod(lambda line: decoded.append(1) or from_line(line))
        )
        reopened = Blockchain(BlockStore(path))
        assert len(decoded) == 50
        assert reopened.tip_hash == chain.tip_hash
        assert reopened.headers(0, 50) == chain.headers(0, 50)
        assert reopened.locate_record("d2d2", 49) == (49, 1)

    def test_readers_decode_each_block_once_per_call(self, tmp_path, monkeypatch):
        chain = Blockchain(BlockStore(tmp_path / "chain.jsonl"))
        for i in range(6):
            chain.append("agg1", float(i), [
                record(device, seq=3 * i + k) for k in range(3) for device in ("d1", "d2")
            ])
        lines, decodes = [], []
        from_line, records_at = Block.from_line, Block.records_at

        def read_line(line):
            block, records = from_line(line)
            lines.append(block.header.height)
            return block, records

        monkeypatch.setattr(Block, "from_line", staticmethod(read_line))
        monkeypatch.setattr(Block, "records_at", lambda block, indexes: (
            decodes.append(block.header.height) or records_at(block, indexes)))
        # Every block holds d1's records; all but the newest are read
        # back from their lines.
        assert len(chain.records_for_device("d1d1")) == 18
        assert (lines, decodes) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5])
        del lines[:], decodes[:]
        assert chain.total_energy_mwh() == pytest.approx(36.0)
        assert (lines, decodes) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5])
        del lines[:], decodes[:]
        receipt = find_and_issue(chain, "d1d1", 4)
        assert receipt.verify(chain)  # the block read for the receipt is kept
        assert (lines, decodes) == ([1], [1])

    def test_jsonl_empty_file_ok(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        path.write_text("\n")
        assert BlockStore(path).height() == 0

    def torn_chain(self, tmp_path):
        """A 3-block JSONL ledger whose last append died mid-line."""
        path = tmp_path / "chain.jsonl"
        chain = Blockchain(BlockStore(path))
        for i in range(3):
            chain.append("agg1", float(i), [record(seq=i), record(seq=i, device="d2")])
        data = path.read_bytes()
        last_line_start = data.rindex(b"\n", 0, len(data) - 1) + 1
        path.write_bytes(data[: last_line_start + (len(data) - last_line_start) // 2])
        return path, chain

    def test_jsonl_torn_tail_is_not_a_block(self, tmp_path):
        path, original = self.torn_chain(tmp_path)
        reopened = Blockchain(BlockStore(path))
        assert reopened.height == 2
        assert reopened.tip_hash == original.get(1).block_hash
        reopened.validate()

    def test_jsonl_append_after_torn_tail_replaces_it(self, tmp_path):
        path, _ = self.torn_chain(tmp_path)
        reopened = Blockchain(BlockStore(path))
        reopened.append("agg1", 9.0, [record(seq=9)])
        reopened.append("agg1", 10.0, [])
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""  # every line terminated
        for line in lines[:-1]:
            Block.from_line(line)[0].validate_structure()
        fresh = Blockchain(BlockStore(path))
        assert fresh.height == 4
        assert fresh.tip_hash == reopened.tip_hash
        assert audit_chain(fresh).clean

    def test_jsonl_evicted_block_serves_the_same_receipt(self, tmp_path):
        store = BlockStore(tmp_path / "chain.jsonl")
        chain = Blockchain(store)
        for i in range(2):
            chain.append("agg1", float(i), [record(seq=3 * i + k) for k in range(3)])
        newest = store.get(1)
        assert newest is store.get(1)  # cached
        cached = find_and_issue(chain, "d1d1", 4)
        # The store keeps only the newest body: one block more archives block 1.
        chain.append("agg1", 2.0, [record(seq=6 + k) for k in range(3)])
        archived = store.get(1)
        assert archived is not newest  # read back from its line
        assert archived is store.get(1)  # kept as the last block read
        store.get(0)
        assert store.get(1) is not archived  # read back again
        evicted = find_and_issue(chain, "d1d1", 4)
        assert evicted == cached
        assert evicted.verify(chain)
        light = HeaderChain()
        light.extend(chain.headers(0, chain.height))
        assert light.verify_receipt(receipt_from_dict(receipt_to_dict(evicted)))
        chain.validate()
        assert chain.records_for_device("d1d1") == [
            r for b in range(chain.height) for r in store.get(b).records
        ]

    def test_jsonl_misplaced_block_raises_with_its_line(self, tmp_path):
        path, _ = self.torn_chain(tmp_path)
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([lines[1], lines[0], b""]))
        with pytest.raises(ChainError, match=r"chain\.jsonl:1"):
            BlockStore(path).height()

    def test_jsonl_garbage_complete_line_still_raises(self, tmp_path):
        path, _ = self.torn_chain(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = b'{"header": garbage'
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ChainError, match=r"chain\.jsonl:2"):
            BlockStore(path).height()

    @pytest.mark.parametrize("rewrite", [
        lambda line: line + b"}",
        lambda line: b'{"BLOCK_HASH":' + line[len(b'{"block_hash":'):],
        lambda line: line.replace(b',"records":[', b', "records": [', 1),
        lambda line: line.replace(b'"agg1"', b'"agg\xc3\xa9"', 1),
    ], ids=["bytes-after-the-block", "another-prefix", "other-spacing", "non-ascii-byte"])
    def test_jsonl_line_in_another_layout_raises_with_its_line(self, tmp_path, rewrite):
        # Only the exact bytes Block.to_bytes writes read back as a block.
        path, _ = self.torn_chain(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = rewrite(lines[1])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ChainError, match=r"chain\.jsonl:2"):
            BlockStore(path).height()

    def test_jsonl_record_rewritten_in_place_reads_as_stored(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        chain = Blockchain(BlockStore(path))
        for i in range(4):
            chain.append("agg1", float(i), [record(seq=i), record("d2", seq=i)])
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"energy_mwh":1.0', b'"energy_mwh":9.0', 1)
        lines[2] = lines[2].replace(b'"sequence":2}', b'"sequence": 2}', 1)
        path.write_bytes(b"\n".join(lines))
        reopened = Blockchain(BlockStore(path))
        assert reopened.get(1).leaves[0] == chain.get(1).leaves[0].replace(b"1.0", b"9.0")
        assert reopened.get(2).leaves[0] == chain.get(2).leaves[0].replace(b":2}", b": 2}")
        assert reopened.get(2).records == chain.get(2).records
        assert reopened.total_energy_mwh("d1d1") == pytest.approx(12.0)
        assert audit_chain(reopened).invalid_blocks == (1, 2)

    def test_reading_an_archive_encodes_no_record(self, tmp_path, monkeypatch):
        path = tmp_path / "chain.jsonl"
        chain = Blockchain(BlockStore(path))
        for i in range(50):
            chain.append("agg1", float(i), [record(seq=i), record(device="d2", seq=i)])
        encoded = []
        canonical_bytes = hashing.canonical_bytes

        def counted(value):
            encoded.append(value)
            return canonical_bytes(value)

        for module in ("hashing", "block", "merkle"):
            monkeypatch.setattr(f"repro.chain.{module}.canonical_bytes", counted)

        def records_encoded():
            found = [v for v in encoded if isinstance(v, dict) and "device_uid" in v]
            del encoded[:]
            return found

        reopened = Blockchain(BlockStore(path))
        assert records_encoded() == []
        assert len(reopened.records_for_device("d1d1")) == 50
        reopened.validate()
        receipt = find_and_issue(reopened, "d2d2", 7)
        assert records_encoded() == []
        # Checking the proof hashes the receipt's own record, and only it.
        assert receipt.verify(reopened)
        assert records_encoded() == [receipt.record]


class TestAudit:
    def build_chain(self, store, n=8):
        chain = Blockchain(store)
        for i in range(n):
            chain.append("agg1", float(i), [record(seq=i, energy=float(i))])
        return chain

    def test_clean_chain_audits_clean(self):
        store = BlockStore()
        chain = self.build_chain(store)
        report = audit_chain(chain)
        assert report.clean
        assert report.first_bad_height is None

    def test_mutated_record_detected(self):
        store = BlockStore()
        chain = self.build_chain(store)
        victim = store.get(3)
        forged_records = list(victim.records)
        forged_records[0] = dict(forged_records[0], energy_mwh=0.0)
        store.tamper(3, Block(victim.header, tuple(forged_records), victim.block_hash))
        report = audit_chain(chain)
        assert not report.clean
        assert 3 in report.invalid_blocks
        assert report.first_bad_height == 3

    def test_recomputed_hash_breaks_link(self):
        # A smarter attacker recomputes the block hash — the *next*
        # block's previous-hash link still exposes the edit.
        store = BlockStore()
        chain = self.build_chain(store)
        victim = store.get(3)
        forged = Block.create(
            height=3,
            previous_hash=victim.header.previous_hash,
            aggregator=victim.header.aggregator,
            timestamp=victim.header.timestamp,
            records=[dict(victim.records[0], energy_mwh=0.0)],
        )
        store.tamper(3, forged)
        report = audit_chain(chain)
        assert not report.clean
        assert 4 in report.broken_links

    def test_validate_raises_on_tamper(self):
        store = BlockStore()
        chain = self.build_chain(store)
        victim = store.get(2)
        store.tamper(2, Block(victim.header, ({"forged": True},), victim.block_hash))
        with pytest.raises(BlockValidationError):
            chain.validate()

    def test_empty_chain_clean(self):
        assert audit_chain(Blockchain()).clean

    def test_report_collects_all_problems(self):
        store = BlockStore()
        chain = self.build_chain(store)
        for height in (2, 5):
            victim = store.get(height)
            store.tamper(
                height, Block(victim.header, ({"forged": height},), victim.block_hash)
            )
        report = audit_chain(chain)
        assert set(report.invalid_blocks) == {2, 5}


class TestConsensus:
    def test_quorum_commits(self):
        sim, _, chain, consensus = poa_committee([accept] * 4, spans=True)
        assert run_round(sim, consensus, [record()])
        assert chain.height == 1
        assert chain.get(0).records == (record(),)
        votes = sorted(
            (span.actor, span.tags["accept"]) for span in sim.spans.by_name("consensus.vote")
        )
        assert votes == [(f"validator:v{i}", True) for i in range(4)]

    def test_rejection_below_quorum(self):
        sim, _, chain, consensus = poa_committee([accept, reject, reject])
        assert not run_round(sim, consensus, [record()])
        assert chain.height == 0

    def test_exact_two_thirds_insufficient(self):
        # Strictly-greater-than quorum: 2 of 3 accepts is not > 2/3.
        sim, _, chain, consensus = poa_committee([accept, accept, reject])
        assert not run_round(sim, consensus, [])
        assert chain.height == 0

    def test_proposer_rotates(self):
        # Round r is proposed by validator r mod n, so round 4 of 3 is v1's.
        sim, _, chain, consensus = poa_committee([accept] * 3)
        for _ in range(5):
            assert run_round(sim, consensus, [])
        assert [b.header.aggregator for b in chain] == ["v0", "v1", "v2", "v0", "v1"]

    def test_message_accounting(self):
        # The proposal to the 3 others and their 3 votes back to the
        # proposer: 6 mesh sends a round, committed or not.
        sim, mesh, _, consensus = poa_committee([plausible] * 4)
        assert run_round(sim, consensus, [record()])
        assert mesh.messages_sent == 6
        assert not run_round(sim, consensus, [record(energy=100.0)])
        assert mesh.messages_sent == 12

    def test_validator_checks_data(self):
        # Every validator re-checks the records of the batch it votes on.
        sim, _, chain, consensus = poa_committee([plausible] * 4)
        assert not run_round(sim, consensus, [record(energy=100.0)])
        assert run_round(sim, consensus, [record(energy=1.0)])
        assert [b.records for b in chain] == [(record(energy=1.0),)]
