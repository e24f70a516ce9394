"""Tests for repro.ids."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import AddressError
from repro.ids import AggregatorId, DeviceId, NetworkAddress, parse_address


class TestDeviceId:
    def test_uid_is_stable(self):
        assert DeviceId("escooter-1").uid == DeviceId("escooter-1").uid

    def test_uid_differs_by_name(self):
        assert DeviceId("a").uid != DeviceId("b").uid

    def test_uid_is_16_hex(self):
        uid = DeviceId("device1").uid
        assert len(uid) == 16
        int(uid, 16)

    def test_str_is_name(self):
        assert str(DeviceId("device1")) == "device1"

    def test_equality_and_hashability(self):
        assert DeviceId("x") == DeviceId("x")
        assert len({DeviceId("x"), DeviceId("x"), DeviceId("y")}) == 2

    def test_ordering(self):
        assert DeviceId("a") < DeviceId("b")

    def test_pickle_rehashes_under_another_hash_seed(self):
        # Workers started by spawn/forkserver unpickle ids in a process
        # whose string hashes are salted differently.
        src = str(Path(__file__).resolve().parents[1] / "src")

        def run(code, hash_seed, stdin=b""):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(hash_seed)}
            return subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env,
                capture_output=True, check=True,
            ).stdout

        pickled = run(
            "import pickle, sys; from repro.ids import DeviceId; "
            "sys.stdout.buffer.write(pickle.dumps(DeviceId('escooter-1')))",
            hash_seed=1,
        )
        verdict = run(
            "import pickle, sys; from repro.ids import DeviceId; "
            "loaded = pickle.loads(sys.stdin.buffer.read()); "
            "print(loaded == DeviceId('escooter-1'), "
            "DeviceId('escooter-1') in {loaded: 1})",
            hash_seed=2,
            stdin=pickled,
        )
        assert verdict.split() == [b"True", b"True"]

    @pytest.mark.parametrize("bad", ["", " ", "has space", "-leading", None, 7])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(AddressError):
            DeviceId(bad)

    def test_device_and_aggregator_uids_disjoint(self):
        # Same name, different namespace: must not collide.
        assert DeviceId("x").uid != AggregatorId("x").uid


class TestNetworkAddress:
    def test_str_form(self):
        address = NetworkAddress(AggregatorId("agg1"), 42)
        assert str(address) == "agg1/42"

    def test_parse_roundtrip(self):
        original = NetworkAddress(AggregatorId("agg1"), 7)
        assert parse_address(str(original)) == original

    @pytest.mark.parametrize("host", [-1, 65536, "x", 1.5])
    def test_invalid_host_rejected(self, host):
        with pytest.raises(AddressError):
            NetworkAddress(AggregatorId("agg1"), host)

    @pytest.mark.parametrize("text", ["agg1", "agg1/2/3", "agg1/xyz", "/5"])
    def test_malformed_parse_rejected(self, text):
        with pytest.raises(AddressError):
            parse_address(text)

    def test_same_host_different_aggregator_distinct(self):
        a = NetworkAddress(AggregatorId("agg1"), 1)
        b = NetworkAddress(AggregatorId("agg2"), 1)
        assert a != b
