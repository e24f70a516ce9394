"""Vectorized fleet actor tests.

The contract under test: with ``vector.enabled`` the run produces
**byte-identical** observable state to the scalar path — ledger digest,
counters, per-device summaries, monitoring series — while folding
steady-state devices into array-backed cohorts.  Every de-vectorization
trigger (roam, injected fault, tamper, ledger sync) must fall back to
the full per-object actor without breaking that contract.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import ScenarioSpec, build
from repro.runtime.spec import LedgerSpec, ObsSpec, TransportSpec, VectorSpec
from repro.workloads.scenarios import scaled_spec

# Fast-join direct transport so short runs reach steady state quickly
# (default scan/assoc/connect would eat ~5.8 s of every run).
FAST_DIRECT = TransportSpec(kind="direct", scan_s=0.05, assoc_s=0.05, connect_s=0.02)


def direct_spec(
    n_networks: int = 1,
    devices: int = 3,
    seed: int = 7,
    **vector_kwargs,
) -> ScenarioSpec:
    spec = scaled_spec(n_networks, devices, seed=seed, transport=FAST_DIRECT)
    if vector_kwargs:
        spec = dataclasses.replace(spec, vector=VectorSpec(**vector_kwargs))
    return spec


def run_snapshot(spec: ScenarioSpec, until: float, mutate=None) -> dict:
    scenario = build(spec)
    if mutate is not None:
        mutate(scenario)
    scenario.run_until(until)
    snap = scenario.snapshot()
    snap.pop("spec")  # differs by design: the vector block is the toggle
    return snap


def canon(snap: dict) -> str:
    return json.dumps(snap, sort_keys=True, default=str)


def assert_identical(spec: ScenarioSpec, until: float, mutate=None, **vector_kwargs):
    vector_kwargs.setdefault("enabled", True)
    vspec = dataclasses.replace(spec, vector=VectorSpec(**vector_kwargs))
    scalar = run_snapshot(spec, until, mutate)
    vector = run_snapshot(vspec, until, mutate)
    assert canon(scalar) == canon(vector)
    return scalar, vector


class TestBitIdentity:
    def test_steady_state_identical(self):
        assert_identical(direct_spec(2, 3), 6.0)

    def test_vectorization_actually_engages(self):
        scenario = build(direct_spec(2, 3, enabled=True))
        scenario.run_until(6.0)
        assert scenario.vector_fleet.vectorized_count == 6

    def test_fewer_kernel_events_than_scalar(self):
        spec = direct_spec(1, 4)
        scalar = build(spec)
        scalar.run_until(8.0)
        vector = build(dataclasses.replace(spec, vector=VectorSpec(enabled=True)))
        vector.run_until(8.0)
        assert vector.simulator.events_executed < scalar.simulator.events_executed

    def test_monitoring_export_byte_identical(self, tmp_path):
        spec = direct_spec(2, 2)
        a = build(spec)
        a.run_until(5.0)
        a.export_monitoring(tmp_path / "scalar")
        b = build(dataclasses.replace(spec, vector=VectorSpec(enabled=True)))
        b.run_until(5.0)
        b.export_monitoring(tmp_path / "vector")
        names = sorted(p.name for p in (tmp_path / "scalar").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "vector").iterdir())
        for name in names:
            assert (tmp_path / "scalar" / name).read_bytes() == (
                tmp_path / "vector" / name
            ).read_bytes()

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        devices=st.integers(min_value=2, max_value=4),
        half=st.integers(min_value=4, max_value=13),
    )
    def test_property_energy_and_payloads_bit_identical(self, seed, devices, half):
        # Quiescent stop times only (mid-interval, off the 0.1 s tick
        # grid): the vector path applies one tick's effects atomically
        # at the staged delivery, so an observation *inside* a tick's
        # ~5 ms delivery window may see scalar's ack round-trip still in
        # flight.  The digest contract covers quiescent instants.
        until = half / 2 + 0.25
        spec = direct_spec(1, devices, seed=seed)
        scalar, vector = assert_identical(spec, until)
        # the blanket snapshot equality already covers these, but spell
        # out the headline claims:
        for name, dev in scalar["devices"].items():
            assert dev["energy_mwh"] == vector["devices"][name]["energy_mwh"]
        assert scalar["ledger_digest"] == vector["ledger_digest"]
        assert scalar["counters"] == vector["counters"]


class TestDevectorizationTriggers:
    def test_roam_releases_device(self):
        spec = direct_spec(2, 3)

        def roam(scenario):
            device = scenario.device("dev-0-0")
            scenario.simulator.schedule(
                3.0, lambda: device.leave_network(), label="test:leave"
            )
            scenario.enter_at("dev-0-0", "net-1", 3.5)

        assert_identical(spec, 8.0, mutate=roam)
        # and the release actually happened on the vector run
        vspec = dataclasses.replace(spec, vector=VectorSpec(enabled=True))
        scenario = build(vspec)
        device = scenario.device("dev-0-0")
        scenario.simulator.schedule(3.0, lambda: device.leave_network())
        released = []
        scenario.run_until(2.0)
        assert device.vectorized
        scenario.run_until(3.0)
        assert not device.vectorized

    def test_hub_fault_releases_unit_devices(self):
        spec = direct_spec(2, 2)

        def crash(scenario):
            hub = scenario.aggregator("net-0").endpoint
            scenario.simulator.schedule(3.0, lambda: hub.set_down(True))
            scenario.simulator.schedule(4.0, lambda: hub.set_down(False))

        assert_identical(spec, 8.0, mutate=crash)
        vspec = dataclasses.replace(spec, vector=VectorSpec(enabled=True))
        scenario = build(vspec)
        hub = scenario.aggregator("net-0").endpoint
        scenario.simulator.schedule(3.0, lambda: hub.set_down(True))
        scenario.run_until(3.0)
        fleet = scenario.vector_fleet
        assert not scenario.device("dev-0-0").vectorized
        assert not scenario.device("dev-0-1").vectorized
        # the other network's cohort rides on
        assert scenario.device("dev-1-0").vectorized

    def test_transport_fault_releases_everyone(self):
        # A channel blackout installs a transport-level injector, which
        # must release every cohort (release_all).
        from repro.runtime.spec import FaultSpec

        spec = dataclasses.replace(
            direct_spec(1, 3),
            faults=(
                FaultSpec(
                    name="blackout",
                    kind="channel_blackout",
                    start_at=3.0,
                    duration_s=1.0,
                ),
            ),
        )
        assert_identical(spec, 8.0)
        vspec = dataclasses.replace(spec, vector=VectorSpec(enabled=True))
        scenario = build(vspec)
        scenario.run_until(3.0)
        assert scenario.vector_fleet.vectorized_count == 0

    def test_tamper_attack_releases_device(self):
        from repro.anomaly.tamper import ScalingAttack

        spec = direct_spec(1, 3)

        def attack(scenario):
            device = scenario.device("dev-0-0")
            scenario.simulator.schedule(
                3.0,
                lambda: setattr(device, "tamper_attack", ScalingAttack(0.5)),
                label="test:tamper",
            )

        assert_identical(spec, 8.0, mutate=attack)
        vspec = dataclasses.replace(spec, vector=VectorSpec(enabled=True))
        scenario = build(vspec)
        device = scenario.device("dev-0-0")
        scenario.simulator.schedule(
            3.0, lambda: setattr(device, "tamper_attack", ScalingAttack(0.5))
        )
        scenario.run_until(3.0)
        assert not device.vectorized

    def test_ledger_sync_devices_never_vectorize(self):
        spec = dataclasses.replace(
            direct_spec(1, 3, enabled=True),
            ledger=LedgerSpec(sync_enabled=True),
        )
        scenario = build(spec)
        scenario.run_until(6.0)
        assert scenario.vector_fleet.vectorized_count == 0

    def test_released_devices_revectorize_when_quiescent(self):
        spec = direct_spec(1, 3, enabled=True)
        scenario = build(spec)
        hub = scenario.aggregator("net-0").endpoint
        scenario.simulator.schedule(3.0, lambda: hub.set_down(True))
        scenario.simulator.schedule(3.2, lambda: hub.set_down(False))
        scenario.run_until(3.1)
        assert scenario.vector_fleet.vectorized_count == 0
        scenario.run_until(10.0)
        assert scenario.vector_fleet.vectorized_count == 3


class TestVectorSpec:
    def test_default_off_round_trip(self):
        spec = direct_spec(1, 2)
        assert not spec.vector.enabled
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec

    def test_enabled_round_trip_lossless(self):
        spec = direct_spec(1, 2, enabled=True)
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.vector == VectorSpec(enabled=True)

    def test_validation(self):
        from repro.errors import ConfigError

        # The scan cadence and the cohort floor are fleet constants, not
        # spec keys: a document still carrying them fails loudly.
        for key, value in (
            ("backend", "python"), ("scan_interval_s", 2.0), ("min_cohort", 3),
        ):
            data = json.loads(direct_spec(1, 2, enabled=True).to_json())
            data["vector"][key] = value
            with pytest.raises(ConfigError, match="unknown keys"):
                ScenarioSpec.from_dict(data)


class TestProfilerWeights:
    def test_cohort_events_weighted_as_device_equivalents(self):
        from repro.obs.profiler import KernelProfiler

        spec = direct_spec(1, 3, enabled=True)
        scenario = build(spec)
        profiler = KernelProfiler()
        scenario.simulator.set_profiler(profiler)
        scenario.run_until(6.0)
        snap = profiler.snapshot()
        assert profiler.weighted_events > profiler.events
        assert snap["weighted_events"] == profiler.weighted_events
        cohort_labels = [
            k for k in snap["by_label"] if k.startswith("vector:sample:")
        ]
        assert cohort_labels
        stats = snap["by_label"][cohort_labels[0]]
        assert stats["weighted"] == 3 * stats["count"]

    def test_unweighted_profile_keeps_shape(self):
        from repro.obs.profiler import KernelProfiler

        scenario = build(direct_spec(1, 2))
        profiler = KernelProfiler()
        scenario.simulator.set_profiler(profiler)
        scenario.run_until(2.0)
        snap = profiler.snapshot()
        assert "weighted_events" not in snap
        assert all("weighted" not in s for s in snap["by_label"].values())

    def test_merged_artifacts_keep_device_equivalents(self, tmp_path):
        from repro.obs import merge_artifact_dirs
        from repro.obs.validate import validate_artifact_dir

        # Two vectorized worlds, as a --workers sweep writes them.  Spans
        # off: a span-recording world keeps devices out of cohorts.
        part_dirs = []
        for seed in (7, 8):
            spec = dataclasses.replace(
                direct_spec(2, 3, seed=seed, enabled=True),
                obs=ObsSpec(enabled=True, spans=False),
            )
            scenario = build(spec)
            scenario.run_until(6.0)
            part_dirs.append(tmp_path / f"seed{seed}")
            scenario.write_obs_artifacts(part_dirs[-1])
        merge_artifact_dirs(part_dirs, tmp_path / "merged")
        parts = [
            json.loads((part_dir / "profile.json").read_text()) for part_dir in part_dirs
        ]
        merged = json.loads((tmp_path / "merged" / "profile.json").read_text())
        assert merged["events"] == sum(p["events"] for p in parts)
        weighted = sum(p["weighted_events"] for p in parts)
        assert merged["weighted_events"] == weighted > merged["events"]
        assert merged["weighted_events_per_s"] == int(weighted / merged["wall_s"])
        for table in ("by_actor", "by_event_type"):
            for key, stats in merged[table].items():
                counts = [p[table][key] for p in parts if key in p[table]]
                total = sum(c.get("weighted", c["count"]) for c in counts)
                assert stats.get("weighted", stats["count"]) == total, (table, key)
                # Emitted only where it differs, like a single snapshot.
                assert stats.get("weighted") != stats["count"]
        assert any("weighted" in s for s in merged["by_actor"].values())
        assert validate_artifact_dir(tmp_path / "merged") == []
