"""ScenarioSpec / build runtime tests.

Covers the declarative-spec contract end to end:

* lossless round-trip — ``from_dict(to_dict())`` and the JSON path
  reproduce the spec exactly, over hypothesis-generated specs,
* determinism — the spec-built paper testbed reproduces the ledger
  digest the imperative builder produced before the refactor, and a
  direct-transport fleet its own pinned digest on a full and a line mesh,
* provenance — ``snapshot()`` carries the master seed and the
  originating spec,
* unified counters — every layer (devices, aggregators, mesh,
  channel, chain, faults) emits into the kernel's one
  :class:`CounterBank`, whether ``build`` wired it or a test did,
* the ``repro-experiments --scenario`` CLI path.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregator.unit import AggregatorUnit
from repro.chain.ledger import Blockchain
from repro.cli import main
from repro.device.stack import DeviceConfig, MeteringDevice
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.grid.topology import GridNetwork, GridTopology
from repro.ids import AggregatorId, DeviceId
from repro.net.backhaul import BackhaulMesh
from repro.runtime import (
    DeviceSpec,
    FaultSpec,
    LedgerSpec,
    MeshSpec,
    NetworkSpec,
    ObsSpec,
    ProfileSpec,
    ScenarioSpec,
    ServeSpec,
    TransportSpec,
    VectorSpec,
    build,
)
from repro.runtime.spec import FAULT_KINDS, MESH_TOPOLOGIES, TRANSPORT_KINDS
from repro.sim import Simulator
from repro.transport.direct import DirectTransport
from repro.workloads.scenarios import paper_testbed_spec, scaled_spec

EXAMPLE_SPECS = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "specs").glob("*.json")
)

# The smallest valid spec document, for the malformed-input cases.
_ONE_NETWORK = {"networks": [{"name": "a"}]}

# Ledger tip hash of the seed-7 paper testbed run to t=30.0, captured on
# the pre-refactor imperative builder. The spec path must reproduce it
# bit for bit.
PAPER_TESTBED_SEED7_DIGEST = (
    "bcca848983a69021572fb962b4887cd30c9e19978987dc1c0766c87eec59b70e"
)

# Ledger tip hash of the seed-7 4 x 3 fast-join direct fleet
# (``direct_fleet_spec``) run to t=4.0.  The fleet sends nothing over the
# backhaul, so the full and the line mesh must both reproduce it.
DIRECT_FLEET_SEED7_DIGEST = (
    "92af85f1aa32d39416f84e218092b0503bcce32e1c032974432816d7fd2f3cb0"
)

# Fast-join direct transport: the default scan/assoc/connect latencies
# (~5.8 s) would leave a 4 s run with an empty ledger.
FAST_DIRECT = TransportSpec(kind="direct", scan_s=0.05, assoc_s=0.05, connect_s=0.02)


def direct_fleet_spec(mesh: str) -> ScenarioSpec:
    """4 networks x 3 devices on the fast-join direct transport, seed 7."""
    spec = scaled_spec(4, 3, seed=7, transport=FAST_DIRECT, mesh_topology=mesh)
    return dataclasses.replace(spec, mesh=MeshSpec(topology=mesh, latency_s=0.05))

_name = st.text(alphabet="abcdefgh123", min_size=1, max_size=8)
_finite = st.floats(
    min_value=0.001, max_value=1000.0, allow_nan=False, allow_infinity=False
)

_profiles = st.one_of(
    st.builds(
        ProfileSpec,
        kind=st.just("constant"),
        params=st.fixed_dictionaries({"current_ma": _finite}),
    ),
    st.builds(
        ProfileSpec,
        kind=st.just("duty_cycle"),
        params=st.fixed_dictionaries(
            {
                "high_ma": _finite,
                "low_ma": _finite,
                "period_s": _finite,
                "duty": st.floats(min_value=0.05, max_value=0.95),
            }
        ),
    ),
    st.builds(
        ProfileSpec,
        kind=st.just("sinusoid"),
        params=st.fixed_dictionaries(
            {
                "mean_ma": st.floats(min_value=100.0, max_value=500.0),
                "amplitude_ma": st.floats(min_value=0.0, max_value=100.0),
                "period_s": _finite,
                "phase_s": _finite,
            }
        ),
    ),
)


_noise_params = st.dictionaries(
    st.sampled_from(("drop_p", "duplicate_p", "delay_p", "corrupt_p")),
    st.floats(min_value=0.0, max_value=0.9),
    max_size=4,
)


def _fault(draw, kind, name, network_names):
    """One valid fault of ``kind`` over ``network_names``."""
    start_at = draw(st.floats(min_value=0.0, max_value=20.0))
    duration = st.floats(min_value=0.5, max_value=20.0)
    if kind == "channel_blackout":
        return FaultSpec(
            kind=kind, name=name, start_at=start_at, duration_s=draw(duration),
            target=draw(st.sampled_from(("radio", "jammer"))),
        )
    if kind in ("channel_noise", "broker_noise"):
        target = draw(
            st.sampled_from(network_names)
            if kind == "broker_noise"
            else st.none() | st.just("radio")
        )
        return FaultSpec(
            kind=kind, name=name, start_at=start_at,
            duration_s=draw(st.none() | duration), target=target,
            params=draw(_noise_params),
        )
    if kind == "aggregator_crash":
        return FaultSpec(
            kind=kind, name=name, start_at=start_at, duration_s=draw(duration),
            target=draw(st.sampled_from(network_names)),
        )
    groups = st.lists(
        st.lists(st.sampled_from(network_names), min_size=1, max_size=3).map(tuple),
        min_size=2,
        max_size=3,
    ).map(tuple)
    return FaultSpec(
        kind=kind, name=name, start_at=start_at, duration_s=draw(duration),
        groups=draw(groups),
    )


@st.composite
def scenario_specs(draw):
    """A valid ScenarioSpec with coherent cross-references in every block."""
    network_names = draw(
        st.lists(_name, min_size=1, max_size=4, unique=True)
    )
    networks = tuple(
        NetworkSpec(
            name=name,
            supply_voltage_v=draw(st.floats(min_value=1.0, max_value=48.0)),
            wire_resistance_ohms=draw(st.floats(min_value=0.0, max_value=2.0)),
            wire_leakage_ma=draw(st.floats(min_value=0.0, max_value=10.0)),
            slot_count=draw(st.one_of(st.none(), st.integers(4, 64))),
        )
        for name in network_names
    )
    device_names = draw(
        st.lists(
            _name.map(lambda s: "dev-" + s), min_size=0, max_size=5, unique=True
        )
    )
    devices = tuple(
        DeviceSpec(
            name=name,
            network=draw(st.sampled_from(network_names)),
            profile=draw(_profiles),
            enter_at=draw(
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=30.0))
            ),
            distance_m=draw(st.floats(min_value=0.5, max_value=50.0)),
        )
        for name in device_names
    )
    topology = draw(st.sampled_from(MESH_TOPOLOGIES))
    links = ()
    if topology == "explicit":
        pair = st.tuples(st.sampled_from(network_names), st.sampled_from(network_names))
        links = tuple(draw(st.lists(pair, max_size=6)))
    mesh = MeshSpec(
        topology=topology,
        latency_s=draw(st.floats(min_value=1e-4, max_value=0.5)),
        links=links,
    )
    transport = TransportSpec(
        kind=draw(st.sampled_from(TRANSPORT_KINDS)),
        latency_s=draw(st.floats(min_value=0.0, max_value=0.1)),
        loss_p=draw(st.floats(min_value=0.0, max_value=0.5)),
        connect_s=draw(st.floats(min_value=0.01, max_value=2.0)),
        scan_s=draw(st.floats(min_value=0.0, max_value=10.0)),
        assoc_s=draw(st.floats(min_value=0.0, max_value=5.0)),
    )
    fault_kinds = draw(st.lists(st.sampled_from(FAULT_KINDS), max_size=5))
    faults = tuple(
        _fault(draw, kind, f"fault-{i}", network_names)
        for i, kind in enumerate(fault_kinds)
    )
    checkpoint = draw(st.integers(min_value=0, max_value=50))
    ledger = LedgerSpec(
        sync_enabled=draw(st.booleans()),
        header_batch_size=draw(st.integers(min_value=1, max_value=64)),
        sync_interval_s=draw(st.none() | st.floats(min_value=0.1, max_value=60.0)),
        checkpoint_interval_blocks=checkpoint,
        pruning_depth_blocks=draw(st.integers(0, 20)) if checkpoint else 0,
    )
    return ScenarioSpec(
        name=draw(_name),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        t_measure_s=draw(st.floats(min_value=0.01, max_value=5.0)),
        device_retry=draw(st.booleans()),
        networks=networks,
        devices=devices,
        mesh=mesh,
        transport=transport,
        faults=faults,
        obs=ObsSpec(
            enabled=draw(st.booleans()),
            spans=draw(st.booleans()),
            profile=draw(st.booleans()),
        ),
        ledger=ledger,
        vector=VectorSpec(enabled=draw(st.booleans())),
        serve=ServeSpec(
            enabled=draw(st.booleans()),
            host=draw(st.sampled_from(("127.0.0.1", "0.0.0.0", "localhost"))),
            port=draw(st.integers(min_value=0, max_value=65535)),
            network=draw(st.none() | st.sampled_from(network_names)),
            step_s=draw(st.floats(min_value=0.01, max_value=10.0)),
            poll_timeout_s=draw(st.floats(min_value=0.0, max_value=60.0)),
        ),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    def test_dict_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    def test_json_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=30, deadline=None)
    @given(scenario_specs())
    def test_to_dict_is_json_serializable(self, spec):
        # json round-trip of the dict must not change it either
        data = spec.to_dict()
        assert json.loads(json.dumps(data)) == data

    @pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda path: path.name)
    def test_example_spec_files_round_trip(self, path):
        spec = ScenarioSpec.from_json(path.read_text())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        data = paper_testbed_spec().to_dict()
        data["bogus"] = 1
        with pytest.raises(ConfigError):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "document, message",
        [
            pytest.param(
                {"networks": [{}]},
                "scenario.networks[0]: missing keys ['name']",
                id="network-without-name",
            ),
            pytest.param(
                {**_ONE_NETWORK, "faults": [
                    {"kind": "channel_blackout", "name": "b", "duration_s": 1.0}
                ]},
                "scenario.faults[0]: missing keys ['start_at']",
                id="fault-without-start",
            ),
            pytest.param(
                {**_ONE_NETWORK, "devices": [{"name": "d", "network": "a", "profile": 5}]},
                "scenario.devices[0].profile: expected an object, got int",
                id="profile-not-object",
            ),
            pytest.param(
                {"networks": 5},
                "scenario.networks: expected a list, got int",
                id="networks-not-list",
            ),
            pytest.param(
                {**_ONE_NETWORK, "mesh": []},
                "scenario.mesh: expected an object, got list",
                id="mesh-not-object",
            ),
            pytest.param([], "scenario: expected an object, got list", id="top-level-list"),
            pytest.param(
                {**_ONE_NETWORK, "mesh": {"latency_s": "fast"}},
                "scenario.mesh.latency_s: expected a number, got str",
                id="latency-string",
            ),
            pytest.param(
                {**_ONE_NETWORK, "transport": {"loss_p": "0.1"}},
                "scenario.transport.loss_p: expected a number, got str",
                id="loss-string",
            ),
            pytest.param(
                {"networks": [{"name": 5}]},
                "scenario.networks[0].name: expected a string, got int",
                id="network-name-int",
            ),
            pytest.param(
                {**_ONE_NETWORK, "ledger": {"checkpoint_interval_blocks": 1.5}},
                "scenario.ledger.checkpoint_interval_blocks: expected an integer, "
                "got float",
                id="ledger-float",
            ),
            pytest.param(
                {**_ONE_NETWORK, "sharding": {"shards": 2}},
                "scenario: unknown keys ['sharding']",
                id="sharding-block",
            ),
            pytest.param(
                {**_ONE_NETWORK, "seed": True},
                "scenario.seed: expected an integer, got bool",
                id="seed-bool",
            ),
            pytest.param(
                {**_ONE_NETWORK, "mesh": {"topology": "explicit", "links": [["a", "a", "a"]]}},
                "scenario.mesh.links[0]: expected 2 items, got 3",
                id="link-triple",
            ),
            pytest.param(
                {"networks": [{"name": "a", "supply_voltage_v": -5.0}]},
                "scenario.networks[0]: supply voltage must be positive",
                id="validation-error-has-path",
            ),
        ],
    )
    def test_malformed_document_names_its_json_path(self, document, message):
        # Spec files are outside input: every malformation is a
        # ConfigError naming where it sits, never a KeyError/TypeError.
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioSpec.from_dict(document)

    def test_device_unknown_network_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(
                networks=(NetworkSpec(name="agg1"),),
                devices=(
                    DeviceSpec(
                        name="d1",
                        network="nope",
                        profile=ProfileSpec("constant", {"current_ma": 10.0}),
                    ),
                ),
            )


class TestDeterminism:
    def test_paper_testbed_matches_pre_refactor_digest(self):
        scenario = build(paper_testbed_spec(seed=7))
        scenario.run_until(30.0)
        assert scenario.chain.tip_hash == PAPER_TESTBED_SEED7_DIGEST

    def test_observed_paper_testbed_matches_pinned_digest(self):
        # Spans + profiler are pure observation: an instrumented run
        # must reproduce the pinned ledger digest bit for bit.
        from repro.runtime import ObsSpec

        spec = dataclasses.replace(
            paper_testbed_spec(seed=7), obs=ObsSpec(enabled=True)
        )
        scenario = build(spec)
        scenario.run_until(30.0)
        assert scenario.chain.tip_hash == PAPER_TESTBED_SEED7_DIGEST
        assert len(scenario.simulator.spans) > 0
        assert scenario.simulator.profiler is not None

    def test_ledger_defaults_preserve_pinned_digest(self):
        # A LedgerSpec on every axis' default (sync off, no
        # checkpoints, no pruning) must build the exact pre-ledger-sync
        # world: the chainsync subscription draws no randomness and the
        # sync task never arms.
        from repro.runtime import LedgerSpec

        spec = dataclasses.replace(paper_testbed_spec(seed=7), ledger=LedgerSpec())
        scenario = build(spec)
        scenario.run_until(30.0)
        assert scenario.chain.tip_hash == PAPER_TESTBED_SEED7_DIGEST

    @pytest.mark.parametrize("mesh", ["full", "line"])
    def test_direct_fleet_matches_pinned_digest(self, mesh):
        scenario = build(direct_fleet_spec(mesh))
        scenario.run_until(4.0)
        assert scenario.chain.tip_hash == DIRECT_FLEET_SEED7_DIGEST

    def test_same_spec_builds_identical_worlds(self):
        spec = scaled_spec(n_networks=2, devices_per_network=3, seed=11)
        digests = []
        for _ in range(2):
            scenario = build(spec)
            scenario.run_until(12.0)
            digests.append(scenario.chain.tip_hash)
        assert digests[0] == digests[1]

    def test_json_round_tripped_spec_builds_identical_world(self):
        spec = paper_testbed_spec(seed=7)
        revived = ScenarioSpec.from_json(spec.to_json())
        scenario = build(revived)
        scenario.run_until(30.0)
        assert scenario.chain.tip_hash == PAPER_TESTBED_SEED7_DIGEST


class TestProvenance:
    def test_snapshot_carries_seed_spec_and_digest(self):
        spec = paper_testbed_spec(seed=42)
        scenario = build(spec)
        scenario.run_until(5.0)
        snap = scenario.snapshot()
        assert snap["master_seed"] == 42
        assert snap["spec"] == spec.to_dict()
        assert snap["ledger_digest"] == scenario.chain.tip_hash
        assert json.loads(json.dumps(snap, default=str))  # JSON-safe

    def test_scenario_records_originating_spec(self):
        spec = paper_testbed_spec(seed=3)
        scenario = build(spec)
        assert scenario.spec == spec
        assert scenario.simulator.rng.master_seed == 3


class TestUnifiedCounters:
    def test_all_layers_share_one_counter_bank(self):
        scenario = build(paper_testbed_spec(seed=1))
        scenario.run_until(10.0)
        bank = scenario.counters
        assert bank is scenario.simulator.counters
        # one bank is visible from every layer's process
        for device in scenario.devices.values():
            assert device.counters is bank
        for unit in scenario.aggregators.values():
            assert unit.counters is bank
        assert scenario.mesh.counters is bank
        snapshot = bank.snapshot()
        assert any(key.startswith("chain.") for key in snapshot)
        assert any(key.startswith("device") for key in snapshot)
        assert any(".blocks_written" in key for key in snapshot)
        assert any(".acks_sent" in key for key in snapshot)

    def test_fault_plan_shares_the_bank(self):
        spec = paper_testbed_spec(
            seed=5,
            faults=(
                FaultSpec(
                    kind="channel_blackout",
                    name="radio-blackout",
                    start_at=2.0,
                    duration_s=3.0,
                    target="radio",
                ),
            ),
        )
        scenario = build(spec)
        scenario.run_until(10.0)
        assert scenario.fault_plan is not None
        assert scenario.fault_plan.simulator.counters is scenario.counters
        assert scenario.counters.get("fault.radio-blackout.activations") == 1

    def test_actors_built_on_one_kernel_share_its_bank(self):
        # No build(): each actor is wired by hand on one Simulator, and
        # still counts into that kernel's bank, faults included.
        sim = Simulator(seed=3)
        transport = DirectTransport(scan_s=0.05, assoc_s=0.05, connect_s=0.02)
        agg = AggregatorId("agg1")
        network = GridNetwork(agg)
        grid = GridTopology()
        grid.add_network(network)
        mesh = BackhaulMesh(sim)
        unit = AggregatorUnit(sim, agg, Blockchain(), mesh, network, transport=transport)
        device = MeteringDevice(
            sim, DeviceId("d1"), DeviceConfig(), grid, transport, lambda t: 50.0
        )
        plan = FaultPlan(sim)
        injector = plan.make_injector("radio")
        for actor in (device, unit, mesh, injector):
            assert actor.counters is sim.counters
        plan.link_blackout("blip", injector, start_at=3.0, duration_s=0.5)
        unit.start()
        device.enter_network(unit)
        sim.run_until(5.0)
        snapshot = sim.counters.snapshot()
        assert snapshot["d1.reports_sent"] == device.reports_sent > 0
        assert snapshot["fault.blip.activations"] == 1


class TestCliScenario:
    def test_scenario_flag_runs_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(paper_testbed_spec(seed=7).to_json())
        code = main(["--scenario", str(spec_file), "--until", "5"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["master_seed"] == 7
        assert snap["spec"]["name"] == "paper-testbed"
        assert snap["time"] == 5.0

    def test_scenario_flag_writes_snapshot_with_out(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            scaled_spec(n_networks=1, devices_per_network=2, seed=4).to_json()
        )
        out_dir = tmp_path / "out"
        code = main(
            ["--scenario", str(spec_file), "--until", "3", "--out", str(out_dir)]
        )
        assert code == 0
        capsys.readouterr()
        written = json.loads((out_dir / "scenario_snapshot.json").read_text())
        assert written["master_seed"] == 4
