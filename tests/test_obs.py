"""Tests for the observability layer: spans, metrics, profiler, artifacts."""

import dataclasses
import json
import math
from types import SimpleNamespace

import pytest

from repro.monitoring.counters import CounterBank
from repro.monitoring.timeseries import SeriesBank
from repro.obs import (
    capture,
    collect_scenario,
    merge_artifact_dirs,
    merge_profiles,
    read_bundle,
)
from repro.obs.metrics import (
    fold_counters,
    render_jsonl,
    render_prometheus,
    snapshot_metrics,
)
from repro.obs.spans import DISABLED_TRACER, NOOP_SPAN, SpanTracer
from repro.obs.validate import validate_artifact_dir
from repro.runtime import ObsSpec, TransportSpec, build
from repro.workloads.scenarios import paper_testbed_spec, scaled_spec


class FakeClock:
    def __init__(self):
        self.now = 0.0


def observed_testbed(seed=7, until=10.0):
    """Build and run the paper testbed with observability forced on."""
    with capture(ObsSpec(enabled=True)) as session:
        scenario = build(paper_testbed_spec(seed=seed))
        scenario.run_until(until)
    return scenario, session


class TestSpanTracer:
    def test_parent_child_nesting(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        root = tracer.begin("register", "agg1", device="d1")
        clock.now = 0.5
        child = tracer.begin("verify", "agg1", parent=root)
        clock.now = 1.0
        tracer.finish(child, "ok")
        tracer.finish(root, "ok")
        assert tracer.roots() == [root]
        assert tracer.children(root) == [child]
        assert child.parent_id == root.span_id
        assert child.duration == pytest.approx(0.5)
        assert root.tags == {"device": "d1"}

    def test_finish_is_idempotent_first_wins(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        span = tracer.begin("forward", "mesh")
        clock.now = 1.0
        tracer.finish(span, "delivered")
        clock.now = 2.0
        tracer.finish(span, "dropped")  # a duplicated delivery's copy
        assert span.status == "delivered"
        assert span.end == 1.0

    def test_event_is_zero_duration(self):
        tracer = SpanTracer(FakeClock())
        span = tracer.event("transport.send", "d1-link", topic="t")
        assert span.duration == 0.0
        assert span.status == "ok"

    def test_open_span_exports_as_open(self):
        tracer = SpanTracer(FakeClock())
        tracer.begin("handshake", "d1")
        (record,) = tracer.to_dicts()
        assert record["status"] == "open"
        assert record["end"] is None
        assert len(tracer.open_spans()) == 1

    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(None, enabled=False)
        span = tracer.begin("x", "y")
        tracer.finish(span)
        tracer.event("e", "y")
        assert span is NOOP_SPAN
        assert len(tracer) == 0
        assert not tracer.enabled
        assert len(DISABLED_TRACER) == 0

    def test_jsonl_round_trip(self):
        tracer = SpanTracer(FakeClock())
        tracer.finish(tracer.begin("a", "x"), "ok", n=1)
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "a" and record["tags"] == {"n": 1}


class TestMetricsRegistry:
    """The world snapshot, the counter fold and the renderers."""

    def make_snapshot(self):
        counters = CounterBank()
        counters.increment("reports_sent", 3)
        series = SeriesBank()
        series.record("feeder", 0.0, 1.5, unit="mA")
        series.record("feeder", 1.0, 2.5)
        return snapshot_metrics(SimpleNamespace(counters=counters, monitoring={"agg1": series}))

    def test_prometheus_text(self):
        text = render_prometheus(*self.make_snapshot())
        assert 'repro_counter{name="reports_sent"} 3' in text
        assert 'repro_series_last{name="agg1.feeder",unit="mA"} 2.5' in text
        assert 'repro_series_samples{name="agg1.feeder"} 2' in text

    def test_jsonl_records(self):
        records = [
            json.loads(line) for line in render_jsonl(*self.make_snapshot()).splitlines()
        ]
        kinds = {r["kind"] for r in records}
        assert kinds == {"counter", "series"}
        series = next(r for r in records if r["kind"] == "series")
        assert series["name"] == "agg1.feeder"
        assert series["samples"] == 2
        assert series["last_value"] == 2.5

    def test_non_finite_values_use_exposition_spellings(self):
        # Regression: these printed as Python's "inf"/"nan", which no
        # Prometheus parser accepts.  The exposition format mandates
        # +Inf/-Inf/NaN.
        series = SeriesBank()
        series.record("pos", 0.0, math.inf)
        series.record("neg", 0.0, -math.inf)
        series.record("bad", 0.0, math.nan)
        world = SimpleNamespace(counters=None, monitoring={"agg": series})
        text = render_prometheus(*snapshot_metrics(world))
        assert 'repro_series_last{name="agg.pos"} +Inf' in text
        assert 'repro_series_last{name="agg.neg"} -Inf' in text
        assert 'repro_series_last{name="agg.bad"} NaN' in text
        for spelling in ("inf", "nan"):
            for line in text.splitlines():
                assert not line.endswith(spelling), line

    def test_counter_collisions_sum(self):
        # The one counter fold: multi-run bundles and merged artifact
        # directories sum by name into a snapshot-ordered dict.
        merged = fold_counters([{"x": 1, "z": 2}, {"x": 2, "a": 4}, {}])
        assert merged == {"a": 4, "x": 3, "z": 2}
        assert list(merged) == ["a", "x", "z"]
        assert fold_counters([]) == {}


class TestObsSpec:
    def test_defaults_off(self):
        obs = ObsSpec()
        assert not obs.enabled and obs.spans and obs.profile

    def test_dict_round_trip(self):
        obs = ObsSpec(enabled=True, spans=False, profile=True)
        assert ObsSpec.from_dict(obs.to_dict()) == obs

    def test_scenario_spec_json_round_trip(self):
        spec = paper_testbed_spec(seed=3)
        spec = dataclasses.replace(spec, obs=ObsSpec(enabled=True))
        from repro.runtime import ScenarioSpec

        revived = ScenarioSpec.from_json(spec.to_json())
        assert revived.obs == spec.obs


class TestKernelProfiler:
    def test_profile_covers_every_event(self):
        scenario, _ = observed_testbed(until=5.0)
        snapshot = scenario.simulator.profiler.snapshot()
        assert snapshot["enabled"]
        assert snapshot["events"] == scenario.simulator.events_executed > 0
        assert sum(s["count"] for s in snapshot["by_actor"].values()) == snapshot["events"]
        assert (
            sum(s["count"] for s in snapshot["by_event_type"].values())
            == snapshot["events"]
        )

    def test_disabled_by_default(self):
        scenario = build(paper_testbed_spec(seed=7))
        sim = scenario.simulator
        assert sim.profiler is None
        assert not sim.spans.enabled
        # The disabled tracer's methods are the module-level no-ops, so
        # instrumented code pays a C-level call at most.
        from repro.obs.spans import _begin_disabled

        assert sim.spans.begin is _begin_disabled

    def test_samples_do_not_depend_on_run_call_length(self):
        # The profiler counts its own events across run calls, so a world
        # advanced in 0.1 s steps (as serve mode advances its own) samples
        # at the same events as one long run.
        def world():
            spec = scaled_spec(
                n_networks=3, devices_per_network=10, seed=7,
                transport=TransportSpec(kind="direct"),
            )
            return build(dataclasses.replace(spec, obs=ObsSpec(enabled=True, spans=False)))

        stepped = world()
        for k in range(1, 251):
            stepped.run_until(k * 0.1)
        single = world()
        single.run_until(stepped.simulator.now)
        assert stepped.simulator.events_executed > 20_000

        def samples(scenario):
            snapshot = scenario.simulator.profiler.snapshot()
            return [(s["events"], s["sim_time"]) for s in snapshot["samples"]]

        assert samples(stepped) == samples(single)
        events = [n for n, _ in samples(stepped)]
        assert events == list(range(10_000, stepped.simulator.events_executed + 1, 10_000))

    def test_observed_run_is_bit_identical_to_plain_run(self):
        plain = build(paper_testbed_spec(seed=7))
        plain.run_until(10.0)
        observed, _ = observed_testbed(seed=7, until=10.0)
        assert observed.chain.tip_hash == plain.chain.tip_hash
        assert observed.simulator.events_executed == plain.simulator.events_executed


class TestSpanInstrumentation:
    def test_paper_testbed_span_taxonomy(self):
        scenario, _ = observed_testbed(until=10.0)
        spans = scenario.simulator.spans
        names = {span.name for span in spans}
        assert {
            "membership.handshake",
            "membership.register",
            "report.conversation",
            "transport.send",
            "transport.deliver",
        } <= names
        assert spans.open_spans() == []
        handshakes = spans.by_name("membership.handshake")
        assert len(handshakes) == len(scenario.devices)
        assert all(s.status == "ok" for s in handshakes)
        reports = spans.by_name("report.conversation")
        assert reports and all(s.status == "accepted" for s in reports)

    def test_roaming_verify_nests_under_parent_span(self):
        from repro.aggregator.roaming import RoamingLiaison
        from repro.ids import AggregatorId, DeviceId
        from repro.net import BackhaulLink, BackhaulMesh
        from repro.sim import Simulator

        agg1, agg2 = AggregatorId("agg1"), AggregatorId("agg2")
        sim = Simulator(spans=True)
        mesh = BackhaulMesh(sim)
        host = RoamingLiaison(agg2, mesh)
        master = RoamingLiaison(agg1, mesh)
        inbox = {"host": [], "master": []}
        mesh.add_aggregator(agg2, lambda s, p: inbox["host"].append(p))
        mesh.add_aggregator(agg1, lambda s, p: inbox["master"].append(p))
        mesh.connect(BackhaulLink(agg1, agg2, 0.001))

        parent = sim.spans.begin("membership.register", "agg2", device="d1")
        host.request_verification(DeviceId("d1"), agg1, lambda r: None, parent_span=parent)
        sim.run()
        master.answer_verification(inbox["master"][0], is_member=True)
        sim.run()
        host.handle_verify_response(inbox["host"][0])
        sim.spans.finish(parent, "ok")

        (verify,) = sim.spans.by_name("roaming.verify")
        assert verify.parent_id == parent.span_id
        assert verify.status == "ok"
        forwards = sim.spans.by_name("backhaul.forward")
        assert len(forwards) == 2  # request out, response back
        assert all(s.status == "delivered" for s in forwards)


class TestArtifacts:
    def test_write_validate_read_round_trip(self, tmp_path):
        scenario, session = observed_testbed(until=5.0)
        paths = session.write(tmp_path / "run")
        assert validate_artifact_dir(tmp_path / "run") == []
        bundle = read_bundle(tmp_path / "run")
        assert bundle.counters == collect_scenario(scenario).counters
        assert len(bundle.spans) == len(scenario.simulator.spans)
        assert bundle.profile["enabled"]
        assert paths["metrics.prom"].read_text().startswith("# HELP")

    def test_disabled_run_still_writes_valid_artifacts(self, tmp_path):
        scenario = build(paper_testbed_spec(seed=7))
        scenario.run_until(2.0)
        scenario.write_obs_artifacts(tmp_path / "plain")
        assert validate_artifact_dir(tmp_path / "plain") == []
        bundle = read_bundle(tmp_path / "plain")
        assert bundle.spans == []
        assert bundle.profile == {"enabled": False}
        assert bundle.counters  # counters exist regardless of obs
        # Non-finite samples render as +Inf/-Inf/NaN, which must validate.
        bank = scenario.aggregator("agg1").monitoring
        for name, value in (("pos", math.inf), ("neg", -math.inf), ("bad", math.nan)):
            bank.record(name, 2.0, value, unit="mA")
        scenario.write_obs_artifacts(tmp_path / "non-finite")
        assert validate_artifact_dir(tmp_path / "non-finite") == []

    def test_merge_is_deterministic_and_sums(self, tmp_path):
        for index, seed in enumerate((7, 8)):
            _, session = observed_testbed(seed=seed, until=3.0)
            session.write(tmp_path / f"part{index}")
        merge_artifact_dirs(
            [tmp_path / "part0", tmp_path / "part1"], tmp_path / "merged"
        )
        assert validate_artifact_dir(tmp_path / "merged") == []
        merged = read_bundle(tmp_path / "merged")
        part0 = read_bundle(tmp_path / "part0")
        part1 = read_bundle(tmp_path / "part1")
        assert len(merged.spans) == len(part0.spans) + len(part1.spans)
        assert {span["part"] for span in merged.spans} == {0, 1}
        some = next(iter(part0.counters))
        assert merged.counters[some] == part0.counters[some] + part1.counters.get(
            some, 0
        )
        assert all(e["name"].startswith(("part0.", "part1.")) for e in merged.series)
        assert merged.profile["merged"] == 2
        assert (
            merged.profile["events"]
            == part0.profile["events"] + part1.profile["events"]
        )

    def test_merge_profiles_all_disabled(self):
        assert merge_profiles([{"enabled": False}, {"enabled": False}]) == {
            "enabled": False
        }

    def test_validator_flags_corrupt_artifacts(self, tmp_path):
        _, session = observed_testbed(until=2.0)
        session.write(tmp_path)
        (tmp_path / "profile.json").write_text("{}")
        (tmp_path / "spans.jsonl").write_text('{"name": "x"}\n')
        errors = validate_artifact_dir(tmp_path)
        assert any("profile.json" in e and "enabled" in e for e in errors)
        assert any("spans.jsonl" in e for e in errors)

    def test_validator_flags_missing_files(self, tmp_path):
        (tmp_path / "empty").mkdir()
        errors = validate_artifact_dir(tmp_path / "empty")
        assert any("manifest.json" in e for e in errors)


def _obs_sweep_point(seed):
    """Module-level so sweep worker processes can unpickle it."""
    scenario = build(paper_testbed_spec(seed=seed))
    scenario.run_until(3.0)
    return {"events": scenario.simulator.events_executed}


class TestSweepArtifacts:
    # profile.json carries wall-clock timings, which legitimately vary
    # run to run; everything else in the directory must be identical.
    DETERMINISTIC_FILES = ("manifest.json", "spans.jsonl", "metrics.jsonl", "metrics.prom")

    def test_parallel_merge_matches_serial(self, tmp_path):
        from repro.experiments.sweeps import sweep

        points = [{"seed": 7}, {"seed": 8}]
        serial = sweep(_obs_sweep_point, points, workers=1, obs_dir=tmp_path / "w1")
        parallel = sweep(_obs_sweep_point, points, workers=2, obs_dir=tmp_path / "w2")
        assert serial == parallel
        assert validate_artifact_dir(tmp_path / "w1") == []
        assert validate_artifact_dir(tmp_path / "w2") == []
        for name in self.DETERMINISTIC_FILES:
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w2" / name
            ).read_bytes(), name
        manifest = json.loads((tmp_path / "w1" / "manifest.json").read_text())
        assert manifest["merged_from"] == ["point-0000", "point-0001"]


class TestCli:
    def test_scenario_obs_dir(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "--scenario",
                "examples/specs/paper_testbed.json",
                "--until",
                "3",
                "--obs-dir",
                str(tmp_path / "obs"),
            ]
        )
        assert code == 0
        assert validate_artifact_dir(tmp_path / "obs") == []
        spans = (tmp_path / "obs" / "spans.jsonl").read_text().splitlines()
        assert spans  # the run was actually instrumented

    def test_validate_cli_round_trip(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        _, session = observed_testbed(until=2.0)
        session.write(tmp_path)
        assert validate_main([str(tmp_path)]) == 0
        (tmp_path / "profile.json").write_text("{}")
        assert validate_main([str(tmp_path)]) == 1
