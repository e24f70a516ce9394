"""Tests for CLI --out and trace JSONL export."""

import dataclasses
import json

from repro.cli import main
from repro.runtime import ObsSpec, build
from repro.sim import Process, Simulator
from repro.workloads.scenarios import paper_testbed_spec


class TestCliOut:
    def test_out_writes_files(self, tmp_path, capsys):
        assert main(["handshake", "--out", str(tmp_path)]) == 0
        written = tmp_path / "handshake.txt"
        assert written.exists()
        assert "T_handshake" in written.read_text()

    def test_no_out_writes_nothing(self, tmp_path, capsys):
        assert main(["handshake"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestTraceExport:
    """Trace points leave through the span stream's one JSONL writer."""

    def test_jsonl_roundtrip_fields(self):
        sim = Simulator(spans=True)
        proc = Process(sim, "actor1")
        sim.schedule(1.5, lambda: proc.trace("cat.a", value=3))
        sim.run()
        (line,) = sim.spans.to_jsonl().splitlines()
        assert json.loads(line) == {
            "span_id": 1, "parent_id": None, "name": "cat.a", "actor": "actor1",
            "start": 1.5, "end": 1.5, "status": "ok", "tags": {"value": 3},
        }

    def test_empty_trace_exports_empty(self):
        # A default (unobserved) world keeps no trace points at all.
        scenario = build(paper_testbed_spec(seed=5))
        scenario.run_until(10.0)
        assert len(scenario.simulator.spans) == 0
        assert scenario.simulator.spans.to_jsonl() == ""

    def test_save_jsonl(self, tmp_path):
        sim = Simulator(spans=True)
        Process(sim, "a").trace("c")
        path = tmp_path / "trace.jsonl"
        with path.open("w") as handle:
            assert sim.spans.save_jsonl(handle) == 1
        assert json.loads(path.read_text())["name"] == "c"

    def test_full_run_trace_exports(self, tmp_path):
        spec = dataclasses.replace(
            paper_testbed_spec(seed=5), obs=ObsSpec(enabled=True, profile=False)
        )
        scenario = build(spec)
        scenario.run_until(8.0)
        paths = scenario.write_obs_artifacts(tmp_path)
        lines = paths["spans.jsonl"].read_text().splitlines()
        assert len(lines) > 100
        names = {json.loads(line)["name"] for line in lines}
        assert {"device.registered", "agg.register_master", "report.conversation"} <= names
        # A delivery is recorded once, as the transport.deliver event.
        assert "transport.deliver" in names
        assert "mqtt.deliver" not in names

    def test_unserialisable_detail_falls_back_to_str(self):
        sim = Simulator(spans=True)
        Process(sim, "a").trace("c", obj=object())
        data = json.loads(sim.spans.to_jsonl())
        assert "object object" in data["tags"]["obj"]
