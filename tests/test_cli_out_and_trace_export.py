"""Tests for CLI --out and trace JSONL export."""

import json

from repro.cli import main
from repro.runtime import build
from repro.sim import TraceRecorder
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
    def test_jsonl_roundtrip_fields(self):
        recorder = TraceRecorder()
        recorder.record(1.5, "cat.a", "actor1", value=3)
        recorder.record(2.5, "cat.b", "actor2")
        lines = recorder.to_jsonl().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "time": 1.5, "category": "cat.a", "actor": "actor1",
            "detail": {"value": 3},
        }

    def test_empty_trace_exports_empty(self):
        assert TraceRecorder().to_jsonl() == ""

    def test_save_jsonl(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record(0.0, "c", "a")
        path = tmp_path / "trace.jsonl"
        count = recorder.save_jsonl(path)
        assert count == 1
        assert json.loads(path.read_text())["category"] == "c"

    def test_full_run_trace_exports(self, tmp_path):
        scenario = build(paper_testbed_spec(seed=5))
        scenario.run_until(8.0)
        path = tmp_path / "run.jsonl"
        count = scenario.simulator.trace.save_jsonl(path)
        assert count > 100
        categories = {
            json.loads(line)["category"]
            for line in path.read_text().splitlines()
        }
        assert "device.registered" in categories
        assert "agg.register_master" in categories

    def test_unserialisable_detail_falls_back_to_str(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "c", "a", obj=object())
        data = json.loads(recorder.to_jsonl())
        assert "object object" in data["detail"]["obj"]
