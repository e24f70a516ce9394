"""Serve mode: spec plumbing, the service facade, and HTTP end to end."""

import dataclasses
import gc
import http.client
import json
import math
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest

from repro.chain.receipts import receipt_from_dict
from repro.chain.sync import MAX_HEADER_BATCH
from repro.errors import ChainError, CodecError, ConfigError
from repro.ids import DeviceId, parse_address
from repro.obs.artifacts import collect_scenario, write_artifacts
from repro.protocol import codec
from repro.protocol.codec import encode_message
from repro.protocol.messages import ConsumptionReport, RegistrationRequest
from repro.runtime import ScenarioSpec, ServeSpec, TransportSpec, build
from repro.serve import AggregatorService, ServeRunner
from repro.transport.direct import DirectHub, DirectLink, DirectTransport
from repro.workloads.scenarios import paper_testbed_spec


def serve_spec(seed=7, step_s=0.5, enter_devices=False, **serve_kwargs):
    spec = paper_testbed_spec(seed=seed, enter_devices=enter_devices)
    return dataclasses.replace(
        spec, serve=ServeSpec(enabled=True, step_s=step_s, **serve_kwargs)
    )


def report_dict(device, sequence, measured_at=None, current_ma=120.0):
    return {
        "type": "consumption_report",
        "device": device,
        "master": "agg1/1",
        "temporary": None,
        "sequence": sequence,
        "measured_at": 0.1 * sequence if measured_at is None else measured_at,
        "interval_s": 0.1,
        "current_ma": current_ma,
        "voltage_v": 5.0,
        "energy_mwh": current_ma * 5.0 * 0.1 / 3600.0,
        "buffered": False,
    }


def register_fleet(service, count=16):
    """Register ``ext-00``.. ``ext-<count-1>``; returns each one's master address."""
    for k in range(count):
        service.register(encode_message(RegistrationRequest(DeviceId(f"ext-{k:02d}"))))
    return {m.device_id.name: str(m.address) for m in service.unit.registry.members()}


def fleet_batch(master, sequence, at):
    """One report per registered device, device ``k`` drawing 20 + k mA."""
    return [
        {**report_dict(name, sequence, measured_at=at, current_ma=20.0 + k),
         "master": address}
        for k, (name, address) in enumerate(master.items())
    ]


class TestServeSpec:
    def test_defaults_off_and_round_trip(self):
        spec = paper_testbed_spec()
        assert not spec.serve.enabled
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert "serve" in spec.to_dict()

    def test_enabled_round_trip(self):
        spec = serve_spec(step_s=0.25, host="0.0.0.0", port=8123, network="agg2")
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.serve.port == 8123
        assert clone.serve.network == "agg2"

    def test_json_round_trip(self):
        spec = serve_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServeSpec(host="")
        with pytest.raises(ConfigError):
            ServeSpec(port=70000)
        with pytest.raises(ConfigError):
            ServeSpec(step_s=0.0)
        with pytest.raises(ConfigError):
            ServeSpec(poll_timeout_s=-1.0)

    def test_unknown_serve_network_rejected(self):
        spec = paper_testbed_spec()
        with pytest.raises(ConfigError):
            dataclasses.replace(spec, serve=ServeSpec(network="nope"))

    def test_old_spec_dict_without_serve_block_loads(self):
        data = paper_testbed_spec().to_dict()
        del data["serve"]
        assert ScenarioSpec.from_dict(data).serve == ServeSpec()


class TestServeTransport:
    def test_spec_kind_builds_serve_transport(self):
        transport = TransportSpec(kind="serve").build(None)
        assert isinstance(transport, DirectTransport)
        assert transport.wire_bytes
        assert transport.kind == "serve"
        assert not TransportSpec(kind="direct").build(None).wire_bytes

    def test_endpoints_carry_wire_bytes(self):
        spec = paper_testbed_spec(transport=TransportSpec(kind="serve"))
        scenario = build(spec)
        for unit in scenario.aggregators.values():
            assert isinstance(unit.endpoint, DirectHub)
            assert unit.endpoint.wire_bytes

    def test_link_factory_carries_wire_bytes(self):
        transport = DirectTransport(wire_bytes=True)
        link = transport.make_link(build(paper_testbed_spec()).simulator, "d1")
        assert isinstance(link, DirectLink)
        assert link.wire_bytes
        plain = DirectTransport().make_link(build(paper_testbed_spec()).simulator, "d2")
        assert not plain.wire_bytes

    def test_simulated_world_runs_on_serve_backend(self):
        # The full testbed crossing the codec on every hop must still
        # converge: registrations, reports, blocks.
        spec = paper_testbed_spec(seed=3, transport=TransportSpec(kind="serve"))
        scenario = build(spec)
        scenario.run_until(12.0)
        scenario.chain.validate()
        assert scenario.chain.height > 0
        assert sum(
            unit.registry.member_count for unit in scenario.aggregators.values()
        ) == len(scenario.devices)


class TestAggregatorService:
    def test_forces_serve_transport(self):
        service = AggregatorService(paper_testbed_spec(enter_devices=False))
        assert isinstance(service.unit.endpoint, DirectHub)
        assert service.unit.endpoint.wire_bytes

    def test_register_and_ingest_batch(self):
        service = AggregatorService(serve_spec())
        body = encode_message(RegistrationRequest(DeviceId("ext-1")))
        reply = service.register(body)
        assert reply["status"] == "registered"
        assert parse_address(reply["address"]).aggregator.name == "agg1"
        batch = json.dumps(
            {"reports": [report_dict("ext-1", s) for s in (1, 2, 3)]}
        )
        verdicts = service.ingest(batch)
        assert verdicts["accepted"] == 3
        assert [r["verdict"] for r in verdicts["results"]] == ["ack"] * 3

    def test_batching_amortises_kernel_work_per_report(self):
        # One kernel advance serves a whole batch, so the kernel events
        # spent per acknowledged report must not grow with batch size.
        per_report = {}
        for batch_size in (1, 8, 64):
            service = AggregatorService(serve_spec(step_s=0.05))
            service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
            sim = service.scenario.simulator
            before = sim.events_executed
            acked = 0
            for first in range(1, 65, batch_size):
                batch = [report_dict("ext-1", s) for s in range(first, first + batch_size)]
                acked += service.ingest(json.dumps({"reports": batch}))["accepted"]
            assert acked == 64, batch_size
            per_report[batch_size] = (sim.events_executed - before) / acked
        assert per_report[1] >= per_report[8] >= per_report[64], per_report
        assert per_report[64] <= 0.5 * per_report[1], per_report

    def test_register_rejects_wrong_message_type(self):
        service = AggregatorService(serve_spec())
        with pytest.raises(CodecError):
            service.register(json.dumps(report_dict("ext-1", 1)))

    def test_unregistered_report_nacked_with_reason(self):
        service = AggregatorService(serve_spec())
        verdicts = service.ingest(json.dumps([report_dict("ghost", 1)]))
        [result] = verdicts["results"]
        assert result["verdict"] == "nack"
        assert result["reason"] == "not_a_member"

    def test_out_of_range_report_nacked(self):
        service = AggregatorService(serve_spec())
        service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
        verdicts = service.ingest(
            json.dumps([report_dict("ext-1", 1, current_ma=5000.0)])
        )
        [result] = verdicts["results"]
        assert result["verdict"] == "nack"

    def test_malformed_batch_entries_get_error_verdicts(self):
        service = AggregatorService(serve_spec())
        service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
        batch = json.dumps(
            [report_dict("ext-1", 1), {"type": "martian"}, "not even an object"]
        )
        verdicts = service.ingest(batch)
        kinds = [r["verdict"] for r in verdicts["results"]]
        assert kinds == ["ack", "error", "error"]

    def test_non_finite_reading_is_an_error_and_ledger_keeps_every_ack(self):
        # A NaN reading passes the range screen; accepting it would make
        # the next block flush fail canonical encoding and stall the
        # ledger.  The codec refuses it; its honest neighbours land.
        service = AggregatorService(serve_spec(step_s=1.0))
        service.register(encode_message(RegistrationRequest(DeviceId("ext"))))
        service.ingest(json.dumps([report_dict("ext", s) for s in (1, 2)]))
        bad = report_dict("ext", 4, current_ma=float("nan"))
        verdicts = service.ingest(json.dumps([report_dict("ext", 3), bad]))
        assert [r["verdict"] for r in verdicts["results"]] == ["ack", "error"]
        later = service.ingest(json.dumps([report_dict("ext", s) for s in (5, 6, 7)]))
        assert later["accepted"] == 3
        service.advance()
        chain = service.scenario.chain
        on_ledger = [r["sequence"] for r in chain.records_for_device(DeviceId("ext").uid)]
        assert sorted(on_ledger) == [1, 2, 3, 5, 6, 7]

    def test_wrong_typed_fields_are_errors_and_never_reach_the_ledger(self):
        # Coercing these would ack a buffered record ("false" is truthy),
        # a sequence-3 record (int(3.9)) and a second copy of sequence 1
        # (int(True)).  The codec checks each field against its type.
        service = AggregatorService(serve_spec(step_s=1.0))
        service.register(encode_message(RegistrationRequest(DeviceId("ext"))))
        batch = [report_dict("ext", s) for s in (1, 2, 3.9, True)]
        batch[1]["buffered"] = "false"
        verdicts = service.ingest(json.dumps(batch))
        kinds = [r["verdict"] for r in verdicts["results"]]
        assert kinds == ["ack", "error", "error", "error"]
        for _ in range(3):
            service.advance()
        records = service.scenario.chain.records_for_device(DeviceId("ext").uid)
        assert [(r["sequence"], r["buffered"]) for r in records] == [(1, False)]

    def test_malformed_batch_body_raises(self):
        service = AggregatorService(serve_spec())
        with pytest.raises(CodecError):
            service.ingest(b"not json")
        with pytest.raises(CodecError):
            service.ingest(json.dumps({"reports": "nope"}))

    def test_nacks_surface_on_alert_stream(self):
        service = AggregatorService(serve_spec())
        service.ingest(json.dumps([report_dict("ghost", 1)]))
        feed = service.alerts(since=0, timeout_s=0.0)
        nacks = [a for a in feed["alerts"] if a["kind"] == "nack"]
        assert nacks and nacks[0]["device"] == "ghost"
        assert feed["next"] == len(feed["alerts"])
        # Cursor semantics: nothing new after the cursor.
        again = service.alerts(since=feed["next"], timeout_s=0.0)
        assert again["alerts"] == []

    def test_alert_poll_waits_at_most_the_spec_timeout(self):
        service = AggregatorService(serve_spec(poll_timeout_s=0.2))
        since = service.alerts(timeout_s=0.0)["next"]
        answered = []
        poller = threading.Thread(
            target=lambda: answered.append(service.alerts(since, timeout_s=1e9)), daemon=True
        )
        poller.start()
        poller.join(timeout=2.0)
        assert not poller.is_alive(), "a client's timeout_s held the poll past the spec's"
        assert answered == [{"alerts": [], "next": since}]
        for timeout_s in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError):
                service.alerts(since, timeout_s=timeout_s)

    def test_headers_and_offline_proof(self):
        service = AggregatorService(serve_spec())
        service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
        service.ingest(
            json.dumps({"reports": [report_dict("ext-1", s) for s in (1, 2)]})
        )
        service.advance(2.0)  # past a block flush
        headers = service.ledger_headers()
        assert headers["tip_height"] >= 1
        assert headers["headers"]
        proof = service.proof("ext-1", 2)
        receipt = receipt_from_dict(proof)
        assert receipt.verify()  # offline: no chain handle
        with pytest.raises(ChainError):
            service.proof("ext-1", 99)

    def test_headers_validation(self):
        service = AggregatorService(serve_spec())
        with pytest.raises(ConfigError):
            service.ledger_headers(from_height=-1)
        with pytest.raises(ConfigError):
            service.ledger_headers(count=0)

    def test_header_batch_is_capped_like_the_in_band_answer(self):
        service = AggregatorService(serve_spec(step_s=1.0))
        service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
        for sequence in range(1, MAX_HEADER_BATCH + 10):  # a block per step
            service.ingest(json.dumps([report_dict("ext-1", sequence)]))
        assert service.scenario.chain.height > MAX_HEADER_BATCH + 1
        batch = service.ledger_headers(1, 10**6)
        assert len(batch["headers"]) == MAX_HEADER_BATCH
        assert batch["from_height"] == batch["headers"][0]["header"]["height"] == 1

    def test_metrics_exposition(self, tmp_path):
        service = AggregatorService(serve_spec())
        service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
        service.ingest(json.dumps([report_dict("ext-1", 1)]))
        text = service.metrics()
        assert "# TYPE repro_counter counter" in text
        assert 'name="serve.reports_ingested"' in text
        # /metrics and the artifact exporter are one pipeline.
        paths = write_artifacts(tmp_path, [collect_scenario(service.scenario)])
        assert text == paths["metrics.prom"].read_text()

    def test_healthz_tracks_world(self):
        service = AggregatorService(serve_spec())
        before = service.healthz()
        assert before["status"] == "ok" and before["members"] == 0
        service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
        after = service.healthz()
        assert after["members"] == 1
        assert after["external_clients"] == 1
        assert after["sim_time_s"] > before["sim_time_s"]

    def test_verdicts_answered_pending_are_not_kept(self):
        # Steps too short for the processing latency answer every report
        # "pending"; the Acks that arrive later have no request waiting
        # for them and must not pile up.
        service = AggregatorService(serve_spec(step_s=0.0001))
        devices = [f"ext-{k}" for k in range(16)]
        for name in devices:
            service.register(encode_message(RegistrationRequest(DeviceId(name))))
        service.advance(1.0)
        master = {m.device_id.name: str(m.address) for m in service.unit.registry.members()}
        for sequence in range(1, 51):
            batch = [{**report_dict(name, sequence), "master": master[name]} for name in devices]
            verdicts = service.ingest(json.dumps(batch))
            assert {r["verdict"] for r in verdicts["results"]} == {"pending"}
        service.advance(1.0)
        assert service._verdicts == {}
        chain = service.scenario.chain
        assert len(chain.records_for_device(DeviceId("ext-0").uid)) == 50

    def test_memory_grows_per_block_not_per_record(self, monkeypatch):
        # The serve_mixed shape: 16 devices, one batch per 0.1 s step, a
        # block per 10 steps.  Once the body cache and the window history
        # are full, a record leaves only its index entry and its series
        # samples behind.  A 2 s window history fills sooner than the
        # default; the growth per record is the same.
        monkeypatch.setattr("repro.aggregator.aggregation.HISTORY_S", 2.0)
        service = AggregatorService(serve_spec(step_s=0.1))
        master = register_fleet(service)
        sequences = iter(range(1, 10_000))

        def ingest(steps):
            for _ in range(steps):
                batch = fleet_batch(master, next(sequences), service.sim_now)
                assert service.ingest(json.dumps(batch))["accepted"] == len(master)

        # Traced from the start, so objects replaced in steady state
        # count on both sides of the baseline.
        tracemalloc.start()
        try:
            ingest(10 + 40)  # one block for the newest body; history full at 2 s
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            measured = 300
            ingest(measured)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_record = (after - before) / (measured * len(master))
        assert per_record <= 96, f"{per_record:.0f} B retained per ingested record"

    def test_ledger_archive_lives_as_long_as_the_service(self):
        def served():
            service = AggregatorService(serve_spec(step_s=1.0))
            service.register(encode_message(RegistrationRequest(DeviceId("ext-1"))))
            service.ingest(json.dumps([report_dict("ext-1", 1)]))
            service.advance()
            path = service.scenario.chain._store.path
            assert path.exists()
            return service, path

        service, path = served()
        service.close()
        assert not path.parent.exists()
        service, path = served()
        del service
        gc.collect()
        assert not path.parent.exists()

    def test_simulated_devices_share_the_served_world(self):
        # A served world with the simulated fleet enabled: both report
        # paths (kernel devices and external batches) land in one chain.
        service = AggregatorService(serve_spec(enter_devices=True, step_s=1.0))
        for _ in range(10):
            service.advance()
        assert service.scenario.chain.height > 0
        assert service.unit.registry.member_count >= 2
        service.scenario.chain.validate()


class TestFrontDecodesOnce:
    """The HTTP body is the trust boundary: the front decodes it once and
    hands the message to the aggregator's endpoint, never re-encoding it."""

    @staticmethod
    def count_codec(monkeypatch):
        """Record ``(function, message type)`` for every encode, decode and
        dict check, wrapping each function in every module bound to it."""
        calls = []
        for name in ("encode_message", "decode_message", "message_from_dict"):
            original = getattr(codec, name)

            def counted(arg, _name=name, _original=original):
                result = _original(arg)
                message = arg if _name == "encode_message" else result
                calls.append((_name, type(message).__name__))
                return result

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_report_is_decoded_once_and_never_encoded(self, monkeypatch):
        service = AggregatorService(serve_spec(step_s=1.0))
        delivered = []
        endpoint = service.unit.endpoint
        for topic in ("meter/+/register", "meter/+/report"):
            endpoint.subscribe(topic, lambda _topic, payload: delivered.append(payload))
        reports = 24
        registration = encode_message(RegistrationRequest(DeviceId("ext-1")))
        batch = json.dumps([report_dict("ext-1", s) for s in range(1, reports + 1)])
        calls = self.count_codec(monkeypatch)

        assert service.register(registration)["status"] == "registered"
        assert service.ingest(batch)["accepted"] == reports

        uplink = Counter(c for c in calls if c[1] in ("RegistrationRequest", "ConsumptionReport"))
        # decode_message checks the dict it parsed with message_from_dict.
        assert uplink == {
            ("decode_message", "RegistrationRequest"): 1,
            ("message_from_dict", "RegistrationRequest"): 1,
            ("message_from_dict", "ConsumptionReport"): reports,
        }
        assert [type(p) for p in delivered] == (
            [RegistrationRequest] + [ConsumptionReport] * reports
        )

    def test_seed_7_script_ends_on_pinned_tip(self):
        # 16 registrations, then 60 batches of 16 reports, one per 0.1 s
        # step, and a second for the last block.  The hash was taken when
        # the front still re-encoded every body into wire bytes for the
        # endpoint; handing over the decoded message must not move it.
        service = AggregatorService(serve_spec(seed=7, step_s=0.1))
        master = register_fleet(service)
        for sequence in range(1, 61):
            batch = fleet_batch(master, sequence, service.sim_now)
            assert service.ingest(json.dumps({"reports": batch}))["accepted"] == 16
        service.advance(1.0)
        chain = service.scenario.chain
        assert chain.height == 7
        assert chain.tip_hash == (
            "b45282e7b7381b4b28688c15f31375bbc0181dd55a6d7917a32fed967ac63815"
        )


class TestServeHttp:
    @pytest.fixture()
    def service(self):
        return AggregatorService(serve_spec())

    @pytest.fixture()
    def server(self, service):
        with ServeRunner(service) as runner:
            host, port = runner.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            yield conn
            conn.close()

    def _json(self, conn, method, path, body=None):
        conn.request(method, path, body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def test_end_to_end_over_a_real_socket(self, server):
        status, health = self._json(server, "GET", "/healthz")
        assert (status, health["status"]) == (200, "ok")

        body = encode_message(RegistrationRequest(DeviceId("ext-1")))
        status, reply = self._json(server, "POST", "/register", body)
        assert (status, reply["status"]) == (200, "registered")

        batch = json.dumps({"reports": [report_dict("ext-1", s) for s in (1, 2, 3)]})
        status, verdicts = self._json(server, "POST", "/reports", batch.encode())
        assert status == 200 and verdicts["accepted"] == 3

        status, headers = self._json(server, "GET", "/ledger/headers")
        assert status == 200 and headers["tip_height"] >= 1

        status, proof = self._json(server, "GET", "/proofs/ext-1/3")
        assert status == 200
        assert receipt_from_dict(proof).verify()

    def test_metrics_parse_including_non_finite(self, service, server):
        # Push a genuinely non-finite sample into the served world's
        # monitoring bank, then require valid exposition text end to
        # end: every sample line parses the Prometheus way.
        import math

        service.unit.monitoring.record("residual_ratio", 0.0, math.inf)
        server.request("GET", "/metrics")
        response = server.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        text = response.read().decode()
        assert 'name="agg1.residual_ratio"} +Inf' in text
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            value = line.rsplit(" ", 1)[1]
            assert value in ("+Inf", "-Inf", "NaN") or math.isfinite(float(value))

    def test_error_mapping(self, server):
        status, body = self._json(server, "POST", "/register", b"not a message")
        assert status == 400 and "error" in body
        status, body = self._json(server, "GET", "/proofs/ghost/1")
        assert status == 404
        status, body = self._json(server, "GET", "/nowhere")
        assert status == 404
        status, body = self._json(server, "GET", "/register")
        assert status == 405
        status, body = self._json(server, "GET", "/ledger/headers?count=0")
        assert status == 400
        status, body = self._json(server, "GET", "/ledger/headers?count=zap")
        assert status == 400

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, server):
        # With TCP_NODELAY set, a response's body does not wait ~40 ms
        # for the client to ACK its headers.
        def timed_request():
            start = time.perf_counter()
            server.request("GET", "/healthz")
            response = server.getresponse()
            response.read()
            assert response.status == 200
            return time.perf_counter() - start

        for _ in range(3):
            timed_request()
        median_s = statistics.median(timed_request() for _ in range(20))
        assert median_s < 0.010, f"median {median_s * 1000:.1f} ms"

    def test_alerts_long_poll_times_out_empty(self, server):
        status, feed = self._json(server, "GET", "/alerts?since=0&timeout_s=0.05")
        assert status == 200
        assert feed == {"alerts": [], "next": 0}

    def test_alerts_refuse_a_non_finite_timeout(self, server):
        status, body = self._json(server, "GET", "/alerts?since=0&timeout_s=inf")
        assert status == 400 and "finite" in body["error"]

    def test_clean_shutdown_releases_port(self):
        service = AggregatorService(serve_spec())
        runner = ServeRunner(service).start()
        host, port = runner.address
        runner.stop()
        # The socket is closed: a fresh connection must be refused.
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(host, port, timeout=1)
            conn.request("GET", "/healthz")
            conn.getresponse()
