"""Self-tests of the benchmark's tracer, result line and compare verdicts.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import types

import pytest

from benchmarks.e2e.runner import contract_line
from benchmarks.e2e.stats import verdict
from benchmarks.e2e.tracer import HOOKS, Hook, Tracer, dead_hooks, layer_metrics


class FakeClock:
    """Per-thread virtual time, advanced explicitly by the code under test."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds: float) -> None:
        self._local.now = self() + seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(3.0)

    traced_inner = tracer.wrap("layer.inner", inner)

    def outer():
        clock.advance(1.0)
        traced_inner()
        clock.advance(2.0)
        traced_inner()

    tracer.wrap("layer.outer", outer)()
    summary = tracer.summary()
    assert summary["layer.outer"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0}
    assert summary["layer.inner"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}


def test_recursive_key_counts_total_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def recurse(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("layer.recurse", recurse)
    traced(2)
    assert tracer.summary()["layer.recurse"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}


def test_threads_keep_separate_span_stacks():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inside_outer = threading.Barrier(2)
    inner_done = threading.Barrier(2)

    def inner():
        clock.advance(5.0)

    def outer():
        clock.advance(1.0)
        inside_outer.wait(timeout=10)
        inner_done.wait(timeout=10)
        clock.advance(1.0)

    traced_inner = tracer.wrap("layer.inner", inner)
    traced_outer = tracer.wrap("layer.outer", outer)

    def other_thread():
        # Runs a whole span while the main thread's outer span is open:
        # with one shared stack it would be charged to that span.
        inside_outer.wait(timeout=10)
        traced_inner()
        inner_done.wait(timeout=10)

    worker = threading.Thread(target=other_thread)
    worker.start()
    traced_outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    summary = tracer.summary()
    assert summary["layer.outer"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert summary["layer.inner"] == {"calls": 1, "total_s": 5.0, "self_s": 5.0}


def test_from_import_aliases_are_patched_and_restored():
    import repro.chain as chain_package
    import repro.chain.block as block
    import repro.chain.hashing as hashing
    import repro.chain.merkle as merkle
    from repro.chain.ledger import Blockchain

    originals = {
        "merkle_root": merkle.merkle_root,
        "canonical_bytes": hashing.canonical_bytes,
        "append": Blockchain.__dict__["append"],
    }
    hooks = [
        Hook("chain.merkle", "repro.chain.merkle:merkle_root", ()),
        Hook("chain.hashing", "repro.chain.hashing:canonical_bytes", ()),
        Hook("chain.ledger", "repro.chain.ledger:Blockchain.append", ()),
    ]
    tracer = Tracer()
    tracer.install(hooks)
    try:
        wrapped_root = merkle.merkle_root
        assert wrapped_root is not originals["merkle_root"]
        assert block.merkle_root is wrapped_root
        assert chain_package.merkle_root is wrapped_root
        assert merkle.canonical_bytes is hashing.canonical_bytes is not originals["canonical_bytes"]
        chain = Blockchain()
        chain.append("agg", 0.0, [{"device_uid": "d", "sequence": 1}])
        summary = tracer.summary()
        assert summary["chain.ledger.append"]["calls"] == 1
        # Block.create reached merkle_root through block's alias, and the
        # leaf hash reached canonical_bytes through merkle's alias.
        assert summary["chain.merkle.merkle_root"]["calls"] == 1
        assert summary["chain.hashing.canonical_bytes"]["calls"] >= 2
    finally:
        tracer.uninstall()
    assert merkle.merkle_root is originals["merkle_root"]
    assert block.merkle_root is originals["merkle_root"]
    assert chain_package.merkle_root is originals["merkle_root"]
    assert merkle.canonical_bytes is originals["canonical_bytes"]
    assert Blockchain.__dict__["append"] is originals["append"]


def test_every_hook_target_resolves_and_restores():
    tracer = Tracer()
    tracer.install(HOOKS)
    patched = list(tracer._patches)
    tracer.uninstall()
    assert len({hook.key for hook in HOOKS}) == len(HOOKS)
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_missing_target_fails_loudly():
    module = types.ModuleType("e2e_fake_module")
    sys.modules[module.__name__] = module
    try:
        with pytest.raises(KeyError):
            Tracer().install([Hook("fake", "e2e_fake_module:renamed", ())])
    finally:
        del sys.modules[module.__name__]


def test_liveness_flags_expected_hook_with_no_calls():
    hooks = [
        Hook("chain.ledger", "repro.chain.ledger:Blockchain.append", ("fleet_scalar",)),
        Hook("net.mqtt", "repro.net.mqtt:MqttClient.publish", ("roaming_mqtt",)),
    ]
    summary = {"chain.ledger.append": {"calls": 0, "total_s": 0.0, "self_s": 0.0}}
    assert dead_hooks(summary, "fleet_scalar", hooks) == ["chain.ledger.append"]
    assert dead_hooks(summary, "roaming_mqtt", hooks) == ["net.mqtt.publish"]
    summary["chain.ledger.append"]["calls"] = 4
    assert dead_hooks(summary, "fleet_scalar", hooks) == []


def test_layer_metrics_shares():
    hooks = [
        Hook("sim.kernel", "repro.sim.kernel:Simulator.run_until", ()),
        Hook("chain.hashing", "repro.chain.hashing:canonical_bytes", ()),
        Hook("chain.merkle", "repro.chain.merkle:merkle_root", ()),
    ]
    summary = {
        "sim.kernel.run_until": {"calls": 2, "total_s": 10.0, "self_s": 6.0},
        "chain.hashing.canonical_bytes": {"calls": 9, "total_s": 3.0, "self_s": 3.0},
        "chain.merkle.merkle_root": {"calls": 1, "total_s": 1.0, "self_s": 1.0},
    }
    metrics = layer_metrics(summary, 10.0, hooks)
    assert metrics["unattributed_share"] == pytest.approx(0.6)
    assert metrics["chain.self_share"] == pytest.approx(0.4)
    assert metrics["traced_share"] == pytest.approx(1.0)
    assert metrics["chain.hashing.canonical_bytes.calls"] == 9


def test_contract_line_flags_unmeasured_metric():
    spec = {
        "end_to_end": [
            {"name": "records_per_s", "unit": "records/s"},
            {"name": "latency_p50_ms", "unit": "ms"},
        ],
        "per_layer": [],
    }
    # A serve run whose 2x step had no successful request has no latency.
    result = {
        "trace": False,
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {"records_per_s": 5.0, "latency_p50_ms": math.nan},
    }
    line = contract_line(result, spec)
    assert line == {
        "correct": False,
        "attempted": 10,
        "failed": 1,
        "metrics": {"records_per_s": {"value": 5.0, "unit": "records/s"}},
    }
    json.dumps(line, allow_nan=False)


@pytest.mark.parametrize(
    ("base", "change", "expected"),
    [
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120] * 10, "improved"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [70] * 10, "regressed"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [99] * 10, "unchanged"),
        ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100], [95] * 10, "unresolved"),
    ],
)
def test_compare_verdicts(base, change, expected):
    assert verdict(base, change, "higher", 0.1)["verdict"] == expected
