"""Sharded multi-process simulation.

Partitions a :class:`~repro.runtime.spec.ScenarioSpec`'s fleet across
kernel shards — each shard owns a subset of the networks (aggregator,
its devices, a shard-local transport) on its own
:class:`~repro.sim.kernel.Simulator` — and synchronizes them with a
conservative time-window barrier derived from the minimum cross-shard
backhaul latency.  The backhaul mesh is the only cross-shard boundary.

* :mod:`repro.shard.partition` — :func:`partition` and the resulting
  :class:`ShardPlan` (network groups + conservative window),
* :mod:`repro.shard.plane` — the picklable cross-shard message records,
* :mod:`repro.shard.proxy` — :class:`ShardBackhaulProxy`, the per-shard
  mesh that routes remote traffic into an outbox,
* :mod:`repro.shard.engine` — :class:`ShardEngine`, one shard's wired
  world plus its window/absorb/finish drive API,
* :mod:`repro.shard.merge` — deterministic merge of per-shard chains
  and of the per-name maps (summaries, series banks) back into the
  serial view; counters fold by name
  (:func:`repro.obs.metrics.fold_counters`),
* :mod:`repro.shard.runner` — :func:`run_sharded`, the in-process and
  multi-process orchestrators behind the CLI's ``--shards``.

Determinism contract: for any shard count, noise-free fault set and the
``direct`` transport, the merged ledger digest, counters, fault schedule
and monitoring exports are byte-identical to the serial run
(``--shards 1`` *is* the serial path).  Every shard arms the
environment faults (channel blackout and noise, backhaul partition), so
only shard 0 reports their window-opening counters.  One known
exception: when an aggregator's restart re-arms its block duty ahead of
an earlier-declared aggregator's at the same instant (the paper testbed
with ``agg2`` crashing at 15 s for 4 s), the serial kernel flushes the
later-declared block first, the ``(timestamp, declaration index)``
merge does not, and the ledger digests differ.
"""

from repro.shard.engine import ShardEngine, ShardResult
from repro.shard.merge import merge_chain_ops
from repro.shard.partition import ShardPlan, partition
from repro.shard.plane import RemoteMessage
from repro.shard.proxy import ShardBackhaulProxy
from repro.shard.runner import ShardedRun, run_sharded

__all__ = [
    "ShardPlan",
    "partition",
    "RemoteMessage",
    "ShardBackhaulProxy",
    "ShardEngine",
    "ShardResult",
    "merge_chain_ops",
    "ShardedRun",
    "run_sharded",
]
