"""Vectorized fleet execution.

Folds homogeneous steady-state devices into array-backed cohort actors
(:class:`~repro.vector.fleet.VectorFleet`): one kernel event per cohort
per measurement tick instead of ~4 events per device, with the full
per-object :class:`~repro.device.stack.MeteringDevice` actor restored
the moment anything interesting happens to a member.

The contract is strict: on a steady-state run the vectorized path
produces the same ledger digest, counters, summaries and monitoring
exports as the scalar path, bit for bit.
"""

from repro.vector.fleet import VectorFleet

__all__ = ["VectorFleet"]
