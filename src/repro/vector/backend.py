"""Array math for the vectorized fleet.

:class:`NumpyBackend` runs the per-tick cohort kernel as one ufunc sweep
per operation.  It applies *exactly* the scalar device stack's operation
order per element, so its per-device results are bit-identical to the
scalar path: IEEE-754 arithmetic is deterministic, and numpy's
element-wise ufuncs on float64 perform the same rounding as the
equivalent Python expression.

The noise/latency *draws* stay with the caller (they come from the
per-device / per-aggregator RNG streams); the backend only does the
arithmetic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

# Seconds per year as the DS3231 model computes it (constant-folded the
# same way CPython folds the literal expression in ``Ds3231Rtc.read``).
_SECONDS_PER_YEAR = 365.25 * 24 * 3600


class NumpyBackend:
    """Vectorized cohort math on float64 ndarrays."""

    @staticmethod
    def from_list(values: Sequence[float]):
        return _np.array(values, dtype=_np.float64)

    @staticmethod
    def to_list(arr) -> list[float]:
        return arr.tolist()

    @staticmethod
    def delete(arr, index: int):
        return _np.delete(arr, index)

    @staticmethod
    def any_out_of_range(true_arr, range_arr) -> int | None:
        """Index of the first member whose true current exceeds its
        sensor range (member order, matching the scalar firing order),
        or None when all are in range."""
        mask = _np.abs(true_arr) > range_arr
        if not mask.any():
            return None
        return int(mask.argmax())

    @staticmethod
    def sample(true_arr, gain, offset, noise, lsb, voltage, interval_s,
               energy_total, true_total):
        """One measurement tick for the whole cohort.

        Mirrors ``Ina219.measure_ma`` + ``EnergyMeter.sample`` exactly:
        ``noisy = true*gain + offset (+ noise)``, LSB quantisation via
        round-half-even, the ``max(0.0, reading)`` clamp, and the
        ``reading * voltage * interval / 3600`` energy form.  Mutates the
        two running totals in place and returns
        ``(reading, energy)``.
        """
        noisy = true_arr * gain + offset + noise
        quantised = _np.rint(noisy / lsb) * lsb
        # max(0.0, x) keeps +0.0 for x in {-0.0, +0.0}; np.where with a
        # strict > reproduces that (np.maximum would propagate -0.0).
        reading = _np.where(quantised > 0.0, quantised, 0.0)
        energy = reading * voltage * interval_s / 3600.0
        energy_total += energy
        true_total += true_arr * voltage * interval_s / 3600.0
        return reading, energy

    @staticmethod
    def rtc_read(now: float, last_sync, ppm, aging):
        """Batch ``Ds3231Rtc.read`` for offset-free, synced clocks."""
        elapsed = now - last_sync
        years = elapsed / _SECONDS_PER_YEAR
        effective_ppm = ppm + aging * years
        # Scalar form is (now + offset) + elapsed*ppm*1e-6 with
        # offset == 0.0; now + 0.0 == now bitwise for now > 0.
        return now + elapsed * effective_ppm * 1e-6

    @staticmethod
    def accumulate_idle(idle_time, entered_at, now: float):
        """MCU idle-state accounting for one tick (IDLE -> TX -> IDLE
        collapses to idle_time += now - entered_at; entered_at = now)."""
        idle_time += now - entered_at
        entered_at[:] = now

    @staticmethod
    def host_delays(rng, median: float, sigma: float, now: float, count: int):
        """Arrival times of a cohort's reports at the aggregator host.

        One batched lognormal draw consumes the host stream exactly like
        ``count`` sequential ``RaspberryPi.processing_latency_s`` calls
        (numpy's Generator produces bit-identical values and final state
        either way).
        """
        if sigma == 0:
            return [now + median] * count
        delays = median * rng.lognormal(0.0, sigma, size=count)
        return (now + delays).tolist()

    @staticmethod
    def stable_order(times: list[float]) -> list[int]:
        return _np.argsort(times, kind="stable").tolist()

    @staticmethod
    def noise_block(rng, std: float, count: int) -> list[float]:
        """``count`` sensor-noise draws, consuming the stream exactly
        like ``count`` sequential scalar ``rng.normal(0.0, std)``."""
        return rng.normal(0.0, std, size=count).tolist()
