"""Unit helpers for the energy computation.

The simulation works internally in SI-adjacent engineering units that
match the paper's instrumentation:

* time in **seconds** (float, simulated time),
* current in **milliamperes** (INA219 reports mA),
* voltage in **volts**,
* charge in **milliampere-hours**,
* energy in **milliwatt-hours**,
* power in **milliwatts**.

Function names carry their units (``power_mw``, ``energy_mwh``), which
removes a whole class of unit bugs.
"""

from __future__ import annotations

from repro.errors import ConfigError

SECONDS_PER_HOUR = 3600.0


def power_mw(current_ma: float, voltage_v: float) -> float:
    """Instantaneous power in milliwatts from current (mA) and voltage (V).

    P[mW] = I[mA] * V[V] because mA * V = mW.
    """
    return current_ma * voltage_v


def energy_mwh(current_ma: float, voltage_v: float, duration_s: float) -> float:
    """Energy in milliwatt-hours consumed at a constant current.

    This is the computation the paper describes: "the energy consumption
    is computed using the sensor measurement value and the measurement
    duration" combined with the device's voltage characteristics.
    """
    if duration_s < 0:
        raise ConfigError(f"duration must be non-negative, got {duration_s}")
    return power_mw(current_ma, voltage_v) * duration_s / SECONDS_PER_HOUR
