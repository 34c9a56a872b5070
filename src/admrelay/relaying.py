"""Distance-relay measurement elements, mho zone test and directional logic.

The ground element measures v_ag / (i_a + k*i0); :func:`path_compensation`
returns the k that makes a relay behind a passive path read exactly that
path's positive-sequence impedance, while :func:`k_factor` keeps the widely
quoted 1 - z0/z1 form (its negative) for reference.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import MeasurementError, ModelError
from .records import Record
from .scenario import default_scenario

# Nominal phase voltage and current of the reference system's nameplate.
_nameplate = default_scenario()
NOMINAL_VOLTAGE_V = _nameplate.si("system", "line_line_voltage") / math.sqrt(3.0)
NOMINAL_CURRENT_A = _nameplate.si("system", "rated_power") / (
    math.sqrt(3.0) * _nameplate.si("system", "line_line_voltage")
)

# Directional elements refuse to decide below 2 percent of nominal.
DEFAULT_VOLTAGE_FLOOR_V = 0.02 * NOMINAL_VOLTAGE_V
DEFAULT_CURRENT_FLOOR_A = 0.02 * NOMINAL_CURRENT_A


class DirectionalDecision(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"
    INDETERMINATE = "indeterminate"


class GroundDistanceSettings(Record):
    """Configuration of one ground distance element: residual compensation
    factor k, mho reach [ohm] and the rotation of the mho diameter [rad]."""

    __slots__ = ("k", "reach", "mho_diameter_angle")

    def __init__(self, k: complex, reach: complex, mho_diameter_angle: float = 0.0) -> None:
        if not abs(reach) > 0:
            raise ModelError("mho reach must be nonzero")
        self.k, self.reach, self.mho_diameter_angle = k, reach, mho_diameter_angle


def k_factor(z0: complex, z1: complex) -> complex:
    """Residual compensation in the 1 - z0/z1 convention."""
    if z1 == 0:
        raise ModelError("k_factor: positive-sequence impedance must be nonzero")
    return 1.0 - z0 / z1


def path_compensation(z0: complex, z1: complex) -> complex:
    """Residual compensation z0/z1 - 1 for a path with impedances (z1, z0).

    Feeding this k to :func:`measure_zlg` with the phase current and zero
    sequence current of a passive path makes the element read exactly z1 of
    that path; it is the negative of :func:`k_factor`.
    """
    return -k_factor(z0, z1)


def measure_zlg(v_ag: complex, i_a: complex, i0: complex, k: complex) -> complex:
    """Ground distance measurement v_ag / (i_a + k*i0)."""
    denom = i_a + k * i0
    if abs(denom) == 0:
        raise MeasurementError("ground element: no current in the measuring loop")
    return v_ag / denom


def measure_zll(v_b: complex, v_c: complex, i_b: complex, i_c: complex) -> complex:
    """Phase distance measurement (v_b - v_c) / (i_b - i_c)."""
    di = i_b - i_c
    if abs(di) == 0:
        raise MeasurementError("phase element: no current difference between b and c")
    return (v_b - v_c) / di


def mho_trip(z: complex, settings: GroundDistanceSettings) -> bool:
    """True when z lies in the mho circle through the origin whose diameter is
    reach rotated by mho_diameter_angle; the boundary trips."""
    tip = settings.reach * cmath.exp(1j * settings.mho_diameter_angle)
    center = tip / 2.0
    radius = abs(tip) / 2.0
    return abs(z - center) <= radius * (1.0 + 1e-12)


def directional_neg_seq(
    v2: complex,
    i2: complex,
    line_angle: float,
    *,
    voltage_floor: float = DEFAULT_VOLTAGE_FLOOR_V,
    current_floor: float = DEFAULT_CURRENT_FLOOR_A,
) -> DirectionalDecision:
    """Negative-sequence directional decision from relay-point v2 and i2.

    FORWARD when the operating impedance v2/i2 falls within 90 degrees of
    line_angle [rad], REVERSE within 90 degrees of the opposite direction.
    This polarity treats the dominant negative-sequence injector as sitting
    on the source side of the relay, which is the inverter-fed radial case
    this toolkit studies; with a passive source network the roles invert.
    Quantities below the sensitivity floors return INDETERMINATE.
    """
    if abs(v2) < voltage_floor or abs(i2) < current_floor:
        return DirectionalDecision.INDETERMINATE
    operating = (v2 / i2) * cmath.exp(-1j * line_angle)
    if operating.real > 0:
        return DirectionalDecision.FORWARD
    if operating.real < 0:
        return DirectionalDecision.REVERSE
    return DirectionalDecision.INDETERMINATE
