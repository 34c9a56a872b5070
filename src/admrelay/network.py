"""Two-bus microgrid data model and its per-sequence Thevenin reductions.

The system is a source bus feeding a load bus over a cable, with the fault
applied at an interior point of the cable.  The relay point is that interior
node: an upstream relay measures the current in the source-side segment, a
downstream relay the current in the load-side segment, both together with
the node voltage.

The reference system's nameplate values are the defaults in
:data:`admrelay.scenario.FIELDS`, and ``build_model(default_scenario())``
builds its model.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import ModelError
from .phasors import SequenceTriple, parallel
from .records import Record


class SequenceImpedancePair(Record):
    """Series impedances of one element: z1 [ohm] for positive and negative
    sequence alike (exact for static elements), z0 [ohm] for zero sequence."""

    __slots__ = ("z1", "z0")

    def __init__(self, z1: complex, z0: complex) -> None:
        if z1.real < 0 or z0.real < 0:
            raise ModelError("series element must be passive: Re(z) >= 0")
        self.z1, self.z0 = z1, z0

    def scaled(self, factor: float) -> "SequenceImpedancePair":
        return SequenceImpedancePair(self.z1 * factor, self.z0 * factor)


class IdealSource(Record):
    """Balanced stiff voltage source; v1 is the line-neutral phasor [V]."""

    __slots__ = ("v1",)

    def __init__(self, v1: complex) -> None:
        self.v1 = v1

    def sequence_voltages(self) -> SequenceTriple:
        return SequenceTriple(0j, self.v1, 0j)


class CurrentLimitedInverter(Record):
    """Inverter abstracted as an unbalanced voltage source with an RMS cap.

    While its limiter is active the inverter holds negative- and zero-sequence
    voltage at the given fractions of the positive-sequence output, each
    rotated by its angle [rad].  i_max_rms is the per-phase output current cap.
    """

    __slots__ = ("v1", "v2_fraction", "v0_fraction", "v2_angle", "v0_angle", "i_max_rms")

    def __init__(self, v1: complex, v2_fraction: float, v0_fraction: float, v2_angle: float,
                 v0_angle: float, i_max_rms: float) -> None:
        if not 0.0 <= v2_fraction <= 1.0 or not 0.0 <= v0_fraction <= 1.0:
            raise ModelError("sequence-voltage fractions must lie in [0, 1]")
        if not i_max_rms > 0:
            raise ModelError("i_max_rms must be positive")
        self.v1, self.v2_fraction, self.v0_fraction = v1, v2_fraction, v0_fraction
        self.v2_angle, self.v0_angle, self.i_max_rms = v2_angle, v0_angle, i_max_rms

    def sequence_voltages(self) -> SequenceTriple:
        return SequenceTriple(
            zero=self.v1 * self.v0_fraction * cmath.exp(1j * self.v0_angle),
            pos=self.v1,
            neg=self.v1 * self.v2_fraction * cmath.exp(1j * self.v2_angle),
        )


SourceModel = IdealSource | CurrentLimitedInverter


class LoadModel(Record):
    """Wye load: z_load [ohm] per phase, z_ground [ohm] neutral to ground."""

    __slots__ = ("z_load", "z_ground")

    def __init__(self, z_load: complex, z_ground: complex = 0j) -> None:
        if not z_load.real > 0:
            raise ModelError("load must dissipate power: Re(z_load) > 0")
        self.z_load, self.z_ground = z_load, z_ground


class FaultKind(Enum):
    LINE_GROUND_A = "lg"
    LINE_LINE_BC = "ll"


class RelayLocation(Enum):
    UPSTREAM_OF_FAULT = "upstream"
    DOWNSTREAM_OF_FAULT = "downstream"


class FaultSpec(Record):
    """Shunt fault at the interior line node; rf [ohm] is purely resistive.

    rf = inf denotes the healthy network (fault branch open).
    """

    __slots__ = ("kind", "rf")

    def __init__(self, kind: FaultKind, rf: float) -> None:
        if rf < 0 or math.isnan(rf):
            raise ModelError("fault resistance must be >= 0")
        self.kind, self.rf = kind, rf


class MicrogridModel(Record):
    """Complete two-bus study case: source, line segments, load and fault."""

    __slots__ = ("source", "line_1m", "line_m2", "load", "fault", "frequency")

    def __init__(self, source: SourceModel, line_1m: SequenceImpedancePair,
                 line_m2: SequenceImpedancePair, load: LoadModel, fault: FaultSpec,
                 frequency: float) -> None:
        if not frequency > 0:
            raise ModelError("frequency must be positive")
        self.source, self.line_1m, self.line_m2 = source, line_1m, line_m2
        self.load, self.fault, self.frequency = load, fault, frequency

    def with_fault(self, fault: FaultSpec) -> "MicrogridModel":
        return self._replace(fault=fault)


class TheveninSet(Record):
    """Per-sequence reduction of the healthy network seen from the fault node."""

    __slots__ = ("z_eq1", "z_eq2", "z_eq0", "v_eq1")

    def __init__(self, z_eq1: complex, z_eq2: complex, z_eq0: complex, v_eq1: complex) -> None:
        self.z_eq1, self.z_eq2, self.z_eq0, self.v_eq1 = z_eq1, z_eq2, z_eq0, v_eq1


def load_impedance_from_power(p: float, q: float, v_ll: float) -> complex:
    """Per-phase wye impedance drawing p [W] + j q [var] at v_ll [V] line-line.

    Inverse of S = v_ll**2 / conj(Z) for the three-phase total.
    """
    if not p > 0:
        raise ModelError("load real power must be positive")
    if not v_ll > 0:
        raise ModelError("line-line voltage must be positive")
    return v_ll * v_ll / complex(p, -q)


def cable_impedance(r: float, l: float, f: float) -> complex:
    """Series impedance r + j*2*pi*f*l of a cable at frequency f [Hz]."""
    if r < 0 or l < 0 or f < 0:
        raise ModelError("cable parameters must be nonnegative")
    return complex(r, 2.0 * math.pi * f * l)


def downstream_path(m: MicrogridModel) -> tuple[complex, complex]:
    """Positive- and zero-sequence impedance of the load-side path from the
    fault node: (z_m2 + z_load, z_m2_0 + z_load + 3*z_ground)."""
    z_d1 = m.line_m2.z1 + m.load.z_load
    z_d0 = m.line_m2.z0 + m.load.z_load + 3.0 * m.load.z_ground
    return z_d1, z_d0


def thevenin_line_ground(m: MicrogridModel) -> TheveninSet:
    """Reduce each sequence network of the healthy system at the fault node.

    z_eq1 = z_1m || (z_m2 + z_load) with the matching voltage divider for
    v_eq1; the negative-sequence reduction equals the positive one; the
    zero-sequence path includes the load grounding.
    """
    z_d1, z_d0 = downstream_path(m)
    z_eq1 = parallel(m.line_1m.z1, z_d1)
    v_eq1 = m.source.v1 * z_d1 / (m.line_1m.z1 + z_d1)
    z_eq0 = parallel(m.line_1m.z0, z_d0)
    return TheveninSet(z_eq1=z_eq1, z_eq2=z_eq1, z_eq0=z_eq0, v_eq1=v_eq1)
