"""Complex phasor arithmetic and the symmetrical-component transform pair.

Phasors are plain ``complex`` values carrying steady-state fundamental
quantities (volts, amperes or ohms); magnitudes are RMS by convention.
The transform uses the 1/3-scaled analysis matrix and the sequence order
(zero, positive, negative).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DegenerateParallelError

ALPHA = cmath.exp(2j * math.pi / 3)
"""Unit rotation operator: multiplication advances a phasor by +120 degrees."""
ALPHA2 = ALPHA * ALPHA


class PhaseTriple(NamedTuple):
    """One three-phase quantity in phase coordinates (a, b, c)."""

    a: complex
    b: complex
    c: complex


class SequenceTriple(NamedTuple):
    """One three-phase quantity in sequence coordinates (zero, pos, neg)."""

    zero: complex
    pos: complex
    neg: complex


def phasor(mag: float, angle_deg: float = 0.0) -> complex:
    """Build a phasor from an RMS magnitude and an angle in degrees."""
    return cmath.rect(mag, math.radians(angle_deg))


def phase_to_sequence(p: PhaseTriple) -> SequenceTriple:
    """Resolve phase quantities into their symmetrical components."""
    a, b, c = p
    return SequenceTriple(
        zero=(a + b + c) / 3.0,
        pos=(a + ALPHA * b + ALPHA2 * c) / 3.0,
        neg=(a + ALPHA2 * b + ALPHA * c) / 3.0,
    )


def phase_parts(zero: complex, pos: complex, neg: complex) -> tuple[complex, complex, complex]:
    """The phase quantities (a, b, c) of the symmetrical components, as a plain tuple."""
    return zero + pos + neg, zero + ALPHA2 * pos + ALPHA * neg, zero + ALPHA * pos + ALPHA2 * neg


def sequence_to_phase(s: SequenceTriple) -> PhaseTriple:
    """Recombine symmetrical components into phase quantities."""
    return tuple.__new__(PhaseTriple, phase_parts(*s))


def fmt_complex(z: complex) -> str:
    """A complex value as printed in the CLI documents, 12 significant digits per part."""
    return f"{z.real:.12g}{z.imag:+.12g}j"


def parallel(zx: complex, zy: complex) -> complex:
    """Equivalent impedance of two parallel branches, zx*zy/(zx+zy).

    Raises ``DegenerateParallelError`` when the branch sum is numerically
    zero relative to the branch magnitudes (anti-resonant pair).
    """
    zx = complex(zx)
    zy = complex(zy)
    denom = zx + zy
    scale = max(abs(zx), abs(zy))
    if denom == 0 or abs(denom) < 1e-15 * scale:
        raise DegenerateParallelError(
            f"parallel({zx!r}, {zy!r}): branch sum {denom!r} is numerically zero"
        )
    return zx * zy / denom
