"""Admittance (distance) relaying toolkit for inverter-interfaced microgrids.

Subpackage map:

* :mod:`admrelay.phasors` - complex phasors and symmetrical components
* :mod:`admrelay.network` - the two-bus microgrid model and its reductions
* :mod:`admrelay.faults` - closed-form fault solutions at the relay point
* :mod:`admrelay.nodal` - independent phase-domain nodal oracle
* :mod:`admrelay.relaying` - distance, mho and directional elements
* :mod:`admrelay.dcb` - directional comparison blocking simulation
* :mod:`admrelay.trajectory` - quasi-static R-X trajectory simulation
* :mod:`admrelay.scenario` / :mod:`admrelay.cli` - scenario files and CLI
"""

__version__ = "0.1.0"

from .errors import (
    AdmrelayError,
    ConvergenceError,
    DegenerateParallelError,
    MeasurementError,
    ModelError,
    NumericalError,
    ScenarioError,
    SingularSystemError,
)
from .network import (
    CurrentLimitedInverter,
    FaultKind,
    FaultSpec,
    IdealSource,
    LoadModel,
    MicrogridModel,
    RelayLocation,
    SequenceImpedancePair,
    TheveninSet,
    cable_impedance,
    load_impedance_from_power,
    thevenin_line_ground,
)
from .phasors import (
    ALPHA,
    PhaseTriple,
    SequenceTriple,
    parallel,
    phase_to_sequence,
    phasor,
    sequence_to_phase,
)

__all__ = [
    "ALPHA",
    "AdmrelayError",
    "ConvergenceError",
    "CurrentLimitedInverter",
    "DegenerateParallelError",
    "FaultKind",
    "FaultSpec",
    "IdealSource",
    "LoadModel",
    "MeasurementError",
    "MicrogridModel",
    "ModelError",
    "NumericalError",
    "PhaseTriple",
    "RelayLocation",
    "ScenarioError",
    "SequenceImpedancePair",
    "SequenceTriple",
    "SingularSystemError",
    "TheveninSet",
    "cable_impedance",
    "load_impedance_from_power",
    "parallel",
    "phase_to_sequence",
    "phasor",
    "sequence_to_phase",
    "thevenin_line_ground",
]
