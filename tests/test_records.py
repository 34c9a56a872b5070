"""Value semantics of the package's records: repr, equality, hashing and
constructor validation, pinned on a few instances of each."""

import math

import pytest

from admrelay.dcb import ChannelModel, DcbScenario, RelayState
from admrelay.errors import ModelError
from admrelay.faults import FaultSolution
from admrelay.network import (
    CurrentLimitedInverter,
    FaultKind,
    FaultSpec,
    LoadModel,
    MicrogridModel,
    SequenceImpedancePair,
)
from admrelay.phasors import PhaseTriple, SequenceTriple
from admrelay.relaying import GroundDistanceSettings
from admrelay.scenario import build_model, default_scenario

LG = FaultKind.LINE_GROUND_A
INVERTER_REPR = (
    "CurrentLimitedInverter(v1=(277.1281292110204+0j), v2_fraction=0.6, v0_fraction=0.6, "
    "v2_angle=0.0, v0_angle=0.0, i_max_rms=70.0)"
)
CABLE_REPR = (
    "SequenceImpedancePair(z1=(0.0195+0.013345485592449441j), "
    "z0=(0.058499999999999996+0.04003645677734832j))"
)


def _solution(z: complex = 2 + 1j) -> FaultSolution:
    return FaultSolution(PhaseTriple(1, 2j, 3), PhaseTriple(1, 0, 0), SequenceTriple(0, 1, 0), z)


@pytest.mark.parametrize("record, text", [
    (FaultSpec(LG, 3.68), "FaultSpec(kind=<FaultKind.LINE_GROUND_A: 'lg'>, rf=3.68)"),
    (FaultSpec(FaultKind.LINE_LINE_BC, math.inf),
     "FaultSpec(kind=<FaultKind.LINE_LINE_BC: 'll'>, rf=inf)"),
    (LoadModel(7.68 + 3.84j), "LoadModel(z_load=(7.68+3.84j), z_ground=0j)"),
    (LoadModel(1 + 0j, z_ground=math.inf), "LoadModel(z_load=(1+0j), z_ground=inf)"),
    (build_model(default_scenario()),
     f"MicrogridModel(source={INVERTER_REPR}, line_1m={CABLE_REPR}, line_m2={CABLE_REPR}, "
     "load=LoadModel(z_load=(7.3728+3.6864j), z_ground=(1+0j)), "
     "fault=FaultSpec(kind=<FaultKind.LINE_GROUND_A: 'lg'>, rf=3.68), frequency=60.0)"),
    (RelayState(), "RelayState(forward_pickup=False, reverse_pickup=False, "
                   "coordination_timer=0.0, tripped=False)"),
    (RelayState(True, False, 1.5, tripped=True),
     "RelayState(forward_pickup=True, reverse_pickup=False, "
     "coordination_timer=1.5, tripped=True)"),
    (_solution(), "FaultSolution(relay_v=PhaseTriple(a=1, b=2j, c=3), "
                  "relay_i=PhaseTriple(a=1, b=0, c=0), "
                  "relay_seq_i=SequenceTriple(zero=0, pos=1, neg=0), z_measured=(2+1j), "
                  "intermediates={})"),
])
def test_repr_names_every_field_in_order(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("make, other", [
    (lambda: FaultSpec(LG, 3.68), FaultSpec(LG, 3.7)),
    (lambda: LoadModel(7.68 + 3.84j, 1 + 0j), LoadModel(7.68 + 3.84j)),
    (lambda: build_model(default_scenario()),
     build_model(default_scenario()).with_fault(FaultSpec(LG, 1.0))),
    (lambda: RelayState(True, coordination_timer=0.3), RelayState(True)),
])
def test_records_compare_and_hash_by_value(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    assert {a: 1}[b] == 1


def test_fault_solution_compares_by_value_and_is_unhashable():
    a, b = _solution(), _solution()
    assert a == b
    assert a != _solution(2 + 2j)
    b.intermediates["x"] = 1j
    assert a != b
    with pytest.raises(TypeError):
        hash(a)


def test_records_of_different_classes_never_compare_equal():
    assert LoadModel(1 + 1j, 2j) != SequenceImpedancePair(1 + 1j, 2j)
    assert SequenceImpedancePair(1 + 1j, 2j) != LoadModel(1 + 1j, 2j)
    assert FaultSpec(LG, 3.68) != (LG, 3.68)
    assert RelayState() != (False, False, 0.0, False)
    assert ChannelModel(0.0, True, 0.0, 0) != RelayState(0.0, True, 0.0, 0)
    assert _solution() != (PhaseTriple(1, 2j, 3), PhaseTriple(1, 0, 0), SequenceTriple(0, 1, 0),
                           2 + 1j, {})
    assert FaultSpec(LG, 3.68).__eq__((LG, 3.68)) is NotImplemented


def _inverter(**changes):
    fields = dict(v1=277 + 0j, v2_fraction=0.6, v0_fraction=0.6, v2_angle=0.0, v0_angle=0.0,
                  i_max_rms=70.0)
    return CurrentLimitedInverter(**{**fields, **changes})


def _model(**changes):
    m = build_model(default_scenario())
    fields = dict(source=m.source, line_1m=m.line_1m, line_m2=m.line_m2, load=m.load,
                  fault=m.fault, frequency=60.0)
    return MicrogridModel(**{**fields, **changes})


def _dcb(**changes):
    fields = dict(coordination_time=16.7, channel=ChannelModel(2.0, True, 0.0, 1),
                  fault_script={}, duration=100.0, step=0.1)
    return DcbScenario(**{**fields, **changes})


@pytest.mark.parametrize("build, message", [
    (lambda: SequenceImpedancePair(-1 + 0j, 1j), "series element must be passive: Re(z) >= 0"),
    (lambda: SequenceImpedancePair(1j, -0.1 + 1j), "series element must be passive: Re(z) >= 0"),
    (lambda: _inverter(v2_fraction=1.5), "sequence-voltage fractions must lie in [0, 1]"),
    (lambda: _inverter(v0_fraction=-0.1), "sequence-voltage fractions must lie in [0, 1]"),
    (lambda: _inverter(v2_fraction=math.nan), "sequence-voltage fractions must lie in [0, 1]"),
    (lambda: _inverter(i_max_rms=0.0), "i_max_rms must be positive"),
    (lambda: _inverter(i_max_rms=math.nan), "i_max_rms must be positive"),
    (lambda: LoadModel(0j), "load must dissipate power: Re(z_load) > 0"),
    (lambda: LoadModel(complex(math.nan, 1.0)), "load must dissipate power: Re(z_load) > 0"),
    (lambda: FaultSpec(LG, -1.0), "fault resistance must be >= 0"),
    (lambda: FaultSpec(LG, math.nan), "fault resistance must be >= 0"),
    (lambda: _model(frequency=0.0), "frequency must be positive"),
    (lambda: _model(frequency=math.nan), "frequency must be positive"),
    (lambda: GroundDistanceSettings(0.5j, 0j), "mho reach must be nonzero"),
    (lambda: _dcb(coordination_time=0.0), "coordination time must be positive"),
    (lambda: ChannelModel(-1.0, True, 0.0, 1), "channel latency must be >= 0"),
    (lambda: ChannelModel(2.0, True, 1.5, 1), "loss probability must lie in [0, 1]"),
    (lambda: _dcb(step=0.0), "simulation step must be positive"),
    (lambda: _dcb(duration=0.05), "duration must cover at least one step"),
])
def test_constructors_reject_invalid_arguments(build, message):
    with pytest.raises(ModelError) as info:
        build()
    assert str(info.value) == message


def test_with_fault_replaces_only_the_fault():
    m = build_model(default_scenario())
    faulted = m.with_fault(FaultSpec(FaultKind.LINE_LINE_BC, 1.0))
    assert faulted.fault == FaultSpec(FaultKind.LINE_LINE_BC, 1.0)
    assert (faulted.source, faulted.line_1m, faulted.load) == (m.source, m.line_1m, m.load)
    assert m.fault == FaultSpec(LG, 3.68)


def test_replace_rebuilds_through_the_validating_constructor():
    m = build_model(default_scenario())
    assert m._replace(frequency=50.0) == _model(frequency=50.0)
    assert m.frequency == 60.0
    assert RelayState()._replace(tripped=True) == RelayState(tripped=True)
    with pytest.raises(ModelError, match="frequency must be positive"):
        m._replace(frequency=-1.0)
    with pytest.raises(ModelError, match="fault resistance must be >= 0"):
        FaultSpec(LG, 1.0)._replace(rf=-1.0)
    with pytest.raises(ModelError, match="duration must cover at least one step"):
        _dcb()._replace(step=200.0)


def test_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError):
        FaultSpec(LG, 1.0)._replace(resistance=2.0)
    with pytest.raises(TypeError):
        RelayState()._replace(timer=1.0)
