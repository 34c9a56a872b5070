import math

import numpy as np
import pytest

from admrelay.errors import ModelError
from admrelay.network import (
    FaultKind,
    FaultSpec,
    IdealSource,
    LoadModel,
    MicrogridModel,
    SequenceImpedancePair,
    cable_impedance,
    load_impedance_from_power,
    thevenin_line_ground,
)
from admrelay.phasors import parallel

from support import close, ideal, lg_model


def test_load_impedance_reproduces_complex_power():
    z = load_impedance_from_power(25e3, 12.5e3, 480.0)
    # independent check: recompute S = v_ll^2 / conj(Z)
    s = 480.0**2 / z.conjugate()
    assert close(s, 25e3 + 12.5e3j, 1e-9)
    assert close(z, 7.3728 + 3.6864j, 1e-9)
    assert abs(abs(z) - 3.6864 * math.sqrt(5.0)) < 1e-12


def test_load_impedance_unity_case():
    assert close(load_impedance_from_power(1.0, 0.0, 1.0), 1 + 0j, 1e-12)


def test_load_impedance_scaling_law():
    z1 = load_impedance_from_power(10e3, 5e3, 480.0)
    z2 = load_impedance_from_power(20e3, 10e3, 480.0)
    assert abs(abs(z1) / abs(z2) - 2.0) < 1e-12


def test_load_impedance_rejects_nonpositive_power():
    with pytest.raises(ModelError):
        load_impedance_from_power(0.0, 1.0, 480.0)
    with pytest.raises(ModelError):
        load_impedance_from_power(-5.0, 1.0, 480.0)


def test_cable_impedance_reference_values():
    z = cable_impedance(0.039, 70.8e-6, 60.0)
    assert close(z, complex(0.039, 2 * math.pi * 60 * 70.8e-6), 1e-12)
    assert abs(z.imag - 0.0266903) < 1e-6
    assert cable_impedance(0.039, 0.0, 60.0).imag == 0.0
    assert cable_impedance(0.039, 70.8e-6, 0.0).imag == 0.0


def _passive_model(z1m, z0m, z1d, z0d, z_load, z_g, v=277.0 + 0j):
    return MicrogridModel(
        source=IdealSource(v1=v),
        line_1m=SequenceImpedancePair(z1m, z0m),
        line_m2=SequenceImpedancePair(z1d, z0d),
        load=LoadModel(z_load=z_load, z_ground=z_g),
        fault=FaultSpec(FaultKind.LINE_GROUND_A, 1.0),
        frequency=60.0,
    )


def test_thevenin_formulas_match_direct_parallel():
    m = lg_model(3.68, ideal())
    th = thevenin_line_ground(m)
    z_d1 = m.line_m2.z1 + m.load.z_load
    z_d0 = m.line_m2.z0 + m.load.z_load + 3 * m.load.z_ground
    assert close(th.z_eq1, parallel(m.line_1m.z1, z_d1), 1e-12)
    assert close(th.z_eq0, parallel(m.line_1m.z0, z_d0), 1e-12)
    assert close(th.v_eq1, m.source.v1 * z_d1 / (m.line_1m.z1 + z_d1), 1e-12)
    # admittance-sum route
    assert close(1.0 / th.z_eq1, 1.0 / m.line_1m.z1 + 1.0 / z_d1, 1e-12)


def test_thevenin_negative_equals_positive_bit_for_bit():
    m = lg_model(3.68)
    th = thevenin_line_ground(m)
    assert th.z_eq1 == th.z_eq2


def test_thevenin_stiff_source_limit():
    m = _passive_model(0j, 0j, 0.1 + 0.1j, 0.1 + 0.1j, 8 + 4j, 0j)
    th = thevenin_line_ground(m)
    assert th.z_eq1 == 0j
    assert close(th.v_eq1, m.source.v1, 1e-12)


def test_thevenin_open_downstream_limit():
    m = _passive_model(0.02 + 0.01j, 0.06 + 0.03j, 1e9 + 0j, 1e9 + 0j, 1e9 + 0j, 0j)
    th = thevenin_line_ground(m)
    assert close(th.z_eq1, m.line_1m.z1, 1e-8)
    assert close(th.v_eq1, m.source.v1, 1e-8)


def test_symmetric_data_collapses_zero_sequence_to_positive():
    m = lg_model(3.68, cable_zero_seq_scale=1, load_grounding_resistance="0 ohm")
    th = thevenin_line_ground(m)
    assert close(th.z_eq0, th.z_eq1, 1e-12)


def test_voltage_divider_passivity():
    rng = np.random.default_rng(42)
    for _ in range(100):
        z = [complex(*v) for v in rng.uniform(0.0, 10.0, size=(3, 2))]
        m = _passive_model(z[0], z[0], z[1], z[1], z[2] + (0.1 + 0j), 0j)
        th = thevenin_line_ground(m)
        assert abs(th.v_eq1) <= abs(m.source.v1) * (1 + 1e-12)


def test_model_validation():
    with pytest.raises(ModelError):
        SequenceImpedancePair(-1 + 0j, 1 + 0j)
    with pytest.raises(ModelError):
        LoadModel(z_load=0j)
    with pytest.raises(ModelError):
        FaultSpec(FaultKind.LINE_GROUND_A, -1.0)
    with pytest.raises(ModelError):
        lg_model(1.0, fault_position=0.0)


def test_reference_model_splits_cable_at_fault_position():
    m = lg_model(1.0, fault_position=0.25)
    cable = cable_impedance(0.039, 70.8e-6, 60.0)
    assert close(m.line_1m.z1, 0.25 * cable, 1e-12)
    assert close(m.line_m2.z1, 0.75 * cable, 1e-12)
    assert close(m.line_1m.z0 + m.line_m2.z0, 3.0 * cable, 1e-12)
