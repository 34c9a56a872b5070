import cmath
import math

import numpy as np
import pytest

from admrelay import nodal
from admrelay.errors import MeasurementError, ModelError
from admrelay.faults import solve_lg_upstream_ideal
from admrelay.network import RelayLocation, downstream_path
from admrelay.phasors import phase_to_sequence
from admrelay.relaying import (
    DirectionalDecision,
    GroundDistanceSettings,
    directional_neg_seq,
    k_factor,
    measure_zlg,
    measure_zll,
    mho_trip,
    path_compensation,
)

from support import close, ideal, inverter, lg_model, ll_model, rel_err

UP = RelayLocation.UPSTREAM_OF_FAULT
DOWN = RelayLocation.DOWNSTREAM_OF_FAULT


def test_k_factor_values():
    z1 = 0.5 + 0.25j
    assert abs(k_factor(z1, z1)) < 1e-12
    assert close(k_factor(3 * z1, z1), -2 + 0j, 1e-12)
    assert close(k_factor(0j, z1), 1 + 0j, 1e-12)
    with pytest.raises(ModelError):
        k_factor(1 + 0j, 0j)


def test_path_compensation_is_negated_k_factor():
    z1, z0 = 0.4 + 0.2j, 1.1 + 0.9j
    assert close(path_compensation(z0, z1), -k_factor(z0, z1), 1e-12)


def test_measure_zlg_trivial_and_scaling_invariance():
    assert close(measure_zlg(1 + 0j, 1 + 0j, 0j, 5 - 2j), 1 + 0j, 1e-12)
    v, i_a, i0, k = 120 + 15j, 30 - 4j, 9 + 2j, 0.8 - 0.1j
    z = measure_zlg(v, i_a, i0, k)
    lam = 2.5 - 1.25j
    assert close(measure_zlg(lam * v, lam * i_a, lam * i0, k), z, 1e-12)
    with pytest.raises(MeasurementError):
        measure_zlg(1 + 0j, 0j, 0j, 0j)


def test_measure_zlg_downstream_identity_needs_path_compensation():
    # the network's zero-sequence data differs from positive, so the k sign
    # question is live; the oracle arbitrates it
    m = lg_model(3.68, inverter())
    z_d1, z_d0 = downstream_path(m)
    orc = nodal.solve_network(m, DOWN)
    i0 = orc.relay_seq_i.zero
    z_good = measure_zlg(orc.relay_v.a, orc.relay_i.a, i0, path_compensation(z_d0, z_d1))
    assert rel_err(z_good, z_d1) < 1e-9
    z_bad = measure_zlg(orc.relay_v.a, orc.relay_i.a, i0, k_factor(z_d0, z_d1))
    assert rel_err(z_bad, z_d1) > 1e-3


def test_measure_zlg_downstream_symmetric_network_uncompensated():
    m = lg_model(3.68, ideal(), cable_zero_seq_scale=1, load_grounding_resistance="0 ohm")
    orc = nodal.solve_network(m, DOWN)
    z_d1, z_d0 = downstream_path(m)
    k = k_factor(z_d0, z_d1)  # zero for symmetric data, either sign convention
    assert abs(k) < 1e-12
    z = measure_zlg(orc.relay_v.a, orc.relay_i.a, orc.relay_seq_i.zero, k)
    assert rel_err(z, z_d1) < 1e-9


def test_measure_zlg_oracle_vs_analytic_upstream():
    m = lg_model(3.68, ideal())
    orc = nodal.solve_network(m, UP)
    z_oracle = measure_zlg(orc.relay_v.a, orc.relay_i.a, orc.relay_seq_i.zero, 0j)
    sol = solve_lg_upstream_ideal(m)
    assert rel_err(sol.z_measured, z_oracle) < 0.02


def test_measure_zll_values_and_symmetry():
    v_b, v_c, i_b, i_c = 10 + 1j, 4 - 2j, 3 + 0j, -1 + 1j
    z = measure_zll(v_b, v_c, i_b, i_c)
    assert close(z, (v_b - v_c) / (i_b - i_c), 1e-12)
    # swapping phases flips numerator and denominator together
    assert close(measure_zll(v_c, v_b, i_c, i_b), z, 1e-12)
    with pytest.raises(MeasurementError):
        measure_zll(1 + 0j, 0j, 2 + 1j, 2 + 1j)


def test_measure_zll_balanced_flow_reads_load_path():
    m = ll_model(1e12, ideal())  # fault branch open
    orc = nodal.solve_network(m, UP)
    z = measure_zll(orc.relay_v.b, orc.relay_v.c, orc.relay_i.b, orc.relay_i.c)
    z_d1, _ = downstream_path(m)
    assert rel_err(z, z_d1) < 1e-9


def test_measure_zll_oracle_downstream_and_upstream():
    m = ll_model(1.0, inverter())
    orc = nodal.solve_network(m, DOWN)
    z = measure_zll(orc.relay_v.b, orc.relay_v.c, orc.relay_i.b, orc.relay_i.c)
    z_d1, _ = downstream_path(m)
    assert rel_err(z, z_d1) < 1e-9

    m = ll_model(1e-3, ideal())
    orc = nodal.solve_network(m, UP)
    z = measure_zll(orc.relay_v.b, orc.relay_v.c, orc.relay_i.b, orc.relay_i.c)
    assert abs(z) < 0.01 * abs(m.load.z_load)


def test_mho_characteristic():
    settings = GroundDistanceSettings(k=0j, reach=8 + 4j)
    tip = 8 + 4j
    assert mho_trip(tip / 2, settings)  # circle center
    assert mho_trip(0j, settings)  # origin sits on the characteristic
    assert mho_trip(tip, settings)  # reach tip sits on the characteristic
    assert not mho_trip(2 * tip, settings)
    assert not mho_trip(-0.1 * tip, settings)


def test_mho_rotation_invariance():
    rng = np.random.default_rng(11)
    base = GroundDistanceSettings(k=0j, reach=6 + 3j, mho_diameter_angle=0.0)
    for _ in range(50):
        z = complex(*rng.normal(scale=5.0, size=2))
        rot = rng.uniform(-math.pi, math.pi)
        rotated = GroundDistanceSettings(k=0j, reach=6 + 3j, mho_diameter_angle=rot)
        assert mho_trip(z, base) == mho_trip(z * cmath.exp(1j * rot), rotated)


def test_mho_rejects_zero_reach():
    with pytest.raises(ModelError):
        GroundDistanceSettings(k=0j, reach=0j)


def test_directional_floors_give_indeterminate():
    assert directional_neg_seq(10 + 0j, 0j, 0.5) is DirectionalDecision.INDETERMINATE
    assert directional_neg_seq(0j, 10 + 0j, 0.5) is DirectionalDecision.INDETERMINATE
    # just below the default floors
    assert directional_neg_seq(5.0 + 0j, 1.0 + 0j, 0.5) is DirectionalDecision.INDETERMINATE


def test_directional_forward_on_reference_fault():
    m = lg_model(3.68, inverter())
    orc = nodal.solve_network(m, UP)
    v2 = phase_to_sequence(orc.relay_v).neg
    i2 = orc.relay_seq_i.neg
    angle = cmath.phase(m.line_1m.z1)
    assert directional_neg_seq(v2, i2, angle) is DirectionalDecision.FORWARD
    assert directional_neg_seq(v2, -i2, angle) is DirectionalDecision.REVERSE


def test_directional_antisymmetry_under_current_reversal():
    rng = np.random.default_rng(5)
    flips = 0
    for _ in range(100):
        v2 = complex(*rng.normal(scale=50.0, size=2))
        i2 = complex(*rng.normal(scale=20.0, size=2))
        d1 = directional_neg_seq(v2, i2, 0.6)
        d2 = directional_neg_seq(v2, -i2, 0.6)
        if d1 is DirectionalDecision.INDETERMINATE:
            assert d2 is DirectionalDecision.INDETERMINATE
        else:
            flips += 1
            assert {d1, d2} == {DirectionalDecision.FORWARD, DirectionalDecision.REVERSE}
    assert flips > 50
