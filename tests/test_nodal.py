import math
from dataclasses import replace

import numpy as np
import pytest

from admrelay import nodal
from admrelay.errors import SingularSystemError
from admrelay.network import (
    RelayLocation,
    SequenceImpedancePair,
    thevenin_line_ground,
)
from admrelay.phasors import SequenceTriple, sequence_to_phase

from support import close, ideal, inverter, lg_model, ll_model, rel_err

UP = RelayLocation.UPSTREAM_OF_FAULT
DOWN = RelayLocation.DOWNSTREAM_OF_FAULT


def test_phase_matrix_balanced_element_is_uncoupled():
    z = 1.2 + 3.4j
    m = nodal.sequence_to_phase_matrix(SequenceImpedancePair(z, z))
    assert np.allclose(np.diag(m), z)
    off = m[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.0)


def test_phase_matrix_common_mode_only():
    z0 = 3 + 1j
    m = nodal.sequence_to_phase_matrix(SequenceImpedancePair(0j, z0))
    assert np.allclose(m, z0 / 3.0)


def test_phase_matrix_round_trip_recovers_sequence_data():
    z1, z0 = 0.5 + 0.2j, 1.9 + 0.7j
    m = nodal.sequence_to_phase_matrix(SequenceImpedancePair(z1, z0))
    # row sum recovers z0, diagonal minus off-diagonal recovers z1
    assert close(m.sum(axis=1)[0], z0, 1e-12)
    assert close(m[0, 0] - m[0, 1], z1, 1e-12)


def test_healthy_network_is_balanced():
    m = lg_model(math.inf, ideal())
    sol = nodal.solve_network(m, UP)
    z_total = m.line_1m.z1 + m.line_m2.z1 + m.load.z_load
    expect = m.source.v1 / z_total
    assert close(sol.relay_i.a, expect, 1e-9)
    assert abs(sol.relay_seq_i.neg) <= 1e-9 * abs(sol.relay_seq_i.pos)
    assert abs(sol.relay_seq_i.zero) <= 1e-9 * abs(sol.relay_seq_i.pos)


def test_bolted_and_resistive_lg_match_series_sequence_prediction():
    for rf in (0.0, 3.68, 100.0):
        m = lg_model(rf, ideal())
        th = thevenin_line_ground(m)
        predicted = 3.0 * th.v_eq1 / (th.z_eq1 + th.z_eq2 + th.z_eq0 + 3.0 * rf)
        sol = nodal.solve_network(m, UP)
        assert rel_err(sol.intermediates["i_f_a"], predicted) < 1e-9
        assert sol.intermediates["i_f_b"] == 0j
        assert sol.intermediates["i_f_c"] == 0j


def test_ll_fault_branch_laws():
    m = ll_model(1.0, ideal())
    sol = nodal.solve_network(m, UP)
    i_fb = sol.intermediates["i_f_b"]
    i_fc = sol.intermediates["i_f_c"]
    assert abs(i_fb + i_fc) <= 1e-12 * abs(i_fb)
    v = sol.relay_v
    assert close(v.b - v.c, m.fault.rf * i_fb, 1e-12)


def test_ll_bolted_merges_fault_nodes():
    m = ll_model(0.0, ideal())
    sol = nodal.solve_network(m, UP)
    assert abs(sol.relay_v.b - sol.relay_v.c) < 1e-12 * abs(sol.relay_v.a)
    i_fb = sol.intermediates["i_f_b"]
    assert abs(i_fb) > 100.0  # a bolted phase fault draws heavy current
    assert close(sol.intermediates["i_f_c"], -i_fb, 1e-12)


def test_ll_ideal_has_no_zero_sequence_anywhere():
    m = ll_model(1.0, ideal())
    sol = nodal.solve_network(m, UP)
    assert abs(sol.relay_seq_i.zero) <= 1e-9 * abs(sol.relay_seq_i.pos)


def test_relay_phase_and_sequence_currents_are_consistent():
    for m in (lg_model(3.68), ll_model(1.0), lg_model(0.0, ideal())):
        for loc in (UP, DOWN):
            sol = nodal.solve_network(m, loc)
            back = sequence_to_phase(sol.relay_seq_i)
            scale = max(abs(v) for v in sol.relay_i)
            for a, b in zip(sol.relay_i, back):
                assert abs(a - b) <= 1e-12 * scale


def test_superposition_of_sequence_sources():
    m = lg_model(3.68, inverter())
    seq = m.source.sequence_voltages()
    combined = nodal.solve_network(m, UP, source_seq=seq)
    parts = [
        nodal.solve_network(m, UP, source_seq=SequenceTriple(seq.zero, 0j, 0j)),
        nodal.solve_network(m, UP, source_seq=SequenceTriple(0j, seq.pos, 0j)),
        nodal.solve_network(m, UP, source_seq=SequenceTriple(0j, 0j, seq.neg)),
    ]
    for attr in ("a", "b", "c"):
        total_v = sum(getattr(p.relay_v, attr) for p in parts)
        total_i = sum(getattr(p.relay_i, attr) for p in parts)
        assert close(getattr(combined.relay_v, attr), total_v, 1e-12)
        assert close(getattr(combined.relay_i, attr), total_i, 1e-12)


def test_removing_grounding_sources_kills_lg_fault_current():
    grounded = lg_model(3.68, ideal())
    sol_g = nodal.solve_network(grounded, UP)
    open_zero = lg_model(
        3.68, ideal(), cable_zero_seq_scale="inf", load_grounding_resistance="inf ohm"
    )
    sol_o = nodal.solve_network(open_zero, UP)
    ratio = abs(sol_o.intermediates["i_f_a"]) / abs(sol_g.intermediates["i_f_a"])
    assert ratio <= 1e-9


def test_admittance_rows_sum_to_shunt_terms():
    m = lg_model(3.68)
    sysm = nodal.build_system(m)
    row_sums = sysm.y.sum(axis=1)
    y_load = 1.0 / m.load.z_load
    for name in ("1a", "1b", "1c"):
        assert abs(row_sums[sysm.index[name]]) < 1e-9
    # fault node phase a carries the fault shunt
    assert close(row_sums[sysm.index["Ma"]], 1.0 / m.fault.rf, 1e-9)
    # load buses connect to the neutral node, whose shunt is the grounding
    assert close(row_sums[sysm.index["n"]], 1.0 / m.load.z_ground, 1e-9)
    assert abs(row_sums[sysm.index["2a"]]) < 1e-9


def test_nodal_matrix_is_well_conditioned_and_residual_small():
    m = lg_model(3.68)
    sysm = nodal.build_system(m)
    unknown = [sysm.index[n] for n in sysm.unknown_names()]
    cond = np.linalg.cond(sysm.y[np.ix_(unknown, unknown)])
    assert math.isfinite(cond)
    sol = nodal.solve_network(m, UP)
    assert abs(sol.intermediates["residual"]) < 1e-9


def test_solidly_grounded_load_drops_neutral_node():
    m = lg_model(3.68, load_grounding_resistance="0 ohm")
    sysm = nodal.build_system(m)
    assert "n" not in sysm.index


def test_z_measured_matches_relay_quantities():
    m = lg_model(3.68)
    sol = nodal.solve_network(m, UP)
    assert close(sol.z_measured, sol.relay_v.a / sol.relay_i.a, 1e-12)
    m2 = ll_model(1.0)
    sol2 = nodal.solve_network(m2, DOWN)
    assert close(
        sol2.z_measured,
        (sol2.relay_v.b - sol2.relay_v.c) / (sol2.relay_i.b - sol2.relay_i.c),
        1e-12,
    )


def _dense_reference(m, seq):
    """Relay-point voltage, segment currents and load-bus voltage from one
    direct dense solve of the assembled system for this very source."""
    sysm = nodal.build_system(m, seq)
    unknown = [sysm.index[n] for n in sysm.unknown_names()]
    known = [sysm.index[n] for n in sysm.known]
    v = np.zeros(len(sysm.node_names), dtype=complex)
    v[known] = list(sysm.known.values())
    a_uu = sysm.y[np.ix_(unknown, unknown)]
    v[unknown] = np.linalg.solve(a_uu, -sysm.y[np.ix_(unknown, known)] @ v[known])

    def bus(prefix):
        return np.array([v[sysm.index.get(prefix + p, sysm.index.get("Mb"))] for p in "abc"])

    v_1, v_m, v_2 = bus("1"), bus("M"), bus("2")
    i_up = np.linalg.solve(nodal.sequence_to_phase_matrix(m.line_1m), v_1 - v_m)
    i_dn = np.linalg.solve(nodal.sequence_to_phase_matrix(m.line_m2), v_m - v_2)
    return v_m, i_up, i_dn, v_2[0]


@pytest.mark.parametrize("grounding", ["1 ohm", "0 ohm"], ids=["grounded", "solid"])
@pytest.mark.parametrize("rf", [0.0, 3.68, math.inf])
@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_transfer_superposes_like_a_direct_solve(make, rf, grounding):
    rng = np.random.default_rng(20210119)
    m = make(rf, load_grounding_resistance=grounding)
    tf = nodal.transfer(m)
    for _ in range(5):
        parts = 277.0 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        seq = SequenceTriple(*(complex(x) for x in parts))
        v_m, i_up, i_dn, v_load_a = _dense_reference(m, seq)
        up, down = tf.solve(UP, seq), tf.solve(DOWN, seq)
        v_scale = max(abs(x) for x in sequence_to_phase(seq))
        i_scale = max(np.abs(np.concatenate([i_up, i_dn])))
        assert np.allclose(up.relay_v, v_m, rtol=0, atol=1e-12 * v_scale)
        assert np.allclose(down.relay_v, v_m, rtol=0, atol=1e-12 * v_scale)
        assert np.allclose(up.relay_i, i_up, rtol=0, atol=1e-12 * i_scale)
        assert np.allclose(down.relay_i, i_dn, rtol=0, atol=1e-12 * i_scale)
        assert abs(up.intermediates["v_load_a"] - v_load_a) <= 1e-12 * v_scale


@pytest.mark.parametrize("segment", ["line_1m", "line_m2"])
def test_nan_cable_resistance_raises_singular_system(segment):
    # a nan in the source-side segment makes LAPACK report a singular matrix;
    # one in the load-side segment only shows in the residual check
    m = lg_model(3.68)
    bad = SequenceImpedancePair(complex(math.nan, 0.01), getattr(m, segment).z0)
    with pytest.raises(SingularSystemError):
        nodal.solve_network(replace(m, **{segment: bad}), UP)


def _mixed_models():
    """Models over several topologies, interleaved so that stacking has to
    keep the caller's order."""
    models = []
    for rf in (0.0, 3.68, 100.0, math.inf, 1.0):
        for make in (lg_model, ll_model):
            for grounding in ("1 ohm", "0 ohm"):
                models.append(make(rf, load_grounding_resistance=grounding))
    return models


def test_transfers_stack_each_topology_and_match_single_transfers_exactly():
    models = _mixed_models()
    batch = nodal.transfers(models)
    assert len(batch) == len(models)
    for m, tf in zip(models, batch):
        alone = nodal.transfers([m])[0]
        assert tf.model is m
        assert tf.maps.shape == (12, 3)
        assert np.array_equal(tf.maps, alone.maps)
        assert tf.residual < nodal.RESIDUAL_LIMIT
        for loc in (UP, DOWN):
            assert tf.solve(loc) == nodal.solve_network(m, loc)


def test_transfers_assemble_each_model_once(monkeypatch):
    calls = []
    build = nodal.build_system
    monkeypatch.setattr(nodal, "build_system", lambda m: calls.append(m) or build(m))
    models = _mixed_models()
    nodal.transfers(models)
    assert calls == models


@pytest.mark.parametrize("segment", ["line_1m", "line_m2"])
def test_singular_member_of_a_stack_raises_singular_system(segment):
    # the bad member shares its topology with healthy ones, so it sits
    # inside a stacked solve
    models = [lg_model(rf) for rf in (1.0, 3.68, 10.0)]
    bad = SequenceImpedancePair(complex(math.nan, 0.01), getattr(models[1], segment).z0)
    models[1] = replace(models[1], **{segment: bad})
    with pytest.raises(SingularSystemError):
        nodal.transfers(models)
