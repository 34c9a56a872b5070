import math

import numpy as np
import pytest

from admrelay import dcb, nodal
from admrelay.errors import SingularSystemError
from admrelay.cli import run_sweep
from admrelay.network import (
    FaultKind,
    FaultSpec,
    RelayLocation,
    SequenceImpedancePair,
    thevenin_line_ground,
)
from admrelay.phasors import SequenceTriple, phase_to_sequence, sequence_to_phase
from admrelay.scenario import default_scenario, sweep_points
from admrelay.trajectory import simulate_trajectory

from support import close, ideal, inverter, lg_model, ll_model, rel_err, scenario_model

UP = RelayLocation.UPSTREAM_OF_FAULT
DOWN = RelayLocation.DOWNSTREAM_OF_FAULT


def test_phase_matrix_balanced_element_is_uncoupled():
    z = 1.2 + 3.4j
    m = np.asarray(nodal.sequence_to_phase_matrix(SequenceImpedancePair(z, z)))
    assert np.allclose(np.diag(m), z)
    off = m[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.0)


def test_phase_matrix_common_mode_only():
    z0 = 3 + 1j
    m = nodal.sequence_to_phase_matrix(SequenceImpedancePair(0j, z0))
    assert np.allclose(m, z0 / 3.0)


def test_phase_matrix_round_trip_recovers_sequence_data():
    z1, z0 = 0.5 + 0.2j, 1.9 + 0.7j
    m = np.asarray(nodal.sequence_to_phase_matrix(SequenceImpedancePair(z1, z0)))
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
    tf = nodal.Network(m).transfer(m.fault)
    combined = tf.solve(UP, seq)
    parts = [
        tf.solve(UP, SequenceTriple(seq.zero, 0j, 0j)),
        tf.solve(UP, SequenceTriple(0j, seq.pos, 0j)),
        tf.solve(UP, SequenceTriple(0j, 0j, seq.neg)),
    ]
    for attr in ("a", "b", "c"):
        total_v = sum(getattr(p.relay_v, attr) for p in parts)
        total_i = sum(getattr(p.relay_i, attr) for p in parts)
        assert close(getattr(combined.relay_v, attr), total_v, 1e-12)
        assert close(getattr(combined.relay_i, attr), total_i, 1e-12)


def test_admittance_rows_sum_to_shunt_terms():
    m = lg_model(3.68)
    sysm = nodal.build_system(m)
    row_sums = np.asarray(sysm.y).sum(axis=1)
    for name in ("1a", "1b", "1c"):
        assert abs(row_sums[sysm.index[name]]) < 1e-9
    # the healthy network only: the fault branch is not stamped
    for name in ("Ma", "Mb", "Mc"):
        assert abs(row_sums[sysm.index[name]]) < 1e-9
    # load buses connect to the neutral node, whose shunt is the grounding
    assert close(row_sums[sysm.index["n"]], 1.0 / m.load.z_ground, 1e-9)
    assert abs(row_sums[sysm.index["2a"]]) < 1e-9


def test_nodal_matrix_is_well_conditioned_and_residual_small():
    m = lg_model(3.68)
    sysm = nodal.build_system(m)
    # the first three nodes are the source phases, the rest unknown
    cond = np.linalg.cond(np.asarray(sysm.y)[3:, 3:])
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
    """Relay-point voltage, segment currents, load-bus voltage and
    fault-branch current from one direct dense solve of the faulted system
    for this very source.  The faulted matrix is assembled here: the healthy
    build_system(m).y plus the 1/rf fault stamp, or at rf = 0 the faulted
    node pinned to ground (line-ground) or the two faulted nodes merged into
    one (line-line)."""
    sysm = nodal.build_system(m)
    y = np.array(sysm.y, dtype=complex)
    a, b, c = (sysm.index[name] for name in ("Ma", "Mb", "Mc"))
    lg = m.fault.kind is FaultKind.LINE_GROUND_A
    rf = m.fault.rf
    unknown = list(range(3, len(y)))
    if 0 < rf < math.inf and lg:
        y[a, a] += 1.0 / rf
    elif 0 < rf < math.inf:
        y[np.ix_([b, c], [b, c])] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / rf
    elif rf == 0 and lg:
        unknown.remove(a)
    elif rf == 0:
        y[b, :] += y[c, :]
        y[:, b] += y[:, c]
        unknown.remove(c)
    v = np.zeros(len(y), dtype=complex)
    v[:3] = sequence_to_phase(seq)
    v[unknown] = np.linalg.solve(y[np.ix_(unknown, unknown)], -y[np.ix_(unknown, [0, 1, 2])] @ v[:3])
    if rf == 0 and not lg:
        v[c] = v[b]

    v_1, v_m, v_2 = v[0:3], v[3:6], v[6:9]
    z_1m = np.asarray(nodal.sequence_to_phase_matrix(m.line_1m))
    z_m2 = np.asarray(nodal.sequence_to_phase_matrix(m.line_m2))
    i_up = np.linalg.solve(z_1m, v_1 - v_m)
    i_dn = np.linalg.solve(z_m2, v_m - v_2)
    # the fault branch by current balance at the faulted phase of the node
    i_f = i_up[0] - i_dn[0] if lg else i_up[1] - i_dn[1]
    return v_m, i_up, i_dn, v_2[0], i_f


@pytest.mark.parametrize("grounding", ["1 ohm", "0 ohm"], ids=["grounded", "solid"])
@pytest.mark.parametrize("rf", [0.0, 3.68, math.inf])
@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_transfer_superposes_like_a_direct_solve(make, rf, grounding):
    rng = np.random.default_rng(20210119)
    m = make(rf, load_grounding_resistance=grounding)
    tf = nodal.Network(m).transfer(m.fault)
    for _ in range(5):
        parts = 277.0 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        seq = SequenceTriple(*(complex(x) for x in parts))
        v_m, i_up, i_dn, v_load_a, _ = _dense_reference(m, seq)
        up, down = tf.solve(UP, seq), tf.solve(DOWN, seq)
        v_scale = max(abs(x) for x in sequence_to_phase(seq))
        i_scale = max(np.abs(np.concatenate([i_up, i_dn])))
        assert np.allclose(up.relay_v, v_m, rtol=0, atol=1e-12 * v_scale)
        assert np.allclose(down.relay_v, v_m, rtol=0, atol=1e-12 * v_scale)
        assert np.allclose(up.relay_i, i_up, rtol=0, atol=1e-12 * i_scale)
        assert np.allclose(down.relay_i, i_dn, rtol=0, atol=1e-12 * i_scale)
        assert abs(up.intermediates["v_load_a"] - v_load_a) <= 1e-12 * v_scale


def test_residual_check_covers_the_network_and_each_fault(monkeypatch):
    # the healthy network is checked when Network factors it, and each
    # fault's own solution when its transfer is made
    pending = [(nodal.Network(m), m.fault) for m in (lg_model(3.68), ll_model(0.0))]
    monkeypatch.setattr(nodal, "RESIDUAL_LIMIT", 0.0)
    for network, fault in pending:
        with pytest.raises(SingularSystemError, match="residual"):
            network.transfer(fault)
    with pytest.raises(SingularSystemError, match="residual"):
        nodal.Network(lg_model(math.inf))


@pytest.mark.parametrize("product", ["A0 w", "A0 p - b"])
@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_model_residual_check_sees_an_error_in_a_cached_product(make, product):
    # each model's residual is evaluated from per-kind products cached with
    # the bolted solution; a wrong product must fail the next transfer
    m = make(3.68)
    nw = nodal.Network(m)
    assert nw.transfer(m.fault).residual < 1e-13
    *head, aw, q = nw.faults[m.fault.kind]
    if product == "A0 w":
        aw = [v * (1 + 1e-6) for v in aw]
    else:
        j = max(range(3), key=lambda j: max(map(abs, q[j])))  # the faulted phase's column
        q = [[v * (1 + 1e-6) for v in col] if i == j else col for i, col in enumerate(q)]
    nw.faults[m.fault.kind] = (*head, aw, q)
    with pytest.raises(SingularSystemError, match="residual"):
        nw.transfer(m.fault)


def test_bolted_solution_is_built_once_per_network_and_kind(monkeypatch):
    calls = []
    bolted = nodal.Network._bolted
    monkeypatch.setattr(nodal.Network, "_bolted",
                        lambda nw, kind: calls.append((nw, kind)) or bolted(nw, kind))
    s = default_scenario()
    run_sweep(s)
    assert len(sweep_points(s)) == 40
    assert [kind for _, kind in calls] == [FaultKind.LINE_GROUND_A]

    calls.clear()
    for network, models in _mixed_networks():
        for m in models:
            network.transfer(m.fault)
    assert len(calls) == len(set(calls)) == 4  # two networks, two kinds each

    calls.clear()
    m = lg_model(math.inf)
    nodal.Network(m).transfer(m.fault)
    assert calls == []


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "solid"])
@pytest.mark.parametrize("kind", ["lg", "ll"])
def test_model_residuals_stay_at_round_off(kind, grounded):
    rng = np.random.default_rng(20240611)
    models = [_random_model(rng, kind, grounded) for _ in range(40)]
    assert max(nodal.Network(m).transfer(m.fault).residual for m in models) < 1e-13


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "solid"])
@pytest.mark.parametrize("kind", ["lg", "ll"])
def test_sparse_model_residual_equals_the_dense_expression(kind, grounded, monkeypatch):
    # the nodal residual adds u i_f only at the fault-node rows; the sum over
    # every row of u must give the very same float, and so the same residual
    rng = np.random.default_rng(20240612)
    norm, norms = nodal._norm, []
    models = 0
    while models < 250:
        m = _random_model(rng, kind, grounded)
        if m.fault.rf == math.inf:
            continue
        models += 1
        nw = nodal.Network(m)
        nw.transfer(m.fault)  # builds the kind's bolted solution and products
        monkeypatch.setattr(nodal, "_norm", lambda values: norms.append(norm(values)) or norms[-1])
        residual = nw.transfer(m.fault).residual
        monkeypatch.setattr(nodal, "_norm", norm)
        _, z_kk, ux0, ux0_norm, _, _, aw, q = nw.faults[m.fault.kind]
        u = ([1, 0, 0] if kind == "lg" else [0, 1, -1]) + [0] * (len(aw) - 3)
        rf = m.fault.rf
        i_f = [v / (rf + z_kk) for v in ux0]
        c = [rf * f / z_kk for f in i_f]
        dense = norm(qk + ak * cj + uk * fj for qj, cj, fj in zip(q, c, i_f)
                     for qk, ak, uk in zip(qj, aw, u))
        branch = norm(z_kk * cj - rf * fj for cj, fj in zip(c, i_f))
        assert [x.hex() for x in norms[-2:]] == [dense.hex(), branch.hex()]
        assert residual.hex() == max(dense / nw.b_norm, branch / ux0_norm).hex()


@pytest.mark.parametrize("segment", ["line_1m", "line_m2"])
def test_nan_cable_resistance_raises_singular_system(segment):
    # a nan in either segment spreads through the healthy network's factors
    # and shows in its residual check
    m = lg_model(3.68)
    bad = SequenceImpedancePair(complex(math.nan, 0.01), getattr(m, segment).z0)
    with pytest.raises(SingularSystemError):
        nodal.solve_network(m._replace(**{segment: bad}), UP)


def _mixed_networks():
    """One Network per healthy network (two load groundings), each with models
    of both fault kinds, finite and infinite rf interleaved, so that a shared
    factorization has to serve its faults in any order."""
    for grounding in ("1 ohm", "0 ohm"):
        models = [make(rf, load_grounding_resistance=grounding)
                  for rf in (0.0, 3.68, 100.0, math.inf, 1.0) for make in (lg_model, ll_model)]
        yield nodal.Network(models[0]), models


def test_network_transfers_match_single_transfers_exactly():
    for network, models in _mixed_networks():
        for m in models:
            tf, alone = network.transfer(m.fault), nodal.Network(m).transfer(m.fault)
            assert tf.fault is m.fault
            assert len(tf.maps) == 13 and all(len(row) == 3 for row in tf.maps)
            assert repr(tf.maps) == repr(alone.maps)
            assert tf.residual == alone.residual < nodal.RESIDUAL_LIMIT
            for loc in (UP, DOWN):
                assert tf.solve(loc, m.source.sequence_voltages()) == nodal.solve_network(m, loc)


def test_healthy_rows_are_made_only_for_an_infinite_rf_fault(monkeypatch):
    # a network that serves only finite-rf faults never maps x0; a later
    # rf = inf transfer maps it then, as a network of its own would
    maps, x0s = nodal.Network._maps, []
    monkeypatch.setattr(nodal.Network, "_maps",
                        lambda nw, x, source: x0s.append(x is nw.x0) or maps(nw, x, source))
    for make in (lg_model, ll_model):
        network = nodal.Network(make(3.68))
        for rf in (0.0, 3.68, 100.0):
            network.transfer(make(rf).fault).maps
        assert x0s and not any(x0s)
        m_inf = make(math.inf)
        tf = network.transfer(m_inf.fault)
        assert x0s[-1]
        own = nodal.Network(m_inf).transfer(m_inf.fault)
        assert [repr(row) for row in tf.maps] == [repr(row) for row in own.maps]
        x0s.clear()


@pytest.mark.parametrize("segment", ["line_1m", "line_m2"])
def test_singular_network_raises_when_it_is_made(segment):
    # a nan in one segment fails the healthy network's checks before any
    # fault is transferred
    m = lg_model(3.68)
    bad = SequenceImpedancePair(complex(math.nan, 0.01), getattr(m, segment).z0)
    with pytest.raises(SingularSystemError):
        nodal.Network(m._replace(**{segment: bad}))


def test_build_system_runs_once_per_distinct_healthy_network(tmp_path, monkeypatch):
    calls = []
    build = nodal.build_system
    monkeypatch.setattr(nodal, "build_system", lambda m: calls.append(m) or build(m))
    for network, models in _mixed_networks():
        for m in models:
            network.transfer(m.fault)
    assert len(calls) == 2  # one per load grounding

    calls.clear()
    s = default_scenario()
    run_sweep(s)
    assert len(sweep_points(s)) == 40
    assert len(calls) == 1

    calls.clear()
    simulate_trajectory(lg_model(3.68))
    assert len(calls) == 1


def _random_model(rng, kind, grounded):
    """A random system and rf: rf is 0, inf or log-uniform in [1e-3, 1e4]."""
    rf = rng.choice([0.0, math.inf, float(10.0 ** rng.uniform(-3.0, 4.0))], p=[0.2, 0.2, 0.6])
    grounding = float(10.0 ** rng.uniform(-3.0, 3.0)) if grounded else 0.0
    return scenario_model(
        kind, float(rf),
        fault_position=float(rng.uniform(0.02, 0.98)),
        cable_zero_seq_scale=float(10.0 ** rng.uniform(-0.7, 1.3)),
        load_grounding_resistance=f"{grounding!r} ohm",
    )


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "solid"])
@pytest.mark.parametrize("kind", ["lg", "ll"])
def test_transfers_match_a_dense_solve_of_the_faulted_system(kind, grounded):
    rng = np.random.default_rng(20240611)
    models = [_random_model(rng, kind, grounded) for _ in range(40)]
    assert {0.0, math.inf} <= {m.fault.rf for m in models}
    for m in models:
        tf = nodal.Network(m).transfer(m.fault)
        parts = 277.0 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        seq = SequenceTriple(*(complex(x) for x in parts))
        v_m, i_up, i_dn, v_load_a, i_f = _dense_reference(m, seq)
        up, down = tf.solve(UP, seq), tf.solve(DOWN, seq)
        v_scale = max(abs(x) for x in sequence_to_phase(seq))
        i_scale = max(np.abs(np.concatenate([i_up, i_dn])))
        assert np.allclose(up.relay_v, v_m, rtol=0, atol=1e-11 * v_scale), m
        assert np.allclose(up.relay_i, i_up, rtol=0, atol=1e-11 * i_scale), m
        assert np.allclose(down.relay_i, i_dn, rtol=0, atol=1e-11 * i_scale), m
        assert abs(up.intermediates["v_load_a"] - v_load_a) <= 1e-11 * v_scale, m
        i_f_kernel = up.intermediates["i_f_a" if kind == "lg" else "i_f_b"]
        assert abs(i_f_kernel - i_f) <= 1e-11 * i_scale, m
        assert tf.residual < nodal.RESIDUAL_LIMIT


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "solid"])
@pytest.mark.parametrize("kind", ["lg", "ll"])
def test_readings_stream_as_each_point_transfer_reads(kind, grounded):
    # the sweep reads each point from Network.readings on one network: bit
    # for bit the rows and fault current of the point's own transfer on a
    # network of its own, whose residual passes; the stream serves finite rf only
    rng = np.random.default_rng(20240613)
    for _ in range(12):
        m = _random_model(rng, kind, grounded)
        rfs = [float(10.0 ** rng.uniform(-3.0, 4.0)) for _ in range(6)]
        parts = 277.0 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        v = sequence_to_phase(SequenceTriple(*(complex(x) for x in parts)))
        network = nodal.Network(m)
        for rf, (i_f, *_) in zip(rfs, network.injections(m.fault.kind, rfs)):
            tf = nodal.Network(m).transfer(FaultSpec(m.fault.kind, rf))
            assert tf.residual < nodal.RESIDUAL_LIMIT
            assert repr(tuple(i_f)) == repr(tf.maps[12])
        for loc in (UP, DOWN):
            first = nodal.RELAY_ROW[loc]
            for rf, (v_m, relay_i) in zip(rfs, network.readings(m.fault.kind, rfs, v, first)):
                tf = nodal.Network(m).transfer(FaultSpec(m.fault.kind, rf))
                want = [*tf.rows(0, v)], [*tf.rows(first, v)]
                assert repr((v_m, relay_i)) == repr(want), (m, rf, loc)
        to_open = [1.0, math.inf]
        with pytest.raises(SingularSystemError, match="^rf \\+ z_kk is "):
            list(network.injections(m.fault.kind, to_open))
        with pytest.raises(SingularSystemError, match="^rf \\+ z_kk is "):
            list(network.readings(m.fault.kind, to_open, v, nodal.RELAY_ROW[UP]))


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "solid"])
@pytest.mark.parametrize("kind", ["lg", "ll"])
def test_fault_phases_match_a_dense_solve_of_the_faulted_system(kind, grounded):
    rng = np.random.default_rng(20261019)
    models = [_random_model(rng, kind, grounded) for _ in range(40)]
    assert {0.0, math.inf} <= {m.fault.rf for m in models}
    for m in models:
        parts = 277.0 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        seq = SequenceTriple(*(complex(x) for x in parts))
        v_m, i_up, i_dn, _, _ = _dense_reference(m, seq)
        got_v, got_up, got_dn = nodal.fault_phases(m, sequence_to_phase(seq))
        v_scale = max(abs(x) for x in sequence_to_phase(seq))
        i_scale = max(np.abs(np.concatenate([i_up, i_dn])))
        assert np.allclose(got_v, v_m, rtol=0, atol=1e-11 * v_scale), m
        assert np.allclose(got_up, i_up, rtol=0, atol=1e-11 * i_scale), m
        assert np.allclose(got_dn, i_dn, rtol=0, atol=1e-11 * i_scale), m


@pytest.mark.parametrize("rf, solves", [(3.68, 2), (0.0, 2), (math.inf, 1)])
def test_fault_phases_factor_once_and_solve_at_most_twice(monkeypatch, rf, solves):
    # the source column, and for a closed fault the fault column u
    counts = {"build_system": 0, "_factor": 0, "_lu_solve": 0}
    for name in counts:
        monkeypatch.setattr(nodal, name, lambda *a, f=getattr(nodal, name), name=name:
                            counts.__setitem__(name, counts[name] + 1) or f(*a))
    m = ll_model(rf)
    nodal.fault_phases(m, sequence_to_phase(m.source.sequence_voltages()))
    assert counts == {"build_system": 1, "_factor": 1, "_lu_solve": solves}


def _zeroed(build):
    def build_zero(m):
        sysm = build(m)
        return sysm._replace(y=nodal.Matrix(tuple(0j for _ in row) for row in sysm.y))
    return build_zero


@pytest.mark.parametrize("rf", [3.68, math.inf])
def test_fault_phases_reject_a_singular_healthy_network(monkeypatch, rf):
    m = lg_model(rf)
    v = sequence_to_phase(m.source.sequence_voltages())
    for segment in ("line_1m", "line_m2"):  # a nan spreads through the factors
        bad = SequenceImpedancePair(complex(math.nan, 0.01), getattr(m, segment).z0)
        with pytest.raises(SingularSystemError):
            nodal.fault_phases(m._replace(**{segment: bad}), v)
    monkeypatch.setattr(nodal, "build_system", _zeroed(nodal.build_system))
    with pytest.raises(SingularSystemError, match="^nodal matrix is singular$"):
        nodal.fault_phases(m, v)


# w = A0^-1 u, the solve after the healthy ones, is replaced so that z_kk = u^T w
# is zero, not finite, or finite but large enough for rf + z_kk to overflow
UNDEFINED_FAULT_CURRENT = pytest.mark.parametrize("rf, fake_w, message", [
    (3.68, lambda u, w: [0j] * len(w), r"^fault-point impedance is 0j$"),
    (3.68, lambda u, w: [x * math.inf for x in w], r"^fault-point impedance is \(?(nan|inf)"),
    (1.79e308, lambda u, w: [5e306 * x for x in u],
     r"^rf \+ z_kk is \(?inf.*: the fault current is undefined$"),
], ids=["zero-z_kk", "infinite-z_kk", "rf-plus-z_kk-overflows"])


def _fault_solve_faked(monkeypatch, healthy_solves, fake_w):
    solve, solves = nodal._lu_solve, []

    def faked(lu, order, b):
        solves.append(b)
        x = solve(lu, order, b)
        return x if len(solves) <= healthy_solves else fake_w(b, x)

    monkeypatch.setattr(nodal, "_lu_solve", faked)


@UNDEFINED_FAULT_CURRENT
@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_fault_phases_reject_an_undefined_fault_current(monkeypatch, make, rf, fake_w, message):
    m = make(rf)
    _fault_solve_faked(monkeypatch, 1, fake_w)  # one source vector
    with pytest.raises(SingularSystemError, match=message):
        nodal.fault_phases(m, sequence_to_phase(m.source.sequence_voltages()))


@UNDEFINED_FAULT_CURRENT
@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_network_transfer_rejects_an_undefined_fault_current(monkeypatch, make, rf, fake_w,
                                                             message):
    m = make(rf)
    _fault_solve_faked(monkeypatch, 3, fake_w)  # one column per source phase
    network = nodal.Network(m)
    with pytest.raises(SingularSystemError, match=message):
        network.transfer(m.fault)


@UNDEFINED_FAULT_CURRENT
@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_network_injections_reject_an_undefined_fault_current(monkeypatch, make, rf, fake_w,
                                                              message):
    # the stream's gate norms overflow with the faked w; the point falls back
    # to the direct path and raises as the transfer does
    m = make(rf)
    _fault_solve_faked(monkeypatch, 3, fake_w)
    network = nodal.Network(m)
    with pytest.raises(SingularSystemError, match=message):
        next(network.injections(m.fault.kind, (m.fault.rf,)))


@pytest.mark.parametrize("rf", [0.0, 3.68, math.inf])
def test_fault_phases_check_their_residuals(monkeypatch, rf):
    m = lg_model(rf)
    monkeypatch.setattr(nodal, "RESIDUAL_LIMIT", 0.0)
    with pytest.raises(SingularSystemError, match="^nodal solve residual "):
        nodal.fault_phases(m, sequence_to_phase(m.source.sequence_voltages()))


@pytest.mark.parametrize("make", [lg_model, ll_model], ids=["lg", "ll"])
def test_fault_phases_of_an_open_fault_carry_one_balanced_current(make):
    # with the fault branch open, the source-side and load-side currents are
    # one current; a balanced source drives no negative sequence, so the
    # DCB coupling scripts no pickup
    m = make(math.inf, inverter())
    v = sequence_to_phase(SequenceTriple(0j, m.source.v1, 0j))
    v_m, i_up, i_dn = nodal.fault_phases(m, v)
    scale = max(map(abs, i_up))
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(i_up, i_dn))
    assert abs(phase_to_sequence(i_up).neg) <= 1e-12 * scale
    assert abs(phase_to_sequence(v_m).neg) <= 1e-12 * max(map(abs, v_m))
    assert dcb.couple_from_network(m, 10.0) == {}
