"""Acceptance suite: one test per numbered criterion, run at the stated
tolerances, printing one line per criterion (visible with pytest -s/-rA)."""

import time

import numpy as np

from admrelay import cli, dcb, nodal
from admrelay.faults import (
    solve_lg_downstream,
    solve_lg_upstream_ideal,
    solve_lg_upstream_inverter,
    solve_ll_downstream,
    solve_ll_upstream_ideal,
    solve_ll_upstream_inverter,
)
from admrelay.network import (
    RelayLocation,
    downstream_path,
    thevenin_line_ground,
)
from admrelay.phasors import (
    PhaseTriple,
    phase_to_sequence,
    phasor,
    sequence_to_phase,
)
from admrelay.scenario import (
    default_scenario,
    parse_scenario,
    scenario_digest,
    scenario_to_text,
)
from admrelay.trajectory import (
    LimiterKind,
    calibrate_unbalance,
    simulate_trajectory,
)

from support import RF_GRID_20, close, ideal, inverter, lg_model, ll_model, rel_err

UP = RelayLocation.UPSTREAM_OF_FAULT
DOWN = RelayLocation.DOWNSTREAM_OF_FAULT


class _Clock:
    def __init__(self, limit_s: float):
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.2f}s over budget"
        return False


def _report(n: int, name: str, clock: _Clock) -> None:
    print(f"ACCEPTANCE {n:2d} PASS ({clock.elapsed * 1e3:7.1f} ms): {name}")


def test_criterion_01_fortescue_correctness():
    with _Clock(1.0) as clk:
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p = PhaseTriple(*(complex(re, im) for re, im in rng.normal(size=(3, 2)) * 480))
            q = sequence_to_phase(phase_to_sequence(p))
            scale = max(abs(v) for v in p)
            assert all(abs(a - b) <= 1e-12 * max(1.0, scale) for a, b in zip(p, q))
        s = phase_to_sequence(PhaseTriple(phasor(1, 0), phasor(1, -120), phasor(1, 120)))
        assert abs(s.zero) < 1e-12 and abs(s.pos - 1) < 1e-12 and abs(s.neg) < 1e-12
        s = phase_to_sequence(PhaseTriple(1 + 0j, 1 + 0j, 1 + 0j))
        assert abs(s.zero - 1) < 1e-12 and abs(s.pos) < 1e-12 and abs(s.neg) < 1e-12
    _report(1, "Fortescue round-trip and canonical sets", clk)


def test_criterion_02_oracle_series_network_identity():
    with _Clock(1.0) as clk:
        for rf in (0.0, 3.68, 100.0):
            m = lg_model(rf, ideal())
            th = thevenin_line_ground(m)
            predicted = 3.0 * th.v_eq1 / (th.z_eq1 + th.z_eq2 + th.z_eq0 + 3.0 * rf)
            sol = nodal.solve_network(m, UP)
            assert rel_err(sol.intermediates["i_f_a"], predicted) < 1e-9
    _report(2, "oracle fault current equals series sequence prediction", clk)


def test_criterion_03_analytic_oracle_equivalence():
    with _Clock(5.0) as clk:
        cases = (
            (lg_model, ideal(), solve_lg_upstream_ideal),
            (lg_model, inverter(), solve_lg_upstream_inverter),
            (ll_model, ideal(), solve_ll_upstream_ideal),
            (ll_model, inverter(), solve_ll_upstream_inverter),
        )
        for build, src, solver in cases:
            for rf in RF_GRID_20:
                m = build(rf, src)
                sol = solver(m)
                orc = nodal.solve_network(m, UP)
                assert rel_err(sol.z_measured, orc.z_measured) < 0.02, (solver.__name__, rf)
                # approximation-free intermediates against direct recomputation
                z1 = m.line_1m.z1
                z_d1, z_d0 = downstream_path(m)
                z_eq1 = z1 * z_d1 / (z1 + z_d1)
                inter = sol.intermediates
                assert close(inter["z_d"], z_d1, 1e-12)
                assert close(inter["z_1d"], z_eq1, 1e-12)
                assert close(inter["z_eq1"], z_eq1, 1e-12)
                if "z_20" in inter:
                    z_eq0 = m.line_1m.z0 * z_d0 / (m.line_1m.z0 + z_d0)
                    z_20 = z_eq1 + z_eq0 + 3 * rf
                    assert close(inter["z_20"], z_20, 1e-12)
                    assert close(inter["z_2d"], z_20 * z_d1 / (z_20 + z_d1), 1e-12)
                else:
                    z_2 = z_eq1 + rf
                    assert close(inter["z_2"], z_2, 1e-12)
                    assert close(inter["z_2d"], z_2 * z_d1 / (z_2 + z_d1), 1e-12)
    _report(3, "upstream cases within 2% of oracle, exact intermediates to 1e-12", clk)


def test_criterion_04_downstream_identities():
    with _Clock(1.0) as clk:
        for rf in (0.1, 1.0, 10.0, 100.0, 1000.0):
            for src in (ideal(), inverter()):
                m = lg_model(rf, src)
                z_d1, _ = downstream_path(m)
                assert rel_err(solve_lg_downstream(m).z_measured, z_d1) < 1e-9
                m = ll_model(rf, src)
                z_d1, _ = downstream_path(m)
                assert rel_err(solve_ll_downstream(m).z_measured, z_d1) < 1e-9
    _report(4, "downstream relays read the load-path impedance to 1e-9", clk)


def test_criterion_05_sweep_shape_and_source_separation():
    with _Clock(2.0) as clk:
        grid = [3.68 * (1000.0 / 3.68) ** (i / 39.0) for i in range(40)]
        mag_ideal, mag_inv = [], []
        for rf in grid:
            mag_ideal.append(abs(solve_lg_upstream_ideal(lg_model(rf, ideal())).z_measured))
            mag_inv.append(abs(solve_lg_upstream_inverter(lg_model(rf, inverter())).z_measured))
        assert all(b > a for a, b in zip(mag_ideal, mag_ideal[1:]))
        assert all(b > a for a, b in zip(mag_inv, mag_inv[1:]))
        separation = max(abs(v - i) / i for v, i in zip(mag_inv, mag_ideal))
        assert separation > 0.01
    _report(5, f"sweeps strictly increasing; curves separate by {separation:.1%}", clk)


def test_criterion_06_upstream_ll_near_zero():
    with _Clock(1.0) as clk:
        z_load = lg_model(1.0).load.z_load
        sol = solve_ll_upstream_ideal(ll_model(1e-3, ideal()))
        assert abs(sol.z_measured) < 0.01 * abs(z_load)
        sol = solve_ll_upstream_inverter(ll_model(1e-3, inverter()))
        assert abs(sol.z_measured) < 0.01 * abs(z_load)
    _report(6, "line-line faults read near-zero impedance upstream", clk)


def test_criterion_07_ll_branch_antisymmetry_and_zero_seq_isolation():
    with _Clock(1.0) as clk:
        m = ll_model(1.0, ideal())
        orc = nodal.solve_network(m, UP)
        i_fb = orc.intermediates["i_f_b"]
        assert abs(i_fb + orc.intermediates["i_f_c"]) <= 1e-12 * abs(i_fb)
        assert abs(orc.relay_seq_i.zero) <= 1e-9 * abs(orc.relay_seq_i.pos)
    _report(7, "phase-fault branch antisymmetry and zero-sequence isolation", clk)


def test_criterion_08_dcb_truth_table():
    with _Clock(1.0) as clk:
        internal = {
            "A": [dcb.PickupChange(10.0, True, False)],
            "B": [dcb.PickupChange(10.0, True, False)],
        }
        external = {
            "A": [dcb.PickupChange(10.0, True, False)],
            "B": [dcb.PickupChange(10.0, False, True)],
        }

        def run(script, **kw):
            channel = dcb.ChannelModel(
                **{"latency": 2.0, "operational": True, "loss_probability": 0.0, "seed": 5, **kw}
            )
            sc = dcb.DcbScenario(
                coordination_time=16.7,
                channel=channel,
                fault_script=script,
                duration=100.0,
                step=0.1,
            )
            return dcb.simulate(sc)

        summ = dcb.trip_summary(run(internal))
        assert summ["A"]["tripped"] and summ["B"]["tripped"]
        summ = dcb.trip_summary(run(external))
        assert not summ["A"]["tripped"] and not summ["B"]["tripped"]
        summ = dcb.trip_summary(run(internal, operational=False))
        assert summ["A"]["tripped"] and summ["B"]["tripped"]
        for latency in (16.7, 25.0):
            summ = dcb.trip_summary(run(external, latency=latency))
            assert summ["A"]["tripped"], f"latency {latency}"
        t1 = dcb.format_trace(run(external, loss_probability=0.4, seed=11))
        t2 = dcb.format_trace(run(external, loss_probability=0.4, seed=11))
        assert t1 == t2
    _report(8, "blocking truth table, latency race and determinism", clk)


def test_criterion_09_trajectory_properties():
    with _Clock(5.0) as clk:
        m = lg_model(3.68)
        pts = simulate_trajectory(m)
        post = [p for p in pts if p.t >= 0.05]
        assert all(p.z_lg.real > 0 and p.z_lg.imag > 0 for p in post)
        target = solve_lg_upstream_inverter(m).z_measured
        assert rel_err(pts[-1].z_lg, target) < 0.05
        z_d1, _ = downstream_path(m)
        pts = simulate_trajectory(m, relay_location=DOWN)
        assert rel_err(pts[-1].z_lg, z_d1) < 0.01
        pts = simulate_trajectory(ll_model(3.68), relay_location=DOWN)
        assert rel_err(pts[-1].z_ll, z_d1) < 0.01
    _report(9, "first-quadrant locus and settled endpoints", clk)


def test_criterion_10_limiter_contract():
    with _Clock(5.0) as clk:
        m = lg_model(3.68)
        for kind in (LimiterKind.INSTANTANEOUS_SATURATION, LimiterKind.LATCHING):
            pts = simulate_trajectory(m, limiter=kind)
            late = [p for p in pts if p.t >= 0.05 + 10 * 5e-3]
            assert late and all(p.limited for p in late)
            worst = max(
                max(abs(p.relay_i.a), abs(p.relay_i.b), abs(p.relay_i.c)) for p in late
            )
            assert worst <= 70.0 * (1 + 1e-3), kind
        v2_ratio, v0_ratio = calibrate_unbalance(m, m.fault)
        assert 0.3 <= v2_ratio <= 0.9
        assert 0.3 <= v0_ratio <= 0.9
    _report(10, "current cap honored; calibrated unbalance brackets 0.6", clk)


def test_criterion_11_cli_reproducibility(tmp_path):
    with _Clock(1.0) as clk:
        s = default_scenario()
        text = scenario_to_text(s)
        assert scenario_to_text(parse_scenario(text)) == text
        assert scenario_digest(parse_scenario(text)) == scenario_digest(s)
        path = tmp_path / "default.scn"
        path.write_text(text, encoding="utf-8")
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli.main(["sweep", str(path), "--out", str(out1)]) == 0
        assert cli.main(["sweep", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    _report(11, "stable digest, byte-identical sweeps, idempotent round-trip", clk)
