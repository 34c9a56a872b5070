"""Seeded randomized identity tests over the scenario's [system] fields.

Each draw varies the fault position, the cable's zero-sequence scale, the
load grounding, the source kind and the inverter's unbalance fractions and
angles, with rf from 0 to 1e4 ohm, and checks the identities that hold
exactly on every system: the Fortescue round-trip, the downstream readings
equal to the load-path impedance, the line-line fault-branch antisymmetry
and the exact upstream line-line closed forms.  The upstream line-ground
chain is only promised to be close on the reference system, so it is not
asserted here.
"""

import numpy as np
import pytest

from admrelay import nodal
from admrelay.faults import (
    solve_lg_downstream,
    solve_ll_downstream,
    solve_ll_upstream_ideal,
    solve_ll_upstream_inverter,
)
from admrelay.network import RelayLocation, downstream_path
from admrelay.phasors import phase_to_sequence, sequence_to_phase
from admrelay.relaying import measure_zlg, measure_zll, path_compensation

from support import rel_err, scenario_model

UP = RelayLocation.UPSTREAM_OF_FAULT
DOWN = RelayLocation.DOWNSTREAM_OF_FAULT
DRAWS = 150


def _draw(rng: np.random.Generator) -> tuple[float, dict[str, object]]:
    """One random rf [ohm] and [system] overrides."""
    rf = 0.0 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-3.0, 4.0))
    grounding = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-3.0, 3.0))
    system = {
        "source": "ideal" if rng.random() < 0.3 else "inverter",
        "fault_position": float(rng.uniform(0.02, 0.98)),
        "cable_zero_seq_scale": float(10.0 ** rng.uniform(-0.7, 1.3)),
        "load_grounding_resistance": f"{grounding!r} ohm",
        "v2_fraction": float(rng.uniform(0.0, 1.0)),
        "v0_fraction": float(rng.uniform(0.0, 1.0)),
        "v2_angle": f"{rng.uniform(-180.0, 180.0)!r} deg",
        "v0_angle": f"{rng.uniform(-180.0, 180.0)!r} deg",
    }
    return rf, system


def _draws(seed: int):
    rng = np.random.default_rng(seed)
    return [_draw(rng) for _ in range(DRAWS)]


def _round_trips(p) -> bool:
    q = sequence_to_phase(phase_to_sequence(p))
    scale = max(abs(v) for v in p)
    return all(abs(a - b) <= 1e-12 * scale for a, b in zip(p, q))


@pytest.mark.parametrize("seed", [1, 2])
def test_fortescue_round_trip_on_every_solution(seed):
    for rf, system in _draws(seed):
        for kind in ("lg", "ll"):
            m = scenario_model(kind, rf, **system)
            for location in (UP, DOWN):
                sol = nodal.solve_network(m, location)
                assert _round_trips(sol.relay_v), (kind, rf, system)
                assert _round_trips(sol.relay_i), (kind, rf, system)


@pytest.mark.parametrize("seed", [3, 4])
def test_downstream_readings_equal_the_load_path(seed):
    for rf, system in _draws(seed):
        m = scenario_model("lg", rf, **system)
        z_d1, z_d0 = downstream_path(m)
        assert rel_err(solve_lg_downstream(m).z_measured, z_d1) < 1e-9, (rf, system)
        if rf > 0:  # a bolted fault pins the relay voltage: no oracle reading
            orc = nodal.solve_network(m, DOWN)
            z = measure_zlg(orc.relay_v.a, orc.relay_i.a, orc.relay_seq_i.zero,
                            path_compensation(z_d0, z_d1))
            assert rel_err(z, z_d1) < 1e-9, (rf, system)

            m = scenario_model("ll", rf, **system)
            z_d1, _ = downstream_path(m)
            assert rel_err(solve_ll_downstream(m).z_measured, z_d1) < 1e-9, (rf, system)
            orc = nodal.solve_network(m, DOWN)
            z = measure_zll(orc.relay_v.b, orc.relay_v.c, orc.relay_i.b, orc.relay_i.c)
            assert rel_err(z, z_d1) < 1e-9, (rf, system)


@pytest.mark.parametrize("seed", [5, 6])
def test_line_line_fault_branch_is_antisymmetric(seed):
    for rf, system in _draws(seed):
        m = scenario_model("ll", rf, **system)
        up, dn = nodal.solve_network(m, UP), nodal.solve_network(m, DOWN)
        # the fault branch current at each phase of the fault node, by KCL
        branch = [a - b for a, b in zip(up.relay_i, dn.relay_i)]
        scale = max(abs(i) for i in (*up.relay_i, *dn.relay_i))
        assert abs(branch[0]) <= 1e-9 * scale, (rf, system)
        assert abs(branch[1] + branch[2]) <= 1e-9 * scale, (rf, system)
        i_fb = up.intermediates["i_f_b"]
        assert abs(i_fb + up.intermediates["i_f_c"]) <= 1e-12 * abs(i_fb), (rf, system)
        assert abs(branch[1] - i_fb) <= 1e-9 * scale, (rf, system)
        ideal = system["source"] == "ideal"
        if ideal:
            assert abs(up.relay_seq_i.zero) <= 1e-9 * abs(up.relay_seq_i.pos), (rf, system)
        if rf > 0:  # the line-line closed forms are exact
            solver = solve_ll_upstream_ideal if ideal else solve_ll_upstream_inverter
            assert rel_err(solver(m).z_measured, up.z_measured) < 1e-9, (rf, system)
