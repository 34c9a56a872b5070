"""Point-by-point reference for the rf sweep.

:func:`sweep_every_point` is :func:`admrelay.cli.run_sweep` as it was before
the sweep learned to read only the relay rows: every point solves its
transfer in full through :meth:`admrelay.nodal.Transfer.solve`, builds a
``FaultSolution`` and reads the oracle's impedance from it.  The tests
compare the two documents byte for byte, and the exceptions where both raise.
"""

from __future__ import annotations

from admrelay import __version__, nodal
from admrelay.cli import CASES
from admrelay.errors import MeasurementError, ModelError, require_finite as _require_finite
from admrelay.faults import FaultSolution
from admrelay.network import FaultSpec, MicrogridModel, RelayLocation, downstream_path
from admrelay.relaying import measure_zlg, path_compensation
from admrelay.scenario import Scenario, build_model, relay_location, scenario_digest, sweep_points


def _oracle_error(
    sol: FaultSolution, oracle: FaultSolution, m: MicrogridModel, location: RelayLocation
) -> float:
    _require_finite(z_measured=sol.z_measured, z_oracle=oracle.z_measured)
    if oracle.z_measured == 0:
        raise MeasurementError("z_oracle = 0 (bolted fault): the relative error is undefined")
    z_ref = oracle.z_measured
    if location is RelayLocation.DOWNSTREAM_OF_FAULT and m.fault.kind.value == "lg":
        z_d1, z_d0 = downstream_path(m)
        z_ref = measure_zlg(oracle.relay_v.a, oracle.relay_i.a, oracle.relay_seq_i.zero,
                            path_compensation(z_d0, z_d1))
        _require_finite(z_oracle_compensated=z_ref)
    return abs(sol.z_measured - z_ref) / abs(z_ref)


def _case_solver(s: Scenario, location: RelayLocation):
    """The solve_* of the case for the scenario's fault kind, source and relay location."""
    kind, source = str(s.get("fault", "kind")), str(s.get("system", "source"))
    for ckind, csource, clocation, solver in CASES.values():
        if ckind == kind and clocation is location and csource in (source, None):
            return solver
    raise ModelError(f"no analytic case for kind={kind} source={source} "
                     f"location={location.value}")


def sweep_every_point(s: Scenario) -> str:
    location = relay_location(s)
    solver = _case_solver(s, location)
    grid = sweep_points(s)
    base = build_model(s)
    models = [base.with_fault(FaultSpec(base.fault.kind, rf)) for rf in grid]
    network = nodal.Network(base)
    seq = base.source.sequence_voltages()
    rows = ["rf_ohm,Re_Z,Im_Z,mag_Z,oracle_mag_Z,rel_err"]
    for rf, m in zip(grid, models):
        tf = network.transfer(m.fault)
        sol, oracle = solver(m), tf.solve(location, seq)
        rel_err = _oracle_error(sol, oracle, m, location)
        z = sol.z_measured
        rows.append(
            f"{rf:.10g},{z.real:.10g},{z.imag:.10g},{abs(z):.10g},"
            f"{abs(oracle.z_measured):.10g},{rel_err:.6e}"
        )
    rows.append(f"# version = {__version__}")
    rows.append(f"# scenario_digest = {scenario_digest(s)}")
    return "\n".join(rows) + "\n"
