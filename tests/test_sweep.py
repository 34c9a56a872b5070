import itertools
import math
import random
import re
import sys

import pytest

from admrelay import cli, faults, nodal
from admrelay.cli import run_sweep
from admrelay.errors import MeasurementError, ModelError, NumericalError, SingularSystemError
from admrelay.network import FaultSpec
from admrelay.phasors import PhaseTriple, phase_to_sequence
from admrelay.scenario import build_model, parse_scenario, sweep_points

from sweep_reference import sweep_every_point

COMBOS = list(itertools.product(("lg", "ll"), ("upstream", "downstream"), ("ideal", "inverter"),
                                ("log", "linear")))
DRAWS = 16  # per combination: 256 scenarios


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_scenario(rng, kind, location, source, spacing):
    """A sweep on a randomized nameplate; a linear grid starts at 0 in one
    draw of four."""
    grounding = 0.0 if rng.random() < 0.2 else _log_uniform(rng, 1e-3, 1e3)
    rf_min = 0.0 if spacing == "linear" and rng.random() < 0.25 else _log_uniform(rng, 1e-3, 20.0)
    rf_max = rf_min + _log_uniform(rng, 1e-2, 1e4)
    system = {
        "source": source,
        "fault_position": rng.uniform(0.02, 0.98),
        "cable_zero_seq_scale": _log_uniform(rng, 0.2, 20.0),
        "cable_resistance": f"{_log_uniform(rng, 5.0, 200.0)!r} mohm",
        "cable_inductance": f"{_log_uniform(rng, 10.0, 500.0)!r} uH",
        "load_real_power": f"{rng.uniform(5.0, 50.0)!r} kW",
        "load_reactive_power": f"{rng.uniform(0.0, 30.0)!r} kvar",
        "load_grounding_resistance": f"{grounding!r} ohm",
        "v2_fraction": rng.uniform(0.0, 1.0),
        "v0_fraction": rng.uniform(0.0, 1.0),
        "v2_angle": f"{rng.uniform(-180.0, 180.0)!r} deg",
        "v0_angle": f"{rng.uniform(-180.0, 180.0)!r} deg",
    }
    fault = {"kind": kind, "rf_min": f"{rf_min!r} ohm", "rf_max": f"{rf_max!r} ohm",
             "rf_points": rng.randint(1, 24), "rf_spacing": spacing}
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                   for name, fields in (("system", system), ("fault", fault),
                                        ("relay", {"location": location})))
    return parse_scenario(text)


def _outcome(run, s):
    """The document, or the class and message of what the run raised."""
    try:
        return run(s)
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc), str(exc)


_rng = random.Random(12)
SCENARIOS = [(combo, _random_scenario(_rng, *combo)) for combo in COMBOS for _ in range(DRAWS)]


@pytest.mark.parametrize("combo", COMBOS, ids="-".join)
def test_sweep_is_byte_identical_to_the_point_by_point_reference(combo):
    scenarios = [s for c, s in SCENARIOS if c == combo]
    documents = 0
    for s in scenarios:
        got = _outcome(run_sweep, s)
        assert got == _outcome(sweep_every_point, s)
        documents += isinstance(got, str)
    assert documents >= DRAWS // 2


@pytest.mark.parametrize("kind,location,error,message", [
    ("lg", "upstream", MeasurementError, "z_oracle = 0 (bolted fault)"),
    ("lg", "downstream", MeasurementError, "z_oracle = 0 (bolted fault)"),
    ("ll", "upstream", MeasurementError, "z_oracle = 0 (bolted fault)"),
    ("ll", "downstream", ModelError, "downstream line-line identity needs rf > 0"),
])
def test_a_bolted_sweep_point_raises_as_the_reference_does(kind, location, error, message):
    s = parse_scenario(f"[fault]\nkind = {kind}\nrf_min = 0 ohm\nrf_max = 10 ohm\n"
                       f"rf_spacing = linear\n[relay]\nlocation = {location}\n")
    for run in (run_sweep, sweep_every_point):
        with pytest.raises(error, match=re.escape(message)):
            run(s)
    assert _outcome(run_sweep, s) == _outcome(sweep_every_point, s)


@pytest.mark.parametrize("kind,location", [("lg", "upstream"), ("lg", "downstream"),
                                           ("ll", "upstream"), ("ll", "downstream")])
def test_a_failing_residual_check_raises_at_its_grid_point(tmp_path, capsys, monkeypatch, kind,
                                                           location):
    # with the limit lowered to point k's residual, the check first fails at
    # point k, whose residual the message prints: the sweep evaluates the
    # closed form at points 0..k-1 only
    text = (f"[fault]\nkind = {kind}\nrf_min = 0.01 ohm\nrf_max = 1e4 ohm\n"
            f"[relay]\nlocation = {location}\n")
    s = parse_scenario(text)
    base = build_model(s)
    network = nodal.Network(base)
    grid = sweep_points(s)
    residuals = [network.transfer(FaultSpec(base.fault.kind, rf)).residual for rf in grid]
    k = max(j for j, r in enumerate(residuals) if r > max([network.residual, *residuals[:j]]))
    assert k > 0
    monkeypatch.setattr(nodal, "RESIDUAL_LIMIT", residuals[k])
    message = f"nodal solve residual {residuals[k]:.3e} exceeds {residuals[k]}"

    evaluations, reduce = [], faults.reduce

    def counted(m, loc):
        closed_form = reduce(m, loc)
        return lambda rf: evaluations.append(rf) or closed_form(rf)

    monkeypatch.setattr(faults, "reduce", counted)
    with pytest.raises(SingularSystemError, match=f"^{re.escape(message)}$"):
        run_sweep(s)
    assert evaluations == grid[:k]
    with pytest.raises(SingularSystemError, match=f"^{re.escape(message)}$"):
        sweep_every_point(s)
    path = tmp_path / "sweep.scn"
    path.write_text(text)
    assert cli.main(["sweep", str(path)]) == 2
    assert capsys.readouterr() == ("", f"numerical failure: {message}\n")


def _crafted_sweep(monkeypatch, v, i, z=None):
    """Every point of a sweep reads the oracle's relay voltages v and currents i
    and, if z is given, the closed-form reading z."""
    monkeypatch.setattr(nodal.Network, "readings",
                        lambda self, kind, rfs, v_src, first: ((v, i) for _ in rfs))
    if z is not None:
        monkeypatch.setattr(faults, "reduce", lambda m, location: lambda rf: (z, None))


NAN = complex(math.nan, 0.0)
# the raises of the oracle comparison, in the order it checks them; the rows
# with a crafted z pin that order where two checks would both fail
ORACLE_RAISES = [
    ("lg", "upstream", [1j, 0j, 0j], [0j, 1j, 1j], None,
     MeasurementError, "oracle reading: no current in the measuring loop"),
    ("ll", "downstream", [0j, 1j, 2j], [0j, 1j, 1j], None,
     MeasurementError, "oracle reading: no current in the measuring loop"),
    ("lg", "downstream", [1j, 0j, 0j], [0j, 1j, 1j], NAN,
     MeasurementError, "oracle reading: no current in the measuring loop"),
    ("lg", "upstream", [NAN, 0j, 0j], [1 + 0j, 0j, 0j], None,
     NumericalError, "z_oracle is not finite: (nan+nanj)"),
    ("ll", "upstream", [0j, 1e308 + 0j, -1e308 + 0j], [0j, 0.5 + 0j, 0j], None,
     NumericalError, "z_oracle is not finite: (inf+nanj)"),
    ("ll", "upstream", [0j, 0j, 0j], [0j, 1 + 0j, 0j], NAN,
     NumericalError, "z_measured is not finite: (nan+0j)"),
    ("lg", "downstream", [0j, 0j, 0j], [1 + 0j, 0j, 0j], None,
     MeasurementError, "z_oracle = 0 (bolted fault): the relative error is undefined"),
    ("ll", "downstream", [0j, 0j, 0j], [0j, 1 + 0j, 0j], None,
     MeasurementError, "z_oracle = 0 (bolted fault): the relative error is undefined"),
    # the default load path's k makes |1 - k/3| < 1, so v_a / (i_a + k i0)
    # overflows where v_a / i_a does not
    ("lg", "downstream", [1.7e308 + 0j, 0j, 0j], [1 + 0j, -1 + 0j, -1 + 0j], None,
     NumericalError, "z_oracle_compensated is not finite: (inf-1.152388432286945e+307j)"),
    ("lg", "upstream", [5e-324 + 0j, 0j, 0j], [1 + 0j, 0j, 0j], None,
     NumericalError, "relative error is not finite: inf"),
    ("ll", "downstream", [0j, 5e-324 + 0j, 0j], [0j, 1 + 0j, 0j], None,
     NumericalError, "relative error is not finite: inf"),
]


@pytest.mark.parametrize("kind,location,v,i,z,error,message", ORACLE_RAISES)
def test_each_raise_of_the_oracle_comparison_keeps_its_class_and_message(
        monkeypatch, kind, location, v, i, z, error, message):
    s = parse_scenario(f"[fault]\nkind = {kind}\nrf_points = 3\n[relay]\nlocation = {location}\n")
    _crafted_sweep(monkeypatch, v, i, z)
    with pytest.raises(NumericalError) as caught:
        run_sweep(s)
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_a_case_raises_as_its_sweep_point_does(monkeypatch):
    # case 3 compares against the compensated reading of the downstream ground element
    v, i = [1.7e308 + 0j, 0j, 0j], [1 + 0j, -1 + 0j, -1 + 0j]
    monkeypatch.setattr(nodal, "solve_network", lambda m, location: faults.FaultSolution(
        PhaseTriple(*v), PhaseTriple(*i), phase_to_sequence(PhaseTriple(*i)), v[0] / i[0]))
    with pytest.raises(NumericalError) as caught:
        cli.run_case(parse_scenario("[fault]\nkind = lg\n"), 3)
    assert (type(caught.value), str(caught.value)) == (
        NumericalError, "z_oracle_compensated is not finite: (inf-1.152388432286945e+307j)")


def main(argv):
    """Compare run_sweep with the point-by-point reference on one scenario per
    seed, the combinations taken in turn."""
    first, stop = map(int, argv)
    documents, mismatches = 0, []
    for seed in range(first, stop):
        s = _random_scenario(random.Random(seed), *COMBOS[seed % len(COMBOS)])
        got = _outcome(run_sweep, s)
        documents += isinstance(got, str)
        if got != _outcome(sweep_every_point, s):
            mismatches.append(seed)
    print(f"seeds {first}..{stop - 1}: {documents} documents, {len(mismatches)} mismatches "
          f"{mismatches[:10]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
