"""Reference for the DCB network coupling, and the differential check against it.

:func:`couple_through_transfer` is :func:`admrelay.dcb.couple_from_network`
as it was while it took its relay rows from a whole :class:`nodal.Network`
and the fault's :class:`nodal.Transfer`: three source columns factored and
checked, the fault kind bolted, and three rows read for one source vector.
The tests compare the two scripts on the seeded scenarios of the CLI
contract and on fixed cases; both must give the same script or raise the
same exception class.  Only the digits of a residual message may differ,
because the two paths check residuals of different right-hand sides.  Run
more seeds than the suite does with

    PYTHONPATH=src python tests/coupling_reference.py FIRST STOP
"""

from __future__ import annotations

import math
import re
import sys

from admrelay import dcb, nodal
from admrelay.errors import ModelError
from admrelay.network import MicrogridModel, RelayLocation
from admrelay.phasors import SequenceTriple, phase_to_sequence, sequence_to_phase
from admrelay.relaying import DirectionalDecision, directional_neg_seq
from admrelay.scenario import build_model, parse_scenario

from test_cli_contract import scenario_text

FAULT_TIME_MS = 10.0
RESIDUAL_DIGITS = re.compile(r"(nodal solve residual )\S+( exceeds)")


def couple_through_transfer(m: MicrogridModel,
                            fault_time: float) -> dict[str, list[dcb.PickupChange]]:
    line_angle = math.atan2(m.line_1m.z1.imag, m.line_1m.z1.real)
    tf = nodal.Network(m).transfer(m.fault)
    v = sequence_to_phase(m.source.sequence_voltages() if math.isfinite(m.fault.rf)
                          else SequenceTriple(0j, m.source.v1, 0j))
    v2 = phase_to_sequence(tf.rows(0, v)).neg  # both relays sit at the fault node
    script: dict[str, list[dcb.PickupChange]] = {}
    for relay_id, location in ((dcb.RELAY_A, RelayLocation.UPSTREAM_OF_FAULT),
                                (dcb.RELAY_B, RelayLocation.DOWNSTREAM_OF_FAULT)):
        i2 = phase_to_sequence(tf.rows(nodal.RELAY_ROW[location], v)).neg
        decision = directional_neg_seq(v2, i2, line_angle)
        fwd = decision is DirectionalDecision.FORWARD
        rev = decision is DirectionalDecision.REVERSE
        if fwd or rev:
            script[relay_id] = [dcb.PickupChange(time=fault_time, fwd=fwd, rev=rev)]
    return script


def outcome(couple, m: MicrogridModel) -> object:
    """The script, or the class and message of what was raised, with a
    residual message's digits blanked."""
    try:
        return couple(m, FAULT_TIME_MS)
    except Exception as exc:  # any exception is an outcome to compare
        return type(exc), RESIDUAL_DIGITS.sub(r"\1#\2", str(exc))


def mismatch(m: MicrogridModel) -> tuple[object, object] | None:
    """(coupling, reference) outcomes where they differ, else None."""
    got, want = outcome(dcb.couple_from_network, m), outcome(couple_through_transfer, m)
    return None if got == want else (got, want)


def contract_model(seed: int) -> MicrogridModel | None:
    """The model of the contract scenario of this seed, None if it builds none."""
    try:
        return build_model(parse_scenario(scenario_text(seed)))
    except ModelError:
        return None


def main(argv: list[str]) -> int:
    first, stop = map(int, argv)
    models, found = 0, []
    for seed in range(first, stop):
        m = contract_model(seed)
        if m is not None:
            models += 1
            if (diff := mismatch(m)) is not None:
                found.append(seed)
                print(f"seed {seed}: coupling {diff[0]!r}, reference {diff[1]!r}")
    print(f"seeds {first}..{stop - 1}: {models} models, {len(found)} mismatches {found[:10]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
