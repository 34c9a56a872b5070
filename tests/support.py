"""Shared helpers for the test suite."""

from __future__ import annotations

from admrelay.network import FaultSpec, MicrogridModel
from admrelay.scenario import build_model, parse_scenario

RF_GRID_20 = [3.68 * (1000.0 / 3.68) ** (i / 19.0) for i in range(20)]


def close(a: complex, b: complex, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * abs(b), abs_tol)


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


def scenario_model(kind: str, rf: float, **system: object) -> MicrogridModel:
    """Model of the default scenario with a `kind` fault through rf [ohm] and
    the given [system] fields, each written as in a scenario file (units
    included, for example ``load_grounding_resistance="0 ohm"``)."""
    fields = "".join(f"{key} = {value}\n" for key, value in system.items())
    m = build_model(parse_scenario(f"[system]\n{fields}[fault]\nkind = {kind}\n"))
    return m.with_fault(FaultSpec(m.fault.kind, rf))


def lg_model(
    rf: float, source: dict[str, object] | None = None, **system: object
) -> MicrogridModel:
    return scenario_model("lg", rf, **(source or {}), **system)


def ll_model(
    rf: float, source: dict[str, object] | None = None, **system: object
) -> MicrogridModel:
    return scenario_model("ll", rf, **(source or {}), **system)


def ideal() -> dict[str, object]:
    """[system] fields selecting the stiff source."""
    return {"source": "ideal"}


def inverter(**system: object) -> dict[str, object]:
    """[system] fields selecting the current-limited inverter, with overrides
    such as ``i_max="20 A"``."""
    return {"source": "inverter", **system}
