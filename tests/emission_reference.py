"""Field-by-field reference for the canonical scenario emission.

:func:`emit_every_field` is :func:`admrelay.scenario.scenario_to_text` as it
was before emission became table-driven: every value goes through one chain
of tests on its field's kind.  The tests compare the two texts, and the
digests of them, byte for byte.
"""

from __future__ import annotations

import hashlib

from admrelay.scenario import FIELDS, FieldSpec, Scenario


def _fmt_value(value: object, spec: FieldSpec) -> str:
    kind = spec.kind
    if kind == "quantity":
        return f"{float(value[0]):.12g} {value[1]}"  # type: ignore[index]
    if kind == "number":
        return f"{float(value):.12g}"  # type: ignore[arg-type]
    if kind == "integer":
        return str(int(value))  # type: ignore[arg-type]
    if kind == "boolean":
        return "true" if value else "false"
    if kind == "kpolicy" and isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return str(value)


def emit_every_field(s: Scenario) -> str:
    lines: list[str] = []
    for section, fields in FIELDS.items():
        if section not in s.sections:
            continue
        lines.append(f"[{section}]")
        for key, spec in fields.items():
            lines.append(f"{key} = {_fmt_value(s.sections[section][key], spec)}")
        lines.append("")
    return "\n".join(lines)


def digest_every_field(s: Scenario) -> str:
    return hashlib.sha256(emit_every_field(s).encode()).hexdigest()
