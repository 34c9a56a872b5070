"""Scenario files: a small sectioned key/value format with units.

A scenario is plain text: ``[section]`` headers, ``key = value [unit]``
lines, ``#`` comments.  Unknown sections, unknown keys, malformed values,
units outside the fixed per-key table and values outside a field's declared
range are rejected with field-level messages.
Missing keys take documented defaults; the ``dcb`` and ``transient`` sections
are optional as a whole.  Parsing and re-emitting is idempotent: emission
writes every key of every present section in declared order with normalized
number formatting, preserving each value's own unit.

The default scenario carries the reference system's nameplate ratings
verbatim, including the filter inductance with its nameplate (microfarad)
unit quirk; that entry is inert metadata.  The load's reactive power is
reactive although the nameplate lists it in watts.  These defaults are the
only copy of the nameplate in the package.
"""

from __future__ import annotations

try:  # CPython's builtin SHA-256: hashlib also loads OpenSSL, 2-4 MB of resident memory
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the builtin module
        from hashlib import sha256
import math
from functools import cache
from typing import Callable

from .errors import ScenarioError
from .network import (
    CurrentLimitedInverter,
    FaultKind,
    FaultSpec,
    IdealSource,
    LoadModel,
    MicrogridModel,
    RelayLocation,
    SequenceImpedancePair,
    SourceModel,
    cable_impedance,
    load_impedance_from_power,
)
from .phasors import phasor
from .records import Record

# SI scale of every unit a quantity may carry; angles go to radians.
_UNIT_SCALE = {
    "Hz": 1.0, "V": 1.0, "A": 1.0, "W": 1.0, "kW": 1e3, "var": 1.0, "kvar": 1e3,
    "ohm": 1.0, "mohm": 1e-3, "H": 1.0, "mH": 1e-3, "uH": 1e-6, "F": 1.0, "nF": 1e-9,
    "uF": 1e-6, "s": 1.0, "ms": 1e-3, "deg": math.pi / 180.0, "rad": 1.0,
}


# The range rules a numeric field may declare: the closed interval its SI
# value must lie in, and the message when it does not.  An open end is the
# nearest float inside it (x >= 5e-324 is x > 0), so one chained comparison
# tests every rule.
_ABOVE_0 = math.nextafter(0.0, 1.0)
POSITIVE = (_ABOVE_0, math.inf, "must be positive")
AT_LEAST_0 = (0.0, math.inf, "must be >= 0")
AT_LEAST_1 = (1.0, math.inf, "must be >= 1")
IN_0_1 = (0.0, 1.0, "must lie in [0, 1]")
INSIDE_0_1 = (_ABOVE_0, math.nextafter(1.0, 0.0), "must lie strictly inside (0, 1)")


class FieldSpec(Record):
    __slots__ = ("kind", "units", "choices", "default", "allow_inf", "rule")

    def __init__(self, kind: str, units: tuple[str, ...] = (), choices: tuple[str, ...] = (),
                 default: object = None, allow_inf: bool = False,
                 rule: tuple[float, float, str] | None = None) -> None:
        self.kind = kind  # quantity | number | integer | boolean | choice | kpolicy
        self.units, self.choices, self.default = units, choices, default
        self.allow_inf = allow_inf  # +inf has a model meaning (no fault, no cap, ...)
        self.rule = rule  # one of the range rules above, or None for any value


# Declared order doubles as canonical emission order.
FIELDS: dict[str, dict[str, FieldSpec]] = {
    "system": {
        "frequency": FieldSpec("quantity", ("Hz",), default=(60, "Hz"), rule=POSITIVE),
        "line_line_voltage": FieldSpec("quantity", ("V",), default=(480, "V"), rule=POSITIVE),
        "source": FieldSpec("choice", choices=("ideal", "inverter"), default="inverter"),
        "rated_power": FieldSpec("quantity", ("W", "kW"), default=(50, "kW")),
        "dc_bus_voltage": FieldSpec("quantity", ("V",), default=(1800, "V")),
        "filter_inductance": FieldSpec("quantity", ("uF", "uH"), default=(18, "uF")),
        "filter_capacitance": FieldSpec("quantity", ("F", "nF", "uF"), default=(250, "nF")),
        "i_max": FieldSpec("quantity", ("A",), default=(70, "A"), allow_inf=True,
                           rule=POSITIVE),
        "cable_resistance": FieldSpec("quantity", ("ohm", "mohm"), default=(39, "mohm"),
                                      rule=AT_LEAST_0),
        "cable_inductance": FieldSpec("quantity", ("H", "mH", "uH"), default=(70.8, "uH"),
                                      rule=AT_LEAST_0),
        # The cable's zero-sequence impedance and the load neutral grounding
        # have no nameplate values: the usual assumptions for a run with
        # ground return and a resistance-grounded wye load are the defaults.
        "cable_zero_seq_scale": FieldSpec("number", default=3.0, rule=POSITIVE),
        "fault_position": FieldSpec("number", default=0.5, rule=INSIDE_0_1),
        "load_real_power": FieldSpec("quantity", ("W", "kW"), default=(25, "kW"), rule=POSITIVE),
        "load_reactive_power": FieldSpec("quantity", ("var", "kvar"), default=(12.5, "kvar")),
        "load_grounding_resistance": FieldSpec(
            "quantity", ("ohm", "mohm"), default=(1, "ohm"), allow_inf=True, rule=AT_LEAST_0
        ),
        "v2_fraction": FieldSpec("number", default=0.6, rule=IN_0_1),
        "v0_fraction": FieldSpec("number", default=0.6, rule=IN_0_1),
        "v2_angle": FieldSpec("quantity", ("deg", "rad"), default=(0, "deg")),
        "v0_angle": FieldSpec("quantity", ("deg", "rad"), default=(0, "deg")),
    },
    "controller": {
        "kpv": FieldSpec("number", default=0.35),
        "krv": FieldSpec("number", default=400),
        "kvh5": FieldSpec("number", default=4),
        "kvh7": FieldSpec("number", default=20),
        "kvh11": FieldSpec("number", default=11),
        "kpi": FieldSpec("number", default=0.7),
        "kri": FieldSpec("number", default=400),
        "kih5": FieldSpec("number", default=30),
        "kih7": FieldSpec("number", default=30),
        "kih11": FieldSpec("number", default=30),
    },
    "fault": {
        "kind": FieldSpec("choice", choices=("lg", "ll"), default="lg"),
        "rf": FieldSpec("quantity", ("ohm", "mohm"), default=(3.68, "ohm"), allow_inf=True,
                        rule=AT_LEAST_0),
        "rf_min": FieldSpec("quantity", ("ohm", "mohm"), default=(3.68, "ohm"), rule=AT_LEAST_0),
        "rf_max": FieldSpec("quantity", ("ohm", "mohm"), default=(1000, "ohm")),
        "rf_points": FieldSpec("integer", default=40, rule=AT_LEAST_1),
        "rf_spacing": FieldSpec("choice", choices=("log", "linear"), default="log"),
    },
    "relay": {
        "location": FieldSpec(
            "choice", choices=("upstream", "downstream"), default="upstream"
        ),
        "k_policy": FieldSpec("kpolicy", default="auto"),
    },
    "dcb": {
        "latency": FieldSpec("quantity", ("ms", "s"), default=(2, "ms"), rule=AT_LEAST_0),
        "loss": FieldSpec("number", default=0, rule=IN_0_1),
        "seed": FieldSpec("integer", default=1),
        # one fundamental cycle
        "coordination_time": FieldSpec("quantity", ("ms", "s"), default=(16.7, "ms"),
                                       rule=POSITIVE),
        "operational": FieldSpec("boolean", default=True),
        "script": FieldSpec(
            "choice", choices=("network", "internal", "external"), default="network"
        ),
        "duration": FieldSpec("quantity", ("ms", "s"), default=(100, "ms")),
        "step": FieldSpec("quantity", ("ms", "s"), default=(0.1, "ms"), rule=POSITIVE),
        "fault_time": FieldSpec("quantity", ("ms", "s"), default=(10, "ms")),
    },
    "transient": {
        "dt": FieldSpec("quantity", ("ms", "s"), default=(1, "ms"), rule=POSITIVE),
        "duration": FieldSpec("quantity", ("ms", "s"), default=(200, "ms"), rule=AT_LEAST_0),
        "fault_time": FieldSpec("quantity", ("ms", "s"), default=(50, "ms")),
        "limiter": FieldSpec(
            "choice", choices=("instantaneous", "latching", "none"), default="instantaneous"
        ),
    },
}

OPTIONAL_SECTIONS = ("dcb", "transient")

# Upper bounds on the work one scenario can request, far above the defaults
# (40 rf points, 200 trajectory steps, 1,000 DCB scans).  Step and scan
# counts are duration/step rounded, as the simulators count them.  A sweep
# streams its points, so a 10,000-point one peaks near 19 MB (Python 3.11).
MAX_RF_POINTS = 10_000
MAX_TRANSIENT_STEPS = 100_000
MAX_DCB_SCANS = 1_000_000

# Least |z1| of the cable and of each segment, relative to |z_load|: below the
# nodal solve's accepted relative residual (1e-9) a segment's voltage drop, and
# every reading through it, is round-off.  The reference segments sit near 3e-3.
SEGMENT_IMPEDANCE_FLOOR = 1e-9


class Scenario(Record):
    """Parsed scenario: section -> key -> typed value.

    Quantities are (value, unit) pairs in the unit the file used; numbers,
    integers, booleans and choice strings are stored as such.
    """

    __slots__ = ("sections",)

    def __init__(self, sections: dict[str, dict[str, object]] | None = None) -> None:
        self.sections = {} if sections is None else sections

    def has(self, section: str) -> bool:
        return section in self.sections

    def get(self, section: str, key: str) -> object:
        return self.sections[section][key]

    def si(self, section: str, key: str) -> float:
        """Quantity converted to SI (angles to radians, times to seconds)."""
        value, unit = self.sections[section][key]  # type: ignore[misc]
        return float(value) * _UNIT_SCALE[unit]


def _error(section: str, key: str, message: str) -> ScenarioError:
    """The field-level error; its text is built only when a value fails."""
    return ScenarioError(f"[{section}] {key}: {message}")


def _parse_value(section: str, key: str, raw: str, spec: FieldSpec) -> object:
    tokens = raw.split()
    if not tokens:
        raise _error(section, key, "empty value")
    kind, tok = spec.kind, tokens[0]
    if kind == "quantity" and len(tokens) != 2:
        raise _error(section, key, f"expected '<number> <unit>', got {raw!r}")
    if kind != "quantity" and len(tokens) != 1:
        raise _error(section, key, f"expected a single token, got {raw!r}")
    if kind == "quantity" or kind == "number":
        try:
            value = float(tok)
        except ValueError as exc:
            raise _error(section, key, f"bad number {tok!r}") from exc
        if not (math.isfinite(value) or (spec.allow_inf and value == math.inf)):
            allowed = "a finite number or inf" if spec.allow_inf else "a finite number"
            raise _error(section, key, f"expected {allowed}, got {tok!r}")
        if kind == "number":
            parsed = si = value
        else:
            unit = tokens[1]
            if unit not in spec.units:
                raise _error(section, key,
                             f"unit {unit!r} not in allowed set {sorted(spec.units)}")
            parsed, si = (value, unit), value * _UNIT_SCALE[unit]
    elif kind == "integer":
        try:
            parsed = si = int(tok)
        except ValueError as exc:
            raise _error(section, key, f"bad integer {tok!r}") from exc
    elif kind == "boolean":
        if tok not in ("true", "false"):
            raise _error(section, key, f"expected true or false, got {tok!r}")
        return tok == "true"
    elif kind == "choice":
        if tok not in spec.choices:
            raise _error(section, key, f"{tok!r} not one of {list(spec.choices)}")
        return tok
    else:  # kpolicy
        if tok in ("auto", "line", "downstream-path"):
            return tok
        try:
            k = complex(tok)
        except ValueError as exc:
            raise _error(section, key, "expected auto, line, downstream-path or a complex "
                                       "literal") from exc
        if not math.isfinite(abs(k)):  # a k_policy is never inf
            raise _error(section, key, f"expected a finite number, got {tok!r}")
        return k
    # the range rule reads the SI value, so 5e-324 ms is not positive
    rule = spec.rule
    if rule is not None and not rule[0] <= si <= rule[1]:
        raise _error(section, key, rule[2])
    return parsed


def _line_maker(key: str, kind: str) -> Callable[[object], str]:
    """The function that writes one field's ``key = value`` line, made from its kind."""
    head = f"{key} = "
    if kind == "quantity":
        return lambda v: f"{head}{float(v[0]):.12g} {v[1]}"
    if kind == "number":
        return lambda v: f"{head}{float(v):.12g}"
    if kind == "integer":
        return lambda v: head + str(int(v))
    if kind == "boolean":
        return lambda v: head + ("true" if v else "false")
    if kind == "kpolicy":
        return lambda v: (f"{head}{v.real:.12g}{v.imag:+.12g}j" if isinstance(v, complex)
                          else head + str(v))
    return lambda v: head + str(v)


@cache  # made at first use: importing the package pays nothing for it
def _emission() -> list[tuple[str, str, list[tuple[str, object, str, Callable]]]]:
    """Per section its header, and per key the default object, its line and the line maker."""
    return [(section, f"[{section}]", [(key, spec.default, (make := _line_maker(key, spec.kind))(
        spec.default), make) for key, spec in fields.items()]) for section, fields in FIELDS.items()]


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text, filling defaults for missing keys."""
    raw: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        if stripped[0] == "[" and stripped[-1] == "]":
            current = stripped[1:-1].strip()
            if current not in FIELDS:
                raise ScenarioError(f"line {lineno}: unknown section [{current}]")
            if current in raw:
                raise ScenarioError(f"line {lineno}: duplicate section [{current}]")
            fields, given = FIELDS[current], {}
            raw[current] = given
            continue
        if current is None:
            raise ScenarioError(f"line {lineno}: key/value outside any section")
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in fields:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in given:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        given[key] = value.strip()

    scenario = Scenario()
    for section, fields in FIELDS.items():
        if section in OPTIONAL_SECTIONS and section not in raw:
            continue
        given = raw.get(section, {})
        scenario.sections[section] = {
            key: spec.default if (value := given.get(key)) is None
            else _parse_value(section, key, value, spec)
            for key, spec in fields.items()
        }
    _check_consistency(scenario)
    return scenario


def _check_consistency(s: Scenario) -> None:
    """The rules that read several fields, and the bounds on a scenario's work;
    each field's own range is its FIELDS rule, tested as it is parsed."""
    # a cable without impedance leaves the healthy network singular
    resistance, inductance = s.si("system", "cable_resistance"), s.si("system", "cable_inductance")
    if resistance == inductance == 0:
        raise ScenarioError("[system] cable_resistance: must be positive if cable_inductance is 0")
    z_cable = cable_impedance(resistance, inductance, s.si("system", "frequency"))
    z_load = load_impedance_from_power(s.si("system", "load_real_power"),
                                       s.si("system", "load_reactive_power"),
                                       s.si("system", "line_line_voltage"))
    load = math.hypot(z_load.real, z_load.imag)  # abs() would raise OverflowError
    # v_ll^2 / conj(S) under- or overflowed, in a part or in magnitude: no model could solve it
    if not (z_load.real > 0 and load < math.inf):
        raise ScenarioError("[system] line_line_voltage: with load_real_power and "
                            "load_reactive_power, the load impedance under- or overflows to "
                            "no positive resistance")
    ratio = math.hypot(z_cable.real, z_cable.imag) / load  # unchanged by a common scale
    pos = float(s.get("system", "fault_position"))  # type: ignore[arg-type]
    for share, field, what in ((1.0, "cable_resistance", "with cable_inductance, the cable"),
                               (min(pos, 1.0 - pos), "fault_position", "each segment's")):
        if not share * ratio >= SEGMENT_IMPEDANCE_FLOOR:
            raise ScenarioError(f"[system] {field}: {what} impedance must be at least "
                                f"{SEGMENT_IMPEDANCE_FLOOR:g} of the load impedance")
    rf_min, rf_max = s.si("fault", "rf_min"), s.si("fault", "rf_max")
    if rf_min > rf_max:
        raise ScenarioError("[fault] rf_min must not exceed rf_max")
    rf_points = int(s.get("fault", "rf_points"))  # type: ignore[arg-type]
    if rf_points > MAX_RF_POINTS:
        raise ScenarioError(f"[fault] rf_points: must not exceed {MAX_RF_POINTS}")
    # sweep_points spaces a grid from rf_min unless the grid is one point; its
    # largest point must be finite
    spacing = s.get("fault", "rf_spacing")
    if rf_points > 1 and rf_min != rf_max:
        if spacing == "log" and rf_min <= 0:
            raise ScenarioError("[fault] rf_min: log spacing needs rf_min > 0")
        try:  # float ** raises where * gives inf
            top = _grid(rf_min, rf_max, rf_points, spacing)(rf_points - 1)
        except OverflowError:
            top = math.inf
        if top == math.inf:
            raise ScenarioError(f"[fault] rf_max: the {spacing} grid from rf_min must not overflow")
    if s.has("dcb"):
        duration, step = s.si("dcb", "duration"), s.si("dcb", "step")
        if duration < step:
            raise ScenarioError("[dcb] duration: must cover at least one step")
        if duration / step >= MAX_DCB_SCANS + 0.5:
            raise ScenarioError(
                f"[dcb] step: duration/step must not exceed {MAX_DCB_SCANS} scans"
            )
        for key in ("latency", "coordination_time", "duration", "step", "fault_time"):
            if not math.isfinite(s.si("dcb", key) * 1e3):  # the simulator counts in ms
                raise ScenarioError(f"[dcb] {key}: must be finite in milliseconds")
    if s.has("transient"):
        duration = s.si("transient", "duration")
        if duration / s.si("transient", "dt") >= MAX_TRANSIENT_STEPS + 0.5:
            raise ScenarioError(
                f"[transient] dt: duration/dt must not exceed {MAX_TRANSIENT_STEPS} steps"
            )
        if s.si("transient", "fault_time") >= duration:
            raise ScenarioError("[transient] fault_time: must fall before duration")


def scenario_to_text(s: Scenario) -> str:
    """Canonical emission: every present section, every key, declared order."""
    lines: list[str] = []
    for section, header, fields in _emission():
        values = s.sections.get(section)
        if values is None:
            continue
        lines.append(header)
        lines += [line if (value := values[key]) is default else make(value)
                  for key, default, line, make in fields]
        lines.append("")
    return "\n".join(lines)


def scenario_digest(s: Scenario) -> str:
    return sha256(scenario_to_text(s).encode()).hexdigest()


def default_scenario() -> Scenario:
    """All-defaults scenario (every section present)."""
    s = Scenario()
    for section, fields in FIELDS.items():
        s.sections[section] = {key: spec.default for key, spec in fields.items()}
    return s


def _source_from(s: Scenario) -> SourceModel:
    v1 = phasor(s.si("system", "line_line_voltage") / math.sqrt(3.0))
    if s.get("system", "source") == "ideal":
        return IdealSource(v1=v1)
    return CurrentLimitedInverter(
        v1=v1,
        v2_fraction=float(s.get("system", "v2_fraction")),  # type: ignore[arg-type]
        v0_fraction=float(s.get("system", "v0_fraction")),  # type: ignore[arg-type]
        v2_angle=s.si("system", "v2_angle"),
        v0_angle=s.si("system", "v0_angle"),
        i_max_rms=s.si("system", "i_max"),
    )


def build_model(s: Scenario) -> MicrogridModel:
    """Materialize the microgrid model a scenario describes."""
    f = s.si("system", "frequency")
    z_cable = cable_impedance(
        s.si("system", "cable_resistance"), s.si("system", "cable_inductance"), f
    )
    cable = SequenceImpedancePair(
        z1=z_cable, z0=z_cable * float(s.get("system", "cable_zero_seq_scale"))  # type: ignore[arg-type]
    )
    pos = float(s.get("system", "fault_position"))  # type: ignore[arg-type]
    z_load = load_impedance_from_power(
        s.si("system", "load_real_power"),
        s.si("system", "load_reactive_power"),
        s.si("system", "line_line_voltage"),
    )
    load = LoadModel(z_load, complex(s.si("system", "load_grounding_resistance")))
    kind = FaultKind(str(s.get("fault", "kind")))
    fault = FaultSpec(kind=kind, rf=s.si("fault", "rf"))
    return MicrogridModel(
        source=_source_from(s),
        line_1m=cable.scaled(pos),
        line_m2=cable.scaled(1.0 - pos),
        load=load,
        fault=fault,
        frequency=f,
    )


def relay_location(s: Scenario) -> RelayLocation:
    return RelayLocation(str(s.get("relay", "location")))


def sweep_points(s: Scenario) -> list[float]:
    """Fault-resistance grid of the scenario's sweep specification."""
    lo = s.si("fault", "rf_min")
    hi = s.si("fault", "rf_max")
    n = int(s.get("fault", "rf_points"))  # type: ignore[arg-type]
    if n == 1 or lo == hi:
        return [lo]
    return list(map(_grid(lo, hi, n, s.get("fault", "rf_spacing")), range(n)))


def _grid(lo: float, hi: float, n: int, spacing: object) -> Callable[[int], float]:
    """Point i of the n-point grid (n > 1) from lo to hi with the given spacing."""
    if spacing == "log":
        ratio = (hi / lo) ** (1.0 / (n - 1))
        return lambda i: lo * ratio**i
    step = (hi - lo) / (n - 1)
    return lambda i: lo + step * i
