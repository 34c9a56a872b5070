"""Independent checks of admrelay outputs.

Nothing here imports admrelay or compares against a stored copy of earlier
output.  The expected values come from the generated scenario parameters:
the load-path impedance ``z_m2 + V**2/(P - jQ)``, a small pure-Python
phase-domain solve of the two-bus circuit, and a DCB truth table derived from
latency, coordination time and channel state.  Each ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import hashlib
import math

ALPHA = cmath.exp(2j * math.pi / 3.0)
# Sensitivity floors of the negative-sequence directional element: 2 % of
# the reference system's nominal phase voltage and rated current.
V_FLOOR = 0.02 * 480.0 / math.sqrt(3.0)
I_FLOOR = 0.02 * 50e3 / (math.sqrt(3.0) * 480.0)
# The upstream closed-form chains are promised within 2 % of the phase-domain
# solve on the reference nameplate over this fault-resistance range.
UPSTREAM_RF_RANGE = (3.68, 1000.0)
UPSTREAM_TOLERANCE = 0.02


def close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def cable(p: dict) -> complex:
    return complex(p["r_cable"], 2.0 * math.pi * p["frequency"] * p["l_cable"])


def load_path(p: dict) -> complex:
    """Positive-sequence impedance of the load side of the fault node."""
    z_load = p["vll"] ** 2 / complex(p["p_load"], -p["q_load"])
    return (1.0 - p["pos"]) * cable(p) + z_load


def _source_phases(p: dict) -> list[complex]:
    v1 = p["vll"] / math.sqrt(3.0)
    if p["source"] == "ideal":
        v0 = v2 = 0j
    else:
        v0 = v1 * p["v0f"] * cmath.exp(1j * math.radians(p["v0a"]))
        v2 = v1 * p["v2f"] * cmath.exp(1j * math.radians(p["v2a"]))
    return [v0 + v1 + v2, v0 + ALPHA**2 * v1 + ALPHA * v2, v0 + ALPHA * v1 + ALPHA**2 * v2]


def _series_block(z1: complex, z0: complex) -> list[list[complex]]:
    y1, y0 = 1.0 / z1, 1.0 / z0
    diag, off = (y0 + 2.0 * y1) / 3.0, (y0 - y1) / 3.0
    return [[diag if r == c else off for c in range(3)] for r in range(3)]


def _gauss(a: list[list[complex]], b: list[complex]) -> list[complex]:
    """Dense elimination with partial pivoting; a and b are consumed."""
    n = len(b)
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        a[k], a[piv] = a[piv], a[k]
        b[k], b[piv] = b[piv], b[k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                row, pk = a[r], a[k]
                for c in range(k, n):
                    row[c] -= f * pk[c]
                b[r] -= f * b[k]
    x = [0j] * n
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - sum(a[k][c] * x[c] for c in range(k + 1, n))) / a[k][k]
    return x


def reference_solve(p: dict, rf: float, location: str) -> dict:
    """Phase-domain solve of the two-bus circuit for a fault through rf > 0.

    Nodes: source bus 1a-1c (known), fault node Ma-Mc, load bus 2a-2c and the
    load neutral n.  Returns the relay voltages and currents, the negative-
    sequence pair and the distance reading z (v_a/i_a for line-ground,
    (v_b - v_c)/(i_b - i_c) for line-line).
    """
    zc = cable(p)
    up = _series_block(p["pos"] * zc, p["pos"] * zc * p["z0_scale"])
    dn = _series_block((1.0 - p["pos"]) * zc, (1.0 - p["pos"]) * zc * p["z0_scale"])
    y_load = complex(p["p_load"], -p["q_load"]) / p["vll"] ** 2
    n = 10
    y = [[0j] * n for _ in range(n)]

    def series(block, f0, t0):
        for r in range(3):
            for c in range(3):
                v = block[r][c]
                y[f0 + r][f0 + c] += v
                y[t0 + r][t0 + c] += v
                y[f0 + r][t0 + c] -= v
                y[t0 + r][f0 + c] -= v

    def branch(i, j, adm):
        y[i][i] += adm
        y[j][j] += adm
        y[i][j] -= adm
        y[j][i] -= adm

    series(up, 0, 3)
    series(dn, 3, 6)
    for ph in range(3):
        branch(6 + ph, 9, y_load)
    y[9][9] += 1.0 / p["rg"]
    if p["kind"] == "lg":
        y[3][3] += 1.0 / rf
    else:
        branch(4, 5, 1.0 / rf)

    v_src = _source_phases(p)
    unknown = range(3, n)
    a = [[y[r][c] for c in unknown] for r in unknown]
    b = [-sum(y[r][k] * v_src[k] for k in range(3)) for r in unknown]
    v = v_src + _gauss(a, b)
    vm = v[3:6]
    if location == "upstream":
        d = [v[k] - vm[k] for k in range(3)]
        i = [sum(up[r][c] * d[c] for c in range(3)) for r in range(3)]
    else:
        d = [vm[k] - v[6 + k] for k in range(3)]
        i = [sum(dn[r][c] * d[c] for c in range(3)) for r in range(3)]
    z = vm[0] / i[0] if p["kind"] == "lg" else (vm[1] - vm[2]) / (i[1] - i[2])
    return {"v": vm, "i": i, "v2": _negative(vm), "i2": _negative(i), "z": z}


def _negative(x: list[complex]) -> complex:
    """Negative-sequence component of a phase triple."""
    return (x[0] + ALPHA**2 * x[1] + ALPHA * x[2]) / 3.0


def _complex(text: str) -> complex:
    return complex(text.replace("+-", "-"))


def _footer(out: str) -> dict[str, str]:
    """`# key = value` and `key = value` lines of a document."""
    fields = {}
    for line in out.splitlines():
        line = line.lstrip("# ")
        if " = " in line:
            key, _, value = line.partition(" = ")
            fields[key] = value
    return fields


def check_digest(out: str, canonical: str) -> list[str]:
    """The document's scenario_digest is the sha256 of the canonical text."""
    want = hashlib.sha256(canonical.encode()).hexdigest()
    got = _footer(out).get("scenario_digest")
    return [] if got == want else [f"scenario_digest {got} != sha256 of canonical text {want}"]


def check_validate(out: str, p: dict) -> list[str]:
    fields = _footer(out)
    problems = []
    for key, want in (("source", p["source"]), ("kind", p["kind"]),
                      ("location", p["location"])):
        if fields.get(key) != want:
            problems.append(f"validate: {key} = {fields.get(key)!r}, expected {want!r}")
    return problems


def check_case(out: str, p: dict, case: int) -> list[str]:
    f = _footer(out)
    problems = []
    z_d1 = load_path(p)
    location = "downstream" if case in (3, 6) else "upstream"
    if f.get("case") != str(case) or f.get("relay_location") != location:
        problems.append(f"case header mismatch: {f.get('case')} {f.get('relay_location')}")
        return problems
    if not close(_complex(f["z_d1"]), z_d1, 1e-9):
        problems.append(f"z_d1 {f['z_d1']} != load path {z_d1}")
    z = _complex(f["z_measured"])
    if location == "downstream" and not close(z, z_d1, 1e-9):
        problems.append(f"downstream reading {z} != load path {z_d1}")
    ref = reference_solve(p, p["rf"], location)["z"]
    if not close(_complex(f["z_oracle"]), ref, 1e-9):
        problems.append(f"z_oracle {f['z_oracle']} != reference solve {ref}")
    lo, hi = UPSTREAM_RF_RANGE
    if location == "upstream" and p["reference"] and lo <= p["rf"] <= hi:
        if not close(z, ref, UPSTREAM_TOLERANCE):
            problems.append(f"upstream reading {z} more than 2 % from {ref}")
    return problems


def sweep_grid(p: dict) -> list[float]:
    lo, hi, n = p["rf_min"], p["rf_max"], p["rf_points"]
    if p["rf_spacing"] == "log":
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def check_sweep(out: str, p: dict, sample: list[int]) -> list[str]:
    """Rows against the grid, the load path (downstream), the reference solve
    on the sampled rows, monotonicity and the 2 % band (upstream)."""
    lines = out.splitlines()
    if lines[0] != "rf_ohm,Re_Z,Im_Z,mag_Z,oracle_mag_Z,rel_err":
        return [f"sweep header {lines[0]!r}"]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    grid = sweep_grid(p)
    if len(rows) != len(grid):
        return [f"sweep has {len(rows)} rows, grid has {len(grid)}"]
    problems = []
    z_d1 = load_path(p)
    lo, hi = UPSTREAM_RF_RANGE
    upstream = p["location"] == "upstream"
    for k, (rf, re, im, mag, oracle_mag, _) in enumerate(rows):
        if not math.isclose(rf, grid[k], rel_tol=1e-9):
            problems.append(f"row {k}: rf {rf} != grid {grid[k]}")
        z = complex(re, im)
        if not upstream and not close(z, z_d1, 1e-9):
            problems.append(f"row {k}: downstream reading {z} != load path {z_d1}")
        in_band = upstream and p["reference"] and lo <= rf <= hi
        if k in sample or in_band:
            ref = reference_solve(p, rf, p["location"])["z"]
            if k in sample and not math.isclose(oracle_mag, abs(ref), rel_tol=1e-9):
                problems.append(f"row {k}: oracle |Z| {oracle_mag} != reference {abs(ref)}")
            if in_band and not close(z, ref, UPSTREAM_TOLERANCE):
                problems.append(f"row {k}: upstream reading {z} more than 2 % from {ref}")
        if upstream and k and not mag > rows[k - 1][3]:
            problems.append(f"row {k}: upstream |Z| not increasing ({rows[k - 1][3]} -> {mag})")
    return problems


def check_trajectory(out: str, p: dict) -> list[str]:
    t_cfg = p["transient"]
    dt, fault_t = t_cfg["dt"] * 1e-3, t_cfg["fault_time"] * 1e-3
    lines = out.splitlines()
    if lines[0] != "t_s,Re_Zlg_ohm,Im_Zlg_ohm,Re_Zll_ohm,Im_Zll_ohm,I_a_rms_A,limited":
        return [f"trajectory header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    n_steps = round(t_cfg["duration"] / t_cfg["dt"])
    if len(rows) != n_steps + 1:
        return [f"trajectory has {len(rows)} rows, expected {n_steps + 1}"]
    problems = []
    z_d1 = load_path(p)
    limited_cap = p["location"] == "upstream" and t_cfg["limiter"] != "none"
    for k, row in enumerate(rows):
        t = k * dt
        z_lg = complex(float(row[1]), float(row[2]))
        z_ll = complex(float(row[3]), float(row[4]))
        if t < fault_t - 1e-9:
            if not (close(z_lg, z_d1, 1e-9) and close(z_ll, z_d1, 1e-9)):
                problems.append(f"t={row[0]}: pre-fault readings {z_lg} {z_ll} != load path {z_d1}")
        elif t > fault_t + 1e-9:
            if not (z_lg.real > 0 and z_lg.imag > 0 and z_ll.real > 0 and z_ll.imag > 0):
                problems.append(f"t={row[0]}: post-fault reading outside the first quadrant")
        if limited_cap and t >= fault_t + 0.05 - 1e-9:
            if row[6] != "1" or not float(row[5]) <= p["i_max"] * (1.0 + 1e-3):
                problems.append(f"t={row[0]}: limiter row limited={row[6]} I_a={row[5]}")
    return problems


def dcb_pickups(p: dict) -> dict[str, tuple[bool, bool]]:
    """(forward, reverse) pickup of relays A and B after the fault."""
    script = p["dcb"]["script"]
    if script == "internal":
        return {"A": (True, False), "B": (True, False)}
    if script == "external":
        return {"A": (True, False), "B": (False, True)}
    line_angle = cmath.phase(cable(p))
    out = {}
    for relay, location in (("A", "upstream"), ("B", "downstream")):
        sol = reference_solve(p, p["rf"], location)
        if abs(sol["v2"]) < V_FLOOR or abs(sol["i2"]) < I_FLOOR:
            out[relay] = (False, False)
            continue
        operating = (sol["v2"] / sol["i2"] * cmath.exp(-1j * line_angle)).real
        out[relay] = (operating > 0, operating < 0)
    return out


def _dcb_events(out: str) -> tuple[list[tuple[float, str, str]], dict[str, str]]:
    events, summary = [], {}
    for line in out.splitlines():
        if line.startswith("# summary "):
            relay, _, flags = line[len("# summary "):].partition(": ")
            summary[relay] = flags
        elif not line.startswith("#"):
            t, relay, kind = line.split(",")
            events.append((float(t), relay, kind))
    return events, summary


def check_dcb(out: str, p: dict) -> list[str]:
    d = p["dcb"]
    events, summary = _dcb_events(out)
    problems = []
    if events != sorted(events):
        problems.append("trace not ordered by (time, relay, kind)")
    earliest_trip = d["fault_time"] + d["coordination_time"]
    trips = {r: [t for t, rr, k in events if rr == r and k == "Trip"] for r in "AB"}
    blocks = {r: [t for t, rr, k in events if rr == r and k == "BlockReceived"] for r in "AB"}
    for r in "AB":
        if len(trips[r]) > 1:
            problems.append(f"relay {r} tripped {len(trips[r])} times")
        if trips[r] and trips[r][0] < earliest_trip - 1e-6:
            problems.append(f"relay {r} tripped at {trips[r][0]} ms, before {earliest_trip}")
        want = (f"tripped={'yes' if trips[r] else 'no'} "
                f"blocked={'yes' if blocks[r] else 'no'}")
        if summary.get(r) != want:
            problems.append(f"summary {r}: {summary.get(r)!r} disagrees with trace ({want})")
    if d["loss"] not in (0.0, 1.0):
        return problems
    # Truth table: a reverse pickup keys the carrier at the fault instant; it
    # reaches the far relay one scan plus the latency later when the channel
    # is up and lossless, and blocks it when that is before the trip time.
    pickups = dcb_pickups(p)
    arrival = d["fault_time"] + d["step"] + d["latency"]
    delivered = d["operational"] and d["loss"] == 0.0 and arrival <= d["duration"]
    in_time = d["step"] + d["latency"] < d["coordination_time"]
    for r, other in (("A", "B"), ("B", "A")):
        blocked = delivered and pickups[other][1]
        trip = pickups[r][0] and not (blocked and in_time)
        if bool(blocks[r]) != blocked:
            problems.append(f"relay {r}: block received {bool(blocks[r])}, truth table {blocked}")
        if bool(trips[r]) != trip:
            problems.append(f"relay {r}: tripped {bool(trips[r])}, truth table {trip}")
        elif trip and trips[r][0] > earliest_trip + 2 * d["step"] + 1e-6:
            problems.append(f"relay {r}: late trip at {trips[r][0]} ms")
    return problems


def check_output(item: dict, out: str, sample: list[int]) -> list[str]:
    """Every check that applies to one output of `item`."""
    cmd = item["cmd"][0]
    p = item["p"]
    if cmd == "validate":
        return check_validate(out, p)
    if cmd == "case":
        return check_case(out, p, int(item["cmd"][2]))
    if cmd == "sweep":
        return check_sweep(out, p, sample)
    if cmd == "trajectory":
        return check_trajectory(out, p)
    return check_dcb(out, p)
