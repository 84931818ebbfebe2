"""Check one CLI job's stdout against references the benchmark computes itself.

The references (reference.py) never call timcorr.  Columns are read by
header or key name, so added columns (for example ``p_sc_lo``/``p_sc_hi``)
and reordered ones are accepted, and the ``branch`` column is not read.

What is checked:

* ground-state: every X-state element and correlator against the FFT/det
  reference, and the spectrum against dense eigenvalues;
* sweep-p: the p grid, I = C + Q on every row, I on every row against
  dense Kraus evolution and eigenvalue entropies, Q at most the two-branch
  reference on every row, and, on spot rows near the branch switch, Q not
  below the optimum of a (theta, phi) measurement scan.  Q above that
  optimum is the known gap of the two-branch formula; it is reported as
  ``q_excess`` and not counted as a failure, so exact discord passes too;
* critical: which features a channel has, their order, that each one
  brackets a sign change of a reference gap function, and each derivative
  against a reference central difference with a ten times smaller step, so
  central-difference and implicit-function derivatives both pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference

STATE_TOL = 1e-9      # ground-state elements; the quadrature targets 1e-10
CORR_TOL = 1e-8       # I, C, Q in bits
BRACKET_HALF = 1e-6   # a located feature must bracket a sign change within this
# Central differences at h = 1e-3 agree with the h = 1e-4 reference to 0.14%
# at worst (lambda = 0.995); implicit-function derivatives agree better.
DERIV_RTOL = 0.01
DERIV_ATOL = 1e-3

FEATURES = ("p_sc", "p_cr1", "p_cr2")
_EXPECTED = {
    "phase-flip": FEATURES,
    "bit-phase-flip": ("p_sc",),
    "amplitude-damping": (),
    "bit-flip": (),
}


class CheckFailure(Exception):
    pass


@dataclass
class Result:
    ok: bool
    reason: str = ""
    features: int = 0
    q_excess: list[float] = field(default_factory=list)


def flags(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def expected_rows(argv: list[str]) -> int:
    f = flags(argv)
    if argv[0] == "sweep-p":
        return int(f.get("--p-count", 101))
    if argv[0] == "critical":
        return len([v for v in f["--lambda-grid"].split(",") if v.strip()])
    return 1


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows as dicts; numbers as float, empty cells and nulls as None."""
    if fmt == "json":
        data = json.loads(text)
        return data if isinstance(data, list) else [data]
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise CheckFailure("empty output")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckFailure(f"row has {len(cells)} cells for {len(header)} columns")
        rows.append({k: _cell(v) for k, v in zip(header, cells)})
    return rows


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _column(rows: list[dict], name: str) -> np.ndarray:
    try:
        values = np.array([row[name] for row in rows], dtype=float)
    except KeyError:
        raise CheckFailure(f"missing column {name!r}") from None
    except (TypeError, ValueError):
        raise CheckFailure(f"non-numeric value in column {name!r}") from None
    if not np.all(np.isfinite(values)):
        raise CheckFailure(f"non-finite value in column {name!r}")
    return values


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def check(argv: list[str], code: int, stdout: str) -> Result:
    """Verdict on one job; never raises for bad output."""
    if code != 0:
        return Result(False, f"exit code {code}")
    f = flags(argv)
    result = Result(True)
    try:
        rows = parse_table(stdout, f.get("--format", "csv"))
        _require(len(rows) == expected_rows(argv),
                 f"{len(rows)} rows, expected {expected_rows(argv)}")
        if argv[0] == "ground-state":
            _check_ground_state(f, rows[0])
        elif argv[0] == "sweep-p":
            _check_sweep(f, rows, result)
        elif argv[0] == "critical":
            _check_critical(f, rows, result)
        else:
            raise CheckFailure(f"no checker for {argv[0]!r}")
    except (CheckFailure, ValueError) as exc:
        return Result(False, str(exc))
    return result


def _check_ground_state(f: dict, row: dict) -> None:
    lam, r = float(f["--lambda"]), int(f["--r"])
    _require(row.get("lambda") == lam and row.get("r") == r, "lambda or r echoed wrongly")
    ref = reference.ground_state(lam, r)
    for name, want in ref.items():
        got = _column([row], name)[0]
        _require(abs(got - want) <= STATE_TOL,
                 f"{name}={got!r} differs from reference {want!r} by {abs(got - want):.2e}")
    lams = np.sort(np.array([_column([row], f"lam{i}")[0] for i in range(4)]))
    want = np.linalg.eigvalsh(reference.x_matrix(ref))
    _require(np.max(np.abs(lams - want)) <= STATE_TOL, "spectrum differs from reference")


def state_error(argv: list[str], code: int, stdout: str) -> float:
    """Worst |X-state element or correlator - reference| of a ground-state job.

    1.0, more than any element can be off, when the job printed no readable row.
    """
    f = flags(argv)
    try:
        _require(code == 0, f"exit code {code}")
        row = parse_table(stdout, f.get("--format", "csv"))[0]
        ref = reference.ground_state(float(f["--lambda"]), int(f["--r"]))
        return max(abs(_column([row], name)[0] - want) for name, want in ref.items())
    except (CheckFailure, ValueError, IndexError):
        return 1.0


def _ground_matrix(f: dict, lam: float | None = None) -> np.ndarray:
    lam = float(f.get("--lambda", 0.5)) if lam is None else lam
    return reference.x_matrix(reference.ground_state(lam, int(f.get("--r", 1))))


def _channel(f: dict) -> str:
    return reference.CHANNEL_NAMES[f.get("--channel", "phase-flip")]


def _check_sweep(f: dict, rows: list[dict], result: Result) -> None:
    count = int(f.get("--p-count", 101))
    start, stop = float(f.get("--p-start", 0.0)), float(f.get("--p-stop", 1.0))
    grid = np.array([start]) if count == 1 else np.linspace(start, stop, count)
    p = _column(rows, "p")
    _require(np.max(np.abs(p - grid)) <= 1e-11, "p column is not the requested grid")
    mutual, classical, quantum = (_column(rows, k) for k in ("I", "C", "Q"))
    worst = int(np.argmax(np.abs(mutual - classical - quantum)))
    _require(abs(mutual[worst] - classical[worst] - quantum[worst]) <= 1e-9,
             f"I != C + Q at p={grid[worst]}")

    rho = reference.evolve(_ground_matrix(f), _channel(f), grid)
    ref = reference.branch_values(rho)
    worst = int(np.argmax(np.abs(mutual - ref["I"])))
    _require(abs(mutual[worst] - ref["I"][worst]) <= CORR_TOL,
             f"I={mutual[worst]!r} differs from reference {ref['I'][worst]!r} "
             f"at p={grid[worst]}")
    two_branch = np.minimum(ref["Q1"], ref["Q2"])
    worst = int(np.argmax(quantum - two_branch))
    _require(quantum[worst] <= two_branch[worst] + CORR_TOL,
             f"Q={quantum[worst]!r} exceeds the two-branch reference "
             f"{two_branch[worst]!r} at p={grid[worst]}")

    switch = int(np.argmin(np.abs(ref["Q1"] - ref["Q2"])))
    spots = sorted({0, count // 2, count - 1, *range(max(0, switch - 1), min(count, switch + 2))})
    optimum = reference.optimal_discord(rho[spots])
    under = int(np.argmax(optimum - quantum[spots]))
    _require(quantum[spots][under] >= optimum[under] - CORR_TOL,
             f"Q={quantum[spots][under]!r} undercuts the measurement optimum "
             f"{optimum[under]!r} at p={grid[spots][under]}")
    result.q_excess.extend((quantum[spots] - optimum).tolist())


def _feature(row: dict, name: str) -> float | None:
    value = row.get(name)
    if value is None:
        return None
    _require(isinstance(value, float) and math.isfinite(value), f"{name}={value!r}")
    return value


def _bracketing_gap(rho0: np.ndarray, channel: str, name: str, p: float) -> str | None:
    lo, hi = max(0.0, p - BRACKET_HALF), min(1.0, p + BRACKET_HALF)
    gaps = reference.gap_values(rho0, channel, np.array([lo, hi]))
    for gap in reference.GAPS[name]:
        if gaps[gap][0] * gaps[gap][1] <= 0.0:
            return gap
    return None


def _check_critical(f: dict, rows: list[dict], result: Result) -> None:
    channel = _channel(f)
    wanted = _EXPECTED[channel]
    grid = [float(v) for v in f["--lambda-grid"].split(",") if v.strip()]
    for lam, row in zip(grid, rows):
        _require(row.get("lambda") == lam, f"lambda {row.get('lambda')!r}, expected {lam}")
        values = {name: _feature(row, name) for name in FEATURES}
        for name in FEATURES:
            present = values[name] is not None
            _require(present == (name in wanted),
                     f"{name} {'present' if present else 'absent'} for {channel} "
                     f"at lambda={lam}")
        if channel == "phase-flip":
            _require(values["p_cr1"] < values["p_sc"] < values["p_cr2"],
                     f"features out of order at lambda={lam}")
            delta = _feature(row, "delta_p_cr")
            _require(delta is not None
                     and abs(delta - (values["p_cr2"] - values["p_cr1"])) <= 1e-9,
                     f"delta_p_cr wrong at lambda={lam}")
            d_delta, d1, d2 = (_feature(row, k) for k in ("d_delta", "d_p_cr1", "d_p_cr2"))
            _require(None not in (d_delta, d1, d2)
                     and abs(d_delta - (d2 - d1)) <= 1e-6 * (1.0 + abs(d_delta)),
                     f"d_delta != d_p_cr2 - d_p_cr1 at lambda={lam}")
        rho0 = _ground_matrix(f, lam)
        for name in wanted:
            p = values[name]
            gap = _bracketing_gap(rho0, channel, name, p)
            _require(gap is not None,
                     f"{name}={p!r} brackets no sign change of the reference at lambda={lam}")
            result.features += 1
            derivative = _feature(row, "d_" + name)
            _require(derivative is not None, f"d_{name} missing at lambda={lam}")
            want = _reference_derivative(f, channel, gap, lam, p)
            _require(abs(derivative - want) <= DERIV_RTOL * abs(want) + DERIV_ATOL,
                     f"d_{name}={derivative!r} vs reference {want!r} at lambda={lam}")
        for name in set(FEATURES) - set(wanted):
            _require(_feature(row, "d_" + name) is None, f"d_{name} without {name}")


def _reference_derivative(f: dict, channel: str, gap: str, lam: float, p: float) -> float:
    h = min(1e-4, 0.25 * (1.0 - lam), 0.25 * lam)
    roots = []
    for side in (lam - h, lam + h):
        root = reference.sign_change_near(_ground_matrix(f, side), channel, gap, p,
                                          width=0.02, tol=1e-11)
        _require(root is not None, f"reference loses the feature at lambda={side}")
        roots.append(root)
    return (roots[1] - roots[0]) / (2.0 * h)
