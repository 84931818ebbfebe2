import json

import numpy as np
import pytest

import checker
import reference
from child import run_job
from timcorr.cli import main

SWEEP = ["sweep-p", "--lambda", "0.5", "--r", "1", "--channel", "phase-flip",
         "--p-count", "41", "--format", "csv"]
ZOOM = ["sweep-p", "--lambda", "0.5", "--r", "1", "--channel", "phase-flip",
        "--p-count", "21", "--format", "json", "--p-start", "0.125", "--p-stop", "0.145"]
GROUND = ["ground-state", "--lambda", "0.9", "--r", "3", "--format", "json"]
CRITICAL = ["critical", "--lambda-grid", "0.6", "--channel", "phase-flip", "--format", "csv"]


def run(argv):
    code, _, out, _ = run_job(main, argv)
    return code, out


def csv_rows(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def csv_text(header, rows):
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


@pytest.fixture(scope="module")
def outputs():
    return {tuple(argv): run(argv) for argv in (SWEEP, ZOOM, GROUND, CRITICAL)}


@pytest.mark.parametrize("argv", [SWEEP, ZOOM, GROUND, CRITICAL])
def test_accepts_program_output(outputs, argv):
    code, out = outputs[tuple(argv)]
    result = checker.check(argv, code, out)
    assert result.ok, result.reason


def test_rejects_nonzero_exit(outputs):
    assert not checker.check(SWEEP, 1, outputs[tuple(SWEEP)][1]).ok


def test_rejects_corrupted_sweep_row(outputs):
    header, rows = csv_rows(outputs[tuple(SWEEP)][1])
    i, c, q = header.index("I"), header.index("C"), header.index("Q")
    rows[17][q] = repr(float(rows[17][q]) + 1e-5)
    rows[17][i] = repr(float(rows[17][c]) + float(rows[17][q]))
    assert not checker.check(SWEEP, 0, csv_text(header, rows)).ok


def test_rejects_missing_row(outputs):
    header, rows = csv_rows(outputs[tuple(SWEEP)][1])
    assert not checker.check(SWEEP, 0, csv_text(header, rows[:-1])).ok


def test_rejects_corrupted_ground_state(outputs):
    data = json.loads(outputs[tuple(GROUND)][1])
    data["z"] += 1e-7
    assert not checker.check(GROUND, 0, json.dumps(data)).ok


def test_state_error_measures_the_worst_element(outputs):
    text = outputs[tuple(GROUND)][1]
    assert checker.state_error(GROUND, 0, text) < checker.STATE_TOL
    data = json.loads(text)
    data["z"] += 3e-3
    assert checker.state_error(GROUND, 0, json.dumps(data)) == pytest.approx(3e-3, rel=1e-6)
    assert checker.state_error(GROUND, 1, text) == 1.0
    assert checker.state_error(GROUND, 0, "") == 1.0


def test_rejects_shifted_feature(outputs):
    header, rows = csv_rows(outputs[tuple(CRITICAL)][1])
    k = header.index("p_sc")
    rows[0][k] = repr(float(rows[0][k]) + 1e-4)
    result = checker.check(CRITICAL, 0, csv_text(header, rows))
    assert not result.ok and "p_sc" in result.reason


def test_accepts_added_columns(outputs):
    header, rows = csv_rows(outputs[tuple(CRITICAL)][1])
    p_sc = float(rows[0][header.index("p_sc")])
    header += ["p_sc_lo", "p_sc_hi"]
    rows[0] += [repr(p_sc - 0.01), repr(p_sc + 0.01)]
    assert checker.check(CRITICAL, 0, csv_text(header, rows)).ok


def _with_quantum(text, quantum):
    data = json.loads(text)
    for row, q in zip(data, quantum):
        row["Q"], row["C"] = float(q), row["I"] - float(q)
        row["branch"] = "Qtheta"
    return json.dumps(data)


def _optimum(argv):
    f = checker.flags(argv)
    rho0 = reference.x_matrix(reference.ground_state(0.5, 1))
    grid = np.linspace(float(f["--p-start"]), float(f["--p-stop"]), int(f["--p-count"]))
    return reference.optimal_discord(reference.evolve(rho0, "phase-flip", grid))


def test_excess_reported_not_failed(outputs):
    result = checker.check(ZOOM, 0, outputs[tuple(ZOOM)][1])
    assert result.ok
    assert 1e-4 < max(result.q_excess) < 6.7e-4


def test_accepts_exact_discord_in_switch_window(outputs):
    text = _with_quantum(outputs[tuple(ZOOM)][1], _optimum(ZOOM))
    result = checker.check(ZOOM, 0, text)
    assert result.ok, result.reason
    assert max(result.q_excess) < 1e-12


def test_rejects_discord_below_optimum(outputs):
    text = _with_quantum(outputs[tuple(ZOOM)][1], _optimum(ZOOM) - 1e-6)
    result = checker.check(ZOOM, 0, text)
    assert not result.ok and "undercuts" in result.reason


def _defining_integral(lam, r, n=200_000):
    """G_r from its defining integral by the midpoint rule (never at phi = pi)."""
    phi = (np.arange(n) + 0.5) * np.pi / n
    omega = np.hypot(lam * np.sin(phi), 1.0 + lam * np.cos(phi))
    integrand = (np.cos(r * phi) * (1.0 + lam * np.cos(phi))
                 - lam * np.sin(r * phi) * np.sin(phi)) / omega
    return integrand.mean()


@pytest.mark.parametrize("lam", [0.5, 0.99, 1.0, 1.3])
def test_reference_correlators_match_definition(lam):
    g = reference.g_coefficients(lam, 5)
    for r in (-3, 0, 1, 5):
        assert g[r] == pytest.approx(_defining_integral(lam, r), abs=1e-8)


def test_reference_phase_flip_scales_coherences():
    rho0 = reference.x_matrix(reference.ground_state(0.5, 1))
    rho = reference.evolve(rho0, "phase-flip", np.array([0.3]))[0]
    assert np.allclose(np.diag(rho).real, np.diag(rho0))
    assert np.isclose(rho[0, 3].real, rho0[0, 3] * 0.49)
