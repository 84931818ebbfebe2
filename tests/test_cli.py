import json
import math

import pytest

from timcorr.cli import main, parse_lambda_grid

GROUND_HEADER = "lambda,r,a,b,d,z,f,sz,cxx,cyy,czz,lam0,lam1,lam2,lam3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(dict(zip(header, cells)))
    return header, rows


class TestGroundState:
    def test_zero_coupling_corner_state(self, capsys):
        code, out, _ = run_cli(capsys, "ground-state", "--lambda", "0", "--r", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == GROUND_HEADER
        row = rows[0]
        assert float(row["a"]) == pytest.approx(0.0, abs=1e-9)
        assert float(row["b"]) == pytest.approx(0.0, abs=1e-9)
        assert float(row["d"]) == pytest.approx(1.0, abs=1e-9)
        assert float(row["z"]) == pytest.approx(0.0, abs=1e-9)
        assert float(row["f"]) == pytest.approx(0.0, abs=1e-9)

    def test_critical_coupling_magnetization(self, capsys):
        code, out, _ = run_cli(capsys, "ground-state", "--lambda", "1", "--r", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["sz"]) == pytest.approx(-2.0 / math.pi, abs=1e-6)

    def test_half_coupling_matches_library(self, capsys, ground_half):
        code, out, _ = run_cli(capsys, "ground-state", "--lambda", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        for name in ("a", "b", "d", "z", "f"):
            assert float(rows[0][name]) == pytest.approx(
                getattr(ground_half, name), abs=1e-9
            )


class TestSweepP:
    def test_csv_header_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-p", "--lambda", "0.5", "--p-count", "3"
        )
        assert code == 0
        assert out.splitlines()[0] == "p,I,C,Q,branch"

    def test_phase_flip_has_two_crossings(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-p",
            "--lambda", "0.5",
            "--channel", "phase-flip",
            "--p-count", "1001",
        )
        assert code == 0
        _, rows = parse_csv(out)
        gaps = [float(r["C"]) - float(r["Q"]) for r in rows]
        flips = sum(
            1 for g0, g1 in zip(gaps, gaps[1:]) if g0 != 0.0 and g0 * g1 < 0.0
        )
        assert flips == 2

    def test_amplitude_damping_decays_without_visible_crossing(self, capsys):
        # classical stays above quantum wherever the curves are above plot
        # scale; in the tail everything is below 1e-3 and decays to zero
        code, out, _ = run_cli(
            capsys,
            "sweep-p",
            "--lambda", "0.5",
            "--channel", "amplitude-damping",
            "--p-count", "501",
        )
        assert code == 0
        _, rows = parse_csv(out)
        mutuals = [float(r["I"]) for r in rows]
        assert all(m0 >= m1 for m0, m1 in zip(mutuals, mutuals[1:]))
        gaps = [float(r["C"]) - float(r["Q"]) for r in rows]
        assert max(gaps) > 1e-2
        assert min(gaps) > -1e-4

    def test_single_point_grid(self, capsys, ground_half):
        from timcorr.correlations import discord

        code, out, _ = run_cli(capsys, "sweep-p", "--p-count", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["branch"] == discord(ground_half).branch.value

    def test_phase_damping_alias(self, capsys):
        code, out_alias, _ = run_cli(
            capsys, "sweep-p", "--channel", "phase-damping", "--p-count", "5"
        )
        assert code == 0
        code, out_flip, _ = run_cli(
            capsys, "sweep-p", "--channel", "phase-flip", "--p-count", "5"
        )
        assert code == 0
        assert out_alias == out_flip


class TestCritical:
    def test_caption_values_at_half_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical", "--lambda-grid", "0.5", "--channel", "phase-flip"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == (
            "lambda,p_sc,p_cr1,p_cr2,delta_p_cr,d_p_sc,d_p_cr1,d_p_cr2,d_delta"
        )
        row = rows[0]
        assert float(row["p_cr1"]) == pytest.approx(0.0932, abs=2e-3)
        assert float(row["p_sc"]) == pytest.approx(0.1347, abs=2e-3)
        assert float(row["p_cr2"]) == pytest.approx(0.1649, abs=2e-3)
        assert row["d_p_sc"] != ""

    def test_bit_phase_flip_crossings_empty(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "critical",
            "--lambda-grid", "0.5",
            "--channel", "bit-phase-flip",
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["p_sc"]) == pytest.approx(0.0666, abs=2e-3)
        assert row["p_cr1"] == ""
        assert row["p_cr2"] == ""
        assert row["delta_p_cr"] == ""

    def test_absent_fields_serialize_as_null_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "critical",
            "--lambda-grid", "0.5",
            "--channel", "bit-phase-flip",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)[0]
        assert record["p_cr1"] is None
        assert record["p_sc"] == pytest.approx(0.0666, abs=2e-3)

    def test_derivative_magnitudes_grow_toward_critical_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical", "--lambda-grid", "0.9,0.95,0.99"
        )
        assert code == 0
        _, rows = parse_csv(out)
        magnitudes = [abs(float(r["d_p_sc"])) for r in rows]
        assert magnitudes[0] < magnitudes[1] < magnitudes[2]


class TestOutputContracts:
    def test_json_round_trip_is_stable(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-p", "--p-count", "7", "--format", "json"
        )
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) + "\n" == out
        assert json.loads(json.dumps(parsed)) == parsed

    def test_identical_config_gives_identical_bytes(self, capsys):
        argv = ["sweep-p", "--lambda", "0.4", "--p-count", "11"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "sweep-p", "--p-count", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "p,I,C,Q,branch"

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.3\np-count = 4  # grid size\n")
        code, out, _ = run_cli(capsys, "sweep-p", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4

    def test_flags_win_over_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.3\n")
        _, from_flag, _ = run_cli(
            capsys, "ground-state", "--config", str(cfg), "--lambda", "0.5"
        )
        _, plain, _ = run_cli(capsys, "ground-state", "--lambda", "0.5")
        assert from_flag == plain

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coupling = 0.3\n")
        code, _, err = run_cli(capsys, "ground-state", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err

    def test_unknown_channel_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep-p", "--channel", "depolarizing")
        assert code == 2
        assert "unknown channel" in err

    def test_invalid_grid_size_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep-p", "--p-count", "0")
        assert code == 2
        assert "p_count" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ground-state", "--lambda", "nan"],
            ["ground-state", "--lambda", "inf"],
            ["ground-state", "--lambda", "-0.5"],
            ["ground-state", "--r", "0"],
            ["sweep-p", "--lambda", "nan"],
            ["sweep-p", "--p-start", "-0.5"],
            ["sweep-p", "--p-stop", "1.5"],
            ["sweep-p", "--p-start", "nan"],
            ["sweep-p", "--quad-tol", "nan"],
            ["critical", "--lambda-grid", "0.9,nan"],
            ["critical", "--lambda-grid=-0.1,0.5"],
        ],
        ids=" ".join,
    )
    def test_bad_input_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_parse_lambda_grid_forms(self):
        assert parse_lambda_grid("0.9,0.95,0.99") == (0.9, 0.95, 0.99)
        assert parse_lambda_grid("0.1:0.3:3") == (0.1, 0.2, 0.3)
        with pytest.raises(ValueError):
            parse_lambda_grid("")


class TestDiscordCheck:
    def test_small_sample_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "discord-check", "--samples", "5", "--seed", "11"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["index", "source", "q_analytic", "q_oracle", "abs_delta"]
        assert rows[-1]["source"] == "ground-state"
        assert all(float(r["abs_delta"]) < 1e-6 for r in rows)
