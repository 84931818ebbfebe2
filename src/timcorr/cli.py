"""Command-line front end emitting CSV or JSON tables.

Subcommands
-----------
ground-state    X-state elements, correlators and spectrum at one coupling
sweep-p         I, C, Q decay table over a grid of parametrized times
critical        signatures p_sc, p_cr1, p_cr2, delta_p_cr and their
                lambda-derivatives over a coupling grid
discord-check   analytic discord vs the measurement-optimization oracle

Flags can be preloaded from a key = value text file via --config; explicit
flags win over file entries.  Output is deterministic for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import ChannelKind, parse_channel
from .correlations import discord, discord_oracle, random_xstates, spectrum
from .criticality import Quantity, critical_signature, derivative_scan, sweep_p
from .numerics import QuadratureSpec
from .tim_ground_state import ModelParams, correlators, pair_state, reduced_density

__all__ = ["RunConfig", "main", "cmd_ground_state", "cmd_sweep_p", "cmd_critical",
           "cmd_discord_check"]

_CRITICAL_HEADER = "lambda,p_sc,p_cr1,p_cr2,delta_p_cr,d_p_sc,d_p_cr1,d_p_cr2,d_delta"
_SWEEP_HEADER = "p,I,C,Q,branch"


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    lambda_: float = 0.5
    channel: ChannelKind = ChannelKind.PHASE_FLIP
    pair_distance: int = 1
    quad_tol: float = 1e-10
    root_tol: float = 1e-8
    p_start: float = 0.0
    p_stop: float = 1.0
    p_count: int = 101
    lambda_grid: tuple[float, ...] = (0.5,)
    derivative_step: float = 1e-3
    output_format: str = "csv"
    output_path: str | None = None
    samples: int = 200
    seed: int = 7
    angular_grid: int = 64
    check_tol: float = 1e-6

    def __post_init__(self) -> None:
        steps = (self.quad_tol, self.root_tol, self.derivative_step)
        if not all(step > 0.0 for step in steps):
            raise ValueError("tolerances and the derivative step must be positive")
        if self.p_count < 1:
            raise ValueError(f"p_count must be at least 1, got {self.p_count}")
        for name in ("p_start", "p_stop"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not self.lambda_grid:
            raise ValueError("lambda grid must be non-empty")
        for lam in (self.lambda_, *self.lambda_grid):
            ModelParams(lam, self.pair_distance)
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    @property
    def quad_spec(self) -> QuadratureSpec:
        return QuadratureSpec(abs_tol=self.quad_tol)

    @property
    def p_grid(self) -> np.ndarray:
        if self.p_count == 1:
            return np.array([self.p_start])
        return np.linspace(self.p_start, self.p_stop, self.p_count)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_opt(x: float | None) -> str:
    return "" if x is None else _fmt(x)


def _round12(x: float | None):
    return None if x is None else float(f"{x:.12g}")


def _to_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def parse_lambda_grid(text: str) -> tuple[float, ...]:
    """Parse either comma-separated values or a start:stop:count range."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range grid must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be at least 1, got {count}")
        return tuple(float(v) for v in np.linspace(start, stop, count))
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError(f"empty lambda grid {text!r}")
    return values


def cmd_ground_state(config: RunConfig) -> str:
    """Serialize the ground-state X state, correlators and spectrum."""
    params = ModelParams(config.lambda_, config.pair_distance)
    corr = correlators(params, config.quad_spec)
    state = pair_state(params, corr)
    lams = spectrum(state).as_list()
    fields = {
        "lambda": config.lambda_,
        "r": config.pair_distance,
        "a": state.a,
        "b": state.b,
        "d": state.d,
        "z": state.z,
        "f": state.f,
        "sz": corr.sz,
        "cxx": corr.cxx,
        "cyy": corr.cyy,
        "czz": corr.czz,
        "lam0": lams[0],
        "lam1": lams[1],
        "lam2": lams[2],
        "lam3": lams[3],
    }
    if config.output_format == "json":
        return _to_json({k: _round12(v) if isinstance(v, float) else v
                         for k, v in fields.items()})
    header = ",".join(fields)
    row = ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in fields.values())
    return f"{header}\n{row}\n"


def cmd_sweep_p(config: RunConfig) -> str:
    """Serialize the I, C, Q decay table over the configured p grid."""
    rows = sweep_p(
        config.lambda_,
        config.channel,
        config.p_grid,
        config.quad_spec,
        pair_distance=config.pair_distance,
    )
    if config.output_format == "json":
        return _to_json([
            {
                "p": _round12(r.p),
                "I": _round12(r.mutual),
                "C": _round12(r.classical),
                "Q": _round12(r.quantum),
                "branch": r.branch.value,
            }
            for r in rows
        ])
    lines = [_SWEEP_HEADER]
    for r in rows:
        lines.append(
            f"{_fmt(r.p)},{_fmt(r.mutual)},{_fmt(r.classical)},{_fmt(r.quantum)},"
            f"{r.branch.value}"
        )
    return "\n".join(lines) + "\n"


def cmd_critical(config: RunConfig) -> str:
    """Serialize signatures and their derivatives over the lambda grid."""
    cache: dict = {}
    signatures = {}
    for lam in config.lambda_grid:
        signatures[lam] = critical_signature(
            lam,
            config.channel,
            config.root_tol,
            quad_spec=config.quad_spec,
            pair_distance=config.pair_distance,
        )
    derivatives: dict[Quantity, dict[float, float]] = {}
    for quantity in Quantity:
        estimates = derivative_scan(
            quantity,
            config.lambda_grid,
            config.derivative_step,
            config.channel,
            tol=config.root_tol,
            quad_spec=config.quad_spec,
            pair_distance=config.pair_distance,
            cache=cache,
        )
        derivatives[quantity] = {e.lambda_: e.value for e in estimates}
    records = []
    for lam in config.lambda_grid:
        sig = signatures[lam]
        records.append(
            {
                "lambda": lam,
                "p_sc": sig.p_sc,
                "p_cr1": sig.p_cr1,
                "p_cr2": sig.p_cr2,
                "delta_p_cr": sig.delta_p_cr,
                "d_p_sc": derivatives[Quantity.P_SC].get(lam),
                "d_p_cr1": derivatives[Quantity.P_CR1].get(lam),
                "d_p_cr2": derivatives[Quantity.P_CR2].get(lam),
                "d_delta": derivatives[Quantity.DELTA_P_CR].get(lam),
            }
        )
    if config.output_format == "json":
        return _to_json([{k: _round12(v) for k, v in rec.items()} for rec in records])
    lines = [_CRITICAL_HEADER]
    for rec in records:
        lines.append(
            ",".join([_fmt(rec["lambda"])] + [_fmt_opt(rec[k]) for k in
                     ("p_sc", "p_cr1", "p_cr2", "delta_p_cr",
                      "d_p_sc", "d_p_cr1", "d_p_cr2", "d_delta")])
        )
    return "\n".join(lines) + "\n"


def cmd_discord_check(config: RunConfig) -> tuple[str, float]:
    """Compare analytic and oracle discord; returns (report, max deviation).

    Checks `samples` rejection-sampled random X states plus the ground
    state at the configured coupling.
    """
    cases = [("random", s) for s in random_xstates(config.samples, config.seed)]
    ground = reduced_density(
        ModelParams(config.lambda_, config.pair_distance), config.quad_spec
    )
    cases.append(("ground-state", ground))
    records = []
    worst = 0.0
    for index, (source, state) in enumerate(cases):
        analytic = discord(state).quantum
        oracle = discord_oracle(state, config.angular_grid)
        delta = abs(analytic - oracle)
        worst = max(worst, delta)
        records.append(
            {
                "index": index,
                "source": source,
                "q_analytic": analytic,
                "q_oracle": oracle,
                "abs_delta": delta,
            }
        )
    if config.output_format == "json":
        report = _to_json([
            {k: _round12(v) if isinstance(v, float) else v for k, v in rec.items()}
            for rec in records
        ])
    else:
        lines = ["index,source,q_analytic,q_oracle,abs_delta"]
        for rec in records:
            lines.append(
                f"{rec['index']},{rec['source']},{_fmt(rec['q_analytic'])},"
                f"{_fmt(rec['q_oracle'])},{_fmt(rec['abs_delta'])}"
            )
        report = "\n".join(lines) + "\n"
    return report, worst


_CONFIG_KEYS = {
    "lambda": ("lambda_", float),
    "channel": ("channel", str),
    "r": ("pair_distance", int),
    "quad-tol": ("quad_tol", float),
    "root-tol": ("root_tol", float),
    "p-start": ("p_start", float),
    "p-stop": ("p_stop", float),
    "p-count": ("p_count", int),
    "lambda-grid": ("lambda_grid", str),
    "h": ("derivative_step", float),
    "format": ("output_format", str),
    "out": ("output_path", str),
    "samples": ("samples", int),
    "seed": ("seed", int),
    "grid": ("angular_grid", int),
    "check-tol": ("check_tol", float),
}


def _load_config_file(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment."""
    defaults = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("_", "-")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        dest, converter = _CONFIG_KEYS[key]
        defaults[dest] = converter(value)
    return defaults


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file of flag defaults")
    common.add_argument("--lambda", dest="lambda_", type=float,
                        help="transverse coupling (default 0.5)")
    common.add_argument("--channel", type=str,
                        help="amplitude-damping | bit-flip | phase-flip | "
                             "bit-phase-flip | phase-damping (default phase-flip)")
    common.add_argument("--r", dest="pair_distance", type=int,
                        help="qubit pair separation (default 1)")
    common.add_argument("--quad-tol", type=float, help="quadrature tolerance")
    common.add_argument("--root-tol", type=float, help="bisection tolerance")
    common.add_argument("--format", dest="output_format", choices=("csv", "json"),
                        help="output format (default csv)")
    common.add_argument("--out", dest="output_path", help="write output to this path")

    parser = argparse.ArgumentParser(
        prog="timcorr",
        description="Correlation dynamics of the decohering transverse-Ising "
                    "pair state",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ground-state", parents=[common],
                   help="X-state elements and correlators at one coupling")

    p_sweep = sub.add_parser("sweep-p", parents=[common],
                             help="decay table of I, C, Q over parametrized time")
    p_sweep.add_argument("--p-start", type=float, help="first grid point (default 0)")
    p_sweep.add_argument("--p-stop", type=float, help="last grid point (default 1)")
    p_sweep.add_argument("--p-count", type=int, help="grid size (default 101)")

    p_crit = sub.add_parser("critical", parents=[common],
                            help="signatures and derivatives over a coupling grid")
    p_crit.add_argument("--lambda-grid", type=str,
                        help="comma list '0.9,0.95' or range 'start:stop:count'")
    p_crit.add_argument("--h", dest="derivative_step", type=float,
                        help="central-difference step (default 1e-3)")

    p_check = sub.add_parser("discord-check", parents=[common],
                             help="analytic discord vs the measurement oracle")
    p_check.add_argument("--samples", type=int, help="random states (default 200)")
    p_check.add_argument("--seed", type=int, help="sampling seed (default 7)")
    p_check.add_argument("--grid", dest="angular_grid", type=int,
                         help="oracle angular grid (default 64)")
    p_check.add_argument("--check-tol", type=float,
                         help="deviation regarded as a failure (default 1e-6)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for key in vars(RunConfig()):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if isinstance(values.get("channel"), str):
        values["channel"] = parse_channel(values["channel"])
    if isinstance(values.get("lambda_grid"), str):
        values["lambda_grid"] = parse_lambda_grid(values["lambda_grid"])
    return RunConfig(**values)


def _emit(text: str, config: RunConfig) -> None:
    if config.output_path:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "ground-state":
            _emit(cmd_ground_state(config), config)
        elif args.command == "sweep-p":
            _emit(cmd_sweep_p(config), config)
        elif args.command == "critical":
            _emit(cmd_critical(config), config)
        elif args.command == "discord-check":
            report, worst = cmd_discord_check(config)
            _emit(report, config)
            if worst > config.check_tol:
                print(
                    f"discord-check failed: max deviation {worst:.3g} exceeds "
                    f"{config.check_tol:.3g}",
                    file=sys.stderr,
                )
                return 1
        else:  # pragma: no cover - argparse enforces the choices
            return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
