"""Decay curves and critical-point signatures of the decohering pair state.

For a fixed coupling the ground-state X state is evolved over a grid of
parametrized times p, and three features of the resulting correlation
curves are located by dense scan plus bisection:

  * p_sc   - sudden-change point where the discord branch switches (phase
             flip and bit-phase flip only),
  * p_cr1  - crossing where the Q2 branch meets half the mutual
             information (phase flip, below p_sc),
  * p_cr2  - crossing where the Q1 branch meets half the mutual
             information (phase flip, above p_sc).

Sweeping the coupling and taking central differences of these features
exposes their divergence as the critical coupling 1 is approached.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable, MutableMapping, Sequence

import numpy as np

from .channels import ChannelKind, evolve_pair, project_xstate
from .correlations import Branch, XState, branch_values, discord, mutual_information
from .numerics import QuadratureSpec, RootBracket, central_difference, find_root
from .tim_ground_state import ModelParams, reduced_density

__all__ = [
    "PSweepRow",
    "CriticalSignature",
    "DerivativeEstimate",
    "Quantity",
    "sweep_p",
    "find_p_sc",
    "find_crossings",
    "critical_signature",
    "sweep_lambda",
    "derivative_scan",
]

log = logging.getLogger(__name__)

_SCAN_STEP = 1e-3

_SUDDEN_CHANGE_KINDS = (ChannelKind.PHASE_FLIP, ChannelKind.BIT_PHASE_FLIP)


class Quantity(Enum):
    """Critical-signature field a derivative scan can target."""

    P_SC = "p_sc"
    P_CR1 = "p_cr1"
    P_CR2 = "p_cr2"
    DELTA_P_CR = "delta_p_cr"


@dataclass(frozen=True)
class PSweepRow:
    """Correlations of the evolved state at one parametrized time."""

    p: float
    mutual: float
    classical: float
    quantum: float
    branch: Branch


@dataclass(frozen=True)
class CriticalSignature:
    """Per-coupling record of the located dynamical features."""

    lambda_: float
    p_sc: float | None
    p_cr1: float | None
    p_cr2: float | None
    delta_p_cr: float | None


@dataclass(frozen=True)
class DerivativeEstimate:
    """Central-difference derivative of one signature quantity."""

    lambda_: float
    quantity: Quantity
    value: float
    step: float


class _AbsentFeature(Exception):
    """A signature quantity needed by a derivative is absent."""


def _ground_state(
    lambda_: float, pair_distance: int, spec: QuadratureSpec
) -> XState:
    return reduced_density(ModelParams(lambda_, pair_distance), spec)


def _evolved(ground: XState, kind: ChannelKind, p: float) -> XState:
    return project_xstate(evolve_pair(ground, kind, p))


def sweep_p(
    lambda_: float,
    kind: ChannelKind,
    p_grid: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
    *,
    pair_distance: int = 1,
) -> list[PSweepRow]:
    """Evolve the ground state over a p grid and record I, C, Q per point.

    The ground state is computed once and reused across the grid.
    """
    ground = _ground_state(lambda_, pair_distance, spec)
    rows = []
    for p in p_grid:
        breakdown = discord(_evolved(ground, kind, float(p)))
        rows.append(
            PSweepRow(
                p=float(p),
                mutual=breakdown.mutual,
                classical=breakdown.classical,
                quantum=breakdown.quantum,
                branch=breakdown.branch,
            )
        )
    return rows


def _first_sign_change_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float | None:
    """Dense pre-scan (step ~1e-3) for a sign change, then bisection."""
    count = max(2, int(round((hi - lo) / _SCAN_STEP)) + 1)
    grid = np.linspace(lo, hi, count)
    prev_x = float(grid[0])
    prev_v = f(prev_x)
    if prev_v == 0.0:
        return prev_x
    for x in grid[1:]:
        x = float(x)
        v = f(x)
        if v == 0.0:
            return x
        if prev_v * v < 0.0:
            return float(find_root(f, RootBracket(prev_x, x, tol)))
        prev_x, prev_v = x, v
    return None


def find_p_sc(
    lambda_: float,
    kind: ChannelKind,
    tol: float = 1e-8,
    *,
    quad_spec: QuadratureSpec = QuadratureSpec(),
    pair_distance: int = 1,
    ground: XState | None = None,
) -> float | None:
    """Sudden-change point of the discord decay on (0, 1).

    The decay rate of the two-branch discord min{Q1, Q2} kinks either where
    the branch switches (Q1 - Q2 changes sign; the phase-flip mechanism,
    which the exact discord rounds off over a narrow window) or where the
    evolved inner coherence z crosses zero, kinking the |z| term of the Q2
    branch (the bit-phase-flip mechanism).  Both roots are located by dense
    scan plus bisection; whichever exists is returned.  Channels without a
    sudden change return None without scanning.
    """
    if kind not in _SUDDEN_CHANGE_KINDS:
        return None
    if ground is None:
        ground = _ground_state(lambda_, pair_distance, quad_spec)

    def branch_gap(p: float) -> float:
        q1, q2 = branch_values(_evolved(ground, kind, p))
        return q1 - q2

    root = _first_sign_change_root(branch_gap, 0.0, 1.0, tol)
    if root is not None:
        return root

    def inner_coherence(p: float) -> float:
        return _evolved(ground, kind, p).z

    return _first_sign_change_root(inner_coherence, 0.0, 1.0, tol)


def find_crossings(
    lambda_: float,
    tol: float = 1e-8,
    *,
    quad_spec: QuadratureSpec = QuadratureSpec(),
    pair_distance: int = 1,
    ground: XState | None = None,
    p_sc: float | None = None,
) -> tuple[float | None, float | None]:
    """Crossings of the classical and quantum curves under the phase flip.

    p_cr1 solves Q2(p) = I(p)/2 below the sudden-change point and p_cr2
    solves Q1(p) = I(p)/2 above it; either is None when no sign change is
    found, and both are None when p_sc itself is absent.
    """
    kind = ChannelKind.PHASE_FLIP
    if ground is None:
        ground = _ground_state(lambda_, pair_distance, quad_spec)
    if p_sc is None:
        p_sc = find_p_sc(lambda_, kind, tol, ground=ground)
    if p_sc is None:
        return None, None

    def q2_gap(p: float) -> float:
        s = _evolved(ground, kind, p)
        return branch_values(s)[1] - 0.5 * mutual_information(s)

    def q1_gap(p: float) -> float:
        s = _evolved(ground, kind, p)
        return branch_values(s)[0] - 0.5 * mutual_information(s)

    p_cr1 = _first_sign_change_root(q2_gap, 0.0, p_sc, tol)
    p_cr2 = _first_sign_change_root(q1_gap, p_sc, 1.0, tol)
    return p_cr1, p_cr2


def critical_signature(
    lambda_: float,
    kind: ChannelKind,
    tol: float = 1e-8,
    *,
    quad_spec: QuadratureSpec = QuadratureSpec(),
    pair_distance: int = 1,
) -> CriticalSignature:
    """Locate every feature the channel admits at one coupling."""
    ground = _ground_state(lambda_, pair_distance, quad_spec)
    p_sc = find_p_sc(lambda_, kind, tol, ground=ground)
    p_cr1 = p_cr2 = None
    if kind is ChannelKind.PHASE_FLIP:
        p_cr1, p_cr2 = find_crossings(lambda_, tol, ground=ground, p_sc=p_sc)
    delta = p_cr2 - p_cr1 if (p_cr1 is not None and p_cr2 is not None) else None
    return CriticalSignature(
        lambda_=lambda_, p_sc=p_sc, p_cr1=p_cr1, p_cr2=p_cr2, delta_p_cr=delta
    )


def sweep_lambda(
    lambda_grid: Sequence[float],
    kind: ChannelKind,
    tol: float = 1e-8,
    *,
    quad_spec: QuadratureSpec = QuadratureSpec(),
    pair_distance: int = 1,
) -> list[CriticalSignature]:
    """Independent critical signatures over a coupling grid.

    A failure at one grid point is logged and reported as a signature with
    absent fields rather than aborting the sweep.
    """
    out = []
    for lam in lambda_grid:
        lam = float(lam)
        try:
            sig = critical_signature(
                lam, kind, tol, quad_spec=quad_spec, pair_distance=pair_distance
            )
        except Exception as exc:
            log.warning("signature at lambda=%g failed: %s", lam, exc)
            sig = CriticalSignature(lam, None, None, None, None)
        out.append(sig)
    return out


def _clamped_step(lambda_: float, h: float) -> float:
    """Shrink h so that both lambda +/- h stay strictly inside (0, 1)."""
    return min(h, 0.5 * (1.0 - lambda_), 0.5 * lambda_)


def derivative_scan(
    quantity: Quantity,
    lambda_grid: Sequence[float],
    h: float = 1e-3,
    kind: ChannelKind = ChannelKind.PHASE_FLIP,
    *,
    tol: float = 1e-8,
    quad_spec: QuadratureSpec = QuadratureSpec(),
    pair_distance: int = 1,
    cache: MutableMapping | None = None,
) -> list[DerivativeEstimate]:
    """Central differences of a signature quantity over a coupling grid.

    Estimates whose flanking signatures lack the quantity are omitted.  A
    shared `cache` avoids recomputing signatures when several quantities
    are scanned over the same grid; its keys hold every argument a
    signature depends on.
    """
    if cache is None:
        cache = {}

    def quantity_at(lam: float) -> float:
        key = (lam, kind, pair_distance, tol, quad_spec)
        if key not in cache:
            cache[key] = critical_signature(
                lam, kind, tol, quad_spec=quad_spec, pair_distance=pair_distance
            )
        value = getattr(cache[key], quantity.value)
        if value is None:
            raise _AbsentFeature(f"{quantity.value} absent at lambda={lam}")
        return value

    out = []
    for lam in lambda_grid:
        lam = float(lam)
        if not 0.0 < lam < 1.0:
            raise ValueError(f"derivative grid points must lie in (0, 1), got {lam}")
        step = _clamped_step(lam, h)
        try:
            value = central_difference(quantity_at, lam, step)
        except _AbsentFeature as exc:
            log.warning("skipping derivative of %s at lambda=%g: %s",
                        quantity.value, lam, exc)
            continue
        out.append(
            DerivativeEstimate(lambda_=lam, quantity=quantity, value=value, step=step)
        )
    return out
