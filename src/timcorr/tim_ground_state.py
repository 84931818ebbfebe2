"""Ground-state pair correlators of the 1d transverse Ising chain.

Works in the thermodynamic limit of

    H = -lambda * sum_j sx_j sx_{j+1} - sum_j sz_j

where the chain is critical at lambda = 1 (Pfeuty, Ann. Phys. 57, 79
(1970)).  Everything derives from the coefficients G_r, the Fourier
coefficients of the unit-modulus symbol

    (1 + lambda e^{-i phi}) / |1 + lambda e^{-i phi}|.

All G_{-R..R} that one pair needs come from a single FFT of that symbol
(the periodic trapezoid rule, geometrically convergent away from
lambda = 1), and from Pfeuty's closed form at lambda = 1.  The
magnetization is -G_0, the sx-sx and sy-sy pair correlators are
determinants of Toeplitz matrices of the G_r, and the two-site reduced
density matrix assembled from them is a real symmetric X state.

Sign convention: G_0 is used exactly as written, which gives <sz> = -1 at
lambda = 0.  All correlation measures are invariant under the global spin
flip relating this to the opposite convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import InvalidXStateError, XState, spectrum
from .numerics import QuadratureError, QuadratureSpec, determinant

__all__ = [
    "ModelParams",
    "GroundStateCorrelators",
    "dispersion",
    "magnetization",
    "g_coefficient",
    "correlators",
    "pair_state",
    "reduced_density",
]

_POSITIVITY_TOL = 1e-9
# Smallest FFT grid; QuadratureSpec.max_refinements doublings of it bound
# the largest.
_MIN_POINTS = 64


def _check_lambda(lambda_: float) -> None:
    if not (math.isfinite(lambda_) and lambda_ >= 0.0):
        raise ValueError(f"lambda must be finite and non-negative, got {lambda_}")


@dataclass(frozen=True)
class ModelParams:
    """Transverse coupling lambda and the separation of the qubit pair."""

    lambda_: float
    pair_distance: int = 1

    def __post_init__(self) -> None:
        _check_lambda(self.lambda_)
        if self.pair_distance < 1:
            raise ValueError(
                f"pair_distance must be at least 1, got {self.pair_distance}"
            )


@dataclass(frozen=True)
class GroundStateCorrelators:
    """<sz>, <sx sx>, <sy sy> and <sz sz> for one pair separation."""

    sz: float
    cxx: float
    cyy: float
    czz: float


def dispersion(lambda_: float, phi: float) -> float:
    """Quasiparticle energy sqrt((lambda sin phi)^2 + (1 + lambda cos phi)^2).

    Non-negative on [0, pi]; the gap closes at phi = pi when lambda = 1.
    """
    return math.hypot(lambda_ * math.sin(phi), 1.0 + lambda_ * math.cos(phi))


def _g_coefficients(lambda_: float, r_max: int, spec: QuadratureSpec) -> np.ndarray:
    """G_{-r_max..r_max} as an array g with g[k] = G_k under Python indexing.

    The N-point FFT of the symbol gives every G_k at once.  N starts at the
    first power of two >= max(64, 4 (r_max + 1)) and doubles until two
    successive grids agree within ``spec.abs_tol`` on every |k| <= r_max.
    At lambda = 1 the symbol jumps and the sums converge only as N^-2, so
    Pfeuty's G_k = (-1)^k 2 / (pi (2k + 1)) is returned instead.

    Raises
    ------
    QuadratureError
        If N would exceed 64 * 2**spec.max_refinements first.
    """
    _check_lambda(lambda_)
    k = np.r_[0 : r_max + 1, -r_max:0]
    if lambda_ == 1.0:
        return np.where(k % 2, -2.0, 2.0) / (math.pi * (2 * k + 1))
    n = max(_MIN_POINTS, 1 << (4 * r_max + 3).bit_length())
    n_max = _MIN_POINTS << spec.max_refinements
    previous, change = None, math.inf
    while n <= n_max:
        # The symbol is Hermitian, s(-phi) = conj(s(phi)), so its values on
        # [0, pi] fix the whole (real) spectrum.
        phi = 2.0 * math.pi * np.arange(n // 2 + 1) / n
        symbol = 1.0 + lambda_ * np.exp(-1j * phi)
        g = np.fft.hfft(symbol / np.abs(symbol), n)[k] / n
        if previous is not None:
            change = float(np.max(np.abs(g - previous)))
            if change <= spec.abs_tol:
                return g
        previous, n = g, 2 * n
    raise QuadratureError(n_max, change, spec)


def magnetization(lambda_: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Transverse magnetization <sz> = -G_0: -1 at lambda = 0, -2/pi at lambda = 1."""
    return -float(_g_coefficients(lambda_, 0, spec)[0])


def g_coefficient(
    lambda_: float, r: int, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Toeplitz coefficient G_r of the pair correlators.

    G_r = (1/pi) * int_0^pi (cos(r phi) + lambda cos((r + 1) phi)) / omega_phi dphi

    with omega_phi = `dispersion`.  Negative r is required by the
    correlator matrices.  G_0 equals minus the magnetization.
    """
    return float(_g_coefficients(lambda_, abs(r), spec)[r])


def correlators(
    params: ModelParams, spec: QuadratureSpec = QuadratureSpec()
) -> GroundStateCorrelators:
    """Pair correlators at separation r from Toeplitz determinants.

    cxx is the r x r determinant with entries G_{i-j-1}, cyy the one with
    entries G_{i-j+1}, and czz = <sz>^2 - G_r G_{-r}.  At r = 1 these
    reduce to the bare coefficients G_{-1} and G_1.
    """
    r = params.pair_distance
    g = _g_coefficients(params.lambda_, r, spec)
    sz = -float(g[0])
    offsets = np.subtract.outer(np.arange(r), np.arange(r))
    cxx = determinant(g[offsets - 1])
    cyy = determinant(g[offsets + 1])
    czz = sz * sz - float(g[r]) * float(g[-r])
    return GroundStateCorrelators(sz=sz, cxx=cxx, cyy=cyy, czz=czz)


def pair_state(params: ModelParams, c: GroundStateCorrelators) -> XState:
    """Two-site reduced density matrix of the ground state as an X state.

    a = 1/4 + <sz>/2 + czz/4,  d = 1/4 - <sz>/2 + czz/4,  b = (1 - czz)/4,
    z = (cxx + cyy)/4,  f = (cxx - cyy)/4, with `c` the correlators of the
    pair `params`.  The trace is 1 by construction; an eigenvalue below
    -1e-9 signals a quadrature or determinant bug and raises.
    """
    state = XState(
        a=float(0.25 + 0.5 * c.sz + 0.25 * c.czz),
        b=float(0.25 * (1.0 - c.czz)),
        d=float(0.25 - 0.5 * c.sz + 0.25 * c.czz),
        z=float(0.25 * (c.cxx + c.cyy)),
        f=float(0.25 * (c.cxx - c.cyy)),
    )
    smallest = min(spectrum(state).as_list())
    if smallest < -_POSITIVITY_TOL:
        raise InvalidXStateError(
            f"ground state at lambda={params.lambda_}, r={params.pair_distance} "
            f"has eigenvalue {smallest} below -{_POSITIVITY_TOL}"
        )
    return state


def reduced_density(
    params: ModelParams, spec: QuadratureSpec = QuadratureSpec()
) -> XState:
    """`pair_state` of the correlators at `params`."""
    return pair_state(params, correlators(params, spec))
