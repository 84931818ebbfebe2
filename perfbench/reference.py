"""Reference physics for checking timcorr output, independent of timcorr.

Nothing here imports timcorr or reuses its algorithms:

* G_r comes from one large FFT of the unit-modulus symbol
  (1 + lam e^{-i phi}) / |1 + lam e^{-i phi}| (periodic trapezoid rule),
  with Pfeuty's closed form at lam = 1, and the Toeplitz determinants
  from ``numpy.linalg.det``;
* channels act on dense 4x4 matrices through explicit Kraus products,
  batched over p;
* entropies come from eigenvalues of dense matrices, and measurement
  entropies from explicit projectors on the second qubit.

Basis ordering follows timcorr: {|11>, |10>, |01>, |00>}, X state
diag(a, b, b, d) with inner coherence z and outer coherence f.
"""

from __future__ import annotations

import math

import numpy as np

CHANNEL_NAMES = {
    "amplitude-damping": "amplitude-damping",
    "bit-flip": "bit-flip",
    "phase-flip": "phase-flip",
    "phase-damping": "phase-flip",
    "bit-phase-flip": "bit-phase-flip",
}

_PAULI = {
    "bit-flip": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "bit-phase-flip": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "phase-flip": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# --------------------------------------------------------------------------
# ground state


def g_coefficients(lam: float, r_max: int) -> dict[int, float]:
    """G_k for |k| <= r_max + 1."""
    ks = range(-r_max - 1, r_max + 2)
    if lam == 1.0:
        return {k: (-1.0) ** (k % 2) * 2.0 / (math.pi * (2 * k + 1)) for k in ks}
    gap = abs(1.0 - lam)
    n = 1024
    while n < min(2**22, max(64.0 / gap, 8.0 * (r_max + 2))):
        n *= 2
    phi = 2.0 * math.pi * np.arange(n) / n
    symbol = 1.0 + lam * np.exp(-1j * phi)
    coeffs = np.fft.fft(symbol / np.abs(symbol)).real / n
    return {k: float(coeffs[k % n]) for k in ks}


def ground_state(lam: float, r: int) -> dict[str, float]:
    """X-state elements and correlators of the pair at separation r."""
    g = g_coefficients(lam, r)
    idx = np.arange(r)
    diff = idx[:, None] - idx[None, :]
    cxx = float(np.linalg.det(np.vectorize(lambda k: g[k - 1])(diff)))
    cyy = float(np.linalg.det(np.vectorize(lambda k: g[k + 1])(diff)))
    sz = -g[0]
    czz = sz * sz - g[r] * g[-r]
    return {
        "sz": sz,
        "cxx": cxx,
        "cyy": cyy,
        "czz": czz,
        "a": 0.25 + 0.5 * sz + 0.25 * czz,
        "b": 0.25 * (1.0 - czz),
        "d": 0.25 - 0.5 * sz + 0.25 * czz,
        "z": 0.25 * (cxx + cyy),
        "f": 0.25 * (cxx - cyy),
    }


def x_matrix(s: dict[str, float]) -> np.ndarray:
    m = np.zeros((4, 4))
    m[0, 0], m[3, 3] = s["a"], s["d"]
    m[1, 1] = m[2, 2] = s["b"]
    m[1, 2] = m[2, 1] = s["z"]
    m[0, 3] = m[3, 0] = s["f"]
    return m


# --------------------------------------------------------------------------
# channels


def kraus(channel: str, p: np.ndarray) -> np.ndarray:
    """Single-qubit Kraus operators, shape (P, 2, 2, 2), in the |1>,|0> order."""
    kind = CHANNEL_NAMES[channel]
    p = np.asarray(p, dtype=float)
    ops = np.zeros(p.shape + (2, 2, 2), dtype=complex)
    if kind == "amplitude-damping":
        ops[..., 0, 0, 0] = 1.0
        ops[..., 0, 1, 1] = np.sqrt(1.0 - p)
        ops[..., 1, 0, 1] = np.sqrt(p)
    else:
        ops[..., 0, :, :] = np.sqrt(1.0 - 0.5 * p)[..., None, None] * np.eye(2)
        ops[..., 1, :, :] = np.sqrt(0.5 * p)[..., None, None] * _PAULI[kind]
    return _FLIP @ ops @ _FLIP


def evolve(rho: np.ndarray, channel: str, p: np.ndarray) -> np.ndarray:
    """sum_{mu,nu} (E_mu x E_nu) rho (E_mu x E_nu)^dag for each p: (P, 4, 4)."""
    e = kraus(channel, p)
    out = np.zeros((len(e), 4, 4), dtype=complex)
    for mu in range(2):
        for nu in range(2):
            pair = np.einsum("pac,pbd->pabcd", e[:, mu], e[:, nu]).reshape(-1, 4, 4)
            out += pair @ rho @ pair.conj().transpose(0, 2, 1)
    return out


# --------------------------------------------------------------------------
# entropies and measurements


def _entropy_from_eigs(vals: np.ndarray) -> np.ndarray:
    vals = np.clip(vals, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(vals > 0.0, -vals * np.log2(np.where(vals > 0.0, vals, 1.0)), 0.0)
    return terms.sum(axis=-1)


def entropy(rho: np.ndarray) -> np.ndarray:
    return _entropy_from_eigs(np.linalg.eigvalsh(rho))


def marginal_a(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...ijkj->...ik", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))


def mutual_information(rho: np.ndarray) -> np.ndarray:
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    s_b = entropy(np.einsum("...ijil->...jl", r))
    return entropy(marginal_a(rho)) + s_b - entropy(rho)


_PAULI_B = np.array([np.eye(2), _PAULI["bit-flip"], _PAULI["bit-phase-flip"],
                     _PAULI["phase-flip"]])


def conditional_entropy(rho: np.ndarray, theta, phi) -> np.ndarray:
    """S(A | projective measurement of B along (theta, phi)), shape (S, D).

    ``theta`` and ``phi`` broadcast to (S, D): one shared list of D
    directions, or one list per state.  The projectors are (I +/- n.sigma)/2,
    so the unnormalised post-measurement states of A are
    (Tr_B[rho] +/- sum_i n_i Tr_B[(I x sigma_i) rho]) / 2.
    """
    r = rho.reshape(rho.shape[0], 2, 2, 2, 2)
    parts = np.einsum("sajck,ikj->siac", r, _PAULI_B)  # (S, 4, 2, 2)
    theta, phi = np.broadcast_arrays(np.atleast_2d(theta), np.atleast_2d(phi))
    n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                  np.cos(theta)], axis=-1)
    # trace, diagonal difference and off-diagonal of each part: (S, 4)
    trace = (parts[..., 0, 0] + parts[..., 1, 1]).real
    diff = (parts[..., 0, 0] - parts[..., 1, 1]).real
    off = parts[..., 0, 1]
    total = 0.0
    for sign in (1.0, -1.0):
        def half(c):
            return 0.5 * (c[:, None, 0] + sign * np.einsum("sdi,si->sd", n, c[:, 1:]))

        prob = half(trace)
        length = np.hypot(half(diff), 2.0 * np.abs(half(off)))
        with np.errstate(divide="ignore", invalid="ignore"):
            radius = np.where(prob > 1e-15, length / np.where(prob > 1e-15, prob, 1.0), 0.0)
        radius = np.clip(radius, 0.0, 1.0)
        halves = np.stack([0.5 * (1.0 + radius), 0.5 * (1.0 - radius)], axis=-1)
        total = total + np.clip(prob, 0.0, None) * _entropy_from_eigs(halves)
    return total


_AXES = (np.array([0.0, 0.5 * math.pi, 0.5 * math.pi]), np.array([0.0, 0.0, 0.5 * math.pi]))


def branch_values(rho: np.ndarray) -> dict[str, np.ndarray]:
    """I, the sz (Q1) and best in-plane (Q2) measurement discords, and z."""
    mutual = mutual_information(rho)
    s_a = entropy(marginal_a(rho))
    cond = conditional_entropy(rho, *_AXES)
    q1 = mutual - s_a + cond[:, 0]
    q2 = mutual - s_a + np.minimum(cond[:, 1], cond[:, 2])
    return {"I": mutual, "Q1": q1, "Q2": q2, "z": rho[:, 1, 2].real}


SCAN_GRID = 17     # points per side of each (theta, phi) scan box
SCAN_LEVELS = 10   # zoom steps of the scan


def optimal_discord(rho: np.ndarray) -> np.ndarray:
    """Discord minimised over measurement directions by a refined (theta, phi) scan.

    Each state starts from a grid over theta in [0, pi], phi in [0, pi) plus
    the three axes, then zooms a box around its best point SCAN_LEVELS times.
    A scan can only miss the optimum from above, so the result never
    undercuts the true discord by more than rounding.
    """
    count = len(rho)
    best = conditional_entropy(rho, *_AXES).min(axis=1)
    lo = np.zeros((count, 2))
    width = np.full((count, 2), math.pi)
    u = np.linspace(0.0, 1.0, SCAN_GRID)
    uu = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1).reshape(-1, 2)
    for _ in range(SCAN_LEVELS):
        points = lo[:, None, :] + uu[None, :, :] * width[:, None, :]
        vals = conditional_entropy(rho, points[..., 0], points[..., 1])
        k = np.argmin(vals, axis=1)
        best = np.minimum(best, vals[np.arange(count), k])
        step = width / (SCAN_GRID - 1)
        centre = points[np.arange(count), k]
        lo = centre - step
        lo[:, 0] = np.clip(lo[:, 0], 0.0, math.pi)
        width = 2.0 * step
    return mutual_information(rho) - entropy(marginal_a(rho)) + best


# --------------------------------------------------------------------------
# features of the decay curves

GAPS = {
    "p_sc": ("Q1-Q2", "z"),
    "p_cr1": ("Q2-I/2",),
    "p_cr2": ("Q1-I/2",),
}


def gap_values(rho0: np.ndarray, channel: str, p: np.ndarray) -> dict[str, np.ndarray]:
    """Reference gap functions whose sign changes define the features."""
    v = branch_values(evolve(rho0, channel, np.asarray(p, dtype=float)))
    return {
        "Q1-Q2": v["Q1"] - v["Q2"],
        "z": v["z"],
        "Q2-I/2": v["Q2"] - 0.5 * v["I"],
        "Q1-I/2": v["Q1"] - 0.5 * v["I"],
    }


def sign_change_near(rho0, channel, gap, p0, width=0.02, tol=1e-12):
    """Root of one gap function nearest p0, refined to tol; None if none in reach."""
    lo, hi = max(0.0, p0 - width), min(1.0, p0 + width)
    grid = np.linspace(lo, hi, 65)
    for _ in range(60):
        vals = gap_values(rho0, channel, grid)[gap]
        cells = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]
        if cells.size == 0:
            return None
        k = cells[np.argmin(np.abs(0.5 * (grid[cells] + grid[cells + 1]) - p0))]
        if grid[k + 1] - grid[k] <= tol:
            return 0.5 * float(grid[k] + grid[k + 1])
        grid = np.linspace(grid[k], grid[k + 1], 17)
    return 0.5 * float(grid[0] + grid[-1])
