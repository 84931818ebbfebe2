"""Independent brute-force oracles used to pin expected values in tests.

Nothing here shares code paths with the package: Simpson on a fixed grid
and mpmath quadrature instead of the FFT of the ground-state symbol,
recursive cofactor expansion instead of elimination, and dense
eigendecompositions instead of the closed-form X-state spectrum.
"""

import math

import mpmath
import numpy as np


def simpson_fixed_grid(f, a, b, n=2**20):
    """Composite Simpson on a fixed grid of n subintervals (n even)."""
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def fixed_grid_g_coefficient(lam, r):
    """G_r = (1/pi) int_0^pi (cos r phi + lam cos (r+1) phi) / omega_phi dphi."""

    def integrand(phi):
        omega = np.hypot(lam * np.sin(phi), 1.0 + lam * np.cos(phi))
        return (np.cos(r * phi) + lam * np.cos((r + 1) * phi)) / omega

    return simpson_fixed_grid(integrand, 0.0, math.pi) / math.pi


def mpmath_g_coefficient(lam, r):
    """The same G_r integral by tanh-sinh quadrature at 30 digits.

    The interval is split just before pi, where the integrand peaks as the
    gap 1 - lam closes.
    """
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)

        def integrand(phi):
            omega = mpmath.sqrt(
                (lam * mpmath.sin(phi)) ** 2 + (1 + lam * mpmath.cos(phi)) ** 2
            )
            return (mpmath.cos(r * phi) + lam * mpmath.cos((r + 1) * phi)) / omega

        pi = mpmath.pi
        nodes = [0, pi / 2, pi - mpmath.mpf("0.01"), pi]
        return float(mpmath.quad(integrand, nodes) / pi)


def cofactor_determinant(m):
    """Determinant by recursive expansion along the first row."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * float(m[0, j]) * cofactor_determinant(minor)
    return total


def eigenvalue_entropy_bits(matrix):
    """Von Neumann entropy in bits from a dense eigendecomposition."""
    vals = np.linalg.eigvalsh(matrix)
    vals = vals[vals > 1e-12]
    return float(-(vals * np.log2(vals)).sum())


def partial_trace_first(rho4):
    """Trace out the first qubit of a 4x4 two-qubit matrix."""
    r = np.asarray(rho4).reshape(2, 2, 2, 2)
    return np.einsum("ijik->jk", r)


def partial_trace_second(rho4):
    """Trace out the second qubit of a 4x4 two-qubit matrix."""
    r = np.asarray(rho4).reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", r)


def mutual_information_direct(rho4):
    """S(A) + S(B) - S(AB) evaluated entirely through eigendecompositions."""
    s_a = eigenvalue_entropy_bits(partial_trace_second(rho4))
    s_b = eigenvalue_entropy_bits(partial_trace_first(rho4))
    return s_a + s_b - eigenvalue_entropy_bits(rho4)
