"""Scalar numerical kernels shared by the model and sweep modules.

Small dense determinants by pivoted elimination, bracketed bisection,
central finite differences, and the tolerance and doubling budget
(`QuadratureSpec`) of the ground state's trapezoid sums.  Everything here
is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "RootBracket",
    "QuadratureError",
    "BracketError",
    "determinant",
    "find_root",
    "central_difference",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Convergence tolerance and doubling budget of a trapezoid sum.

    The grid doubles until two successive grids agree within `abs_tol`.
    `max_refinements` bounds the grid at 64 * 2**max_refinements points
    (2**22 by default).
    """

    abs_tol: float = 1e-10
    max_refinements: int = 16

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_refinements < 1:
            raise ValueError(
                f"max_refinements must be at least 1, got {self.max_refinements}"
            )


@dataclass(frozen=True)
class RootBracket:
    """Interval [lo, hi] expected to straddle a sign change of the target."""

    lo: float
    hi: float
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


class QuadratureError(RuntimeError):
    """Grid doubling exhausted its budget before meeting the tolerance.

    Carries the largest grid the budget allows (`points`) and how far the
    last two grids' sums differed (`error_bound`).
    """

    def __init__(self, points: int, error_bound: float, spec: QuadratureSpec):
        self.points = points
        self.error_bound = error_bound
        super().__init__(
            f"trapezoid sums did not converge on grids of up to {points} points: "
            f"successive grids differ by {error_bound:.3g}, "
            f"abs_tol={spec.abs_tol:.3g}"
        )


class BracketError(ValueError):
    """The supplied bracket does not contain a sign change."""


def determinant(m) -> float:
    """Determinant of a square real matrix by elimination with partial pivoting.

    Singular matrices legitimately return 0.  Intended for the small Toeplitz
    matrices of the pair correlators; no attempt is made at large-n efficiency.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    sign = 1.0
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if a[pivot, k] == 0.0:
            return 0.0
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            sign = -sign
        for i in range(k + 1, n):
            a[i, k:] -= (a[i, k] / a[k, k]) * a[k, k:]
    return sign * float(np.prod(np.diag(a)))


def find_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Bisect a bracketed sign change down to width ``bracket.tol``.

    Raises
    ------
    BracketError
        If f does not change sign between the bracket endpoints.
    """
    lo, hi = float(bracket.lo), float(bracket.hi)
    f_lo, f_hi = float(f(lo)), float(f(hi))
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g}"
        )
    while hi - lo > bracket.tol:
        mid = 0.5 * (lo + hi)
        f_mid = float(f(mid))
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def central_difference(f: Callable[[float], float], x: float, h: float) -> float:
    """Symmetric difference quotient (f(x+h) - f(x-h)) / (2h).

    Exact for polynomials of degree two or less; evaluation failures at
    either abscissa propagate to the caller.
    """
    if not h > 0.0:
        raise ValueError(f"step h must be positive, got {h}")
    return (float(f(x + h)) - float(f(x - h))) / (2.0 * h)
