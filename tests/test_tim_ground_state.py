import math

import numpy as np
import pytest

from oracles import (
    cofactor_determinant,
    fixed_grid_g_coefficient,
    mpmath_g_coefficient,
    simpson_fixed_grid,
)
from timcorr.correlations import InvalidXStateError, spectrum
from timcorr.numerics import QuadratureError, QuadratureSpec
from timcorr.tim_ground_state import (
    GroundStateCorrelators,
    ModelParams,
    correlators,
    dispersion,
    g_coefficient,
    magnetization,
    reduced_density,
)

LAMBDA_GRID = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]

# Frozen from the fixed-grid Simpson oracle at 2**20 points, lambda = 0.5.
SZ_HALF = -0.9342154576676939
G_HALF = {
    -2: -0.03347205359255756,
    -1: 0.2586579046113417,
    0: 0.9342154576676939,
    1: -0.225185851018784,
    2: 0.08337992968900211,
}
X_HALF = dict(
    a=0.01564342659562787,
    b=0.017248844570525196,
    d=0.9498588842633218,
    z=0.008368013398139425,
    f=0.12096093890753143,
)
R2_HALF = dict(
    cxx=0.09817402148397868,
    cyy=-0.027186151675657272,
    czz=0.8755494188203528,
)


class TestDispersion:
    def test_field_only_limit(self):
        for phi in (0.0, 1.0, math.pi):
            assert dispersion(0.0, phi) == 1.0

    def test_gap_closes_at_critical_point(self):
        assert dispersion(1.0, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_direct_substitution(self):
        assert dispersion(0.5, math.pi / 2) == pytest.approx(math.sqrt(1.25), abs=1e-15)


class TestMagnetization:
    def test_zero_coupling(self):
        assert magnetization(0.0) == pytest.approx(-1.0, abs=1e-10)

    def test_critical_coupling_closed_form(self):
        assert magnetization(1.0) == pytest.approx(-2.0 / math.pi, abs=1e-9)

    def test_half_coupling_matches_fixed_grid_oracle(self):
        def weight(phi):
            num = 1.0 + 0.5 * np.cos(phi)
            return num / np.sqrt((0.5 * np.sin(phi)) ** 2 + num * num)

        oracle = -simpson_fixed_grid(weight, 0.0, math.pi) / math.pi
        assert oracle == pytest.approx(SZ_HALF, abs=1e-12)
        assert magnetization(0.5) == pytest.approx(SZ_HALF, abs=1e-9)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            magnetization(-0.1)


class TestGCoefficient:
    def test_zero_coupling_r0(self):
        assert g_coefficient(0.0, 0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("r", [-2, -1, 1, 2, 3])
    def test_zero_coupling_nonzero_r(self, r):
        assert g_coefficient(0.0, r) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("r", sorted(G_HALF))
    def test_half_coupling_matches_frozen_oracle(self, r):
        assert g_coefficient(0.5, r) == pytest.approx(G_HALF[r], abs=1e-9)

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_g0_equals_minus_magnetization(self, lam):
        assert g_coefficient(lam, 0) == pytest.approx(-magnetization(lam), abs=1e-9)

    @pytest.mark.parametrize("lam", [0.99, 0.999, 1.01])
    @pytest.mark.parametrize("r", [32, 40, 48, 64])
    def test_far_coefficients_match_fixed_grid_oracle(self, lam, r):
        assert abs(g_coefficient(lam, r) - fixed_grid_g_coefficient(lam, r)) <= 1e-12

    @pytest.mark.parametrize("lam", [0.3, 0.9, 0.999, 1.0, 1.3])
    @pytest.mark.parametrize("r", [-3, -1, 0, 1, 2, 20])
    def test_matches_mpmath_oracle(self, lam, r):
        assert abs(g_coefficient(lam, r) - mpmath_g_coefficient(lam, r)) <= 1e-14

    @pytest.mark.parametrize("lam", [0.3, 0.9, 0.999, 1.0, 1.3])
    def test_magnetization_matches_mpmath_oracle(self, lam):
        assert abs(magnetization(lam) + mpmath_g_coefficient(lam, 0)) <= 1e-14

    def test_exhausted_doubling_budget_raises(self):
        spec = QuadratureSpec(abs_tol=1e-12, max_refinements=3)
        with pytest.raises(QuadratureError) as excinfo:
            g_coefficient(0.999, 1, spec)
        assert excinfo.value.points == 64 * 2**3
        assert excinfo.value.error_bound > spec.abs_tol

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
    def test_rejects_bad_coupling(self, lam):
        with pytest.raises(ValueError, match="finite and non-negative"):
            g_coefficient(lam, 1)


class TestCorrelators:
    def test_zero_coupling_nearest_neighbor(self):
        c = correlators(ModelParams(0.0, 1))
        assert c.sz == pytest.approx(-1.0, abs=1e-9)
        assert c.cxx == pytest.approx(0.0, abs=1e-9)
        assert c.cyy == pytest.approx(0.0, abs=1e-9)
        assert c.czz == pytest.approx(1.0, abs=1e-9)

    def test_half_coupling_nearest_neighbor(self):
        c = correlators(ModelParams(0.5, 1))
        assert c.cxx == pytest.approx(G_HALF[-1], abs=1e-9)
        assert c.cyy == pytest.approx(G_HALF[1], abs=1e-9)
        assert c.czz == pytest.approx(
            SZ_HALF**2 - G_HALF[1] * G_HALF[-1], abs=1e-9
        )

    def test_half_coupling_next_nearest(self):
        c = correlators(ModelParams(0.5, 2))
        assert c.cxx == pytest.approx(R2_HALF["cxx"], abs=1e-9)
        assert c.cyy == pytest.approx(R2_HALF["cyy"], abs=1e-9)
        assert c.czz == pytest.approx(R2_HALF["czz"], abs=1e-9)

    def test_next_nearest_determinant_matches_cofactor_oracle(self):
        g = {k: g_coefficient(0.5, k) for k in range(-2, 3)}
        cxx_oracle = cofactor_determinant(
            [[g[i - j - 1] for j in range(2)] for i in range(2)]
        )
        assert correlators(ModelParams(0.5, 2)).cxx == pytest.approx(
            cxx_oracle, abs=1e-12
        )

    def test_nearest_neighbor_determinants_are_bare_coefficients(self):
        spec = QuadratureSpec()
        c = correlators(ModelParams(0.5, 1), spec)
        assert c.cxx == g_coefficient(0.5, -1, spec)
        assert c.cyy == g_coefficient(0.5, 1, spec)

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_correlators_bounded(self, lam, r):
        c = correlators(ModelParams(lam, r))
        for value in (c.cxx, c.cyy, c.czz, c.sz):
            assert abs(value) <= 1.0 + 1e-12

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(-0.5)
        with pytest.raises(ValueError):
            ModelParams(math.nan)
        with pytest.raises(ValueError):
            ModelParams(math.inf)
        with pytest.raises(ValueError):
            ModelParams(0.5, 0)


class TestReducedDensity:
    def test_zero_coupling_corner_state(self):
        s = reduced_density(ModelParams(0.0, 1))
        assert s.a == pytest.approx(0.0, abs=1e-9)
        assert s.b == pytest.approx(0.0, abs=1e-9)
        assert s.d == pytest.approx(1.0, abs=1e-9)
        assert s.z == pytest.approx(0.0, abs=1e-9)
        assert s.f == pytest.approx(0.0, abs=1e-9)

    def test_half_coupling_matches_frozen_oracle(self):
        s = reduced_density(ModelParams(0.5, 1))
        for name, expected in X_HALF.items():
            assert getattr(s, name) == pytest.approx(expected, abs=1e-9), name

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_trace_identity(self, lam):
        s = reduced_density(ModelParams(lam, 1))
        assert s.a + s.d + 2.0 * s.b == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_spectrum_physical_across_grid(self, lam, r):
        lams = spectrum(reduced_density(ModelParams(lam, r))).as_list()
        assert min(lams) >= -1e-9
        assert sum(lams) == pytest.approx(1.0, abs=1e-9)
