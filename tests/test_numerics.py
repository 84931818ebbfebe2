import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cofactor_determinant
from timcorr.channels import ChannelKind, evolve_pair, project_xstate
from timcorr.correlations import branch_values, mutual_information
from timcorr.numerics import (
    BracketError,
    QuadratureSpec,
    RootBracket,
    central_difference,
    determinant,
    find_root,
)
from timcorr.tim_ground_state import g_coefficient


class TestQuadratureSpec:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinements=0)


class TestDeterminant:
    def test_one_by_one(self):
        assert determinant([[3.5]]) == 3.5

    def test_identity(self):
        assert determinant(np.eye(2)) == 1.0

    def test_singular_returns_zero(self):
        assert determinant([[1.0, 2.0], [2.0, 4.0]]) == 0.0

    def test_toeplitz_matches_cofactor_expansion(self):
        g = {k: g_coefficient(0.5, k) for k in range(-3, 2)}
        m = [[g[i - j - 1] for j in range(3)] for i in range(3)]
        assert determinant(m) == pytest.approx(cofactor_determinant(m), abs=1e-14)

    @given(st.lists(st.floats(-1, 1), min_size=18, max_size=18))
    def test_multiplicative(self, flat):
        a = np.array(flat[:9]).reshape(3, 3)
        b = np.array(flat[9:]).reshape(3, 3)
        assert determinant(a @ b) == pytest.approx(
            determinant(a) * determinant(b), abs=1e-10
        )

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            determinant(np.ones((2, 3)))


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 0.5, RootBracket(0.0, 1.0)) == pytest.approx(
            0.5, abs=1e-8
        )

    def test_square_root_of_two(self):
        bracket = RootBracket(1.0, 2.0, tol=1e-10)
        root = find_root(lambda x: x * x - 2.0, bracket)
        assert abs(root - math.sqrt(2.0)) <= bracket.tol

    def test_rejects_bracket_without_sign_change(self):
        with pytest.raises(BracketError, match=r"\[0\.0, 1\.0\]"):
            find_root(lambda x: x + 1.0, RootBracket(0.0, 1.0))

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            RootBracket(1.0, 0.0)
        with pytest.raises(ValueError):
            RootBracket(0.0, 1.0, tol=0.0)

    def test_first_crossing_of_phase_flip_sweep(self, ground_half):
        def gap(p):
            s = project_xstate(evolve_pair(ground_half, ChannelKind.PHASE_FLIP, p))
            return branch_values(s)[1] - 0.5 * mutual_information(s)

        root = find_root(gap, RootBracket(0.0, 0.13, tol=1e-8))
        assert root == pytest.approx(0.0932, abs=2e-3)


class TestCentralDifference:
    def test_quadratic(self):
        value = central_difference(lambda x: x * x, 1.0, 1e-3)
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_constant(self):
        assert central_difference(lambda x: 4.25, 0.3, 1e-3) == 0.0

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        c=st.floats(-5, 5),
        x=st.floats(-2, 2),
    )
    def test_exact_on_quadratics(self, a, b, c, x):
        value = central_difference(lambda t: a * t * t + b * t + c, x, 0.125)
        assert value == pytest.approx(2.0 * a * x + b, rel=1e-9, abs=1e-9)

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            central_difference(lambda x: x, 0.0, 0.0)
