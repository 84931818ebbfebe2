import math

import numpy as np
import pytest

from timcorr import criticality
from timcorr.channels import ChannelKind, evolve_pair, project_xstate
from timcorr.correlations import (
    Branch,
    branch_values,
    discord,
    mutual_information,
    single_qubit_entropy,
)
from timcorr.criticality import (
    CriticalSignature,
    Quantity,
    critical_signature,
    derivative_scan,
    find_crossings,
    find_p_sc,
    sweep_lambda,
    sweep_p,
)
from timcorr.numerics import QuadratureSpec

NEAR_CRITICAL_GRID = [0.90, 0.95, 0.99]


def _breakdown(ground, kind, p):
    return discord(project_xstate(evolve_pair(ground, kind, p)))


class TestSweepP:
    def test_amplitude_damping_kills_all_correlations(self):
        rows = sweep_p(0.5, ChannelKind.AMPLITUDE_DAMPING, [0.0, 0.5, 1.0])
        last = rows[-1]
        assert abs(last.mutual) < 1e-9
        assert abs(last.classical) < 1e-9
        assert abs(last.quantum) < 1e-9

    def test_bit_flip_leaves_classical_remainder(self):
        row = sweep_p(0.5, ChannelKind.BIT_FLIP, [1.0])[0]
        assert row.quantum < 1e-6
        assert row.mutual == pytest.approx(row.classical, abs=1e-9)
        assert row.classical > 0.0

    def test_phase_flip_classical_constant_after_sudden_change(self):
        rows = sweep_p(0.5, ChannelKind.PHASE_FLIP, np.linspace(0.15, 1.0, 18))
        values = [r.classical for r in rows]
        assert max(values) - min(values) < 1e-8

    def test_same_initial_point_for_every_channel(self):
        first = {k: sweep_p(0.5, k, [0.0])[0] for k in ChannelKind}
        mutuals = {r.mutual for r in first.values()}
        assert max(mutuals) - min(mutuals) < 1e-12

    def test_rows_satisfy_additivity(self):
        for row in sweep_p(0.5, ChannelKind.PHASE_FLIP, np.linspace(0.0, 1.0, 9)):
            assert row.mutual == pytest.approx(
                row.classical + row.quantum, abs=1e-9
            )


class TestFindPSc:
    def test_phase_flip_value(self, pf_signature_half):
        assert pf_signature_half.p_sc == pytest.approx(0.1347, abs=2e-3)

    def test_bit_phase_flip_value(self, bpf_p_sc_half):
        assert bpf_p_sc_half == pytest.approx(0.0666, abs=2e-3)

    def test_channels_without_sudden_change(self):
        assert find_p_sc(0.5, ChannelKind.AMPLITUDE_DAMPING) is None
        assert find_p_sc(0.5, ChannelKind.BIT_FLIP) is None

    def test_branch_switches_across_p_sc(self, ground_half, pf_signature_half):
        p_sc = pf_signature_half.p_sc
        before = _breakdown(ground_half, ChannelKind.PHASE_FLIP, p_sc - 0.01)
        after = _breakdown(ground_half, ChannelKind.PHASE_FLIP, p_sc + 0.01)
        assert before.branch is Branch.Q2
        assert after.branch is Branch.Q1

    def test_quantum_branch_continuous_at_p_sc(self, ground_half, pf_signature_half):
        s = project_xstate(
            evolve_pair(ground_half, ChannelKind.PHASE_FLIP, pf_signature_half.p_sc)
        )
        q1, q2 = branch_values(s)
        assert abs(q1 - q2) < 1e-6

    def test_classical_curve_kinks_at_p_sc(self, ground_half, pf_signature_half):
        # p_sc is defined by the two-branch curve I - min(Q1, Q2): continuity
        # in value but a jump in the one-sided slopes.  The exact classical
        # share is smooth there, its optimum passing through interior angles.
        p_sc = pf_signature_half.p_sc
        eps = 1e-5

        def c(p):
            s = project_xstate(evolve_pair(ground_half, ChannelKind.PHASE_FLIP, p))
            return mutual_information(s) - min(branch_values(s))

        left, mid, right = c(p_sc - eps), c(p_sc), c(p_sc + eps)
        assert abs(left - right) < 1e-5
        slope_left = (mid - left) / eps
        slope_right = (right - mid) / eps
        assert abs(slope_left - slope_right) > 10.0 * 1e-5

    def test_classical_constant_matches_diagonal_closed_form(
        self, ground_half, pf_signature_half
    ):
        # beyond p_sc the classical share depends only on the diagonal,
        # which the phase flip freezes
        a, b, d = ground_half.a, ground_half.b, ground_half.d
        expected = single_qubit_entropy(ground_half)
        for x, y in ((a, a + b), (b, a + b), (d, d + b), (b, d + b)):
            expected += x * math.log2(x / y)
        for p in (pf_signature_half.p_sc + 0.05, 0.5, 0.9, 1.0):
            c = _breakdown(ground_half, ChannelKind.PHASE_FLIP, p).classical
            assert c == pytest.approx(expected, abs=1e-8)


class TestFindCrossings:
    def test_values_at_half_coupling(self, pf_signature_half):
        assert pf_signature_half.p_cr1 == pytest.approx(0.0932, abs=2e-3)
        assert pf_signature_half.p_cr2 == pytest.approx(0.1649, abs=2e-3)

    def test_standalone_invocation(self):
        p_cr1, p_cr2 = find_crossings(0.5)
        assert p_cr1 == pytest.approx(0.0932, abs=2e-3)
        assert p_cr2 == pytest.approx(0.1649, abs=2e-3)

    def test_equality_of_shares_at_crossings(self, ground_half, pf_signature_half):
        for p in (pf_signature_half.p_cr1, pf_signature_half.p_cr2):
            b = _breakdown(ground_half, ChannelKind.PHASE_FLIP, p)
            assert abs(b.classical - b.quantum) < 1e-6
            assert abs(b.classical - 0.5 * b.mutual) < 1e-6

    def test_quantum_dominates_between_crossings(self, ground_half, pf_signature_half):
        midpoint = 0.5 * (pf_signature_half.p_cr1 + pf_signature_half.p_cr2)
        b = _breakdown(ground_half, ChannelKind.PHASE_FLIP, midpoint)
        assert b.quantum > b.classical

    def test_ordering(self, pf_signature_half):
        sig = pf_signature_half
        assert sig.p_cr1 < sig.p_sc < sig.p_cr2
        assert sig.delta_p_cr == pytest.approx(sig.p_cr2 - sig.p_cr1, abs=1e-15)


class TestBitPhaseFlipTouch:
    def test_curves_touch_without_crossing(self, ground_half, bpf_p_sc_half):
        gap = lambda p: (
            lambda b: b.classical - b.quantum
        )(_breakdown(ground_half, ChannelKind.BIT_PHASE_FLIP, p))
        at_touch = gap(bpf_p_sc_half)
        assert abs(at_touch) < 1e-6
        left = [gap(bpf_p_sc_half - d) for d in (0.005, 0.01, 0.05)]
        right = [gap(bpf_p_sc_half + d) for d in (0.005, 0.01, 0.05, 0.2)]
        assert all(v > 0.0 for v in left + right)

    def test_touch_point_minimizes_the_gap(self, ground_half, bpf_p_sc_half):
        gap = lambda p: (
            lambda b: abs(b.classical - b.quantum)
        )(_breakdown(ground_half, ChannelKind.BIT_PHASE_FLIP, p))
        grid = np.linspace(0.005, 0.995, 199)
        values = [gap(float(p)) for p in grid]
        assert abs(float(grid[int(np.argmin(values))]) - bpf_p_sc_half) < 6e-3


class TestSweepLambda:
    def test_single_point_matches_caption_values(self):
        (sig,) = sweep_lambda([0.5], ChannelKind.PHASE_FLIP)
        assert sig.p_cr1 == pytest.approx(0.0932, abs=2e-3)
        assert sig.p_sc == pytest.approx(0.1347, abs=2e-3)
        assert sig.p_cr2 == pytest.approx(0.1649, abs=2e-3)

    def test_gap_width_shrinks_toward_critical_coupling(self):
        sigs = sweep_lambda(NEAR_CRITICAL_GRID, ChannelKind.PHASE_FLIP)
        widths = [s.delta_p_cr for s in sigs]
        assert all(w is not None for w in widths)
        assert widths[0] > widths[1] > widths[2]
        for s in sigs:
            assert s.p_cr1 < s.p_sc < s.p_cr2

    def test_absent_features_reported_not_raised(self):
        (sig,) = sweep_lambda([0.5], ChannelKind.AMPLITUDE_DAMPING)
        assert sig == CriticalSignature(0.5, None, None, None, None)


class TestDerivativeScan:
    def test_constant_quantity_has_zero_derivative(self, monkeypatch):
        def stub(lambda_, kind, tol=1e-8, *, quad_spec=None, pair_distance=1):
            return CriticalSignature(lambda_, 0.25, None, None, None)

        monkeypatch.setattr(criticality, "critical_signature", stub)
        estimates = derivative_scan(
            Quantity.P_SC, [0.3, 0.6], 1e-3, ChannelKind.PHASE_FLIP
        )
        assert [e.value for e in estimates] == [0.0, 0.0]

    def test_step_halving_consistency(self):
        coarse = derivative_scan(Quantity.P_SC, [0.5], 1e-3, ChannelKind.PHASE_FLIP)
        fine = derivative_scan(Quantity.P_SC, [0.5], 1e-4, ChannelKind.PHASE_FLIP)
        assert coarse[0].value == pytest.approx(fine[0].value, rel=1e-3)

    def test_absent_quantity_skipped(self):
        estimates = derivative_scan(
            Quantity.P_CR1, [0.5], 1e-3, ChannelKind.BIT_PHASE_FLIP
        )
        assert estimates == []

    def test_step_clamped_near_endpoints(self):
        cache = {}
        estimates = derivative_scan(
            Quantity.P_SC,
            [0.999],
            1e-2,
            ChannelKind.PHASE_FLIP,
            cache=cache,
        )
        assert len(estimates) == 1
        assert estimates[0].step <= 0.5 * (1.0 - 0.999) + 1e-15

    def test_rejects_grid_outside_open_interval(self):
        with pytest.raises(ValueError):
            derivative_scan(Quantity.P_SC, [1.0], 1e-3, ChannelKind.PHASE_FLIP)

    def test_cache_shared_between_quantities(self):
        cache = {}
        derivative_scan(
            Quantity.P_CR1, [0.5], 1e-3, ChannelKind.PHASE_FLIP, cache=cache
        )
        assert len(cache) == 2
        derivative_scan(
            Quantity.P_CR2, [0.5], 1e-3, ChannelKind.PHASE_FLIP, cache=cache
        )
        assert len(cache) == 2

    def test_cache_keyed_by_tolerances(self):
        def scan(**kwargs):
            return derivative_scan(
                Quantity.P_SC, [0.5], 1e-3, ChannelKind.PHASE_FLIP, **kwargs
            )

        cache = {}
        scan(tol=1e-8, cache=cache)
        assert scan(tol=1e-2, cache=cache) == scan(tol=1e-2)
        scan(tol=1e-2, quad_spec=QuadratureSpec(abs_tol=1e-6), cache=cache)
        assert len(cache) == 6
