import math

import numpy as np
import pytest

from glbopt import (
    LinearGlbProblem,
    brute_force_max,
    dominant_diagonal_problem,
    precondition,
    reference_solve,
    sample_feasible_points,
    selective_update_linear,
    verify_epsilon_solution,
)
from glbopt.bench import SweepConfig, make_instance

from suite_helpers import exact_residual, make_random_problem


class TestReferenceSolve:
    def test_two_var_certified(self, two_var):
        res = reference_solve(two_var)
        assert res.certified
        assert np.allclose(res.x_star, [2.0, 2.0], atol=1e-12)
        assert res.residual <= 1e-12

    def test_zero_offsets_certify_origin(self):
        p = make_random_problem(seed=31, n=12, L=2, gamma=0.8)
        zeroed = LinearGlbProblem([(A, np.zeros(p.n)) for A, _ in p.pieces], U=p.U, a=p.a)
        res = reference_solve(zeroed)
        assert res.certified
        assert np.allclose(res.x_star, 0.0, atol=1e-12)

    def test_expansive_instance_is_not_certified(self):
        p = LinearGlbProblem([(np.array([[0.0, 1.5], [1.5, 0.0]]), np.ones(2))], U=[4.0, 4.0])
        res = reference_solve(p)
        assert not res.certified

    def test_agrees_with_plain_full_sweeps(self):
        p = make_random_problem(seed=33, n=18, L=3, gamma=0.75)
        res = reference_solve(p)
        assert res.certified
        x = p.U.copy()
        for _ in range(3000):
            x_new = p.glb_eval(x)
            if np.max(np.abs(x - x_new)) <= 1e-14:
                x = x_new
                break
            x = x_new
        assert float(np.max(np.abs(res.x_star - x))) <= 2e-12


class TestVerifyEpsilonSolution:
    def test_oracle_output_verifies(self, two_var):
        res = reference_solve(two_var)
        assert verify_epsilon_solution(two_var, res.x_star, 1e-9)

    def test_cap_start_fails_when_offsets_small(self, two_var):
        assert not verify_epsilon_solution(two_var, two_var.U, 1e-3)

    def test_matches_direct_residual_computation(self, two_var):
        x = np.array([2.0, 2.0]) - 1e-7
        direct = float(np.max(np.abs(x - two_var.glb_eval(x))))
        assert verify_epsilon_solution(two_var, x, direct + 1e-15)
        assert not verify_epsilon_solution(two_var, x, direct / 2.0)

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((1, 2)), 2.0])
    def test_wrong_shape_fails(self, two_var, x):
        assert not verify_epsilon_solution(two_var, x, 1e3)

    def test_lower_bound_violation_fails(self, two_var):
        shifted = LinearGlbProblem(
            [(A, b) for A, b in two_var.pieces], U=two_var.U, a=np.array([3.0, 3.0])
        )
        assert not verify_epsilon_solution(shifted, np.array([2.0, 2.0]), 1e-6)


class TestBruteForce:
    def test_two_var_grid_join(self, two_var):
        top = brute_force_max(two_var, 0.01)
        assert top is not None
        assert np.allclose(top, [2.0, 2.0], atol=0.011)

    def test_infeasible_box_returns_none(self, two_var):
        shifted = LinearGlbProblem(
            [(A, b) for A, b in two_var.pieces], U=two_var.U, a=np.array([3.0, 3.0])
        )
        assert brute_force_max(shifted, 0.05) is None

    def test_whole_box_feasible_returns_cap(self):
        p = LinearGlbProblem([], U=[0.4, 0.2])
        top = brute_force_max(p, 0.1)
        assert np.allclose(top, [0.4, 0.2], atol=1e-12)

    def test_returned_join_is_itself_feasible(self, two_var):
        top = brute_force_max(two_var, 0.01)
        assert np.all(top <= two_var.glb_eval(top))

    def test_pairwise_joins_of_feasible_grid_points_are_feasible(self):
        A = np.array([[0.0, 0.4], [0.3, 0.0]])
        p = LinearGlbProblem([(A, np.array([0.05, 0.08]))], U=[0.3, 0.3])
        step = 0.01
        axes = [p.a[i] + step * np.arange(int((p.U[i] - p.a[i]) / step) + 1) for i in range(2)]
        grid = np.array([[u, v] for u in axes[0] for v in axes[1]])
        feasible = grid[np.all(grid <= p.glb_eval_batch(grid), axis=1)]
        assert len(feasible) > 10
        rng = np.random.default_rng(0)
        picks = rng.integers(len(feasible), size=(200, 2))
        joins = np.maximum(feasible[picks[:, 0]], feasible[picks[:, 1]])
        assert np.all(joins <= p.glb_eval_batch(joins))

    def test_refuses_high_dimensions(self):
        p = LinearGlbProblem([], U=np.ones(4))
        with pytest.raises(ValueError, match="n <= 3"):
            brute_force_max(p, 0.1)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan])
    def test_grid_step_not_positive_rejected(self, two_var, step):
        with pytest.raises(ValueError, match=f"grid step must be positive, got {step}"):
            brute_force_max(two_var, step)

    def test_agreement_with_reference_on_snapped_instance(self):
        # b chosen so the fixed point lies on the grid: x+ = (0.1, 0.08)
        A = np.array([[0.0, 0.5], [0.25, 0.0]])
        target = np.array([0.1, 0.08])
        b = target - A @ target
        p = LinearGlbProblem([(A, b)], U=[0.2, 0.2])
        res = reference_solve(p)
        top = brute_force_max(p, 1e-3)
        assert float(np.max(np.abs(res.x_star - top))) <= 1e-3 + 1e-8


class TestFeasibleSampling:
    def test_samples_are_exactly_feasible_and_join_closed(self):
        p = make_random_problem(seed=41, n=10, L=2, gamma=0.8)
        pts = sample_feasible_points(p, 60, seed=1)
        ge = p.glb_eval_batch(pts)
        assert np.all(pts <= ge)
        assert np.all(pts >= p.a)
        joins = np.maximum(pts[:30], pts[30:])
        assert np.all(joins <= p.glb_eval_batch(joins))

    def test_rejects_expansive_maps(self):
        p = LinearGlbProblem([(np.array([[0.0, 2.0], [2.0, 0.0]]), np.ones(2))], U=[4.0, 4.0])
        with pytest.raises(ValueError, match="contraction"):
            sample_feasible_points(p, 5, seed=0)

    def test_deterministic(self, two_var):
        a = sample_feasible_points(two_var, 10, seed=3)
        b = sample_feasible_points(two_var, 10, seed=3)
        assert np.array_equal(a, b)


def test_preconditioned_residual_agrees_at_oracle(two_var):
    res = reference_solve(two_var)
    hat = precondition(two_var)
    assert float(np.max(np.abs(res.x_star - hat.glb_eval(res.x_star)))) <= 2e-12


class TestExactResidual:
    """The exact rational residual of ``suite_helpers`` against the float one."""

    @pytest.mark.parametrize("family", ["ba", "nws", "hk", "speedplan", "hjb", "dominant"])
    def test_agrees_with_float_residual(self, family):
        if family == "dominant":
            p = dominant_diagonal_problem(300, 2, gamma=0.9, delta=0.3, seed=5)
        else:
            p = make_instance(SweepConfig(family=family), 300, seed=1)
        for x in (selective_update_linear(p, eps=1e-6).x, p.U):
            direct = float(np.max(np.abs(x - p.glb_eval(x))))
            tol = 1e-14 * max(1.0, float(np.max(np.abs(x))))
            assert abs(float(exact_residual(p, x)) - direct) <= tol

    def test_catches_a_dropped_piece(self):
        p = make_instance(SweepConfig(family="ba"), 300, seed=1)
        dropped = LinearGlbProblem(p.pieces[:-1], U=p.U, a=p.a)
        x = selective_update_linear(dropped, eps=1e-9).x
        assert exact_residual(p, x) > 1e-9
