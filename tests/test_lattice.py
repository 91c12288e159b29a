import math
import re

import numpy as np
import pytest

from glbopt import (
    InvalidMapError,
    MonotoneMap,
    NonConvergenceError,
    OpCounter,
    StartPointError,
    build_dependency_graph,
    error_bound,
    fixed_point_solve,
    residual,
    selective_update_linear,
    selective_update_solve,
)
from glbopt.queues import POLICIES


def map_from_dependencies(deps, n=None):
    n = n if n is not None else len(deps)
    return MonotoneMap(
        n=n,
        eval_component=lambda i, x: 0.0,
        dependencies=lambda i: deps[i],
        cap=np.ones(n),
    )


def two_var_map(counter=None, a=(0.0, 0.0)):
    """g(x) = (min(0.5 x2 + 1, 10), min(0.5 x1 + 1, 10)); fixed point (2, 2)."""

    def component(i, x):
        if counter is not None:
            counter.multiplications += 1
        return min(0.5 * x[1 - i] + 1.0, 10.0)

    return MonotoneMap(
        n=2,
        eval_component=component,
        dependencies=lambda i: [1 - i],
        cap=np.array([10.0, 10.0]),
        contraction_rate=0.5,
        lower_bound=np.array(a),
    )


class TestDependencyGraph:
    def test_worked_three_variable_example(self):
        # g_1 reads {2, 3}, g_2 reads {1}, g_3 reads {1, 2}  (1-based as written)
        graph = build_dependency_graph(map_from_dependencies({0: [1, 2], 1: [0], 2: [0, 1]}))
        assert graph == ((1, 2), (0, 2), (0,))

    def test_decoupled_maps_have_empty_neighborhoods(self):
        graph = build_dependency_graph(map_from_dependencies({0: [], 1: [], 2: []}))
        assert graph == ((), (), ())

    def test_complete_dependencies(self):
        n = 4
        deps = {i: [j for j in range(n) if j != i] for i in range(n)}
        graph = build_dependency_graph(map_from_dependencies(deps))
        for i in range(n):
            assert graph[i] == tuple(j for j in range(n) if j != i)

    def test_self_dependency_is_invalid(self):
        with pytest.raises(InvalidMapError, match="own variable"):
            build_dependency_graph(map_from_dependencies({0: [0], 1: []}))

    def test_out_of_range_dependency_is_invalid(self):
        with pytest.raises(InvalidMapError, match="out-of-range"):
            build_dependency_graph(map_from_dependencies({0: [5], 1: []}))


class TestResidual:
    def test_zero_at_fixed_point(self):
        assert np.allclose(residual(two_var_map(), [2.0, 2.0]), [0.0, 0.0])

    def test_worked_value_at_cap_start(self):
        assert np.allclose(residual(two_var_map(), [10.0, 10.0]), [4.0, 4.0])


class TestErrorBound:
    @pytest.mark.parametrize(
        "delta, eps, expected",
        [(0.5, 1e-6, 2e-6), (1.0, 3.5e-4, 3.5e-4), (0.1, 1e-8, 1e-7)],
    )
    def test_formula(self, delta, eps, expected):
        assert error_bound(delta, eps) == pytest.approx(expected, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            error_bound(0.0, 1e-6)
        with pytest.raises(ValueError):
            error_bound(-1.0, 1e-6)
        with pytest.raises(ValueError):
            error_bound(0.5, 0.0)

    def test_nan_is_not_positive(self):
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            error_bound(0.5, math.nan)
        with pytest.raises(ValueError, match="delta must be positive, got nan"):
            error_bound(math.nan, 1e-6)


class TestFixedPointSolve:
    def test_two_var_converges(self):
        report = fixed_point_solve(two_var_map(), [10.0, 10.0], 1e-10)
        assert np.allclose(report.x, [2.0, 2.0], atol=1e-9)
        assert report.residual_inf <= 1e-10
        assert report.feasible

    def test_missing_start_point_means_the_cap(self):
        g = two_var_map()
        from_cap = fixed_point_solve(g, g.cap, 1e-10)
        report = fixed_point_solve(g, None, 1e-10)
        assert np.array_equal(report.x, from_cap.x)
        assert report.iterations == from_cap.iterations

    def test_contraction_sweep_bound(self):
        g = two_var_map()
        eps = 1e-10
        report = fixed_point_solve(g, [10.0, 10.0], eps)
        dist0 = 8.0  # ||x0 - x+||_inf
        bound = math.ceil(math.log(dist0 / eps) / math.log(2.0)) + 1
        assert report.iterations <= bound

    def test_constant_map_certifies_on_second_sweep(self):
        c = np.array([3.0, 1.0, 2.0])
        g = MonotoneMap(3, lambda i, x: c[i], lambda i: [], cap=c)
        report = fixed_point_solve(g, np.zeros(3), 1e-12, max_iter=10)
        assert np.array_equal(report.x, c)
        assert report.iterations == 2  # first sweep lands on c, second certifies

    def test_cap_is_a_fixed_point_of_identity_shift(self):
        U = np.array([4.0, 7.0])
        g = MonotoneMap(2, lambda i, x: min(x[i], U[i]), lambda i: [i], cap=U,
                        eval=lambda x: np.minimum(x, U))
        report = fixed_point_solve(g, U, 1e-12, max_iter=5)
        assert np.array_equal(report.x, U)
        assert report.residual_inf == 0.0
        assert report.iterations == 1

    def test_exhausted_budget_raises_with_state(self):
        g = two_var_map()
        with pytest.raises(NonConvergenceError) as err:
            fixed_point_solve(g, [10.0, 10.0], 1e-12, max_iter=3)
        assert err.value.x.shape == (2,)
        assert err.value.residual_inf > 1e-12

    def test_max_iter_required_without_declared_rate(self):
        g = MonotoneMap(1, lambda i, x: 0.0, lambda i: [], cap=np.zeros(1))
        with pytest.raises(ValueError, match="max_iter"):
            fixed_point_solve(g, np.ones(1), 1e-9)

    def test_rejects_bad_inputs(self):
        g = two_var_map()
        with pytest.raises(ValueError):
            fixed_point_solve(g, [1.0, 2.0], 0.0, max_iter=5)
        with pytest.raises(ValueError):
            fixed_point_solve(g, [np.nan, 0.0], 1e-9, max_iter=5)
        with pytest.raises(ValueError):
            fixed_point_solve(g, [1.0], 1e-9, max_iter=5)

    @pytest.mark.parametrize("solve", [fixed_point_solve, selective_update_solve])
    def test_nan_tolerance_rejected(self, solve):
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            solve(two_var_map(), None, math.nan)

    @pytest.mark.parametrize("value", [np.float64(2.0), np.array([[2.0], [2.0]])],
                             ids=["scalar", "column"])
    def test_vectorised_eval_of_the_wrong_shape_rejected(self, value):
        g = MonotoneMap(2, lambda i, x: 2.0, lambda i: [], cap=np.full(2, 5.0),
                        eval=lambda x: value, contraction_rate=0.0, lower_bound=np.zeros(2))
        message = f"eval must return shape (2,), got {value.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fixed_point_solve(g, None, 1e-9)


class TestMapInvariants:
    """Behavioral contracts of the problem class, checked on sampled points."""

    def test_component_maps_ignore_their_own_variable(self):
        g = two_var_map()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(0.0, 20.0, size=2)
            y = x.copy()
            i = int(rng.integers(2))
            y[i] = rng.uniform(0.0, 20.0)
            assert g.eval_component(i, x) == g.eval_component(i, y)

    def test_monotone_in_every_coordinate(self):
        g = two_var_map()
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(0.0, 20.0, size=2)
            y = x + rng.uniform(0.0, 5.0, size=2)
            assert np.all(g.eval(x) <= g.eval(y))

    def test_bounded_by_cap(self):
        g = two_var_map()
        rng = np.random.default_rng(2)
        X = rng.uniform(0.0, 50.0, size=(200, 2))
        for x in X:
            assert np.all(g.eval(x) <= g.cap)

    def test_lower_bound_feasibility_check(self):
        assert two_var_map().lower_bound_feasible()           # g(0) = (1, 1) >= 0
        assert not two_var_map(a=(3.0, 3.0)).lower_bound_feasible()  # g(3, 3) = (2.5, 2.5) < 3

    def test_feasibility_check_needs_a_lower_bound(self):
        g = MonotoneMap(1, lambda i, x: 0.0, lambda i: [], cap=np.ones(1))
        with pytest.raises(ValueError, match="no lower bound"):
            g.lower_bound_feasible()

    def test_lower_bound_of_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError, match=r"a must have shape \(2,\), got \(3,\)"):
            MonotoneMap(2, lambda i, x: 0.0, lambda i: [], cap=np.ones(2), lower_bound=np.zeros(3))


class TestSelectiveUpdateSolve:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_two_var_all_policies(self, policy):
        report = selective_update_solve(two_var_map(), eps=1e-9, policy=policy)
        assert np.allclose(report.x, [2.0, 2.0], atol=1e-8)
        assert report.feasible
        assert report.residual_inf <= 1e-9
        assert report.dequeues >= report.component_updates > 0

    def test_degenerate_problem_with_constant_map(self):
        a = np.array([1.5, 0.5])
        g = MonotoneMap(2, lambda i, x: a[i], lambda i: [], cap=a,
                        lower_bound=a)
        report = selective_update_solve(g, eps=1e-12)
        assert np.array_equal(report.x, a)
        assert report.feasible

    def test_infeasible_lower_bound_is_flagged(self):
        report = selective_update_solve(two_var_map(a=(3.0, 3.0)), eps=1e-9)
        assert not report.feasible
        assert np.allclose(report.x, [2.0, 2.0], atol=1e-8)

    def test_start_below_image_is_rejected(self):
        with pytest.raises(StartPointError, match="x0 < g"):
            selective_update_solve(two_var_map(), x0=np.zeros(2), eps=1e-9)

    def test_empty_problem(self):
        g = MonotoneMap(0, lambda i, x: 0.0, lambda i: [], cap=np.zeros(0), lower_bound=np.zeros(0))
        report = selective_update_solve(g, eps=1e-9)
        assert report.x.size == 0
        assert report.feasible
        assert report.residual_inf == 0.0

    def test_single_variable_constant_component(self):
        g = MonotoneMap(1, lambda i, x: 2.5, lambda i: [], cap=np.array([9.0]), lower_bound=np.zeros(1))
        report = selective_update_solve(g, x0=np.array([9.0]), eps=1e-12)
        assert report.x[0] == 2.5

    def test_monitor_sees_descent_invariants(self):
        heads = []

        def monitor(x, xi):
            heads.append((x.copy(), xi.copy()))

        report = selective_update_solve(two_var_map(), eps=1e-9, policy="fifo", monitor=monitor)
        assert heads, "main loop should run"
        for k, (x, xi) in enumerate(heads):
            assert np.all(xi >= 0.0)
            if k:
                assert np.all(x <= heads[k - 1][0])
        assert np.all(report.x <= heads[-1][0])

    def test_update_budget_is_max_iter_sweeps_of_work(self):
        # the run needs 34 updates: 17 sweeps' worth at n = 2
        report = selective_update_solve(two_var_map(), eps=1e-9, max_iter=17)
        assert report.component_updates == 34
        with pytest.raises(NonConvergenceError, match="after 32 component updates") as info:
            selective_update_solve(two_var_map(), eps=1e-9, max_iter=16)
        assert info.value.residual_inf > 1e-9 and info.value.x.shape == (2,)

    def test_non_monotone_map_reaches_the_stale_skip(self):
        # g_1 = 30 - 3 x_0 is not monotone, and MonotoneMap does not check:
        # updating x_0 drops x_1's queued residual from 50 to -7
        g = MonotoneMap(2, lambda i, x: 1.0 if i == 0 else 30.0 - 3.0 * x[0],
                        lambda i: [0] if i == 1 else [], cap=[20.0, 20.0])
        report = selective_update_solve(g, eps=1e-9, policy="fifo")
        assert (report.component_updates, report.dequeues) == (1, 2)
        assert report.x.tolist() == [1.0, 20.0]

    def test_multiplication_counter_via_adapter(self):
        counter = OpCounter()
        report = selective_update_solve(two_var_map(counter=counter), eps=1e-9,
                                        policy="fifo", counter=counter)
        # init pass evaluates both components, then one neighbor eval per update
        assert report.scalar_multiplications == 2 + report.component_updates


@pytest.mark.parametrize("call, match", [
    (lambda p: MonotoneMap(-1, lambda i, x: 0.0, lambda i: [], cap=[]),
     "dimension must be nonnegative"),
    (lambda p: MonotoneMap(2, lambda i, x: 0.0, lambda i: [], cap=[1.0]),
     r"cap must have shape \(2,\), got \(1,\)"),
    (lambda p: selective_update_linear(p, policy="dfs"),
     r"unknown policy 'dfs'; expected one of \('variation', 'value', 'fifo', 'lifo'\)"),
], ids=["negative-dimension", "cap-shape", "unknown-policy"])
def test_bad_input_is_rejected(two_var, call, match):
    with pytest.raises(ValueError, match=match):
        call(two_var)
