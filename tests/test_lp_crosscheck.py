"""The LP reformulation, solved by scipy's HiGHS, agrees with the solver.

For every generator family at n <= 60, with coefficients scaled so that
``gamma_hat < 1``, the optimum of ``max sum(x)`` over :func:`to_lp_form`
must match ``selective_update_preconditioned`` within ``eps / (1 - gamma_hat)``
plus the LP solver's own tolerance.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from glbopt import (
    SpeedPlanSpec,
    contraction_rates,
    gen_graph,
    hjb_grid_problem,
    manipulator_problem,
    random_linear_problem,
    rescale_to_gamma,
    selective_update_preconditioned,
    speed_planning_problem,
    to_lp_form,
)
from glbopt.instances import hjb_preset

EPS = 1e-9
LP_TOL = 1e-7  # HiGHS default primal feasibility tolerance


def _graph_problem(family):
    graphs = [gen_graph(family, 50, seed=(11, ell)) for ell in range(3)]
    p = random_linear_problem(graphs, max_coeff=0.5, max_offset=1.0, cap=10.0, seed=11)
    return rescale_to_gamma(p, 0.8)


def _speedplan():
    n = 40
    spec = SpeedPlanSpec(path_length=float(n - 1), samples=n, curvature=np.linspace(0.0, 0.3, n),
                         v_max=5.0, acc_tangential=1.0, acc_normal=1.0)
    # the unit band coefficients give gamma = 1; shrink them to get a contraction
    return rescale_to_gamma(speed_planning_problem(spec), 0.9)


def _hjb():
    return hjb_grid_problem(hjb_preset("drift1d", 41, discount=1.0, step=0.25))


def _manipulator():
    rng = np.random.default_rng(5)
    shape = (2, 29)
    return manipulator_problem(rng.uniform(0.1, 0.9, shape), rng.uniform(0.0, 1.0, shape),
                               rng.uniform(0.1, 0.9, shape), rng.uniform(0.0, 1.0, shape),
                               rng.uniform(2.0, 8.0, 30))


FAMILIES = {
    "ba": lambda: _graph_problem("ba"),
    "nws": lambda: _graph_problem("nws"),
    "hk": lambda: _graph_problem("hk"),
    "speedplan": _speedplan,
    "hjb": _hjb,
    "manipulator": _manipulator,
}


@pytest.mark.parametrize("family", tuple(FAMILIES))
def test_lp_optimum_matches_selective_solve(family):
    p = FAMILIES[family]()
    assert p.n <= 60
    _, gamma_hat = contraction_rates(p)
    assert gamma_hat < 1.0
    form = to_lp_form(p)
    lp = linprog(c=-np.ones(p.n), A_ub=form.C, b_ub=-form.d,
                 bounds=list(zip(np.zeros(p.n), form.U)), method="highs")
    assert lp.success, lp.message
    report = selective_update_preconditioned(p, eps=EPS)
    assert np.max(np.abs(lp.x - report.x)) <= EPS / (1.0 - gamma_hat) + LP_TOL
