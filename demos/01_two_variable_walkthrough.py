"""Walk through the 2-variable system x1 <= 0.5 x2 + 1, x2 <= 0.5 x1 + 1, x <= 10.

The feasible set is a lattice whose top (2, 2) maximizes every increasing
objective; all four solution routes find it, and the selective solver gets
there with fewer scalar multiplications than full sweeps.
"""

import numpy as np

from glbopt import (
    LinearGlbProblem,
    brute_force_max,
    contraction_rates,
    fixed_point_linear,
    precondition,
    reference_solve,
    selective_update_linear,
    selective_update_preconditioned,
    to_lp_form,
)

problem = LinearGlbProblem(
    [(np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([1.0, 1.0]))],
    U=[10.0, 10.0],
)

gamma, gamma_hat = contraction_rates(problem)
print(f"contraction rates: gamma = {gamma}, gamma_hat = {gamma_hat}")
print(f"map at the cap:    g(10, 10) = {problem.glb_eval([10.0, 10.0])}")
print(f"map at the top:    g(2, 2)   = {problem.glb_eval([2.0, 2.0])}  (fixed point)")
print()

eps = 1e-9
for name, run in [
    ("full sweeps (plain)", lambda: fixed_point_linear(problem, eps=eps)),
    ("full sweeps (preconditioned)", lambda: fixed_point_linear(precondition(problem), eps=eps)),
    ("selective, variation order", lambda: selective_update_linear(problem, eps=eps, policy="variation")),
    ("selective, fifo order", lambda: selective_update_linear(problem, eps=eps, policy="fifo")),
    ("selective, preconditioned", lambda: selective_update_preconditioned(problem, eps=eps)),
]:
    report = run()
    print(f"{name:32s} x = {np.round(report.x, 9)}  multiplications = "
          f"{report.scalar_multiplications:4d}  updates = {report.component_updates}")

print()
oracle = reference_solve(problem)
print(f"reference solve:   x* = {oracle.x_star}, residual {oracle.residual:.1e}, "
      f"certified = {oracle.certified}")
print(f"brute-force join of the feasible grid (step 0.01): {brute_force_max(problem, 0.01)}")

form = to_lp_form(problem)
print(f"\nequivalent linear program: {form.C.shape[0]} constraint rows, "
      f"each with exactly one positive entry:")
print(form.C.toarray())
