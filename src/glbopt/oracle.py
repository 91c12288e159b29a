"""Independent reference answers for the linear problem class.

``reference_solve`` runs the preconditioned full-vector iteration to a
residual two orders below the tightest solver tolerances in use;
``brute_force_max`` scans a grid and joins the feasible points, exploiting
that the feasible set is closed under component-wise maxima; and
``verify_epsilon_solution`` checks a candidate from scratch, independent of
any incremental solver state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear import LinearGlbProblem, contraction_rates, precondition

ORACLE_TOL = 1e-12
_GRID_CHUNK = 1 << 18  # grid points brute_force_max evaluates per batch


@dataclass(frozen=True)
class OracleResult:
    x_star: np.ndarray
    residual: float
    iterations: int
    certified: bool


def reference_solve(p: LinearGlbProblem) -> OracleResult:
    """High-precision fixed point by full preconditioned sweeps from the cap.

    Certification requires the from-scratch residual on the plain map to
    reach ``ORACLE_TOL`` and the preconditioned contraction rate to be below
    one; otherwise the best iterate found is returned flagged uncertified.
    """
    hat = precondition(p)
    _, gamma_hat = contraction_rates(p)
    x = p.U.copy()
    if p.n == 0:
        return OracleResult(x_star=x, residual=0.0, iterations=0, certified=True)
    if gamma_hat < 1.0:
        scale = max(float(np.max(np.abs(p.U - p.a))), ORACLE_TOL)
        max_iter = 50 + 10 * _geometric_iters(scale, ORACLE_TOL, gamma_hat)
    else:
        max_iter = 200_000
    residual = float(np.max(np.abs(x - p.glb_eval(x))))
    iterations = 0
    threshold = ORACLE_TOL / 4.0
    while residual > ORACLE_TOL and iterations < max_iter:
        x_new = hat.glb_eval(x)
        step = float(np.max(np.abs(x - x_new)))
        x = x_new
        iterations += 1
        if step <= threshold:
            residual = float(np.max(np.abs(x - p.glb_eval(x))))
            if residual > ORACLE_TOL:
                threshold /= 4.0
    certified = residual <= ORACLE_TOL and gamma_hat < 1.0
    return OracleResult(x_star=x, residual=residual, iterations=iterations, certified=certified)


def _geometric_iters(scale: float, tol: float, rate: float) -> int:
    if rate <= 0.0:
        return 1
    return max(1, math.ceil(math.log(scale / tol) / math.log(1.0 / rate)))


def verify_epsilon_solution(p: LinearGlbProblem, x, eps: float) -> bool:
    """Whether ``x >= a`` and the from-scratch residual is within ``eps``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        return False
    if p.n == 0:
        return True
    if not np.all(x >= p.a):
        return False
    return float(np.max(np.abs(x - p.glb_eval(x)))) <= eps


def brute_force_max(p: LinearGlbProblem, grid_step: float) -> np.ndarray | None:
    """Join of all feasible points of the grid ``{a + k * grid_step}`` in the box.

    Valid as a maximality oracle because the feasible set is join-closed, so
    the component-wise maximum of feasible grid points is itself feasible and
    dominates every feasible grid point.  Returns None when no grid point is
    feasible.  Refuses n > 3: the scan is exhaustive.
    """
    if p.n > 3:
        raise ValueError(f"brute force is limited to n <= 3, got n = {p.n}")
    if not grid_step > 0:
        raise ValueError(f"grid step must be positive, got {grid_step}")
    if p.n == 0:
        return np.zeros(0)
    axes = []
    for i in range(p.n):
        span = p.U[i] - p.a[i]
        if span < 0:
            return None
        count = int(math.floor(span / grid_step + 1e-12)) + 1
        axes.append(p.a[i] + grid_step * np.arange(count))
    sizes = [len(ax) for ax in axes]
    total = math.prod(sizes)
    best: np.ndarray | None = None
    for start in range(0, total, _GRID_CHUNK):
        flat = np.arange(start, min(start + _GRID_CHUNK, total))
        coords = np.unravel_index(flat, sizes)
        X = np.column_stack([axes[d][coords[d]] for d in range(p.n)])
        feasible = np.all(X <= p.glb_eval_batch(X), axis=1)
        if feasible.any():
            top = X[feasible].max(axis=0)
            best = top if best is None else np.maximum(best, top)
    return best


def sample_feasible_points(
    p: LinearGlbProblem,
    count: int,
    seed: int,
    x_star: np.ndarray | None = None,
) -> np.ndarray:
    """Sample exactly-feasible points spread through the feasible set.

    Each draw caps the map by a random point y of the box [a, x+]; the top of
    the capped feasible set is the largest feasible point below y and is found
    by the same monotone descent the solvers use.  A downward nudge scaled by
    the contraction slack makes the returned points feasible under exact
    floating-point comparison, which is verified before returning.
    """
    gamma, _ = contraction_rates(p)
    if gamma >= 1.0:
        raise ValueError("sampler requires a contraction (gamma < 1)")
    if x_star is None:
        x_star = reference_solve(p).x_star
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = np.empty((count, p.n))
    scale = max(1.0, float(np.max(np.abs(x_star))) if p.n else 1.0)
    for k in range(count):
        y = p.a + rng.uniform(0.0, 1.0, size=p.n) * np.maximum(x_star - p.a, 0.0)
        z = np.minimum(x_star, y)
        for _ in range(10_000):
            z_new = np.minimum(p.glb_eval(z), y)
            step = float(np.max(np.abs(z - z_new))) if p.n else 0.0
            z = z_new
            if step <= 1e-15 * scale:
                break
        nudge = 4.0 * np.finfo(float).eps * scale / (1.0 - gamma)
        for _ in range(60):
            candidate = np.maximum(p.a, z - nudge)
            if np.all(candidate <= p.glb_eval(candidate)) and np.all(candidate >= p.a):
                out[k] = candidate
                break
            nudge *= 4.0
        else:
            raise RuntimeError("could not certify a sampled point as exactly feasible")
    return out
