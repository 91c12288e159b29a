"""Generic monotone fixed-point problems and their solvers.

The problem class is ``max f(x) subject to a <= x <= g(x)`` where each
component map ``g_i`` is monotone non-decreasing, never reads ``x_i``, and
stays below a cap vector on the feasible box.  The optimum is the top of the
feasible lattice and a fixed point of ``g``; solvers descend to it from any
starting point dominating its own image, either by full sweeps
(:func:`fixed_point_solve`) or by priority-queue-driven selective updates
(:func:`selective_update_solve`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .queues import POLICIES, QueueUnderflow, make_queue


class InvalidMapError(ValueError):
    """The declared dependency structure violates the problem class."""


class StartPointError(ValueError):
    """The starting point does not dominate its own image (x0 < g(x0) somewhere)."""


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last iterate and its residual."""

    def __init__(self, message: str, x: np.ndarray, residual_inf: float):
        super().__init__(message)
        self.x = x
        self.residual_inf = residual_inf


@dataclass
class OpCounter:
    """Mutable tally of scalar multiplications performed by map evaluations."""

    multiplications: int = 0


class MonotoneMap:
    """The general-case problem: a component-wise monotone map with declared
    sparsity, a cap vector and, optionally, the lower bound ``a``.

    Parameters
    ----------
    n : int
        Dimension.
    eval_component : callable
        ``eval_component(i, x) -> float`` returning the i-th component map.
        Must not read ``x[i]`` and must be monotone non-decreasing in every
        coordinate it reads.
    dependencies : callable
        ``dependencies(i)`` returning the variable indices ``eval_component(i, .)``
        reads; must not contain ``i``.
    cap : array
        Vector ``U`` bounding the map on the feasible box.
    eval : callable, optional
        Full-vector evaluation; defaults to calling ``eval_component`` n times.
    contraction_rate : float, optional
        Declared infinity-norm Lipschitz constant, when one is known.
    lower_bound : array, optional
        The lower bound ``a`` of the problem, used for feasibility flags and
        default iteration budgets.
    """

    def __init__(
        self,
        n: int,
        eval_component: Callable[[int, np.ndarray], float],
        dependencies: Callable[[int], Sequence[int]],
        cap,
        eval: Callable[[np.ndarray], np.ndarray] | None = None,
        contraction_rate: float | None = None,
        lower_bound=None,
    ):
        self.n = int(n)
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        self.cap = np.asarray(cap, dtype=float)
        if self.cap.shape != (self.n,):
            raise ValueError(f"cap must have shape ({self.n},), got {self.cap.shape}")
        if lower_bound is not None:
            lower_bound = np.asarray(lower_bound, dtype=float)
            if lower_bound.shape != (self.n,):
                raise ValueError(f"a must have shape ({self.n},), got {lower_bound.shape}")
        self.eval_component = eval_component
        self.dependencies = dependencies
        self._eval = eval
        self.contraction_rate = contraction_rate
        self.lower_bound = lower_bound

    def eval(self, x: np.ndarray) -> np.ndarray:
        if self._eval is not None:
            out = np.asarray(self._eval(x), dtype=float)
            if out.shape != (self.n,):
                raise ValueError(f"eval must return shape ({self.n},), got {out.shape}")
            return out
        x = np.asarray(x, dtype=float)
        return np.array([self.eval_component(i, x) for i in range(self.n)], dtype=float)

    def lower_bound_feasible(self) -> bool:
        """Whether g(a) >= a, the precondition for a non-empty feasible set."""
        a = self.lower_bound
        if a is None:
            raise ValueError("the map declares no lower bound")
        if self.n == 0:
            return True
        return bool(np.all(self.eval(a) >= a))


def build_dependency_graph(g: MonotoneMap) -> tuple[tuple[int, ...], ...]:
    """Neighbor sets N(i) = {j : g_j reads x_i} of ``g``, each sorted ascending.

    Raises :class:`InvalidMapError` when some ``g_i`` declares a dependency
    on its own variable, which the problem class forbids.
    """
    n = g.n
    neighbor_sets: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        for i in sorted(set(g.dependencies(j))):
            if i == j:
                raise InvalidMapError(f"component map {j} declares a dependency on its own variable")
            if not 0 <= i < n:
                raise InvalidMapError(f"component map {j} depends on out-of-range variable {i}")
            neighbor_sets[i].append(j)
    # j ascends in the fill loop, so each N(i) is already sorted.
    return tuple(tuple(s) for s in neighbor_sets)


@dataclass
class SolveReport:
    """Solution vector plus exit diagnostics and instrumentation counters."""

    x: np.ndarray
    feasible: bool
    residual_inf: float
    scalar_multiplications: int
    component_updates: int
    dequeues: int
    wall_time: float
    policy: str | None
    epsilon: float
    iterations: int = 0
    error_bound: float | None = None
    verify_multiplications: int = 0


def residual(g: MonotoneMap, x) -> np.ndarray:
    """The fixed-point error xi = x - g(x), computed in one full pass."""
    x = np.asarray(x, dtype=float)
    return x - g.eval(x)


def error_bound(delta: float, eps: float) -> float:
    """Distance bound ``eps / delta`` on any eps-solution under the gap condition.

    ``delta`` is the width by which the map's stretch ratios avoid 1 (for a
    contraction with rate gamma, ``delta = 1 - gamma``).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return eps / delta


def _start(n: int, x0, eps: float, policy: str | None = None,
           max_iter: int | None = None) -> tuple[np.ndarray, SolveReport | None]:
    """Checked float copy of the start point, and the finished report when n == 0.

    Rejects an ``eps`` that is not > 0 (NaN included), an unknown ``policy``
    (when one is given), a ``max_iter`` that is not an integer of at least 1
    (None sets no budget), and a start point of the wrong shape or non-finite.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if policy is not None and policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if max_iter is not None:
        _check_integer("max_iter", max_iter, 1)
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x.shape}")
    if n and not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    return x, (None if n else _report(x, None, time.perf_counter(), eps, policy, None))


def _check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; a ValueError naming it unless it is a Python or
    numpy integer (a bool is not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def _check_start(xi: np.ndarray, eps: float) -> None:
    """Raise :class:`StartPointError` when the start point's residual
    ``xi = x0 - g(x0)`` is below ``-eps`` anywhere; names the worst component."""
    bad = np.flatnonzero(xi < -eps)
    if bad.size:
        worst = int(bad[np.argmin(xi[bad])])
        raise StartPointError(
            f"x0 < g(x0) at component {worst} (xi = {xi[worst]:.3e} < -eps); "
            "start from the cap vector or any point dominating its image"
        )


def _report(
    x: np.ndarray,
    a: np.ndarray | None,
    t0: float,
    eps: float,
    policy: str | None,
    rate: float | None,
    *,
    residual: float = 0.0,
    muls: int = 0,
    updates: int = 0,
    dequeues: int = 0,
    iterations: int = 0,
    verify_muls: int = 0,
) -> SolveReport:
    """Final report of a solve started at ``t0``; the ``eps/(1-rate)`` error
    bound is given only when ``rate`` is a contraction rate below one."""
    return SolveReport(
        x=x,
        feasible=a is None or bool(np.all(x >= a)),
        residual_inf=residual,
        scalar_multiplications=muls,
        component_updates=updates,
        dequeues=dequeues,
        wall_time=time.perf_counter() - t0,
        policy=policy,
        epsilon=eps,
        iterations=iterations,
        error_bound=error_bound(1.0 - rate, eps) if rate is not None and rate < 1.0 else None,
        verify_multiplications=verify_muls,
    )


def _default_sweep_cap(rate: float | None, lower_bound, x0: np.ndarray, eps: float) -> int:
    if rate is None or not 0.0 <= rate < 1.0 or lower_bound is None:
        raise ValueError(
            "max_iter is required unless the map declares a contraction rate < 1 "
            "and a lower bound"
        )
    scale = float(np.max(np.abs(x0 - lower_bound)))
    if scale <= eps or rate == 0.0:
        return 10
    return 10 * math.ceil(math.log(scale / eps) / math.log(1.0 / rate))


def _update_budget(max_iter: int | None, n: int) -> float:
    """Component updates a selective run may make: the work of ``max_iter``
    full sweeps, unbounded when ``max_iter`` is None."""
    return math.inf if max_iter is None else max_iter * n


def _out_of_updates(x, xi, budget: float, eps: float) -> NonConvergenceError:
    """The error a selective run raises when it needs more than ``budget`` updates."""
    r = max(0.0, float(np.max(xi)))
    return NonConvergenceError(
        f"no eps-solution after {budget} component updates (residual {r:.3e} > eps {eps:.3e})",
        x=np.array(x, dtype=float), residual_inf=r,
    )


def _full_sweeps(
    evaluate: Callable[[np.ndarray], np.ndarray],
    n: int,
    x0,
    eps: float,
    max_iter: int | None,
    counter: OpCounter | None,
    rate: float | None,
    lower_bound,
) -> SolveReport:
    """The sweep loop ``x <- evaluate(x)`` behind every full-sweep solver;
    ``rate`` and ``lower_bound`` size the default budget, the error bound
    and the feasible flag."""
    x, empty = _start(n, x0, eps, max_iter=max_iter)
    if empty is not None:
        return empty
    start_muls = counter.multiplications if counter is not None else 0
    t0 = time.perf_counter()
    if max_iter is None:
        max_iter = _default_sweep_cap(rate, lower_bound, x, eps)
    step = math.inf
    for sweep in range(1, max_iter + 1):
        gx = evaluate(x)
        step = float(np.max(np.abs(x - gx)))
        x = gx
        if step <= eps:
            muls = (counter.multiplications - start_muls) if counter is not None else 0
            return _report(x, lower_bound, t0, eps, None, rate,
                           residual=step, muls=muls, iterations=sweep)
    raise NonConvergenceError(
        f"no eps-solution after {max_iter} sweeps (residual {step:.3e} > eps {eps:.3e})",
        x=x, residual_inf=step,
    )


def fixed_point_solve(
    g: MonotoneMap,
    x0,
    eps: float,
    max_iter: int | None = None,
    *,
    counter: OpCounter | None = None,
) -> SolveReport:
    """Full-vector fixed-point iteration ``x <- g(x)`` down to tolerance ``eps``.

    From ``x0`` (the cap when None), stops at the first sweep whose pre-update
    residual ``||x - g(x)||_inf`` is at most ``eps`` and returns the post-update
    iterate.  When ``max_iter`` is omitted it is derived from the declared
    contraction rate; with no such rate the caller must supply a budget.
    Exhausting the budget raises :class:`NonConvergenceError` with the last iterate.
    """
    return _full_sweeps(g.eval, g.n, g.cap if x0 is None else x0, eps, max_iter, counter,
                        g.contraction_rate, g.lower_bound)


def selective_update_solve(
    g: MonotoneMap,
    x0=None,
    eps: float = 1e-9,
    policy: str = "fifo",
    *,
    monitor: Callable[[np.ndarray, np.ndarray], None] | None = None,
    counter: OpCounter | None = None,
    max_iter: int | None = None,
) -> SolveReport:
    """Priority-queue selective update on the monotone map ``g``.

    Starting from ``x0`` (default: the cap vector) with ``x0 >= g(x0)``, the
    solver re-evaluates only the component maps affected by the last change,
    ordered by ``policy``.  On exit the queue is empty, every stored residual
    is at most ``eps``, and the feasible flag records ``x >= a`` when ``g``
    declares a lower bound ``a``.  A run that needs more than
    ``max_iter * n`` component updates (the work of ``max_iter`` full
    sweeps) raises :class:`NonConvergenceError` carrying the iterate;
    ``None`` sets no budget.

    ``monitor``, when given, is called with the live ``(x, xi)`` arrays at
    every main-loop head; it must not mutate them.
    """
    n = g.n
    x, empty = _start(n, g.cap if x0 is None else x0, eps, policy, max_iter)
    if empty is not None:
        return empty
    start_muls = counter.multiplications if counter is not None else 0
    t0 = time.perf_counter()

    neighbors = build_dependency_graph(g)
    xi = x - g.eval(x)
    _check_start(xi, eps)

    queue = make_queue(policy)
    for i in range(n):
        if xi[i] > eps:
            queue.enqueue(i, float(x[i]), float(xi[i]))

    budget = _update_budget(max_iter, n)
    dequeues = 0
    updates = 0
    while True:
        if monitor is not None:
            monitor(x, xi)
        try:
            i = queue.dequeue()
        except QueueUnderflow:
            break
        dequeues += 1
        v = float(xi[i])
        if v <= 0.0:  # stale: only a non-monotone map (never checked) lowers a queued residual
            continue
        if updates >= budget:
            raise _out_of_updates(x, xi, budget, eps)
        x[i] -= v
        updates += 1
        for j in neighbors[i]:
            r = float(x[j]) - g.eval_component(j, x)
            xi[j] = r
            if r > eps:
                queue.enqueue(j, float(x[j]), r)
        xi[i] = 0.0

    muls = (counter.multiplications - start_muls) if counter is not None else 0
    return _report(x, g.lower_bound, t0, eps, policy, g.contraction_rate,
                   residual=max(0.0, float(np.max(xi))), muls=muls, updates=updates,
                   dequeues=dequeues, iterations=updates)
