"""Benchmark harness: counter-instrumented solves and CSV parameter sweeps.

A sweep crosses instance sizes, tolerances, methods and queue policies,
repeats each cell over consecutive seeds, and emits one CSV row per run plus
one mean row per cell.  Everything except wall time is reproducible
bit-for-bit from the configuration.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from . import instances
# hjb_preset is re-exported: perfbench/workload.py builds its HJB specs through bench
from .instances import hjb_preset, load_instance
from .lattice import SolveReport, _check_integer
from .linear import (
    LinearGlbProblem,
    fixed_point_linear,
    precondition,
    selective_update_linear,
    selective_update_preconditioned,
)
from .queues import POLICIES

METHODS = ("fixed-plain", "fixed-precond", "selective-plain", "selective-precond")
SELECTIVE_METHODS = ("selective-plain", "selective-precond")
FAMILIES = instances.FAMILIES + ("file",)
# families whose instance at a size is the same for every seed
_SEEDLESS = instances.SEEDLESS + ("file",)
# work cap of every method, in full sweeps (see solve_with_method)
MAX_ITER = 100_000

SWEEP_COLUMNS = (
    "family", "n", "L", "seed", "method", "policy", "eps", "wall_time",
    "scalar_multiplications", "component_updates", "dequeues", "residual", "feasible",
    "verify_multiplications",
)
# the SolveReport counters among the columns, zero in a failed run's row
_COUNTERS = ("scalar_multiplications", "component_updates", "dequeues", "verify_multiplications")


def solve_with_method(
    problem: LinearGlbProblem,
    method: str,
    policy: str = "fifo",
    eps: float = 1e-9,
    max_iter: int = MAX_ITER,
) -> SolveReport:
    """Dispatch one solver run.

    ``policy`` is ignored by the fixed-point methods.  ``max_iter`` caps every
    method by the work of that many full sweeps: the ``fixed-*`` methods stop
    after ``max_iter`` sweeps, the selective methods after ``max_iter * n``
    component updates, either way raising ``NonConvergenceError``.
    """
    if method == "fixed-plain":
        return fixed_point_linear(problem, eps=eps, max_iter=max_iter)
    if method == "fixed-precond":
        return fixed_point_linear(precondition(problem), eps=eps, max_iter=max_iter)
    if method == "selective-plain":
        return selective_update_linear(problem, eps=eps, policy=policy, max_iter=max_iter)
    if method == "selective-precond":
        return selective_update_preconditioned(problem, eps=eps, policy=policy, max_iter=max_iter)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass
class SweepConfig:
    """Cross product of a sweep: family x sizes x tolerances x methods x policies,
    each repeated over seeds seed_base .. seed_base + repetitions - 1."""

    family: str = "ba"
    sizes: tuple[int, ...] = (500,)
    tolerances: tuple[float, ...] = (1e-6,)
    # None keeps instances.generate's default
    pieces: int | None = None
    max_coeff: float | None = None
    max_offset: float | None = None
    cap: float | None = None
    policies: tuple[str, ...] = POLICIES
    repetitions: int = 5
    seed_base: int = 1
    methods: tuple[str, ...] = METHODS
    time_budget: float | None = None
    instance_path: str | None = None
    max_iter: int = MAX_ITER

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        _check_integer("repetitions", self.repetitions, 1)
        for size in self.sizes:
            _check_integer("size", size)
        if self.max_iter is not None:
            _check_integer("max_iter", self.max_iter, 1)
        if not all(eps > 0 for eps in self.tolerances):
            raise ValueError("tolerances must be positive")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        for pol in self.policies:
            if pol not in POLICIES:
                raise ValueError(f"unknown policy {pol!r}")
        if self.family == "file" and not self.instance_path:
            raise ValueError("family 'file' needs instance_path")


def make_instance(config: SweepConfig, n: int, seed: int) -> LinearGlbProblem:
    """Instantiate one problem of the configured family at size ``n``: what
    ``glbopt gen`` builds at its defaults, except preset drift1d for const1d."""
    if config.family == "file":
        return load_instance(config.instance_path)
    keys = ("pieces", "max_coeff", "max_offset", "cap")
    given = {key: getattr(config, key) for key in keys if getattr(config, key) is not None}
    return instances.generate(config.family, n, seed, preset="drift1d", **given)


def _combos(config: SweepConfig):
    for method in config.methods:
        if method in SELECTIVE_METHODS:
            for policy in config.policies:
                yield method, policy
        else:
            yield method, "-"


def run_sweep(config: SweepConfig, *, log=None) -> list[dict]:
    """Execute the sweep and return run rows followed by aggregate rows.

    A run exceeding the time budget disables its (method, policy) combination
    for all larger sizes, mirroring how slow orderings are truncated in
    experiments; a failing run is recorded with a NaN residual and the sweep
    continues.
    """
    log = log if log is not None else (lambda msg: print(msg, file=sys.stderr))
    rows: list[dict] = []
    exhausted: set[tuple[str, str]] = set()
    for n in sorted(config.sizes):
        seeds = range(config.seed_base, config.seed_base + config.repetitions)
        if config.family in _SEEDLESS:  # one build; its runs repeat the timing
            problems = dict.fromkeys(seeds, make_instance(config, n, config.seed_base))
        else:
            problems = {seed: make_instance(config, n, seed) for seed in seeds}
        for eps in config.tolerances:
            for method, policy in _combos(config):
                if (method, policy) in exhausted:
                    continue
                for seed, problem in problems.items():
                    row = {
                        "family": config.family, "n": problem.n, "L": problem.L,
                        "seed": seed, "method": method, "policy": policy, "eps": eps,
                    }
                    t0 = time.perf_counter()
                    try:
                        report = solve_with_method(
                            problem, method, policy=policy, eps=eps, max_iter=config.max_iter
                        )
                    except Exception as exc:  # recorded in-row, sweep continues
                        elapsed = time.perf_counter() - t0
                        log(f"run failed ({method}/{policy}, n={n}, seed={seed}): {exc}")
                        row.update(
                            dict.fromkeys(_COUNTERS, 0),
                            wall_time=elapsed, residual=float("nan"), feasible=0,
                        )
                        rows.append(row)
                        continue
                    row.update(
                        {col: getattr(report, col) for col in _COUNTERS},
                        wall_time=report.wall_time, residual=report.residual_inf,
                        feasible=int(report.feasible),
                    )
                    rows.append(row)
                    if config.time_budget is not None and report.wall_time > config.time_budget:
                        exhausted.add((method, policy))
                        log(
                            f"time budget exceeded by {method}/{policy} at n={n}; "
                            "skipping larger sizes for this combination"
                        )
    rows.extend(_aggregate(rows))
    return rows


def _aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["family"], row["n"], row["L"], row["method"], row["policy"], row["eps"])
        groups.setdefault(key, []).append(row)
    out = []
    numeric = SWEEP_COLUMNS[7:]
    for key, members in groups.items():
        family, n, L, method, policy, eps = key
        agg = {
            "family": family, "n": n, "L": L, "seed": "mean",
            "method": method, "policy": policy, "eps": eps,
        }
        for col in numeric:
            agg[col] = float(np.mean([m[col] for m in members]))
        out.append(agg)
    return out


def write_sweep_csv(rows: list[dict], path) -> None:
    """RFC-4180 CSV with the fixed column order; counters stay integers in
    run rows and become exact means in aggregate rows."""
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row[col] for col in SWEEP_COLUMNS])
