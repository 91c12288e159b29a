"""Shared instance builders, reference implementations, an exact residual
and the native-library skip helpers for the property and acceptance tests."""

import math
import shlex
import shutil
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from glbopt import (
    LinearGlbProblem,
    _native,
    gen_graph,
    random_linear_problem,
    rescale_to_gamma,
)

GRAPH_FAMILIES = ("ba", "nws", "hk")

# documents nested past any recursion limit: at the top level, and inside meta
DEEP_DOCUMENTS = {
    "top": "[" * 200_000,
    "meta": '{"n": 1, "pieces": [], "U": [1.0], "meta": {"x": '
            + "[" * 200_000 + "]" * 200_000 + "}}",
}


def compiler_or_skip():
    """Skip the test unless the system C compiler and ``Python.h`` are present."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    if shutil.which(cc) is None or not header.is_file():
        pytest.skip("no C compiler or no Python.h")


def native_or_skip(name):
    """The C function ``name`` of the native library; skip the test when the
    library is not loaded."""
    function = _native.function(name)
    if function is None:
        pytest.skip(f"native library unavailable: {_native.fallback}")
    return function


def python_path_for(monkeypatch, name):
    """Make ``_native.function(name)`` None for the rest of the test, so the
    Python path of that C function runs."""
    assert name in _native.SIGNATURES, name
    function = _native.function
    monkeypatch.setattr(_native, "function", lambda other: None if other == name else function(other))


def make_random_problem(seed: int, n: int, L: int, gamma: float, cap: float = 10.0) -> LinearGlbProblem:
    """Sparse random instance over mixed graph families and attachment
    densities, rescaled to rate ``gamma``."""
    rng = np.random.default_rng(seed)
    graphs = []
    for ell in range(L):
        family = GRAPH_FAMILIES[int(rng.integers(len(GRAPH_FAMILIES)))]
        params = {"m": int(rng.integers(1, 3))} if family in ("ba", "hk") else {"k": 2, "p": 0.2}
        graphs.append(gen_graph(family, n, seed=(seed, ell), **params))
    p = random_linear_problem(graphs, max_coeff=1.0, max_offset=1.0, cap=cap, seed=seed)
    return rescale_to_gamma(p, gamma)


def random_suite(count: int, seed: int = 2024, n_range=(5, 50), L_range=(1, 4),
                 gamma_range=(0.25, 0.9), cap: float = 10.0):
    """``count`` instances spanning n in [5, 50] (log-uniform), L and the
    contraction rate uniform."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(round(np.exp(rng.uniform(np.log(n_range[0]), np.log(n_range[1])))))
        n = min(max(n, n_range[0]), n_range[1])
        L = int(rng.integers(L_range[0], L_range[1] + 1))
        gamma = float(rng.uniform(*gamma_range))
        out.append(make_random_problem(seed * 1000 + k, n, L, gamma, cap=cap))
    return out


def exact_residual(p: LinearGlbProblem, x) -> Fraction:
    """``max_i |x_i - min(U_i, min_l sum_j A_l[i,j] x_j + b_l[i])|`` in exact
    rationals, read from each piece's COO triplets: no scipy matvec and no
    ``glb_eval``, so it shares no arithmetic with the solvers it checks."""
    xq = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    g = [Fraction(u) for u in p.U.tolist()]
    for A, b in p.pieces:
        coo = A.tocoo()
        eta = [Fraction(v) for v in b.tolist()]
        for i, j, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            eta[i] += Fraction(w) * xq[j]
        g = [min(gi, ei) for gi, ei in zip(g, eta)]
    return max((abs(xi - gi) for xi, gi in zip(xq, g)), default=Fraction(0))


def force_row_sum(entries: list[tuple[int, float]], target: float) -> list[tuple[int, float]]:
    """Adjust the final entry so the ascending-index sequential float sum of
    the row equals ``target`` exactly (the summation order of a sparse
    row-times-ones product).  The adjustment is ulp-scale; if the trailing
    weight cannot absorb it the (ulp-sized) entry is dropped instead."""
    entries = list(entries)
    while entries:
        prefix = 0.0
        for _, w in entries[:-1]:
            prefix += w
        last = target - prefix
        if last > 0.0 or (last == 0.0 and len(entries) == 1 and target == 0.0):
            for _ in range(64):
                total = prefix + last
                if total == target:
                    entries[-1] = (entries[-1][0], last)
                    return entries
                last = math.nextafter(last, math.inf if total < target else -math.inf)
                if last <= 0.0:
                    break
        entries.pop()
    return entries


def reference_hjb_grid_problem(spec) -> LinearGlbProblem:
    """``glbopt.hjb_grid_problem`` built node by node in Python floats: the
    reference its pieces, offsets, cap and error messages are compared
    against (meta is left out)."""
    lam, h = spec.discount, spec.step
    decay = 1.0 - lam * h
    nodes = spec.grid_points()
    N = nodes.shape[0]
    steps = [(hi - lo) / (count - 1) for lo, hi, count in spec.axes]
    counts = [count for _, _, count in spec.axes]

    pieces = []
    for u in spec.controls:
        rows, cols, vals = [], [], []
        b = np.empty(N)
        for i in range(N):
            x = nodes[i]
            cost = float(spec.running_cost(x if spec.dim > 1 else x[0], u))
            if cost < 0:
                raise ValueError(f"running cost must be nonnegative, got {cost} at node {i}")
            b[i] = h * cost
            if decay == 0.0:
                continue
            drift = np.atleast_1d(np.asarray(spec.dynamics(x if spec.dim > 1 else x[0], u), dtype=float))
            if drift.shape != (spec.dim,):
                raise ValueError(f"dynamics must return a {spec.dim}-vector, got shape {drift.shape}")
            y = x + h * drift
            cells, fracs = [], []
            for axis in range(spec.dim):
                lo, hi, count = spec.axes[axis]
                pos = (min(max(float(y[axis]), lo), hi) - lo) / steps[axis]
                j = min(int(math.floor(pos)), counts[axis] - 2)
                cells.append(j)
                fracs.append(pos - j)
            if spec.dim == 1:
                j, t = cells[0], fracs[0]
                w_hi = decay * t
                entries = [(j, decay - w_hi), (j + 1, w_hi)]
            else:
                (j1, j2), (t1, t2) = cells, fracs
                corners = [
                    (j1 * counts[1] + j2, (1 - t1) * (1 - t2)),
                    (j1 * counts[1] + j2 + 1, (1 - t1) * t2),
                    ((j1 + 1) * counts[1] + j2, t1 * (1 - t2)),
                    ((j1 + 1) * counts[1] + j2 + 1, t1 * t2),
                ]
                entries = [(idx, decay * w) for idx, w in corners]
            entries = sorted((idx, w) for idx, w in entries if w > 0.0)
            for idx, w in force_row_sum(entries, decay):
                if w != 0.0:
                    rows.append(i)
                    cols.append(idx)
                    vals.append(w)
        pieces.append((sparse.coo_array((vals, (rows, cols)), shape=(N, N)), b))
    return LinearGlbProblem(pieces, U=np.full(N, 1.0 / lam))
