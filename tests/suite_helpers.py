"""Shared instance builders and an exact residual for the property and acceptance tests."""

from fractions import Fraction

import numpy as np

from glbopt import (
    LinearGlbProblem,
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
