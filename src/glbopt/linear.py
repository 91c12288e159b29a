"""The linear subclass: greatest lower bound of affine maps under a cap.

Problem data is ``max f(x) s.t. a <= x <= min_l (A_l x + b_l), x <= U`` with
nonnegative sparse ``A_l`` and nonnegative ``b_l``.  This module provides the
capped map ``min_l (A_l x + b_l) ^ U``, the diagonal-removing preconditioning
transform and its contraction constants, the selective-update solver with
incremental residual maintenance, and the export to an equivalent linear
program.
"""

from __future__ import annotations

import contextlib
import gc
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import _native
from .lattice import (
    OpCounter, SolveReport, _check_start, _full_sweeps, _out_of_updates, _report, _start,
    _update_budget,
)
from .queues import QueueUnderflow, make_queue


class ProblemDataError(ValueError):
    """Problem data violates the class invariants (signs, shapes, finiteness)."""


class RedundantRowWarning(UserWarning):
    """A diagonal entry >= 1 made its row redundant; it was replaced by the cap row."""


def _as_csr(A_like, n: int, ell: int) -> sparse.csr_array:
    A = sparse.csr_array(sparse.coo_array(A_like, shape=(n, n)), dtype=float)
    A.sum_duplicates()
    A.eliminate_zeros()
    if A.nnz:
        if not np.all(np.isfinite(A.data)):
            raise ProblemDataError(f"piece {ell + 1}: non-finite matrix entry")
        if A.data.min() < 0:
            coo = A.tocoo()
            k = int(np.argmin(coo.data))
            raise ProblemDataError(
                f"piece {ell + 1}, row {int(coo.row[k])}, col {int(coo.col[k])}: "
                f"negative entry {coo.data[k]!r}"
            )
    return A


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector if it runs; restore its state on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class LinearGlbProblem:
    """Immutable data for the linear greatest-lower-bound problem class.

    Parameters
    ----------
    pieces : sequence of (A, b)
        Affine pieces; ``A`` is any scipy-sparse or dense (n, n) nonnegative
        matrix, ``b`` a nonnegative length-n vector.  Rows whose diagonal
        entry is >= 1 encode constraints weaker than the cap; they are
        replaced by the row ``x_i <= U_i`` at construction and a
        :class:`RedundantRowWarning` is emitted.  Each stored ``A`` is a
        read-only CSR array in canonical form (sorted column indices, no
        duplicates, no explicit zeros), so readers may rely on its order.
    U : array
        Nonnegative cap vector; its length fixes the dimension.
    a : array, optional
        Lower bound, default zero.
    meta : dict, optional
        Free-form provenance (generator name, seed, parameters).
    """

    def __init__(self, pieces, U, a=None, *, meta=None):
        U = np.array(U, dtype=float)
        if U.ndim != 1:
            raise ProblemDataError(f"U must be a vector, got shape {U.shape}")
        n = U.size
        if n and not np.all(np.isfinite(U)):
            raise ProblemDataError("U must be finite")
        if n and U.min() < 0:
            raise ProblemDataError(f"U must be nonnegative, got U[{int(np.argmin(U))}] = {U.min()!r}")
        if a is None:
            a = np.zeros(n)
        a = np.array(a, dtype=float)
        if a.shape != (n,):
            raise ProblemDataError(f"a must have shape ({n},), got {a.shape}")
        if n and not np.all(np.isfinite(a)):
            k = int(np.argmin(np.isfinite(a)))
            raise ProblemDataError(f"a must be finite, got a[{k}] = {float(a[k])!r}")

        prepared = []
        diagonal_free = True
        for ell, (A_like, b_like) in enumerate(pieces):
            A = _as_csr(A_like, n, ell)
            b = np.array(b_like, dtype=float)
            if b.shape != (n,):
                raise ProblemDataError(f"piece {ell + 1}: b must have shape ({n},), got {b.shape}")
            if n and not np.all(np.isfinite(b)):
                raise ProblemDataError(f"piece {ell + 1}: non-finite offset entry")
            if n and b.min() < 0:
                raise ProblemDataError(
                    f"piece {ell + 1}, row {int(np.argmin(b))}: negative offset {b.min()!r}"
                )
            diag = A.diagonal()
            bad = np.flatnonzero(diag >= 1.0)
            if bad.size:
                warnings.warn(
                    f"piece {ell + 1}: diagonal entry >= 1 at row(s) {bad.tolist()}; "
                    "row(s) replaced by the trivially satisfied cap row",
                    RedundantRowWarning,
                    stacklevel=3,
                )
                coo = A.tocoo()
                keep = ~np.isin(coo.row, bad)
                A = _as_csr((coo.data[keep], (coo.row[keep], coo.col[keep])), n, ell)
                b[bad] = U[bad]
            # rows with a diagonal >= 1 were just dropped; what remains is 0 < d < 1
            diagonal_free = diagonal_free and not np.any((0.0 < diag) & (diag < 1.0))
            for arr in (A.data, A.indices, A.indptr, b):
                arr.setflags(write=False)
            prepared.append((A, b))

        U.setflags(write=False)
        a.setflags(write=False)
        self._U = U
        self._a = a
        self._pieces = tuple(prepared)
        self.meta = dict(meta) if meta else {}
        self._rates: tuple[float, float] | None = None
        self._diagonal_free = diagonal_free
        self._precond: LinearGlbProblem | None = None
        self._tables = None

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._U.size

    @property
    def L(self) -> int:
        return len(self._pieces)

    @property
    def U(self) -> np.ndarray:
        return self._U

    @property
    def a(self) -> np.ndarray:
        return self._a

    @property
    def pieces(self) -> tuple[tuple[sparse.csr_array, np.ndarray], ...]:
        return self._pieces

    @property
    def total_nnz(self) -> int:
        return sum(A.nnz for A, _ in self._pieces)

    # -- evaluation --------------------------------------------------------

    def glb_eval(self, x, counter: OpCounter | None = None) -> np.ndarray:
        """Capped map value ``min_l (A_l x + b_l) ^ U`` at a single point.

        Counts one multiplication per stored nonzero when a counter is given.
        """
        x = np.asarray(x, dtype=float)
        out = self._U.copy()
        for A, b in self._pieces:
            np.minimum(out, A @ x + b, out=out)
        if counter is not None:
            counter.multiplications += self.total_nnz
        return out

    def glb_eval_batch(self, X) -> np.ndarray:
        """Capped map values for a batch of points, one per row of ``X``."""
        X = np.asarray(X, dtype=float)
        out = np.broadcast_to(self._U, X.shape).copy()
        for A, b in self._pieces:
            np.minimum(out, X @ A.T + b, out=out)
        return out

    def _selective_tables(self):
        """The per-column update table of the incremental solver (cached).

        ``cols[i]`` holds one ``(k, j, A_l[j, i], last)`` entry for each
        stored entry of column i, ordered by row j and then piece l.
        ``k = l*n + j`` indexes the stacked etas of :func:`_fresh_state`, and
        ``last`` marks the last entry of row j in the column.

        Every entry is a tuple of ints, a float and a bool, and every column
        a tuple of entries, so the garbage collector need never walk the
        O(nnz) table: the native builder (see :func:`_update_table`) makes
        them untracked from birth, and on the Python fallback the collector
        stops tracking them after it has seen them once.  Every index is
        taken from one list of the ints ``0..L*n-1``, so the table holds L*n
        index ints instead of two per stored entry.
        """
        if self._tables is None:
            self._tables = _update_table(self._pieces, self.n) if self.L else [()] * self.n
        return self._tables


@_collector_paused()
def _update_table(pieces, n):
    """The table of ``_selective_tables`` (L >= 1), built from one CSC matrix.

    The arrays come from scipy; the tuples from ``_native.c`` when it can be
    built and loaded (:func:`glbopt._native.function`), else from
    :func:`_python_columns`.  Both make the same objects.  The build runs
    with the collector paused: it makes only acyclic tuples, so the
    collections its allocations would trigger rescan the growing table and
    free nothing; temporaries die before the collector resumes.
    """
    L = len(pieces)
    coos = [A.tocoo() for A, _ in pieces]
    # row j*L + l holds A_l[j, :], so each CSC column lists its entries by row j, then piece l
    csc = sparse.csr_array((np.concatenate([c.data for c in coos]), (
        np.concatenate([c.row * L + ell for ell, c in enumerate(coos)]),
        np.concatenate([c.col for c in coos]))), shape=(L * n, n)).tocsc()
    j, ell = np.divmod(csc.indices.astype(np.int64), L)
    last = np.append(j[1:] != j[:-1], True)
    last[csc.indptr[1:] - 1] = True  # a column's last entry ends its row
    ptr, k, w = csc.indptr.astype(np.int64), ell * n + j, csc.data
    del coos, csc, ell  # free the arrays before the entries are made
    build = _native.function("glbopt_fill_update_table")
    if build is None:
        return _python_columns(L * n, ptr, k, j, w, last)
    cols = []
    build(cols, list(range(L * n)), n, ptr, k, j, w, last)
    return cols


def _python_columns(size, ptr, k, j, w, last):
    """The tuples of :func:`_update_table` made in Python: the fallback, and a
    second reference for tests."""
    index = np.array(range(size), dtype=object)
    ks, js, last = index[k].tolist(), index[j].tolist(), last.tolist()
    w, ptr = w.tolist(), ptr.tolist()
    del index
    entries = tuple(zip(ks, js, w, last))
    return [entries[ptr[i]:ptr[i + 1]] for i in range(len(ptr) - 1)]


def contraction_rates(p: LinearGlbProblem) -> tuple[float, float]:
    """Lipschitz constants (gamma, gamma_hat) of the plain and preconditioned maps.

    ``gamma`` is the largest row sum over all pieces; ``gamma_hat`` rescales
    it through the diagonal entries, ``max (gamma - d) / (1 - d)``.  Values
    >= 1 are reported as-is: termination of the selective solvers does not
    need a contraction, only the error bounds do.
    """
    if p._rates is None:
        gamma = 0.0
        for A, _ in p.pieces:
            if A.nnz:
                gamma = max(gamma, float(A.sum(axis=1).max()))
        gamma_hat = 0.0
        if p.n:
            for A, _ in p.pieces:
                d = A.diagonal()
                gamma_hat = max(gamma_hat, float(np.max((gamma - d) / (1.0 - d))))
        p._rates = (gamma, gamma_hat)
    return p._rates


def precondition(p: LinearGlbProblem) -> LinearGlbProblem:
    """Remove diagonals: each row is rescaled by 1/(1 - A_ii) and its diagonal zeroed.

    The transformed problem has the same U, a, feasible set and fixed point;
    its row-sum rate is, up to rounding, the source's gamma_hat (see
    :func:`contraction_rates`).
    A problem without diagonal entries is its own transform and is returned
    as is; otherwise the result is cached on the source problem.
    """
    if p._diagonal_free:
        return p
    if p._precond is None:
        hat_pieces = []
        for A, b in p.pieces:
            d = A.diagonal()
            scale = 1.0 / (1.0 - d)
            coo = A.tocoo()
            off = coo.row != coo.col
            data = coo.data[off] * scale[coo.row[off]]
            A_hat = sparse.coo_array((data, (coo.row[off], coo.col[off])), shape=A.shape)
            hat_pieces.append((A_hat, b * scale))
        p._precond = LinearGlbProblem(hat_pieces, p.U, p.a, meta=p.meta)
    return p._precond


def dominant_diagonal_gap(p: LinearGlbProblem) -> tuple[float, float]:
    """Realized (gamma, Delta): smallest Delta making every row satisfy
    ``A_ii >= (1 - Delta) * gamma`` and off-diagonal row sum <= Delta * gamma."""
    gamma, _ = contraction_rates(p)
    if gamma <= 0.0:
        return gamma, 0.0
    delta = 0.0
    for A, _ in p.pieces:
        d = A.diagonal()
        off = np.asarray(A.sum(axis=1)) - d
        delta = max(delta, float(np.max((gamma - d) / gamma)), float(np.max(off / gamma)))
    return gamma, delta


def dominance_gap_limit(gamma: float) -> float:
    """Upper end of the dominance gaps for which the preconditioned map is
    strictly closer to the fixed point: (sqrt(1-gamma) - (1-gamma)) / gamma."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if gamma == 0.0:
        return 0.5
    return (math.sqrt(1.0 - gamma) - (1.0 - gamma)) / gamma


# -- selective update with incremental eta maintenance ----------------------


def selective_update_linear(
    p: LinearGlbProblem,
    x0=None,
    eps: float = 1e-9,
    policy: str = "fifo",
    *,
    monitor=None,
    max_iter: int | None = None,
) -> SolveReport:
    """Selective update on the plain capped map with incremental residuals.

    Maintains ``eta_l = A_l x + b_l`` and ``g = min(U, min_l eta_l)`` across
    updates.  Changing ``x_i`` makes one pass over column i's stored
    entries, one counted multiplication each: it lowers the entry's eta and
    ``g_j``, and after row j's last entry refreshes its residual as
    ``x_j - g_j``.  An update's work is its column's stored entries.  ``x0``
    defaults to the cap and must dominate its own image.

    The run stops only on a from-scratch check: when the queue runs empty,
    the etas and residuals are recomputed from ``x``.  If the fresh residual
    is at most ``eps`` the run ends, reporting the incrementally kept one;
    otherwise the fresh state replaces the kept one, every component whose
    fresh residual exceeds ``eps`` is enqueued, and the run goes on.  Each
    check costs one multiplication per stored nonzero, counted in
    ``verify_multiplications``, not in ``scalar_multiplications``.
    A run that needs more than ``max_iter * n`` component updates (the work
    of ``max_iter`` full sweeps) raises :class:`NonConvergenceError` carrying
    the iterate; ``None`` sets no budget.

    ``monitor(x, xi)`` is called with the live state lists at every main-loop
    head; it must not mutate them.
    """
    gamma, _ = contraction_rates(p)
    return _selective_run(p, gamma, x0, eps, policy, monitor, max_iter)


def selective_update_preconditioned(
    p: LinearGlbProblem,
    x0=None,
    eps: float = 1e-9,
    policy: str = "fifo",
    *,
    monitor=None,
    max_iter: int | None = None,
) -> SolveReport:
    """Selective update iterating the preconditioned (zero-diagonal) map.

    Converges to the same fixed point as :func:`selective_update_linear`
    but with rate gamma_hat <= gamma.
    """
    _, gamma_hat = contraction_rates(p)
    return _selective_run(precondition(p), gamma_hat, x0, eps, policy, monitor, max_iter)


def _fresh_state(p, x_arr):
    """From scratch: the etas ``A_l x + b_l`` stacked in one vector (piece l
    at ``l*n .. l*n + n - 1``), ``g(x)`` and the residual ``x - g(x)``."""
    eta = np.concatenate([A @ x_arr + b for A, b in p.pieces] or [np.empty(0)])
    gx = np.minimum(np.minimum.reduce(eta.reshape(p.L, p.n)), p.U) if p.L else p.U.copy()
    return eta, gx, x_arr - gx


def _selective_run(p, rate, x0, eps, policy, monitor, max_iter):
    x_arr, empty = _start(p.n, p.U if x0 is None else x0, eps, policy, max_iter)
    if empty is not None:
        return empty
    cols = p._selective_tables()
    t0 = time.perf_counter()
    eta_arr, g_arr, xi_arr = _fresh_state(p, x_arr)
    muls = p.total_nnz
    _check_start(xi_arr, eps)

    x = x_arr.tolist()
    queue = make_queue(policy)
    enqueue = queue.enqueue
    dequeue = queue.dequeue
    budget = _update_budget(max_iter, p.n)
    updates = 0
    verify_muls = 0
    # seed from a from-scratch state, drain the queue, check from scratch; a failed
    # check (rounding in the kept etas hid a residual above eps) seeds again
    while True:
        xi = xi_arr.tolist()
        eta = eta_arr.tolist()
        g = g_arr.tolist()  # min(U, min_l eta_l); an eta only falls (w * v >= 0), g follows it
        for j in np.flatnonzero(xi_arr > eps).tolist():
            enqueue(j, x[j], xi[j])
        while True:
            if monitor is not None:
                monitor(x, xi)
            try:
                i = dequeue()
            except QueueUnderflow:
                break
            # no stale entry: queued x_j stays put and g_j only falls (w > 0, v > eps), so xi_j > eps
            v = xi[i]
            if updates >= budget:
                raise _out_of_updates(x, xi, budget, eps)
            x[i] -= v
            xi[i] = 0.0  # a piece storing A_l[i, i] refreshes it in the loop below
            updates += 1
            for k, j, w, last in cols[i]:
                t = eta[k] - w * v
                eta[k] = t
                if t < g[j]:
                    g[j] = t
                if last:  # row j's entries are done: refresh its residual
                    r = x[j] - g[j]
                    xi[j] = r
                    if r > eps:
                        enqueue(j, x[j], r)
            muls += len(cols[i])
        eta_arr, g_arr, xi_arr = _fresh_state(p, np.array(x))
        verify_muls += p.total_nnz
        if xi_arr.max() <= eps:
            break

    return _report(np.array(x), p.a, t0, eps, policy, rate, residual=max(0.0, max(xi)),
                   muls=muls, updates=updates, dequeues=updates, iterations=updates,
                   verify_muls=verify_muls)


def fixed_point_linear(
    p: LinearGlbProblem,
    x0=None,
    eps: float = 1e-9,
    max_iter: int | None = None,
) -> SolveReport:
    """Full-sweep fixed-point iteration on the capped map of ``p``, with
    multiplication counting wired in (one per stored nonzero per sweep).
    ``fixed_point_linear(precondition(p))`` sweeps the preconditioned map."""
    counter = OpCounter()
    gamma, _ = contraction_rates(p)
    return _full_sweeps(
        lambda x: p.glb_eval(x, counter), p.n, p.U if x0 is None else x0,
        eps, max_iter, counter, gamma, p.a,
    )


# -- linear-program reformulation -------------------------------------------


@dataclass(frozen=True)
class LpForm:
    """Constraint system ``C x + d <= 0`` with box ``0 <= x <= U``.

    Every row of C carries exactly one positive entry and d is nonpositive;
    maximizing ``sum x_i`` over this system recovers the problem's optimum.
    """

    C: sparse.csr_array
    d: np.ndarray
    U: np.ndarray
    row_names: tuple[str, ...]


def to_lp_form(p: LinearGlbProblem) -> LpForm:
    """Rows ``x_i - A_l[i,:] x - b_l[i] <= 0`` (diagonal merged into the
    positive coefficient ``1 - A_l[i,i]``) plus the cap rows ``x_i <= U_i``."""
    n = p.n
    eye = sparse.eye_array(n, format="csr")
    C = sparse.vstack([eye - A for A, _ in p.pieces] + [eye], format="csr")
    d = -np.concatenate([b for _, b in p.pieces] + [p.U])
    names = [f"c_{ell + 1}_{i + 1}" for ell in range(p.L) for i in range(n)]
    names += [f"cap_{i + 1}" for i in range(n)]
    return LpForm(C=C, d=d, U=p.U.copy(), row_names=tuple(names))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_lp(p: LinearGlbProblem, path) -> None:
    """Write the CPLEX-LP text form of ``p``: maximize ``x1 + ... + xn``
    subject to the :func:`to_lp_form` rows, with bounds ``0 <= xi <= Ui``.
    Coefficients use the full 17-significant-digit decimal representation."""
    form = to_lp_form(p)
    lines = ["Maximize"]
    obj_terms = [f"x{i + 1}" for i in range(p.n)]
    lines.extend(_wrap_expr(" obj: " + " + ".join(obj_terms) if obj_terms else " obj: 0"))
    lines.append("Subject To")
    C = form.C
    for r, name in enumerate(form.row_names):
        lo, hi = C.indptr[r], C.indptr[r + 1]
        parts = []
        for j, v in zip(C.indices[lo:hi].tolist(), C.data[lo:hi].tolist()):
            var = f"x{j + 1}"
            coef = "" if v in (1.0, -1.0) else _fmt(abs(v)) + " "
            if not parts:
                parts.append(("- " if v < 0 else "") + coef + var)
            else:
                parts.append(("- " if v < 0 else "+ ") + coef + var)
        rhs = _fmt(-form.d[r])
        lines.extend(_wrap_expr(f" {name}: " + " ".join(parts) + " <= " + rhs))
    lines.append("Bounds")
    for i in range(p.n):
        lines.append(f" 0 <= x{i + 1} <= {_fmt(form.U[i])}")
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_LP_LINE_WIDTH = 220


def _wrap_expr(line: str) -> list[str]:
    if len(line) <= _LP_LINE_WIDTH:
        return [line]
    out = []
    current = ""
    for token in line.split(" "):
        if current and len(current) + 1 + len(token) > _LP_LINE_WIDTH:
            out.append(current)
            current = " " + token
        else:
            current = token if not current else current + " " + token
    if current:
        out.append(current)
    return out
