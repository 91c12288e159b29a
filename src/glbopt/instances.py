"""Instance generation: random-graph families, application reductions, file I/O.

Random numbers come from numpy's PCG64 keyed through ``SeedSequence``; where a
generator draws several independent streams (one per affine piece) the
substream key is the tuple ``(seed, piece_index)``, so instances are
bit-reproducible across runs for a given seed.

Instance files are single UTF-8 JSON documents::

    {"n": ..., "L": ..., "pieces": [{"A": [[row, col, value], ...], "b": [...]}, ...],
     "U": [...], "a": [...], "meta": {...}}

with 0-based row/col indices and floats serialized by shortest round-trip
representation (lossless), laid out as ``json.dump(..., indent=1)`` lays
them out (see :func:`save_instance`).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from . import _native
from .lattice import _check_integer
from .linear import LinearGlbProblem, _collector_paused, contraction_rates


class InstanceFormatError(ValueError):
    """An instance document is structurally malformed."""


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


_RAW_BLOCK = 1024  # raw PCG64 outputs fetched at a time
_LOW32 = 0xFFFFFFFF


class _ScalarDraws:
    """The scalar draws ``Generator.integers(k)`` and ``Generator.random()``
    would make on ``rng``, computed in Python from raw PCG64 outputs fetched
    ``_RAW_BLOCK`` at a time.

    ``integers(k)`` is numpy's 32-bit Lemire method on the low half, then the
    high half, of each raw output: a low product word below
    ``(2**32 - k) % k`` is redrawn, and ``k == 1`` consumes nothing.
    ``random()`` takes a whole raw output, so a pending high half survives it.
    """

    __slots__ = ("_raw", "_words", "_next", "_high")

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        self._words: list[int] = []
        self._next = 0
        self._high = None  # unused high half of the last raw output

    def _word(self) -> int:
        i = self._next
        if i == len(self._words):
            self._words = self._raw(_RAW_BLOCK).tolist()
            i = 0
        self._next = i + 1
        return self._words[i]

    def integers(self, k: int) -> int:
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"bound must lie in [1, 2**32], got {k}")
        if k == 1:
            return 0
        threshold = ((1 << 32) - k) % k
        while True:
            high = self._high
            if high is None:
                word = self._word()
                self._high = word >> 32
                m = (word & _LOW32) * k
            else:
                self._high = None
                m = high * k
            if m & _LOW32 >= threshold:
                return m >> 32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53


# -- random graph families ---------------------------------------------------

GRAPH_TAGS = ("ba", "nws", "hk")


@dataclass(frozen=True, eq=False)
class RandomGraph:
    """Undirected graph: ``edges`` is a read-only (E, 2) int64 array of
    (u, v) rows with u < v, sorted lexicographically.  Graphs compare by
    identity; compare ``edges`` with ``np.array_equal``."""

    n: int
    edges: np.ndarray
    tag: str
    seed: object

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def gen_graph(tag: str, n: int, seed, **params) -> RandomGraph:
    """Generate a graph from one of the three families, deterministically.

    ``ba``  -- preferential attachment, each new node linking to ``m`` (default 5)
    existing nodes; ``nws`` -- ring lattice over ``k`` (default 2) nearest
    neighbors plus shortcut edges added with probability ``p`` (default 3/n);
    ``hk`` -- preferential attachment with ``m`` (default 4) links per node and
    triangle-closing probability ``p`` (default 0.25).

    Every draw equals the ``Generator.integers(k)`` or ``Generator.random()``
    call it replaces on the raw PCG64 stream (see :class:`_ScalarDraws`), so a
    graph depends only on PCG64 output, which NumPy keeps stable across
    versions, and not on how ``Generator`` methods are implemented.  BA's
    attachment loop runs in C where the native library loads; the Python loop
    of :func:`_ba_targets` is its reference, and both give the same edges.
    """
    n = _check_integer("n", n)
    key = tag.lower()
    draws = _ScalarDraws(_rng(seed))
    if key == "ba":
        m = _check_integer("m", params.pop("m", 5))
        _no_extra(params, tag)
        edges = _ba_edges(n, m, draws)
    elif key == "nws":
        k = _check_integer("k", params.pop("k", 2))
        p = float(params.pop("p", 3.0 / n if n else 0.0))
        _no_extra(params, tag)
        edges = _nws_edges(n, k, p, draws)
    elif key == "hk":
        m = _check_integer("m", params.pop("m", 4))
        p = float(params.pop("p", 0.25))
        _no_extra(params, tag)
        edges = _hk_edges(n, m, p, draws)
    else:
        raise ValueError(f"unknown graph family {tag!r}; expected one of {GRAPH_TAGS}")
    edges.setflags(write=False)
    return RandomGraph(n=n, edges=edges, tag=key, seed=seed)


def _no_extra(params: dict, tag: str) -> None:
    if params:
        raise ValueError(f"unknown parameters for family {tag!r}: {sorted(params)}")


def _ba_edges(n, m, draws):
    """Preferential attachment: node s = m .. n-1 links to m distinct nodes,
    drawn from a pool that holds each earlier link's two ends.

    The loop runs in C (``glbopt_ba_targets`` in ``_native.c``) when the
    native library loads, on the raw words of the same generator, and
    otherwise in Python: :func:`_ba_targets` is the reference, and both give
    the same edges.  ``draws`` must be fresh, with no word consumed.
    """
    if m < 1 or n <= m:
        raise ValueError(f"Barabasi-Albert needs 1 <= m < n, got m={m}, n={n}")
    native = _native.function("glbopt_ba_targets")
    if native is None:
        lo = np.array(_ba_targets(n, m, draws), dtype=np.int64)
    else:
        lo = np.empty((n - m) * m, dtype=np.int64)
        native(n, m, draws._raw, _RAW_BLOCK, lo)
    hi = np.repeat(np.arange(m, n, dtype=np.int64), m)
    order = _row_major_order(lo, hi, n)
    return np.column_stack((lo[order], hi[order]))


def _row_major_order(row, col, n):
    """``np.lexsort((col, row))`` for indices in ``[0, n)``: the order of the
    pairs by row, then column, with equal pairs in the order given.

    Distinct pairs are ordered by scipy's CSR conversion, which carries each
    pair's position as its value into sorted place; where a pair repeats,
    the conversion sums those positions, and ``np.lexsort`` runs instead.
    """
    csr = sparse.csr_array((np.arange(row.size), (row, col)), shape=(n, n))
    if csr.nnz != row.size:
        return np.lexsort((col, row))
    csr.sort_indices()
    return csr.data


def _ba_targets(n, m, draws):
    """The m targets of each new node, node after node: the attachment loop
    in Python, the fallback and the reference of the C one."""
    integers = draws.integers
    linked: list[int] = []
    repeated: list[int] = []
    targets = list(range(m))
    for source in range(m, n):
        linked.extend(targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[integers(len(repeated))])
        targets = sorted(chosen)
    return linked


def _nws_edges(n, k, p, draws):
    if k < 2 or k % 2:
        raise ValueError(f"ring degree k must be a positive even integer, got {k}")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"shortcut probability must be in [0, 1], got {p}")
    edge_set: set[tuple[int, int]] = set()
    for u in range(n):
        for d in range(1, k // 2 + 1):
            v = (u + d) % n
            edge_set.add((min(u, v), max(u, v)))
    degree = [k] * n
    for u, _ in sorted(edge_set):
        if draws.random() < p:
            if degree[u] >= n - 1:
                continue
            while True:
                w = draws.integers(n)
                if w != u and (min(u, w), max(u, w)) not in edge_set:
                    break
            edge_set.add((min(u, w), max(u, w)))
            degree[u] += 1
            degree[w] += 1
    return np.array(sorted(edge_set), dtype=np.int64).reshape(-1, 2)


def _hk_edges(n, m, p, draws):
    if m < 1 or n <= m:
        raise ValueError(f"Holme-Kim needs 1 <= m < n, got m={m}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"triangle probability must be in [0, 1], got {p}")
    edge_set: set[tuple[int, int]] = set()
    adjacency: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = []

    def connect(u, v):
        edge_set.add((min(u, v), max(u, v)))
        adjacency[u].add(v)
        adjacency[v].add(u)
        repeated.append(v)

    for source in range(m, n):
        if repeated:
            pool: set[int] = set()
            while len(pool) < m:
                pool.add(repeated[draws.integers(len(repeated))])
            possible = sorted(pool)
        else:
            possible = list(range(m))
        target = possible.pop()
        connect(source, target)
        count = 1
        while count < m:
            if draws.random() < p:
                hood = sorted(
                    nb for nb in adjacency[target]
                    if nb != source and nb not in adjacency[source]
                )
                if hood:
                    nb = hood[draws.integers(len(hood))]
                    connect(source, nb)
                    target = nb
                    count += 1
                    continue
            # preferential step; triad closures may have consumed pending
            # candidates, so reject until a fresh node is found (every new
            # node contributes exactly m edges)
            target = None
            while possible:
                cand = possible.pop()
                if cand not in adjacency[source]:
                    target = cand
                    break
            attempts = 0
            while target is None:
                cand = repeated[draws.integers(len(repeated))]
                if cand != source and cand not in adjacency[source]:
                    target = cand
                attempts += 1
                if attempts > 64 * n:
                    fresh = sorted(set(range(source)) - adjacency[source])
                    target = fresh[draws.integers(len(fresh))]
            connect(source, target)
            count += 1
        repeated.extend([source] * m)
    return np.array(sorted(edge_set), dtype=np.int64).reshape(-1, 2)


# -- random linear problems ---------------------------------------------------


def random_linear_problem(
    graphs: Sequence[RandomGraph],
    max_coeff: float = 0.5,
    max_offset: float = 1.0,
    cap: float = 1e5,
    seed: int = 0,
) -> LinearGlbProblem:
    """One affine piece per graph: the symmetric adjacency pattern filled with
    independent uniform draws on [0, max_coeff], offsets uniform on
    [0, max_offset], cap ``U = cap * ones`` and lower bound zero."""
    if not graphs:
        raise ValueError("need at least one graph")
    sizes = {g.n for g in graphs}
    if len(sizes) != 1:
        raise ValueError(f"graphs must share a node count, got {sorted(sizes)}")
    n = sizes.pop()
    pieces = []
    for ell, graph in enumerate(graphs):
        rng = _rng((seed, ell))
        u, v = graph.edges.T
        row, col = np.concatenate((u, v)), np.concatenate((v, u))
        order = _row_major_order(row, col, n)  # so each draw lands on a fixed entry
        vals = rng.uniform(0.0, max_coeff, size=order.size)
        b = rng.uniform(0.0, max_offset, size=n)
        pieces.append((sparse.coo_array((vals, (row[order], col[order])), shape=(n, n)), b))
    meta = {
        "generator": "random_linear",
        "seed": seed,
        "params": {
            "families": [g.tag for g in graphs],
            "graph_seeds": [repr(g.seed) for g in graphs],
            "max_coeff": max_coeff,
            "max_offset": max_offset,
            "cap": cap,
        },
    }
    return LinearGlbProblem(pieces, U=np.full(n, float(cap)), meta=meta)


def rescale_to_gamma(p: LinearGlbProblem, gamma_max: float) -> LinearGlbProblem:
    """Shrink the matrices so the plain contraction rate is at most ``gamma_max``
    (offsets and cap untouched)."""
    gamma, _ = contraction_rates(p)
    if gamma <= gamma_max or gamma == 0.0:
        return p
    factor = gamma_max / gamma
    meta = dict(p.meta)
    meta.setdefault("params", {})
    return LinearGlbProblem([(A * factor, b) for A, b in p.pieces], U=p.U, a=p.a, meta=meta)


def dominant_diagonal_problem(n: int, L: int, gamma: float, delta: float, seed: int) -> LinearGlbProblem:
    """Instance whose rows have diagonal ``gamma * (1 - delta/2)`` and up to
    two off-diagonal entries summing to ``0.4 * delta * gamma``: the realized
    dominance gap is about ``0.42 * delta``, safely inside any target interval
    the caller picked ``delta`` from.  Offsets are uniform on [0.1, 1] and
    the cap is ``10 / (1 - gamma) + 10``."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n < 2:
        raise ValueError("need n >= 2 for off-diagonal structure")
    diag_value = gamma * (1.0 - 0.5 * delta)
    off_total = 0.4 * delta * gamma
    pieces = []
    for ell in range(L):
        rng = _rng((seed, ell))
        rows, cols, vals = [], [], []
        for i in range(n):
            rows.append(i)
            cols.append(i)
            vals.append(diag_value)
            others = rng.choice(n - 1, size=min(2, n - 1), replace=False)
            others += others >= i  # skip the diagonal
            weights = rng.uniform(0.2, 1.0, size=len(others))
            weights *= off_total / weights.sum()
            for j, w in zip(others, weights):
                rows.append(i)
                cols.append(int(j))
                vals.append(float(w))
        b = rng.uniform(0.1, 1.0, size=n)
        pieces.append((sparse.coo_array((vals, (rows, cols)), shape=(n, n)), b))
    cap = 10.0 / (1.0 - gamma) + 10.0
    meta = {
        "generator": "dominant_diagonal",
        "seed": seed,
        "params": {"gamma": gamma, "delta": delta, "L": L},
    }
    return LinearGlbProblem(pieces, U=np.full(n, float(cap)), meta=meta)


# -- speed planning -----------------------------------------------------------


@dataclass(frozen=True)
class SpeedPlanSpec:
    """Discretized speed-planning data: squared-speed profile over ``samples``
    equispaced points of a path of length ``path_length``."""

    path_length: float
    samples: int
    curvature: np.ndarray
    v_max: float
    acc_tangential: float
    acc_normal: float

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.samples}")
        for name in ("path_length", "v_max", "acc_tangential", "acc_normal"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        k = np.asarray(self.curvature, dtype=float)
        if k.shape != (self.samples,):
            raise ValueError(f"curvature must have shape ({self.samples},), got {k.shape}")
        if not np.all(np.isfinite(k)):
            i = int(np.argmin(np.isfinite(k)))
            raise ValueError(f"curvature must be finite, got curvature[{i}] = {float(k[i])!r}")
        object.__setattr__(self, "curvature", k)

    @property
    def h(self) -> float:
        return self.path_length / (self.samples - 1)


def speed_planning_problem(spec: SpeedPlanSpec) -> LinearGlbProblem:
    """Encode the squared-speed planning problem: two affine pieces couple each
    sample to its neighbors through the tangential-acceleration band
    ``w_i <= h*A_T + w_{i+-1}``, the cap carries the speed and curvature
    limits, and the boundary samples are pinned to zero via zero cap rows."""
    n = spec.samples
    h_at = spec.h * spec.acc_tangential
    U = np.full(n, spec.v_max**2)
    k = np.abs(spec.curvature)
    curved = k > 0
    U[curved] = np.minimum(U[curved], spec.acc_normal / k[curved])
    U[0] = 0.0
    U[n - 1] = 0.0

    # backward piece w_i <= h*A_T + w_{i-1}, then forward piece w_i <= h*A_T + w_{i+1}
    inner = np.arange(1, n)
    ones = np.ones(n - 1)
    pieces = [_band_piece(inner, inner - 1, ones, h_at, U),
              _band_piece(inner - 1, inner, ones, h_at, U)]
    meta = {
        "generator": "speed_planning",
        "seed": None,
        "params": {
            "path_length": spec.path_length,
            "samples": n,
            "v_max": spec.v_max,
            "acc_tangential": spec.acc_tangential,
            "acc_normal": spec.acc_normal,
        },
    }
    return LinearGlbProblem(pieces, U=U, meta=meta)


def _band_piece(rows, cols, gains, offsets, cap):
    """The piece ``(A, b)`` whose row ``rows[i]`` reads ``gains[i] *
    w[cols[i]] + offsets[i]``; every other row is the trivially satisfied
    cap row."""
    n = cap.size
    b = cap.copy()
    b[rows] = offsets
    return sparse.coo_array((gains, (rows, cols)), shape=(n, n)), b


def maneuver_time(w, h: float) -> float:
    """Total traversal time ``2h * sum 1/(sqrt(w_i) + sqrt(w_{i+1}))`` of a
    squared-speed profile; +inf when two consecutive samples are both zero."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("need a profile of at least two samples")
    if np.any(w < 0):
        raise ValueError(f"negative squared speed at sample {int(np.argmin(w))}")
    if not h > 0:
        raise ValueError(f"sample spacing must be positive, got {h}")
    roots = np.sqrt(w)
    denom = roots[:-1] + roots[1:]
    if np.any(denom == 0.0):
        return math.inf
    return float(2.0 * h * np.sum(1.0 / denom))


def load_curvature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (arc length, curvature) CSV; rows that do not parse
    as two floats (headers, comments) are skipped, and a non-finite value is
    an error naming its line.

    A file of one optional skipped line then only rows of two finite floats
    is read whole by ``np.loadtxt``; any other goes through
    :func:`_csv_curvature_rows`, the row-by-row reference, which gives the
    same floats for the files ``np.loadtxt`` takes.
    """
    table = _loadtxt_curvature_rows(path)
    s, k = _csv_curvature_rows(path) if table is None else table.T.copy()
    if len(s) < 2:
        raise InstanceFormatError(f"{path}: need at least two numeric (s, k) rows")
    if np.any(np.diff(s) <= 0):
        raise InstanceFormatError(f"{path}: arc length must be strictly increasing")
    return s, k


def _number_pair(record: list[str]) -> tuple[float, float] | None:
    """The first two fields of a CSV record as floats, or None when the row
    is skipped."""
    if len(record) < 2:
        return None
    try:
        return float(record[0]), float(record[1])
    except ValueError:
        return None


def _csv_curvature_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The (s, k) columns of every row :func:`_number_pair` takes, read by
    ``csv.reader``; a non-finite value raises naming its line."""
    s_vals, k_vals = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for record in reader:
            pair = _number_pair(record)
            if pair is None:
                continue
            s, k = pair
            if not (math.isfinite(s) and math.isfinite(k)):
                raise InstanceFormatError(
                    f"{path}, line {reader.line_num}: non-finite (s, k) = ({s!r}, {k!r})"
                )
            s_vals.append(s)
            k_vals.append(k)
    return np.array(s_vals), np.array(k_vals)


def _loadtxt_curvature_rows(path) -> np.ndarray | None:
    """The (rows, 2) table of a file whose first line, if it holds no quote,
    may be one that :func:`_number_pair` skips and whose other lines
    ``np.loadtxt`` reads as two finite floats each; None for any other file."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
    if '"' in first:
        return None
    skip = _number_pair(next(csv.reader([first]), [])) is None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty table warns
            table = np.loadtxt(path, delimiter=",", comments=None, skiprows=int(skip),
                               ndmin=2, encoding="utf-8")
    except (ValueError, UserWarning):
        return None
    if table.shape[1] != 2 or not np.isfinite(table).all():
        return None
    return table


def speed_plan_spec_from_csv(
    path, samples: int, v_max: float, acc_tangential: float, acc_normal: float
) -> SpeedPlanSpec:
    """Resample a curvature CSV onto ``samples`` equispaced points by linear
    interpolation and wrap it into a :class:`SpeedPlanSpec`."""
    s, k = load_curvature_csv(path)
    grid = np.linspace(s[0], s[-1], samples)
    return SpeedPlanSpec(
        path_length=float(s[-1] - s[0]),
        samples=samples,
        curvature=np.interp(grid, s, k),
        v_max=v_max,
        acc_tangential=acc_tangential,
        acc_normal=acc_normal,
    )


# -- manipulator reduction ----------------------------------------------------


def manipulator_problem(forward_gain, forward_offset, backward_gain, backward_offset, cap) -> LinearGlbProblem:
    """Speed planning along a manipulator path: ``p`` forward bands
    ``w_i <= f[j,i] w_{i+1} + c[j,i]`` and ``p`` backward bands
    ``w_{i+1} <= b[j,i] w_i + d[j,i]`` over ``n`` samples, squared-speed cap
    ``u``.  All coefficients must be nonnegative."""
    f = np.asarray(forward_gain, dtype=float)
    c = np.asarray(forward_offset, dtype=float)
    bk = np.asarray(backward_gain, dtype=float)
    d = np.asarray(backward_offset, dtype=float)
    u = np.asarray(cap, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"coefficient arrays must be (p, n-1), got shape {f.shape}")
    p_count, nm1 = f.shape
    n = nm1 + 1
    for name, arr in (("forward_offset", c), ("backward_gain", bk), ("backward_offset", d)):
        if arr.shape != (p_count, nm1):
            raise ValueError(f"{name} must have shape {(p_count, nm1)}, got {arr.shape}")
    if u.shape != (n,):
        raise ValueError(f"cap must have shape ({n},), got {u.shape}")
    for name, arr in (
        ("forward_gain", f), ("forward_offset", c),
        ("backward_gain", bk), ("backward_offset", d), ("cap", u),
    ):
        if arr.size and arr.min() < 0:
            raise ValueError(f"{name} must be nonnegative")

    rows = np.arange(0, n - 1)
    pieces = [_band_piece(rows, rows + 1, f[j], c[j], u) for j in range(p_count)]
    pieces += [_band_piece(rows + 1, rows, bk[j], d[j], u) for j in range(p_count)]
    meta = {"generator": "manipulator", "seed": None, "params": {"p": p_count, "n": n}}
    return LinearGlbProblem(pieces, U=u, meta=meta)


# -- discrete HJB on a regular grid -------------------------------------------


@dataclass(frozen=True)
class HjbGridSpec:
    """Discounted infinite-horizon control problem discretized on a regular
    1D or 2D grid: ``axes`` lists (lo, hi, points) per state dimension,
    ``controls`` the finite control set, ``dynamics(x, u)`` the drift,
    ``running_cost(x, u)`` the nonnegative stage cost, ``discount`` the rate
    lambda > 0 and ``step`` the integration step h in (0, 1/lambda].

    :func:`hjb_grid_problem` calls ``running_cost`` and then ``dynamics``
    once per control and node, in node order (row-major over the axes),
    control after control; ``dynamics`` is not called when
    ``discount * step == 1``, as the matrices are then zero.  Each callable
    receives the node as a float in 1D and as a length-2 array in 2D, and
    the control as a length-``dim`` array; ``running_cost`` returns a float
    and ``dynamics`` a float or a ``dim``-vector.  A drift may be infinite
    (the displaced point is clamped into the grid hull); a NaN drift and a
    NaN or infinite cost are errors.
    """

    axes: tuple
    controls: tuple
    dynamics: Callable
    running_cost: Callable
    discount: float
    step: float

    def __post_init__(self):
        axes = tuple((float(lo), float(hi), int(count)) for lo, hi, count in self.axes)
        if len(axes) not in (1, 2):
            raise ValueError(f"state dimension must be 1 or 2, got {len(axes)}")
        for lo, hi, count in axes:
            if count < 2:
                raise ValueError(f"each axis needs at least 2 points, got {count}")
            if not lo < hi:
                raise ValueError(f"axis extent must satisfy lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "axes", axes)
        controls = tuple(np.atleast_1d(np.asarray(u, dtype=float)) for u in self.controls)
        if not controls:
            raise ValueError("control set must be nonempty")
        object.__setattr__(self, "controls", controls)
        if not self.discount > 0:
            raise ValueError(f"discount rate must be positive, got {self.discount}")
        if not 0.0 < self.step <= 1.0 / self.discount:
            raise ValueError(
                f"step must lie in (0, 1/discount] = (0, {1.0 / self.discount}], got {self.step}"
            )

    @property
    def dim(self) -> int:
        return len(self.axes)

    def grid_points(self) -> np.ndarray:
        """Node coordinates, row-major over the axes, shape (N, dim)."""
        axes_vals = [np.linspace(lo, hi, count) for lo, hi, count in self.axes]
        if self.dim == 1:
            return axes_vals[0][:, None]
        X, Y = np.meshgrid(axes_vals[0], axes_vals[1], indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


def hjb_preset(name: str, grid_n: int, discount: float = 1.0, step: float = 0.5) -> HjbGridSpec:
    """Named dynamic-programming demo specs usable from the command line."""
    if name == "const1d":
        return HjbGridSpec(
            axes=((-1.0, 1.0, grid_n),),
            controls=(0.0,),
            dynamics=lambda x, u: 0.0 * u,
            running_cost=lambda x, u: 1.0,
            discount=discount,
            step=step,
        )
    if name == "drift1d":
        return HjbGridSpec(
            axes=((-2.0, 2.0, grid_n),),
            controls=(-1.0, 0.0, 1.0),
            dynamics=lambda x, u: u,
            running_cost=lambda x, u: float(x) ** 2,
            discount=discount,
            step=step,
        )
    if name == "spin2d":
        return HjbGridSpec(
            axes=((-1.0, 1.0, grid_n), (-1.0, 1.0, grid_n)),
            controls=((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)),
            dynamics=lambda x, u: u,
            running_cost=lambda x, u: float(x[0]) ** 2 + float(x[1]) ** 2,
            discount=discount,
            step=step,
        )
    raise ValueError(f"unknown hjb preset {name!r}; expected const1d, drift1d or spin2d")


def hjb_grid_problem(spec: HjbGridSpec) -> LinearGlbProblem:
    """Discrete dynamic-programming equations as a linear glb instance.

    One piece per control: row i carries the multilinear interpolation
    weights of the displaced point ``x_i + h f(x_i, u)`` (clamped into the
    grid hull) scaled by ``1 - lambda h``, the offset is ``h g(x_i, u)`` and
    the cap is ``1/lambda``.  Row sums equal ``1 - lambda h`` exactly: the
    last weight of each row absorbs the rounding remainder.

    The callables run once per control and node, in node order (see
    :class:`HjbGridSpec`); everything else runs on whole arrays.  A fault is
    reported at the first node that has one, the cost before the drift.
    """
    lam, h = spec.discount, spec.step
    decay = 1.0 - lam * h
    nodes = spec.grid_points()
    N = nodes.shape[0]
    points = list(nodes[:, 0] if spec.dim == 1 else nodes)

    pieces = []
    for k, u in enumerate(spec.controls):
        cost, drift = _node_values(spec, k, u, points, decay != 0.0)
        if decay == 0.0:
            A = sparse.coo_array((N, N))
        else:
            A = _interpolation_rows(spec, nodes + h * drift, decay)
        pieces.append((A, h * cost))

    meta = {
        "generator": "hjb_grid",
        "seed": None,
        "params": {
            "axes": [list(ax) for ax in spec.axes],
            "controls": [np.atleast_1d(u).tolist() for u in spec.controls],
            "discount": lam,
            "step": h,
        },
    }
    return LinearGlbProblem(pieces, U=np.full(N, 1.0 / lam), meta=meta)


def _node_values(spec: HjbGridSpec, k: int, u, points: list, with_drift: bool):
    """Running cost (N,) and drift (N, dim) of every node under the ``k``-th
    control ``u``; the dynamics is called only ``with_drift``.

    Converted on whole arrays; when that fails or finds a bad value,
    :func:`_checked_node_values` converts node by node and names the first
    fault.  If a callable raises, a fault at an earlier node is named first.
    """
    cost_fn, drift_fn = spec.running_cost, spec.dynamics
    costs, drifts = [], []
    try:
        for x in points:
            costs.append(cost_fn(x, u))
            if with_drift:
                drifts.append(drift_fn(x, u))
    except Exception:
        _checked_node_values(spec, k, costs, drifts)
        raise
    N, dim = len(costs), spec.dim
    try:
        cost = np.fromiter(map(float, costs), float, N)
        drift = np.array(drifts, dtype=float) if with_drift else np.zeros((N, dim))
    except (TypeError, ValueError, OverflowError):
        return _checked_node_values(spec, k, costs, drifts)
    if dim == 1 and drift.shape == (N,):
        drift = drift[:, None]
    if (drift.shape != (N, dim) or np.isnan(drift).any()
            or not np.all((cost >= 0.0) & (cost < math.inf))):
        return _checked_node_values(spec, k, costs, drifts)
    return cost, drift


def _checked_node_values(spec: HjbGridSpec, k: int, costs: list, drifts: list):
    """:func:`_node_values` converted node by node: raises at the first
    node with a fault, checking its cost before its drift."""
    dim = spec.dim
    cost, drift = np.empty(len(costs)), np.zeros((len(costs), dim))
    for i, c in enumerate(costs):
        cost[i] = c = float(c)
        if c < 0:
            raise ValueError(f"running cost must be nonnegative, got {c} at node {i}")
        if not math.isfinite(c):
            raise ValueError(f"running cost must be finite, got {c} at node {i}, control {k}")
        if i < len(drifts):
            d = np.atleast_1d(np.asarray(drifts[i], dtype=float))
            if d.shape != (dim,):
                raise ValueError(f"dynamics must return a {dim}-vector, got shape {d.shape}")
            if np.isnan(d).any():
                raise ValueError(
                    f"dynamics returned NaN, got {d.tolist()} at node {i}, control {k}"
                )
            drift[i] = d
    return cost, drift


def _interpolation_rows(spec: HjbGridSpec, y: np.ndarray, decay: float) -> sparse.coo_array:
    """Row i holds ``decay`` times the multilinear weights of the point
    ``y[i]`` clamped into the grid hull, with the row sum forced to
    ``decay`` exactly by :func:`_force_row_sums`."""
    cells, fracs = [], []
    for (lo, hi, count), coord in zip(spec.axes, y.T):
        coord = np.where(lo > coord, lo, coord)  # max(coord, lo), min(., hi) as Python takes them
        coord = np.where(hi < coord, hi, coord)
        pos = (coord - lo) / ((hi - lo) / (count - 1))
        j = np.minimum(np.floor(pos).astype(np.int64), count - 2)
        cells.append(j)
        fracs.append(pos - j)
    if spec.dim == 1:
        (j,), (t,) = cells, fracs
        w_hi = decay * t
        cols = np.column_stack((j, j + 1))
        weights = np.column_stack((decay - w_hi, w_hi))
    else:
        (j1, j2), (t1, t2) = cells, fracs
        stride = spec.axes[1][2]
        base = j1 * stride + j2
        cols = np.column_stack((base, base + 1, base + stride, base + stride + 1))
        s1, s2 = 1 - t1, 1 - t2
        weights = decay * np.column_stack((s1 * s2, s1 * t2, t1 * s2, t1 * t2))
    N = len(y)
    return sparse.coo_array(_force_row_sums(cols, weights, decay), shape=(N, N))


def _force_row_sums(cols: np.ndarray, weights: np.ndarray, target: float):
    """``(values, (rows, cols))`` of each row's positive ``weights`` at ``cols``
    (both (N, K), columns ascending along a row), with the last weight adjusted so
    that the ascending sequential float sum of the row equals ``target > 0``
    exactly: the summation order of a sparse row-times-ones product.

    The last weight becomes ``last = fl(target - prefix)``, where ``prefix``
    is the float sum of the weights before it.  A row keeps it when ``last >
    0`` and ``fl(prefix + last) == target``; otherwise it drops that entry
    and tries again with the one before.  The node-by-node reference in the
    tests also tries up to 64 ulp steps of ``last`` after that check.  None
    can succeed, so one comparison decides.  Let ``0 < prefix < target``
    (else ``last <= 0``, or ``prefix == 0`` and ``last == target`` passes):

    * ``prefix >= target/2``: by Sterbenz's lemma ``target - prefix`` is
      exact, so ``prefix + last == target`` exactly and the check passes.
    * ``prefix < target/2``: ``d = target - prefix`` lies in ``(target/2,
      target)``, so its ulp is at most the spacing of floats on either side
      of ``target`` (below a power of two the spacing halves, and so does
      the ulp of ``d``).  ``prefix + last`` is ``target + (last - d)`` with
      ``|last - d| <= ulp(d)/2``, within half a spacing of ``target``, so it
      rounds to ``target`` unless it is a tie that rounds to even away from
      it.  Such a tie needs a ``target`` whose last significand bit is 1,
      so not a power of two, with spacing ``ulp(target)`` on both sides,
      and ``ulp(d) == ulp(target)``.  Then ``last`` lies in the binade of
      ``target``, where the ulp step the reference takes is one spacing: it
      moves the sum to the mirror tie on the other side of ``target``,
      which also rounds to the even neighbour, and the next step moves it
      back.
    """
    N, K = weights.shape
    keep = weights > 0.0
    order = np.argsort(~keep, axis=1, kind="stable")  # kept entries first, in column order
    cols = np.take_along_axis(cols, order, axis=1)
    weights = np.take_along_axis(weights, order, axis=1)
    count = keep.sum(axis=1)
    rows = np.flatnonzero(count)
    while rows.size:
        c = count[rows]
        prefix = np.add.accumulate(weights[rows], axis=1)  # sequential, left to right
        prefix = np.where(c >= 2, prefix[np.arange(rows.size), np.maximum(c - 2, 0)], 0.0)
        last = target - prefix
        ok = (last > 0.0) & (prefix + last == target)
        weights[rows[ok], c[ok] - 1] = last[ok]
        rows = rows[~ok]
        count[rows] -= 1
        rows = rows[count[rows] > 0]
    stored = np.arange(K) < count[:, None]
    return weights[stored], (np.repeat(np.arange(N), count), cols[stored])


# -- named families -----------------------------------------------------------

FAMILIES = GRAPH_TAGS + ("speedplan", "hjb")
# the families whose builds read no seed: one instance per size for every seed
SEEDLESS = ("speedplan", "hjb")


def generate(
    family: str,
    n: int,
    seed: int = 1,
    *,
    pieces: int = 4,
    max_coeff: float = 0.5,
    max_offset: float = 1.0,
    cap: float = 1e5,
    graph_m: int | None = None,
    graph_k: int | None = None,
    graph_p: float | None = None,
    curvature_csv=None,
    path_length: float | None = None,
    v_max: float = 5.0,
    acc_t: float = 1.0,
    acc_n: float = 1.0,
    preset: str = "const1d",
    discount: float = 1.0,
    step: float = 0.5,
) -> LinearGlbProblem:
    """Build one instance of a named family at size ``n``, as ``glbopt gen``
    does; the keywords are its flags.  A family ignores the keywords it does
    not read:

    graph families (``ba``, ``nws``, ``hk``) -- ``pieces`` graphs seeded
    ``(seed, piece)``, shaped by ``graph_m``, ``graph_k`` and ``graph_p``
    (None keeps :func:`gen_graph`'s default; one the family has no use for,
    such as ``graph_k`` for ba, raises ValueError), filled by
    :func:`random_linear_problem` with ``max_coeff``, ``max_offset`` and ``cap``;
    ``speedplan`` -- ``n`` samples of the curvature in ``curvature_csv``, or of
    a straight path of length ``path_length`` (default ``n - 1``), with
    ``v_max``, ``acc_t`` and ``acc_n``;
    ``hjb`` -- :func:`hjb_preset` ``preset`` on ``n`` points per axis with
    ``discount`` and ``step``.
    """
    n = _check_integer("n", n)
    if family in GRAPH_TAGS:
        pieces = _check_integer("pieces", pieces)
        shape = {"m": graph_m, "k": graph_k, "p": graph_p}
        params = {key: value for key, value in shape.items() if value is not None}
        graphs = [gen_graph(family, n, seed=(seed, ell), **params) for ell in range(pieces)]
        return random_linear_problem(
            graphs, max_coeff=max_coeff, max_offset=max_offset, cap=cap, seed=seed
        )
    if family == "speedplan":
        if curvature_csv:
            spec = speed_plan_spec_from_csv(curvature_csv, n, v_max, acc_t, acc_n)
        else:
            spec = SpeedPlanSpec(
                path_length=float(n - 1) if path_length is None else path_length,
                samples=n,
                curvature=np.zeros(n),
                v_max=v_max,
                acc_tangential=acc_t,
                acc_normal=acc_n,
            )
        return speed_planning_problem(spec)
    if family == "hjb":
        return hjb_grid_problem(hjb_preset(preset, n, discount, step))
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


# -- instance files -----------------------------------------------------------


_CHUNK = 4096  # list entries formatted and written at a time
# the text json.dump(..., indent=1) puts around the entries of a nonempty list
# of [row, col, value] triplets at nesting depth 3: before the first, between
# two and after the last; and between two scalars of a triplet
_TRIPLETS = ("[\n    [\n     ", "\n    ],\n    [\n     ", "\n    ]\n   ]")
_ITEM = ",\n     "


def _vector_layout(depth: int) -> tuple[str, str, str]:
    """The text around the entries of a nonempty list of floats at nesting
    ``depth``, as :data:`_TRIPLETS` is for triplets."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad, "," + pad, "\n" + " " * depth + "]"


@functools.cache
def _pow5_tables() -> tuple[np.ndarray, np.ndarray]:
    """The power-of-five tables of ``glbopt_write_list`` in ``_native.c``,
    from exact integers, as flat (low, high) uint64 word pairs:
    ``2**(125 + floor(log2 5**q)) // 5**q + 1`` for ``q < 342`` and the
    leading 125 bits of ``5**i`` for ``i < 326``."""
    inverse = [(1 << (124 + (5**q).bit_length())) // 5**q + 1 for q in range(342)]
    leading = [(5**i << 125) >> (5**i).bit_length() for i in range(326)]
    return tuple(np.array([(v & 0xFFFFFFFFFFFFFFFF, v >> 64) for v in table], dtype=np.uint64).ravel()
                 for table in (inverse, leading))


def _native_list(native, fh, values: np.ndarray, index: np.ndarray, layout) -> None:
    """Write a nonempty list through ``glbopt_write_list`` in ``_native.c``:
    the text of entry p is the ints of ``index[p]``, each followed by
    :data:`_ITEM`, then ``repr(values[p])``; ``layout`` is the (head,
    separator, tail) text around the entries.  C makes the text in a buffer
    of ``_CHUNK`` entries that it hands to ``fh.write`` each time it fills."""
    if index.shape[0] != values.size:  # C reads index.shape[1] ints per value
        raise ValueError(f"need one index row per value, got {index.shape[0]} for {values.size}")
    inverse, leading = _pow5_tables()
    head, sep, tail = (text.encode() for text in layout)
    native(fh.write, index.ravel(), index.shape[1], values, values.size, _CHUNK,
           head, sep, _ITEM.encode(), tail, inverse, inverse.size // 2, leading, leading.size // 2)


def _python_list(index_text: np.ndarray, fh, values: np.ndarray, index: np.ndarray, layout) -> None:
    """:func:`_native_list` in Python, its fallback and reference, with
    ``index_text[i] == str(i)``.

    Each chunk of ``_CHUNK`` entries fills the rows of one object array of
    tokens (separator, then each int's text and :data:`_ITEM`, then the
    value's ``repr``) by slice assignment from tables of distinct tokens, and
    one ``"".join`` writes it.  ``repr`` runs once per distinct bit pattern
    of ``values`` (``np.unique`` on the int64 view), so ``-0.0`` keeps its
    own text apart from ``0.0``.
    """
    head, sep, tail = layout
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    tokens = np.empty((min(_CHUNK, values.size), 2 + 2 * index.shape[1]), dtype=object)
    tokens[:, 0] = sep
    tokens[0, 0] = head
    tokens[:, 2:-1:2] = _ITEM
    for start in range(0, values.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        block = tokens[: values[chunk].size]
        block[:, 1:-1:2] = index_text[index[chunk]]
        block[:, -1] = text[where[chunk]]
        fh.write("".join(block.ravel().tolist()).encode())
        tokens[0, 0] = sep
    fh.write(tail.encode())


def save_instance(p: LinearGlbProblem, path) -> None:
    """Write the JSON instance document; floats round-trip bit-for-bit.

    The document is streamed in exactly the layout of ``json.dump(doc, fh,
    indent=1)`` plus a final newline: one scalar per line, triplets in the
    canonical CSR order each piece is stored in (row-major, columns
    ascending), floats by ``repr``.

    Each nonempty list (each piece's triplets, each vector) is written by
    one call of ``glbopt_write_list`` in ``_native.c`` where the native
    library loads (:func:`_native_list`), and otherwise by
    :func:`_python_list`; both write ``_CHUNK`` entries at a time, so no
    per-entry text outlives a chunk.
    """
    # encoded before the file is opened, so a meta json cannot encode leaves
    # no partial file; json escapes newlines inside strings, so every newline
    # in the text is layout and takes the one extra space of nesting
    meta = json.dumps(p.meta, indent=1).replace("\n", "\n ")
    native = _native.function("glbopt_write_list")
    if native is None:
        index_text = np.array(list(map(str, range(p.n))), dtype=object)
        write_list = functools.partial(_python_list, index_text)
    else:
        write_list = functools.partial(_native_list, native)
    with open(path, "wb") as fh:

        def put_list(values, layout, index=None):
            if not values.size:
                fh.write(b"[]")
            else:
                write_list(fh, values, np.empty((values.size, 0), np.int64) if index is None
                           else index, layout)

        fh.write(b'{\n "n": %d,\n "L": %d,\n "pieces": [' % (p.n, p.L))
        for ell, (A, b) in enumerate(p.pieces):
            fh.write(b',\n  {\n   "A": ' if ell else b'\n  {\n   "A": ')
            coo = A.tocoo()  # row-major: pieces are canonical CSR
            index = np.empty((coo.nnz, 2), np.int64)
            index[:, 0] = coo.row
            index[:, 1] = coo.col
            put_list(coo.data, _TRIPLETS, index)
            fh.write(b',\n   "b": ')
            put_list(b, _vector_layout(3))
            fh.write(b"\n  }")
        fh.write(b"\n ],\n" if p.L else b"],\n")
        fh.write(b' "U": ')
        put_list(p.U, _vector_layout(1))
        fh.write(b',\n "a": ')
        put_list(p.a, _vector_layout(1))
        fh.write(b',\n "meta": ' + meta.encode() + b"\n}\n")


def load_instance(path) -> LinearGlbProblem:
    """Read and validate a JSON instance document.

    Structural faults raise :class:`InstanceFormatError` naming the piece and
    entry; value faults (negative entries) surface from problem construction
    with their (piece, row, col) location, and diagonal entries >= 1 are
    replaced under a :class:`~glbopt.linear.RedundantRowWarning` exactly as in
    direct construction.
    """
    pieces, U, a, meta = _read_instance(path)
    return LinearGlbProblem(pieces, U=U, a=a, meta=meta)


@_collector_paused()
def _read_instance(path):
    """Parse and check a document into the ``(pieces, U, a, meta)`` of its problem.

    Runs with the cyclic collector paused: the document holds a list per
    stored entry, which the collections its allocations would trigger walk
    again and again and never free.  The document dies with this frame, so
    on success only arrays and ``meta`` outlive the pause.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError:
            raise InstanceFormatError(f"{path}: not valid JSON (nesting too deep)") from None
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    for key in ("n", "pieces", "U"):
        if key not in doc:
            raise InstanceFormatError(f"{path}: missing required field {key!r}")
    n = doc["n"]
    if type(n) is not int or n < 0:  # JSON true/false load as bool, an int subclass
        raise InstanceFormatError(f"{path}: n must be a nonnegative integer, got {n!r}")
    pieces_doc = doc["pieces"]
    if not isinstance(pieces_doc, list):
        raise InstanceFormatError(f"{path}: pieces must be a list")
    if "L" in doc and (type(doc["L"]) is not int or doc["L"] != len(pieces_doc)):
        raise InstanceFormatError(
            f"{path}: declared L = {doc['L']} but found {len(pieces_doc)} pieces"
        )
    U = _vector(doc["U"], n, "U", path)
    a = _vector(doc.get("a", [0.0] * n), n, "a", path)

    pieces = []
    for ell, piece in enumerate(pieces_doc):
        if not isinstance(piece, dict) or "A" not in piece or "b" not in piece:
            raise InstanceFormatError(f"{path}: piece {ell + 1} must carry fields 'A' and 'b'")
        if not isinstance(piece["A"], list):
            raise InstanceFormatError(f"{path}: piece {ell + 1} field 'A' must be a list of entries")
        rows, cols, vals = _triplets(piece["A"], n, ell, path)
        b = _vector(piece["b"], n, f"piece {ell + 1} offset b", path)
        pieces.append((sparse.coo_array((vals, (rows, cols)), shape=(n, n)), b))
    meta = doc.get("meta")
    if meta is None:
        meta = {}
    elif not isinstance(meta, dict):
        raise InstanceFormatError(f"{path}: meta must be an object, got {type(meta).__name__}")
    return pieces, U, a, meta


def _triplets(entries: list, n: int, ell: int, path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value arrays of a piece's ``[row, col, value]`` entries.

    Checked per column: entry types and lengths, then the types of each
    column, then the index range, the float conversion and the finiteness
    of the values on whole arrays.  Only when a check fails does the
    entry-by-entry loop run, to name the first bad entry.
    """
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}:
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        if set(map(type, rows + cols)) <= {int} and set(map(type, vals)) <= {int, float}:
            try:  # an index beyond int64 or a value beyond float64: the loop names it
                r = np.fromiter(rows, np.int64, len(rows))
                c = np.fromiter(cols, np.int64, len(cols))
                v = np.array(vals, dtype=float)
            except OverflowError:
                pass
            else:
                if not r.size or (min(r.min(), c.min()) >= 0 and max(r.max(), c.max()) < n
                                  and np.isfinite(v).all()):
                    return r, c, v
    for k, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 3:
            raise InstanceFormatError(
                f"{path}: piece {ell + 1}, entry {k}: expected [row, col, value]"
            )
        r, c, v = entry
        if type(r) is not int or type(c) is not int or type(v) not in (int, float):
            raise InstanceFormatError(
                f"{path}: piece {ell + 1}, entry {k}: expected integer row and col "
                f"and a numeric value, got {entry!r}"
            )
        if not 0 <= r < n or not 0 <= c < n:
            raise InstanceFormatError(
                f"{path}: piece {ell + 1}, entry {k}: index ({r}, {c}) out of range for n = {n}"
            )
        if not _fits_float(v):
            raise InstanceFormatError(
                f"{path}: piece {ell + 1}, entry {k}: integer beyond the float range"
            )
        if not math.isfinite(v):
            raise InstanceFormatError(f"{path}: piece {ell + 1}, entry {k}: non-finite value {v!r}")
    raise AssertionError("a column check failed that no entry fails")


def _vector(values, n: int, name: str, path) -> np.ndarray:
    if not isinstance(values, list):
        raise InstanceFormatError(f"{path}: {name} must be a list of numbers, got {type(values).__name__}")
    if set(map(type, values)) <= {int, float} and len(values) == n:
        try:
            vector = np.array(values, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(vector).all():
                return vector
    for k, v in enumerate(values):
        if type(v) not in (int, float):  # JSON numbers only: no bool, no numeric string
            raise InstanceFormatError(f"{path}: {name} entry {k}: expected a number, got {v!r}")
    if len(values) != n:
        raise InstanceFormatError(f"{path}: {name} must have length {n}, got {len(values)}")
    for k, v in enumerate(values):
        if not _fits_float(v):
            raise InstanceFormatError(f"{path}: {name} entry {k}: integer beyond the float range")
        if not math.isfinite(v):  # the NaN, Infinity and -Infinity tokens
            raise InstanceFormatError(f"{path}: {name} entry {k}: non-finite value {v!r}")
    raise AssertionError("a vector check failed that no entry fails")


def _fits_float(v) -> bool:
    try:
        float(v)
    except OverflowError:
        return False
    return True
