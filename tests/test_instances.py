import ctypes
import gc
import hashlib
import json
import math
import re
import warnings
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from glbopt import (
    HjbGridSpec,
    InstanceFormatError,
    LinearGlbProblem,
    ProblemDataError,
    RedundantRowWarning,
    SpeedPlanSpec,
    contraction_rates,
    dominant_diagonal_gap,
    dominant_diagonal_problem,
    gen_graph,
    hjb_grid_problem,
    load_curvature_csv,
    load_instance,
    maneuver_time,
    manipulator_problem,
    dominance_gap_limit,
    precondition,
    random_linear_problem,
    reference_solve,
    rescale_to_gamma,
    save_instance,
    selective_update_linear,
    speed_plan_spec_from_csv,
    speed_planning_problem,
    to_lp_form,
)
from glbopt import instances
from glbopt.bench import SweepConfig, make_instance
from glbopt.instances import (
    _CHUNK, FAMILIES, SEEDLESS, _ScalarDraws, _force_row_sums, generate, hjb_preset,
)
from suite_helpers import (
    DEEP_DOCUMENTS, compiler_or_skip, force_row_sum, native_or_skip, python_path_for,
    reference_hjb_grid_problem,
)


# graphs and the first 32 hex digits of the sha256 of their edge arrays
GOLDEN_EDGES = [
    ("ba", 5000, (3, 0), {"m": 1}, "9d396f377a06d9758a996b31afd6289e"),
    ("ba", 5000, (3, 1), {"m": 1}, "caf976c489b9ada28f2837c1a060aad5"),
    ("ba", 5000, (3, 2), {"m": 1}, "d3276cfc4cce9e7b963fc0f5eb980729"),
    ("ba", 5000, (3, 3), {"m": 1}, "2069618be959c1c0ca6236f5171ce714"),
    # the graphs of the ba-sweep benchmark instance at seed 3
    ("ba", 5000, (3, 0), {"m": 5}, "2ea46430a5932bb57be7d5674f9f22e5"),
    ("ba", 5000, (3, 1), {"m": 5}, "7f6cee289ba73d623e8ed011adf1c28f"),
    ("ba", 5000, (3, 2), {"m": 5}, "ee1c8cac73ecad939848f140c770a835"),
    ("ba", 5000, (3, 3), {"m": 5}, "6a2589838d80ad5b0efcfd8f2391aaf0"),
    ("nws", 2000, 3, {"p": 0.3}, "47909203536909dc67c0889b815df0d6"),
    ("hk", 2000, 3, {"p": 1.0}, "51212a16b09e4b1b0f9b0d2830dd65fd"),
    ("hk", 2000, 3, {}, "ce040a0f4477088b7fa7f0421fc6516e"),
]


class TestGraphGenerators:
    def test_ba_forced_attachment_at_minimum_size(self):
        g = gen_graph("ba", 6, seed=1)  # m defaults to 5
        assert g.edge_count == 5
        assert g.edges.tolist() == [[i, 5] for i in range(5)]

    def test_ba_edge_count_is_deterministic(self):
        g = gen_graph("ba", 200, seed=3)
        assert g.edge_count == (200 - 5) * 5

    def test_nws_ring_without_shortcuts(self):
        g = gen_graph("nws", 10, seed=1, p=0.0)  # k defaults to 2
        assert g.edge_count == 10
        assert np.all(g.degrees() == 2)

    def test_nws_default_shortcut_probability_adds_few_edges(self):
        g = gen_graph("nws", 500, seed=1)
        assert 500 <= g.edge_count <= 530

    def test_hk_edge_count(self):
        g = gen_graph("hk", 100, seed=7)  # m defaults to 4, p to 0.25
        assert g.edge_count == (100 - 4) * 4
        assert g.edge_count >= 4 * (100 - 4 - 1)

    @pytest.mark.parametrize("tag, name, value", [
        ("ba", "m", 2.7), ("ba", "m", True), ("nws", "k", 2.5), ("hk", "m", 2.5),
    ])
    def test_non_integer_counts_are_rejected(self, tag, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            gen_graph(tag, 10, 1, **{name: value})

    @pytest.mark.parametrize("tag, name", [("ba", "m"), ("nws", "k"), ("hk", "m")])
    def test_numpy_integer_counts_are_accepted(self, tag, name):
        edges = gen_graph(tag, 20, 1, **{name: np.int64(2)}).edges
        assert np.array_equal(edges, gen_graph(tag, 20, 1, **{name: 2}).edges)

    def test_determinism_and_seed_sensitivity(self):
        a = gen_graph("hk", 60, seed=5)
        b = gen_graph("hk", 60, seed=5)
        c = gen_graph("hk", 60, seed=6)
        assert np.array_equal(a.edges, b.edges)
        assert not np.array_equal(a.edges, c.edges)

    def test_tuple_seeds_are_valid(self):
        a = gen_graph("ba", 30, seed=(9, 0), m=2)
        b = gen_graph("ba", 30, seed=(9, 1), m=2)
        assert not np.array_equal(a.edges, b.edges)

    @pytest.mark.parametrize("tag", ["ba", "nws", "hk"])
    def test_edges_are_a_read_only_int64_array(self, tag):
        edges = gen_graph(tag, 30, seed=1).edges
        assert edges.dtype == np.int64 and edges.shape[1] == 2
        assert np.all(edges[:, 0] < edges[:, 1])
        assert not edges.flags.writeable

    def test_attachment_larger_than_graph_is_an_error(self):
        with pytest.raises(ValueError, match="Barabasi-Albert"):
            gen_graph("ba", 4, seed=1)  # n <= default m = 5
        with pytest.raises(ValueError, match="Holme-Kim"):
            gen_graph("hk", 3, seed=1)
        with pytest.raises(ValueError, match="n > k"):
            gen_graph("nws", 2, seed=1)

    def test_unknown_family_and_params(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            gen_graph("erdos", 10, seed=1)
        with pytest.raises(ValueError, match="unknown parameters"):
            gen_graph("ba", 10, seed=1, q=3)

    @pytest.mark.parametrize("tag, n, seed, params, digest", GOLDEN_EDGES)
    def test_golden_edges(self, tag, n, seed, params, digest):
        g = gen_graph(tag, n, seed, **params)
        edges = np.array(g.edges, dtype=np.int64)
        assert hashlib.sha256(edges.tobytes()).hexdigest()[:32] == digest

    @pytest.mark.parametrize("n", [6, 50, 1000])
    @pytest.mark.parametrize("tag, params", [
        ("ba", {"m": 1}), ("ba", {"m": 5}), ("nws", {"p": 0.3}), ("nws", {}),
        ("hk", {"p": 1.0}), ("hk", {}),
    ], ids=["ba-m1", "ba-m5", "nws-p0.3", "nws", "hk-p1", "hk"])
    def test_matches_scalar_generator_draws(self, tag, params, n):
        for seed in range(20):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            if tag == "ba":
                expected = _reference_ba(n, params["m"], rng)
            elif tag == "nws":
                expected = _reference_nws(n, 2, params.get("p", 3.0 / n), rng)
            else:
                expected = _reference_hk(n, 4, params.get("p", 0.25), rng)
            assert gen_graph(tag, n, seed, **params).edges.tolist() == sorted(map(list, expected)), seed


# The generators as first written, one scalar Generator call per draw: the
# reference that every graph gen_graph builds must reproduce edge for edge.

def _reference_ba(n, m, rng):
    edges = []
    repeated = []
    targets = list(range(m))
    for source in range(m, n):
        edges.extend((t, source) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
    return edges


def _reference_nws(n, k, p, rng):
    edge_set = set()
    for u in range(n):
        for d in range(1, k // 2 + 1):
            v = (u + d) % n
            edge_set.add((min(u, v), max(u, v)))
    degree = [k] * n
    for u, _ in sorted(edge_set):
        if rng.random() < p:
            if degree[u] >= n - 1:
                continue
            while True:
                w = int(rng.integers(n))
                if w != u and (min(u, w), max(u, w)) not in edge_set:
                    break
            edge_set.add((min(u, w), max(u, w)))
            degree[u] += 1
            degree[w] += 1
    return edge_set


def _reference_hk(n, m, p, rng):
    edge_set = set()
    adjacency = [set() for _ in range(n)]
    repeated = []

    def connect(u, v):
        edge_set.add((min(u, v), max(u, v)))
        adjacency[u].add(v)
        adjacency[v].add(u)
        repeated.append(v)

    for source in range(m, n):
        if repeated:
            pool = set()
            while len(pool) < m:
                pool.add(repeated[int(rng.integers(len(repeated)))])
            possible = sorted(pool)
        else:
            possible = list(range(m))
        target = possible.pop()
        connect(source, target)
        count = 1
        while count < m:
            if rng.random() < p:
                hood = sorted(
                    nb for nb in adjacency[target]
                    if nb != source and nb not in adjacency[source]
                )
                if hood:
                    nb = hood[int(rng.integers(len(hood)))]
                    connect(source, nb)
                    target = nb
                    count += 1
                    continue
            target = None
            while possible:
                cand = possible.pop()
                if cand not in adjacency[source]:
                    target = cand
                    break
            attempts = 0
            while target is None:
                cand = repeated[int(rng.integers(len(repeated)))]
                if cand != source and cand not in adjacency[source]:
                    target = cand
                attempts += 1
                if attempts > 64 * n:
                    fresh = sorted(set(range(source)) - adjacency[source])
                    target = fresh[int(rng.integers(len(fresh)))]
            connect(source, target)
            count += 1
        repeated.extend([source] * m)
    return edge_set


class TestScalarDraws:
    BOUNDS = [1, 2, 3, 7, 2**16 + 1, 2**31 + 1, 2**32 - 1, 2**32]

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_equals_generator_draws(self, seed):
        # 2**31 + 1 redraws about half its words, so the redraw branch runs;
        # random() between 32-bit draws leaves a pending high half in place
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        draws = _ScalarDraws(np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))))
        schedule = np.random.default_rng(seed + 1)
        for step in range(5000):
            pick = int(schedule.integers(len(self.BOUNDS) + 1))
            if pick == len(self.BOUNDS):
                assert draws.random() == rng.random(), step
            else:
                k = self.BOUNDS[pick]
                assert draws.integers(k) == int(rng.integers(k)), (step, k)
        assert draws.random() == rng.random()

    def test_bounds_outside_32_bits_rejected(self):
        draws = _ScalarDraws(np.random.Generator(np.random.PCG64(1)))
        for k in (0, -1, 2**32 + 1):
            with pytest.raises(ValueError, match="bound"):
                draws.integers(k)


class TestBaPythonDraws:
    """The BA pins again, with the attachment loop forced onto the Python fallback."""

    @pytest.fixture(autouse=True)
    def _python_draws(self, monkeypatch):
        calls = []
        python_loop = instances._ba_targets
        python_path_for(monkeypatch, "glbopt_ba_targets")
        monkeypatch.setattr(instances, "_ba_targets",
                            lambda *args: calls.append(args) or python_loop(*args))
        yield
        assert calls, "no graph was drawn by the Python loop"

    @pytest.mark.parametrize("tag, n, seed, params, digest",
                             [row for row in GOLDEN_EDGES if row[0] == "ba"])
    def test_golden_edges(self, tag, n, seed, params, digest):
        TestGraphGenerators.test_golden_edges(self, tag, n, seed, params, digest)

    @pytest.mark.parametrize("n", [6, 50, 1000])
    @pytest.mark.parametrize("params", [{"m": 1}, {"m": 5}], ids=["ba-m1", "ba-m5"])
    def test_matches_scalar_generator_draws(self, params, n):
        TestGraphGenerators.test_matches_scalar_generator_draws(self, "ba", params, n)


def _served_words(seed, crafted):
    """A ``random_raw`` that serves one fixed word sequence, whatever block
    sizes are asked for.  A crafted sequence zeroes the low or the high half
    of about half its words: numpy's rule redraws a zero half for every
    bound that is not a power of two, which PCG64 words almost never make
    it do."""
    words = instances._rng(seed).bit_generator.random_raw(20000)
    if crafted:
        pick = np.random.default_rng(seed).integers(4, size=words.size)
        words[pick == 0] &= np.uint64(0xFFFFFFFF00000000)
        words[pick == 1] &= np.uint64(0xFFFFFFFF)
    served = 0

    def random_raw(size):
        nonlocal served
        block = words[served:served + size]
        served += size
        assert block.size == size, "word sequence exhausted"
        return block

    return random_raw


class TestNativeBaDraws:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(m + 1, 300))),
           st.integers(0, 2**64 - 1), st.integers(1, 7), st.booleans())
    def test_equals_python_loop(self, m_n, seed, block, crafted):
        # blocks of a few words run out in the middle of a node's draws
        native = native_or_skip("glbopt_ba_targets")
        m, n = m_n
        linked = np.empty((n - m) * m, dtype=np.int64)
        native(n, m, _served_words(seed, crafted), block, linked)
        words = SimpleNamespace(random_raw=_served_words(seed, crafted))
        draws = _ScalarDraws(SimpleNamespace(bit_generator=words))
        assert linked.tolist() == instances._ba_targets(n, m, draws)

    def test_error_of_random_raw_propagates(self):
        native = native_or_skip("glbopt_ba_targets")

        def raw(size):
            raise KeyError("raw")

        with pytest.raises(KeyError, match="raw"):
            native(10, 2, raw, 4, np.empty(16, dtype=np.int64))

    @pytest.mark.parametrize("block", [np.zeros(4, dtype=np.float32),
                                       np.zeros(0, dtype=np.uint64)])
    def test_words_must_be_a_nonempty_uint64_array(self, block):
        native = native_or_skip("glbopt_ba_targets")
        with pytest.raises(TypeError, match="uint64"):
            native(10, 2, lambda size: block, 4, np.empty(16, dtype=np.int64))

    @pytest.mark.parametrize("out", ["int32", "strided", "read-only"])
    def test_output_must_be_a_writeable_contiguous_int64_array(self, out):
        # the ctypes signature checks the array before C gets its pointer
        native = native_or_skip("glbopt_ba_targets")
        linked = {"int32": np.empty(16, dtype=np.int32), "strided": np.empty(32, dtype=np.int64)[::2],
                  "read-only": np.empty(16, dtype=np.int64)}[out]
        linked.setflags(write=out != "read-only")
        with pytest.raises(ctypes.ArgumentError):
            native(10, 2, instances._rng(1).bit_generator.random_raw, 4, linked)

    def test_sizes_are_checked(self):
        native = native_or_skip("glbopt_ba_targets")
        raw = instances._rng(1).bit_generator.random_raw
        for n, m, block in [(5, 5, 4), (5, 0, 4), (5, 2, 0)]:
            with pytest.raises(ValueError, match="need 1 <= m < n"):
                native(n, m, raw, block, np.empty(16, dtype=np.int64))


def _native_reprs(values):
    """``repr`` of each of ``values``, as ``glbopt_write_list`` writes a list
    of floats with one per line and no frame around them."""
    native = native_or_skip("glbopt_write_list")
    values = np.asarray(values, dtype=np.float64)
    inverse, leading = instances._pow5_tables()
    chunks = []
    native(chunks.append, np.empty(0, dtype=np.int64), 0, values, values.size, 1000,
           b"", b"\n", b"", b"", inverse, inverse.size // 2, leading, leading.size // 2)
    return b"".join(chunks).decode().split("\n") if values.size else []


def _assert_reprs(values):
    """The C text of ``values`` and of their negations is ``repr``'s."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    text, expected = _native_reprs(values), list(map(repr, values.tolist()))
    wrong = [(got, want) for got, want in zip(text, expected) if got != want]
    assert len(text) == len(expected) and not wrong, wrong[:5]


class TestNativeFloatText:
    """The float text of ``glbopt_write_list`` against ``repr``, its reference."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2018).integers(0, 2**64, size=10**6, dtype=np.uint64)
        values = bits.view(np.float64)
        _assert_reprs(values[np.isfinite(values)])

    def test_powers_of_two(self):
        _assert_reprs([math.ldexp(1.0, k) for k in range(-1074, 1024)])

    def test_powers_of_ten(self):
        _assert_reprs([float(f"1e{k}") for k in range(-323, 309)])

    def test_integers_near_two_to_the_53(self):
        _assert_reprs([float(2**53 + d) for d in range(-100, 101)])

    @pytest.mark.parametrize("k", [60, 70, 80, 100])
    def test_multiples_of_large_powers_of_two(self, k):
        _assert_reprs([float(i * 2**k) for i in range(1, 2001)])

    def test_special_values_and_layout_edges(self):
        # zero, the smallest subnormal, the smallest normal, the largest
        # double, then the switches between positional and exponent form
        _assert_reprs([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                       1e-4, 1e-5, 9999999999999998.0, 1e16])
        assert _native_reprs([0.0, -0.0, 1e-4, 1e-5, 1e16, 1.5e300]) == [
            "0.0", "-0.0", "0.0001", "1e-05", "1e+16", "1.5e+300"]

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_float(self, x):
        assert _native_reprs([x]) == [repr(x)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, bad):
        with pytest.raises(ValueError, match=r"values\[1\] is not finite"):
            _native_reprs([1.0, bad])

    def test_tables_must_have_their_sizes(self):
        native = native_or_skip("glbopt_write_list")
        inverse, leading = instances._pow5_tables()
        with pytest.raises(ValueError, match="must hold 342 and 326 pairs"):
            native(print, np.empty(0, dtype=np.int64), 0, np.ones(1), 1, 1, b"", b"", b"", b"",
                   inverse, inverse.size // 2, leading[:-2], leading.size // 2 - 1)

    def test_index_rows_must_match_the_values(self, tmp_path):
        native = native_or_skip("glbopt_write_list")
        with open(tmp_path / "x.json", "wb") as fh:
            with pytest.raises(ValueError, match="one index row per value, got 2 for 3"):
                instances._native_list(native, fh, np.ones(3), np.zeros((2, 2), dtype=np.int64),
                                       instances._TRIPLETS)

    def test_save_uses_the_native_formatter_where_it_can_be_built(self, monkeypatch, tmp_path):
        compiler_or_skip()
        native = instances._native.function("glbopt_write_list")
        assert native is not None, instances._native.fallback
        calls = []
        function = instances._native.function
        monkeypatch.setattr(instances._native, "function", lambda name: (
            (lambda *args: calls.append(args[4]) or native(*args))
            if name == "glbopt_write_list" else function(name)))
        save_instance(make_instance(SweepConfig(family="ba"), 60, seed=3), tmp_path / "x.json")
        assert len(calls) == 4 + 4 + 2  # each piece's triplets and b, then U and a


def _lexsort_linear_problem(graphs, seed):
    """random_linear_problem at its default bounds, with each piece's pairs
    ordered by ``np.lexsort``: the reference of its sort."""
    n, pieces = graphs[0].n, []
    for ell, graph in enumerate(graphs):
        rng = instances._rng((seed, ell))
        u, v = graph.edges.T
        row, col = np.concatenate((u, v)), np.concatenate((v, u))
        order = np.lexsort((col, row))
        vals = rng.uniform(0.0, 0.5, size=order.size)
        b = rng.uniform(0.0, 1.0, size=n)
        pieces.append((sparse.coo_array((vals, (row[order], col[order])), shape=(n, n)), b))
    return LinearGlbProblem(pieces, U=np.full(n, 1e5))


def _assert_same_pieces(p, q):
    assert p.n == q.n and p.L == q.L
    for (A, b), (B, c) in zip(p.pieces, q.pieces):
        for x, y in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data), (b, c)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert np.array_equal(A.data.view(np.int64), B.data.view(np.int64))


class TestRandomLinearProblem:
    @pytest.mark.parametrize("family", ["ba", "nws", "hk"])
    def test_pieces_are_those_of_the_lexsort_order(self, family):
        graphs = [gen_graph(family, 40, seed=(6, ell)) for ell in range(3)]
        _assert_same_pieces(random_linear_problem(graphs, seed=6),
                            _lexsort_linear_problem(graphs, seed=6))

    def test_duplicated_pairs_take_the_lexsort_order(self, monkeypatch):
        # a graph listing an edge twice: the CSR order would sum the two
        # positions, so np.lexsort orders the pairs
        edges = np.array([[0, 1], [1, 2], [0, 1], [2, 3], [0, 3]])
        graph = instances.RandomGraph(n=4, edges=edges, tag="ba", seed=0)
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))
        p = random_linear_problem([graph, graph], seed=9)
        assert calls == [2, 2]
        monkeypatch.undo()
        _assert_same_pieces(p, _lexsort_linear_problem([graph, graph], seed=9))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=60))))
    def test_row_major_order_is_the_lexsort_order(self, case):
        n, pairs = case
        row, col = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        order = instances._row_major_order(row, col, n)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.lexsort((col, row)))

    def test_zero_coefficient_bound_decouples(self):
        graphs = [gen_graph("ba", 12, seed=(4, ell), m=2) for ell in range(2)]
        p = random_linear_problem(graphs, max_coeff=0.0, max_offset=1.0, cap=0.5, seed=4)
        assert p.total_nnz == 0
        expected = np.minimum(np.minimum(p.pieces[0][1], p.pieces[1][1]), p.U)
        report = selective_update_linear(p, eps=1e-12)
        assert np.allclose(report.x, expected, atol=1e-11)

    def test_reference_benchmark_configuration(self):
        graphs = [gen_graph("ba", 50, seed=(1, ell)) for ell in range(4)]
        p = random_linear_problem(graphs, max_coeff=0.5, max_offset=1.0, cap=1e5, seed=1)
        assert p.L == 4 and p.n == 50
        assert np.all(p.U == 1e5)
        assert np.all(p.a == 0.0)
        for A, b in p.pieces:
            assert A.nnz == 2 * (50 - 5) * 5  # both orientations of each edge
            if A.nnz:
                assert 0.0 <= A.data.min() and A.data.max() <= 0.5
            assert 0.0 <= b.min() and b.max() <= 1.0

    def test_seed_repetition_is_bit_identical(self, tmp_path):
        docs = []
        for _ in range(2):
            graphs = [gen_graph("nws", 40, seed=(2, ell)) for ell in range(3)]
            p = random_linear_problem(graphs, seed=2)
            path = tmp_path / f"inst{len(docs)}.json"
            save_instance(p, path)
            docs.append(path.read_text())
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("family, seed, digest", [
        ("ba", 1, "cffe17db7fd3985f239e765eefa50f05"),
        ("ba", 3, "9cc6c331431ab53adb75706edc968862"),
        ("nws", 1, "028a73ebd56346edcf722f6adaae46b5"),
        ("nws", 3, "e8693e0985f08b06abf8337124ffddaf"),
        ("hk", 1, "9b4cb4b8d6a7baf580b1902d2e6fbe71"),
        ("hk", 3, "e374f10eca53c8f26bdbe551d3385b56"),
    ])
    def test_golden_pieces(self, family, seed, digest):
        # every RNG draw must land on the same matrix entry as in the reference build
        p = make_instance(SweepConfig(family=family), 300, seed)
        h = hashlib.sha256()
        for A, b in p.pieces:
            for arr in (A.indptr.astype(np.int64), A.indices.astype(np.int64), A.data, b):
                h.update(arr.tobytes())
        assert h.hexdigest()[:32] == digest

    def test_mismatched_node_counts_rejected(self):
        g1 = gen_graph("ba", 10, seed=1, m=2)
        g2 = gen_graph("ba", 12, seed=1, m=2)
        with pytest.raises(ValueError, match="share a node count"):
            random_linear_problem([g1, g2])

    def test_rescale_to_gamma(self):
        graphs = [gen_graph("ba", 30, seed=(3, 0), m=3)]
        p = random_linear_problem(graphs, max_coeff=2.0, seed=3)
        scaled = rescale_to_gamma(p, 0.8)
        gamma, _ = contraction_rates(scaled)
        assert gamma == pytest.approx(0.8, rel=1e-12)


def flat_spec(n=5, v_max=2.0, h_at=1.0):
    return SpeedPlanSpec(
        path_length=float(n - 1), samples=n, curvature=np.zeros(n),
        v_max=v_max, acc_tangential=h_at, acc_normal=1.0,
    )


class TestSpeedPlanning:
    def test_flat_fixture_solves_exactly(self):
        report = selective_update_linear(speed_planning_problem(flat_spec()), eps=1e-9)
        assert np.array_equal(report.x, np.array([0.0, 1.0, 2.0, 1.0, 0.0]))

    def test_triangular_profile_without_speed_cap(self):
        n = 9
        spec = SpeedPlanSpec(
            path_length=float(n - 1), samples=n, curvature=np.zeros(n),
            v_max=1e6, acc_tangential=1.0, acc_normal=1.0,
        )
        report = selective_update_linear(speed_planning_problem(spec), eps=1e-9)
        expected = np.minimum(np.arange(n), n - 1 - np.arange(n)).astype(float)
        assert np.allclose(report.x, expected, atol=1e-8)

    def test_superiority_of_coupling_terms(self):
        p = speed_planning_problem(flat_spec(n=7))
        rng = np.random.default_rng(0)
        w = rng.uniform(0.0, 4.0, size=7)
        back, b_back = p.pieces[0]
        fwd, b_fwd = p.pieces[1]
        assert np.all((back @ w + b_back)[1:] >= w[:-1])
        assert np.all((fwd @ w + b_fwd)[:-1] >= w[1:])

    def test_boundary_rows_pin_endpoints(self):
        p = speed_planning_problem(flat_spec())
        assert p.U[0] == 0.0 and p.U[-1] == 0.0
        assert p.pieces[0][1][0] == 0.0 and p.pieces[1][1][-1] == 0.0

    def test_curvature_caps_interior(self):
        n = 5
        spec = SpeedPlanSpec(
            path_length=4.0, samples=n, curvature=np.array([0.0, 0.5, 2.0, 0.0, 0.1]),
            v_max=3.0, acc_tangential=1.0, acc_normal=1.0,
        )
        p = speed_planning_problem(spec)
        assert p.U[1] == pytest.approx(2.0)   # A_N / |k| = 1 / 0.5
        assert p.U[2] == pytest.approx(0.5)
        assert p.U[3] == pytest.approx(9.0)   # zero curvature leaves only v_max^2

    def test_symmetric_curvature_gives_symmetric_profile(self):
        n = 21
        s = np.linspace(0, 1, n)
        curvature = 0.8 * np.sin(np.pi * s) ** 2
        spec = SpeedPlanSpec(
            path_length=1.0, samples=n, curvature=curvature,
            v_max=2.0, acc_tangential=3.0, acc_normal=1.5,
        )
        report = selective_update_linear(speed_planning_problem(spec), eps=1e-11)
        assert np.allclose(report.x, report.x[::-1], atol=1e-9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            flat_spec(n=1)
        with pytest.raises(ValueError):
            SpeedPlanSpec(4.0, 5, np.zeros(5), v_max=-1.0, acc_tangential=1.0, acc_normal=1.0)
        with pytest.raises(ValueError):
            SpeedPlanSpec(4.0, 5, np.zeros(4), v_max=1.0, acc_tangential=1.0, acc_normal=1.0)

    @pytest.mark.parametrize("field", ["path_length", "v_max", "acc_tangential", "acc_normal"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_rejected(self, field, value):
        kwargs = dict(path_length=4.0, samples=5, curvature=np.zeros(5),
                      v_max=1.0, acc_tangential=1.0, acc_normal=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SpeedPlanSpec(**kwargs)

    def test_non_finite_curvature_rejected(self):
        curvature = np.array([0.0, 0.5, np.nan, 0.5, 0.0])
        with pytest.raises(ValueError, match=r"curvature\[2\] = nan"):
            SpeedPlanSpec(4.0, 5, curvature, v_max=1.0, acc_tangential=1.0, acc_normal=1.0)


class TestManeuverTime:
    def test_worked_fixture(self):
        value = maneuver_time([0.0, 1.0, 2.0, 1.0, 0.0], 1.0)
        assert value == pytest.approx(2.0 * (2.0 + 2.0 / (1.0 + math.sqrt(2.0))), abs=1e-12)

    def test_constant_profile_is_distance_over_speed(self):
        c, n, h = 2.25, 11, 0.5
        assert maneuver_time(np.full(n, c), h) == pytest.approx(h * (n - 1) / math.sqrt(c), rel=1e-14)

    def test_adjacent_zeros_signal_infinity(self):
        assert maneuver_time([1.0, 0.0, 0.0, 1.0], 1.0) == math.inf

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            maneuver_time([1.0, -0.5], 1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
    def test_spacing_not_positive_rejected(self, h):
        with pytest.raises(ValueError, match=f"sample spacing must be positive, got {h}"):
            maneuver_time([1.0, 1.0], h)


class TestManipulator:
    def test_replicates_speed_planning_bands(self):
        n = 5
        spec = flat_spec(n=n)
        sp = speed_planning_problem(spec)
        u = sp.U.copy()
        ones = np.ones((1, n - 1))
        mp = manipulator_problem(ones, ones * 1.0, ones, ones * 1.0, u)
        # same glb map: compare on a batch of points
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 4, size=(50, n))
        assert np.allclose(sp.glb_eval_batch(X), mp.glb_eval_batch(X))

    def test_zero_offsets_pin_solution_to_zero(self):
        zeros = np.zeros((1, 3))
        p = manipulator_problem(zeros, zeros, zeros, zeros, np.full(4, 2.0))
        report = selective_update_linear(p, eps=1e-12)
        assert np.allclose(report.x, 0.0)

    def test_two_sample_problem_matches_worked_example(self):
        f = np.array([[0.5]])
        c = np.array([[1.0]])
        p = manipulator_problem(f, c, f, c, np.array([10.0, 10.0]))
        report = selective_update_linear(p, eps=1e-10)
        assert np.allclose(report.x, [2.0, 2.0], atol=1e-9)

    def test_negative_coefficients_rejected(self):
        bad = np.array([[-0.1]])
        good = np.array([[0.1]])
        with pytest.raises(ValueError, match="nonnegative"):
            manipulator_problem(bad, good, good, good, np.ones(2))

    def test_piece_count_is_twice_p(self):
        p_count, n = 3, 6
        coeff = np.full((p_count, n - 1), 0.5)
        p = manipulator_problem(coeff, coeff, coeff, coeff, np.ones(n))
        assert p.L == 2 * p_count


def const_hjb_spec(count=5, lam=1.0, h=0.5):
    return HjbGridSpec(
        axes=((-1.0, 1.0, count),),
        controls=(0.0,),
        dynamics=lambda x, u: 0.0,
        running_cost=lambda x, u: 1.0,
        discount=lam,
        step=h,
    )


def _golden_digest(p):
    """sha256 prefix of every piece's CSR arrays and offsets, then the cap."""
    h = hashlib.sha256()
    for A, b in p.pieces:
        for arr in (A.indptr.astype(np.int64), A.indices.astype(np.int64), A.data, b):
            h.update(arr.tobytes())
    h.update(p.U.tobytes())
    return h.hexdigest()[:32]


def skewed_hjb_spec():
    """2D spec whose drift depends on the state, so rows land off the nodes."""
    return HjbGridSpec(
        axes=((-1.0, 1.0, 9), (-1.0, 1.0, 7)),
        controls=((0.3, -0.2), (-0.15, 0.45)),
        dynamics=lambda x, u: np.array([u[0] + 0.1 * x[1], u[1] - 0.2 * x[0]]),
        running_cost=lambda x, u: float(x[0] ** 2 + x[1] ** 2),
        discount=1.0, step=0.4,
    )


class TestHjbGrid:
    @pytest.mark.parametrize("spec, digest", [
        (("drift1d", 1001, 0.1, 0.5), "a8659a1c346a96fa9aab294b89e5307c"),
        (("drift1d", 41, 1.0, 0.25), "73644d9e6eb431b8b805866dd6023d01"),
        (("const1d", 101, 1.0, 0.5), "996f4b8b60a0512b0fabde6b1f13e3c5"),
        (("spin2d", 21, 0.95, 0.5), "4f6809ce8b8ec505cc1e34c36ec0a204"),
        (("spin2d", 37, 0.3, 0.9), "e04adfbd226b22f57b44e6ef2828421c"),
        (("drift1d", 41, 2.0, 0.5), "01c4cf8055f9a451c7cba1b0824f2cc2"),  # decay zero
        ("skewed", "61d3ba5f76773ba17757ed561ff686b8"),
    ])
    def test_golden_pieces(self, spec, digest):
        # every weight and offset must stay as first built, rounding included
        spec = skewed_hjb_spec() if spec == "skewed" else hjb_preset(*spec)
        assert _golden_digest(hjb_grid_problem(spec)) == digest

    def test_constant_cost_fixture_structure(self):
        p = hjb_grid_problem(const_hjb_spec())
        A, b = p.pieces[0]
        assert np.allclose(A.toarray(), 0.5 * np.eye(5))
        assert np.allclose(b, 0.5)
        assert np.all(p.U == 1.0)

    def test_constant_cost_solution_hits_cap(self):
        p = hjb_grid_problem(const_hjb_spec())
        report = selective_update_linear(p, eps=1e-11)
        assert np.allclose(report.x, 1.0, atol=1e-10)

    def test_zero_cost_gives_zero_value(self):
        spec = HjbGridSpec(
            axes=((-1.0, 1.0, 5),), controls=(0.0,),
            dynamics=lambda x, u: 0.0, running_cost=lambda x, u: 0.0,
            discount=1.0, step=0.5,
        )
        report = selective_update_linear(hjb_grid_problem(spec), eps=1e-12)
        assert np.allclose(report.x, 0.0)

    def test_single_right_shift_puts_weight_on_superdiagonal(self):
        # grid spacing 0.5 over [-1, 1] with 5 points; control pushes right one cell
        spec = HjbGridSpec(
            axes=((-1.0, 1.0, 5),), controls=(1.0,),
            dynamics=lambda x, u: u, running_cost=lambda x, u: 0.0,
            discount=1.0, step=0.5,
        )
        A = hjb_grid_problem(spec).pieces[0][0].toarray()
        for i in range(4):
            assert A[i, i + 1] == pytest.approx(0.5)
        assert A[4, 4] == pytest.approx(0.5)  # clamped at the hull

    def test_row_sums_equal_decay_exactly(self):
        p = hjb_grid_problem(skewed_hjb_spec())
        decay = 1.0 - 1.0 * 0.4
        ones = np.ones(p.n)
        for A, _ in p.pieces:
            assert np.all(A @ ones == decay)
            assert A.data.min() >= 0.0

    def test_small_displacement_is_dominant_diagonal(self):
        spec = HjbGridSpec(
            axes=((0.0, 10.0, 11),), controls=(0.05, -0.05),
            dynamics=lambda x, u: u, running_cost=lambda x, u: 1.0,
            discount=1.0, step=0.5,
        )
        p = hjb_grid_problem(spec)
        gamma, delta = dominant_diagonal_gap(p)
        assert gamma == pytest.approx(0.5)
        assert delta < dominance_gap_limit(gamma)

    def test_step_beyond_discount_window_rejected(self):
        with pytest.raises(ValueError, match="step must lie"):
            const_hjb_spec(h=1.5)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_discount_not_positive_rejected(self, lam):
        with pytest.raises(ValueError, match=f"discount rate must be positive, got {lam}"):
            const_hjb_spec(lam=lam)

    def test_empty_controls_rejected(self):
        with pytest.raises(ValueError, match="control set"):
            HjbGridSpec(axes=((-1.0, 1.0, 5),), controls=(),
                        dynamics=lambda x, u: 0.0, running_cost=lambda x, u: 1.0,
                        discount=1.0, step=0.5)

    def test_three_dimensional_state_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            HjbGridSpec(axes=((-1.0, 1.0, 3),) * 3, controls=(0.0,),
                        dynamics=lambda x, u: np.zeros(3), running_cost=lambda x, u: 1.0,
                        discount=1.0, step=0.5)

    def test_negative_running_cost_rejected(self):
        spec = HjbGridSpec(
            axes=((-1.0, 1.0, 3),), controls=(0.0,),
            dynamics=lambda x, u: 0.0, running_cost=lambda x, u: -1.0,
            discount=1.0, step=0.5,
        )
        with pytest.raises(ValueError, match="nonnegative"):
            hjb_grid_problem(spec)

    @pytest.mark.parametrize("cost, message", [
        (math.nan, "running cost must be finite, got nan at node 2, control 1"),
        (math.inf, "running cost must be finite, got inf at node 2, control 1"),
        (-math.inf, "running cost must be nonnegative, got -inf at node 2"),
    ])
    def test_non_finite_running_cost_rejected(self, cost, message):
        spec = HjbGridSpec(
            axes=((-1.0, 1.0, 5),), controls=(0.0, 1.0),
            dynamics=lambda x, u: u,
            running_cost=lambda x, u: cost if (x, u[0]) == (0.0, 1.0) else 1.0,
            discount=1.0, step=0.5,
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            hjb_grid_problem(spec)

    def test_nan_drift_rejected(self):
        spec = HjbGridSpec(
            axes=((-1.0, 1.0, 3), (-1.0, 1.0, 3)), controls=((0.5, 0.0), (0.0, 0.5)),
            dynamics=lambda x, u: np.array([u[0], math.nan if x[0] == x[1] == 0.0 else u[1]]),
            running_cost=lambda x, u: 1.0,
            discount=1.0, step=0.5,
        )
        with pytest.raises(ValueError, match=re.escape(
                "dynamics returned NaN, got [0.5, nan] at node 4, control 0")):
            hjb_grid_problem(spec)

    @pytest.mark.parametrize("drift, corner", [(math.inf, 4), (-math.inf, 0)])
    def test_infinite_drift_is_clamped_into_the_hull(self, drift, corner):
        spec = HjbGridSpec(
            axes=((-1.0, 1.0, 5),), controls=(drift,),
            dynamics=lambda x, u: u, running_cost=lambda x, u: 1.0,
            discount=1.0, step=0.5,
        )
        A = hjb_grid_problem(spec).pieces[0][0].toarray()
        expected = np.zeros((5, 5))
        expected[:, corner] = 0.5
        assert np.array_equal(A, expected)

    def test_geometric_series_matches_reference(self):
        # lam h = 0.25: value = h / (lam h) clipped by cap 1/lam
        spec = const_hjb_spec(count=4, lam=2.0, h=0.125)
        p = hjb_grid_problem(spec)
        res = reference_solve(p)
        assert res.certified
        assert np.allclose(res.x_star, 0.5, atol=1e-11)  # cap 1/lam = 0.5 binds


def _displacement(draw, step, width):
    """One axis of a control's displacement: onto a node, onto the middle of a
    cell, anywhere, or beyond the hull (infinitely so, too).  In 2D, a node
    on one axis and another kind on the other lands on a cell edge."""
    kind = draw(st.sampled_from(["node", "mid-cell", "any", "beyond"]))
    if kind == "node":
        return draw(st.integers(-3, 3)) * step
    if kind == "mid-cell":
        return (draw(st.integers(-3, 2)) + 0.5) * step
    if kind == "any":
        return draw(st.floats(-3.0, 3.0)) * step
    return draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([1.5 * width, math.inf]))


@st.composite
def hjb_spec_args(draw):
    """Keyword arguments of a random 1D or 2D :class:`HjbGridSpec`, without
    the callables: 2-40 points per axis, a quarter of them with
    discount * step = 1 (decay zero), drifts as :func:`_displacement` draws
    them plus an optional pull towards the origin."""
    dim = draw(st.integers(1, 2))
    axes = []
    for _ in range(dim):
        lo = draw(st.floats(-5.0, 5.0))
        axes.append((lo, lo + draw(st.floats(0.1, 10.0)), draw(st.integers(2, 40))))
    if draw(st.integers(0, 3)) == 0:
        lam = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        h = 1.0 / lam
    else:
        lam = draw(st.floats(0.05, 5.0))
        h = draw(st.floats(0.01, 1.0)) / lam
    controls = [
        tuple(_displacement(draw, (hi - lo) / (count - 1), hi - lo) / h for lo, hi, count in axes)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return {"axes": tuple(axes), "controls": tuple(controls), "discount": lam, "step": h,
            "pull": draw(st.sampled_from([0.0, 0.3])), "weight": draw(st.floats(0.0, 4.0)),
            "floor": draw(st.floats(0.0, 1.0))}


def _hjb_spec(args, cost=None, dynamics=None):
    """The spec of ``hjb_spec_args``: quadratic running cost, drift ``u - pull * x``;
    ``cost`` and ``dynamics`` replace the callables."""
    args = dict(args)
    pull, weight, floor = args.pop("pull"), args.pop("weight"), args.pop("floor")
    return HjbGridSpec(
        **args,
        dynamics=dynamics or (lambda x, u: u - pull * x),
        running_cost=cost or (lambda x, u: floor + weight * float(np.sum(np.square(x)))),
    )


class _Fault(LookupError):
    """Raised by a faulty callable."""


def _faulty_callables(args, faults):
    """Cost and dynamics callables that count their calls and, at the calls
    named in ``faults`` (``{(callable, call number): kind}``), misbehave."""
    base = _hjb_spec(args)
    calls = {"cost": 0, "drift": 0}

    def wrap(name, fn):
        def faulty(x, u):
            k = calls[name]
            calls[name] += 1
            kind = faults.get((name, k))
            if kind == "raise":
                raise _Fault(f"{name} call {k}")
            if kind == "negative":
                return -1.0
            if kind == "shape":
                return np.zeros(len(args["axes"]) + 1)
            return fn(x, u)
        return faulty

    return wrap("cost", base.running_cost), wrap("drift", base.dynamics)


class TestHjbBuilderMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(hjb_spec_args())
    def test_pieces_are_bit_identical(self, args):
        spec = _hjb_spec(args)
        built, reference = hjb_grid_problem(spec), reference_hjb_grid_problem(spec)
        assert _stored_arrays(built) == _stored_arrays(reference)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1.0), st.integers(1, 4), st.data())
    def test_row_sums_are_forced_as_row_by_row(self, target, K, data):
        # rows whose sums miss target by ulps or by far, so that last weights
        # are replaced and entries dropped; some weights negative or zero
        weight = st.one_of(
            st.floats(-target, target),
            st.floats(0.0, target).map(lambda w: target - w),
            st.integers(-4, 64).map(lambda k: target * 2.0 ** -k),
            st.integers(0, 40).map(lambda k: k * math.ulp(target)),
        )
        weights = np.array(data.draw(st.lists(st.lists(weight, min_size=K, max_size=K),
                                              min_size=1, max_size=12)))
        N = len(weights)
        cols = np.arange(N * K).reshape(N, K)
        rows, out_cols, vals = [], [], []
        for i in range(N):
            entries = [(int(c), float(w)) for c, w in zip(cols[i], weights[i]) if w > 0.0]
            for c, w in force_row_sum(entries, target):
                rows.append(i)
                out_cols.append(c)
                vals.append(w)
        forced, (forced_rows, forced_cols) = _force_row_sums(cols, weights, target)
        assert forced_rows.tolist() == rows and forced_cols.tolist() == out_cols
        assert forced.tobytes() == np.array(vals, dtype=float).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(hjb_spec_args(), st.data())
    def test_first_faulty_node_is_named(self, args, data):
        # the node-by-node reference stops at the first fault, checking a
        # node's cost before calling its dynamics
        calls = len(args["controls"]) * math.prod(count for _, _, count in args["axes"])
        fault = st.one_of(
            st.tuples(st.just("cost"), st.sampled_from(["negative", "raise"])),
            st.tuples(st.just("drift"), st.sampled_from(["shape", "raise"])),
        )
        faults = {}
        for name, kind in data.draw(st.lists(fault, min_size=1, max_size=3)):
            faults[name, data.draw(st.integers(0, calls - 1))] = kind
        errors = []
        for build in (hjb_grid_problem, reference_hjb_grid_problem):
            cost, dynamics = _faulty_callables(args, faults)
            try:
                build(_hjb_spec(args, cost, dynamics))
            except (ValueError, _Fault) as exc:
                errors.append((type(exc), str(exc)))
            else:
                errors.append(None)
        assert errors[0] == errors[1]


class TestDominantDiagonalGenerator:
    @pytest.mark.parametrize("gamma", [0.4, 0.65, 0.9])
    def test_realized_gap_inside_requested(self, gamma):
        limit = dominance_gap_limit(gamma)
        p = dominant_diagonal_problem(n=12, L=3, gamma=gamma, delta=0.9 * limit, seed=11)
        gamma_r, delta_r = dominant_diagonal_gap(p)
        assert gamma_r < 1.0
        assert 0.0 < delta_r < dominance_gap_limit(gamma_r)

    def test_determinism(self):
        a = dominant_diagonal_problem(8, 2, 0.6, 0.2, seed=4)
        b = dominant_diagonal_problem(8, 2, 0.6, 0.2, seed=4)
        assert np.array_equal(a.pieces[0][0].toarray(), b.pieces[0][0].toarray())

    @pytest.mark.parametrize("n, L, seed, digest", [
        (2, 1, 0, "df1df0443ea95ef356f4370c2844d1cf"),
        (25, 3, 7, "dab200fe9c91967f76c4f253df72c76b"),
        (300, 4, 11, "c2ccfb048195b7f34ff6c3dfbed3b1aa"),
    ])
    def test_golden_pieces(self, n, L, seed, digest):
        # every off-diagonal draw and the cap must stay as first generated
        assert _golden_digest(dominant_diagonal_problem(n, L, 0.6, 0.2, seed=seed)) == digest


# save_instance edge cases: an empty problem, no pieces, empty pieces, awkward
# and exponent-form floats, chunk seams, one shared value, five-digit indices,
# the positional/exponent switches of repr and a meta needing escapes
EDGE_CASES = ["n0", "L0", "empty_piece", "awkward_floats", "meta", "chunk-1", "chunk",
              "chunk+1", "one_value", "exponent_floats", "five_digit_indices", "layout_edges"]


def _edge_case_problem(case):
    awkward = [-0.0, 5e-324, 1e-300, 1e16, 1.0000000000000002]
    if case == "n0":
        p = LinearGlbProblem([(np.zeros((0, 0)), np.zeros(0))], U=np.zeros(0))
    elif case == "L0":
        p = LinearGlbProblem([], U=[1.0, 2.0], a=[0.5, 0.0])
    elif case == "empty_piece":
        A = np.array([[0.0, 0.25, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.125]])
        b = np.array([1.0, 0.0, 2.0])
        p = LinearGlbProblem([(np.zeros((3, 3)), b), (A, b), (np.zeros((3, 3)), b)],
                             U=[3.0, 3.0, 3.0])
    elif case == "awkward_floats":
        A = np.zeros((5, 5))
        A[0, 1:] = awkward[1:]
        A[1, 0] = -0.0
        A[2, 4], A[4, 2] = awkward[4], awkward[1]
        p = LinearGlbProblem([(A, np.array(awkward))], U=awkward[::-1], a=awkward)
    elif case.startswith("chunk"):
        # a piece that ends just before, on and just after a chunk seam,
        # then a small piece that opens its list afresh
        size = _CHUNK + {"chunk-1": -1, "chunk": 0, "chunk+1": 1}[case]
        rng = np.random.default_rng(size)
        n = 100
        cells = rng.choice(n * n, size=size, replace=False)
        A = sparse.coo_array((rng.uniform(0.0, 0.9, size), np.divmod(cells, n)), shape=(n, n))
        B = sparse.coo_array(([0.5, 0.25], ([0, 99], [99, 0])), shape=(n, n))
        p = LinearGlbProblem([(A, rng.uniform(0.0, 1.0, n)), (B, np.zeros(n))],
                             U=np.full(n, 5.0))
    elif case == "one_value":
        # every stored value and every vector entry shares one bit pattern
        n = _CHUNK + 7
        A = sparse.diags_array([np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1])
        p = LinearGlbProblem([(A, np.ones(n))], U=np.ones(n), a=np.ones(n))
    elif case == "exponent_floats":
        # values that repr writes in exponent form
        exponent = [1e-05, 1e16, 5e-324]
        A = np.zeros((3, 3))
        A[0, 1], A[1, 2], A[2, 0] = exponent
        p = LinearGlbProblem([(A, np.array(exponent))], U=exponent[::-1],
                             a=[5e-324, 0.0, 1e-05])
    elif case == "five_digit_indices":
        n = 10_001
        A = sparse.coo_array(([0.5, 0.25, 0.125, 0.75], ([0, 9_999, 10_000, 10_000],
                                                       [10_000, 0, 9, 9_999])), shape=(n, n))
        p = LinearGlbProblem([(A, np.full(n, 0.5))], U=np.arange(n, dtype=float) + 1.0)
    elif case == "layout_edges":
        # either side of repr's switches between positional and exponent
        # form, subnormals, the smallest normal, the largest double, and
        # zeros of both signs next to each other
        edges = [1e-4, 9.999999999999999e-05, 1e-5, 1e16, 9999999999999998.0, 1e15,
                 1.2345678901234568e16, 5e-324, 4.9e-322, 2.2250738585072014e-308,
                 1.7976931348623157e308, 0.0, -0.0, 0.0]
        n = len(edges)
        A = sparse.coo_array((edges, (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))
        p = LinearGlbProblem([(A, np.array(edges))], U=edges[::-1], a=edges)
    else:
        meta = {
            "name": "Zürich \"quoted\"\nsecond line\ttab \u2713 \\",
            "nested": {"list": [1, 2.5, [None, True, False]], "empty_dict": {},
                       "empty_list": [], "deeper": {"x": {"y": [{}]}}},
            "none": None,
            "flag": True,
            "caf\u00e9": "\u65e5\u672c",
        }
        p = LinearGlbProblem([(np.array([[0.0, 0.5], [0.5, 0.0]]), np.ones(2))],
                             U=[10.0, 10.0], meta=meta)
    return p


class TestInstanceFiles:
    def test_round_trip_is_bit_exact(self, two_var, tmp_path):
        path = tmp_path / "two_var.json"
        save_instance(two_var, path)
        back = load_instance(path)
        assert back.n == two_var.n and back.L == two_var.L
        for (A1, b1), (A2, b2) in zip(two_var.pieces, back.pieces):
            assert np.array_equal(A1.toarray(), A2.toarray())
            assert np.array_equal(b1, b2)
        assert np.array_equal(back.U, two_var.U)
        assert np.array_equal(back.a, two_var.a)
        path2 = tmp_path / "again.json"
        save_instance(back, path2)
        assert path.read_text() == path2.read_text()

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        vals = np.array([[0.0, 1.0 / 3.0], [np.nextafter(0.5, 1.0), 0.0]])
        p = LinearGlbProblem([(vals, np.array([0.1, 0.2]))], U=[7.7, 8.8])
        path = tmp_path / "awkward.json"
        save_instance(p, path)
        back = load_instance(path)
        assert np.array_equal(back.pieces[0][0].toarray(), vals)
        assert np.array_equal(back.pieces[0][1], p.pieces[0][1])

    def test_signed_zeros_and_subnormals_round_trip(self, tmp_path):
        # -0.0 and 0.0 are distinct values of a vector: each keeps its own text
        A = np.zeros((3, 3))
        A[0, 2] = 0.5
        p = LinearGlbProblem([(A, np.array([0.0, -0.0, 5e-324]))], U=[-0.0, 5e-324, 0.0])
        path = tmp_path / "zeros.json"
        save_instance(p, path)
        assert path.read_text() == (
            '{\n "n": 3,\n "L": 1,\n "pieces": [\n  {\n   "A": [\n    [\n     0,\n     2,\n'
            '     0.5\n    ]\n   ],\n   "b": [\n    0.0,\n    -0.0,\n    5e-324\n   ]\n  }\n ],\n'
            ' "U": [\n  -0.0,\n  5e-324,\n  0.0\n ],\n "a": [\n  0.0,\n  0.0,\n  0.0\n ],\n'
            ' "meta": {}\n}\n'
        )
        back = load_instance(path)
        for vec, vec_back in ((p.U, back.U), (p.pieces[0][1], back.pieces[0][1])):
            assert vec_back.tobytes() == vec.tobytes()

    def test_negative_entry_error_names_location(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"n": 2, "L": 1,
               "pieces": [{"A": [[0, 1, -0.1]], "b": [0.0, 0.0]}],
               "U": [1.0, 1.0], "a": [0.0, 0.0], "meta": {}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemDataError, match=r"piece 1, row 0, col 1"):
            load_instance(path)

    def test_oversized_diagonal_warns_and_replaces(self, tmp_path):
        path = tmp_path / "diag.json"
        doc = {"n": 2, "L": 1,
               "pieces": [{"A": [[0, 0, 1.2]], "b": [0.0, 0.0]}],
               "U": [3.0, 3.0], "a": [0.0, 0.0], "meta": {}}
        path.write_text(json.dumps(doc))
        with pytest.warns(RedundantRowWarning):
            p = load_instance(path)
        assert p.pieces[0][1][0] == 3.0

    def test_malformed_documents(self, tmp_path):
        cases = [
            ("not json at all", "not valid JSON"),
            (json.dumps([1, 2, 3]), "top level"),
            (json.dumps({"pieces": [], "U": []}), "missing required field 'n'"),
            (json.dumps({"n": 1, "pieces": [], "U": [1.0], "L": 3}), "declared L"),
            (json.dumps({"n": 1, "pieces": [{"A": [[0, 5, 1.0]], "b": [0.0]}], "U": [1.0]}),
             "out of range"),
            (json.dumps({"n": 1, "pieces": [{"A": [[0, 0]], "b": [0.0]}], "U": [1.0]}),
             r"expected \[row, col, value\]"),
            (json.dumps({"n": 2, "pieces": [{"A": [], "b": [0.0]}], "U": [1.0, 1.0]}),
             "length 2"),
            # JSON booleans are not numbers, although Python's bool is an int
            (json.dumps({"n": True, "pieces": [], "U": [1.0]}), "n must be a nonnegative integer"),
            (json.dumps({"n": 1, "L": True, "pieces": [{"A": [], "b": [0.0]}], "U": [1.0]}),
             "declared L"),
            (json.dumps({"n": 2, "pieces": [{"A": [[0, 1, 0.5], [True, 0, 0.5]], "b": [0.0, 0.0]}],
                         "U": [1.0, 1.0]}), r"piece 1, entry 1: expected integer row"),
            (json.dumps({"n": 2, "pieces": [{"A": [[0, False, 0.5]], "b": [0.0, 0.0]}],
                         "U": [1.0, 1.0]}), r"piece 1, entry 0: expected integer row"),
            (json.dumps({"n": 2, "pieces": [{"A": [[0, 1, True]], "b": [0.0, 0.0]}],
                         "U": [1.0, 1.0]}), r"piece 1, entry 0: expected integer row"),
            (json.dumps({"n": 2, "pieces": [{"A": [], "b": [0.0, False]}], "U": [1.0, 1.0]}),
             "piece 1 offset b entry 1"),
            (json.dumps({"n": 2, "pieces": [], "U": [1.0, True]}), "U entry 1"),
            (json.dumps({"n": 2, "pieces": [], "U": [1.0, 1.0], "a": [True, 0.0]}), "a entry 0"),
            # nor are numeric strings, although float() would convert them
            (json.dumps({"n": 2, "pieces": [{"A": [[0, 1, "0.5"]], "b": [0.0, 0.0]}],
                         "U": [1.0, 1.0]}), r"piece 1, entry 0: expected integer row"),
            (json.dumps({"n": 2, "pieces": [{"A": [], "b": ["0.25", 0.0]}], "U": [1.0, 1.0]}),
             "piece 1 offset b entry 0"),
            (json.dumps({"n": 2, "pieces": [], "U": ["1.0", 2.0]}), "U entry 0"),
            # containers of the wrong kind
            (json.dumps({"n": 1, "pieces": [{"A": 5, "b": [0.0]}], "U": [1.0]}),
             "piece 1 field 'A' must be a list"),
            (json.dumps({"n": 1, "pieces": [], "U": {"x": 1}}), "U must be a list of numbers"),
            (json.dumps({"n": 1, "pieces": [], "U": [1.0], "a": {"x": 1}}),
             "a must be a list of numbers"),
            (json.dumps({"n": 1, "pieces": [{"A": [], "b": {"x": 1}}], "U": [1.0]}),
             "piece 1 offset b must be a list of numbers"),
            (json.dumps({"n": 1, "pieces": [], "U": [1.0], "meta": [1, 2]}),
             "meta must be an object"),
            (json.dumps({"n": 1, "pieces": [], "U": [1.0], "meta": "x"}), "meta must be an object"),
            # JSON integers beyond the float range
            (json.dumps({"n": 1, "pieces": [], "U": [10**400]}), "U entry 0: integer beyond"),
            (json.dumps({"n": 2, "pieces": [], "U": [1.0, 1.0], "a": [0.0, -10**400]}),
             "a entry 1: integer beyond"),
            (json.dumps({"n": 1, "pieces": [{"A": [], "b": [10**400]}], "U": [1.0]}),
             "piece 1 offset b entry 0: integer beyond"),
            (json.dumps({"n": 2, "pieces": [{"A": [[0, 1, 0.5], [1, 0, 10**400]], "b": [0.0, 0.0]}],
                         "U": [1.0, 1.0]}), r"piece 1, entry 1: integer beyond"),
            # the NaN, Infinity and -Infinity tokens Python's parser accepts
            ('{"n": 2, "pieces": [], "U": [1.0, NaN]}', "U entry 1: non-finite value nan"),
            ('{"n": 2, "pieces": [], "U": [1.0, 1.0], "a": [-Infinity, 0.0]}',
             "a entry 0: non-finite value -inf"),
            ('{"n": 2, "pieces": [{"A": [], "b": [0.0, Infinity]}], "U": [1.0, 1.0]}',
             "piece 1 offset b entry 1: non-finite value inf"),
            ('{"n": 2, "pieces": [{"A": [[0, 1, 0.5], [1, 0, NaN]], "b": [0.0, 0.0]}], '
             '"U": [1.0, 1.0]}', "piece 1, entry 1: non-finite value nan"),
            ('{"n": 2, "pieces": [{"A": [[0, 1, Infinity]], "b": [0.0, 0.0]}], "U": [1.0, 1.0]}',
             "piece 1, entry 0: non-finite value inf"),
        ]
        for text, message in cases:
            path = tmp_path / "doc.json"
            path.write_text(text)
            with pytest.raises(InstanceFormatError, match=message):
                load_instance(path)

    @pytest.mark.parametrize("family", ["ba", "nws", "hk", "speedplan", "hjb", "dominant"])
    def test_save_matches_per_entry_construction(self, family, tmp_path):
        # reference: the document built with one [row, col, value] list per entry
        if family == "dominant":
            p = dominant_diagonal_problem(12, 2, gamma=0.9, delta=0.3, seed=5)
        else:
            p = make_instance(SweepConfig(family=family), 60, seed=3)
        doc = {"n": p.n, "L": p.L, "pieces": [], "U": p.U.tolist(), "a": p.a.tolist(),
               "meta": p.meta}
        for A, b in p.pieces:
            coo = A.tocoo()
            order = np.lexsort((coo.col, coo.row))
            doc["pieces"].append({
                "A": [[int(coo.row[k]), int(coo.col[k]), float(coo.data[k])] for k in order],
                "b": b.tolist(),
            })
        ref = tmp_path / "ref.json"
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        path = tmp_path / "saved.json"
        save_instance(p, path)
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_save_matches_json_dump_on_edge_cases(self, case, tmp_path):
        p = _edge_case_problem(case)
        doc = {"n": p.n, "L": p.L, "pieces": [], "U": p.U.tolist(), "a": p.a.tolist(),
               "meta": p.meta}
        for A, b in p.pieces:
            coo = A.tocoo()
            order = np.lexsort((coo.col, coo.row))
            doc["pieces"].append({
                "A": [[int(coo.row[k]), int(coo.col[k]), float(coo.data[k])] for k in order],
                "b": b.tolist(),
            })
        ref = tmp_path / "ref.json"
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        path = tmp_path / "saved.json"
        save_instance(p, path)
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_python_writer_gives_the_same_bytes(self, case, tmp_path, monkeypatch):
        native_or_skip("glbopt_write_list")
        p = _edge_case_problem(case)
        save_instance(p, tmp_path / "native.json")
        python_path_for(monkeypatch, "glbopt_write_list")
        save_instance(p, tmp_path / "python.json")
        assert (tmp_path / "native.json").read_bytes() == (tmp_path / "python.json").read_bytes()

    def test_unencodable_meta_leaves_no_file(self, two_var, tmp_path):
        p = LinearGlbProblem(two_var.pieces, U=two_var.U, meta={"spec": object()})
        path = tmp_path / "bad_meta.json"
        with pytest.raises(TypeError):
            save_instance(p, path)
        assert not path.exists()

    def test_meta_round_trips(self, tmp_path):
        graphs = [gen_graph("ba", 8, seed=(7, 0), m=2)]
        p = random_linear_problem(graphs, seed=7)
        path = tmp_path / "meta.json"
        save_instance(p, path)
        back = load_instance(path)
        assert back.meta["generator"] == "random_linear"
        assert back.meta["seed"] == 7


def _stored_arrays(p):
    """Every stored array of a problem as (dtype, shape, bytes)."""
    arrays = [p.U, p.a] + [arr for A, b in p.pieces for arr in (A.indptr, A.indices, A.data, b)]
    return [(arr.dtype.str, arr.shape, arr.tobytes()) for arr in arrays]


def _per_entry_problem(doc):
    """The problem of a valid document, converted one entry at a time."""
    n = doc["n"]
    pieces = []
    for piece in doc["pieces"]:
        rows = [r for r, _, _ in piece["A"]]
        cols = [c for _, c, _ in piece["A"]]
        vals = [float(v) for _, _, v in piece["A"]]
        pieces.append((sparse.coo_array((vals, (rows, cols)), shape=(n, n)),
                       [float(v) for v in piece["b"]]))
    return LinearGlbProblem(pieces, U=[float(v) for v in doc["U"]],
                            a=[float(v) for v in doc["a"]], meta=doc["meta"])


@st.composite
def instance_documents(draw, min_entries=0):
    """Valid documents with n <= 5 and L <= 3: repeated and diagonal entries,
    integer and float values, integers beyond 2**53 among them.  With
    ``min_entries``, every piece holds that many entries and L >= 1."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    value = st.one_of(st.floats(0.0, 1e300), st.integers(0, 10**30))
    vector = st.lists(value, min_size=n, max_size=n)
    entries = st.lists(st.tuples(index, index, value).map(list), min_size=min_entries, max_size=8)
    pieces = draw(st.lists(st.fixed_dictionaries({"A": entries, "b": vector}),
                           min_size=min(min_entries, 1), max_size=3))
    return {"n": n, "L": len(pieces), "pieces": pieces, "U": draw(vector), "a": draw(vector),
            "meta": {"seed": draw(st.integers(0, 9))}}


_NOT_A_TRIPLET = r"expected \[row, col, value\]"


def _corrupt(kind, entry, n, data):
    """``entry`` with one fault of the given kind, and the message that names it."""
    field, index = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1))
    if kind == "bool":
        entry[field] = data.draw(st.booleans())
    elif kind == "numeric string":
        entry[field] = str(entry[field])
    elif kind == "float index":
        entry[index] = float(entry[index])
    elif kind in ("index n", "negative index", "index beyond int64"):
        entry[index] = {"index n": n, "negative index": -1, "index beyond int64": 2**63}[kind]
        return entry, r"index \(.*\) out of range"
    elif kind == "beyond float":
        entry[2] = 10**400
        return entry, "integer beyond the float range"
    elif kind == "non-finite":
        entry[2] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return entry, "non-finite value"
    elif kind == "wrong arity":
        return data.draw(st.sampled_from([entry[:2], entry + [0.0], []])), _NOT_A_TRIPLET
    elif kind == "not a list":
        return data.draw(st.sampled_from([{"row": entry[0]}, 5, "e", None])), _NOT_A_TRIPLET
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return entry, "expected integer row and col and a numeric value"


class _Document(dict):
    """A parsed document that records whether the collector ran when it was freed."""

    def __init__(self, doc, freeing):
        super().__init__(doc)
        self.freeing = freeing

    def __del__(self):
        self.freeing.append(gc.isenabled())


class TestLoader:
    @settings(max_examples=150, deadline=None)
    @given(instance_documents())
    def test_matches_per_entry_conversion(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RedundantRowWarning)
            assert _stored_arrays(load_instance(path)) == _stored_arrays(_per_entry_problem(doc))

    @pytest.mark.parametrize("kind", [
        "bool", "numeric string", "float index", "index n", "negative index",
        "index beyond int64", "beyond float", "non-finite", "wrong arity", "not a list"])
    @settings(max_examples=30, deadline=None)
    @given(doc=instance_documents(min_entries=1), data=st.data())
    def test_corrupt_entry_is_named(self, tmp_path_factory, kind, doc, data):
        ell = data.draw(st.integers(0, doc["L"] - 1))
        entries = doc["pieces"][ell]["A"]
        k = data.draw(st.integers(0, len(entries) - 1))
        entries[k], message = _corrupt(kind, entries[k], doc["n"], data)
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=rf"piece {ell + 1}, entry {k}: {message}"):
            load_instance(path)

    @settings(max_examples=100, deadline=None)
    @given(instance_documents(), st.sampled_from([True, "1.0", 10**400, math.nan, -math.inf]),
           st.data())
    def test_corrupt_vector_entry_is_named(self, tmp_path_factory, doc, bad, data):
        where = data.draw(st.sampled_from(["U", "a", *range(doc["L"])]))
        if where in ("U", "a"):
            vector, name = doc[where], where
        else:
            vector, name = doc["pieces"][where]["b"], f"piece {where + 1} offset b"
        k = data.draw(st.integers(0, doc["n"] - 1))
        vector[k] = bad
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_text(json.dumps(doc))
        if bad == 10**400:
            message = "integer beyond"
        elif isinstance(bad, float):
            message = "non-finite value"
        else:
            message = "expected a number"
        with pytest.raises(InstanceFormatError, match=rf"{name} entry {k}: {message}"):
            load_instance(path)

    @pytest.mark.parametrize("family", ["ba", "nws", "hk", "speedplan", "hjb", "dominant"])
    def test_round_trip_keeps_every_array(self, family, tmp_path):
        if family == "dominant":
            p = dominant_diagonal_problem(12, 2, gamma=0.9, delta=0.3, seed=5)
        else:
            p = make_instance(SweepConfig(family=family), 300, seed=3)
        path = tmp_path / "inst.json"
        save_instance(p, path)
        assert _stored_arrays(load_instance(path)) == _stored_arrays(p)

    @pytest.mark.parametrize("where", list(DEEP_DOCUMENTS))
    def test_deep_nesting_is_a_format_error(self, where, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_DOCUMENTS[where])
        with pytest.raises(InstanceFormatError, match=r"not valid JSON \(nesting too deep\)"):
            load_instance(path)

    @pytest.mark.parametrize("case", ["valid", "invalid JSON", "bad entry", "deep nesting"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_pauses_the_collector_and_restores_its_state(self, enabled, case, tmp_path,
                                                              monkeypatch):
        text = {
            "valid": json.dumps({"n": 2, "pieces": [{"A": [[0, 1, 0.5]], "b": [0.0, 1.0]}],
                                 "U": [1.0, 1.0]}),
            "invalid JSON": "{not json",
            "bad entry": json.dumps({"n": 2, "pieces": [{"A": [[0, 1, 0.5], [1, 0, "x"]],
                                                          "b": [0.0, 0.0]}], "U": [1.0, 1.0]}),
            "deep nesting": DEEP_DOCUMENTS["top"],
        }[case]
        path = tmp_path / "doc.json"
        path.write_text(text)
        parsing, freeing = [], []
        json_load = json.load

        def recording_load(fh):
            parsing.append(gc.isenabled())
            return _Document(json_load(fh), freeing)

        monkeypatch.setattr(json, "load", recording_load)
        (gc.enable if enabled else gc.disable)()
        try:
            with nullcontext() if case == "valid" else pytest.raises(InstanceFormatError):
                load_instance(path)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert parsing == [False]
        if case == "valid":  # the document died before the collector resumed
            assert freeing == [False]


def _loaded_unsorted(tmp_path):
    path = tmp_path / "unsorted.json"
    triplets = [[2, 1, 0.1], [0, 2, 0.2], [2, 0, 0.3], [0, 1, 0.4], [2, 1, 0.1]]
    doc = {"n": 3, "pieces": [{"A": triplets, "b": [0.0] * 3}], "U": [1.0] * 3}
    path.write_text(json.dumps(doc))
    return load_instance(path)


def _redundant_rows():
    rows, cols = [2, 1, 1, 0, 2, 0], [0, 1, 2, 1, 2, 2]  # rows 1 and 2 hold a diagonal >= 1
    A = sparse.coo_array(([0.3, 1.5, 0.2, 0.4, 1.0, 0.1], (rows, cols)), shape=(3, 3))
    with pytest.warns(RedundantRowWarning):
        return LinearGlbProblem([(A, np.zeros(3))], U=np.ones(3))


def _pieces(p):
    return [A for A, _ in p.pieces]


_CANONICAL_CASES = {
    **{family: lambda tmp, f=family: _pieces(make_instance(SweepConfig(family=f), 300, 3))
       for family in ("ba", "nws", "hk", "speedplan", "hjb")},
    "manipulator": lambda tmp: _pieces(manipulator_problem(
        *np.random.default_rng(5).uniform(0.0, 1.0, size=(4, 2, 29)), np.ones(30))),
    "dominant-diagonal": lambda tmp: _pieces(dominant_diagonal_problem(300, 2, 0.6, 0.2, seed=3)),
    "load_instance": lambda tmp: _pieces(_loaded_unsorted(tmp)),
    "precondition": lambda tmp: _pieces(precondition(make_instance(SweepConfig(family="hjb"), 300, 3))),
    "redundant-row": lambda tmp: _pieces(_redundant_rows()),
    "to_lp_form": lambda tmp: [to_lp_form(make_instance(SweepConfig(family="hjb"), 300, 3)).C],
}


class TestCanonicalPieces:
    # save_instance and write_lp emit entries in stored order without sorting
    @pytest.mark.parametrize("case", list(_CANONICAL_CASES))
    def test_stored_matrices_are_canonical_csr(self, case, tmp_path):
        for A in _CANONICAL_CASES[case](tmp_path):
            assert A.has_canonical_format
            coo = A.tocoo()
            assert np.array_equal(np.lexsort((coo.col, coo.row)), np.arange(coo.nnz))
            assert np.all(coo.data != 0.0)


# CSV fields: numbers as repr writes them and as people type them, and the
# text the row loop skips or rejects: headers, comments, quotes, trailing
# text, underscores, non-finite and out-of-range values, non-ASCII digits
_CSV_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["s", "k", "# note", "#", "", " ", "\t", " 2.5 ", "+.5", "7.", "1e400",
                     "-1e-400", "1_0", "inf", "-Infinity", "nan", '"4.5"', '"1,5"', "2.0abc",
                     "0x10", "\u0661", "\u00a0 1.0", "\ufeff3"]),
)
_CSV_ROWS = st.lists(_CSV_FIELDS, min_size=1, max_size=4).map(",".join)


@st.composite
def curvature_csv_texts(draw):
    """CSV text: an optional header line, then rows of two numbers with
    increasing arc length, with or without rows of any fields mixed in, one
    to four to a line, each line ended by LF, CRLF or CR."""
    numbers = st.floats(allow_nan=False, allow_infinity=False, width=32)
    arcs = sorted(set(draw(st.lists(numbers, max_size=12))))
    rows = [f"{s!r},{draw(numbers)!r}" for s in arcs]
    for other in draw(st.lists(_CSV_ROWS, max_size=4)):
        rows.insert(draw(st.integers(0, len(rows))), other)
    header = draw(st.sampled_from([[], ["s,k"], ["# arc length, curvature"], ["1.0"]]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(header + rows) + draw(st.sampled_from(["", newline]))


def _curvature_outcome(path):
    """What load_curvature_csv returns, bit for bit, or the error it raises."""
    try:
        s, k = load_curvature_csv(path)
    except InstanceFormatError as exc:
        return "error", str(exc)
    return s.view(np.int64).tolist(), k.view(np.int64).tolist(), s.dtype, k.dtype


class TestCurvatureCsv:
    @settings(max_examples=300, deadline=None)
    @given(curvature_csv_texts())
    def test_whole_file_reader_matches_the_row_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "curv.csv"
        path.write_bytes(text.encode())
        got = _curvature_outcome(path)
        table = instances._loadtxt_curvature_rows(path)
        if table is not None:
            assert np.array_equal(table.T.view(np.int64),
                                  np.array(instances._csv_curvature_rows(path)).view(np.int64))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(instances, "_loadtxt_curvature_rows", lambda path: None)
            assert got == _curvature_outcome(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("header", ["", "s,k", "# s, k"])
    def test_plain_files_are_read_whole(self, header, newline, tmp_path):
        # one header line at most, then two finite floats per row: the shape
        # of the curvature files perfbench writes
        rows = [f"{s}.0,{k!r}" for s, k in enumerate([0.0, 0.01, 1e-05, 0.05, 0.0])]
        path = tmp_path / "curv.csv"
        path.write_bytes(newline.join(([header] if header else []) + rows).encode() + b"\n")
        table = instances._loadtxt_curvature_rows(path)
        assert table is not None and table.tolist() == [[float(s), k] for s, k in enumerate(
            [0.0, 0.01, 1e-05, 0.05, 0.0])]

    @pytest.mark.parametrize("text", ["s,k\n# comment\n0,0\n1,1\n", '"0","0"\n1,1\n',
                                      "0,0\n1,1,extra\n", "0,0\n1_0,1\n", "0,0\n1\n2,2\n",
                                      "0,0\n1,1x\n", "0,0\n1,inf\n", "s,k\n"])
    def test_other_files_go_through_the_row_loop(self, text, tmp_path):
        path = tmp_path / "curv.csv"
        path.write_text(text)
        assert instances._loadtxt_curvature_rows(path) is None

    def test_header_rows_are_skipped_and_resampled(self, tmp_path):
        path = tmp_path / "curv.csv"
        path.write_text("s,k\n0.0,0.0\n1.0,0.5\n2.0,1.0\n")
        s, k = load_curvature_csv(path)
        assert np.array_equal(s, [0.0, 1.0, 2.0])
        spec = speed_plan_spec_from_csv(path, samples=5, v_max=2.0,
                                        acc_tangential=1.0, acc_normal=1.0)
        assert spec.path_length == 2.0
        assert np.allclose(spec.curvature, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_non_monotone_arc_length_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.0\n2.0,0.5\n1.0,1.0\n")
        with pytest.raises(InstanceFormatError, match="strictly increasing"):
            load_curvature_csv(path)

    def test_too_few_rows_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("s,k\n1.0,2.0\n")
        with pytest.raises(InstanceFormatError, match="at least two"):
            load_curvature_csv(path)

    @pytest.mark.parametrize("row", ["nan,0.1", "1.0,nan", "1.0,inf"])
    def test_non_finite_value_rejected_with_line(self, row, tmp_path):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"s,k\n0.0,0.0\n{row}\n2.0,0.0\n")
        with pytest.raises(InstanceFormatError, match="line 3: non-finite"):
            load_curvature_csv(path)


class TestNamedFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_seedless_lists_the_families_whose_build_reads_no_seed(self, family):
        first, second = generate(family, 40, 1), generate(family, 40, 2)
        same = len(first.pieces) == len(second.pieces) and all(
            (A1 != A2).nnz == 0 and np.array_equal(b1, b2)
            for (A1, b1), (A2, b2) in zip(first.pieces, second.pieces)
        )
        assert (family in SEEDLESS) == same


def _document(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


_ONES = np.ones((1, 3))


@pytest.mark.parametrize("call, match", [
    (lambda tmp: gen_graph("nws", 10, 1, k=3), "ring degree k must be a positive even integer, got 3"),
    (lambda tmp: gen_graph("nws", 10, 1, p=1.5), r"shortcut probability must be in \[0, 1\], got 1.5"),
    (lambda tmp: gen_graph("hk", 10, 1, p=-0.1), r"triangle probability must be in \[0, 1\], got -0.1"),
    (lambda tmp: random_linear_problem([]), "need at least one graph"),
    (lambda tmp: dominant_diagonal_problem(5, 1, gamma=1.0, delta=0.5, seed=0),
     r"gamma must be in \(0, 1\), got 1.0"),
    (lambda tmp: dominant_diagonal_problem(5, 1, gamma=0.5, delta=0.0, seed=0),
     r"delta must be in \(0, 1\), got 0.0"),
    (lambda tmp: dominant_diagonal_problem(1, 1, gamma=0.5, delta=0.5, seed=0),
     "need n >= 2 for off-diagonal structure"),
    (lambda tmp: maneuver_time([1.0], 0.1), "need a profile of at least two samples"),
    (lambda tmp: manipulator_problem(np.ones(3), _ONES, _ONES, _ONES, np.ones(4)),
     r"coefficient arrays must be \(p, n-1\), got shape \(3,\)"),
    (lambda tmp: manipulator_problem(_ONES, _ONES, np.ones((2, 3)), _ONES, np.ones(4)),
     r"backward_gain must have shape \(1, 3\), got \(2, 3\)"),
    (lambda tmp: manipulator_problem(_ONES, _ONES, _ONES, _ONES, np.ones(3)),
     r"cap must have shape \(4,\), got \(3,\)"),
    (lambda tmp: HjbGridSpec(axes=((-1.0, 1.0, 1),), controls=(0.0,), dynamics=None,
                             running_cost=None, discount=1.0, step=0.5),
     "each axis needs at least 2 points, got 1"),
    (lambda tmp: HjbGridSpec(axes=((1.0, -1.0, 3),), controls=(0.0,), dynamics=None,
                             running_cost=None, discount=1.0, step=0.5),
     r"axis extent must satisfy lo < hi, got \(1.0, -1.0\)"),
    (lambda tmp: hjb_preset("spiral", 5), "unknown hjb preset 'spiral'; expected const1d"),
    (lambda tmp: load_instance(_document(tmp, {"n": 1, "pieces": {"A": []}, "U": [1.0]})),
     "pieces must be a list"),
    (lambda tmp: load_instance(_document(tmp, {"n": 1, "pieces": [{"A": []}], "U": [1.0]})),
     "piece 1 must carry fields 'A' and 'b'"),
    (lambda tmp: load_instance(_document(tmp, {"n": 1, "pieces": [[]], "U": [1.0]})),
     "piece 1 must carry fields 'A' and 'b'"),
    (lambda tmp: generate("ba", 20, 1, pieces=2.5), "pieces must be an integer, got 2.5"),
    (lambda tmp: gen_graph("ba", 20.0, 1, m=2), "n must be an integer, got 20.0"),
    (lambda tmp: generate("ba", 20.0, 1), "n must be an integer, got 20.0"),
], ids=["nws-k", "nws-p", "hk-p", "no-graphs", "dd-gamma", "dd-delta", "dd-n", "maneuver-length",
        "manipulator-ndim", "manipulator-shape", "manipulator-cap", "hjb-points", "hjb-extent",
        "hjb-preset", "pieces-not-list", "piece-fields", "piece-not-object", "generate-pieces",
        "graph-n", "generate-n"])
def test_bad_input_is_rejected(tmp_path, call, match):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)
