import ctypes
import gc
import hashlib
import importlib.resources
import os
import re
import sys
import time
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from glbopt import (
    LinearGlbProblem,
    MonotoneMap,
    NonConvergenceError,
    OpCounter,
    ProblemDataError,
    RedundantRowWarning,
    StartPointError,
    contraction_rates,
    dominant_diagonal_gap,
    dominant_diagonal_problem,
    fixed_point_linear,
    precondition,
    dominance_gap_limit,
    reference_solve,
    selective_update_linear,
    selective_update_preconditioned,
    selective_update_solve,
    to_lp_form,
    write_lp,
)
from glbopt import _native, linear
from glbopt.bench import SELECTIVE_METHODS, SweepConfig, make_instance, solve_with_method
from glbopt.queues import POLICIES

from suite_helpers import (
    compiler_or_skip, exact_residual, make_random_problem, native_or_skip, python_path_for,
)


class TestGlbEval:
    def test_at_origin_returns_min_offset_capped(self):
        p = LinearGlbProblem(
            [
                (np.array([[0.0, 0.3], [0.2, 0.0]]), np.array([1.0, 9.0])),
                (np.array([[0.0, 0.1], [0.4, 0.0]]), np.array([2.0, 3.0])),
            ],
            U=[5.0, 5.0],
        )
        assert np.allclose(p.glb_eval(np.zeros(2)), [1.0, 3.0])

    def test_interior_point(self, two_var):
        assert np.allclose(two_var.glb_eval([2.0, 2.0]), [2.0, 2.0])

    def test_cap_becomes_active(self, two_var):
        assert np.allclose(two_var.glb_eval([100.0, 100.0]), [10.0, 10.0])

    def test_counts_one_multiplication_per_stored_nonzero(self, two_var):
        counter = OpCounter()
        two_var.glb_eval([1.0, 1.0], counter=counter)
        assert counter.multiplications == 2
        two_var.glb_eval([1.0, 1.0], counter=counter)
        assert counter.multiplications == 4

    def test_batch_matches_single(self, two_var):
        X = np.array([[0.0, 0.0], [2.0, 2.0], [100.0, 100.0], [3.0, 7.0]])
        batch = two_var.glb_eval_batch(X)
        for row, x in zip(batch, X):
            assert np.array_equal(row, two_var.glb_eval(x))


class TestConstruction:
    def test_negative_matrix_entry_is_located(self):
        A = np.array([[0.0, -0.1], [0.0, 0.0]])
        with pytest.raises(ProblemDataError, match=r"piece 1, row 0, col 1"):
            LinearGlbProblem([(A, np.zeros(2))], U=[1.0, 1.0])

    def test_negative_offset_is_located(self):
        with pytest.raises(ProblemDataError, match=r"piece 2, row 1"):
            LinearGlbProblem(
                [(np.zeros((2, 2)), np.zeros(2)), (np.zeros((2, 2)), np.array([0.0, -1.0]))],
                U=[1.0, 1.0],
            )

    def test_negative_cap_rejected(self):
        with pytest.raises(ProblemDataError, match="U must be nonnegative"):
            LinearGlbProblem([], U=[1.0, -2.0])

    @pytest.mark.parametrize("pieces, U, a, match", [
        ([(np.array([[0.0, np.inf], [0.0, 0.0]]), np.zeros(2))], [1.0, 1.0], None,
         "piece 1: non-finite matrix entry"),
        ([], [[1.0, 1.0]], None, r"U must be a vector, got shape \(1, 2\)"),
        ([], [1.0, np.nan], None, "U must be finite"),
        ([], [1.0, 1.0], [0.0], r"a must have shape \(2,\), got \(1,\)"),
        ([(np.zeros((2, 2)), np.zeros(2)), (np.zeros((2, 2)), np.zeros(3))], [1.0, 1.0], None,
         r"piece 2: b must have shape \(2,\), got \(3,\)"),
        ([(np.zeros((2, 2)), [0.0, np.inf])], [1.0, 1.0], None, "piece 1: non-finite offset entry"),
    ], ids=["matrix-inf", "U-matrix", "U-nan", "a-shape", "b-shape", "b-inf"])
    def test_malformed_data_rejected(self, pieces, U, a, match):
        with pytest.raises(ProblemDataError, match=match):
            LinearGlbProblem(pieces, U=U, a=a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lower_bound_is_located(self, bad):
        with pytest.raises(ProblemDataError, match=r"a must be finite, got a\[2\]"):
            LinearGlbProblem([], U=[1.0, 1.0, 1.0, 1.0], a=[0.0, 0.5, bad, bad])

    def test_redundant_diagonal_row_replaced_by_cap(self):
        A = np.array([[1.2, 0.5], [0.0, 0.0]])
        with pytest.warns(RedundantRowWarning, match="piece 1"):
            p = LinearGlbProblem([(A, np.array([1.0, 1.0]))], U=[3.0, 4.0])
        A0, b0 = p.pieces[0]
        assert A0.nnz == 0 or np.all(A0.toarray()[0] == 0.0)
        assert b0[0] == 3.0  # the cap value
        assert b0[1] == 1.0

    def test_diagonal_exactly_one_is_redundant(self):
        with pytest.warns(RedundantRowWarning):
            LinearGlbProblem([(np.eye(2), np.zeros(2))], U=[1.0, 1.0])

    def test_duplicate_coordinates_are_summed(self):
        A = sparse.coo_array(([0.25, 0.25], ([0, 0], [1, 1])), shape=(2, 2))
        p = LinearGlbProblem([(A, np.zeros(2))], U=[1.0, 1.0])
        assert p.pieces[0][0].toarray()[0, 1] == 0.5

    def test_problem_arrays_are_read_only(self, two_var):
        with pytest.raises(ValueError):
            two_var.U[0] = 99.0
        A, b = two_var.pieces[0]
        with pytest.raises(ValueError):
            b[0] = 99.0


def reference_tables(p):
    """The per-column table the cached one must reproduce, read piece by
    piece and column by column: for each column i, each row j in ascending
    order and each piece l storing A_l[j, i], the entry
    ``(l*n + j, j, A_l[j, i], last)``, where ``last`` marks row j's last piece."""
    n = p.n
    stored = []  # stored[l][i] maps row j to A_l[j, i]
    for A, _ in p.pieces:
        csc = A.tocsc()
        stored.append([
            dict(zip(csc.indices[csc.indptr[i]:csc.indptr[i + 1]].tolist(),
                     csc.data[csc.indptr[i]:csc.indptr[i + 1]].tolist()))
            for i in range(n)
        ])
    cols = []
    for i in range(n):
        col = []
        for j in range(n):
            hits = [(ell, by_col[i][j]) for ell, by_col in enumerate(stored) if j in by_col[i]]
            for m, (ell, w) in enumerate(hits):
                col.append((ell * n + j, j, w, m == len(hits) - 1))
        cols.append(col)
    return cols


TABLE_FAMILIES = ["ba", "nws", "hk", "speedplan", "hjb"]


def table_case(name):
    if name in TABLE_FAMILIES:
        return make_instance(SweepConfig(family=name), 200, seed=3)
    dominant = dominant_diagonal_problem(12, 2, gamma=0.9, delta=0.3, seed=5)
    return {
        "dominant_diagonal": dominant,
        "dominant_diagonal_hat": precondition(dominant),
        "two_var": LinearGlbProblem([(np.array([[0.0, 0.5], [0.5, 0.0]]), np.ones(2))],
                                    U=[10.0, 10.0]),
        "all_zero_piece": LinearGlbProblem(
            [(np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.5]]), np.ones(3)),
             (np.zeros((3, 3)), np.ones(3))],
            U=[4.0, 4.0, 4.0],
        ),
        "no_pieces": LinearGlbProblem([], U=[1.0, 2.0]),
        "empty": LinearGlbProblem([(np.zeros((0, 0)), np.zeros(0))], U=[]),
    }[name]


class _RecordingPiece:
    """A stored piece that records whether the collector ran when the table
    build asked for its COO form, and fails that request when it has no matrix."""

    def __init__(self, A):
        self.A = A
        self.collector_enabled = None

    def tocoo(self):
        self.collector_enabled = gc.isenabled()
        if self.A is None:
            raise RuntimeError("no COO form")
        return self.A.tocoo()


@st.composite
def small_problems(draw):
    """Problems with n <= 8 and L <= 3 whose entries, diagonals included, are
    each stored with probability about one half, so pieces often share an
    entry (j, i); row sums are scaled to at most 0.9."""
    n = draw(st.integers(1, 8))
    L = draw(st.integers(1, 3))
    weights = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    A = np.array(draw(st.lists(weights, min_size=L * n * n, max_size=L * n * n)))
    A = A.reshape(L, n, n)
    A *= np.minimum(1.0, 0.9 / np.maximum(A.sum(axis=2, keepdims=True), 1e-300))
    b = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=L * n, max_size=L * n)))
    U = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    return LinearGlbProblem(list(zip(A, b.reshape(L, n))), U=U)


class TestSelectiveTables:
    @pytest.mark.parametrize("name", TABLE_FAMILIES + [
        "dominant_diagonal", "dominant_diagonal_hat", "two_var", "all_zero_piece", "no_pieces",
        "empty",
    ])
    def test_equal_to_per_column_construction(self, name):
        p = table_case(name)
        cols = p._selective_tables()
        assert [list(c) for c in cols] == reference_tables(p)
        assert p._selective_tables() is cols

    @settings(max_examples=150, deadline=None)
    @given(small_problems())
    def test_small_problems_match_reference_and_fixed_sweeps(self, p):
        assert [list(c) for c in p._selective_tables()] == reference_tables(p)
        sel = selective_update_linear(p, eps=1e-9)
        fix = fixed_point_linear(p, eps=1e-9)
        assert np.max(np.abs(sel.x - fix.x)) <= sel.error_bound + fix.error_bound

    def test_collector_stops_tracking_every_entry(self):
        p = make_instance(SweepConfig(family="ba"), 300, seed=3)
        cols = p._selective_tables()
        for _ in range(2):  # the columns are untracked one collection after their entries
            gc.collect()
        inner = list(cols) + [e for c in cols for e in c]
        assert len(inner) > p.total_nnz
        assert not any(gc.is_tracked(obj) for obj in inner)

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_pauses_the_collector_and_restores_its_state(self, enabled, fails):
        p = make_instance(SweepConfig(family="ba"), 300, seed=3)
        piece = _RecordingPiece(None if fails else p.pieces[0][0])
        p._pieces = ((piece, p.pieces[0][1]),) + p.pieces[1:]
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError, match="no COO form") if fails else nullcontext():
                p._selective_tables()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert piece.collector_enabled is False
        assert (p._tables is None) is fails

    def test_indices_share_one_int_per_index(self):
        p = make_instance(SweepConfig(family="ba"), 1000, seed=3)
        cols = p._selective_tables()
        indices = [index for c in cols for k, j, _, _ in c for index in (k, j)]
        assert len(indices) > p.total_nnz
        assert len({id(index) for index in indices}) <= p.L * p.n


class TestSelectiveTablesPythonBuilder(TestSelectiveTables):
    """Every table test again, with the tuples made by the Python fallback."""

    @pytest.fixture(autouse=True)
    def _python_builder(self, monkeypatch):
        python_path_for(monkeypatch, "glbopt_fill_update_table")

    # hypothesis refuses to run one @given test from two classes, so it is restated here
    @settings(max_examples=150, deadline=None)
    @given(small_problems())
    def test_small_problems_match_reference_and_fixed_sweeps(self, p):
        assert [list(c) for c in p._selective_tables()] == reference_tables(p)


@pytest.fixture
def fresh_native_load():
    """Forget the process's native builder before and after the test, so the
    test loads its own and later tests load the usual one again."""
    _native.load.cache_clear()
    yield
    _native.load.cache_clear()


def _failing_compile(source, out):
    # leaves a partial output behind, as an interrupted compiler might
    return [sys.executable, "-c", "import sys; open(sys.argv[1], 'w').write('partial'); sys.exit(1)",
            str(out)]


def _garbage_library(source, out):
    return [sys.executable, "-c", "import sys; open(sys.argv[1], 'w').write('not a library')",
            str(out)]


class TestTableBuilders:
    def test_native_build_is_untracked_from_birth(self):
        native_or_skip("glbopt_fill_update_table")
        p = make_instance(SweepConfig(family="ba"), 300, seed=3)
        gc.disable()  # no collection may run between the build and the check
        try:
            cols = p._selective_tables()
            inner = list(cols) + [e for c in cols for e in c]
            tracked = sum(gc.is_tracked(obj) for obj in inner)
        finally:
            gc.enable()
        assert len(inner) > p.total_nnz
        assert tracked == 0

    @pytest.mark.parametrize("family", ["ba", "speedplan", "hjb"])
    def test_selective_reports_do_not_depend_on_the_builder(self, family, monkeypatch):
        native_or_skip("glbopt_fill_update_table")

        def reports():
            out = []
            for method in SELECTIVE_METHODS:
                for policy in POLICIES:
                    p = make_instance(SweepConfig(family=family), 300, seed=3)
                    r = solve_with_method(p, method, policy=policy, eps=1e-9)
                    out.append((r.x.tobytes(), r.residual_inf, r.scalar_multiplications,
                                r.component_updates, r.dequeues, r.verify_multiplications))
            return out

        native = reports()
        python_path_for(monkeypatch, "glbopt_fill_update_table")
        assert reports() == native
        assert len(native) == 8

    @pytest.mark.parametrize("name, bad", [
        ("k", np.array([1, 0], dtype=np.int32)),
        ("last", np.array([1.0, 1.0])),
        ("w", np.array([0.5, 0.0, 0.5, 0.0])[::2]),
    ], ids=["int32-k", "float-last", "strided-w"])
    def test_arrays_must_be_contiguous_and_of_the_dtype_read(self, name, bad):
        # the ctypes signature checks each array before C gets its pointer;
        # the table of two_var: column i holds A[1 - i, i] = 0.5
        build = native_or_skip("glbopt_fill_update_table")
        arrays = {"ptr": np.array([0, 1, 2], dtype=np.int64), "k": np.array([1, 0], dtype=np.int64),
                  "j": np.array([1, 0], dtype=np.int64), "w": np.array([0.5, 0.5]),
                  "last": np.array([True, True])}
        cols = []
        build(cols, list(range(2)), 2, *arrays.values())
        assert cols == [((1, 1, 0.5, True),), ((0, 0, 0.5, True),)]
        arrays[name] = bad
        with pytest.raises(ctypes.ArgumentError):
            build([], list(range(2)), 2, *arrays.values())

    def test_native_builder_is_used_where_it_can_be_built(self):
        compiler_or_skip()
        assert _native.function("glbopt_fill_update_table") is not None, _native.fallback

    def test_native_builder_compiles_into_the_cache(self, fresh_native_load, tmp_path,
                                                    monkeypatch):
        native_or_skip("glbopt_fill_update_table")
        _native.load.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert _native.function("glbopt_fill_update_table") is not None, _native.fallback
        assert [f.suffix for f in (tmp_path / "glbopt").iterdir()] == [".so"]

    @pytest.mark.parametrize("fault", ["compile-error", "no-compiler", "cache-not-a-dir",
                                       "load-error"])
    def test_build_falls_back_to_python(self, fault, fresh_native_load, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        if fault == "cache-not-a-dir":
            (tmp_path / "glbopt").write_text("")
        else:
            command = {"compile-error": _failing_compile, "load-error": _garbage_library,
                       "no-compiler": lambda source, out: [str(tmp_path / "no-such-cc")]}[fault]
            monkeypatch.setattr(_native, "compile_command", command)
        p = make_instance(SweepConfig(family="ba"), 200, seed=3)
        cols = p._selective_tables()
        assert [list(c) for c in cols] == reference_tables(p)
        assert _native.function("glbopt_fill_update_table") is None
        assert _native.fallback
        if fault in ("compile-error", "no-compiler"):
            assert list((tmp_path / "glbopt").iterdir()) == []
        if fault == "compile-error":
            assert "CalledProcessError" in _native.fallback

    def test_source_ships_as_package_data(self):
        assert (importlib.resources.files("glbopt") / "_native.c").is_file()


class TestNativeLibrary:
    def test_native_ba_draws_are_used_where_they_can_be_built(self):
        compiler_or_skip()
        assert _native.function("glbopt_ba_targets") is not None, _native.fallback

    def test_cached_file_that_does_not_load_is_rebuilt(self, fresh_native_load, tmp_path,
                                                        monkeypatch):
        native_or_skip("glbopt_fill_update_table")
        _native.load.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        lib = _native.library_path()
        lib.parent.mkdir()
        lib.write_text("not a library")
        assert _native.load() is not None, _native.fallback
        assert list(lib.parent.iterdir()) == [lib]
        assert lib.read_bytes() != b"not a library"

    def test_cached_file_that_does_not_load_is_removed_when_rebuilding_fails(
            self, fresh_native_load, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native, "compile_command", _failing_compile)
        lib = _native.library_path()
        lib.parent.mkdir()
        lib.write_text("not a library")
        assert _native.load() is None
        assert "CalledProcessError" in _native.fallback
        assert list(lib.parent.iterdir()) == []

    def test_build_prunes_old_libraries_only(self, fresh_native_load, tmp_path, monkeypatch):
        # another checkout sharing the cache may still load a recent library
        native_or_skip("glbopt_fill_update_table")
        _native.load.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "glbopt"
        cache.mkdir()
        now = time.time()

        def fake(name, age):
            (cache / name).write_text("")
            os.utime(cache / name, (now - age, now - age))

        day = 24 * 3600
        fake("_native-old.so", _native.PRUNE_AGE_S + day)
        fake("_native-recent.so", _native.PRUNE_AGE_S - day)
        fake("other-old.so", _native.PRUNE_AGE_S + day)
        assert _native.load() is not None, _native.fallback
        lib = _native.library_path().name
        assert sorted(f.name for f in cache.iterdir()) == sorted(
            [lib, "_native-recent.so", "other-old.so"])
        # a load from the cache builds nothing and so prunes nothing
        fake("_native-old.so", _native.PRUNE_AGE_S + day)
        _native.load.cache_clear()
        assert _native.load() is not None, _native.fallback
        assert (cache / "_native-old.so").exists()

    def test_load_from_the_cache_marks_the_library_recent(self, fresh_native_load, tmp_path,
                                                          monkeypatch):
        # a library built long ago but loaded since is in use, so no build prunes it
        native_or_skip("glbopt_fill_update_table")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _native.load.cache_clear()
        assert _native.load() is not None, _native.fallback
        lib = _native.library_path()
        old = time.time() - _native.PRUNE_AGE_S - 24 * 3600
        os.utime(lib, (old, old))
        _native.load.cache_clear()
        assert _native.load() is not None, _native.fallback
        assert lib.stat().st_mtime > time.time() - 3600
        # a build under another key leaves it in place
        compile_command = _native.compile_command
        monkeypatch.setattr(_native, "compile_command",
                            lambda source, out: [*compile_command(source, out),
                                                 "-DGLBOPT_KEY_PROBE"])
        _native.load.cache_clear()
        assert _native.load() is not None, _native.fallback
        assert lib.exists()

    def test_library_is_keyed_on_the_compile_command(self, fresh_native_load, tmp_path,
                                                     monkeypatch):
        native_or_skip("glbopt_fill_update_table")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        compile_command = _native.compile_command
        for define in ([], ["-DGLBOPT_KEY_PROBE"]):
            monkeypatch.setattr(_native, "compile_command",
                                lambda source, out: [*compile_command(source, out), *define])
            _native.load.cache_clear()
            assert _native.load() is not None, _native.fallback
        assert [f.suffix for f in (tmp_path / "glbopt").iterdir()] == [".so", ".so"]

    def test_key_is_the_source_text_not_its_path(self, tmp_path, monkeypatch):
        # every checkout of the same source shares one build
        path = _native.library_path()
        copy = tmp_path / "_native.c"
        copy.write_bytes(_native.SOURCE.read_bytes())
        monkeypatch.setattr(_native, "SOURCE", copy)
        assert _native.library_path() == path
        copy.write_bytes(copy.read_bytes() + b"\n")
        assert _native.library_path() != path

    def test_relative_cache_home_is_ignored(self, tmp_path, monkeypatch):
        # the XDG Base Directory spec: a relative $XDG_CACHE_HOME is invalid
        monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert _native.library_path().parent == tmp_path / ".cache" / "glbopt"

    def test_signatures_are_the_exported_functions(self):
        # every non-static glbopt_* function of _native.c, and nothing else
        source = _native.SOURCE.read_text()
        exported = re.findall(r"^(static\s+)?int\s+(glbopt_\w+)\s*\(", source, re.MULTILINE)
        assert sorted(name for static, name in exported if not static) == sorted(_native.SIGNATURES)


class TestContractionRates:
    def test_zero_diagonal_example(self, two_var):
        assert contraction_rates(two_var) == (0.5, 0.5)

    def test_diagonal_example(self):
        p = LinearGlbProblem([(np.array([[0.5, 0.25], [0.0, 0.5]]), np.array([1.0, 2.0]))], U=[9.0, 9.0])
        gamma, gamma_hat = contraction_rates(p)
        assert gamma == pytest.approx(0.75)
        assert gamma_hat == pytest.approx(0.5)  # (0.75 - 0.5) / (1 - 0.5)

    def test_all_zero_matrices(self):
        p = LinearGlbProblem([(np.zeros((3, 3)), np.ones(3))], U=np.ones(3))
        assert contraction_rates(p) == (0.0, 0.0)

    def test_rates_above_one_are_reported_not_raised(self):
        p = LinearGlbProblem([(np.array([[0.0, 2.0], [2.0, 0.0]]), np.ones(2))], U=[9.0, 9.0])
        gamma, _ = contraction_rates(p)
        assert gamma == 2.0
        report = selective_update_linear(p, eps=1e-9)
        assert report.error_bound is None  # contraction-based bound unavailable


class TestPrecondition:
    def test_worked_transform(self):
        p = LinearGlbProblem([(np.array([[0.5, 0.25], [0.0, 0.5]]), np.array([1.0, 2.0]))], U=[9.0, 9.0])
        pp = precondition(p)
        A, b = pp.pieces[0]
        assert np.allclose(A.toarray(), [[0.0, 0.5], [0.0, 0.0]])
        assert np.allclose(b, [2.0, 4.0])
        gamma, gamma_hat = contraction_rates(p)
        assert gamma == pytest.approx(0.75)
        assert gamma_hat == pytest.approx(0.5)

    def test_zero_diagonal_is_a_no_op(self, two_var):
        pp = precondition(two_var)
        assert np.array_equal(pp.pieces[0][0].toarray(), two_var.pieces[0][0].toarray())
        assert np.array_equal(pp.pieces[0][1], two_var.pieces[0][1])
        gamma, gamma_hat = contraction_rates(two_var)
        assert gamma_hat == gamma

    def test_two_var_is_its_own_transform(self, two_var):
        assert precondition(two_var) is two_var

    @pytest.mark.parametrize("family", ["ba", "nws", "hk", "speedplan"])
    def test_zero_diagonal_families_are_their_own_transform(self, family):
        p = make_instance(SweepConfig(family=family), 60, seed=1)
        assert precondition(p) is p

    def test_diagonal_gives_a_cached_transform(self):
        p = LinearGlbProblem([(np.array([[0.5, 0.25], [0.0, 0.0]]), np.ones(2))], U=[9.0, 9.0])
        hat = precondition(p)
        assert hat is not p
        assert precondition(p) is hat

    def test_solved_zero_diagonal_problem_is_freed_without_gc(self):
        p = make_instance(SweepConfig(family="ba"), 200, seed=1)
        selective_update_preconditioned(p, eps=1e-6)
        ref = weakref.ref(p)
        gc.disable()
        try:
            del p
            assert ref() is None
        finally:
            gc.enable()

    def test_uniform_diagonal_rate(self):
        # gamma = 0.75 with all diagonals 0.5 gives gamma_hat = 0.5
        A = np.array([[0.5, 0.25, 0.0], [0.0, 0.5, 0.25], [0.25, 0.0, 0.5]])
        p = LinearGlbProblem([(A, np.ones(3))], U=np.full(3, 9.0))
        _, gamma_hat = contraction_rates(p)
        assert gamma_hat == pytest.approx((0.75 - 0.5) / (1 - 0.5))

    def test_hat_problem_diagonals_are_zero(self):
        p = make_random_problem(seed=5, n=20, L=3, gamma=0.8)
        # introduce diagonals by mixing in a scaled identity
        A0, b0 = p.pieces[0]
        mixed = LinearGlbProblem(
            [(A0 + sparse.eye_array(20) * 0.4, b0)] + list(p.pieces[1:]), U=p.U, a=p.a
        )
        pp = precondition(mixed)
        for A, b in pp.pieces:
            assert np.all(A.diagonal() == 0.0)
            assert np.all(b >= 0.0)

    def test_same_fixed_point(self):
        p = LinearGlbProblem([(np.array([[0.5, 0.25], [0.1, 0.5]]), np.array([1.0, 2.0]))], U=[9.0, 9.0])
        pp = precondition(p)
        x_plain = reference_solve(p).x_star
        x_hat = pp.glb_eval(x_plain)
        assert np.allclose(x_hat, x_plain, atol=1e-11)


class TestSelectiveLinear:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_two_var_all_policies(self, two_var, policy):
        report = selective_update_linear(two_var, eps=1e-9, policy=policy)
        assert np.allclose(report.x, [2.0, 2.0], atol=1e-8)
        assert report.feasible

    def test_uses_fewer_multiplications_than_fixed_point(self, two_var):
        eps = 1e-9
        sel = selective_update_linear(two_var, eps=eps, policy="fifo")
        fix = fixed_point_linear(two_var, eps=eps)
        assert sel.scalar_multiplications < fix.scalar_multiplications

    def test_zero_offsets_drive_solution_to_zero(self):
        p = make_random_problem(seed=9, n=15, L=2, gamma=0.7)
        zeroed = LinearGlbProblem([(A, np.zeros(p.n)) for A, _ in p.pieces], U=p.U, a=p.a)
        report = selective_update_linear(zeroed, eps=1e-12)
        assert np.allclose(report.x, 0.0, atol=1e-11)

    def test_single_variable_two_pieces(self):
        p = LinearGlbProblem(
            [(np.zeros((1, 1)), np.array([3.0])), (np.zeros((1, 1)), np.array([5.0]))],
            U=[4.0],
        )
        report = selective_update_linear(p, eps=1e-12)
        assert report.x[0] == 3.0

    def test_start_below_image_rejected(self, two_var):
        with pytest.raises(StartPointError):
            selective_update_linear(two_var, x0=np.zeros(2), eps=1e-9)

    def test_start_point_error_comes_before_any_update(self, two_var):
        heads = []
        with pytest.raises(StartPointError):
            selective_update_linear(two_var, x0=np.zeros(2), eps=1e-9,
                                    monitor=lambda x, xi: heads.append(list(x)))
        assert heads == []

    def test_wall_time_excludes_the_table_build(self, two_var, monkeypatch):
        build = LinearGlbProblem._selective_tables

        def slow_build(p):
            time.sleep(0.5)
            return build(p)

        monkeypatch.setattr(LinearGlbProblem, "_selective_tables", slow_build)
        t0 = time.perf_counter()
        report = selective_update_linear(two_var, eps=1e-9)
        assert time.perf_counter() - t0 >= 0.5
        assert report.wall_time < 0.25

    @pytest.mark.parametrize("solver", [selective_update_linear, selective_update_preconditioned,
                                        fixed_point_linear])
    def test_nan_tolerance_rejected(self, two_var, solver):
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            solver(two_var, eps=float("nan"))

    def test_start_point_message_matches_generic_solver(self, two_var):
        # g(1, 0) = (1, 1.5): component 1 starts 1.5 below its image
        x0 = np.array([1.0, 0.0])
        g = MonotoneMap(2, lambda i, x: two_var.glb_eval(x)[i], lambda i: [1 - i], cap=two_var.U,
                        lower_bound=two_var.a)
        with pytest.raises(StartPointError) as generic:
            selective_update_solve(g, x0=x0, eps=1e-9)
        with pytest.raises(StartPointError) as linear:
            selective_update_linear(two_var, x0=x0, eps=1e-9)
        assert "component 1" in str(generic.value)
        assert str(linear.value) == str(generic.value)

    def test_diagonal_instance_still_reaches_eps_solution(self):
        # plain map with a substantial diagonal: the self-column must be reprocessed
        A = np.array([[0.6, 0.1], [0.2, 0.5]])
        p = LinearGlbProblem([(A, np.array([1.0, 1.0]))], U=[50.0, 50.0])
        report = selective_update_linear(p, eps=1e-10, policy="fifo")
        from_scratch = float(np.max(np.abs(report.x - p.glb_eval(report.x))))
        assert from_scratch <= 1e-10

    def test_preconditioned_agrees_with_plain(self):
        p = LinearGlbProblem([(np.array([[0.5, 0.25], [0.1, 0.5]]), np.array([1.0, 2.0]))], U=[9.0, 9.0])
        eps = 1e-10
        plain = selective_update_linear(p, eps=eps)
        pre = selective_update_preconditioned(p, eps=eps)
        gamma, gamma_hat = contraction_rates(p)
        tol = 2 * eps / (1 - gamma_hat)
        assert float(np.max(np.abs(plain.x - pre.x))) <= tol

    def test_zero_diagonal_trajectories_identical(self, two_var):
        traces = []
        for solver in (selective_update_linear, selective_update_preconditioned):
            trace = []
            solver(two_var, eps=1e-9, policy="variation",
                   monitor=lambda x, xi: trace.append((list(x), list(xi))))
            traces.append(trace)
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("seed", [4, 5])
    def test_stop_rule_reaches_exact_eps_solution(self, seed):
        # rounding in the kept etas ends the queue early on these seeds: the
        # first from-scratch check fails, the second passes
        p = make_instance(SweepConfig(family="ba"), 5000, seed)
        report = solve_with_method(p, "selective-plain", policy="fifo", eps=1e-9)
        assert exact_residual(p, report.x) <= 1e-9
        assert report.verify_multiplications == 2 * p.total_nnz

    @pytest.mark.parametrize("n, seed, policy, eps, expected", [
        (5000, 4, "fifo", 1e-9,
         ("10aab0316b8a9d759c262fee790481d767953bbe04a40e5c90507bc1e41e0f45",
          298675, 4111, 4111, 399600, "0x1.0c00000000000p-30")),
        (5000, 5, "fifo", 1e-9,
         ("69a4d0a0f50d4fb1d692db952c920ef04c20f5bed0eeed6f03e71de765b6dec1",
          288740, 3714, 3714, 399600, "0x1.0400000000000p-30")),
        (5000, 2, "variation", 1e-9,
         ("0999027596b2a43c051014f9b05042fcaf7ef991e5862785e81b13f4e382a799",
          291271, 3802, 3802, 399600, "0x1.0c00000000000p-30")),
        # on these two runs the updates after the resume read the rebuilt state
        (2000, 6, "lifo", 1e-10,
         ("508a5d32332f797e0d8a5fd97c585801106d9fe121529db76face32d2e402e7d",
          204567, 5265, 5265, 159600, "0x1.8000000000000p-34")),
        (500, 7, "fifo", 3e-11,
         ("ff3e62cd57ff98bd68f03b89dd40eed8f9a4716c2f99f340bfa096c8e2997852",
          32566, 541, 541, 39600, "0x1.0000000000000p-35")),
    ])
    def test_resumed_runs_are_pinned(self, n, seed, policy, eps, expected):
        # each run's first from-scratch check fails, so it resumes from the
        # fresh state: pin the resumed trajectory bit for bit
        p = make_instance(SweepConfig(family="ba"), n, seed)
        report = solve_with_method(p, "selective-plain", policy=policy, eps=eps)
        assert (
            hashlib.sha256(report.x.tobytes()).hexdigest(),
            report.scalar_multiplications,
            report.component_updates,
            report.dequeues,
            report.verify_multiplications,
            report.residual_inf.hex(),
        ) == expected

    @pytest.mark.parametrize("n, seed, policy, eps", [
        (500, 7, "fifo", 3e-11), (2000, 6, "lifo", 1e-10),
    ])
    def test_monitor_is_called_at_every_dequeue_attempt_across_a_resume(
            self, n, seed, policy, eps):
        # one call per dequeue attempt, including each attempt that finds the
        # queue empty and ends in a from-scratch check; the first call sees
        # the start point's residuals
        p = make_instance(SweepConfig(family="ba"), n, seed)
        calls = []

        def monitor(x, xi):
            calls.append(list(xi) if not calls else None)

        report = selective_update_linear(p, eps=eps, policy=policy, monitor=monitor)
        assert report.verify_multiplications == 2 * p.total_nnz  # one resume
        checks = report.verify_multiplications // p.total_nnz
        assert len(calls) == report.dequeues + checks
        assert calls[0] == (p.U - p.glb_eval(p.U)).tolist()

    def test_stop_rule_checks_once_when_kept_state_is_exact(self, two_var):
        report = selective_update_linear(two_var, eps=1e-9)
        assert report.verify_multiplications == two_var.total_nnz

    def test_monitor_observes_descent(self, two_var):
        heads = []
        selective_update_linear(
            two_var, eps=1e-9, policy="lifo",
            monitor=lambda x, xi: heads.append((list(x), list(xi))),
        )
        for k, (x, xi) in enumerate(heads):
            assert min(xi) >= 0.0
            if k:
                assert all(a <= b for a, b in zip(x, heads[k - 1][0]))

    def test_empty_problem(self):
        p = LinearGlbProblem([], U=np.zeros(0))
        report = selective_update_linear(p, eps=1e-9)
        assert report.x.size == 0 and report.feasible

    @pytest.mark.parametrize("solver", [selective_update_linear, selective_update_preconditioned])
    def test_update_budget_is_max_iter_sweeps_of_work(self, two_var, solver):
        # the run needs 34 updates (TestCounterDiscipline): 17 sweeps' worth at n = 2
        assert solver(two_var, eps=1e-9, max_iter=17).component_updates == 34
        with pytest.raises(NonConvergenceError, match="after 32 component updates") as info:
            solver(two_var, eps=1e-9, max_iter=16)
        assert info.value.residual_inf > 1e-9 and info.value.x.shape == (2,)

    @settings(max_examples=40, deadline=None)
    @given(p=small_problems())
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("solver", [selective_update_linear, selective_update_preconditioned])
    def test_every_dequeue_is_an_update(self, solver, policy, p):
        # a queued residual never falls (x_j holds while j waits, g_j only falls),
        # so each dequeue lowers one component: x never rises between loop heads
        for eps in (1e-3, 1e-9):
            heads = []
            report = solver(p, eps=eps, policy=policy, monitor=lambda x, xi: heads.append(list(x)))
            steps = [np.subtract(b, a) for a, b in zip(heads, heads[1:])]
            assert all(np.all(s <= 0.0) and np.count_nonzero(s) <= 1 for s in steps)
            assert sum(np.count_nonzero(s) for s in steps) == report.component_updates
            assert report.dequeues == report.component_updates == report.iterations

    def test_update_budget_stops_a_long_value_run(self):
        # without a budget this run makes about 15M component updates
        p = dominant_diagonal_problem(12, 2, gamma=0.9, delta=0.3, seed=5)
        with pytest.raises(NonConvergenceError, match="after 12000 component updates"):
            solve_with_method(p, "selective-plain", policy="value", eps=1e-9, max_iter=1000)


class TestLipschitzProperties:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_plain_and_hat_bounds(self, seed):
        p = make_random_problem(seed=seed, n=25, L=3, gamma=0.85)
        gamma, gamma_hat = contraction_rates(p)
        assert gamma_hat <= gamma
        pp = precondition(p)
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 15, size=(400, p.n))
        Y = rng.uniform(0, 15, size=(400, p.n))
        dist = np.max(np.abs(X - Y), axis=1)
        plain = np.max(np.abs(p.glb_eval_batch(X) - p.glb_eval_batch(Y)), axis=1)
        hat = np.max(np.abs(pp.glb_eval_batch(X) - pp.glb_eval_batch(Y)), axis=1)
        assert np.all(plain <= gamma * dist)
        assert np.all(hat <= gamma_hat * dist)


class TestPreconditionedAdvantage:
    def test_preconditioned_map_strictly_closer_on_dominant_instances(self):
        from glbopt import dominant_diagonal_problem

        p = dominant_diagonal_problem(n=15, L=2, gamma=0.65, delta=0.3, seed=3)
        gamma, delta = dominant_diagonal_gap(p)
        assert 0.0 <= delta < dominance_gap_limit(gamma)
        x_star = reference_solve(p).x_star
        pp = precondition(p)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = x_star + rng.uniform(0.0, 1.0, p.n) * rng.uniform(0.05, 3.0)
            lhs = float(np.max(np.abs(pp.glb_eval(x) - x_star)))
            rhs = float(np.max(np.abs(p.glb_eval(x) - x_star)))
            assert lhs < rhs

    def test_delta_limit_endpoints(self):
        assert dominance_gap_limit(0.0) == 0.5
        expected = (0.35**0.5 - 0.35) / 0.65
        assert dominance_gap_limit(0.65) == pytest.approx(expected, rel=1e-15)
        with pytest.raises(ValueError):
            dominance_gap_limit(1.0)


class TestLpForm:
    def test_two_var_row_accounting(self, two_var):
        form = to_lp_form(two_var)
        assert form.C.shape == (4, 2)  # 2 glb rows + 2 cap rows
        assert np.all(form.d <= 0.0)
        C = form.C.toarray()
        for row in C:
            assert np.sum(row > 0) == 1
        assert form.row_names == ("c_1_1", "c_1_2", "cap_1", "cap_2")

    def test_cap_only_problem(self):
        p = LinearGlbProblem([], U=[2.0, 3.0])
        form = to_lp_form(p)
        assert form.C.shape == (2, 2)
        assert np.array_equal(form.C.toarray(), np.eye(2))
        assert np.array_equal(form.d, [-2.0, -3.0])

    def test_diagonal_merges_into_positive_coefficient(self):
        p = LinearGlbProblem([(np.array([[0.5, 0.0], [0.0, 0.0]]), np.ones(2))], U=[9.0, 9.0])
        form = to_lp_form(p)
        assert form.C.toarray()[0, 0] == 0.5  # 1 - 0.5

    @pytest.mark.parametrize("family", ["ba", "hjb", "speedplan"])
    def test_matches_row_by_row_construction(self, family):
        # reference: each glb row built entry by entry, diagonal merged into 1 - A_ii
        p = make_instance(SweepConfig(family=family), 40, 3)
        entries, d = [], []  # (row, col, value) triplets, offsets
        for A, b in p.pieces:
            for i in range(p.n):
                lo, hi = A.indptr[i], A.indptr[i + 1]
                diag = 0.0
                for j, v in zip(A.indices[lo:hi], A.data[lo:hi]):
                    if j == i:
                        diag = v
                    else:
                        entries.append((len(d), j, -v))
                entries.append((len(d), i, 1.0 - diag))
                d.append(-b[i])
        for i in range(p.n):
            entries.append((len(d), i, 1.0))
            d.append(-p.U[i])
        rows, cols, vals = zip(*entries)
        ref = sparse.csr_array(sparse.coo_array((vals, (rows, cols)), shape=(len(d), p.n)))
        form = to_lp_form(p)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(form.C, attr), getattr(ref, attr))
        assert np.array_equal(form.d, d)
        assert len(form.row_names) == len(d)

    def test_feasible_sets_agree_by_sampling(self):
        p = make_random_problem(seed=13, n=3, L=2, gamma=0.6, cap=2.0)
        form = to_lp_form(p)
        C = form.C.toarray()
        rng = np.random.default_rng(13)
        X = rng.uniform(-0.1, 2.2, size=(3000, 3))
        in_lp = np.all(X @ C.T + form.d <= 1e-12, axis=1) & np.all(X >= 0, axis=1)
        in_sigma = np.all(X <= p.glb_eval_batch(X) + 1e-12, axis=1) & np.all(X >= 0, axis=1)
        assert np.array_equal(in_lp, in_sigma)

    def test_written_file_shape(self, two_var, tmp_path):
        path = tmp_path / "two_var.lp"
        write_lp(two_var, path)
        text = path.read_text()
        assert text.startswith("Maximize")
        assert " obj: x1 + x2" in text
        assert " c_1_1: x1 - 0.5 x2 <= 1" in text
        assert " c_1_2: - 0.5 x1 + x2 <= 1" in text
        assert " cap_1: x1 <= 10" in text
        assert "\n 0 <= x1 <= 10\n" in text
        assert text.rstrip().endswith("End")

    def test_seventeen_digit_coefficients(self, tmp_path):
        third = 1.0 / 3.0
        p = LinearGlbProblem([(np.array([[0.0, third], [0.0, 0.0]]), np.ones(2))], U=[1.0, 1.0])
        path = tmp_path / "third.lp"
        write_lp(p, path)
        assert f"{third:.17g}" in path.read_text()

    @pytest.mark.parametrize("family, digest", [
        ("ba", "0c87e253b6184bc300d2eb829d7563dca0479cb526bbdfcc974db77f9618c080"),
        ("hjb", "5c1e67d43380da9cefa3709a3127a2ba6ed81cbf8fdbfbabf850184fb12ab6c8"),
        ("speedplan", "2fc144adca23c2b8c99b647c4f73c80bda6b39139f4fbd4f8df4f23f78fa7caa"),
    ])
    def test_written_bytes_are_pinned(self, family, digest, tmp_path):
        # the LP text is an export format: same bytes for the same problem,
        # including the wrapping of rows longer than 220 characters
        path = tmp_path / f"{family}.lp"
        write_lp(make_instance(SweepConfig(family=family), 40, 3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSolverAgreement:
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_all_three_routes_agree_within_twice_error_bound(self, seed):
        from glbopt import error_bound, fixed_point_linear

        p = make_random_problem(seed=seed, n=20, L=3, gamma=0.8)
        eps = 1e-9
        _, gamma_hat = contraction_rates(p)
        tol = 2 * error_bound(1.0 - gamma_hat, eps)
        runs = [
            selective_update_linear(p, eps=eps, policy="variation").x,
            selective_update_preconditioned(p, eps=eps, policy="fifo").x,
            fixed_point_linear(p, eps=eps).x,
            fixed_point_linear(precondition(p), eps=eps).x,
        ]
        for a in range(len(runs)):
            for b in range(a + 1, len(runs)):
                assert float(np.max(np.abs(runs[a] - runs[b]))) <= tol

    def test_sampled_maximality_of_converged_point(self):
        # no feasible point may exceed the solver output by more than the
        # eps-solution error bound in any component
        from glbopt import error_bound, sample_feasible_points

        p = make_random_problem(seed=71, n=12, L=2, gamma=0.7)
        eps = 1e-9
        report = selective_update_linear(p, eps=eps, policy="value")
        _, gamma_hat = contraction_rates(p)
        bound = error_bound(1.0 - gamma_hat, eps)
        pts = sample_feasible_points(p, 200, seed=5)
        assert np.all(pts <= report.x + bound)

    def test_every_update_decreases_one_component_by_more_than_eps(self):
        eps = 1e-9
        for seed, diagonal in ((81, False), (82, True)):
            p = make_random_problem(seed=seed, n=15, L=2, gamma=0.75)
            if diagonal:
                A0, b0 = p.pieces[0]
                p = LinearGlbProblem(
                    [(A0 + sparse.eye_array(p.n) * 0.3, b0)] + list(p.pieces[1:]),
                    U=p.U, a=p.a,
                )
            heads = []
            selective_update_linear(p, eps=eps, policy="fifo",
                                    monitor=lambda x, xi: heads.append(list(x)))
            for prev, cur in zip(heads, heads[1:]):
                deltas = [a - b for a, b in zip(prev, cur)]
                changed = [d for d in deltas if d != 0.0]
                assert len(changed) <= 1
                if changed:
                    assert changed[0] > eps


class TestDominantDiagonalGap:
    def test_zero_problem(self):
        p = LinearGlbProblem([(np.zeros((2, 2)), np.zeros(2))], U=np.ones(2))
        assert dominant_diagonal_gap(p) == (0.0, 0.0)

    def test_rows_without_diagonal_are_not_dominant(self, two_var):
        gamma, delta = dominant_diagonal_gap(two_var)
        assert delta == 1.0
