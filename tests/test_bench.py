import csv
import hashlib
import json
import math

import numpy as np
import pytest

from glbopt import (
    bench, fixed_point_solve, load_instance, save_instance, selective_update_solve,
    LinearGlbProblem, MonotoneMap, SolveReport,
)
from glbopt.bench import SweepConfig, make_instance, run_sweep, solve_with_method, write_sweep_csv
from glbopt.cli import main
from glbopt.instances import FAMILIES, generate
from suite_helpers import DEEP_DOCUMENTS, python_path_for


class TestCounterDiscipline:
    """Hand-countable 2-var fixture: A = [[0, .5], [.5, 0]], b = (1, 1), U = (10, 10).

    Selective from x0 = U at eps = 1e-9: the init pass touches both stored
    nonzeros (2 muls); every update changes one x_i whose column holds one
    nonzero (1 mul each).  Update residuals run 4, 6, 3, 1.5, ... i.e.
    6 * 2^-(k-2) for the k-th update, so updates stop after k = 34
    (6 * 2^-32 = 1.4e-9 > eps, the next would be below).  Full sweeps halve
    the distance 8 * 2^-k, needing 33 sweeps of 2 muls each.
    """

    def test_selective_counts_frozen(self, two_var):
        report = solve_with_method(two_var, "selective-plain", policy="fifo", eps=1e-9)
        assert report.scalar_multiplications == 36
        assert report.component_updates == 34
        assert report.dequeues == 34

    def test_fixed_point_counts_frozen(self, two_var):
        report = solve_with_method(two_var, "fixed-plain", policy="fifo", eps=1e-9)
        assert report.scalar_multiplications == 66
        assert report.iterations == 33
        assert report.component_updates == 0 and report.dequeues == 0

    def test_preconditioning_is_identity_on_zero_diagonals(self, two_var):
        plain = solve_with_method(two_var, "selective-plain", policy="fifo", eps=1e-9)
        pre = solve_with_method(two_var, "selective-precond", policy="fifo", eps=1e-9)
        assert plain.scalar_multiplications == pre.scalar_multiplications
        assert np.array_equal(plain.x, pre.x)

    def test_unknown_method_rejected(self, two_var):
        with pytest.raises(ValueError, match="unknown method"):
            solve_with_method(two_var, "simplex")


class TestMaxIterBelowOne:
    """A work cap below one sweep is rejected up front, by every solver loop."""

    @pytest.mark.parametrize("max_iter", [0, -3])
    @pytest.mark.parametrize("method", bench.METHODS)
    def test_methods_reject_it(self, two_var, method, max_iter):
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            solve_with_method(two_var, method, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, -3])
    @pytest.mark.parametrize("solver", [selective_update_solve, fixed_point_solve])
    def test_general_solvers_reject_it(self, solver, max_iter):
        g = MonotoneMap(2, lambda i, x: min(0.5 * x[1 - i] + 1.0, 10.0), lambda i: [1 - i],
                        cap=[10.0, 10.0])
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            solver(g, None, 1e-9, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_sweep_config_rejects_it(self, max_iter):
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            SweepConfig(max_iter=max_iter)

    def test_solve_command_exits_one(self, two_var_file, capsys):
        assert main(["solve", two_var_file, "--max-iter", "0"]) == 1
        assert capsys.readouterr().err == "error: max_iter must be at least 1, got 0\n"


class TestIntegerParameters:
    """A count is a Python or numpy integer: a float or a bool is rejected, not truncated."""

    @pytest.mark.parametrize("max_iter", [2.5, 17.0, True])
    @pytest.mark.parametrize("method", bench.METHODS)
    def test_methods_reject_a_non_integer_max_iter(self, two_var, method, max_iter):
        with pytest.raises(ValueError, match=f"max_iter must be an integer, got {max_iter!r}"):
            solve_with_method(two_var, method, max_iter=max_iter)

    @pytest.mark.parametrize("solver", [selective_update_solve, fixed_point_solve])
    def test_general_solvers_reject_it(self, solver):
        g = MonotoneMap(2, lambda i, x: min(0.5 * x[1 - i] + 1.0, 10.0), lambda i: [1 - i],
                        cap=[10.0, 10.0])
        with pytest.raises(ValueError, match="max_iter must be an integer, got 2.5"):
            solver(g, None, 1e-9, max_iter=2.5)

    @pytest.mark.parametrize("field, value", [
        ("max_iter", 2.5), ("max_iter", True), ("repetitions", 2.5), ("repetitions", True),
    ])
    def test_sweep_config_rejects_it(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize("size", [20.5, True])
    def test_sweep_config_rejects_a_non_integer_size(self, size):
        with pytest.raises(ValueError, match=f"size must be an integer, got {size!r}"):
            SweepConfig(sizes=(20, size))

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_numpy_integers_are_accepted(self, two_var, method):
        report = solve_with_method(two_var, method, max_iter=np.int64(40))
        assert report.x.tolist() == solve_with_method(two_var, method, max_iter=40).x.tolist()
        config = SweepConfig(repetitions=np.int64(2), max_iter=np.int32(5))
        assert (config.repetitions, config.max_iter) == (2, 5)


class TestSweep:
    def small_config(self, **overrides):
        base = dict(
            family="ba", sizes=(12,), tolerances=(1e-6,), pieces=2,
            policies=("fifo", "variation"), methods=("fixed-precond", "selective-plain"),
            repetitions=2, seed_base=1,
        )
        base.update(overrides)
        return SweepConfig(**base)

    def test_minimal_sweep_row_count(self):
        config = self.small_config(methods=("selective-plain",), policies=("fifo",), repetitions=1)
        rows = run_sweep(config, log=lambda m: None)
        assert len(rows) == 2  # one run row + one aggregate row
        assert rows[1]["seed"] == "mean"

    def test_row_counts_and_schema(self, tmp_path):
        config = self.small_config()
        rows = run_sweep(config, log=lambda m: None)
        # combos: fixed-precond plus selective-plain x 2 policies = 3
        assert len(rows) == 3 * 2 + 3
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert tuple(records[0]) == bench.SWEEP_COLUMNS
        assert len(records) == len(rows) + 1

    def test_aggregates_are_exact_means(self):
        rows = run_sweep(self.small_config(), log=lambda m: None)
        runs = [r for r in rows if r["seed"] != "mean"]
        means = [r for r in rows if r["seed"] == "mean"]
        for agg in means:
            members = [
                r for r in runs
                if (r["method"], r["policy"], r["eps"]) == (agg["method"], agg["policy"], agg["eps"])
            ]
            assert agg["scalar_multiplications"] == pytest.approx(
                sum(m["scalar_multiplications"] for m in members) / len(members)
            )

    def test_rerun_reproduces_all_non_time_columns(self, tmp_path):
        config = self.small_config()
        frames = []
        for _ in range(2):
            rows = run_sweep(config, log=lambda m: None)
            frames.append([
                {k: v for k, v in row.items() if k != "wall_time"} for row in rows
            ])
        assert frames[0] == frames[1]

    def test_time_budget_skips_larger_sizes(self):
        config = self.small_config(sizes=(10, 20), time_budget=0.0,
                                   methods=("selective-plain",), policies=("fifo",))
        rows = run_sweep(config, log=lambda m: None)
        run_sizes = {r["n"] for r in rows if r["seed"] != "mean"}
        assert run_sizes == {10}

    def test_failures_recorded_in_row(self, tmp_path, two_var):
        path = tmp_path / "inst.json"
        save_instance(two_var, path)
        config = SweepConfig(
            family="file", instance_path=str(path), sizes=(2,), tolerances=(1e-12,),
            methods=("fixed-plain", "selective-plain"), policies=("fifo",),
            # starves the fixed-point iteration (43 sweeps needed), not the
            # selective run (44 updates needed, 30 * n = 60 allowed)
            repetitions=1, max_iter=30,
        )
        messages = []
        rows = run_sweep(config, log=messages.append)
        failed = [r for r in rows if r["seed"] != "mean" and r["method"] == "fixed-plain"]
        assert len(failed) == 1 and math.isnan(failed[0]["residual"])
        good = [r for r in rows if r["seed"] != "mean" and r["method"] == "selective-plain"]
        assert len(good) == 1 and good[0]["residual"] <= 1e-12
        assert messages, "failure should be logged"

    def test_verify_multiplications_column(self, tmp_path, two_var):
        assert bench.SWEEP_COLUMNS[-1] == "verify_multiplications"
        config = self.small_config()
        rows = run_sweep(config, log=lambda m: None)
        runs = [r for r in rows if r["seed"] != "mean"]
        for row in runs:
            p = make_instance(config, 12, seed=row["seed"])
            if row["method"] == "fixed-precond":
                assert row["verify_multiplications"] == 0
            else:  # at least the one from-scratch check that stopped the run
                assert row["verify_multiplications"] >= p.total_nnz > 0
        for agg in (r for r in rows if r["seed"] == "mean"):
            members = [r["verify_multiplications"] for r in runs
                       if (r["method"], r["policy"]) == (agg["method"], agg["policy"])]
            assert agg["verify_multiplications"] == pytest.approx(sum(members) / len(members))
        # a failed run records 0, like its other counters
        path = tmp_path / "inst.json"
        save_instance(two_var, path)
        config = SweepConfig(family="file", instance_path=str(path), sizes=(2,),
                             methods=("selective-plain",), policies=("fifo",),
                             repetitions=1, max_iter=1)
        failed = run_sweep(config, log=lambda m: None)[0]
        assert math.isnan(failed["residual"]) and failed["verify_multiplications"] == 0

    def test_operation_count_sweep_row_accounting(self):
        # the operation-count protocol shape: 10 tolerances x (one fixed
        # method + one selective method over four policies) = 50 cells
        config = SweepConfig(
            family="ba", sizes=(12,), pieces=2,
            tolerances=tuple(10.0 ** -k for k in range(1, 11)),
            methods=("fixed-precond", "selective-plain"),
            repetitions=1,
        )
        rows = run_sweep(config, log=lambda m: None)
        aggregates = [r for r in rows if r["seed"] == "mean"]
        runs = [r for r in rows if r["seed"] != "mean"]
        assert len(aggregates) == 50
        assert len(runs) == 50

    def test_make_instance_families(self):
        config = SweepConfig(family="speedplan", sizes=(9,))
        p = make_instance(config, 9, seed=1)
        assert p.n == 9 and p.L == 2
        config = SweepConfig(family="hjb", sizes=(7,))
        p = make_instance(config, 7, seed=1)
        assert p.n == 7 and p.L == 3  # drift preset carries three controls

    @pytest.mark.parametrize("family, builds", [
        ("hjb", 1), ("speedplan", 1), ("file", 1), ("ba", 3),
    ])
    def test_seedless_instance_is_built_once_per_size(self, family, builds, two_var,
                                                      tmp_path, monkeypatch):
        path = tmp_path / "inst.json"
        save_instance(two_var, path)
        calls = []

        def counted(config, n, seed):
            calls.append((n, seed))
            return make_instance(config, n, seed)

        monkeypatch.setattr(bench, "make_instance", counted)
        config = self.small_config(family=family, sizes=(12, 20), repetitions=3,
                                   instance_path=str(path))
        rows = run_sweep(config, log=lambda m: None)
        assert len(calls) == 2 * builds
        assert sorted({n for n, _ in calls}) == [12, 20]
        assert len([r for r in rows if r["seed"] != "mean"]) == 2 * 3 * 3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown family"):
            SweepConfig(family="mesh")
        with pytest.raises(ValueError, match="repetitions"):
            SweepConfig(repetitions=0)
        with pytest.raises(ValueError, match="instance_path"):
            SweepConfig(family="file")
        with pytest.raises(ValueError, match="unknown method"):
            SweepConfig(methods=("newton",))

    def test_config_rejects_an_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'dfs'"):
            SweepConfig(policies=("fifo", "dfs"))

    @pytest.mark.parametrize("eps", [0.0, -1e-6, math.nan])
    def test_config_rejects_a_tolerance_that_is_not_positive(self, eps):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            SweepConfig(tolerances=(1e-6, eps))


@pytest.fixture
def two_var_file(tmp_path, two_var):
    path = tmp_path / "two_var.json"
    save_instance(two_var, path)
    return str(path)


def _non_time_rows(path) -> list[list[str]]:
    """The CSV records of a sweep, header included, without the wall_time column."""
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    keep = [k for k, col in enumerate(records[0]) if col != "wall_time"]
    return [[record[k] for k in keep] for record in records]


def _digest(records: list[list[str]]) -> str:
    return hashlib.sha256("\n".join(map(",".join, records)).encode()).hexdigest()


SWEEP_HELP = """\
usage: glbopt sweep [-h] [--family {ba,nws,hk,speedplan,hjb,file}]
                    [--instance INSTANCE] [--sizes SIZES]
                    [--tolerances TOLERANCES] [--pieces PIECES]
                    [--max-coeff MAX_COEFF] [--max-offset MAX_OFFSET]
                    [--cap CAP] [--policies POLICIES] [--methods METHODS]
                    [--reps REPS] [--seed SEED] [--time-budget TIME_BUDGET]
                    [--max-iter MAX_ITER] --out OUT

options:
  -h, --help            show this help message and exit
  --family {ba,nws,hk,speedplan,hjb,file}
  --instance INSTANCE   instance file (family 'file')
  --sizes SIZES         comma-separated instance sizes
  --tolerances TOLERANCES
                        comma-separated eps values
  --pieces PIECES
  --max-coeff MAX_COEFF
  --max-offset MAX_OFFSET
  --cap CAP
  --policies POLICIES
  --methods METHODS
  --reps REPS
  --seed SEED
  --time-budget TIME_BUDGET
                        seconds per run
  --max-iter MAX_ITER   work cap in full sweeps; selective methods stop after
                        max-iter * n component updates
  --out OUT
"""


# `glbopt gen` arguments and the sha256 of the file they write
GEN_FILE_PINS = [
    (["--family", "ba", "--n", "300", "--seed", "1"],
     "af8c3b5e1657fc0b95d4057b5393db6ee27d9cc9ccb9501fe88d15452595c8d5"),
    (["--family", "speedplan", "--n", "200", "--curvature-csv", "CSV", "--v-max", "12"],
     "69bb4977917388ec8e96ad0524cde413b3c3b794fb0637ee6f56940bc0b08bc1"),
    (["--family", "hjb", "--preset", "drift1d", "--n", "41", "--discount", "1",
      "--step", "0.25"],
     "c01cbdef619f853791d55bad1908f27458e2510dae684485baf504cfcee21e82"),
    (["--family", "hjb", "--preset", "spin2d", "--n", "21", "--discount", "0.95",
      "--step", "0.5"],
     "cf1529c1ecf92242a8bd71f3f8f744787de7cc9a32ef5d8eb1f68041777ed4cd"),
    (["--family", "nws", "--n", "60", "--seed", "2", "--graph-k", "4", "--graph-p", "0.1"],
     "28133d25036acd3662de7ca9628bf92d3b483707cd2c0d8816db4cace3b0fda1"),
    (["--family", "hk", "--n", "60", "--seed", "3", "--graph-m", "3", "--graph-p", "0.5"],
     "d164c14ae761cff8fb38a61c03d223074fb6bb751051df63366f74daf616a4d7"),
    (["--family", "ba", "--n", "80", "--pieces", "2", "--max-coeff", "0.3",
      "--max-offset", "2", "--cap", "50"],
     "17da3e4567daf6e9124882bd2c9d0fd529813bd40edeb2993a299450a601fda9"),
    (["--family", "speedplan", "--n", "50", "--path-length", "7.5", "--acc-t", "2"],
     "f7f3ffaf8e990b370a8f557f11406e0eb126ef7499018ac6994d822d572e1e61"),
    (["--family", "hjb", "--n", "31"],  # the default preset, const1d
     "704a56bfbafa8fd3431a000f85fd626691614cf3fec7556285c887bc80d3ebd6"),
]


class TestCli:
    def test_solve_reaches_eps_solution(self, two_var_file, capsys):
        code = main(["solve", two_var_file, "--method", "selective-precond",
                     "--policy", "fifo", "--eps", "1e-9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "residual:" in out and "feasible: True" in out

    def test_solve_writes_report(self, two_var_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["solve", two_var_file, "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert np.allclose(doc["x"], [2.0, 2.0], atol=1e-8)

    @pytest.mark.parametrize("method, checks", [("selective-plain", 1), ("fixed-precond", 0)])
    def test_solve_reports_verify_multiplications(self, method, checks, two_var, two_var_file,
                                                  tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["solve", two_var_file, "--method", method, "--out", str(out_path)]) == 0
        expected = checks * two_var.total_nnz
        assert f"verify_multiplications: {expected}" in capsys.readouterr().out.splitlines()
        assert json.loads(out_path.read_text())["verify_multiplications"] == expected

    def test_solve_infeasible_exits_two(self, tmp_path, two_var, capsys):
        # a above the top fixed point (2, 2), and a above the cap U = (10, 10):
        # a file with a_i > U_i loads and is an infeasible problem, not a
        # format error
        for a in ([3.0, 3.0], [0.0, 11.0]):
            shifted = LinearGlbProblem(
                [(A, b) for A, b in two_var.pieces], U=two_var.U, a=np.array(a)
            )
            path = tmp_path / "infeasible.json"
            save_instance(shifted, path)
            assert main(["solve", str(path)]) == 2, a

    def test_solve_malformed_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"n": 1, "pieces": [{"A": 5, "b": [0.0]}], "U": [1.0]}, "'A'"),
        ({"n": 1, "pieces": [], "U": {"x": 1}}, "U"),
        ({"n": 1, "pieces": [], "U": [1.0], "meta": [1, 2]}, "meta"),
    ])
    def test_solve_wrong_container_exits_one(self, doc, field, tmp_path, capsys):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("where", list(DEEP_DOCUMENTS))
    def test_solve_deeply_nested_file_exits_one(self, where, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_DOCUMENTS[where])
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nesting too deep" in err and "Traceback" not in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["solve", "/nonexistent/path.json"]) == 1

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_solve_nan_tolerance_exits_one(self, method, two_var_file, capsys):
        assert main(["solve", two_var_file, "--method", method, "--eps", "nan"]) == 1
        assert "eps must be positive, got nan" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["solve"]) == 1  # missing instance argument

    def test_gen_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["gen", "--family", "ba", "--n", "40", "--seed", "7",
                         "--out", str(path)]) == 0
        assert paths[0].read_text() == paths[1].read_text()

    @pytest.mark.parametrize("argv, digest", GEN_FILE_PINS)
    def test_gen_file_bytes_are_pinned(self, argv, digest, tmp_path, capsys):
        # the instance file layout is a contract: same bytes for the same arguments
        csv_path = tmp_path / "curv.csv"
        csv_path.write_text("s,k\n0.0,0.0\n10.0,0.05\n20.0,0.1\n30.0,0.02\n50.0,0.0\n")
        out = tmp_path / "inst.json"
        argv = [str(csv_path) if arg == "CSV" else arg for arg in argv]
        assert main(["gen", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sweep_builds_what_gen_builds(self, family, tmp_path, capsys):
        # gen at its defaults, except preset drift1d, writes the sweep's instance
        gen_path, sweep_path = tmp_path / "gen.json", tmp_path / "sweep.json"
        preset = ["--preset", "drift1d"] if family == "hjb" else []
        assert main(["gen", "--family", family, "--n", "40", "--seed", "2", *preset,
                     "--out", str(gen_path)]) == 0
        save_instance(make_instance(SweepConfig(family=family), 40, seed=2), sweep_path)
        assert gen_path.read_bytes() == sweep_path.read_bytes()

    def test_generate_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'file'"):
            generate("file", 10)

    def test_gen_parameter_of_another_family_exits_one(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen", "--family", "ba", "--n", "20", "--graph-k", "4",
                     "--out", str(out)]) == 1
        assert "unknown parameters for family 'ba'" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_speedplan_from_csv_pipeline(self, tmp_path, capsys):
        csv_path = tmp_path / "curv.csv"
        csv_path.write_text("s,k\n0.0,0.0\n4.0,0.0\n")
        out = tmp_path / "plan.json"
        code = main(["gen", "--family", "speedplan", "--n", "5",
                     "--curvature-csv", str(csv_path), "--v-max", "2.0",
                     "--acc-t", "1.0", "--acc-n", "1.0", "--out", str(out)])
        assert code == 0
        problem = load_instance(out)
        assert main(["solve", str(out), "--eps", "1e-10"]) == 0
        assert problem.n == 5

    def test_gen_hjb_const_solves_to_inverse_discount(self, tmp_path, capsys):
        out = tmp_path / "hjb.json"
        assert main(["gen", "--family", "hjb", "--preset", "const1d", "--n", "6",
                     "--discount", "1.0", "--step", "0.5", "--out", str(out)]) == 0
        report_path = tmp_path / "sol.json"
        assert main(["solve", str(out), "--eps", "1e-10", "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert np.allclose(doc["x"], 1.0, atol=1e-9)

    def test_export_lp(self, two_var_file, tmp_path, capsys):
        out = tmp_path / "model.lp"
        assert main(["export-lp", two_var_file, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("Maximize")
        assert text.count("c_1_") == 2 and text.count("cap_") == 2

    def test_sweep_command_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--family", "nws", "--sizes", "12", "--tolerances",
                     "1e-4,1e-6", "--pieces", "2", "--methods", "selective-plain",
                     "--policies", "fifo", "--reps", "1", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 1 + 2 + 2  # header + runs + aggregates

    def test_sweep_help_is_pinned(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == SWEEP_HELP

    @pytest.mark.parametrize("argv, config", [
        ([], {}),
        (["--family", "nws", "--instance", "unused.json", "--sizes", "30,20,",
          "--tolerances", "1e-4,1e-7", "--pieces", "3", "--max-coeff", "0.4",
          "--max-offset", "2", "--cap", "50", "--policies", "lifo,value",
          "--methods", "fixed-plain,selective-precond", "--reps", "2", "--seed", "5",
          "--time-budget", "100", "--max-iter", "5000"],
         dict(family="nws", instance_path="unused.json", sizes=(30, 20),
              tolerances=(1e-4, 1e-7), pieces=3, max_coeff=0.4, max_offset=2.0, cap=50.0,
              policies=("lifo", "value"), methods=("fixed-plain", "selective-precond"),
              repetitions=2, seed_base=5, time_budget=100.0, max_iter=5000)),
        (["--family", "file", "--instance", "FILE"], dict(family="file", instance_path="FILE")),
    ], ids=["defaults", "every-flag", "file"])
    def test_sweep_command_runs_its_config(self, argv, config, two_var_file, tmp_path, capsys):
        # the flags given, and no others, reach the sweep: same rows as the config
        argv = [two_var_file if arg == "FILE" else arg for arg in argv]
        config = {key: two_var_file if value == "FILE" else value for key, value in config.items()}
        cli_path, api_path = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert main(["sweep", *argv, "--out", str(cli_path)]) == 0
        write_sweep_csv(run_sweep(SweepConfig(**config), log=lambda m: None), api_path)
        assert _non_time_rows(cli_path) == _non_time_rows(api_path)

    @pytest.mark.parametrize("argv, digest", [
        (["--family", "hjb", "--sizes", "41,101"],
         "e0b8d9e43c6e57ff7a85099e0fb695fe449f43113bb836cd56bbbfaf0e937683"),
        (["--family", "speedplan", "--sizes", "50,200"],
         "9e893ae3190033d01a55732fda6b502b94d8140c8e835fb52cf93aefee90222a"),
        (["--family", "file", "--instance", "FILE"],
         "2a0fc9ae019792cbda330d6d3d699dd9456affe643e1aeaedbf6d1bbd19adcc0"),
    ], ids=["hjb", "speedplan", "file"])
    def test_seedless_sweep_rows_are_pinned(self, argv, digest, tmp_path, capsys):
        # instances that read no seed: every seed's run solves the same problem
        inst = tmp_path / "ba.json"
        if "FILE" in argv:
            assert main(["gen", "--family", "ba", "--n", "60", "--seed", "2",
                         "--out", str(inst)]) == 0
            argv = [str(inst) if arg == "FILE" else arg for arg in argv]
        out = tmp_path / "rows.csv"
        assert main(["sweep", *argv, "--reps", "3", "--out", str(out)]) == 0
        assert _digest(_non_time_rows(out)) == digest

    def test_sweep_list_tokens_ignore_spaces(self, tmp_path, capsys):
        spaced, plain = tmp_path / "spaced.csv", tmp_path / "plain.csv"
        lists = {"--sizes": "12, 14", "--tolerances": "1e-4 , 1e-6", "--policies": "fifo, lifo",
                 "--methods": " selective-plain,fixed-precond "}
        for out, strip in ((spaced, False), (plain, True)):
            argv = [arg for flag, value in lists.items()
                    for arg in (flag, value.replace(" ", "") if strip else value)]
            assert main(["sweep", "--family", "nws", *argv, "--out", str(out)]) == 0
        assert _non_time_rows(spaced) == _non_time_rows(plain)

    @pytest.mark.parametrize("flag, value", [("--sizes", "5,x"), ("--tolerances", "1e-6,tiny")])
    def test_sweep_bad_list_token_names_its_flag(self, flag, value, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["sweep", flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: invalid comma-separated ")
        assert not out.exists()

    def test_solve_exit_code_checks_residual_from_scratch(self, two_var_file, tmp_path,
                                                           monkeypatch, capsys):
        # A solver that claims residual 0 at the cap: g(U) = (6, 6), so the
        # from-scratch residual is 4 and the exit code must say so.
        def claims_converged(problem, method, policy="fifo", eps=1e-9, max_iter=100_000):
            return SolveReport(
                x=problem.U.copy(), feasible=True, residual_inf=0.0,
                scalar_multiplications=0, component_updates=0, dequeues=0,
                wall_time=0.0, policy=policy, epsilon=eps,
            )

        monkeypatch.setattr(bench, "solve_with_method", claims_converged)
        out_path = tmp_path / "report.json"
        assert main(["solve", two_var_file, "--out", str(out_path)]) == 1
        doc = json.loads(out_path.read_text())
        assert doc["residual"] == 0.0 and doc["x"] == [10.0, 10.0]


class TestCliPythonDraws:
    """The BA file pins again, with BA graphs drawn by the Python fallback loop."""

    @pytest.fixture(autouse=True)
    def _python_draws(self, monkeypatch):
        python_path_for(monkeypatch, "glbopt_ba_targets")

    @pytest.mark.parametrize("argv, digest", [pin for pin in GEN_FILE_PINS if "ba" in pin[0]])
    def test_gen_file_bytes_are_pinned(self, argv, digest, tmp_path, capsys):
        TestCli.test_gen_file_bytes_are_pinned(self, argv, digest, tmp_path, capsys)


class TestCliPythonFloatText:
    """Every file pin again, with every list written by the Python writer
    (token tables, floats by ``repr``) in place of ``_native.c``."""

    @pytest.fixture(autouse=True)
    def _python_text(self, monkeypatch):
        python_path_for(monkeypatch, "glbopt_write_list")

    @pytest.mark.parametrize("argv, digest", GEN_FILE_PINS)
    def test_gen_file_bytes_are_pinned(self, argv, digest, tmp_path, capsys):
        TestCli.test_gen_file_bytes_are_pinned(self, argv, digest, tmp_path, capsys)
