"""Instances, timed stages and result checks of one benchmark workload.

A pass runs five stages, each a list of timed operations:

* ``gen``        -- ``glbopt gen`` for each file instance (JSON write);
* ``load_solve`` -- ``glbopt solve FILE --eps EPS`` (selective-precond, fifo), stdout captured;
* ``cold``       -- a fresh ``LinearGlbProblem`` built from a warm instance's
  arrays, then its first selective-precond/fifo solve;
* ``selective``  -- 8 solves on each warm instance, {plain, precond} x policies;
* ``fixed``      -- fixed-plain and fixed-precond on each warm instance.

Warm instances are built and every method is run on them once during set-up,
so lazily cached tables and preconditioned copies are paid for there and in
the cold stage, never in the warm stages.  Results are checked after the
pass, outside the timed windows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from glbopt import bench, cli, instances, linear, oracle
from glbopt.queues import POLICIES

SELECTIVE = tuple((m, p) for m in bench.SELECTIVE_METHODS for p in POLICIES)
FIXED = ("fixed-plain", "fixed-precond")
COLD = ("selective-precond", "fifo")  # also glbopt solve's default method and policy
EPS = 1e-6  # tolerance of every solve, glbopt solve included
STAGE_MIN_S = 0.5


@dataclass
class Op:
    """One timed operation and what its checks need."""

    stage: str
    key: tuple
    seconds: float
    report: object = None
    error: str | None = None
    rep: int = 0
    extra: dict = field(default_factory=dict)


def curvature_profile(spec: dict, seed: int) -> np.ndarray:
    """Piecewise-constant curvature: the path is cut into ``arcs`` equal
    sections, each a circular arc of random length and curvature followed by
    a straight.  Evenly spaced arcs bound the longest straight, which sets
    the number of full sweeps, so the work varies little from seed to seed."""
    n, arcs = spec["n"], spec["arcs"]
    rng = np.random.default_rng(seed)
    section = n // arcs
    lengths = rng.integers(*spec["arc_length"], size=arcs)
    values = rng.uniform(*spec["arc_curvature"], size=arcs)
    k = np.zeros(n)
    for start, length, v in zip(range(0, arcs * section, section), lengths, values):
        k[start:start + length] = v
    return k


def build_memory(spec: dict, seed: int) -> linear.LinearGlbProblem:
    """Build an instance in memory through the instances layer."""
    family = spec["family"]
    if family == "ba":
        graphs = [instances.gen_graph("ba", spec["n"], seed=(seed, ell))
                  for ell in range(spec["pieces"])]
        return instances.random_linear_problem(graphs, seed=seed)
    if family == "hjb":
        return instances.hjb_grid_problem(
            bench.hjb_preset(spec["preset"], spec["n"], spec["discount"], spec["step"]))
    if family == "speedplan":
        n = spec["n"]
        return instances.speed_planning_problem(instances.SpeedPlanSpec(
            path_length=float(n - 1), samples=n, curvature=curvature_profile(spec, seed),
            v_max=spec["v_max"], acc_tangential=1.0, acc_normal=1.0))
    raise ValueError(f"unknown family {family!r}")


def gen_argv(spec: dict, seed: int, out: Path, csv_path: Path) -> list[str]:
    """``glbopt gen`` arguments producing the same instance as :func:`build_memory`."""
    argv = ["gen", "--family", spec["family"], "--n", str(spec["n"]), "--out", str(out)]
    if spec["family"] == "ba":
        return argv + ["--seed", str(seed), "--pieces", str(spec["pieces"])]
    if spec["family"] == "hjb":
        return argv + ["--preset", spec["preset"], "--discount", repr(spec["discount"]),
                       "--step", repr(spec["step"])]
    return argv + ["--curvature-csv", str(csv_path), "--v-max", repr(spec["v_max"])]


def describe(p: linear.LinearGlbProblem) -> dict:
    gamma, gamma_hat = linear.contraction_rates(p)
    return {"n": p.n, "L": p.L, "nnz": p.total_nnz, "gamma": gamma, "gamma_hat": gamma_hat}


def glb_eval_bytes(p: linear.LinearGlbProblem) -> int:
    """Computed bytes one ``glb_eval`` call must move at least: every piece's
    CSR arrays and offsets once, plus x and U read and the result written."""
    total = 3 * p.n * 8
    for A, b in p.pieces:
        total += A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + b.nbytes
    return total


class Workload:
    """Set-up, timed passes and checks for one named workload and seed."""

    def __init__(self, name: str, spec: dict, seed: int, workdir: Path, tracer):
        self.name = name
        self.memory_specs = spec["memory"]
        self.file_specs = [spec["memory"][i] for i in spec["files"]]
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.warm: list[linear.LinearGlbProblem] = []
        self.refs: list = []
        self.file_solves: list = []
        self.reference_s = 0.0
        self.first: dict = {}  # check key -> value seen on the first pass

    def _path(self, i: int, kind: str) -> Path:
        return self.workdir / f"{self.name}-s{self.seed}-{i}.{kind}"

    # -- set-up ---------------------------------------------------------------

    def setup_once(self) -> tuple[float, float, float]:
        """Build the warm instances and run every method once on each.

        Returns (total, generate, warm) seconds.
        """
        t0 = time.perf_counter()
        with self.tracer.span("stage.setup"):
            for i, spec in enumerate(self.file_specs):
                if spec["family"] == "speedplan":
                    k = curvature_profile(spec, self.seed + spec["seed_offset"])
                    with open(self._path(i, "csv"), "w", encoding="utf-8") as fh:
                        fh.write("s,k\n")
                        fh.writelines(f"{s}.0,{v!r}\n" for s, v in enumerate(k.tolist()))
            warm = [build_memory(spec, self.seed + spec["seed_offset"])
                    for spec in self.memory_specs]
            t1 = time.perf_counter()
            for p in warm:
                for method in bench.METHODS:
                    bench.solve_with_method(p, method, policy="fifo", eps=EPS)
        t2 = time.perf_counter()
        self.warm = warm
        return t2 - t0, t1 - t0, t2 - t1

    def references(self) -> None:
        """Reference answers for the warm instances, outside every timed window."""
        t0 = time.perf_counter()
        with self.tracer.span("stage.reference"):
            self.refs = [oracle.reference_solve(p) for p in self.warm]
        self.reference_s += time.perf_counter() - t0

    # -- one pass -------------------------------------------------------------

    def run_pass(self) -> list[Op]:
        """One pass: every stage repeats until its operations have taken
        ``STAGE_MIN_S`` seconds, so that short stages get enough samples."""
        ops: list[Op] = []
        steps = (("gen", self._gen), ("load_solve", self._load_solve), ("cold", self._cold_all),
                 ("selective", self._selective), ("fixed", self._fixed))
        for stage, step in steps:
            with self.tracer.span(f"stage.{stage}"):
                rep, spent = 0, 0.0
                while rep == 0 or spent < STAGE_MIN_S:
                    new = step()
                    for op in new:
                        op.rep = rep
                    spent += sum(op.seconds for op in new)
                    ops += new
                    rep += 1
        return ops

    def _gen(self) -> list[Op]:
        ops = []
        for i, spec in enumerate(self.file_specs):
            path = self._path(i, "json")
            op = self._cli("gen", i, gen_argv(spec, self.seed + spec["seed_offset"],
                                               path, self._path(i, "csv")))
            if op.error is None:
                data = path.read_bytes()
                op.extra.update(bytes=len(data), sha256=hashlib.sha256(data).hexdigest())
            ops.append(op)
        return ops

    def _load_solve(self) -> list[Op]:
        ops = []
        for i in range(len(self.file_specs)):
            ops.append(self._cli("load_solve", i, ["solve", str(self._path(i, "json")),
                                                   "--eps", repr(EPS)]))
        return ops

    def _cold_all(self) -> list[Op]:
        return [self._cold(i, p) for i, p in enumerate(self.warm)]

    def _selective(self) -> list[Op]:
        return [self._solve("selective", i, p, method, policy)
                for i, p in enumerate(self.warm) for method, policy in SELECTIVE]

    def _fixed(self) -> list[Op]:
        return [self._solve("fixed", i, p, method, "fifo")
                for i, p in enumerate(self.warm) for method in FIXED]

    def _cli(self, stage: str, i: int, argv: list[str]) -> Op:
        out, err = io.StringIO(), io.StringIO()
        op = Op(stage, (stage, i), 0.0)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # recorded as a failed operation; the pass goes on
            op.error = traceback.format_exc()
            rc = None
        op.seconds = time.perf_counter() - t0
        op.extra["stdout"] = out.getvalue()
        if rc != 0 and op.error is None:
            op.error = f"glbopt {argv[0]} exited {rc}: {err.getvalue().strip()}"
        return op

    def _solve(self, stage: str, i: int, p, method: str, policy: str) -> Op:
        op = Op(stage, (stage, i, method, policy), 0.0)
        t0 = time.perf_counter()
        try:
            op.report = bench.solve_with_method(p, method, policy=policy, eps=EPS)
        except Exception:  # recorded as a failed operation; the pass goes on
            op.error = traceback.format_exc()
        op.seconds = time.perf_counter() - t0
        return op

    def _cold(self, i: int, warm) -> Op:
        op = Op("cold", ("cold", i) + COLD, 0.0)
        t0 = time.perf_counter()
        try:
            fresh = linear.LinearGlbProblem(list(warm.pieces), warm.U, warm.a, meta=warm.meta)
            t1 = time.perf_counter()
            op.report = bench.solve_with_method(fresh, COLD[0], policy=COLD[1], eps=EPS)
            op.extra["first_call_s"] = time.perf_counter() - t1
        except Exception:  # recorded as a failed operation; the pass goes on
            op.error = traceback.format_exc()
        op.seconds = time.perf_counter() - t0
        return op

    # -- checks ---------------------------------------------------------------

    def check_pass(self, ops: list[Op]) -> list[str]:
        """Check every operation of a pass; returns one message per failed op."""
        failures = []
        with self.tracer.span("stage.check"):
            for op in ops:
                problems = [op.error] if op.error else self._check(op, ops)
                if problems:
                    failures.append(f"{self.name} {op.key}: " + "; ".join(problems))
        return failures

    def _check(self, op: Op, ops: list[Op]) -> list[str]:
        if op.stage == "gen":
            return self._same(("gen", op.key[1], "sha256"), op.extra["sha256"])
        if op.stage == "load_solve":
            return self._check_cli_solve(op)
        i, report = op.key[1], op.report
        out = self._check_x(self.warm[i], report.x, report.feasible, self.refs[i])
        out += self._same(op.key, _counters(report))
        if op.stage == "cold":
            warm = next(o for o in ops if o.key == ("selective", i) + COLD)
            if warm.report is not None and _counters(warm.report) != _counters(report):
                out.append("counters differ from the warm solve of the same instance")
        return out

    def _file_solve(self, i: int):
        """File instance ``i`` loaded, solved in memory as ``glbopt solve`` does
        it and checked, once per run: (counters, failed checks).  The problem
        is not kept, so its cached tables do not add to later collections."""
        if len(self.file_solves) <= i:
            problem = instances.load_instance(self._path(i, "json"))
            t0 = time.perf_counter()
            ref = oracle.reference_solve(problem)
            self.reference_s += time.perf_counter() - t0
            report = bench.solve_with_method(problem, COLD[0], policy=COLD[1], eps=EPS)
            self.file_solves.append((_counters(report),
                                     self._check_x(problem, report.x, report.feasible, ref)))
        return self.file_solves[i]

    def _check_cli_solve(self, op: Op) -> list[str]:
        """The summary printed by ``glbopt solve`` must match an in-memory
        solve of the same file whose x passes every check."""
        counters, out = self._file_solve(op.key[1])
        out = list(out)
        summary = dict(line.split(": ", 1) for line in op.extra["stdout"].splitlines()
                       if ": " in line)
        if summary.get("feasible") != "True":
            out.append("glbopt solve reported an infeasible result")
        if not float(summary.get("residual", "inf")) <= EPS:
            out.append(f"glbopt solve reported residual {summary.get('residual')} > eps")
        printed = tuple(int(summary.get(k, -1))
                        for k in ("scalar_multiplications", "component_updates", "dequeues"))
        if printed != counters:
            out.append(f"printed counters {printed} differ from the in-memory solve {counters}")
        return out + self._same(op.key, printed)

    @staticmethod
    def _check_x(p, x, feasible, ref) -> list[str]:
        out = []
        if not feasible:
            out.append("infeasible result")
        if not oracle.verify_epsilon_solution(p, x, EPS):
            out.append(f"from-scratch residual {residual(p, x):.6e} above eps")
        _, gamma_hat = linear.contraction_rates(p)
        if gamma_hat < 1.0:
            dist = float(np.max(np.abs(x - ref.x_star))) if p.n else 0.0
            bound = EPS / (1.0 - gamma_hat)
            if dist > bound:
                out.append(f"|x - x_ref| = {dist:.3e} > eps/(1-gamma_hat) = {bound:.3e}")
        return out

    def _same(self, key, value) -> list[str]:
        """Record ``value`` on the first pass; later passes must repeat it."""
        seen = self.first.setdefault(key, value)
        return [] if seen == value else [f"{key} = {value} differs from the first pass ({seen})"]

    def cli_default_residual(self) -> float:
        """Largest from-scratch residual over eps of ``glbopt solve FILE`` at
        its default settings, over the file instances; above 1 means the CLI
        accepted a result that is not an eps-solution.  Untimed, traced runs only."""
        worst = 0.0
        for i in range(len(self.file_specs)):
            report = self._path(i, "default.json")
            report.unlink(missing_ok=True)
            # A non-zero exit is what this measures; only a missing report is an error.
            self._cli("default", i, ["solve", str(self._path(i, "json")), "--out", str(report)])
            summary = json.loads(report.read_text(encoding="utf-8"))
            problem = instances.load_instance(self._path(i, "json"))
            worst = max(worst, residual(problem, np.array(summary["x"])) / summary["eps"])
        return worst

    def record(self) -> dict:
        """Everything that must repeat exactly for this seed, keyed by text."""
        return {json.dumps(list(k)): list(v) if isinstance(v, tuple) else v
                for k, v in self.first.items()}


def residual(p, x) -> float:
    """From-scratch residual max |x - g(x)|."""
    return float(np.max(np.abs(x - p.glb_eval(x)))) if p.n else 0.0


def _counters(report) -> tuple[int, int, int]:
    return (report.scalar_multiplications, report.component_updates, report.dequeues)
