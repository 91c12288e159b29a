"""Layered benchmark for glbopt.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ba-sweep --seed 1 --seconds 48 --trace 0

The program is imported from ``src/`` of the current directory; the
workloads are defined in ``perfbench/workloads.json`` and the metrics in
``BENCHMARK.json``.  Set-up builds the workload's warm instances from the
seed (several times, the median is reported); then passes of five timed
stages repeat until the time is used up.  Every result is checked outside
the timed windows, and a failed check makes the exit code 1; so does a
traced run whose layer spans cover less than 95% of an end-to-end time.  The last
line of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``); a summary with
sample counts and tail percentiles goes to standard error and, with the
spans of a traced run, to ``.perfbench/`` in the current directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import GENERATORS, GcClock, SpanView, Tracer  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 2
COVERAGE_GATE = 0.95


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def tail(values):
    """Median plus the highest percentile with at least ten samples beyond it."""
    k = len(values)
    out = {"median": median(values), "samples": k}
    for pct in (99, 95, 90, 75):
        if k * (1 - pct / 100) >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            break
    return out


def source_digest(src: Path) -> str:
    """Digest of the program and of this benchmark: counters recorded under
    one digest must repeat exactly in every later run with the same seed."""
    h = hashlib.sha256()
    for path in sorted((src / "glbopt").glob("*.py")) + sorted(HERE.glob("*.py")) + [HERE / "workloads.json"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


STAGE_METRIC = {"gen": "gen_s", "load_solve": "load_solve_s", "cold": "cold_solve_s",
                "selective": "selective_s", "fixed": "fixed_s"}
LAYER_MODULES = ("instances", "linear", "lattice", "bench", "cli")
# Layers below the entry points cli.main and bench.solve_with_method: the
# share of a stage spent in their outermost spans is its coverage.
COVERING = frozenset({"instances", "linear", "lattice"})


def stage_reps(ops) -> dict[str, int]:
    reps = {stage: 0 for stage in STAGE_METRIC}
    for op in ops:
        reps[op.stage] = max(reps[op.stage], op.rep + 1)
    return reps


def pass_e2e(ops) -> dict[str, list[float]]:
    """End-to-end seconds of one pass: one sample per repetition of each stage."""
    reps = stage_reps(ops)
    out = {STAGE_METRIC[stage]: [0.0] * count for stage, count in reps.items()}
    for op in ops:
        out[STAGE_METRIC[op.stage]][op.rep] += op.seconds
    return out


def pass_layers(view, ops, wl, W) -> dict:
    """Per-layer metrics of one traced pass, per repetition of each stage."""
    reps = stage_reps(ops)

    def per_rep(names, stages=tuple(STAGE_METRIC)):
        return sum(view.total(names, f"stage.{st}") / reps[st] for st in stages)

    m = {}
    file_mb = sum(op.extra.get("bytes", 0) for op in ops if op.stage == "gen" and op.rep == 0) / 1e6
    m["instances.generate_s"] = per_rep(GENERATORS, ("gen",))
    m["instances.save_s"] = per_rep({"instances.save_instance"}, ("gen",))
    m["instances.load_s"] = per_rep({"instances.load_instance"}, ("load_solve",))
    m["instances.file_MB"] = file_mb
    m["instances.save_MBps"] = ratio(file_mb, m["instances.save_s"])
    m["instances.load_MBps"] = ratio(file_mb, m["instances.load_s"])
    m["linear.construct_s"] = per_rep({"linear.LinearGlbProblem.__init__"})
    m["linear.precondition_s"] = per_rep({"linear.precondition"})

    ok = [op for op in ops if op.report is not None]
    warm_s: dict[tuple, list[float]] = {}
    for op in ok:
        if op.stage == "selective":
            warm_s.setdefault(op.key, []).append(op.seconds)
    m["linear.lazy_cache_s"] = sum(
        op.extra["first_call_s"] - mean(warm_s.get(("selective",) + op.key[1:], []))
        for op in ok if op.stage == "cold") / reps["cold"]

    sel = [op.report for op in ok if op.stage == "selective"]
    fix = [op for op in ok if op.stage == "fixed"]
    loop = sum(r.wall_time for r in sel) / reps["selective"]
    updates = sum(r.component_updates for r in sel) / reps["selective"]
    dequeues = sum(r.dequeues for r in sel) / reps["selective"]
    m["linear.selective_loop_s"] = loop
    m["linear.selective_us_per_update"] = ratio(loop, updates) * 1e6
    m["linear.selective_multiplications"] = sum(r.scalar_multiplications for r in sel) / reps["selective"]
    m["linear.selective_component_updates"] = updates
    m["linear.fixed_multiplications"] = sum(op.report.scalar_multiplications for op in fix) / reps["fixed"]

    eval_s = view.total({"linear.LinearGlbProblem.glb_eval"}, "stage.fixed")
    evals = view.count("linear.LinearGlbProblem.glb_eval", "stage.fixed")
    eval_bytes = sum(op.report.iterations * W.glb_eval_bytes(wl.warm[op.key[1]]) for op in fix)
    m["linear.glb_eval_us"] = ratio(eval_s, evals) * 1e6
    m["linear.glb_eval_bytes"] = ratio(eval_bytes, evals)
    m["linear.glb_eval_GBps"] = ratio(eval_bytes, eval_s) / 1e9
    m["linear.fixed_prep_s"] = sum(op.seconds - op.report.wall_time for op in fix) / reps["fixed"]
    fixed_loop = sum(op.report.wall_time for op in fix) / reps["fixed"]
    sweeps = sum(op.report.iterations for op in fix) / reps["fixed"]
    m["lattice.fixed_loop_s"] = fixed_loop
    m["lattice.sweeps"] = sweeps
    m["lattice.us_per_sweep"] = ratio(fixed_loop, sweeps) * 1e6

    m["queues.dequeues"] = dequeues
    m["queues.stale_frac"] = 1.0 - ratio(updates, dequeues)
    for policy in W.POLICIES:
        plain = [op.report for op in ok if op.key == ("selective", 0, "selective-plain", policy)]
        m[f"queues.{policy}.us_per_dequeue"] = mean(
            [ratio(r.wall_time, r.dequeues) * 1e6 for r in plain])

    verify = {"oracle.verify_epsilon_solution"}
    m["oracle.verify_s"] = ratio(view.total(verify, "stage.check"),
                                 view.count("oracle.verify_epsilon_solution", "stage.check"))
    m["cli.overhead_s"] = sum(
        sum(view.self_time(i) for i in view.under(f"stage.{st}") if view.index[i][0] == "cli.main")
        / reps[st] for st in ("gen", "load_solve"))
    for module in LAYER_MODULES:
        m[f"selftime.{module}_s"] = sum(
            view.self_by_module(f"stage.{st}").get(module, 0.0) / reps[st] for st in STAGE_METRIC)
    for stage, metric in STAGE_METRIC.items():
        seconds = sum(op.seconds for op in ops if op.stage == stage)
        covered = view.outermost(COVERING, f"stage.{stage}")
        m[f"coverage.{metric}"] = ratio(covered, seconds)
        m[f"uncovered.{metric}"] = (seconds - covered) / reps[stage]
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "glbopt" / "__init__.py").is_file():
        print(f"error: no glbopt package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(config['workloads'])}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import glbopt
    import workload as W

    import_s = time.perf_counter() - T_START
    if Path(glbopt.__file__).resolve().parent != (src / "glbopt").resolve():
        print(f"error: imported glbopt from {glbopt.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tracer = Tracer()
    wl = W.Workload(args.workload, config["workloads"][args.workload], args.seed, workdir, tracer)

    if args.trace:
        tracer.install()
    setups = []
    for rep in range(SETUP_REPEATS):
        tracer.pass_id = f"setup-{rep}"
        setups.append(wl.setup_once())
    tracer.pass_id = "reference"
    wl.references()
    tracer.uninstall()
    gc_clock = GcClock()

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "source": source_digest(src),
        "instances": [W.describe(p) for p in wl.warm],
    }

    failures: list[str] = []
    attempted = 0
    samples: dict[str, list[float]] = {}
    layer_samples: dict[str, list[float]] = {}
    pass_time: dict[bool, list[float]] = {True: [], False: []}
    deadline = time.perf_counter() + args.seconds
    k = 0
    last = 0.0
    while k < MIN_PASSES or time.perf_counter() + last <= deadline:
        traced = bool(args.trace) and k % 2 == 0
        tracer.pass_id = k
        if traced:
            tracer.install()
        gc_clock.reset()
        gc_clock.running = True
        t0 = time.perf_counter()
        ops = wl.run_pass()
        elapsed = time.perf_counter() - t0
        gc_clock.running = False
        failures += wl.check_pass(ops)
        if traced:
            tracer.uninstall()
            view = SpanView(tracer.spans, k)
            layers = pass_layers(view, ops, wl, W)
            layers["gc.pause_s"] = gc_clock.seconds
            layers["gc.collections"] = gc_clock.collections
            for name, value in layers.items():
                layer_samples.setdefault(name, []).append(value)
        attempted += len(ops)
        per_rep = pass_e2e(ops)
        for name, values in per_rep.items():
            samples.setdefault(name, []).extend(values)
        pass_time[traced].append(sum(median(values) for values in per_rep.values()))
        last = time.perf_counter() - t0
        k += 1
        print(f"pass {k}: {elapsed:.3f} s{' (traced)' if traced else ''}", file=sys.stderr)

    record_path = workdir / f"counters-{args.workload}-s{args.seed}-{info['source']}.json"
    record = wl.record()
    if record_path.exists():
        before = json.loads(record_path.read_text(encoding="utf-8"))
        for key in sorted(set(before) | set(record)):
            if before.get(key) != record.get(key):
                failures.append(f"{key}: {record.get(key)} differs from an earlier run "
                                f"of this seed ({before.get(key)})")
    else:
        record_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    setup_total = [s[0] for s in setups]
    summary = {name: {"mean": mean(values), **tail(values)}
               for name, values in samples.items()}
    summary["setup_s"] = {"import_s": import_s, **tail(setup_total)}
    # Stage times are reported as the mean over the run's samples: on a shared
    # machine whose speed shifts for tens of seconds, samples fall into a fast
    # and a slow mode, and the median jumps between them from run to run.
    e2e = {name: s["mean"] for name, s in summary.items() if name != "setup_s"}
    e2e["setup_s"] = import_s + median(setup_total)
    e2e["ok_frac"] = 1.0 - ratio(len(failures), attempted)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = {name: median(values) for name, values in layer_samples.items()}
        setup_views = [SpanView(tracer.spans, f"setup-{rep}") for rep in range(SETUP_REPEATS)]
        metrics["setup.import_s"] = import_s
        metrics["setup.generate_s"] = median([v.total(GENERATORS) for v in setup_views])
        metrics["setup.warm_s"] = median([s[2] for s in setups])
        setup_uncovered = median([total - v.outermost(COVERING, "stage.setup")
                                  for v, (total, _, _) in zip(setup_views, setups)])
        metrics["coverage.setup_s"] = 1.0 - ratio(setup_uncovered, e2e["setup_s"])
        metrics["uncovered.setup_s"] = setup_uncovered
        metrics["oracle.cli_default_residual_ratio"] = wl.cli_default_residual()
        metrics["oracle.reference_s"] = wl.reference_s
        metrics["trace.overhead_frac"] = ratio(median(pass_time[True]), median(pass_time[False])) - 1.0
        for name, value in sorted(metrics.items()):
            if name.startswith("coverage.") and value < COVERAGE_GATE:
                what = name.split(".", 1)[1]
                failures.append(f"coverage of {what} is {value:.4f} < {COVERAGE_GATE}: "
                                f"{metrics['uncovered.' + what]:.4f} s outside layer spans")
        tracer.write(workdir / f"trace-{args.workload}-s{args.seed}.jsonl")
    else:
        metrics = e2e

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} are not both measured and "
              "declared in BENCHMARK.json", file=sys.stderr)
        return 2
    details = {**info, "passes": k, "failures": failures, "end_to_end": summary,
               "samples": samples, "metrics": metrics}
    (workdir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True), encoding="utf-8")
    for described in info["instances"]:
        print(f"instance: {described}", file=sys.stderr)
    for name, s in sorted(summary.items()):
        print(f"{name}: " + ", ".join(f"{key} {value:.6g}" for key, value in s.items()),
              file=sys.stderr)
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
