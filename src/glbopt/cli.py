"""Command-line front end: gen, solve, sweep, export-lp.

Exit codes for ``solve``: 0 for an eps-solution (checked from scratch, not
from the solver's own residual), 2 when the solution violates the lower bound
(infeasible problem), 1 for any error or a from-scratch residual above eps.
All other commands use 0/1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bench
from .instances import FAMILIES, generate, load_instance, save_instance
from .lattice import NonConvergenceError
from .linear import write_lp
from .oracle import verify_epsilon_solution
from .queues import POLICIES


class CliError(Exception):
    pass


_MAX_ITER_HELP = ("work cap in full sweeps; selective methods stop "
                  "after max-iter * n component updates")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); 2 means infeasible here
        raise CliError(message)


def _comma_list(convert):
    """The argparse type of a comma-separated list: a tuple of ``convert``
    applied to each nonblank token, stripped; argparse names the type in its error."""
    def parse(text: str) -> tuple:
        return tuple(convert(tok) for tok in map(str.strip, text.split(",")) if tok)
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


@functools.cache  # one parser per process: building one costs about 25 parses
def _build_parser() -> _Parser:
    parser = _Parser(prog="glbopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # only the flags given reach instances.generate, whose signature holds the defaults
    gen = sub.add_parser("gen", argument_default=argparse.SUPPRESS, help="generate an instance file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, required=True, help="variables / samples / grid points")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)
    gen.add_argument("--pieces", type=int, help="number of affine pieces (graph families)")
    gen.add_argument("--max-coeff", type=float)
    gen.add_argument("--max-offset", type=float)
    gen.add_argument("--cap", type=float)
    gen.add_argument("--graph-m", type=int, help="attachment count (ba/hk)")
    gen.add_argument("--graph-k", type=int, help="ring degree (nws)")
    gen.add_argument("--graph-p", type=float, help="shortcut/triangle probability")
    gen.add_argument("--curvature-csv", help="speedplan: two-column (s, k) CSV")
    gen.add_argument("--path-length", type=float, help="speedplan: s_f for flat curvature")
    gen.add_argument("--v-max", type=float)
    gen.add_argument("--acc-t", type=float)
    gen.add_argument("--acc-n", type=float)
    gen.add_argument("--preset", help="hjb: const1d, drift1d or spin2d")
    gen.add_argument("--discount", type=float, help="hjb: rate lambda")
    gen.add_argument("--step", type=float, help="hjb: integration step h")

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    solve.add_argument("--method", default="selective-precond", choices=bench.METHODS)
    solve.add_argument("--policy", default="fifo", choices=POLICIES)
    solve.add_argument("--eps", type=float, default=1e-9)
    solve.add_argument("--max-iter", type=int, default=bench.MAX_ITER, help=_MAX_ITER_HELP)
    solve.add_argument("--out", default=None, help="write the solution report as JSON")

    # only the flags given reach bench.SweepConfig, whose fields hold the defaults
    sweep = sub.add_parser("sweep", argument_default=argparse.SUPPRESS,
                           help="run a benchmark sweep, write CSV")
    sweep.add_argument("--family", choices=bench.FAMILIES)
    sweep.add_argument("--instance", dest="instance_path", metavar="INSTANCE",
                       help="instance file (family 'file')")
    sweep.add_argument("--sizes", type=_comma_list(int), help="comma-separated instance sizes")
    sweep.add_argument("--tolerances", type=_comma_list(float), help="comma-separated eps values")
    sweep.add_argument("--pieces", type=int)
    sweep.add_argument("--max-coeff", type=float)
    sweep.add_argument("--max-offset", type=float)
    sweep.add_argument("--cap", type=float)
    sweep.add_argument("--policies", type=_comma_list(str))
    sweep.add_argument("--methods", type=_comma_list(str))
    sweep.add_argument("--reps", dest="repetitions", metavar="REPS", type=int)
    sweep.add_argument("--seed", dest="seed_base", metavar="SEED", type=int)
    sweep.add_argument("--time-budget", type=float, help="seconds per run")
    sweep.add_argument("--max-iter", type=int, help=_MAX_ITER_HELP)
    sweep.add_argument("--out", required=True)

    export = sub.add_parser("export-lp", help="write the CPLEX-LP reformulation")
    export.add_argument("instance")
    export.add_argument("--out", required=True)
    return parser


def _cmd_gen(args) -> int:
    params = {key: value for key, value in vars(args).items() if key not in ("command", "out")}
    problem = generate(**params)
    save_instance(problem, args.out)
    print(f"wrote {args.out}: n={problem.n}, L={problem.L}, nnz={problem.total_nnz}")
    return 0


def _cmd_solve(args) -> int:
    problem = load_instance(args.instance)
    report = bench.solve_with_method(
        problem, args.method, policy=args.policy, eps=args.eps, max_iter=args.max_iter
    )
    summary = {
        "method": args.method,
        "policy": report.policy,
        "eps": report.epsilon,
        "residual": report.residual_inf,
        "feasible": report.feasible,
        "scalar_multiplications": report.scalar_multiplications,
        "component_updates": report.component_updates,
        "dequeues": report.dequeues,
        "verify_multiplications": report.verify_multiplications,
        "wall_time": report.wall_time,
        "error_bound": report.error_bound,
    }
    for key, value in summary.items():
        print(f"{key}: {value}")
    if args.out:
        summary["x"] = report.x.tolist()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    if not report.feasible:
        return 2
    return 0 if verify_epsilon_solution(problem, report.x, args.eps) else 1


def _cmd_sweep(args) -> int:
    params = {key: value for key, value in vars(args).items() if key not in ("command", "out")}
    rows = bench.run_sweep(bench.SweepConfig(**params))
    bench.write_sweep_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def _cmd_export_lp(args) -> int:
    problem = load_instance(args.instance)
    write_lp(problem, args.out)
    print(f"wrote {args.out}: {problem.L * problem.n + problem.n} constraint rows")
    return 0


# the required subparsers admit only these four commands
_COMMANDS = {"gen": _cmd_gen, "solve": _cmd_solve, "sweep": _cmd_sweep, "export-lp": _cmd_export_lp}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    # ValueError covers InstanceFormatError, ProblemDataError and StartPointError
    except (CliError, OSError, ValueError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
