"""Command-line front end for the village random walk toolkit.

Exit codes: 0 success, 1 validation/usage error, 2 runtime guard tripped
(step or iteration cap, an integer option beyond 64 bits, or an input too
large for memory), 3 exact-invariant failure inside an experiment (including
a batched trial that differs from its single_loop re-evaluation), 4 a
worker process of `lln` that ended without a result (killed by a signal,
for example by the out-of-memory killer).
Every subcommand is deterministic given its arguments and input files;
seeds are always printed, defaulted or not.  `simulate` has no toppling
order option: every order gives the same stabilizing odometer, and the one
stabilizer computes it in rounds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .errors import (
    AcceptanceCheckError,
    InputSizeError,
    IterationCapError,
    StepCapError,
    ValidationError,
    WorkerLostError,
)
from .limit import solve_fixed_point
from .model import compute_spectral, load_model, validate_model
from .simulator import single_loop, stabilize
from .stacks import StackSource

DEFAULT_SEED = 12345


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliArgumentError(message)


def _int64(option: str):
    """argparse type of an integer option that ends up in an int64 array (n,
    M or a count): parsed like int, then bounded; errors name the option."""

    def parse(text: str) -> int:
        value = int(text)
        if not -(2**63) <= value < 2**63:
            raise InputSizeError(f"{option} value {value} does not fit in a 64-bit integer")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value" errors
    return parse


def _int_vector(text: str, parse=int) -> list[int]:
    try:
        values = [parse(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise ValidationError(f"expected at least one integer, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="varw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="path to a JSON model document")
        return p

    p = add("validate", "check a model document against every structural invariant")
    p.add_argument("--strict", action="store_true", help="also require subcriticality")

    add("spectral", "print the Perron eigenvalue and eigenvector of the kernel")

    p = add("solve", "solve the continuum fixed-point system with a certified error")
    p.add_argument("--tol", type=float, default=1e-10, help="certified eta-norm error bound")

    p = add("simulate", "stabilize the discrete system and check the loop identity")
    p.add_argument("--n", type=_int64("--n"), required=True, help="houses per village")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="stack master seed")

    p = add("single-loop", "evaluate the one-pass odometer map at a given odometer")
    p.add_argument("--n", type=_int64("--n"), required=True, help="houses per village")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="stack master seed")
    p.add_argument("--M", required=True, help="input odometer, comma-separated integers")

    p = add("lln", "run a convergence sweep against the continuum limit")
    p.add_argument("--n", type=_int64("--n"), action="append", required=True, dest="n_values",
                   help="houses per village; repeat the flag for a grid")
    p.add_argument("--seeds", default=None, help="explicit comma-separated seed list")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed when --seeds is absent")
    p.add_argument("--num-seeds", type=_int64("--num-seeds"), default=20, help="seeds drawn from the base seed")
    p.add_argument("--tol", type=float, default=1e-10, help="limit solver tolerance")
    p.add_argument("--out", default="varw_out", help="directory for the CSV outputs")

    p = add("concentration", "measure single-loop deviation tails against their bounds")
    p.add_argument("--n", type=_int64("--n"), required=True, help="houses per village")
    p.add_argument("--M", required=True, help="fixed odometer, comma-separated integers")
    p.add_argument("--a", type=float, required=True, help="deviation threshold")
    p.add_argument("--trials", type=_int64("--trials"), default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="varw_out", help="directory for the report file")

    p = add("kappa-test", "two-sample test of the resampled-notice outflux distribution")
    p.add_argument("--n", type=_int64("--n"), required=True, help="houses per village")
    p.add_argument("--M", required=True, help="fixed odometer, comma-separated integers")
    p.add_argument("--trials", type=_int64("--trials"), default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="varw_out", help="directory for the report file")

    return parser


def _print_vector_table(header: str, columns: list[np.ndarray]) -> None:
    print(header)
    for x in range(len(columns[0])):
        print(",".join(_fmt(col[x]) for col in columns))


def _fmt(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(int(value))


def _cmd_validate(args) -> int:
    params = load_model(args.model)  # raises on a structurally invalid model
    if args.strict:
        validate_model(params)
    print(f"valid model: {params.num_villages} villages")
    if args.strict:
        print("subcritical: yes")
    return 0


def _cmd_spectral(args) -> int:
    params = load_model(args.model)
    spectral = compute_spectral(params)
    print(f"mu: {spectral.mu!r}")
    print(f"eta_min: {spectral.eta_min!r}")
    _print_vector_table("village,eta", [np.arange(params.num_villages), spectral.eta])
    return 0


def _cmd_solve(args) -> int:
    params = load_model(args.model)
    spectral = compute_spectral(params)
    sol = solve_fixed_point(params, spectral, tol=args.tol)
    print(f"mu: {spectral.mu!r}")
    print(f"certified_eta_error: {sol.certified_eta_error!r}")
    print(f"iterations: {sol.iterations}")
    _print_vector_table(
        "village,m_star,s_star",
        [np.arange(params.num_villages), sol.m_star, sol.s_star],
    )
    return 0


def _cmd_simulate(args) -> int:
    params = load_model(args.model)
    src = StackSource(params, args.n, args.seed)
    sim = stabilize(params, args.n, src)
    print(f"n: {args.n}")
    print(f"seed: {args.seed}")
    _print_vector_table(
        "village,M_star,S_star,inflow",
        [np.arange(params.num_villages), sim.M_star, sim.S_star, sim.inflow],
    )
    print("mass_balance_check: ok")
    loop = single_loop(params, args.n, src, sim.M_star)
    fixed_ok = np.array_equal(loop.Phi, sim.M_star) and np.array_equal(loop.S, sim.S_star)
    print(f"fixed_point_check: {'ok' if fixed_ok else 'FAIL'}")
    if not fixed_ok:
        raise AcceptanceCheckError("single-loop fixed-point identity failed")
    return 0


def _cmd_single_loop(args) -> int:
    params = load_model(args.model)
    M = np.array(_int_vector(args.M, _int64("--M")), dtype=np.int64)
    src = StackSource(params, args.n, args.seed)
    res = single_loop(params, args.n, src, M)
    print(f"n: {args.n}")
    print(f"seed: {args.seed}")
    print(f"M: {','.join(str(v) for v in M.tolist())}")
    _print_vector_table(
        "village,Phi,S,I,A,Q,J",
        [np.arange(params.num_villages), res.Phi, res.S, res.I, res.A, res.Q, res.J],
    )
    return 0


def _cmd_lln(args) -> int:
    params = load_model(args.model)
    if args.seeds is not None:
        seeds = _int_vector(args.seeds)
    else:
        if args.num_seeds < 1:
            raise ValidationError(f"--num-seeds must be >= 1, got {args.num_seeds}")
        seeds = [args.seed + k for k in range(args.num_seeds)]
    print(f"seeds: {','.join(str(s) for s in seeds)}")
    config = experiments.LLNConfig(
        params=params, n_values=args.n_values, seeds=seeds, tol=args.tol
    )
    report = experiments.run_lln(config, out_dir=args.out)
    for row in report.summary:
        print(
            f"n={row['n']} {row['metric']}: median={row['median']!r} "
            f"p90={row['p90']!r} runs={row['runs']}"
        )
    print(f"rows: {report.rows_path}")
    print(f"summary: {report.summary_path}")
    return 0


def _cmd_concentration(args) -> int:
    params = load_model(args.model)
    M = np.array(_int_vector(args.M, _int64("--M")), dtype=np.int64)
    print(f"seed: {args.seed}")
    config = experiments.ConcentrationConfig(
        params=params, n=args.n, M=M, a=args.a, trials=args.trials, seed=args.seed
    )
    out = Path(args.out) / f"concentration_a{args.a!r}.txt"
    report = experiments.run_concentration(config, out_path=out)
    print(f"freq_s: {report.freq_s!r} bound_s: {report.bound_s!r}")
    print(f"freq_phi: {report.freq_phi!r} bound_phi: {report.bound_phi!r}")
    print(f"violated: {str(report.violated).lower()}")
    print(f"report: {report.path}")
    if report.violated:
        raise AcceptanceCheckError("empirical deviation frequency exceeded its bound")
    return 0


def _cmd_kappa_test(args) -> int:
    params = load_model(args.model)
    M = np.array(_int_vector(args.M, _int64("--M")), dtype=np.int64)
    print(f"seed: {args.seed}")
    out = Path(args.out) / "kappa_test.txt"
    report = experiments.run_kappa_equivalence(
        params, args.n, M, args.trials, seed=args.seed, out_path=out
    )
    for x, p in enumerate(report.p_values):
        print(f"village_{x}_p_value: {p!r}")
    print(f"report: {report.path}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "spectral": _cmd_spectral,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "single-loop": _cmd_single_loop,
    "lln": _cmd_lln,
    "concentration": _cmd_concentration,
    "kappa-test": _cmd_kappa_test,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _CliArgumentError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StepCapError, IterationCapError, InputSizeError) as exc:
        print(f"runtime guard: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"runtime guard: input too large for memory: {exc}", file=sys.stderr)
        return 2
    except AcceptanceCheckError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except WorkerLostError as exc:
        print(f"worker lost: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
