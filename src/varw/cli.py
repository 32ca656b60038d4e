"""Command-line front end for the village random walk toolkit.

Exit codes: 0 success, 1 a usage error, 2 an input too large for memory;
every package error ends with the exit code and label its class carries
(see varw.errors).
Every subcommand is deterministic given its arguments and input files;
seeds are always printed, defaulted or not.  `simulate` has no toppling
order option: every order gives the same stabilizing odometer, and the one
stabilizer computes it in rounds.  It then cross-checks that fixed point
with a fresh `single_loop` on the run's stacks, as the experiments check
theirs: a failure prints `fixed_point_check: FAIL` and exits 3, naming n,
the seed, the village, the field and both values.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .errors import AcceptanceCheckError, InputSizeError, ValidationError, VarwError
from .limit import DEFAULT_TOL, solve_fixed_point
from .model import compute_spectral, load_model, validate_model
from .simulator import single_loop, stabilize
from .stacks import StackSource, _check_fits_memory

DEFAULT_SEED = 12345


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a value that looks like a negative number, but not a
        # comma list such as "--seeds -3,7", which it reads as an option.
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d*)*$|^-\d*\.\d+$")

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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="certified eta-norm error bound")

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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="limit solver tolerance")
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


def _odometer(text: str) -> np.ndarray:
    """The --M option: comma-separated integers, each within 64 bits."""
    return np.array(_int_vector(text, _int64("--M")), dtype=np.int64)


def _print_vector_table(header: str, columns: list[np.ndarray]) -> None:
    """One row per village: its index, then its entry of each column."""
    print(f"village,{header}")
    for x, row in enumerate(zip(*columns)):
        print(",".join([str(x), *map(experiments._format, row)]))


def _cmd_validate(args, params) -> int:
    if args.strict:
        validate_model(params)
    print(f"valid model: {params.num_villages} villages")
    if args.strict:
        print("subcritical: yes")
    return 0


def _cmd_spectral(args, params) -> int:
    spectral = compute_spectral(params)
    print(f"mu: {spectral.mu!r}")
    print(f"eta_min: {spectral.eta_min!r}")
    _print_vector_table("eta", [spectral.eta])
    return 0


def _cmd_solve(args, params) -> int:
    spectral = compute_spectral(params)
    sol = solve_fixed_point(params, spectral, tol=args.tol)
    print(f"mu: {spectral.mu!r}")
    print(f"certified_eta_error: {sol.certified_eta_error!r}")
    print(f"iterations: {sol.iterations}")
    _print_vector_table("m_star,s_star", [sol.m_star, sol.s_star])
    return 0


def _cmd_simulate(args, params) -> int:
    sim = stabilize(params, args.n, StackSource(params, args.n, args.seed))
    print(f"n: {args.n}")
    print(f"seed: {args.seed}")
    _print_vector_table("M_star,S_star,inflow", [sim.M_star, sim.S_star, sim.inflow])
    print("mass_balance_check: ok")
    failure = f"simulate: single-loop fixed-point identity failed at n={args.n}, seed={args.seed}"
    expected = {"Phi": sim.M_star, "S": sim.S_star}
    try:
        experiments._cross_check(failure, params, args.n, args.seed, sim.M_star, expected)
    except AcceptanceCheckError:
        print("fixed_point_check: FAIL")
        raise
    print("fixed_point_check: ok")
    return 0


def _cmd_single_loop(args, params) -> int:
    M = _odometer(args.M)
    src = StackSource(params, args.n, args.seed)
    res = single_loop(params, args.n, src, M)
    print(f"n: {args.n}")
    print(f"seed: {args.seed}")
    print(f"M: {','.join(str(v) for v in M.tolist())}")
    _print_vector_table("Phi,S,I,A,Q,J", [res.Phi, res.S, res.I, res.A, res.Q, res.J])
    return 0


def _cmd_lln(args, params) -> int:
    if args.seeds is not None:
        seeds = _int_vector(args.seeds)
    else:
        if args.num_seeds < 1:
            raise ValidationError(f"--num-seeds must be >= 1, got {args.num_seeds}")
        _check_fits_memory(args.num_seeds, 40, "--num-seeds")  # a Python int and its list slot each
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


def _cmd_concentration(args, params) -> int:
    M = _odometer(args.M)
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


def _cmd_kappa_test(args, params) -> int:
    M = _odometer(args.M)
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
        params = load_model(args.model)  # raises on a structurally invalid model
        return _COMMANDS[args.command](args, params)
    except _CliArgumentError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"runtime guard: input too large for memory: {exc}", file=sys.stderr)
        return 2
    except VarwError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
