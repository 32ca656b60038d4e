"""The measured rounds of a workload, in a fresh Python process.

    python3 perfbench/child.py SPEC.json OUT_DIR --seconds S
    python3 perfbench/child.py SPEC.json OUT_DIR --setup-only

Set-up is what every `varw` CLI invocation pays before it computes: importing
the package (which imports scipy.stats) and loading and validating the model
files.  Each round then makes the same public-API calls that `varw lln`,
`varw concentration` and `varw kappa-test` make, writing their output files
into OUT_DIR/roundK.  Rounds repeat until S seconds have passed since set-up
ended, and there are at least two: round 0 is the cold warm-up, the rest are
warm.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from workloads import call_ops, output_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_varw():
    """Import the package from this checkout's source tree, never from elsewhere."""
    if not (SRC / "varw" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'varw'}")
    sys.path.insert(0, str(SRC))
    import varw

    if Path(varw.__file__).resolve().parent != (SRC / "varw").resolve():
        raise SystemExit(f"imported varw from {varw.__file__}, not from {SRC}")
    return varw


def load_params(varw, spec: dict) -> list:
    return [varw.load_model(call["model"]) for call in spec["calls"]]


def execute(varw, call: dict, params, out_dir: Path) -> tuple[int, int, list[str]]:
    """Run one experiment call as the CLI runs it; return (ops, failed, errors).

    An op fails when the call raises (run_lln raises AcceptanceCheckError on a
    broken fixed-point identity) or when concentration reports `violated`;
    the call's ops then all count as failed, since it stops or fails as one.
    """
    ops = call_ops(call)
    out_path = out_dir / output_names(call)[0]
    try:
        if call["kind"] == "lln":
            config = varw.LLNConfig(params=params, n_values=call["n"], seeds=call["seeds"])
            varw.run_lln(config, out_dir=out_dir)
        elif call["kind"] == "concentration":
            config = varw.ConcentrationConfig(
                params=params, n=call["n"], M=np.array(call["M"], dtype=np.int64),
                a=call["a"], trials=call["trials"], seed=call["seed"],
            )
            if varw.run_concentration(config, out_path=out_path).violated:
                return ops, ops, ["concentration: deviation frequency above its bound"]
        else:
            varw.run_kappa_equivalence(
                params, call["n"], np.array(call["M"], dtype=np.int64), call["trials"],
                seed=call["seed"], out_path=out_path,
            )
    except varw.VarwError as exc:
        return ops, ops, [f"{call['kind']}: {type(exc).__name__}: {exc}"]
    return ops, 0, []


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_round(varw, spec: dict, params: list, out_dir: Path) -> dict:
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    ops = failed = 0
    errors: list[str] = []
    for call, p in zip(spec["calls"], params):
        o, f, e = execute(varw, call, p, out_dir)
        ops += o
        failed += f
        errors += e
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "ops": ops, "failed": failed,
            "errors": errors}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    out_dir = Path(argv[1])
    varw = import_varw()
    params = load_params(varw, spec)
    t_ready = time.monotonic()
    if "--setup-only" in argv:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    seconds = float(argv[argv.index("--seconds") + 1])
    rounds = []
    while len(rounds) < 2 or time.monotonic() - t_ready < seconds:
        rounds.append(run_round(varw, spec, params, out_dir / f"round{len(rounds)}"))
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({"t_ready": t_ready, "peak_rss_mb": peak_kb / 1024.0, "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
