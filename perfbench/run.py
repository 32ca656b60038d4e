"""The varw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Workloads are defined in workloads.py and named, with their metrics, in
BENCHMARK.json at the repository root, which is where this script takes
metric names and units from.

With --trace 0 one fresh Python process (child.py) imports the package from
./src, loads the model files and then runs the workload in rounds, each
making the same public-API calls as the CLI, until S seconds have passed.
Round 0 is a warm-up.  wall_s and cpu_s are means over the other rounds and
ops_per_s is their ops over their wall time; setup_s is the median over that
process and SETUP_PROBES extra processes that only set up, and peak_rss_mb
that process's high-water mark.

Every round is the same work on the same inputs, so what differs between
rounds is the host.  On a shared host whose speed drifts by up to 2x in
phases of seconds to minutes, the median of a run jumps with whichever phase
holds the majority of its rounds, while the mean moves with the share of
time spent in each; the mean over a run is therefore the steadier figure.

With --trace 1 one process (traced.py) replays the workload with spans at
each layer boundary and reports the per-layer metrics.

Every round's output files must be byte-identical to the first round's, and
for DEFAULT_SEED at full size to the digests recorded in digests.json.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; run metadata is printed on the line before
and written with every sample to .perfbench_out/.  Exit code 0 means correct,
1 a result that failed its checks, 2 no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import DEFAULT_SEED, SIZES, WORKLOADS, make_spec, output_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKERS = 2
SETUP_PROBES = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _python_child(script: str, args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run a benchmark script in a fresh process group; return (spawn time, last JSON line)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except BaseException as exc:
        # The child's worker processes share its process group: stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{script} did not finish before the run's deadline") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{stderr[-3000:]}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(spec: dict, out_dir: Path) -> dict:
    return {name: _sha256(out_dir / name) for call in spec["calls"] for name in output_names(call)}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def run_metadata(spec: dict, seconds: int, trace: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "VARW_THREADS": WORKERS,
        "workload": spec["workload"],
        "seed": spec["seed"],
        "size": spec["size"],
        "sizes": spec["sizes"],
        "calls": spec["calls"],
        "seconds": seconds,
        "trace": trace,
    }


def benchmark_metrics(kind: str) -> list[dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc[kind]


class Checker:
    """Compares every set of output files against the first one and, where
    recorded, against the digests of the reference commit."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.first = None
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.expected = None
        if spec["seed"] == DEFAULT_SEED and spec["size"] == "full":
            self.expected = recorded[spec["workload"]]
        self.problems: list[str] = []

    def check(self, out_dir: Path) -> bool:
        try:
            got = output_digests(self.spec, out_dir)
        except OSError as exc:
            self.problems.append(f"{out_dir.name}: missing output: {exc}")
            return False
        if self.first is None:
            self.first = got
        ok = True
        if got != self.first:
            self.problems.append(f"{out_dir.name}: outputs differ from the first set")
            ok = False
        if self.expected is not None and got != self.expected:
            self.problems.append(f"{out_dir.name}: outputs differ from the recorded digests")
            ok = False
        return ok


def run_untraced(spec: dict, seconds: int, run_dir: Path, env: dict, deadline: float):
    spec_path = str(run_dir / "spec.json")
    checker = Checker(spec)
    setups = []

    def probe_setup(count: int):
        for _ in range(count):
            spawned, ready = _python_child(
                "child.py", [spec_path, str(run_dir), "--setup-only"], env, deadline)
            setups.append(ready["t_ready"] - spawned)

    # Set-up is sampled before and after the rounds, so that its samples
    # span the run as the rounds do.
    probe_setup(SETUP_PROBES // 2)
    spawned, res = _python_child(
        "child.py", [spec_path, str(run_dir), "--seconds", str(seconds)], env, deadline)
    setups.append(res["t_ready"] - spawned)
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    rounds = res["rounds"]
    attempted = failed = 0
    errors: list[str] = []
    for k, r in enumerate(rounds):
        if not r["failed"] and not checker.check(run_dir / f"round{k}"):
            r["failed"] = r["ops"]
        attempted += r["ops"]
        failed += r["failed"]
        errors += r["errors"]

    timed = rounds[1:]
    metrics = {
        "wall_s": statistics.fmean(r["wall_s"] for r in timed),
        "ops_per_s": sum(r["ops"] for r in timed) / sum(r["wall_s"] for r in timed),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    samples = {"rounds": rounds, "setup_s": setups}
    counts = {"setup_s": len(setups), "peak_rss_mb": 1}
    report = {
        "ops_failed_frac": (failed / attempted, "fraction", len(rounds)),
        **{k: (v, None, counts.get(k, len(timed))) for k, v in metrics.items()},
    }
    return metrics, attempted, failed, errors + checker.problems, samples, report


def run_traced(spec: dict, run_dir: Path, env: dict, deadline: float):
    _, res = _python_child("traced.py", [str(run_dir / "spec.json"), str(run_dir)], env, deadline)
    checker = Checker(spec)
    problems = checker.problems
    for sub in ("r0", "r1", "p"):
        if (run_dir / sub).is_dir():
            checker.check(run_dir / sub)
    if res["counts"][0] != res["counts"][1]:
        problems.append(f"exact counts differ between two runs: {res['counts']}")
    failed = res["ops"] if problems else res["failed"]
    samples = {k: res[k] for k in ("counts", "probed", "walls", "spans")}
    report = {k: (v, None, None) for k, v in res["metrics"].items()}
    return res["metrics"], res["ops"], failed, res["errors"] + problems, samples, report


def run_workload(workload: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    if not (SRC / "varw" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'varw'}")
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    spec = make_spec(workload, seed, size, run_dir / "inputs")
    (run_dir / "spec.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), VARW_THREADS=str(WORKERS))
    env.pop("PYTHONHOME", None)

    if trace:
        metrics, attempted, failed, errors, samples, report = run_traced(spec, run_dir, env, deadline)
        declared = benchmark_metrics("per_layer")
    else:
        metrics, attempted, failed, errors, samples, report = run_untraced(
            spec, seconds, run_dir, env, deadline)
        declared = benchmark_metrics("end_to_end")
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    meta = run_metadata(spec, seconds, trace)
    (run_dir / "result.json").write_text(
        json.dumps({"result": result, "meta": meta, "errors": errors, "samples": samples}, indent=1),
        encoding="utf-8",
    )
    units = {d["name"]: d["unit"] for d in declared}
    for name, (value, unit, count) in report.items():
        samples_note = f"  (n={count})" if count else ""
        print(f"{workload:14s} {name:40s} {value:>16.6g} {unit or units.get(name, '')}{samples_note}")
    for err in errors:
        print(f"{workload:14s} ERROR {err}")
    print("meta " + json.dumps(meta, separators=(",", ":")))
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        if args.workload == "all":
            results = {
                f"{w}/trace{t}": run_workload(w, args.seed, args.seconds, t, args.size)
                for w in WORKLOADS for t in (0, 1)
            }
            correct = all(r["correct"] for r in results.values())
            print(json.dumps(results))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
            correct = result["correct"]
            print(json.dumps(result))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
