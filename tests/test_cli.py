import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_reaped, fail_os_call, kill_forked_workers, needs_fork, record_forks, two_village_params

import varw
from varw import (
    AcceptanceCheckError,
    InputSizeError,
    IterationCapError,
    StepCapError,
    ValidationError,
    WorkerLostError,
    compute_spectral,
    solve_fixed_point,
)
from varw.cli import main


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "two_village.json"
    path.write_text(
        json.dumps(
            {
                "kernel": [[0.0, 0.5], [0.4, 0.0]],
                "lambda": [1.0, 1.0],
                "sigma": [0.2, 0.3],
                "nu": [0.5, 0.3],
            }
        )
    )
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, model_file):
    code, out, _ = run_cli(capsys, "validate", "--model", model_file, "--strict")
    assert code == 0
    assert "valid model: 2 villages" in out
    assert "subcritical: yes" in out


def test_validate_bad_rowsum(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"kernel": [[0.7, 0.5], [0.4, 0.0]], "lambda": [1, 1], "sigma": [0, 0], "nu": [0, 0]})
    )
    code, _, err = run_cli(capsys, "validate", "--model", str(path))
    assert code == 1
    assert "exceeds 1" in err


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", "--model", str(tmp_path / "nope.json"))
    assert code == 1
    assert "not found" in err


def test_malformed_model_document(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "validate", "--model", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_unknown_flag(capsys, model_file):
    code, _, err = run_cli(capsys, "validate", "--model", model_file, "--frobnicate")
    assert code == 1
    assert "argument error" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "explode")
    assert code == 1
    assert "argument error" in err


def test_spectral_output(capsys, model_file):
    code, out, _ = run_cli(capsys, "spectral", "--model", model_file)
    assert code == 0
    spectral = compute_spectral(two_village_params())
    assert f"mu: {spectral.mu!r}" in out


def test_solve_matches_library(capsys, model_file):
    code, out, _ = run_cli(capsys, "solve", "--model", model_file, "--tol", "1e-10")
    assert code == 0
    params = two_village_params()
    sol = solve_fixed_point(params, compute_spectral(params), tol=1e-10)
    assert f"0,{float(sol.m_star[0])!r},{float(sol.s_star[0])!r}" in out
    assert f"1,{float(sol.m_star[1])!r},{float(sol.s_star[1])!r}" in out
    assert "certified_eta_error: 1e-10" in out


def test_solve_refuses_supercritical(capsys, tmp_path):
    path = tmp_path / "super.json"
    path.write_text(
        json.dumps({"kernel": [[0.5]], "lambda": [1.0], "sigma": [0.9], "nu": [0.1]})
    )
    code, _, err = run_cli(capsys, "solve", "--model", str(path))
    assert code == 1
    assert "not subcritical" in err


def test_simulate_deterministic_output(capsys, model_file):
    code_a, out_a, _ = run_cli(capsys, "simulate", "--model", model_file, "--n", "500", "--seed", "7")
    code_b, out_b, _ = run_cli(capsys, "simulate", "--model", model_file, "--n", "500", "--seed", "7")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "fixed_point_check: ok" in out_a
    assert "mass_balance_check: ok" in out_a
    assert "seed: 7" in out_a


def test_simulate_has_no_order_policy_option(capsys, model_file):
    code, out, err = run_cli(
        capsys, "simulate", "--model", model_file, "--n", "200", "--seed", "3",
        "--order-policy", "fifo-house-queue",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("argument error:")


def test_simulate_step_cap_exit_code(capsys, model_file, monkeypatch):
    import varw.cli as cli_mod

    def bomb(*args, **kwargs):
        raise StepCapError("boom")

    monkeypatch.setattr(cli_mod, "stabilize", bomb)
    code, _, err = run_cli(capsys, "simulate", "--model", model_file, "--n", "10")
    assert code == 2
    assert "runtime guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("single-loop", "--n", "10", "--M", "1000000000000000,1"),
        ("simulate", "--n", "1000000000000000"),
    ],
)
def test_oversized_input_exit_code(capsys, model_file, argv):
    # Each asks for petabytes: single-loop's arrivals fail numpy's allocation
    # at once, and simulate's houses are refused before the engine allocates.
    code, _, err = run_cli(capsys, argv[0], "--model", model_file, *argv[1:])
    assert code == 2
    assert err.count("\n") == 1
    if argv[0] == "single-loop":
        assert err.startswith("runtime guard: input too large for memory")
    else:
        assert err.startswith("runtime guard: houses in all streams = 2000000000000000 needs about 32000000000000000 bytes")


HUGE = str(2**62)  # fits in int64, but no array of that many entries fits in memory


@pytest.mark.parametrize(
    "argv, printed",
    [
        (("single-loop", "--n", "10", "--M", f"{HUGE},0"), ""),
        (("simulate", "--n", HUGE), ""),
        (("lln", "--n", HUGE, "--num-seeds", "1"), "seeds: 12345\n"),
        (("concentration", "--n", "10", "--M", "1,1", "--a", "0.1", "--trials", HUGE), "seed: 12345\n"),
        (("kappa-test", "--n", "10", "--M", "1,1", "--trials", HUGE), "seed: 12345\n"),
    ],
    ids=["single-loop-M", "simulate-n", "lln-n", "concentration-trials", "kappa-test-trials"],
)
def test_count_beyond_address_space_exit_code(capsys, model_file, tmp_path, monkeypatch, argv, printed):
    # The guard fires before the allocation that numpy would refuse with a ValueError.
    monkeypatch.setenv("VARW_THREADS", "1")
    out_dir = ("--out", str(tmp_path / "o")) if argv[0] in ("lln", "concentration", "kappa-test") else ()
    code, out, err = run_cli(capsys, argv[0], "--model", model_file, *argv[1:], *out_dir)
    assert code == 2
    assert out == printed  # only the seeds, which these commands print before any work
    assert err.count("\n") == 1 and err.startswith("runtime guard: ")
    assert "too large for a 64-bit address space" in err


@pytest.mark.parametrize(
    "argv, printed, what, each",
    [
        (("lln", "--n", "10", "--num-seeds"), "", "--num-seeds", 40),
        (("concentration", "--n", "10", "--M", "1,1", "--a", "0.1", "--trials"), "seed: 12345\n", "trials", 16),
        (("kappa-test", "--n", "10", "--M", "1,1", "--trials"), "seed: 12345\n", "trials", 16),
    ],
    ids=["lln-num-seeds", "concentration-trials", "kappa-test-trials"],
)
def test_count_beyond_physical_memory_exit_code(capsys, model_file, tmp_path, monkeypatch, argv, printed, what, each):
    """A count whose own arrays, about 40 B per seed or 16 B per trial, pass
    physical memory is refused before they are built: on a machine of 4 KiB
    here, so that the refused counts stay small, and one fewer still runs,
    in chunks of at most 256 houses, which the machine holds at 16 B each."""
    real, memory = os.sysconf, {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: memory[name] if name in memory else real(name))
    monkeypatch.setattr(varw.simulator, "_TRIAL_HOUSES", 256)
    monkeypatch.setenv("VARW_THREADS", "1")
    fits = 4096 // each
    out_dir = ("--out", str(tmp_path / "o"))
    code, out, err = run_cli(capsys, argv[0], "--model", model_file, *argv[1:], str(fits + 1), *out_dir)
    assert code == 2
    assert out == printed
    assert err == (
        f"runtime guard: {what} = {fits + 1} needs about {(fits + 1) * each} bytes, "
        "more than the 4096 bytes of physical memory\n"
    )
    assert not (tmp_path / "o").exists()
    assert run_cli(capsys, argv[0], "--model", model_file, *argv[1:], str(fits), *out_dir)[0] == 0


def test_n_beyond_physical_memory_exit_code(capsys, model_file, monkeypatch):
    """An n whose houses, about 16 B each, pass physical memory is refused
    before the engine allocates: on a machine of 4 KiB here, two villages of
    128 houses fit and two of 129 do not."""
    real, memory = os.sysconf, {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: memory[name] if name in memory else real(name))
    code, out, err = run_cli(capsys, "simulate", "--model", model_file, "--n", "129")
    assert code == 2
    assert out == ""
    assert err == (
        "runtime guard: houses in all streams = 258 needs about 4128 bytes, "
        "more than the 4096 bytes of physical memory\n"
    )
    code, out, _ = run_cli(capsys, "simulate", "--model", model_file, "--n", "128")
    assert code == 0
    assert "fixed_point_check: ok" in out


def test_simulate_broken_identity_exit_code(capsys, model_file, monkeypatch):
    import varw.experiments as exp_mod
    from varw.simulator import SingleLoopResult

    def wrong_loop(params, n, src, M):
        z = np.zeros(params.num_villages, dtype=np.int64)
        return SingleLoopResult(Phi=z - 1, S=z, I=z, A=z, Q=z, J=z)

    monkeypatch.setattr(exp_mod, "single_loop", wrong_loop)
    code, out, err = run_cli(capsys, "simulate", "--model", model_file, "--n", "50")
    assert code == 3
    assert "fixed_point_check: FAIL" in out
    assert "invariant failure" in err


def test_single_loop_subcommand(capsys, model_file):
    code, out, _ = run_cli(
        capsys, "single-loop", "--model", model_file, "--n", "100", "--seed", "5", "--M", "40,30"
    )
    assert code == 0
    assert "M: 40,30" in out
    assert "village,Phi,S,I,A,Q,J" in out


def test_single_loop_rejects_bad_vector(capsys, model_file):
    code, _, err = run_cli(
        capsys, "single-loop", "--model", model_file, "--n", "100", "--M", "4,x"
    )
    assert code == 1
    assert "comma-separated" in err


def test_lln_writes_files(capsys, model_file, tmp_path, monkeypatch):
    monkeypatch.setenv("VARW_THREADS", "1")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "lln", "--model", model_file, "--n", "30", "--n", "60",
        "--seeds", "1,2", "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "lln_rows.csv").exists()
    assert (out_dir / "lln_summary.csv").exists()
    assert "seeds: 1,2" in out
    assert "median=" in out


def test_lln_default_seeds_are_printed(capsys, model_file, tmp_path, monkeypatch):
    monkeypatch.setenv("VARW_THREADS", "1")
    code, out, _ = run_cli(
        capsys, "lln", "--model", model_file, "--n", "20", "--num-seeds", "3",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    assert "seeds: 12345,12346,12347" in out


def test_lln_rejects_repeated_n(capsys, model_file, tmp_path):
    code, _, err = run_cli(
        capsys, "lln", "--model", model_file, "--n", "50", "--n", "50",
        "--seeds", "1,2", "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert err.startswith("error: ") and "n=50 is given more than once" in err
    assert not (tmp_path / "o").exists()


def test_lln_takes_a_seed_list_that_starts_negative(capsys, model_file, tmp_path, monkeypatch):
    """`--seeds -3,7` is the seed list, not an unknown option: it gives the
    stdout and CSV bytes of `--seeds=-3,7`."""
    monkeypatch.setenv("VARW_THREADS", "1")
    runs = []
    out_dir = tmp_path / "o"
    for seeds in (["--seeds", "-3,7"], ["--seeds=-3,7"]):
        code, out, err = run_cli(capsys, "lln", "--model", model_file, "--n", "30", *seeds, "--out", str(out_dir))
        assert code == 0, err
        runs.append((out, [(out_dir / name).read_bytes() for name in ("lln_rows.csv", "lln_summary.csv")]))
    assert runs[0] == runs[1]
    assert runs[0][0].startswith("seeds: -3,7\n")
    code, out, _ = run_cli(capsys, "simulate", "--model", model_file, "--n", "20", "--seed", "-3")
    assert code == 0 and "seed: -3\n" in out


def test_house_past_the_notice_limit_exit_code(capsys, model_file, monkeypatch):
    """A house whose landlord notices would pass what the engine's int32
    word counts exits 2 with one line, not a traceback."""
    monkeypatch.setattr(varw.simulator, "_MAX_NOTICES", 2)
    code, out, err = run_cli(capsys, "single-loop", "--model", model_file, "--n", "10", "--seed", "5", "--M", "40,30")
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("runtime guard: house ") and "would read more than 2 landlord notices (n=10, seed=5)" in err


@needs_fork
def test_lln_lost_worker_exit_code(capsys, model_file, tmp_path, monkeypatch):
    """A forked worker killed by a signal exits 4 with one line naming it,
    not a traceback."""
    kill_forked_workers(monkeypatch, 2)
    monkeypatch.setenv("VARW_THREADS", "2")
    forks = record_forks(monkeypatch)
    code, _, err = run_cli(
        capsys, "lln", "--model", model_file, "--n", "30", "--seeds", "1,2", "--out", str(tmp_path / "o"),
    )
    assert code == 4
    assert err.count("\n") == 1
    assert err.startswith("worker lost: worker process ")
    assert err.endswith(" was killed by signal SIGKILL without a result; its first task was n=30, seeds [2]\n")
    assert len(forks) == 1
    assert_reaped(forks)


@needs_fork
def test_lln_unstartable_worker_exit_code(capsys, model_file, tmp_path, monkeypatch):
    """A worker whose fork fails (here under a process limit) exits 4 with
    one line naming it and the OS error, not a traceback."""
    monkeypatch.setenv("VARW_THREADS", "2")
    fail_os_call(monkeypatch, "fork", 1, BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN)))
    code, _, err = run_cli(
        capsys, "lln", "--model", model_file, "--n", "30", "--seeds", "1,2", "--out", str(tmp_path / "o"),
    )
    assert code == 4
    assert err == f"worker lost: worker 1 of 1 could not be started: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
    assert not (tmp_path / "o").exists()


def test_concentration_subcommand(capsys, model_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "concentration", "--model", model_file, "--n", "40", "--M", "20,10",
        "--a", "0.5", "--trials", "30", "--seed", "2", "--out", str(tmp_path / "c"),
    )
    assert code == 0
    assert "violated: false" in out
    assert (tmp_path / "c" / "concentration_a0.5.txt").exists()


@pytest.mark.parametrize("a", ["1e308", "inf"])
def test_concentration_level_past_the_float_range_exit_code(capsys, model_file, tmp_path, a):
    code, out, err = run_cli(
        capsys, "concentration", "--model", model_file, "--n", "20", "--M", "5,5",
        "--a", a, "--trials", "5", "--out", str(tmp_path / "c"),
    )
    assert code == 1
    assert out == "seed: 12345\n"
    assert err.count("\n") == 1 and err.startswith("error: a and a*n must be finite")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [("solve",), ("lln", "--n", "10", "--seeds", "1")], ids=["solve", "lln"])
def test_infinite_tol_exit_code(capsys, model_file, tmp_path, argv):
    out_dir = ("--out", str(tmp_path / "o")) if argv[0] == "lln" else ()
    code, _, err = run_cli(capsys, argv[0], "--model", model_file, *argv[1:], "--tol", "inf", *out_dir)
    assert code == 1
    assert err == "error: tol must be positive and finite, got inf\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tol", ["1e-300", "1e-17"])
def test_solve_refuses_a_tol_below_float_resolution(capsys, model_file, tol):
    """At 1e-300 the float64 step reaches 0.0, which would certify a bound
    that float64 cannot resolve."""
    code, out, err = run_cli(capsys, "solve", "--model", model_file, "--tol", tol)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: tol={float(tol)!r} is below the float64 resolution")


def test_solve_certifies_a_tol_above_float_resolution(capsys, model_file):
    code, out, _ = run_cli(capsys, "solve", "--model", model_file, "--tol", "1e-14")
    assert code == 0
    assert "certified_eta_error: 1e-14\n" in out


@pytest.mark.parametrize("argv", [("simulate",), ("single-loop", "--M", "0")], ids=["simulate", "single-loop"])
def test_a_village_whose_notices_are_never_jump_exit_code(capsys, tmp_path, argv):
    """Without the refusal, lambda = 1e300 leaves the landlord scan reading
    SLEEPs for about 5e8 blocks."""
    path = tmp_path / "never_jump.json"
    path.write_text(json.dumps({"kernel": [[0.5]], "lambda": [1e300], "sigma": [0.0], "nu": [1.0]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--model", str(path), "--n", "3", "--seed", "1", *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err == (
        "error: village 0 has lambda=1e+300, where lambda/(1+lambda) rounds to 1.0, "
        "so none of its landlord notices can be JUMP\n"
    )


def test_kappa_subcommand(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps({"kernel": [[0.5]], "lambda": [1.0], "sigma": [0.3], "nu": [0.5]})
    )
    code, out, _ = run_cli(
        capsys, "kappa-test", "--model", str(path), "--n", "30", "--M", "12",
        "--trials", "400", "--seed", "3", "--out", str(tmp_path / "k"),
    )
    assert code == 0
    assert "village_0_p_value" in out
    assert (tmp_path / "k" / "kappa_test.txt").exists()


def test_solve_non_monotone_iterates_exit_code(capsys, model_file, monkeypatch):
    import varw.limit as limit_mod

    real_phi = limit_mod.phi
    calls = []

    def shrinking_phi(params, m):
        calls.append(1)
        return real_phi(params, m) if len(calls) == 1 else np.zeros_like(m)

    monkeypatch.setattr(limit_mod, "phi", shrinking_phi)
    code, _, err = run_cli(capsys, "solve", "--model", model_file)
    assert code == 3
    assert "nondecreasing" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("concentration", "--a", "0.5", "--trials", "30"),
        ("kappa-test", "--trials", "30"),
    ],
)
def test_batched_trial_mismatch_exit_code(capsys, model_file, tmp_path, monkeypatch, argv):
    import varw.experiments as exp_mod

    real = exp_mod.single_loop_trials

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.Phi[0, 1] += 1
        return res

    monkeypatch.setattr(exp_mod, "single_loop_trials", corrupted)
    code, _, err = run_cli(
        capsys, argv[0], "--model", model_file, "--n", "40", "--M", "20,10", *argv[1:],
        "--seed", "2", "--out", str(tmp_path / "o"),
    )
    assert code == 3
    assert f"invariant failure: {argv[0]}: " in err
    assert "n=40, seed=2, trial 0, village 1: Phi=" in err


# The exit code the module docstring of varw.errors documents for each error class.
EXIT_CODES = {
    ValidationError: 1,
    IterationCapError: 2,
    StepCapError: 2,
    InputSizeError: 2,
    AcceptanceCheckError: 3,
    WorkerLostError: 4,
}


@pytest.mark.parametrize(
    "error",
    [cls for cls in varw.VarwError.__subclasses__() if cls.__module__.split(".")[0] == "varw"],
    ids=lambda cls: cls.__name__,
)
def test_every_error_class_has_its_exit_code(capsys, model_file, monkeypatch, error):
    import varw.cli as cli_mod

    def bomb(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli_mod, "compute_spectral", bomb)
    code, out, err = run_cli(capsys, "spectral", "--model", model_file)
    assert code == EXIT_CODES[error]
    assert out == ""
    assert err.count("\n") == 1 and err.endswith(": boom\n")  # one line, no traceback


def test_a_bare_varw_error_exits_1(capsys, model_file, monkeypatch):
    """The base class carries exit code 1 and the label `error` too."""
    import varw.cli as cli_mod

    def bomb(*args, **kwargs):
        raise varw.VarwError("boom")

    monkeypatch.setattr(cli_mod, "compute_spectral", bomb)
    code, out, err = run_cli(capsys, "spectral", "--model", model_file)
    assert (code, out, err) == (1, "", "error: boom\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("single-loop", "--n", "100000000000000000000", "--M", "1,1"), "--n"),
        (("single-loop", "--n", "10", "--M", "99999999999999999999,1"), "--M"),
        (("simulate", "--n", "100000000000000000000"), "--n"),
    ],
)
def test_integer_beyond_64_bits_exit_code(capsys, model_file, argv, option):
    code, out, err = run_cli(capsys, argv[0], "--model", model_file, *argv[1:])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"runtime guard: {option} value ")
    assert "does not fit in a 64-bit integer" in err


def test_odometer_at_int64_max_exit_code(capsys, model_file):
    """M + 1 would wrap in int64 here; the odometer bound fires first."""
    code, out, err = run_cli(capsys, "single-loop", "--model", model_file, "--n", "10", "--M", f"{2**63 - 1},0")
    assert code == 2
    assert out == ""
    assert err == f"runtime guard: M value {2**63 - 1} is too large for a 64-bit address space\n"


def test_import_loads_no_scipy():
    src = Path(varw.__file__).resolve().parent.parent
    code = "import sys, varw, varw.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("model, M", [("one_village_kappa.json", "20"), ("two_village.json", "20,20")])
def test_kappa_test_runs_without_scipy(tmp_path, model, M):
    """`varw kappa-test` with scipy unimportable exits 0, loads no scipy
    module, and prints and writes the bytes of a run with scipy importable."""
    src = Path(varw.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "if sys.argv.pop(1) == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from varw.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m, module in sys.modules.items() if m.startswith('scipy') and module is not None))\n"
        "sys.exit(code)\n"
    )
    argv = [
        "kappa-test", "--model", str(src.parent / "models" / model),
        "--n", "50", "--M", M, "--trials", "1200", "--seed", "7", "--out", "out",
    ]
    runs = {}
    for scipy in ("blocked", "importable"):
        cwd = tmp_path / scipy
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", code, scipy, *argv],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), scipy
        runs[scipy] = proc.stdout, (cwd / "out" / "kappa_test.txt").read_bytes()
    assert runs["blocked"][0].endswith("report: out/kappa_test.txt\n[]\n")
    assert runs["blocked"] == runs["importable"]


def test_import_loads_no_process_pool():
    """`import varw` loads no process pool machinery."""
    src = Path(varw.__file__).resolve().parent.parent
    code = (
        "import sys, varw, varw.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_lln_on_two_workers_loads_no_process_pool():
    """`run_lln` forks its workers itself: a two-worker sweep, which forks
    one, loads no `concurrent` or `multiprocessing` module."""
    src = Path(varw.__file__).resolve().parent.parent
    code = (
        "import sys, varw; "
        "p = varw.load_model('models/two_village.json'); "
        "r = varw.run_lln(varw.LLNConfig(params=p, n_values=[50], seeds=[1, 2])); "
        "print(len(r.rows), sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ, VARW_THREADS="2", PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src.parent, env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "4 []\n"
