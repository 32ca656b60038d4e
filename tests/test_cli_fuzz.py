"""Random CLI invocations: every one ends in an exit code 0-4, at most one
stderr line on a failure, never a traceback, and never a hang.

Each example runs every subcommand once with nothing broken, once with a
broken model document, and once with each of its own options broken in
turn, one thing at a time: so every fault is reached on its own in every
example, whatever the other draws are.  Broken models hold NaN, negative
or huge entries, ragged rows, no villages or supercritical sigma; broken
options are negative, at or past 2^60 or 2^63, counts whose seeds would
not fit in memory (2^40 and up), or not integers.  Valid sizes are small
(n <= 200, M <= 1000, trials <= 100), so that no draw allocates more than
a few MB.  Model entries come from fixed pools: a large but finite lambda
is a legitimate model whose landlord scans take about lambda/2 block reads
(a minute at lambda = 1e6), so the only huge lambdas drawn are those the
simulator refuses.
"""

import contextlib
import io
import json
import signal
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from varw.cli import main

DEADLINE_S = 5.0  # per invocation; the valid ones here take well under 0.5 s

NAN, INF = float("nan"), float("inf")
# Valid entries, which keep every model subcritical, and the malformed or
# extreme ones a broken model holds instead.
LAMBDAS, BAD_LAMBDAS = [0.5, 1.0, 3.0], [0.0, -1.0, NAN, INF, 1e300, 2.0**53]
SIGMAS, BAD_SIGMAS = [0.0, 0.1, 0.3], [0.9, 1.0, 1.5, -0.1, NAN]  # 0.9 and 1.0 are supercritical here
NUS, BAD_NUS = [0.0, 0.3, 1.0, 2.0], [-1.0, NAN, 1e300]
BAD_KERNEL_ENTRIES = [1.0, -0.5, NAN, 1e300]

NEVER_JUMP = json.dumps({"kernel": [[0.5]], "lambda": [1e300], "sigma": [0.0], "nu": [1.0]})
ONE_VILLAGE = json.dumps({"kernel": [[0.5]], "lambda": [1.0], "sigma": [0.1], "nu": [0.3]})

# The options of each subcommand that a draw may break.
OPTIONS = {
    "validate": [],
    "spectral": [],
    "solve": ["--tol"],
    "simulate": ["--n", "--seed"],
    "single-loop": ["--n", "--seed", "--M"],
    "lln": ["--tol", "--n", "--seeds", "--num-seeds"],
    "concentration": ["--n", "--seed", "--M", "--trials", "--a"],
    "kappa-test": ["--n", "--seed", "--M", "--trials"],
}

BAD_INTEGER = st.one_of(
    st.integers(-5, 0),
    st.integers(2**60, 2**62),
    st.integers(2**63, 2**70),
    st.sampled_from(["1.5", "nan", "1e3", "x", ""]),
).map(str)


class _Hang(BaseException):
    """Raised by the deadline alarm.  Not an Exception, so that nothing in
    the CLI catches it and hypothesis does not replay a hang to shrink it."""


@st.composite
def model_documents(draw, broken: bool):
    """A JSON model document: a small subcritical model on a kernel whose
    cycle x -> x+1 keeps it irreducible, or a broken one."""
    kind = "model"
    if broken:
        kind = draw(st.sampled_from(["entry", "ragged", "no villages", "missing key", "not json", "not an object"]))
    if kind == "not json":
        return "{oops"
    if kind == "not an object":
        return "[]"
    V = 0 if kind == "no villages" else draw(st.integers(1, 3))
    kernel = [draw(st.lists(st.sampled_from([0.0, 0.25]), min_size=V, max_size=V)) for _ in range(V)]
    for x in range(V):
        kernel[x][(x + 1) % V] = draw(st.sampled_from([0.25, 0.5]))
    doc = {
        "kernel": kernel,
        "lambda": draw(st.lists(st.sampled_from(LAMBDAS), min_size=V, max_size=V)),
        "sigma": draw(st.lists(st.sampled_from(SIGMAS), min_size=V, max_size=V)),
        "nu": draw(st.lists(st.sampled_from(NUS), min_size=V, max_size=V)),
    }
    if kind == "entry":
        bad = {"kernel": BAD_KERNEL_ENTRIES, "lambda": BAD_LAMBDAS, "sigma": BAD_SIGMAS, "nu": BAD_NUS}
        key = draw(st.sampled_from(sorted(bad)))
        row = doc[key] if key != "kernel" else kernel[draw(st.integers(0, V - 1))]
        row[draw(st.integers(0, V - 1))] = draw(st.sampled_from(bad[key]))
    if kind == "ragged":
        kernel[-1].append(0.0)
    if kind == "missing key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return json.dumps(doc)


def _joined(values) -> str:
    return ",".join(map(str, values))


@st.composite
def invocations(draw, command: str, broken: str | None):
    """(model document, argv without --model and --out) of `command`, with
    `broken` broken: None, "model" or one of the command's OPTIONS."""
    doc = draw(model_documents(broken == "model"))
    try:
        V = len(json.loads(doc)["kernel"]) or 1
    except (ValueError, TypeError, KeyError):
        V = 1

    def value(option, valid, bad=BAD_INTEGER):
        return [option, draw(bad if broken == option else valid)]

    integer = st.integers(-(2**70), 2**70).map(str)
    odometer = st.lists(st.integers(0, 1000), min_size=V, max_size=V).map(_joined)
    bad_odometer = st.one_of(
        st.lists(st.integers(0, 1000), min_size=V + 1, max_size=V + 1).map(_joined),
        st.lists(st.integers(0, 1000), min_size=V - 1, max_size=V - 1).map(_joined),
        st.tuples(odometer, BAD_INTEGER).map(lambda m: _joined([m[1], *m[0].split(",")[1:]])),
    )
    argv = [command]
    if command == "validate" and draw(st.booleans()):
        argv.append("--strict")
    if command in ("solve", "lln"):
        argv += value(
            "--tol",
            st.sampled_from([1e-10, 1e-3, 1.0, 1e300, 1e-14]).map(repr),
            st.sampled_from([1e-17, 1e-300, 0.0, -1.0, NAN, INF]).map(repr),
        )
    if command == "lln":
        n_values = st.lists(st.integers(1, 200), min_size=1, max_size=2, unique=True)
        if broken == "--n":
            n_values = st.tuples(n_values, BAD_INTEGER).map(lambda n: [*n[0], n[1]])
        for n in draw(n_values):
            argv += ["--n", str(n)]
        # An explicit seed list, unless --num-seeds is the option to break.
        if broken != "--num-seeds" and (draw(st.booleans()) or broken == "--seeds"):
            seeds = st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=3).map(_joined)
            argv.append("=".join(value("--seeds", seeds, st.sampled_from(["", "1,x", "1.5", "2,,3"]))))
        else:
            bad_count = st.one_of(st.integers(-3, 0), st.integers(2**40, 2**70), st.just("1.5")).map(str)
            argv += ["--seed", draw(integer)] + value("--num-seeds", st.integers(1, 4).map(str), bad_count)
    if command in ("simulate", "single-loop", "concentration", "kappa-test"):
        argv += value("--n", st.integers(1, 200).map(str))
        argv += value("--seed", integer, st.sampled_from(["1.5", "x", ""]))
    if command in ("single-loop", "concentration", "kappa-test"):
        argv += value("--M", odometer, bad_odometer)
    if command in ("concentration", "kappa-test"):
        argv += value("--trials", st.integers(1, 100).map(str), st.one_of(BAD_INTEGER, st.integers(2**40, 2**59).map(str)))
    if command == "concentration":
        argv += value(
            "--a",
            st.sampled_from([0.1, 0.5, 1e-300, 1e300]).map(repr),
            st.sampled_from([0.0, -1.0, NAN, INF]).map(repr),
        )
    return doc, argv


# What each example breaks, in turn: every subcommand with nothing, its
# model, and each of its options.
TURNS = [(command, broken) for command in sorted(OPTIONS) for broken in [None, "model", *OPTIONS[command]]]


def _alarm(signum, frame):
    raise _Hang(f"an invocation ran past its {DEADLINE_S} s deadline")


def _run(doc: str, argv: list[str]) -> None:
    """Run one invocation and check how it ends."""
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(doc)
        argv = [argv[0], "--model", str(model), *argv[1:]]
        if argv[0] in ("lln", "concentration", "kappa-test"):
            argv += ["--out", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in range(5), (argv, doc, code)
    assert "Traceback" not in out.getvalue() + err
    if code:
        assert err.count("\n") <= 1, (argv, doc, err)


@settings(max_examples=10, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(*(invocations(command, broken) for command, broken in TURNS)))
@example([
    (NEVER_JUMP, ["simulate", "--n", "3", "--seed", "1"]),
    (NEVER_JUMP, ["single-loop", "--n", "3", "--seed", "1", "--M", "0"]),
    (ONE_VILLAGE, ["lln", "--n", "10", "--num-seeds", str(2**62)]),
    (ONE_VILLAGE, ["kappa-test", "--n", "10", "--M", "5", "--trials", str(2**59)]),
])
def test_cli_ends_in_an_exit_code_never_a_traceback_or_a_hang(monkeypatch, runs):
    monkeypatch.setenv("VARW_THREADS", "1")  # nothing forks
    for doc, argv in runs:
        _run(doc, argv)
