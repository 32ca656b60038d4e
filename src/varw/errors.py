"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI ends with and the label that
starts its one stderr line: 1 `error` for malformed input, 2 `runtime
guard` for a step or iteration cap or an integer too large for 64 bits,
a 64-bit address space or physical memory, 3 `invariant failure` for an
exact invariant tripped inside an experiment, and 4 `worker lost` for an
`lln` worker process that ended without a result or could not be started.
"""


class VarwError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, label = 1, "error"


class ValidationError(VarwError):
    """Malformed input: bad dimensions, invalid parameters, bad model file."""


class IterationCapError(VarwError):
    """Fixed-point or eigenvalue iteration exceeded its hard cap."""

    exit_code, label = 2, "runtime guard"


class StepCapError(VarwError):
    """Stabilization executed more instructions than the runtime guard allows."""

    exit_code, label = 2, "runtime guard"


class InputSizeError(VarwError):
    """An input integer too large for the 64-bit arrays it is stored in, or
    a count whose arrays would not fit in physical memory."""

    exit_code, label = 2, "runtime guard"


class AcceptanceCheckError(VarwError):
    """An exact invariant (mass balance, fixed point, bound) failed during a sweep."""

    exit_code, label = 3, "invariant failure"


class WorkerLostError(VarwError):
    """A worker process ended without a result, for example killed by a signal."""

    exit_code, label = 4, "worker lost"
