"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems exit 1, runtime
guards (iteration/step caps, oversized inputs) exit 2, tripped experiment
invariants exit 3, a worker process lost without a result exits 4.
"""


class VarwError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VarwError):
    """Malformed input: bad dimensions, invalid parameters, bad model file."""


class IterationCapError(VarwError):
    """Fixed-point or eigenvalue iteration exceeded its hard cap."""


class StepCapError(VarwError):
    """Stabilization executed more instructions than the runtime guard allows."""


class InputSizeError(VarwError):
    """An input integer too large for the 64-bit arrays it is stored in."""


class AcceptanceCheckError(VarwError):
    """An exact invariant (mass balance, fixed point, bound) failed during a sweep."""


class WorkerLostError(VarwError):
    """A worker process ended without a result, for example killed by a signal."""
