"""Model parameters and spectral data for the village random walk.

A model instance is the tuple (V, P, lambda, sigma, nu): a strictly
sub-stochastic irreducible jump kernel P on the villages, per-village sleep
rates, an initial sleeper density sigma in [0,1]^V and an initial active
density nu >= 0.  The Perron eigenpair (mu, eta) of P induces the weighted
l1 norm used by the contraction argument in the fixed-point solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputSizeError, IterationCapError, ValidationError

ROW_SUM_TOL = 1e-12
# Numeric slack on sigma <= lambda/(1+lambda): a solver-computed sleeper
# profile may overshoot the ceiling by its certified error and must still be
# accepted as an initial condition.  Matches the solver's output guarantee.
SUBCRITICAL_TOL = 1e-9
EIG_ITER_TOL = 1e-13
EIG_RESIDUAL_TOL = 1e-10
EIG_MAX_ITER = 10**6


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ModelParams:
    """One village-model instance; immutable after construction.

    Construction runs every structural check (`_check_structure`) and raises
    ValidationError on the first failure, so an instance is valid for its
    whole life and no consumer checks it again.  Villages are indexed
    0..V-1.  `labels` is optional display metadata and never affects
    computation.
    """

    kernel: np.ndarray
    sleep_rates: np.ndarray
    init_sleepers: np.ndarray
    init_actives: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        kernel = np.array(self.kernel, dtype=np.float64, copy=True)
        kernel.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "sleep_rates", _as_float_vector(self.sleep_rates, "sleep_rates"))
        object.__setattr__(self, "init_sleepers", _as_float_vector(self.init_sleepers, "init_sleepers"))
        object.__setattr__(self, "init_actives", _as_float_vector(self.init_actives, "init_actives"))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        _check_structure(self)

    def __reduce__(self):
        # A pickled or copied instance is rebuilt through the constructor,
        # so its arrays are read-only and checked like the original's.
        fields = (self.kernel, self.sleep_rates, self.init_sleepers, self.init_actives, self.labels)
        return ModelParams, fields

    @property
    def num_villages(self) -> int:
        return self.kernel.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Perron eigenpair of the kernel: eigenvalue mu, positive right
    eigenvector eta normalized to sup-norm 1, and its smallest entry."""

    mu: float
    eta: np.ndarray
    eta_min: float

    def __post_init__(self):
        eta = np.array(self.eta, dtype=np.float64, copy=True)
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)


def critical_profile(params: ModelParams) -> np.ndarray:
    """Per-village density lambda/(1+lambda), the largest admissible sigma."""
    lam = params.sleep_rates
    return lam / (1.0 + lam)


def _unreached_from_0(adj: np.ndarray) -> np.ndarray:
    """Villages not reachable from village 0 along the rows of the boolean
    matrix `adj`, in increasing order.  A breadth-first search on frontier
    masks: every row is read once, so the search costs O(V^2)."""
    unreached = np.ones(adj.shape[0], dtype=bool)
    unreached[0] = False
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        new = adj[frontier].any(axis=0)
        new &= unreached
        unreached ^= new
        frontier = np.flatnonzero(new)
    return np.flatnonzero(unreached)


def _unreachable_pair(support: np.ndarray) -> tuple[int, int] | None:
    """A pair (x, y) with y unreachable from x in the support digraph, or
    None when the digraph is strongly connected.

    The digraph is strongly connected exactly when every village is
    reachable from 0 and 0 is reachable from every village.  The diagonal is
    free (zero-step paths), so one village is always strongly connected.
    """
    missing = _unreached_from_0(support)
    if missing.size:
        return 0, int(missing[0])
    missing = _unreached_from_0(np.ascontiguousarray(support.T))
    if missing.size:
        return int(missing[0]), 0
    return None


def _check_structure(params: ModelParams) -> None:
    """Every structural invariant of a model instance except subcriticality:
    shapes and labels, a finite non-negative kernel with row sums <= 1 and at
    least one strictly sub-stochastic row, irreducible support, and valid
    lambda, sigma and nu.  Run once, when the instance is built."""
    P = params.kernel
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError(f"kernel must be square, got shape {P.shape}")
    V = P.shape[0]
    if V < 1:
        raise ValidationError("model needs at least one village")
    for name, vec in (
        ("sleep_rates", params.sleep_rates),
        ("sigma", params.init_sleepers),
        ("nu", params.init_actives),
    ):
        if vec.shape != (V,):
            raise ValidationError(f"{name} has length {vec.shape[0]}, expected {V}")
    if params.labels is not None and len(params.labels) != V:
        raise ValidationError(f"labels has length {len(params.labels)}, expected {V}")

    if not np.all(np.isfinite(P)):
        raise ValidationError("kernel contains non-finite entries")
    if np.any(P < 0):
        raise ValidationError("kernel contains negative entries")
    row_sums = P.sum(axis=1)
    worst = int(np.argmax(row_sums))
    if row_sums[worst] > 1.0 + ROW_SUM_TOL:
        raise ValidationError(f"kernel row {worst} sums to {float(row_sums[worst])!r}, exceeds 1")
    if not np.any(row_sums < 1.0 - ROW_SUM_TOL):
        raise ValidationError("kernel has no strictly sub-stochastic row")

    # Support-graph irreducibility; the diagonal is free (zero-step paths),
    # so only ordered pairs of distinct villages are constrained.
    pair = _unreachable_pair(P > 0)
    if pair is not None:
        x, y = pair
        raise ValidationError(f"kernel support is reducible: village {y} unreachable from {x}")

    lam = params.sleep_rates
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise ValidationError("sleep rates must be finite and >= 0")
    sigma = params.init_sleepers
    if not np.all(np.isfinite(sigma)) or np.any(sigma < 0) or np.any(sigma > 1):
        raise ValidationError("sigma entries must lie in [0, 1]")
    nu = params.init_actives
    if not np.all(np.isfinite(nu)) or np.any(nu < 0):
        raise ValidationError("nu entries must be finite and >= 0")


def validate_model(params: ModelParams) -> ModelParams:
    """Check subcriticality, sigma_x <= lambda_x/(1+lambda_x): the continuum
    solver needs it, the simulator does not.  Construction made every other
    check."""
    sigma = params.init_sleepers
    ceiling = critical_profile(params)
    bad = np.flatnonzero(sigma > ceiling + SUBCRITICAL_TOL)
    if bad.size:
        x = int(bad[0])
        raise ValidationError(
            f"sigma[{x}] = {float(sigma[x])!r} exceeds lambda/(1+lambda) = "
            f"{float(ceiling[x])!r}; instance is not subcritical"
        )
    return params


def compute_spectral(params: ModelParams) -> SpectralData:
    """Perron eigenpair by power iteration on P + I.

    The shift makes the iteration matrix primitive even when the support of
    P is periodic; the reported eigenvalue is rho(P + I) - 1.  Deterministic:
    all-ones start vector, sup-norm convergence threshold 1e-13, hard cap of
    1e6 iterations.
    """
    P = params.kernel
    V = params.num_villages
    v = np.ones(V, dtype=np.float64)
    rho = 1.0
    for _ in range(EIG_MAX_ITER):
        w = P @ v + v
        rho = float(w.max())
        w = w / rho
        if float(np.max(np.abs(w - v))) <= EIG_ITER_TOL:
            v = w
            break
        v = w
    else:
        raise IterationCapError(
            f"power iteration did not converge within {EIG_MAX_ITER} iterations"
        )

    mu = rho - 1.0
    eta = v / v.max()
    if not 0.0 <= mu < 1.0:
        raise ValidationError(f"principal eigenvalue {mu!r} outside [0, 1)")
    residual = float(np.max(np.abs(P @ eta - mu * eta)))
    if residual > EIG_RESIDUAL_TOL:
        raise IterationCapError(
            f"eigenpair residual {residual!r} exceeds {EIG_RESIDUAL_TOL} (ill-conditioned kernel)"
        )
    eta_min = float(eta.min())
    if eta_min <= 0.0:
        raise ValidationError("computed eigenvector has a non-positive entry")
    return SpectralData(mu=float(mu), eta=eta, eta_min=eta_min)


def eta_norm(spectral: SpectralData, w) -> float:
    """l1 norm weighted by the Perron eigenvector: sum_x |w_x| * eta_x."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != spectral.eta.shape:
        raise ValidationError(f"vector has shape {w.shape}, expected {spectral.eta.shape}")
    return float(np.abs(w) @ spectral.eta)


# --- model documents -------------------------------------------------------

_MODEL_KEYS = {"kernel", "lambda", "sigma", "nu", "labels"}
_REQUIRED_KEYS = {"kernel", "lambda", "sigma", "nu"}


def parse_model(doc: dict) -> ModelParams:
    """Build validated ModelParams from a decoded model document."""
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ValidationError(f"model document has unknown keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise ValidationError(f"model document is missing keys: {sorted(missing)}")
    kernel = doc["kernel"]
    if not isinstance(kernel, list) or not all(isinstance(row, list) for row in kernel):
        raise ValidationError("kernel must be an array of row arrays")
    try:
        params = ModelParams(
            kernel=np.array(kernel, dtype=np.float64),
            sleep_rates=doc["lambda"],
            init_sleepers=doc["sigma"],
            init_actives=doc["nu"],
            labels=doc.get("labels"),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model document: {exc}") from exc
    return params


def load_model(path) -> ModelParams:
    """Read and validate a JSON model document from disk."""
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"model file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file {p} is not valid JSON: {exc}") from exc
    return parse_model(doc)


def floor_counts(density: np.ndarray, n: int) -> np.ndarray:
    """Integer counts floor(density_x * n), applied independently per village.

    The product is the binary float64 one, not a decimal one: a density that
    is not exactly representable can land just below an integer, so
    floor(0.29 * 100) == 28, not 29.  Seeds, outputs and the continuum
    comparison all use these counts, so the semantics are fixed.
    """
    try:
        return np.array([math.floor(d * n) for d in density], dtype=np.int64)
    except OverflowError:
        raise InputSizeError(f"floor(density * n) at n={n} does not fit in a 64-bit integer") from None
