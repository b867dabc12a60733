"""POVM elements and conditional-state updates for the three detection variants.

Success effects: ideal vacuum projection |0><0|, the no-click element of an
on/off detector with efficiency eta, and the phase-space acceptance filter of
radius x realized by heterodyne post-selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fock import DensityOperator, PureState, coherent_ket

# Below this conditioning probability the post-measurement state is declared
# undefined rather than amplified numerical noise.
P_FLOOR = 1e-12

# Effect eigenvalues at or below this count as zero, in condition_on and in
# the step kernel alike, so a rank-one effect keeps pure states pure.
EFFECT_TOL = 1e-12

# Half the spacing of doubles at 1: a term below this fraction of a sum no longer moves it.
_HALF_ULP = 2.0**-53


class RareOutcomeError(RuntimeError):
    """The requested measurement outcome is too rare; the conditional state is undefined."""


@dataclass(frozen=True)
class IdealVacuum:
    """Perfect photon detector conditioned on 'no click' (vacuum projection)."""


@dataclass(frozen=True)
class OnOff:
    """On/off photon detector with efficiency eta, conditioned on 'no click'."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class HomodyneFilter:
    """Heterodyne measurement post-selected on outcomes inside the disk |alpha| < radius."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"filter radius must be positive, got {self.radius}")


DetectorModel = Union[IdealVacuum, OnOff, HomodyneFilter]


@dataclass
class MeasurementOutcome:
    """Conditional state (measured modes removed) and the probability of the outcome.

    ``leak`` records truncation weight lost inside the operation that
    produced this outcome; plain conditioning never leaks.
    """

    conditional_state: Union[PureState, DensityOperator]
    probability: float
    leak: float = 0.0


def success_diagonal(detector: DetectorModel, dim: int) -> np.ndarray:
    """The number-basis diagonal of a detector model's 'success' POVM element
    on one mode, as a float64 vector; every built-in effect is diagonal.

    - Ideal vacuum: the projector |0><0|, diagonal (1, 0, 0, ...).
    - On/off at efficiency eta, no click under binomial loss: (1 - eta)^n. At
      eta = 1 this is the vacuum projector; at eta = 0 the detector is blind
      and the effect is the identity.
    - Heterodyne acceptance over the disk |alpha| < x: F(n) = P(n+1, x^2),
      the regularized lower incomplete gamma function. With y = x^2 and the
      Poisson terms t_k = e^(-y) y^k / k! (from t_k = t_(k-1) y / k), F(n) is
      the tail sum_(k>n) t_k where y < n + 1, summed from its smallest terms,
      and 1 - sum_(k<=n) t_k elsewhere, so neither side cancels. F(0) = 1 -
      exp(-y), and F -> 1 as x -> infinity.
    """
    if isinstance(detector, IdealVacuum):
        e = np.zeros(dim)
        e[0] = 1.0
        return e
    if isinstance(detector, OnOff):
        return (1.0 - detector.eta) ** np.arange(dim)
    if not isinstance(detector, HomodyneFilter):
        raise TypeError(f"unknown detector model {detector!r}")
    x = detector.radius
    y = x * x
    if y == math.inf:  # the limit F = 1; each term e^(-y) y^k / k! would be 0 * inf = NaN
        return np.ones(dim)
    terms = [math.exp(-y)]
    while len(terms) <= dim:
        terms.append(terms[-1] * y / len(terms))
    # the tails are read where y < n + 1 <= dim: extend them until a term falls
    # below one ulp of the smallest, sum_(k>=dim) t_k
    smallest = terms[-1]
    while y < dim and terms[-1] > _HALF_ULP * smallest:
        terms.append(terms[-1] * y / len(terms))
        smallest += terms[-1]
    t = np.array(terms)
    tails = np.cumsum(t[::-1])[::-1][1 : dim + 1]  # tails[n] = sum_(k>n) t_k
    return np.where(np.arange(1, dim + 1) > y, tails, 1.0 - np.cumsum(t[:dim]))


def success_effect(detector: DetectorModel, dim: int) -> np.ndarray:
    """The 'success' POVM element of a detector model on one mode, as a
    complex matrix: the diagonal matrix of `success_diagonal`."""
    return np.diag(success_diagonal(detector, dim)).astype(complex)


def vacuum_effect(dim: int) -> np.ndarray:
    """Rank-one projector |0><0|."""
    return success_effect(IdealVacuum(), dim)


def no_click_effect(dim: int, eta: float) -> np.ndarray:
    """No-click element of an on/off detector under binomial loss: sum_n (1-eta)^n |n><n|."""
    return success_effect(OnOff(eta), dim)


def coherent_projector(dim: int, alpha: complex) -> np.ndarray:
    """Rank-one operator |alpha><alpha| built from truncated coherent amplitudes."""
    if abs(alpha) ** 2 > dim / 4:
        raise ValueError(
            f"|alpha|^2 = {abs(alpha) ** 2:.3f} too large for truncation {dim} "
            f"(require |alpha|^2 <= dim/4)"
        )
    v = coherent_ket(dim, alpha).amplitudes
    return np.outer(v, v.conj())


def filter_operator(dim: int, x: float) -> np.ndarray:
    """Integrated heterodyne acceptance effect over the disk |alpha| < x:
    diagonal with entries P(n+1, x^2) (see `success_diagonal`); F -> I as x -> infinity."""
    return success_effect(HomodyneFilter(x), dim)


def _effect_spectrum(effect: np.ndarray):
    """Eigenvalues (clipped to >= 0) and eigenvectors of a POVM element.

    Diagonal effects take an exact entrywise path; anything else goes through
    a Hermitian eigendecomposition.
    """
    effect = np.asarray(effect, dtype=complex)
    d = effect.shape[0]
    offdiag = effect - np.diag(np.diag(effect))
    if np.max(np.abs(offdiag)) == 0.0:
        evals = np.real(np.diag(effect)).copy()
        evecs = np.eye(d, dtype=complex)
    else:
        herm = np.max(np.abs(effect - effect.conj().T))
        if herm > 1e-10:
            raise ValueError(f"effect is not Hermitian (deviation {herm:.3e})")
        evals, evecs = np.linalg.eigh(effect)
    if evals.min() < -1e-10 or evals.max() > 1.0 + 1e-10:
        raise ValueError(f"effect eigenvalues outside [0, 1]: [{evals.min()}, {evals.max()}]")
    return np.clip(evals, 0.0, None), evecs


def _outcome(dims, unnormalized: np.ndarray, leak: float = 0.0) -> MeasurementOutcome:
    """The outcome of an unnormalized conditional state on the given dims.

    A ket (1-D) stays pure and its probability is its squared norm; of a
    matrix (2-D) the probability is its trace and only the Hermitian part is
    kept. Below P_FLOOR the outcome is undefined and RareOutcomeError is raised.
    """
    pure = unnormalized.ndim == 1
    p = float(np.sum(np.abs(unnormalized) ** 2) if pure else np.real(np.trace(unnormalized)))
    if p < P_FLOOR:
        raise RareOutcomeError(f"outcome probability {p:.3e} below {P_FLOOR}")
    if pure:
        return MeasurementOutcome(PureState(dims, unnormalized).normalized(), p, leak)
    rho = unnormalized / p
    return MeasurementOutcome(DensityOperator(dims, (rho + rho.conj().T) / 2), p, leak)


def _kraus_sum(kraus: np.ndarray) -> np.ndarray:
    """Unnormalized outcome of the Kraus columns kraus[kept, k] of a pure input:
    the ket itself when there is one column, else K K^dagger."""
    return kraus[:, 0] if kraus.shape[1] == 1 else kraus @ kraus.conj().T


def condition_on(state, effect: np.ndarray, mode: int) -> MeasurementOutcome:
    """Condition a state on a single-mode POVM element and discard the measured mode.

    Each eigenpair (lambda_k, u_k) of E above EFFECT_TOL gives a Kraus row
    sqrt(lambda_k) <u_k| on the measured mode; the conditional state is
    sum_k K_k rho K_k^dagger renormalized by its trace, the probability tr[E rho].
    A pure input stays pure exactly when the effect has rank one.
    """
    mode = int(mode)
    dims = state.dims.dims
    if mode < 0 or mode >= len(dims):
        raise ValueError(f"mode {mode} invalid for {len(dims)} modes")
    if len(dims) < 2:
        raise ValueError("conditioning would remove the last remaining mode")
    effect = np.asarray(effect, dtype=complex)
    if effect.shape != (dims[mode], dims[mode]):
        raise ValueError("effect does not match the mode dimension")
    evals, evecs = _effect_spectrum(effect)
    support = evals > EFFECT_TOL
    rows = (evecs.conj() * np.sqrt(evals))[:, support]  # rows[m, k] = sqrt(lambda_k) <u_k|m>
    n = len(dims)
    kept = state.dims.restricted([m for m in range(n) if m != mode])
    if isinstance(state, PureState):
        ket = np.moveaxis(state.tensor_view(), mode, -1).reshape(kept.size, -1)
        return _outcome(kept, _kraus_sum(ket @ rows))
    if isinstance(state, DensityOperator):
        r = np.moveaxis(state.tensor_view(), (mode, n + mode), (n - 1, -1))
        r = r.reshape(kept.size, dims[mode], kept.size, dims[mode])
        return _outcome(kept, np.einsum("imjn,mk,nk->ij", r, rows, rows.conj(), optimize=True))
    raise TypeError(f"unsupported state type {type(state)!r}")
