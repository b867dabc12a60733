"""POVM elements and conditional-state updates for the three detection variants.

Success effects: ideal vacuum projection |0><0|, the no-click element of an
on/off detector with efficiency eta, and the phase-space acceptance filter of
radius x realized by heterodyne post-selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammainc

from .fock import (
    DensityOperator,
    PureState,
    apply_unitary,
    coherent_ket,
    partial_trace,
)

# Below this conditioning probability the post-measurement state is declared
# undefined rather than amplified numerical noise.
P_FLOOR = 1e-12

EFFECT_TOL = 1e-12


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


def vacuum_effect(dim: int) -> np.ndarray:
    """Rank-one projector |0><0|."""
    e = np.zeros((dim, dim), dtype=complex)
    e[0, 0] = 1.0
    return e


def no_click_effect(dim: int, eta: float) -> np.ndarray:
    """No-click element of an on/off detector under binomial loss: sum_n (1-eta)^n |n><n|.

    At eta = 1 this is the vacuum projector; at eta = 0 the detector is blind
    and the effect is the identity.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    return np.diag((1.0 - eta) ** np.arange(dim)).astype(complex)


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
    """Integrated heterodyne acceptance effect over the disk |alpha| < x.

    Diagonal in the number basis with entries F(n) = gammainc(n+1, x^2)
    (regularized lower incomplete gamma); F(0) = 1 - exp(-x^2), and F -> I
    as x -> infinity.
    """
    if not x > 0.0:
        raise ValueError(f"filter radius must be positive, got {x}")
    return np.diag(gammainc(np.arange(1, dim + 1, dtype=float), x * x)).astype(complex)


def success_effect(detector: DetectorModel, dim: int) -> np.ndarray:
    """The 'success' POVM element of a detector model on one mode."""
    if isinstance(detector, IdealVacuum):
        return vacuum_effect(dim)
    if isinstance(detector, OnOff):
        return no_click_effect(dim, detector.eta)
    if isinstance(detector, HomodyneFilter):
        return filter_operator(dim, detector.radius)
    raise TypeError(f"unknown detector model {detector!r}")


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


def condition_on(state, effect: np.ndarray, mode: int) -> MeasurementOutcome:
    """Condition a state on a single-mode POVM element and discard the measured mode.

    probability = tr[E rho]; the conditional state is the partial trace of
    sqrt(E) rho sqrt(E) over the measured mode, renormalized. A pure input
    stays pure exactly when the effect has rank one.
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
    rank = int(np.sum(evals > EFFECT_TOL))
    keep = [m for m in range(len(dims)) if m != mode]

    if isinstance(state, PureState):
        if rank == 1:
            i = int(np.argmax(evals))
            lam, u = evals[i], evecs[:, i]
            # <u|psi> contracted over the measured mode
            reduced = np.tensordot(state.tensor_view(), u.conj(), axes=([mode], [0]))
            p = float(lam * np.sum(np.abs(reduced) ** 2))
            if p < P_FLOOR:
                raise RareOutcomeError(f"outcome probability {p:.3e} below {P_FLOOR}")
            out = PureState(state.dims.restricted(keep), reduced.reshape(-1)).normalized()
            return MeasurementOutcome(out, p)
        sqrt_e = (evecs * np.sqrt(evals)) @ evecs.conj().T
        phi = apply_unitary(state, sqrt_e, (mode,))
        p = float(phi.norm() ** 2)
        if p < P_FLOOR:
            raise RareOutcomeError(f"outcome probability {p:.3e} below {P_FLOOR}")
        m = np.moveaxis(phi.tensor_view(), mode, -1)
        m = m.reshape(-1, dims[mode])
        rho_keep = (m @ m.conj().T) / p
        return MeasurementOutcome(
            DensityOperator(state.dims.restricted(keep), rho_keep), p
        )

    if isinstance(state, DensityOperator):
        sqrt_e = (evecs * np.sqrt(evals)) @ evecs.conj().T
        conditioned = apply_unitary(state, sqrt_e, (mode,))
        p = conditioned.trace()
        if p < P_FLOOR:
            raise RareOutcomeError(f"outcome probability {p:.3e} below {P_FLOOR}")
        reduced = partial_trace(conditioned, keep)
        return MeasurementOutcome(
            DensityOperator(reduced.dims, reduced.matrix / p), p
        )

    raise TypeError(f"unsupported state type {type(state)!r}")
