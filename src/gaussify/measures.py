"""Diagnostics: logarithmic negativity, purity, fidelity, Wigner grids, Gaussianity.

Logarithms are base 2 throughout, so entanglement is reported in ebits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .fock import DensityOperator, PureState
from .gaussian import covariance_of_state, to_fock_density

LOG_BASE = 2


def _as_density(state) -> DensityOperator:
    return state.to_density() if isinstance(state, PureState) else state


def logarithmic_negativity(state) -> float:
    """log2 of the trace norm of the partial transpose over the second mode.

    Accepts a normalized two-mode pure or mixed state. With N the summed
    magnitude of the negative eigenvalues of rho^T_B, the result is
    E_N = log2(1 + 2N / tr rho^T_B), evaluated through log1p so that small
    negativities keep full relative precision. Negative eigenvalues no larger
    in magnitude than the eigensolver's rounding, D * eps * max|lambda| for a
    D-dimensional partial transpose, count as zero, so PPT states (product
    states among them) return exactly 0.0.
    """
    rho = _as_density(state)
    if rho.n_modes != 2:
        raise ValueError("logarithmic negativity is defined here for two-mode states")
    da, db = rho.dims.dims
    pt = rho.tensor_view().transpose(0, 3, 2, 1).reshape(da * db, da * db)
    evals = np.linalg.eigvalsh(pt)
    rounding = evals.size * np.finfo(float).eps * float(np.max(np.abs(evals)))
    negativity = float(np.sum(-evals[evals < -rounding]))
    return math.log1p(2.0 * negativity / float(np.sum(evals))) / math.log(LOG_BASE)


def purity(state) -> float:
    """tr rho^2; equals 1 exactly for pure states."""
    if isinstance(state, PureState):
        return float(state.norm() ** 4)
    return float(np.real(np.einsum("ij,ji->", state.matrix, state.matrix)))


def fidelity(state_a, state_b) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]."""
    if isinstance(state_a, PureState) and isinstance(state_b, PureState):
        return float(abs(state_a.overlap(state_b)) ** 2)
    if isinstance(state_a, PureState):
        psi = state_a.amplitudes
        return float(np.real(np.vdot(psi, state_b.matrix @ psi)))
    if isinstance(state_b, PureState):
        return fidelity(state_b, state_a)
    w, V = np.linalg.eigh(state_a.matrix)
    sqrt_a = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    inner = sqrt_a @ state_b.matrix @ sqrt_a
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(min(1.0, np.sum(np.sqrt(np.clip(evals, 0.0, None))) ** 2))


@dataclass
class WignerGrid:
    """W(x, p) sampled on a rectangular grid; values[i, j] = W(xs[i], ps[j])."""

    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        dx = self.xs[1] - self.xs[0] if len(self.xs) > 1 else 1.0
        dp = self.ps[1] - self.ps[0] if len(self.ps) > 1 else 1.0
        return float(np.sum(self.values) * dx * dp)

    def minimum(self) -> float:
        return float(self.values.min())


def wigner_axes(x_range, p_range, resolution):
    """The x and p axes of a Wigner grid: increasing ranges, at least 2 points
    per axis, and a spacing no wider than the vacuum width 1."""
    n = int(resolution)
    if not (x_range[0] < x_range[1] and p_range[0] < p_range[1]):
        raise ValueError("grid ranges must be increasing")
    if n < 2:
        raise ValueError("grid too coarse: need at least 2 points per axis")
    xs = np.linspace(float(x_range[0]), float(x_range[1]), n)
    ps = np.linspace(float(p_range[0]), float(p_range[1]), n)
    if not (xs[1] - xs[0] <= 1.0 and ps[1] - ps[0] <= 1.0):
        raise ValueError("grid too coarse: spacing exceeds the vacuum width")
    return xs, ps


def wigner(state, x_range, p_range, resolution) -> WignerGrid:
    """Wigner function of a single-mode state via the displaced-parity form.

    W(x, p) = (1/pi) sum_n (-1)^n <n| D+(alpha) rho D(alpha) |n> with
    alpha = (x + i p)/sqrt(2), evaluated through exact displacement matrix
    elements so finite-support states incur no parity-sum truncation error.
    With beta = 2 alpha and h = (rho + rho+)/2 the sum runs over the non-zero
    pairs m >= n of h only, each folded with its Hermitian partner:
    W = (1/pi) sum (2 - delta_mn) (-1)^n Re(h_nm <m|D(beta)|n>), where
    <m|D(beta)|n> = sqrt(n!/m!) beta^(m-n) exp(-|beta|^2/2) L_n^(m-n)(|beta|^2).
    """
    rho = _as_density(state)
    if rho.n_modes != 1:
        raise ValueError("Wigner grids are computed for single-mode states")
    xs, ps = wigner_axes(x_range, p_range, resolution)
    X, P = np.meshgrid(xs, ps, indexing="ij")
    beta = np.sqrt(2.0) * (X + 1j * P)  # 2*alpha
    u = np.abs(beta) ** 2
    env = np.exp(-u / 2)
    h = (rho.matrix + rho.matrix.conj().T) / 2
    logf = gammaln(np.arange(1, len(h) + 1, dtype=float))
    w = np.zeros(u.shape)
    for n, m in zip(*np.nonzero(np.triu(h))):
        pref = (1 + (m > n)) * (-1) ** n * math.exp(0.5 * (logf[n] - logf[m]))
        lag = eval_genlaguerre(n, m - n, u)
        w += np.real(h[n, m] * (pref * beta ** (m - n) * env * lag))
    return WignerGrid(xs, ps, w / math.pi)


def gaussianity_distance(state) -> float:
    """1 - fidelity to the Gaussian state with identical first and second moments.

    Zero (up to truncation) exactly on Gaussian states; the reference Gaussian
    is built on the same truncated basis. A pure state is passed on as it is,
    so its fidelity is the exact <psi|sigma|psi>.
    """
    reference = to_fock_density(covariance_of_state(state), state.dims)
    return max(0.0, 1.0 - fidelity(state, reference))
