"""Diagnostics: logarithmic negativity, purity, fidelity, Wigner grids, Gaussianity.

Logarithms are base 2 throughout, so entanglement is reported in ebits.

The log-negativity, fidelity and Gaussianity work on the blocks of
`fock._partition`, each with one batched eigensolve over all of them: on a
sector state (a two-mode state of equal cutoffs d with no weight outside the
n_A - n_B sectors, as every built-in iterate is) d blocks of d states, each
joining two sectors by i - j of rho, or two by i + J of its partial
transpose; on any other state one block, the whole space. Every quantity that
is global on the whole space (the rounding rule, the Gibbs reference's
minimum and normalisation) stays global across the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import PureState, _partition
from .gaussian import _gibbs_root, covariance_of_state

LOG_BASE = 2


def _rounding(evals: np.ndarray) -> float:
    """The eigensolver's rounding, D * eps * max|lambda| for D eigenvalues."""
    return evals.size * np.finfo(float).eps * float(np.max(np.abs(evals)))


def _root(state, rows: np.ndarray) -> np.ndarray:
    """A (blocks, n, r) stack of factors K_k with rho_k = K_k K_k^dagger, block
    k on the basis states rows[k]: the ket's rows as one column for a pure
    state; else the block's eigenvectors scaled by sqrt(lambda), and by zero
    where lambda is at or below the rounding of all blocks together."""
    if isinstance(state, PureState):
        return state.amplitudes[rows][:, :, None]
    w, v = np.linalg.eigh(state.matrix[rows[:, :, None], rows[:, None, :]])
    return v * np.sqrt(np.where(w > _rounding(w), w, 0.0))[:, None, :]


def _root_fidelity(roots_a, roots_b) -> float:
    """F = (sum_k ||K_a,k^dagger K_b,k||_1)^2 over the blocks, each trace norm the
    sum of singular values."""
    root_f = np.linalg.svd(roots_a.conj().swapaxes(1, 2) @ roots_b, compute_uv=False).sum()
    return float(min(1.0, root_f**2))


def logarithmic_negativity(state) -> float:
    """log2 of the trace norm of the partial transpose over the second mode.

    Accepts a normalized two-mode pure or mixed state. With N the summed
    magnitude of the negative eigenvalues of rho^T_B, the result is
    E_N = log2(1 + 2N / tr rho^T_B), evaluated through log1p so that small
    negativities keep full relative precision. Negative eigenvalues no larger
    in magnitude than the eigensolver's rounding, D * eps * max|lambda| for a
    D-dimensional partial transpose, count as zero, so PPT states (product
    states among them) return exactly 0.0. A sector state's rho^T_B is
    eigensolved in its d blocks of d states by i + J; D and max|lambda| still
    run over all of them. A ket's blocks are read from its amplitudes, so its
    projector is never formed.
    """
    if state.n_modes != 2:
        raise ValueError("logarithmic negativity is defined here for two-mode states")
    rows = _partition(state, total=True)
    a, b = np.unravel_index(rows[:, :, None], state.dims.dims)
    a2, b2 = a.swapaxes(1, 2), b.swapaxes(1, 2)
    # rho^T_B[(a, b), (a2, b2)] = rho[(a, b2), (a2, b)]
    if isinstance(state, PureState):
        psi = state.tensor_view()
        pt = psi[a, b2] * psi[a2, b].conj()
    else:
        pt = state.tensor_view()[a, b2, a2, b]
    evals = np.linalg.eigvalsh(pt)
    negativity = float(np.sum(-evals[evals < -_rounding(evals)]))
    return math.log1p(2.0 * negativity / float(np.sum(evals))) / math.log(LOG_BASE)


def purity(state) -> float:
    """tr rho^2; equals 1 exactly for pure states."""
    if isinstance(state, PureState):
        return float(state.norm() ** 4)
    return float(np.real(np.einsum("ij,ji->", state.matrix, state.matrix)))


def fidelity(state_a, state_b) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1], as the
    squared trace norm of K_a^dagger K_b for the factors of ``_root``, summed
    over the blocks of `fock._partition`."""
    rows = _partition(state_a, state_b)
    return _root_fidelity(_root(state_a, rows), _root(state_b, rows))


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


def _laguerre(k: int, u: np.ndarray):
    """L_0^k(u), L_1^k(u), ...: the generalised Laguerre polynomials of order
    k >= 0, each a new array, from the three-term recurrence in n
    (n+1) L_(n+1)^k = (2n+1+k-u) L_n^k - (n+k) L_(n-1)^k."""
    prev, lag = np.zeros_like(u), np.ones_like(u)
    n = 0
    while True:
        yield lag
        nxt = (2 * n + 1 + k) - u
        nxt *= lag
        nxt -= (n + k) * prev
        nxt /= n + 1
        prev, lag = lag, nxt
        n += 1


def wigner(state, x_range, p_range, resolution) -> WignerGrid:
    """Wigner function of a single-mode state via the displaced-parity form.

    W(x, p) = (1/pi) sum_n (-1)^n <n| D+(alpha) rho D(alpha) |n> with
    alpha = (x + i p)/sqrt(2), evaluated through exact displacement matrix
    elements so finite-support states incur no parity-sum truncation error.
    With beta = 2 alpha and h = (rho + rho+)/2 the sum runs over the non-zero
    pairs m >= n of h only, each folded with its Hermitian partner:
    W = (1/pi) sum (2 - delta_mn) (-1)^n Re(h_nm <m|D(beta)|n>), where
    <m|D(beta)|n> = sqrt(n!/m!) beta^(m-n) exp(-|beta|^2/2) L_n^(m-n)(|beta|^2).
    The pairs are read off each diagonal k = m - n of h, up to its last
    non-zero entry, with one Laguerre recurrence in n (`_laguerre`) per
    diagonal; sqrt(n!/m!) and exp(-|beta|^2/2) beta^k are running products.
    """
    rho = state.to_density() if isinstance(state, PureState) else state
    if rho.n_modes != 1:
        raise ValueError("Wigner grids are computed for single-mode states")
    xs, ps = wigner_axes(x_range, p_range, resolution)
    X, P = np.meshgrid(xs, ps, indexing="ij")
    beta = np.sqrt(2.0) * (X + 1j * P)  # 2*alpha
    u = np.abs(beta) ** 2
    h = (rho.matrix + rho.matrix.conj().T) / 2
    w = np.zeros(u.shape)
    env = np.exp(-u / 2).astype(complex)  # exp(-|beta|^2/2) beta^k
    root_k = 1.0  # 1/sqrt(k!)
    for k in range(len(h)):
        if k:
            env *= beta
            root_k /= math.sqrt(k)
        diag = np.diagonal(h, k)
        support = np.flatnonzero(diag)
        if not support.size:
            continue
        if not np.any(diag.imag):
            diag = diag.real
        total, root = 0.0, root_k  # root = sqrt(n!/(n+k)!)
        for n, lag in zip(range(support[-1] + 1), _laguerre(k, u)):
            if n:
                root *= math.sqrt(n / (n + k))
            if diag[n]:
                total += ((-1) ** n * root * diag[n]) * lag
        fold = 2.0 if k else 1.0
        w += fold * (total * env.real if np.isrealobj(total) else (total * env).real)
    return WignerGrid(xs, ps, w / math.pi)


def gaussianity_distance(state) -> float:
    """1 - fidelity to the Gaussian state with the same first and second moments,
    on the same truncated basis; zero (up to truncation) on Gaussian states. The
    reference enters as its factor, so no density matrix of it is formed. A
    sector state has zero mean and its reference the same sectors, so both
    factors, and the fidelity, are taken block by block."""
    rows = _partition(state)
    reference = _gibbs_root(covariance_of_state(state), state.dims, rows)
    return max(0.0, 1.0 - _root_fidelity(_root(state, rows), reference))
