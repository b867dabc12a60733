"""Gaussian states as covariance matrices, symplectic maps, and Fock-space conversions.

Quadrature conventions: x = (a + a+)/sqrt(2), p = -i(a - a+)/sqrt(2), ordering
(x1, p1, x2, p2, ...), vacuum covariance = identity. The covariance matrix of
a centered state is gamma_jk = 2 Re tr[rho R_j R_k]; first moments are tracked
separately and subtracted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .fock import (
    DensityOperator,
    PureState,
    _as_dims,
    destroy,
    displacement_unitary,
    tensor,
)

SYMMETRY_TOL = 1e-10
SYMPLECTIC_TOL = 1e-10
UNCERTAINTY_TOL = 1e-8  # allowed negative eigenvalue of gamma + i Omega
NU_FLOOR = 0.05  # to_fock_density rejects symplectic eigenvalues below 1 - NU_FLOOR


def symplectic_form(n_modes: int) -> np.ndarray:
    """Canonical antisymmetric form Omega = blkdiag([[0,1],[-1,0]], ...)."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


@dataclass
class GaussianState:
    """Covariance matrix plus displacement vector in (x1, p1, x2, p2, ...) ordering."""

    gamma: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        m = self.gamma.shape[0]
        if self.gamma.shape != (m, m) or m % 2 != 0 or m == 0:
            raise ValueError(f"covariance must be square of even size, got {self.gamma.shape}")
        if self.d.size != m:
            raise ValueError("displacement length does not match covariance size")
        if not (np.isfinite(self.gamma).all() and np.isfinite(self.d).all()):
            raise ValueError("covariance and displacement must be finite")
        dev = np.max(np.abs(self.gamma - self.gamma.T))
        if dev > SYMMETRY_TOL * max(1.0, np.max(np.abs(self.gamma))):
            raise ValueError(f"covariance is not symmetric (deviation {dev:.3e})")
        self.gamma = self.gamma / 2 + self.gamma.T / 2  # the sum may overflow, the halves not

    @property
    def n_modes(self) -> int:
        return self.gamma.shape[0] // 2

    def validate(self):
        """Raise unless gamma + i*Omega >= 0 within UNCERTAINTY_TOL."""
        omega = symplectic_form(self.n_modes)
        w = np.linalg.eigvalsh(self.gamma.astype(complex) + 1j * omega)
        if w.min() < -UNCERTAINTY_TOL:
            raise ValueError(f"gamma + i Omega has eigenvalue {w.min():.3e} < -{UNCERTAINTY_TOL}")


@dataclass
class SymplecticMap:
    """Linear map on quadratures preserving the canonical form."""

    S: np.ndarray

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        m = self.S.shape[0]
        if self.S.shape != (m, m) or m % 2 != 0:
            raise ValueError(f"symplectic matrix must be square of even size, got {self.S.shape}")

    def check(self):
        omega = symplectic_form(self.S.shape[0] // 2)
        dev = np.max(np.abs(self.S @ omega @ self.S.T - omega))
        if dev > SYMPLECTIC_TOL:
            raise ValueError(f"map is not symplectic (deviation {dev:.3e})")


def eight_port_symplectic(n_extra_modes: int = 0) -> SymplecticMap:
    """Beam-splitter map realizing heterodyne detection with one vacuum ancilla.

    Quadrature ordering (x_anc, p_anc, x_sig, p_sig, then 2*n passthrough
    quadratures). Measuring x on both ancilla and signal outputs afterwards is
    equivalent, up to displacements, to projecting the signal mode on vacuum.
    """
    if n_extra_modes < 0:
        raise ValueError("n_extra_modes must be >= 0")
    a = 1.0 / math.sqrt(2.0)
    core = a * np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )
    size = 4 + 2 * n_extra_modes
    S = np.eye(size)
    S[:4, :4] = core
    return SymplecticMap(S)


def beamsplitter_symplectic(transmissivity: float = 0.5) -> SymplecticMap:
    """Two-mode beam-splitter map matching the Fock-space convention.

    cos(theta)^2 = transmissivity; quadratures transform as
    x_a -> cos x_a - sin x_b, x_b -> sin x_a + cos x_b (same for p).
    """
    if not 0.0 < transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    theta = math.acos(math.sqrt(transmissivity))
    c, s = math.cos(theta), math.sin(theta)
    S = np.array(
        [
            [c, 0.0, -s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, s, 0.0, c],
        ]
    )
    return SymplecticMap(S)


def apply_symplectic(gs: GaussianState, S) -> GaussianState:
    """gamma -> S gamma S^T, d -> S d."""
    S = S.S if isinstance(S, SymplecticMap) else np.asarray(S, dtype=float)
    if S.shape[0] != gs.gamma.shape[0]:
        raise ValueError(
            f"map size {S.shape[0]} does not match state size {gs.gamma.shape[0]}"
        )
    return GaussianState(S @ gs.gamma @ S.T, S @ gs.d)


def _partition(gs: GaussianState, mode: int):
    if mode < 0 or mode >= gs.n_modes:
        raise ValueError(f"mode {mode} invalid for {gs.n_modes} modes")
    m = 2 * mode
    n = gs.gamma.shape[0]
    meas = [m, m + 1]
    rest = [j for j in range(n) if j not in meas]
    A = gs.gamma[np.ix_(meas, meas)]
    B = gs.gamma[np.ix_(rest, rest)]
    C = gs.gamma[np.ix_(meas, rest)]
    return A, B, C, gs.d[meas], gs.d[rest]


def vacuum_condition(gs: GaussianState, mode: int) -> GaussianState:
    """Project one mode on vacuum: Schur complement gamma' = B - C^T (A + I)^-1 C.

    The displacement update is the linear Gaussian conditioning toward the
    zero outcome: d' = d_rest - C^T (A + I)^-1 d_meas.
    """
    A, B, C, d_m, d_r = _partition(gs, mode)
    M = A + np.eye(2)
    if np.linalg.cond(M) > 1e12:
        raise ValueError("A + I is numerically singular; covariance input invalid")
    sol_C = np.linalg.solve(M, C)
    sol_d = np.linalg.solve(M, d_m)
    return GaussianState(B - C.T @ sol_C, d_r - C.T @ sol_d)


def homodyne_condition(
    gs: GaussianState, mode: int, quadrature: str = "x", outcome: float = 0.0
) -> GaussianState:
    """Condition on a quadrature measurement of one mode (pseudo-inverse Schur update)."""
    if quadrature not in ("x", "p"):
        raise ValueError("quadrature must be 'x' or 'p'")
    A, B, C, d_m, d_r = _partition(gs, mode)
    pi = np.diag([1.0, 0.0]) if quadrature == "x" else np.diag([0.0, 1.0])
    pinv = np.linalg.pinv(pi @ A @ pi)
    e = pi @ np.array([outcome, outcome])
    return GaussianState(B - C.T @ pinv @ C, d_r + C.T @ pinv @ (e - pi @ d_m))


def two_mode_squeezed(r: float) -> GaussianState:
    """Covariance of the two-mode squeezed vacuum with squeezing parameter r."""
    try:
        c, s = math.cosh(2 * r), math.sinh(2 * r)
    except OverflowError:
        raise OverflowError(f"cosh(2r) overflows a double at squeezing r = {r:g}") from None
    Z = np.diag([1.0, -1.0])
    gamma = np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]])
    return GaussianState(gamma, np.zeros(4))


def _quadrature_product(dims: tuple[int, ...], js, pad: int = 0) -> np.ndarray:
    """Full-space product R_j1 R_j2 ... of the quadratures listed in ``js``.

    Quadratures on one mode multiply as single-mode matrices on cutoff
    d + pad; each mode's piece is cut to d before the pieces are composed by
    ``kron``, so no full-space matrix is ever multiplied.
    """
    pieces = []
    for m, d in enumerate(dims):
        a = destroy(d + pad)
        piece = np.eye(d + pad, dtype=complex)
        for j in (j for j in js if j // 2 == m):
            r = a + a.conj().T if j % 2 == 0 else -1j * (a - a.conj().T)
            piece = piece @ (r / math.sqrt(2))
        pieces.append(piece[:d, :d])
    return tensor(*pieces)


def covariance_of_state(state) -> GaussianState:
    """First moments and centered second-moment matrix of a Fock-space state."""
    rho = state.to_density() if isinstance(state, PureState) else state
    if not isinstance(rho, DensityOperator):
        raise TypeError(f"unsupported state type {type(state)!r}")
    rho_t = np.ascontiguousarray(rho.matrix.T)

    def moment(*js):  # Re tr[rho R_j1 R_j2 ...] = Re sum(rho^T * P), one O(D^2) pass
        return np.real(np.sum(rho_t * _quadrature_product(rho.dims.dims, js)))

    n_q = 2 * rho.n_modes
    d = np.array([moment(j) for j in range(n_q)])
    gamma = np.empty((n_q, n_q))
    for j in range(n_q):
        for k in range(j, n_q):
            gamma[j, k] = gamma[k, j] = 2.0 * moment(j, k) - 2.0 * d[j] * d[k]
    return GaussianState(gamma, d)


def williamson(gamma: np.ndarray):
    """Williamson normal form: gamma = S diag(nu_1, nu_1, ...) S^T with S symplectic.

    Returns (nu, S); requires gamma symmetric positive definite.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    if gamma.shape != (2 * n, 2 * n):
        raise ValueError("covariance must be square of even size")
    w, V = np.linalg.eigh((gamma + gamma.T) / 2)
    if w.min() <= 0:
        raise ValueError("covariance is not positive definite")
    sqrt_g = (V * np.sqrt(w)) @ V.T
    inv_sqrt_g = (V / np.sqrt(w)) @ V.T
    A = inv_sqrt_g @ symplectic_form(n) @ inv_sqrt_g
    A = (A - A.T) / 2
    T, Q = schur(A)
    for i in range(n):
        if T[2 * i, 2 * i + 1] < 0:
            Q[:, [2 * i, 2 * i + 1]] = Q[:, [2 * i + 1, 2 * i]]
            T[2 * i, 2 * i + 1] = -T[2 * i, 2 * i + 1]
    nu = np.array([1.0 / T[2 * i, 2 * i + 1] for i in range(n)])
    D_inv_sqrt = np.diag(np.repeat(1.0 / np.sqrt(nu), 2))
    S = sqrt_g @ Q @ D_inv_sqrt
    return nu, S


def to_fock_density(gs: GaussianState, dims) -> DensityOperator:
    """Build the Gaussian state with the given moments on a truncated Fock basis.

    Constructs the Gibbs operator exp(-H) of the quadratic Hamiltonian whose
    covariance matches gamma, then displaces it. Symplectic eigenvalues are
    clipped at the pure-state bound nu = 1; values below 1 - NU_FLOOR signal
    moments corrupted by truncation leak and raise.
    """
    fd = _as_dims(dims)
    if fd.n_modes != gs.n_modes:
        raise ValueError("mode count of dims does not match the Gaussian state")
    nu, S = williamson(gs.gamma)
    if nu.min() < 1.0 - NU_FLOOR:
        raise ValueError(
            f"symplectic eigenvalue {nu.min():.4f} below the uncertainty bound; "
            "moment matrix invalid (truncation leak too large)"
        )
    nu = np.clip(nu, 1.0 + 1e-12, None)
    beta = np.log((nu + 1.0) / (nu - 1.0))
    S_inv = np.linalg.inv(S)
    G = S_inv.T @ np.diag(np.repeat(beta, 2)) @ S_inv
    # Products on one mode are formed two levels above the cutoff and cut
    # afterwards; truncated-operator products would corrupt the top Fock level.
    H = np.zeros((fd.size, fd.size), dtype=complex)
    for j in range(2 * fd.n_modes):
        for k in range(2 * fd.n_modes):
            if G[j, k] != 0.0:
                H += 0.5 * G[j, k] * _quadrature_product(fd.dims, (j, k), pad=2)
    H = (H + H.conj().T) / 2
    w, V = np.linalg.eigh(H)
    probs = np.exp(-(w - w.min()))
    rho = (V * probs) @ V.conj().T
    rho /= np.real(np.trace(rho))
    out = DensityOperator(fd, rho)
    if np.max(np.abs(gs.d)) > 0:
        units = [
            displacement_unitary(dm, (gs.d[2 * m] + 1j * gs.d[2 * m + 1]) / math.sqrt(2))
            for m, dm in enumerate(fd.dims)
        ]
        U = tensor(*units)
        out = DensityOperator(fd, U @ rho @ U.conj().T)
    return out


def permute_modes(gs: GaussianState, order) -> GaussianState:
    """Reorder modes of a Gaussian state; order[i] is the old index of new mode i."""
    order = [int(m) for m in order]
    if sorted(order) != list(range(gs.n_modes)):
        raise ValueError(f"order {order} is not a permutation of {gs.n_modes} modes")
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in order])
    return GaussianState(gs.gamma[np.ix_(idx, idx)], gs.d[idx])


def ideal_step_covariance(gs: GaussianState) -> GaussianState:
    """Covariance prediction for one vacuum-conditioned distillation step on a
    two-mode Gaussian input: duplicate, mix each party's pair on a balanced
    beam splitter, vacuum-project the second output of each pair."""
    if gs.n_modes != 2:
        raise ValueError("expected a two-mode Gaussian state")
    gamma = np.zeros((8, 8))
    gamma[:4, :4] = gs.gamma
    gamma[4:, 4:] = gs.gamma
    d = np.concatenate([gs.d, gs.d])
    both = GaussianState(gamma, d)  # modes (A1, B1, A2, B2)
    both = permute_modes(both, (0, 2, 1, 3))  # -> (A1, A2, B1, B2)
    bs = beamsplitter_symplectic(0.5).S
    S = np.eye(8)
    S[0:4, 0:4] = bs
    S[4:8, 4:8] = bs
    both = apply_symplectic(both, S)
    out = vacuum_condition(both, 3)  # B2
    out = vacuum_condition(out, 1)  # A2
    return out
