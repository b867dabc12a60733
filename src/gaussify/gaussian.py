"""Gaussian states as covariance matrices, symplectic maps, and Fock-space conversions.

Quadrature conventions: x = (a + a+)/sqrt(2), p = -i(a - a+)/sqrt(2), ordering
(x1, p1, x2, p2, ...), vacuum covariance = identity. The covariance matrix of
a centered state is gamma_jk = 2 Re tr[rho R_j R_k]; first moments are tracked
separately and subtracted. Moments and the moment-matched Gaussian reference
are read from single-mode quadrature products, never from full-space
operators; the reference is built on the blocks the metrics ask for (d blocks
of d states on a sector state, each joining two n_A - n_B sectors, or the
whole space).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityOperator,
    PureState,
    _as_dims,
    _read_only,
    destroy,
    displacement_unitary,
    partial_trace,
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


def _schur_blocks(gs: GaussianState, mode: int):
    """gamma's blocks A (the measured mode), B (the rest) and C (between), and d's two parts."""
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
    A, B, C, d_m, d_r = _schur_blocks(gs, mode)
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
    A, B, C, d_m, d_r = _schur_blocks(gs, mode)
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


@functools.lru_cache(maxsize=None)
def _quadrature_piece(d: int, js: tuple[int, ...], pad: int = 0) -> np.ndarray:
    """The product of the single-mode quadratures R_j (x for even j, p for odd)
    listed in ``js``, multiplied on cutoff d + pad and cut to d. Shared by
    every caller, so read-only."""
    a = destroy(d + pad)
    piece = np.eye(d + pad, dtype=complex)
    for j in js:
        r = a + a.conj().T if j % 2 == 0 else -1j * (a - a.conj().T)
        piece = piece @ (r / math.sqrt(2))
    return _read_only(piece[:d, :d])


@functools.lru_cache(maxsize=None)
def _moment_pieces(d: int) -> np.ndarray:
    """The pieces of a mode's five moments x, p, xx, xp, pp at cutoff d,
    stacked. Shared by every caller, so read-only."""
    return _read_only(np.stack([_quadrature_piece(d, js) for js in ((0,), (1,), (0, 0), (0, 1), (1, 1))]))


def covariance_of_state(state) -> GaussianState:
    """First moments and centered second-moment matrix of a Fock-space state.

    A moment on one mode, tr[rho_m R_j R_k] with the truncated one-mode
    product, is read from that mode's reduced state rho_m; the four moments
    across two modes, tr[rho R_j (x) R_k], from one contraction of their
    reduced state with both modes' quadratures. A ket's reduced states and
    cross moments are read from its amplitudes. No full-space operator, and
    no projector of a ket, is built.
    """
    dims = state.dims.dims
    if isinstance(state, PureState):
        psi = state.tensor_view()

        def reduced_t(m):  # rho_m^T = conj(M) M^T for psi as M[mode m, rest]
            M = np.moveaxis(psi, m, 0).reshape(psi.shape[m], -1)
            return M.conj() @ M.T

        def cross(m, m2, qa, qb):  # sum over conj(psi[i, j, r]) qa[i, I] qb[j, J] psi[I, J, r]
            M = np.moveaxis(psi, (m, m2), (0, 1)).reshape(psi.shape[m], psi.shape[m2], -1)
            return np.einsum("ijr,aiI,bjJ,IJr->ab", M.conj(), qa, qb, M, optimize=True)

    elif isinstance(state, DensityOperator):

        def reduced_t(m):
            return partial_trace(state, [m]).matrix.T

        def cross(m, m2, qa, qb):  # sum over r[i, j, I, J] qa[I, i] qb[J, j], mode m first
            r = state.tensor_view() if len(dims) == 2 else partial_trace(state, [m, m2]).tensor_view()
            t = np.tensordot(qa, r, axes=([1, 2], [2, 0]))  # t[a, j, J]
            return np.tensordot(t, qb, axes=([1, 2], [2, 1]))

    else:
        raise TypeError(f"unsupported state type {type(state)!r}")

    n_q = 2 * len(dims)
    d = np.empty(n_q)
    second = np.empty((n_q, n_q))  # tr[rho R_j R_k] for j <= k
    for m, dm in enumerate(dims):
        # Re tr[rho_m P] = Re sum(rho_m^T * P), one sum per piece
        x, p = 2 * m, 2 * m + 1
        moments = np.real(np.sum(reduced_t(m) * _moment_pieces(dm), axis=(1, 2)))
        d[x], d[p], second[x, x], second[x, p], second[p, p] = moments
        for m2 in range(m + 1, len(dims)):
            qa, qb = _moment_pieces(dm)[:2], _moment_pieces(dims[m2])[:2]
            second[2 * m : 2 * m + 2, 2 * m2 : 2 * m2 + 2] = np.real(cross(m, m2, qa, qb))
    j, k = np.triu_indices(n_q)  # the lower half of second is never written
    gamma = np.empty((n_q, n_q))
    gamma[j, k] = gamma[k, j] = 2.0 * second[j, k] - 2.0 * d[j] * d[k]
    return GaussianState(gamma, d)


def williamson(gamma: np.ndarray):
    """Williamson normal form: gamma = S diag(nu_1, nu_1, ...) S^T with S symplectic.

    Returns (nu, S); requires gamma symmetric positive definite. The real
    Schur form of A = gamma^-1/2 Omega gamma^-1/2 comes from the Hermitian
    eigen-decomposition of iA: an eigenpair (tau > 0, x + iy) has A y = -tau x
    and A x = tau y, so the orthonormal columns sqrt(2) (y, x) carry the block
    [[0, tau], [-tau, 0]], and nu = 1/tau, also when nu is degenerate.
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
    tau, Z = np.linalg.eigh(0.5j * (A - A.T))
    tau, Z = tau[n:], Z[:, n:]  # eigenvalues come in pairs +-tau, ascending
    Q = np.empty((2 * n, 2 * n))
    Q[:, 0::2], Q[:, 1::2] = math.sqrt(2) * Z.imag, math.sqrt(2) * Z.real
    nu = 1.0 / tau
    S = sqrt_g @ Q * np.repeat(np.sqrt(tau), 2)
    return nu, S


def to_fock_density(gs: GaussianState, dims) -> DensityOperator:
    """The Gaussian state with the given moments on a truncated Fock basis, K K^dagger."""
    fd = _as_dims(dims)
    K = _gibbs_root(gs, fd, np.arange(fd.size)[None])[0]
    return DensityOperator(fd, K @ K.conj().T)


class _Terms(dict):
    """T[j, k][block, n, n'] = <rows[block, n]| R_j R_k |rows[block, n']>, the
    entries of one term of H on every block, each read-only and built on its
    first read as a product of one-mode pieces. The pieces are formed two
    levels above the cutoff and cut afterwards; truncated-operator products
    would corrupt the top Fock level."""

    def __init__(self, dims: tuple[int, ...], rows: np.ndarray):
        super().__init__()
        self.dims = dims
        self.kets = np.unravel_index(rows[:, :, None], dims)
        self.bras = np.unravel_index(rows[:, None, :], dims)

    def __missing__(self, jk):
        pieces = (_quadrature_piece(d, tuple(q for q in jk if q // 2 == m), pad=2)
                  for m, d in enumerate(self.dims))
        term = functools.reduce(np.multiply, (p[i, i2] for p, i, i2 in zip(pieces, self.kets, self.bras)))
        self[jk] = _read_only(term)
        return term


# Terms of at most this many entries (64 kB, a sector state's blocks at cutoff
# 16) are kept across calls; whole-space terms of large states are not.
TERM_CACHE_ENTRIES = 4096


def _hamiltonian_terms(dims: tuple[int, ...], rows: np.ndarray) -> _Terms:
    """The terms of H on the blocks rows, shared across calls when small."""
    if rows.size * rows.shape[1] > TERM_CACHE_ENTRIES:
        return _Terms(dims, rows)
    return _shared_terms(dims, rows.shape, rows.astype(np.intp).tobytes())


@functools.lru_cache(maxsize=8)
def _shared_terms(dims: tuple[int, ...], shape: tuple[int, int], rows: bytes) -> _Terms:
    """`_Terms` per (dims, partition); eight hold the cutoffs an adaptive run visits."""
    return _Terms(dims, np.frombuffer(rows, dtype=np.intp).reshape(shape))


def _gibbs_root(gs: GaussianState, dims, rows: np.ndarray) -> np.ndarray:
    """Factors K[k], one per block rows[k] (see `fock._partition`), of exp(-H)
    restricted to the block, with H quadratic with covariance gamma: the blocks
    of H are eigensolved in one batched call, their eigenvectors scaled by
    exp(-(w - w_min)/2), and w_min and the normalisation run over every block,
    so on one block this is the dense truncated Gibbs state. A displaced state
    is then displaced, on one block only. Symplectic eigenvalues are clipped at
    nu = 1; below 1 - NU_FLOOR they signal moments corrupted by truncation leak
    and raise. H = sum 0.5 G[j, k] T[j, k] reads each term T[j, k] on the
    blocks from `_hamiltonian_terms`, which builds it once per (dims, rows)."""
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
    # A real state's x-p entries of G are zero; williamson's eigenvectors leave
    # rounding there, which would double the terms of H below.
    G[np.abs(G) < 1e-14 * np.abs(G).max()] = 0.0
    terms = _hamiltonian_terms(fd.dims, rows)
    H = 0
    for j, k in zip(*np.nonzero(G)):
        H = H + 0.5 * G[j, k] * terms[j, k]
    w, v = np.linalg.eigh((H + H.conj().swapaxes(1, 2)) / 2)
    amps = np.exp(-(w - w.min()) / 2)
    K = v * (amps / np.linalg.norm(amps))[:, None, :]
    if np.any(gs.d):
        if len(K) != 1:
            raise ValueError("a displaced Gaussian state has no n_A - n_B sectors")
        alphas = (gs.d[0::2] + 1j * gs.d[1::2]) / math.sqrt(2)
        K = (tensor(*map(displacement_unitary, fd.dims, alphas)) @ K[0])[None]
    return K


def ideal_step_covariance(gs: GaussianState) -> GaussianState:
    """Covariance prediction for one vacuum-conditioned distillation step on a
    two-mode Gaussian input: duplicate, mix each party's pair on a balanced
    beam splitter, vacuum-project the second output of each pair.

    Closed form: each kept mode is (copy 1 - copy 2)/sqrt(2) of two identical,
    independent copies, so the kept pair has the input covariance, zero mean,
    and no correlation with the measured pair (copy 1 + copy 2)/sqrt(2), which
    the vacuum projection therefore leaves untouched.
    """
    if gs.n_modes != 2:
        raise ValueError("expected a two-mode Gaussian state")
    return GaussianState(gs.gamma, np.zeros(4))
