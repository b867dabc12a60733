"""Truncated multi-mode Fock-space states, operators, and the standard optical unitaries.

All states live on a per-mode truncated basis |0>, ..., |d-1>. Multi-mode
objects use row-major (C-order) flattening, so mode 0 is the slowest index
and ``np.kron(A, B)`` composes mode 0 with mode 1.

A two-mode state of equal cutoffs d with no weight outside the n_A - n_B
sectors (a sector state) is stepped on its sector form: `_sectors` gathers
it, the step kernel maps it to the output's sector form, and `_from_sectors`
places that in the dense matrix, both through the one `_sector_index`. The
metrics split a sector state into d blocks of d states, each joining two
sectors (`_partition`); any other state is one block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Validation tolerances; comfortably above double-precision noise for the
# matrix sizes handled here (up to ~1300 x 1300).
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
NORM_TOL = 1e-10


@dataclass(frozen=True)
class FockDims:
    """Per-mode truncation dimensions; mode m carries Fock levels 0..dims[m]-1."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims:
            raise ValueError("at least one mode is required")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"every truncation must be >= 1, got {self.dims}")

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def flat_index(self, occupation) -> int:
        """Flat index of the basis state |n_0, n_1, ...>."""
        return int(np.ravel_multi_index(tuple(occupation), self.dims))

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """Occupation numbers of the flat basis index."""
        return tuple(int(n) for n in np.unravel_index(flat, self.dims))

    def restricted(self, keep) -> "FockDims":
        return FockDims(tuple(self.dims[m] for m in keep))


def _as_dims(dims) -> FockDims:
    if isinstance(dims, FockDims):
        return dims
    if isinstance(dims, (int, np.integer)):
        return FockDims((int(dims),))
    return FockDims(tuple(dims))


@dataclass
class PureState:
    """State vector over a truncated multi-mode Fock basis."""

    dims: FockDims
    amplitudes: np.ndarray

    def __post_init__(self):
        self.dims = _as_dims(self.dims)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.size != self.dims.size:
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.size} does not match "
                f"dims {self.dims.dims}"
            )

    @property
    def n_modes(self) -> int:
        return self.dims.n_modes

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n <= 0:
            raise ValueError("cannot normalize a zero state")
        return PureState(self.dims, self.amplitudes / n)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims.dims)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass
class DensityOperator:
    """Hermitian unit-trace operator over a truncated multi-mode Fock basis."""

    dims: FockDims
    matrix: np.ndarray

    def __post_init__(self):
        self.dims = _as_dims(self.dims)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        size = self.dims.size
        if self.matrix.shape != (size, size):
            raise ValueError(
                f"matrix of shape {self.matrix.shape} does not match dims {self.dims.dims}"
            )

    @property
    def n_modes(self) -> int:
        return self.dims.n_modes

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def normalized(self) -> "DensityOperator":
        t = self.trace()
        if t <= 0:
            raise ValueError("cannot normalize an operator with non-positive trace")
        return DensityOperator(self.dims, self.matrix / t)

    def tensor_view(self) -> np.ndarray:
        return self.matrix.reshape(self.dims.dims + self.dims.dims)

    def validate(self):
        """Raise if the operator is not Hermitian, unit-trace and positive within tolerance."""
        h = np.linalg.norm(self.matrix - self.matrix.conj().T, ord="fro")
        if h > HERMITICITY_TOL * max(1.0, np.linalg.norm(self.matrix, ord="fro")):
            raise ValueError(f"matrix is not Hermitian (deviation {h:.3e})")
        if abs(self.trace() - 1.0) > max(NORM_TOL, 1e3 * np.finfo(float).eps * self.dims.size):
            raise ValueError(f"trace {self.trace()} is not 1")
        w = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)
        if w.min() < -POSITIVITY_TOL:
            raise ValueError(f"minimum eigenvalue {w.min():.3e} below -{POSITIVITY_TOL}")


@dataclass(frozen=True)
class ModeOperator:
    """Single-mode operator on a truncated basis."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError("matrix does not match the stated dimension")

    @staticmethod
    def annihilation(dim: int) -> "ModeOperator":
        return ModeOperator(dim, destroy(dim))

    @staticmethod
    def creation(dim: int) -> "ModeOperator":
        return ModeOperator(dim, destroy(dim).conj().T)

    @staticmethod
    def number(dim: int) -> "ModeOperator":
        return ModeOperator(dim, np.diag(np.arange(dim, dtype=float)).astype(complex))


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator: a|n> = sqrt(n)|n-1> on the truncated basis."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def fock_ket(dims, occupation) -> PureState:
    """Basis state |n_0, n_1, ...>."""
    fd = _as_dims(dims)
    occupation = tuple(int(n) for n in occupation)
    if len(occupation) != fd.n_modes:
        raise ValueError("occupation length does not match mode count")
    if any(n < 0 or n >= d for n, d in zip(occupation, fd.dims)):
        raise ValueError(f"occupation {occupation} outside truncation {fd.dims}")
    amps = np.zeros(fd.size, dtype=complex)
    amps[fd.flat_index(occupation)] = 1.0
    return PureState(fd, amps)


def vacuum(dims) -> PureState:
    fd = _as_dims(dims)
    return fock_ket(fd, (0,) * fd.n_modes)


def coherent_ket(dim: int, alpha: complex) -> PureState:
    """Truncated coherent state with amplitudes exp(-|a|^2/2) a^n / sqrt(n!).

    The truncated vector is deliberately not renormalized; its norm deficit
    is the weight lost above the cutoff.
    """
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim, dtype=float)))))
    amps = np.exp(-abs(alpha) ** 2 / 2) * alpha ** n / np.exp(log_fact / 2)
    return PureState(FockDims((dim,)), amps)


def two_mode_squeezed_ket(r: float, dim: int) -> PureState:
    """Two-mode squeezed vacuum sum_n tanh(r)^n |n,n>, truncated and normalized.

    Normalizing divides out the 1/cosh(r) prefactor, which overflows at large r.
    """
    fd = FockDims((dim, dim))
    amps = np.zeros(fd.size, dtype=complex)
    t = math.tanh(r)
    for n in range(dim):
        amps[fd.flat_index((n, n))] = t ** n
    return PureState(fd, amps).normalized()


def tensor(*objects):
    """Kronecker composition of states or operators; dims concatenate.

    Accepts PureState, DensityOperator, ModeOperator or raw matrices. Pure
    states are promoted to density operators when mixed with them.
    """
    if len(objects) == 1 and isinstance(objects[0], (list, tuple)):
        objects = tuple(objects[0])
    if not objects:
        raise ValueError("tensor of an empty sequence")
    if all(isinstance(o, PureState) for o in objects):
        amps = objects[0].amplitudes
        dims = objects[0].dims.dims
        for o in objects[1:]:
            amps = np.kron(amps, o.amplitudes)
            dims = dims + o.dims.dims
        return PureState(FockDims(dims), amps)
    if all(isinstance(o, (PureState, DensityOperator)) for o in objects):
        mats = [o.to_density() if isinstance(o, PureState) else o for o in objects]
        m = mats[0].matrix
        dims = mats[0].dims.dims
        for o in mats[1:]:
            m = np.kron(m, o.matrix)
            dims = dims + o.dims.dims
        return DensityOperator(FockDims(dims), m)
    mats = [o.matrix if isinstance(o, ModeOperator) else np.asarray(o) for o in objects]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every mode not listed in ``keep``; trace is preserved."""
    keep = sorted(set(int(m) for m in keep))
    n = rho.n_modes
    if not keep:
        raise ValueError("keep must be nonempty")
    if any(m < 0 or m >= n for m in keep):
        raise ValueError(f"mode indices {keep} invalid for {n} modes")
    # integer-sublist einsum: ket axis m; bra axis m + n if kept, m (traced) if not
    bra = [m + n if m in keep else m for m in range(n)]
    reduced = np.einsum(rho.tensor_view(), [*range(n), *bra], keep + [m + n for m in keep])
    new_dims = rho.dims.restricted(keep)
    return DensityOperator(new_dims, reduced.reshape(new_dims.size, new_dims.size))


def beamsplitter_unitary(dim: int, transmissivity: float = 0.5) -> np.ndarray:
    """Two-mode beam-splitter matrix on equal truncations, transmissivity T.

    Convention (Heisenberg picture): a+ -> sqrt(T) a+ + sqrt(1-T) b+ and
    b+ -> -sqrt(1-T) a+ + sqrt(T) b+. The matrix is block diagonal in total
    photon number; blocks are the exact untruncated transformation projected
    onto the retained levels, so blocks with total number < dim are exactly
    unitary and higher blocks lose the weight that would cross the cutoff.

    Built from U|p,q> = (t a+ + r b+)^p (-r a+ + t b+)^q |0,0> / sqrt(p! q!)
    with t = sqrt(T), r = sqrt(1-T): each column takes one creation operator
    from its neighbour with one photon fewer on the larger input port (always
    stepping port a first drifts to 4e-10 by d = 30). Output levels < dim
    need only output levels < dim, so the entries are exact.
    """
    if not 0.0 < transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    t, r = math.sqrt(transmissivity), math.sqrt(1.0 - transmissivity)
    up = np.sqrt(np.arange(1, dim, dtype=float))  # <n+1| a+ |n>

    def create(prev, ca, cb):
        """(ca a+ + cb b+) on a stack of output grids prev[:, m, n]."""
        out = np.zeros_like(prev)
        out[:, 1:, :] = ca * up[:, None] * prev[:, :-1, :]
        out[:, :, 1:] += cb * up * prev[:, :, :-1]
        return out

    u = np.zeros((dim, dim, dim, dim))  # u[p, q, m, n] = <m,n| U |p,q>
    u[0, 0, 0, 0] = 1.0
    # columns with max(p, q) = k: first (p < k, k) from (p, k - 1), then
    # (k, q <= k) from (k - 1, q), which includes the (k - 1, k) just built
    for k in range(1, dim):
        root = math.sqrt(k)
        u[:k, k] = create(u[:k, k - 1], -r / root, t / root)
        u[k, : k + 1] = create(u[k - 1, : k + 1], t / root, r / root)
    return u.reshape(dim * dim, dim * dim).T.astype(complex, order="C")


def _expm_antihermitian(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for anti-Hermitian gen, as V exp(-iw) V+ from the Hermitian
    eigen-decomposition i gen = V diag(w) V+."""
    w, V = np.linalg.eigh(1j * gen)
    return (V * np.exp(-1j * w)) @ V.conj().T


def squeezer_unitary(dim: int, s: float) -> np.ndarray:
    """Single-mode squeezer exp((s/2)(a^2 - a+^2)) via the truncated generator.

    Exactly unitary on the truncated space; faithful to the untruncated
    squeezer on low-photon subspaces. Exponentiated from the Hermitian
    eigen-decomposition of i times the generator, which is real, so the
    product's imaginary rounding is dropped: the complex128 result is real.
    """
    a = destroy(dim)
    gen = 0.5 * s * (a @ a - (a @ a).conj().T)
    return _expm_antihermitian(gen).real.astype(complex)


def displacement_unitary(dim: int, alpha: complex) -> np.ndarray:
    """Single-mode displacement exp(alpha a+ - conj(alpha) a) via the truncated
    generator, exponentiated from the Hermitian eigen-decomposition of i times it."""
    a = destroy(dim)
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return _expm_antihermitian(gen)


def _apply_to_axes(tensor_arr: np.ndarray, op_tensor: np.ndarray, axes, k: int) -> np.ndarray:
    """Contract op_tensor (rank 2k, outputs first) into the given k axes."""
    moved = np.tensordot(op_tensor, tensor_arr, axes=(tuple(range(k, 2 * k)), tuple(axes)))
    return np.moveaxis(moved, range(k), axes)


def apply_unitary(state, unitary: np.ndarray, modes):
    """Apply an operator A acting on the listed modes: psi -> A psi, rho -> A rho A+.

    A need not be unitary (measurement effects pass through here too); the
    result is not renormalized.
    """
    modes = tuple(int(m) for m in modes)
    dims = state.dims.dims
    if any(m < 0 or m >= len(dims) for m in modes):
        raise ValueError(f"mode indices {modes} invalid for {len(dims)} modes")
    tdims = tuple(dims[m] for m in modes)
    target_size = int(np.prod(tdims))
    U = np.asarray(unitary, dtype=complex)
    if U.shape != (target_size, target_size):
        raise ValueError(
            f"unitary of shape {U.shape} does not match target dims {tdims}"
        )
    k = len(modes)
    U_t = U.reshape(tdims + tdims)
    if isinstance(state, PureState):
        out = _apply_to_axes(state.tensor_view(), U_t, modes, k)
        return PureState(state.dims, out.reshape(-1))
    if isinstance(state, DensityOperator):
        n = state.n_modes
        t = state.tensor_view()
        t = _apply_to_axes(t, U_t, modes, k)
        bra_axes = tuple(m + n for m in modes)
        t = _apply_to_axes(t, U_t.conj(), bra_axes, k)
        return DensityOperator(state.dims, t.reshape(state.dims.size, state.dims.size))
    raise TypeError(f"unsupported state type {type(state)!r}")


def pad(state, new_dims):
    """Embed a state into larger per-mode truncations (zero fill).

    Shrinking a dimension is allowed and simply drops the discarded levels;
    callers are responsible for renormalizing in that case.
    """
    fd = _as_dims(new_dims)
    old = state.dims.dims
    if fd.n_modes != len(old):
        raise ValueError("mode count cannot change when padding")
    slices = tuple(slice(0, min(o, n)) for o, n in zip(old, fd.dims))
    if isinstance(state, PureState):
        out = np.zeros(fd.dims, dtype=complex)
        out[slices] = state.tensor_view()[slices]
        return PureState(fd, out.reshape(-1))
    out = np.zeros(fd.dims + fd.dims, dtype=complex)
    out[slices + slices] = state.tensor_view()[slices + slices]
    return DensityOperator(fd, out.reshape(fd.size, fd.size))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a shared table read-only and return it."""
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _sector_index(d: int):
    """Where the sector form at cutoff d sits in r: the mask of the entries
    rs[d - 1 + delta, i, j] inside the cutoff, and their flat positions in
    r[i, j, I, J], in the mask's order. Shared by every caller, so read-only."""
    n = np.arange(d)
    shift = np.arange(1 - d, d)[:, None, None]
    bra_a, bra_b = n[:, None] + shift, n + shift
    inside = (bra_a >= 0) & (bra_a < d) & (bra_b >= 0) & (bra_b < d)
    at = ((n[:, None] * d + n) * d + bra_a) * d + bra_b
    return _read_only(inside), _read_only(at[inside])


def _sectors(r: np.ndarray) -> Optional[np.ndarray]:
    """The sector form rs[d - 1 + delta, i, j] = r[i, j, i + delta, j + delta]
    (zero past the cutoff) for delta in [-(d-1), d-1] of a two-mode r[i, j, I, J]
    of equal cutoffs d, or None when r has weight outside these n_A - n_B sectors.

    This exact-zero test is the one definition of a sector state: the step
    kernel and the metrics both dispatch on it."""
    inside, at = _sector_index(r.shape[0])
    rs = np.zeros(inside.shape, dtype=r.dtype)
    rs[inside] = r.reshape(-1)[at]
    return rs if np.count_nonzero(rs) == np.count_nonzero(r) else None


def _from_sectors(rs: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 matrix whose sector form (see `_sectors`) is rs, zero
    outside the n_A - n_B sectors."""
    d = rs.shape[1]
    inside, at = _sector_index(d)
    out = np.zeros(d**4, dtype=rs.dtype)
    out[at] = rs[inside]
    return out.reshape(d * d, d * d)


@functools.lru_cache(maxsize=None)
def _sector_rows(d: int, total: bool) -> np.ndarray:
    """The basis |i, j> of two modes of cutoff d in d blocks of d states:
    rows[k, n] is the flat index of |n, (n - k) mod d>, so block k joins the
    n_A - n_B sectors k and k - d; with ``total`` of |n, (k - n) mod d>, so it
    joins the total photon numbers k and k + d (the blocks of a sector state's
    partial transpose over mode B). An operator that vanishes between sectors
    vanishes between blocks. Shared by every caller, so read-only."""
    n = np.arange(d)
    k = n[:, None]
    return _read_only(n * d + ((k - n) if total else (n - k)) % d)


def _partition(*states, total: bool = False) -> np.ndarray:
    """The blocks of the given states as rows[k, n], the flat index of block k's
    n-th basis state: the d blocks of `_sector_rows` when every state is a
    two-mode state of equal cutoffs d with no weight outside the n_A - n_B
    sectors, else one block, the whole space. A ket is such a state when all its
    non-zero amplitudes psi[i, j] share one i - j; it is tested on them, not on
    its projector. Every built-in two-mode iterate is a sector state."""

    def in_sectors(s) -> bool:
        if isinstance(s, PureState):
            offset = np.subtract(*np.nonzero(s.tensor_view()))
            return bool(np.all(offset == offset[:1]))
        return _sectors(s.tensor_view()) is not None

    dims = states[0].dims.dims
    if len(dims) == 2 and dims[0] == dims[1] and all(
        s.dims.dims == dims and in_sectors(s) for s in states
    ):
        return _sector_rows(dims[0], total)
    return np.arange(states[0].dims.size)[None]
