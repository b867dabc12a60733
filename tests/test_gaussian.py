import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gaussify import (
    DensityOperator,
    GaussianState,
    IdealVacuum,
    PureState,
    SymplecticMap,
    apply_symplectic,
    beamsplitter_symplectic,
    coherent_ket,
    condition_on,
    covariance_of_state,
    displacement_unitary,
    eight_port_symplectic,
    fock_ket,
    homodyne_condition,
    ideal_step_covariance,
    one_step,
    symplectic_form,
    to_fock_density,
    two_mode_squeezed,
    two_mode_squeezed_ket,
    vacuum,
    vacuum_condition,
    williamson,
)
from gaussify import gaussian
from gaussify.fock import _sector_rows, destroy, partial_trace, tensor
from gaussify.gaussian import _gibbs_root, _quadrature_piece
from gaussify.measurements import OnOff, vacuum_effect

RNG = np.random.default_rng(2024)


def random_valid_state(n_modes, rng=RNG, scale=0.12, nu_max=1.3, displaced=True):
    """Mildly squeezed thermal covariance with valid symplectic eigenvalues.

    The energy is kept bounded (largest quadrature variance < 2) so a
    moderate Fock truncation holds the state when cross-checking.
    """
    omega = symplectic_form(n_modes)
    while True:
        A = rng.normal(size=(2 * n_modes, 2 * n_modes), scale=scale)
        S = expm(omega @ (A + A.T))
        nu = 1.0 + rng.uniform(0.0, nu_max - 1.0, size=n_modes)
        gamma = S @ np.diag(np.repeat(nu, 2)) @ S.T
        if np.linalg.eigvalsh(gamma).max() < 2.0:
            break
    d = rng.normal(scale=0.4, size=2 * n_modes) if displaced else np.zeros(2 * n_modes)
    return GaussianState(gamma, d)


# ---------------------------------------------------------------- basics


def test_symplectic_form_squares_to_minus_identity():
    omega = symplectic_form(3)
    assert np.allclose(omega @ omega, -np.eye(6))


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    GaussianState(np.eye(2), np.zeros(2)).validate()
    with pytest.raises(ValueError):
        GaussianState(0.5 * np.eye(2), np.zeros(2)).validate()
    for gamma, d in ((np.diag([np.inf, 1.0]), np.zeros(2)), (np.eye(2), [np.nan, 0.0])):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(gamma, d)
    # symmetrising sums halves, so entries near the largest double stay finite
    big = np.finfo(float).max
    assert GaussianState(big * np.eye(2), np.zeros(2)).gamma[0, 0] == big


def test_symplectic_map_check():
    beamsplitter_symplectic(0.5).check()
    with pytest.raises(ValueError):
        SymplecticMap(np.diag([2.0, 1.0, 1.0, 1.0])).check()


# ---------------------------------------------------------------- heterodyne splitter


def test_eight_port_map_is_exactly_symplectic():
    for n in (0, 1, 2):
        S = eight_port_symplectic(n).S
        omega = symplectic_form(2 + n)
        assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-15


def test_eight_port_map_entry_pattern():
    a = 1.0 / math.sqrt(2.0)
    expected = np.array(
        [
            [a, 0, 0, a],
            [0, a, -a, 0],
            [0, a, a, 0],
            [-a, 0, 0, a],
        ]
    )
    assert np.allclose(eight_port_symplectic(0).S, expected)


def test_eight_port_map_preserves_vacuum():
    gs = GaussianState(np.eye(4), np.zeros(4))
    out = apply_symplectic(gs, eight_port_symplectic(0))
    assert np.max(np.abs(out.gamma - np.eye(4))) < 1e-14


# ---------------------------------------------------------------- conditioning


def test_vacuum_condition_on_two_mode_vacuum():
    gs = GaussianState(np.eye(4), np.zeros(4))
    out = vacuum_condition(gs, 0)
    assert np.allclose(out.gamma, np.eye(2))
    assert np.allclose(out.d, np.zeros(2))


def test_vacuum_condition_collapses_two_mode_squeezing():
    # cosh^2 - sinh^2 = 1 turns the Schur complement into the identity
    out = vacuum_condition(two_mode_squeezed(0.4), 0)
    assert np.max(np.abs(out.gamma - np.eye(2))) < 1e-12


def test_vacuum_condition_matches_fock_conditioning():
    d = 14
    for _ in range(3):
        gs = random_valid_state(2, displaced=False)
        rho = to_fock_density(gs, (d, d))
        out = condition_on(rho, vacuum_effect(d), 1)
        got = covariance_of_state(out.conditional_state)
        want = vacuum_condition(gs, 1)
        assert np.max(np.abs(got.gamma - want.gamma)) < 1e-4
        assert np.max(np.abs(got.d - want.d)) < 1e-4


def test_conditioning_preserves_validity():
    for _ in range(10):
        gs = random_valid_state(2)
        vacuum_condition(gs, 0).validate()
        apply_symplectic(gs, beamsplitter_symplectic(0.3)).validate()


def test_vacuum_condition_preserves_purity():
    # pure joint Gaussian states (det gamma = 1) stay pure under projection
    for r in (0.2, 0.5, 0.9):
        out = vacuum_condition(two_mode_squeezed(r), 1)
        assert abs(np.linalg.det(out.gamma) - 1.0) < 1e-10
    omega = symplectic_form(2)
    A = RNG.normal(size=(4, 4), scale=0.2)
    S = expm(omega @ (A + A.T))
    gs = GaussianState(S @ S.T, np.zeros(4))
    out = vacuum_condition(gs, 0)
    assert abs(np.linalg.det(out.gamma) - 1.0) < 1e-10


def test_homodyne_condition_removes_measured_quadrature_noise():
    gs = random_valid_state(2, displaced=False)
    out = homodyne_condition(gs, 0, "x")
    out.validate()
    assert out.gamma.shape == (2, 2)


# ---------------------------------------------------------------- symplectic action


def test_apply_symplectic_identity_and_composition():
    gs = random_valid_state(2)
    S1 = beamsplitter_symplectic(0.7).S
    S2 = beamsplitter_symplectic(0.4).S
    assert np.allclose(apply_symplectic(gs, np.eye(4)).gamma, gs.gamma)
    a = apply_symplectic(apply_symplectic(gs, S1), S2)
    b = apply_symplectic(gs, S2 @ S1)
    assert np.max(np.abs(a.gamma - b.gamma)) < 1e-12
    assert np.max(np.abs(a.d - b.d)) < 1e-12


def test_apply_symplectic_rejects_size_mismatch():
    with pytest.raises(ValueError):
        apply_symplectic(random_valid_state(1), beamsplitter_symplectic(0.5))


# ---------------------------------------------------------------- standard states


def test_two_mode_squeezed_limits_and_purity():
    assert np.allclose(two_mode_squeezed(0.0).gamma, np.eye(4))
    for r in (0.2, 0.4, 0.8):
        assert abs(np.linalg.det(two_mode_squeezed(r).gamma) - 1.0) < 1e-10


def test_two_mode_squeezed_matches_fock_expansion():
    r, d = 0.4, 14
    got = covariance_of_state(two_mode_squeezed_ket(r, d))
    assert np.max(np.abs(got.gamma - two_mode_squeezed(r).gamma)) < 1e-4
    assert np.max(np.abs(got.d)) < 1e-12


# ---------------------------------------------------------------- moments


def test_covariance_of_vacuum():
    got = covariance_of_state(vacuum((4, 4)))
    assert np.allclose(got.gamma, np.eye(4))
    assert np.allclose(got.d, np.zeros(4))


def test_covariance_of_coherent_state():
    alpha = 0.7 + 0.3j
    got = covariance_of_state(coherent_ket(20, alpha).normalized())
    assert np.max(np.abs(got.gamma - np.eye(2))) < 1e-10
    assert abs(got.d[0] - math.sqrt(2) * alpha.real) < 1e-10
    assert abs(got.d[1] - math.sqrt(2) * alpha.imag) < 1e-10


def test_covariance_of_single_photon():
    got = covariance_of_state(fock_ket((10,), (1,)))
    assert np.max(np.abs(got.gamma - 3.0 * np.eye(2))) < 1e-12
    assert np.max(np.abs(got.d)) < 1e-14


# ---------------------------------------------------------------- williamson


def test_williamson_reconstructs_and_is_symplectic():
    for n in (1, 2):
        for _ in range(5):
            gs = random_valid_state(n, nu_max=2.5)
            nu, S = williamson(gs.gamma)
            omega = symplectic_form(n)
            D = np.diag(np.repeat(nu, 2))
            assert np.max(np.abs(S @ D @ S.T - gs.gamma)) < 1e-10
            assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-10
            assert np.all(nu >= 1.0 - 1e-10)


def test_williamson_of_thermal_state():
    nu, S = williamson(np.diag([3.0, 3.0]))
    assert abs(nu[0] - 3.0) < 1e-12
    assert np.max(np.abs(S @ S.T - np.eye(2))) < 1e-12


def test_williamson_of_degenerate_spectra():
    """nu_1 = nu_2: the eigenvectors of one degenerate eigenvalue still give a
    symplectic S."""
    lossy = 0.7 * two_mode_squeezed(0.6).gamma + 0.3 * np.eye(4)
    a, c = lossy[0, 0], lossy[0, 2]
    for gamma, nu_expected in ((3.0 * np.eye(4), 3.0), (lossy, math.sqrt(a * a - c * c))):
        nu, S = williamson(gamma)
        omega = symplectic_form(2)
        assert np.max(np.abs(nu - nu_expected)) < 1e-12
        assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-12
        assert np.max(np.abs(S @ np.diag(np.repeat(nu, 2)) @ S.T - gamma)) < 1e-12


def test_gibbs_root_of_degenerate_thermal_state():
    """3 I on two modes: a product of geometric distributions with mean photon
    number (nu - 1)/2 = 1, truncated and renormalised."""
    d = 6
    K = _gibbs_root(GaussianState(3.0 * np.eye(4), np.zeros(4)), (d, d), np.arange(d * d)[None])[0]
    p = 0.5 ** np.arange(d)
    want = np.diag(np.outer(p, p).ravel() / np.sum(p) ** 2)
    assert np.max(np.abs(K @ K.conj().T - want)) < 1e-12


def test_gibbs_root_of_a_covariance_without_x_p_correlations_is_real():
    """Every real state has zero x-p covariance entries; then G, and so H,
    has none either, whatever rounding williamson's eigenvectors carry."""
    gamma = 0.7 * two_mode_squeezed(0.6).gamma + 0.3 * np.eye(4)
    K = _gibbs_root(GaussianState(gamma, np.zeros(4)), (8, 8), np.arange(64)[None])
    assert not np.any(K.imag)


def test_williamson_rejects_bad_input():
    with pytest.raises(ValueError):
        williamson(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        williamson(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------- Fock conversion


def test_to_fock_density_thermal_is_exact_geometric():
    rho = to_fock_density(GaussianState(3.0 * np.eye(2), np.zeros(2)), (12,))
    w = 0.5 ** np.arange(12)  # mean occupation 1 -> ratio 1/2
    w /= w.sum()
    assert np.max(np.abs(rho.matrix - np.diag(w))) < 1e-12


def test_to_fock_density_round_trips_moments():
    for _ in range(4):
        gs = random_valid_state(1)
        back = covariance_of_state(to_fock_density(gs, (16,)))
        assert np.max(np.abs(back.gamma - gs.gamma)) < 5e-4
        assert np.max(np.abs(back.d - gs.d)) < 5e-4


# ---------------------------------------------------------------- full-space oracle


def full_space_quadratures(dims):
    """[x_1, p_1, x_2, p_2, ...] as full-space matrices: each single-mode
    quadrature kron'd with identities on every other mode."""
    ops = []
    for m, d in enumerate(dims):
        a = destroy(d)
        x = (a + a.conj().T) / math.sqrt(2)
        p = -1j * (a - a.conj().T) / math.sqrt(2)
        left = np.eye(int(np.prod(dims[:m])), dtype=complex)
        right = np.eye(int(np.prod(dims[m + 1 :])), dtype=complex)
        ops.append(np.kron(np.kron(left, x), right))
        ops.append(np.kron(np.kron(left, p), right))
    return ops


def full_space_covariance(rho: np.ndarray, dims):
    """Moments from full-space products rho R_j and rho R_j R_k."""
    R = full_space_quadratures(dims)
    d = np.array([np.real(np.trace(rho @ r)) for r in R])
    gamma = np.array(
        [[2.0 * np.real(np.trace(rho @ Rj @ Rk)) - 2.0 * dj * dk for Rk, dk in zip(R, d)]
         for Rj, dj in zip(R, d)]
    )
    return gamma, d


def full_space_fock_density(gs: GaussianState, dims) -> np.ndarray:
    """Gibbs state of H = sum_jk G_jk R_j R_k / 2 built from full-space
    products on a basis padded by two levels per mode, then cut to dims."""
    nu, S = williamson(gs.gamma)
    nu = np.clip(nu, 1.0 + 1e-12, None)
    beta = np.log((nu + 1.0) / (nu - 1.0))
    S_inv = np.linalg.inv(S)
    G = S_inv.T @ np.diag(np.repeat(beta, 2)) @ S_inv
    padded = tuple(d + 2 for d in dims)
    R = full_space_quadratures(padded)
    H_pad = sum(0.5 * G[j, k] * (R[j] @ R[k]) for j in range(len(R)) for k in range(len(R)))
    cut = tuple(slice(0, d) for d in dims)
    size = int(np.prod(dims))
    H = H_pad.reshape(padded + padded)[cut + cut].reshape(size, size)
    w, V = np.linalg.eigh((H + H.conj().T) / 2)
    rho = (V * np.exp(-(w - w.min()))) @ V.conj().T
    rho /= np.real(np.trace(rho))
    U = np.eye(1)
    for m, d in enumerate(dims):
        U = np.kron(U, displacement_unitary(d, (gs.d[2 * m] + 1j * gs.d[2 * m + 1]) / math.sqrt(2)))
    return U @ rho @ U.conj().T


@pytest.mark.parametrize("dims", [(6,), (4, 4), (3, 5), (2, 3, 2)])
def test_covariance_matches_full_space_oracle(dims):
    rng = np.random.default_rng(sum(dims) * 100 + len(dims))
    size = int(np.prod(dims))
    for _ in range(3):
        A = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        rho = A @ A.conj().T
        rho /= np.real(np.trace(rho))
        got = covariance_of_state(DensityOperator(dims, rho))
        gamma, d = full_space_covariance(rho, dims)
        assert np.max(np.abs(got.gamma - gamma)) < 1e-13
        assert np.max(np.abs(got.d - d)) < 1e-13


@pytest.mark.parametrize("dims", [(6,), (4, 4), (3, 5), (2, 3, 2)])
def test_ket_covariance_matches_full_space_oracle_of_its_projector(dims):
    rng = np.random.default_rng(sum(dims) * 10 + len(dims))
    size = int(np.prod(dims))
    for _ in range(3):
        ket = PureState(dims, rng.normal(size=size) + 1j * rng.normal(size=size)).normalized()
        got = covariance_of_state(ket)
        gamma, d = full_space_covariance(np.outer(ket.amplitudes, ket.amplitudes.conj()), dims)
        assert np.max(np.abs(got.gamma - gamma)) < 1e-13
        assert np.max(np.abs(got.d - d)) < 1e-13


@pytest.mark.parametrize("dims", [(10,), (5, 7)])
def test_to_fock_density_matches_full_space_oracle(dims):
    rng = np.random.default_rng(len(dims))
    for displaced in (False, True):
        gs = random_valid_state(len(dims), rng=rng, displaced=displaced)
        got = to_fock_density(gs, dims).matrix
        assert np.max(np.abs(got - full_space_fock_density(gs, dims))) < 1e-13


# ---------------------------------------------------------------- per-call oracles


def _per_call_covariance(state) -> GaussianState:
    """`covariance_of_state` as it once was: one moment sum per piece, cross
    moments of every density state from `partial_trace`, gamma entry by entry."""
    dims = state.dims.dims
    if isinstance(state, PureState):
        psi = state.tensor_view()

        def reduced_t(m):
            M = np.moveaxis(psi, m, 0).reshape(psi.shape[m], -1)
            return M.conj() @ M.T

        def cross(m, m2, qa, qb):
            M = np.moveaxis(psi, (m, m2), (0, 1)).reshape(psi.shape[m], psi.shape[m2], -1)
            return np.einsum("ijr,aiI,bjJ,IJr->ab", M.conj(), qa, qb, M, optimize=True)

    else:

        def reduced_t(m):
            return partial_trace(state, [m]).matrix.T

        def cross(m, m2, qa, qb):
            r = partial_trace(state, [m, m2]).tensor_view()
            t = np.tensordot(qa, r, axes=([1, 2], [2, 0]))
            return np.tensordot(t, qb, axes=([1, 2], [2, 1]))

    def moment(rho_t, dm, js):
        return np.real(np.sum(rho_t * _quadrature_piece(dm, js)))

    n_q = 2 * len(dims)
    d, second = np.empty(n_q), np.empty((n_q, n_q))
    for m, dm in enumerate(dims):
        rho_t = reduced_t(m)
        x, p = 2 * m, 2 * m + 1
        d[x], d[p] = moment(rho_t, dm, (x,)), moment(rho_t, dm, (p,))
        for j, k in ((x, x), (x, p), (p, p)):
            second[j, k] = moment(rho_t, dm, (j, k))
        for m2 in range(m + 1, len(dims)):
            qa, qb = (np.stack([_quadrature_piece(dims[k], (j,)) for j in (0, 1)]) for k in (m, m2))
            second[2 * m : 2 * m + 2, 2 * m2 : 2 * m2 + 2] = np.real(cross(m, m2, qa, qb))
    gamma = np.empty((n_q, n_q))
    for j in range(n_q):
        for k in range(j, n_q):
            gamma[j, k] = gamma[k, j] = 2.0 * second[j, k] - 2.0 * d[j] * d[k]
    return GaussianState(gamma, d)


def _per_call_gibbs_root(gs, dims, rows):
    """`_gibbs_root` with every term of H built afresh in the call, as it once was."""
    nu, S = williamson(gs.gamma)
    nu = np.clip(nu, 1.0 + 1e-12, None)
    beta = np.log((nu + 1.0) / (nu - 1.0))
    S_inv = np.linalg.inv(S)
    G = S_inv.T @ np.diag(np.repeat(beta, 2)) @ S_inv
    G[np.abs(G) < 1e-14 * np.abs(G).max()] = 0.0
    kets = np.unravel_index(rows[:, :, None], dims)
    bras = np.unravel_index(rows[:, None, :], dims)
    H = 0
    for j, k in zip(*np.nonzero(G)):
        pieces = (_quadrature_piece(d, tuple(q for q in (j, k) if q // 2 == m), pad=2)
                  for m, d in enumerate(dims))
        entries = functools.reduce(np.multiply, (p[i, i2] for p, i, i2 in zip(pieces, kets, bras)))
        H = H + 0.5 * G[j, k] * entries
    w, v = np.linalg.eigh((H + H.conj().swapaxes(1, 2)) / 2)
    amps = np.exp(-(w - w.min()) / 2)
    K = v * (amps / np.linalg.norm(amps))[:, None, :]
    if np.any(gs.d):
        alphas = (gs.d[0::2] + 1j * gs.d[1::2]) / math.sqrt(2)
        K = (tensor(*map(displacement_unitary, dims, alphas)) @ K[0])[None]
    return K


def _bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", [(7,), (5, 5), (3, 4), (2, 3, 2)])
def test_covariance_of_state_is_bitwise_the_partial_trace_formula(dims):
    rng = np.random.default_rng(len(dims) * 10 + dims[0])
    size = int(np.prod(dims))
    states = []
    for _ in range(3):
        ket = PureState(dims, rng.normal(size=size) + 1j * rng.normal(size=size)).normalized()
        A = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        states += [ket, ket.to_density(), DensityOperator(dims, A @ A.conj().T / np.trace(A @ A.conj().T))]
    if dims == (5, 5):  # a sector iterate, the state the metrics see most
        states.append(one_step(two_mode_squeezed_ket(0.6, 5).to_density(), OnOff(0.7)).conditional_state)
    for state in states:
        got, oracle = covariance_of_state(state), _per_call_covariance(state)
        assert _bitwise_equal(got.gamma, oracle.gamma) and _bitwise_equal(got.d, oracle.d)


def test_gibbs_root_is_bitwise_the_per_call_term_loop():
    rng = np.random.default_rng(23)
    cases = []
    for d in range(2, 13):  # a sector state's d blocks, squeezed and lossy
        rows = _sector_rows(d, False)
        cases.append((random_valid_state(2, rng=rng, displaced=False), (d, d), rows))
        cases.append((two_mode_squeezed(0.3 + 0.02 * d), (d, d), rows))
    cases.append((random_valid_state(1, rng=rng, displaced=False), (12,), np.arange(12)[None]))
    cases.append((random_valid_state(1, rng=rng, displaced=True), (12,), np.arange(12)[None]))
    cases.append((random_valid_state(2, rng=rng, displaced=True), (4, 5), np.arange(20)[None]))
    for _ in range(2):  # the second pass reads every term from the cache
        for gs, dims, rows in cases:
            assert _bitwise_equal(_gibbs_root(gs, dims, rows), _per_call_gibbs_root(gs, dims, rows))


def test_hamiltonian_terms_are_read_only_and_kept_only_when_small():
    rows = _sector_rows(6, False)
    terms = gaussian._hamiltonian_terms((6, 6), rows)
    assert terms is gaussian._hamiltonian_terms((6, 6), rows.copy())
    assert terms is not gaussian._hamiltonian_terms((6, 6), _sector_rows(6, True))
    term = terms[0, 2]
    assert term is terms[0, 2] and not term.flags.writeable and term.shape == (6, 6, 6)
    # every cutoff 6 ... 12 of a run stays held together
    held = [gaussian._hamiltonian_terms((d, d), _sector_rows(d, False)) for d in (6, 8, 10, 12)]
    assert all(t is gaussian._hamiltonian_terms((d, d), _sector_rows(d, False))
               for t, d in zip(held, (6, 8, 10, 12)))
    # a whole-space table of a large state is built per call and never kept
    whole = np.arange(400)[None]
    assert gaussian._hamiltonian_terms((20, 20), whole) is not gaussian._hamiltonian_terms((20, 20), whole)


def test_to_fock_density_rejects_unphysical_moments():
    with pytest.raises(ValueError):
        to_fock_density(GaussianState(0.5 * np.eye(2), np.zeros(2)), (10,))


# ---------------------------------------------------------------- equivalences


def test_eight_port_scheme_equals_direct_vacuum_conditioning():
    # ancilla vacuum + heterodyne splitter + x-homodyne on both outputs
    # reproduces the vacuum-projection Schur update of the remaining system
    worst_gamma, worst_d = 0.0, 0.0
    for _ in range(50):
        gs = random_valid_state(2)
        direct = vacuum_condition(gs, 0)
        gamma = np.zeros((6, 6))
        gamma[:2, :2] = np.eye(2)
        gamma[2:, 2:] = gs.gamma
        tri = GaussianState(gamma, np.concatenate([[0.0, 0.0], gs.d]))
        tri = apply_symplectic(tri, eight_port_symplectic(1))
        tri = homodyne_condition(tri, 0, "x")
        tri = homodyne_condition(tri, 0, "x")
        worst_gamma = max(worst_gamma, float(np.max(np.abs(tri.gamma - direct.gamma))))
        worst_d = max(worst_d, float(np.max(np.abs(tri.d - direct.d))))
    assert worst_gamma < 1e-10
    # zero-centered acceptance leaves no displacement discrepancy either
    assert worst_d < 1e-10


def _chained_step_covariance(gs):
    """One ideal step through the symplectic chain: both copies, each party's
    balanced splitter, then vacuum projection of B2 and of A2."""
    gamma = np.zeros((8, 8))
    gamma[:4, :4] = gamma[4:, 4:] = gs.gamma
    order = [0, 1, 4, 5, 2, 3, 6, 7]  # modes (A1, B1, A2, B2) -> (A1, A2, B1, B2)
    both = GaussianState(gamma[np.ix_(order, order)], np.concatenate([gs.d, gs.d])[order])
    S = np.eye(8)
    S[0:4, 0:4] = S[4:8, 4:8] = beamsplitter_symplectic(0.5).S
    return vacuum_condition(vacuum_condition(apply_symplectic(both, S), 3), 1)


def test_ideal_step_covariance_closed_form_matches_the_symplectic_chain():
    # the kept pair is the difference of two identical independent copies: it
    # keeps gamma, has zero mean and is uncorrelated with the measured pair
    rng = np.random.default_rng(7)
    omega = symplectic_form(2)
    for _ in range(200):
        A = rng.normal(size=(4, 4), scale=0.4)
        S = expm(omega @ (A + A.T))
        gamma = S @ np.diag(np.repeat(rng.uniform(1.0, 3.0, size=2), 2)) @ S.T
        gs = GaussianState(gamma, rng.normal(size=4))
        closed, chain = ideal_step_covariance(gs), _chained_step_covariance(gs)
        assert np.array_equal(closed.gamma, gs.gamma) and not closed.d.any()
        assert np.max(np.abs(closed.gamma - chain.gamma)) <= 1e-15 * np.max(np.abs(gamma))
        assert np.max(np.abs(chain.d)) <= 1e-14 * np.max(np.abs(gs.d))
    with pytest.raises(ValueError):
        ideal_step_covariance(GaussianState(np.eye(2), np.zeros(2)))


def test_fock_pipeline_matches_covariance_prediction():
    predicted = ideal_step_covariance(two_mode_squeezed(0.4))
    for d, tol in ((12, 1e-3), (14, 1e-4)):
        out = one_step(two_mode_squeezed_ket(0.4, d), IdealVacuum())
        got = covariance_of_state(out.conditional_state)
        assert np.max(np.abs(got.gamma - predicted.gamma)) < tol
        assert np.max(np.abs(got.d - predicted.d)) < tol


@settings(max_examples=8, deadline=None)
@given(r=st.floats(0.0, 0.6), d=st.integers(12, 16))
def test_ideal_step_matches_covariance_prediction_over_r(r, d):
    # the Fock step differs from the Gaussian prediction only through the
    # truncated tail of the input, whose weight falls as tanh(r)^(2d)
    predicted = ideal_step_covariance(two_mode_squeezed(r))
    out = one_step(two_mode_squeezed_ket(r, d), IdealVacuum())
    got = covariance_of_state(out.conditional_state)
    bound = 1e3 * math.tanh(r) ** (2 * d) + 1e-13
    assert np.max(np.abs(got.gamma - predicted.gamma)) < bound
    assert np.max(np.abs(got.d - predicted.d)) < bound
