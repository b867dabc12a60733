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
from gaussify.fock import destroy
from gaussify.measurements import vacuum_effect

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


@pytest.mark.parametrize("dims", [(10,), (5, 7)])
def test_to_fock_density_matches_full_space_oracle(dims):
    rng = np.random.default_rng(len(dims))
    for displaced in (False, True):
        gs = random_valid_state(len(dims), rng=rng, displaced=displaced)
        got = to_fock_density(gs, dims).matrix
        assert np.max(np.abs(got - full_space_fock_density(gs, dims))) < 1e-13


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
