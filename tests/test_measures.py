import math

import numpy as np
import pytest

from gaussify import (
    DensityOperator,
    covariance_of_state,
    IdealVacuum,
    OnOff,
    ProtocolConfig,
    PureState,
    coherent_ket,
    displacement_unitary,
    fidelity,
    fock_ket,
    gaussianity_distance,
    logarithmic_negativity,
    one_step,
    prepare_epsilon_state,
    purity,
    run,
    squeezer_unitary,
    tensor,
    to_fock_density,
    two_mode_squeezed_ket,
    vacuum,
    wigner,
)

RNG = np.random.default_rng(9)


def random_two_mode_pure(d, rng=RNG):
    v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    return PureState((d, d), v).normalized()


# ---------------------------------------------------------------- log-negativity


def test_product_state_has_zero_negativity():
    psi = tensor(coherent_ket(6, 0.4).normalized(), fock_ket((6,), (1,)))
    assert logarithmic_negativity(psi) == 0.0


def test_epsilon_family_negativity_formula():
    for eps in (0.3, 0.95, 1.0):
        psi = prepare_epsilon_state(eps, 5)
        expected = math.log2((1 + eps) ** 2 / (1 + eps**2))
        assert abs(logarithmic_negativity(psi) - expected) < 1e-12
    bell = prepare_epsilon_state(1.0, 5)
    assert abs(logarithmic_negativity(bell) - 1.0) < 1e-12


def test_small_epsilon_negativity_keeps_full_precision():
    # log2((1 + eps)^2 / (1 + eps^2)) = log2(1 + 2 eps / (1 + eps^2)); the
    # log1p form keeps the reference itself accurate to rounding at small eps
    for eps in (1e-6, 1e-4):
        psi = prepare_epsilon_state(eps, 5)
        expected = math.log1p(2 * eps / (1 + eps**2)) / math.log(2)
        assert abs(logarithmic_negativity(psi) - expected) < 1e-12 * expected


def test_negativity_invariant_under_local_unitaries():
    psi = random_two_mode_pure(5)
    base = logarithmic_negativity(psi)
    for _ in range(5):
        phases_a = np.exp(1j * RNG.uniform(0, 2 * math.pi, 5))
        phases_b = np.exp(1j * RNG.uniform(0, 2 * math.pi, 5))
        local = np.kron(np.diag(phases_a), np.diag(phases_b))
        rotated = PureState((5, 5), local @ psi.amplitudes)
        assert abs(logarithmic_negativity(rotated) - base) < 1e-10
    s_local = np.kron(squeezer_unitary(5, 0.2), np.eye(5))
    rotated = PureState((5, 5), s_local @ psi.amplitudes).normalized()
    # truncation makes local squeezing only approximately unitary
    assert abs(logarithmic_negativity(rotated) - base) < 5e-2


def test_pure_state_negativity_equals_schmidt_formula():
    for _ in range(5):
        psi = random_two_mode_pure(4)
        schmidt = np.linalg.svd(psi.amplitudes.reshape(4, 4), compute_uv=False)
        expected = 2.0 * math.log2(np.sum(schmidt))
        assert abs(logarithmic_negativity(psi) - expected) < 1e-10


def test_negativity_requires_two_modes():
    with pytest.raises(ValueError):
        logarithmic_negativity(vacuum((4,)))


# ---------------------------------------------------------------- purity


def test_pure_states_have_unit_purity():
    assert abs(purity(random_two_mode_pure(4)) - 1.0) < 1e-12


def test_equal_mixture_purity():
    rho = DensityOperator((2,), np.diag([0.5, 0.5]))
    assert abs(purity(rho) - 0.5) < 1e-14


def test_purity_of_lossy_step_output_matches_dense_oracle():
    psi = prepare_epsilon_state(0.95, 5)
    out = one_step(psi, OnOff(0.5))
    w = np.linalg.eigvalsh(out.conditional_state.matrix)
    assert abs(purity(out.conditional_state) - float(np.sum(w**2))) < 1e-12
    assert purity(out.conditional_state) < 1.0 - 1e-3  # lossy detection mixes


def test_unit_purity_coincides_with_unit_top_eigenvalue():
    pure = random_two_mode_pure(3).to_density()
    mixed = one_step(prepare_epsilon_state(0.95, 4), OnOff(0.3)).conditional_state
    for rho in (pure, mixed):
        top = float(np.linalg.eigvalsh(rho.matrix).max())
        assert (abs(purity(rho) - 1.0) < 1e-10) == (abs(top - 1.0) < 1e-10)


# ---------------------------------------------------------------- fidelity


def test_fidelity_basics():
    psi = random_two_mode_pure(3)
    phi = random_two_mode_pure(3)
    assert abs(fidelity(psi, psi) - 1.0) < 1e-12
    f = fidelity(psi, phi)
    assert abs(f - abs(psi.overlap(phi)) ** 2) < 1e-12
    assert abs(fidelity(psi, phi.to_density()) - f) < 1e-10
    # rank-deficient inputs limit the eigendecomposition route to ~sqrt(eps)
    assert abs(fidelity(psi.to_density(), phi.to_density()) - f) < 1e-6


# ---------------------------------------------------------------- wigner


def test_wigner_of_vacuum_is_isotropic_gaussian():
    grid = wigner(vacuum(10), (-3, 3), (-3, 3), 61)
    X, P = np.meshgrid(grid.xs, grid.ps, indexing="ij")
    assert np.max(np.abs(grid.values - np.exp(-(X**2) - P**2) / math.pi)) < 1e-6
    mid = 30
    assert abs(grid.values[mid, mid] - 1.0 / math.pi) < 1e-14
    assert abs(grid.integral() - 1.0) < 1e-3


def test_wigner_of_single_photon_dips_negative():
    grid = wigner(fock_ket((12,), (1,)), (-3.5, 3.5), (-3.5, 3.5), 71)
    X, P = np.meshgrid(grid.xs, grid.ps, indexing="ij")
    closed_form = (2 * (X**2 + P**2) - 1) * np.exp(-(X**2) - P**2) / math.pi
    assert np.max(np.abs(grid.values - closed_form)) < 1e-12
    assert abs(grid.minimum() + 1.0 / math.pi) < 1e-12
    assert abs(grid.integral() - 1.0) < 1e-3


def test_wigner_of_coherent_state_is_a_displaced_gaussian():
    # off-diagonal pairs fix the orientation of p and the sign of each partner
    alpha = 0.7 + 0.3j
    grid = wigner(coherent_ket(30, alpha).normalized(), (-3, 3), (-3, 3), 61)
    X, P = np.meshgrid(grid.xs, grid.ps, indexing="ij")
    x0, p0 = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag
    closed_form = np.exp(-((X - x0) ** 2) - (P - p0) ** 2) / math.pi
    assert np.max(np.abs(grid.values - closed_form)) < 1e-12


def _displaced_parity_oracle(rho, xs, ps):
    """W = (1/pi) sum_n (-1)^n (rho D(beta))_nn, D from the generator at a wide cutoff."""
    d = len(rho)
    signs = (-1.0) ** np.arange(d)
    out = np.empty((len(xs), len(ps)))
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            D = displacement_unitary(120, math.sqrt(2) * complex(x, p))[:d, :d]
            out[i, j] = np.real(np.sum(signs * np.diag(rho @ D))) / math.pi
    return out


def test_wigner_matches_displaced_parity_oracle_on_dense_and_sparse_states():
    rng = np.random.default_rng(17)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dense = g @ g.conj().T
    dense = DensityOperator((8,), dense / np.trace(dense).real)
    sparse = run(ProtocolConfig(steps=2, epsilon=0.95, mode_count=1)).records[2].state
    sparse_rho = sparse.to_density().matrix
    d = len(sparse_rho)
    # the parity-sparse iterate leaves most lower-triangle pairs at exactly zero
    assert 0 < np.count_nonzero(np.tril(sparse_rho)) < d * (d + 1) // 4
    for state, rho in ((dense, dense.matrix), (sparse, sparse_rho)):
        grid = wigner(state, (-2, 2), (-2, 2), 9)
        oracle = _displaced_parity_oracle(rho, grid.xs, grid.ps)
        assert np.max(np.abs(grid.values - oracle)) < 1e-12


def test_wigner_rejects_coarse_grids():
    with pytest.raises(ValueError):
        wigner(vacuum(8), (-3, 3), (-3, 3), 1)
    with pytest.raises(ValueError):
        wigner(vacuum(8), (-30, 30), (-30, 30), 10)


def test_wigner_requires_single_mode():
    with pytest.raises(ValueError):
        wigner(vacuum((4, 4)), (-2, 2), (-2, 2), 21)


def test_single_mode_iteration_flattens_wigner_negativity():
    cfg = ProtocolConfig(steps=2, epsilon=0.95, mode_count=1)
    trace = run(cfg)
    states = [r.state for r in trace.records]
    minima = [wigner(state, (-4, 4), (-4, 4), 161).minimum() for state in states]
    # the first step briefly deepens the dip before the iteration drives the
    # function toward a positive Gaussian
    assert minima[2] > minima[1]
    assert minima[2] > minima[0]
    assert abs(minima[0] - (-0.1036)) < 2e-3
    assert abs(minima[1] - (-0.1050)) < 2e-3
    assert abs(minima[2] - (-0.0681)) < 2e-3


# ---------------------------------------------------------------- gaussianity


def test_gaussian_inputs_have_negligible_distance():
    sq = PureState((16,), squeezer_unitary(16, 0.35)[:, 0]).normalized()
    assert gaussianity_distance(sq) < 1e-4
    assert gaussianity_distance(two_mode_squeezed_ket(0.3, 12)) < 1e-4
    assert gaussianity_distance(coherent_ket(18, 0.7 + 0.3j).normalized()) < 1e-4


def test_single_photon_distance_matches_thermal_oracle():
    d = 10
    dist = gaussianity_distance(fock_ket((d,), (1,)))
    assert dist > 0.1
    # the moment-matched Gaussian is the mean-occupation-one thermal state
    p1 = 0.25 / (1.0 - 2.0**-d)
    assert abs(dist - (1.0 - p1)) < 1e-10


def test_pure_state_distance_is_one_minus_the_exact_overlap():
    """For a pure iterate the distance is 1 - <psi|sigma|psi>, sigma being the
    moment-matched Gaussian, with no square root of sigma's rounding noise."""
    from mpmath import mp

    psi = run(ProtocolConfig(steps=2, epsilon=0.95, truncation=6)).records[2].state
    assert isinstance(psi, PureState) and psi.n_modes == 2
    sigma = to_fock_density(covariance_of_state(psi), psi.dims).matrix
    amps = psi.amplitudes
    with mp.workdps(40):
        overlap = mp.fsum(
            mp.mpc(amps[i]).conjugate() * mp.mpc(sigma[i, j]) * mp.mpc(amps[j])
            for i in range(amps.size) for j in range(amps.size)
        )
        want = float(1 - overlap.real)
    assert abs(gaussianity_distance(psi) - want) <= 1e-12 * want


def test_distillation_reduces_two_mode_gaussianity_distance():
    cfg = ProtocolConfig(steps=4, epsilon=0.95, truncation=6)
    trace = run(cfg)
    g = [r.gaussianity for r in trace.records]
    assert all(b < a for a, b in zip(g, g[1:]))
