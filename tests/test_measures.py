import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gaussify import fock, measures

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
    assert abs(fidelity(psi.to_density(), phi.to_density()) - f) < 1e-12


def random_two_mode_mixed(d, rank, rng):
    weights = rng.dirichlet(np.ones(rank))
    kets = [random_two_mode_pure(d, rng).amplitudes for _ in range(rank)]
    return DensityOperator((d, d), sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets)))


def test_fidelity_is_symmetric_on_low_rank_mixed_pairs():
    rng = np.random.default_rng(12)
    for rank_a, rank_b in [(1, 2), (2, 3), (3, 3), (2, 5)]:
        a, b = random_two_mode_mixed(3, rank_a, rng), random_two_mode_mixed(3, rank_b, rng)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12


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


def test_laguerre_recurrence_matches_scipy():
    """L_n^k(u) for n, k <= 30 on u in [0, 64] (|beta|^2 on a -4:4 grid), to
    1e-13 of the largest |L_n^k| on the axis: the recurrence is forward-stable,
    so its error stays a rounding of the polynomial's own scale."""
    from scipy.special import eval_genlaguerre

    u = np.linspace(0.0, 64.0, 257)
    for k in range(31):
        for n, lag in zip(range(31), measures._laguerre(k, u)):
            ref = eval_genlaguerre(n, k, u)
            assert np.max(np.abs(lag - ref)) <= 1e-13 * np.max(np.abs(ref)), (n, k)


def _wigner_scipy_oracle(rho, xs, ps):
    """The Wigner sum with scipy's Laguerre polynomials and log-factorials,
    one eval_genlaguerre call per non-zero pair m >= n of h = (rho + rho+)/2."""
    from scipy.special import eval_genlaguerre, gammaln

    X, P = np.meshgrid(xs, ps, indexing="ij")
    beta = np.sqrt(2.0) * (X + 1j * P)
    u = np.abs(beta) ** 2
    h = (rho + rho.conj().T) / 2
    logf = gammaln(np.arange(1, len(h) + 1, dtype=float))
    w = np.zeros(u.shape)
    for n, m in zip(*np.nonzero(np.triu(h))):
        pref = (1 + (m > n)) * (-1) ** n * math.exp(0.5 * (logf[n] - logf[m]))
        lag = eval_genlaguerre(n, m - n, u)
        w += np.real(h[n, m] * (pref * beta ** (m - n) * np.exp(-u / 2) * lag))
    return w / math.pi


@pytest.mark.parametrize("d", [6, 12, 20])
def test_wigner_matches_the_scipy_laguerre_oracle(d):
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    complex_h = (g + g.conj().T) / 2
    for h in (complex_h, complex_h.real.astype(complex)):  # real states take the real path
        grid = wigner(DensityOperator((d,), h), (-4, 4), (-4, 4), 101)
        oracle = _wigner_scipy_oracle(h, grid.xs, grid.ps)
        assert np.max(np.abs(grid.values - oracle)) <= 1e-12


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


def _mpmath_gaussianity(rho, sigma):
    """1 - (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 at 40 digits for real rho.

    sqrt(rho) comes from the blocks of rho's exact non-zero pattern (the
    n_A - n_B sectors, or the parity classes of one mode), so only the last
    eigensolve is dense. sigma's imaginary part, at rounding level, enters F
    only at second order, since it is antisymmetric and the first-order
    response to it is a trace against a real symmetric matrix.
    """
    from mpmath import mp
    from scipy.sparse.csgraph import connected_components

    assert not rho.imag.any() and np.max(np.abs(sigma.imag)) < 1e-15
    n_blocks, labels = connected_components(rho != 0, directed=False)
    with mp.workdps(40):
        sqrt_rho = mp.zeros(len(rho), len(rho))
        for b in range(n_blocks):
            idx = np.flatnonzero(labels == b)
            block = mp.matrix(((rho.real + rho.real.T) / 2)[np.ix_(idx, idx)].tolist())
            E, Q = mp.eigsy(block)
            root = Q * mp.diag([mp.sqrt(max(e, 0)) for e in E]) * Q.T
            for a, i in enumerate(idx):
                for c, j in enumerate(idx):
                    sqrt_rho[i, j] = root[a, c]
        sig = mp.matrix(sigma.real.tolist())
        inner = sqrt_rho * ((sig + sig.T) / 2) * sqrt_rho
        evals = mp.eigsy((inner + inner.T) / 2, eigvals_only=True)
        return float(1 - mp.fsum(mp.sqrt(max(e, 0)) for e in evals) ** 2)


@pytest.fixture(scope="module")
def onoff_traces():
    onoff = OnOff(0.6)
    return {
        "two-mode d=6": run(ProtocolConfig(steps=10, truncation=6, max_truncation=6, detector=onoff)),
        "single-mode": run(ProtocolConfig(steps=10, mode_count=1, detector=onoff)),
    }


@pytest.mark.parametrize(
    "name,step",
    [("two-mode d=6", k) for k in (1, 4, 7, 10)] + [("single-mode", k) for k in (4, 7, 10)],
)
def test_gaussianity_matches_a_40_digit_uhlmann_fidelity(onoff_traces, name, step):
    """Against the exact fidelity of the same double rho and sigma. The rank-4
    step-1 state is the hard case: square-rooting each of its rounding-level
    eigenvalues would add ~3e-9 to sqrt(F)."""
    rho = onoff_traces[name].records[step].state
    assert isinstance(rho, DensityOperator)
    sigma = to_fock_density(covariance_of_state(rho), rho.dims).matrix
    want = _mpmath_gaussianity(rho.matrix, sigma)
    assert abs(gaussianity_distance(rho) - want) <= 1e-9 * want


def test_gaussianity_is_insensitive_to_rounding_of_the_state():
    """A one-ulp rescaling or a 1e-16 Hermitian perturbation of each iterate of
    the README's on/off run moves its distance by <= 1e-10 relative."""
    rng = np.random.default_rng(5)
    trace = run(ProtocolConfig(steps=10, detector=OnOff(0.6)))
    for record in trace.records[1:]:
        rho = record.state
        base = gaussianity_distance(rho)
        x = rng.normal(size=rho.matrix.shape) + 1j * rng.normal(size=rho.matrix.shape)
        scaled = rho.matrix * (1 + np.finfo(float).eps)
        perturbed = rho.matrix + 1e-16 * (x + x.conj().T) / 2
        for moved in (scaled, perturbed):
            assert abs(gaussianity_distance(DensityOperator(rho.dims, moved)) - base) <= 1e-10 * base


def test_distillation_reduces_two_mode_gaussianity_distance():
    cfg = ProtocolConfig(steps=4, epsilon=0.95, truncation=6)
    trace = run(cfg)
    g = [r.gaussianity for r in trace.records]
    assert all(b < a for a, b in zip(g, g[1:]))


# ---------------------------------------------------------------- sector blocks


def _sector_state(d, pure, rng):
    """A random two-mode state of cutoff d commuting with n_A - n_B: a ket on one
    sector, or a full-rank density matrix block-diagonal in i - j."""
    i, j = np.divmod(np.arange(d * d), d)
    if pure:
        rows = np.flatnonzero(i - j == rng.integers(1 - d, d))
        amps = np.zeros(d * d, dtype=complex)
        amps[rows] = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
        return PureState((d, d), amps).normalized()
    m = np.zeros((d * d, d * d), dtype=complex)
    for k in range(1 - d, d):
        rows = np.flatnonzero(i - j == k)
        g = rng.normal(size=(rows.size, rows.size)) + 1j * rng.normal(size=(rows.size, rows.size))
        m[np.ix_(rows, rows)] = g @ g.conj().T
    return DensityOperator((d, d), m / np.trace(m).real)


def _one_block(*states, total=False):
    return np.arange(states[0].dims.size)[None]


def _value_or_error(metric, state, one_block=False):
    """The metric, or the message of the ValueError it raises; with one_block,
    evaluated on the one-block partition, the dense computation."""
    with mock.patch.object(measures, "_partition", _one_block if one_block else fock._partition):
        try:
            return metric(state)
        except ValueError as exc:
            return str(exc)


def _assert_blocks_match_one_block(state):
    d = state.dims.dims[0]
    assert fock._partition(state).shape == (d, d)
    for metric in (logarithmic_negativity, gaussianity_distance):
        blocks, dense = _value_or_error(metric, state), _value_or_error(metric, state, True)
        if isinstance(dense, str):
            assert blocks == dense
        else:
            assert abs(blocks - dense) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), pure=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_metrics_match_the_one_block_evaluation(d, pure, seed):
    _assert_blocks_match_one_block(_sector_state(d, pure, np.random.default_rng(seed)))


def test_block_gaussianity_raises_where_the_one_block_evaluation_does():
    """The README's ideal run at cutoff 6 leaks enough that its late kets have
    moments below the uncertainty bound: both evaluations reject them alike."""
    trace = run(ProtocolConfig(steps=10, epsilon=0.95, truncation=6))
    raised = [r.step for r in trace.records if math.isnan(r.gaussianity)]
    assert raised and raised[-1] == 10
    for record in trace.records:
        _assert_blocks_match_one_block(record.state)


def test_number_states_and_thermal_products_have_exactly_zero_block_negativity():
    d = 6
    weights = 0.4 ** np.arange(d)
    thermal = DensityOperator((d,), np.diag(weights / weights.sum()).astype(complex))
    states = [fock_ket((d, d), (n, m)) for n, m in ((0, 0), (2, 3), (5, 1))]
    states += [s.to_density() for s in states] + [tensor(thermal, thermal)]
    for state in states:
        assert fock._partition(state, total=True).shape == (d, d)
        assert logarithmic_negativity(state) == 0.0


def test_one_off_sector_entry_takes_the_one_block_partition():
    d = 5
    rho = _sector_state(d, False, np.random.default_rng(2))
    nearly = rho.matrix.copy()
    nearly[1, 2] = nearly[2, 1] = 1e-300  # |0,1><0,2| is off-sector
    nearly = DensityOperator((d, d), nearly)
    assert fock._partition(nearly).shape == fock._partition(nearly, total=True).shape == (1, d * d)
    for metric in (logarithmic_negativity, gaussianity_distance):
        assert abs(metric(nearly) - metric(rho)) <= 1e-12


def test_a_ket_is_partitioned_on_its_amplitudes_as_its_projector_is():
    d = 5
    off_sector = np.zeros(d * d, dtype=complex)
    off_sector[[0, d + 1, 2]] = (1.0, 0.5, 1e-300)  # |0,0>, |1,1> and the off-sector |0,2>
    kets = [two_mode_squeezed_ket(0.4, d), fock_ket((d, d), (3, 1)),
            PureState((d, d), np.zeros(d * d)), PureState((d, d), off_sector)]
    kets += [_sector_state(d, True, np.random.default_rng(seed)) for seed in range(5)]
    for ket in kets:
        for total in (False, True):
            shapes = [fock._partition(s, total=total).shape for s in (ket, ket.to_density())]
            assert shapes[0] == shapes[1] == ((1, d * d) if ket is kets[3] else (d, d))


def test_ket_gaussianity_holds_less_than_one_projector():
    """At d = 40 a ket's projector is D^2 x 16 B = 41 MB; neither the sector
    test nor the moments form it."""
    import tracemalloc

    d = 40
    ket = two_mode_squeezed_ket(0.5, d)
    tracemalloc.start()
    try:
        distance = gaussianity_distance(ket)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= distance < 1e-8
    assert peak < (d * d) ** 2 * 16


def test_ket_log_negativity_holds_less_than_one_projector():
    """E_N of a ket is read from its amplitudes: the partial transpose's blocks
    are psi[a, b2] conj(psi[a2, b]), so its D^2 x 16 B = 41 MB projector at
    d = 40 is never formed; the value is its projector's."""
    import tracemalloc

    d = 40
    ket = two_mode_squeezed_ket(0.5, d)
    tracemalloc.start()
    try:
        value = logarithmic_negativity(ket)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - logarithmic_negativity(ket.to_density())) <= 1e-12
    assert peak < (d * d) ** 2 * 16

def test_unequal_cutoffs_take_the_one_block_partition():
    rho = _sector_state(4, False, np.random.default_rng(4))
    wider = fock.pad(rho, (4, 5))
    assert fock._partition(wider).shape == fock._partition(wider, total=True).shape == (1, 20)
    assert abs(logarithmic_negativity(wider) - logarithmic_negativity(rho)) <= 1e-12
