import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussify import (
    DensityOperator,
    HomodyneFilter,
    IdealVacuum,
    OnOff,
    ProtocolConfig,
    PureState,
    RareOutcomeError,
    apply_unitary,
    beamsplitter_unitary,
    condition_on,
    covariance_of_state,
    fock_ket,
    gaussianity_distance,
    homodyne_step,
    logarithmic_negativity,
    one_step,
    one_step_single_mode,
    pad,
    prepare_epsilon_state,
    prepare_photon_subtracted,
    prepare_single_mode_state,
    run,
    squeezer_unitary,
    success_effect,
    tensor,
    two_mode_squeezed_ket,
    vacuum,
    vacuum_effect,
)
from gaussify import fock, protocol
from gaussify.measurements import success_diagonal
from test_fock import reference_beamsplitter

RNG = np.random.default_rng(77)


def trace_distance(a, b):
    am = a.matrix if isinstance(a, DensityOperator) else a.to_density().matrix
    bm = b.matrix if isinstance(b, DensityOperator) else b.to_density().matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(am - bm))))


def as_matrix(state):
    return state.matrix if isinstance(state, DensityOperator) else state.to_density().matrix


# ------------------------------------------------------------ preparations


def test_epsilon_state_limits():
    psi = prepare_epsilon_state(0.0, 4)
    assert np.allclose(psi.amplitudes, vacuum((4, 4)).amplitudes)
    psi = prepare_epsilon_state(1.0, 4)
    fd = psi.dims
    assert abs(psi.amplitudes[fd.flat_index((0, 0))] - 1 / math.sqrt(2)) < 1e-14
    assert abs(psi.amplitudes[fd.flat_index((1, 1))] - 1 / math.sqrt(2)) < 1e-14


def test_epsilon_state_log_negativity_formula():
    eps = 0.95
    psi = prepare_epsilon_state(eps, 6)
    expected = math.log2((1 + eps) ** 2 / (1 + eps**2))
    assert abs(logarithmic_negativity(psi) - expected) < 1e-12


def test_single_mode_preparation():
    psi = prepare_single_mode_state(0.95, 6)
    assert abs(psi.norm() - 1.0) < 1e-14
    assert abs(psi.amplitudes[1] / psi.amplitudes[0] - 0.95) < 1e-14


# ------------------------------------------------------------ photon subtraction


def test_photon_subtraction_validates_inputs():
    with pytest.raises(ValueError):
        prepare_photon_subtracted(0.0, 0.9, 6)
    with pytest.raises(ValueError):
        prepare_photon_subtracted(0.4, 1.0, 6)


def test_photon_subtraction_click_probability_vanishes_with_squeezing():
    probs = [prepare_photon_subtracted(r, 0.9, 6).probability for r in (0.3, 0.15, 0.075)]
    assert all(b < a for a, b in zip(probs, probs[1:]))
    # leading behaviour ~ tanh(r)^2: halving r divides the rate by ~4
    ratios = [a / b for a, b in zip(probs, probs[1:])]
    assert all(3.5 < r < 5.0 for r in ratios)
    with pytest.raises(RareOutcomeError):
        prepare_photon_subtracted(1e-6, 0.9, 6)


def test_photon_subtraction_approaches_two_photon_subtracted_state():
    # weak-tap limit: conditioned state -> a b |tmsv> normalized, which keeps
    # a nonzero vacuum population |<0,0|ab|tmsv>|^2 ~ tanh(r)^2-weighted
    r, d = 0.5, 8
    from gaussify.fock import destroy

    tmsv = two_mode_squeezed_ket(r, d)
    ab = np.kron(destroy(d), destroy(d))
    target = PureState((d, d), ab @ tmsv.amplitudes).normalized()
    tds = []
    for t in (0.99, 0.999):
        out = prepare_photon_subtracted(r, t, d)
        tds.append(trace_distance(out.conditional_state, target))
    assert tds[1] < tds[0]
    assert 8.0 < tds[0] / tds[1] < 12.0  # first order in the tap reflectivity
    assert tds[1] < 2e-3
    vac_pop = abs(target.amplitudes[0]) ** 2
    out = prepare_photon_subtracted(r, 0.999, d)
    assert vac_pop > 0.3
    assert abs(out.conditional_state.matrix[0, 0].real - vac_pop) < 5e-3


def _two_tap_conditioning(r, t, d):
    """Photon subtraction composed explicitly: both taps on the four-mode state,
    then condition_on each tap's click effect in turn."""
    full = tensor(two_mode_squeezed_ket(r, d), vacuum(d), vacuum(d))  # (A, B, tapA, tapB)
    U = beamsplitter_unitary(d, transmissivity=t)
    full = apply_unitary(apply_unitary(full, U, (0, 2)), U, (1, 3))
    click = np.eye(d) - vacuum_effect(d)
    first = condition_on(full, click, 3)
    second = condition_on(first.conditional_state, click, 2)
    return second.conditional_state, first.probability * second.probability


@pytest.mark.parametrize("r, t, d", [(0.3, 0.9, 6), (0.5, 0.95, 8), (0.5, 0.999, 8)])
def test_photon_subtraction_matches_two_tap_conditioning(r, t, d):
    expected, p = _two_tap_conditioning(r, t, d)
    out = prepare_photon_subtracted(r, t, d)
    assert out.conditional_state.dims.dims == (d, d)
    assert abs(out.probability - p) < 1e-13 * p
    assert np.max(np.abs(out.conditional_state.matrix - expected.matrix)) < 1e-13


def test_photon_subtraction_raises_entanglement_of_the_source():
    r, t, d = 0.5, 0.95, 8
    out = prepare_photon_subtracted(r, t, d)
    en_out = logarithmic_negativity(out.conditional_state)
    en_in = logarithmic_negativity(two_mode_squeezed_ket(r, d))
    assert en_out > en_in + 0.5


# ------------------------------------------------------------ one_step


def test_vacuum_is_a_fixed_point_for_all_detectors():
    v = vacuum((5, 5))
    for det in (IdealVacuum(), OnOff(0.6), HomodyneFilter(0.4)):
        out = one_step(v, det)
        assert 0.0 < out.probability <= 1.0 + 1e-12
        assert trace_distance(out.conditional_state, v) < 1e-12
    assert abs(one_step(v, IdealVacuum()).probability - 1.0) < 1e-14


BUILT_IN_DETECTORS = pytest.mark.parametrize(
    "detector", [IdealVacuum(), OnOff(0.6), HomodyneFilter(1.5)],
    ids=["vacuum", "onoff0.6", "homodyne1.5"],
)


@BUILT_IN_DETECTORS
def test_zero_mean_gaussian_input_is_a_fixed_point(detector):
    """Each kept mode is (a1 - a2)/sqrt(2) of two identical copies, independent
    of the measured (a1 + a2)/sqrt(2) when the copies are zero-mean Gaussian, so
    no measurement on the latter moves the former. At d = 16 truncation moves
    gamma by up to 4.3e-12; at d = 24 only rounding is left."""
    psi = two_mode_squeezed_ket(0.5, 24)
    before = covariance_of_state(psi)
    after = covariance_of_state(one_step(psi, detector).conditional_state)
    assert np.max(np.abs(after.gamma - before.gamma)) <= 1e-14
    assert not np.any(after.d)


def _brute_force_step(rho_matrix, d, e_diag):
    """Dense 4-mode composition with explicit index bookkeeping throughout."""
    D4 = d**4
    perm = np.zeros((D4, D4))
    for a1 in range(d):
        for b1 in range(d):
            for a2 in range(d):
                for b2 in range(d):
                    src = ((a1 * d + b1) * d + a2) * d + b2  # (A1,B1,A2,B2)
                    dst = ((a1 * d + a2) * d + b1) * d + b2  # (A1,A2,B1,B2)
                    perm[dst, src] = 1.0
    rho4 = perm @ np.kron(rho_matrix, rho_matrix) @ perm.T
    U4 = np.kron(beamsplitter_unitary(d), beamsplitter_unitary(d))
    rho4 = U4 @ rho4 @ U4.conj().T
    sq = np.zeros(D4)
    for a1 in range(d):
        for a2 in range(d):
            for b1 in range(d):
                for b2 in range(d):
                    idx = ((a1 * d + a2) * d + b1) * d + b2
                    sq[idx] = math.sqrt(e_diag[a2] * e_diag[b2])
    cond = sq[:, None] * rho4 * sq[None, :]
    p = 0.0
    for i in range(D4):
        p += cond[i, i].real
    red = np.zeros((d * d, d * d), dtype=complex)
    for a1 in range(d):
        for b1 in range(d):
            for a1p in range(d):
                for b1p in range(d):
                    acc = 0.0
                    for a2 in range(d):
                        for b2 in range(d):
                            row = ((a1 * d + a2) * d + b1) * d + b2
                            col = ((a1p * d + a2) * d + b1p) * d + b2
                            acc += cond[row, col]
                    red[a1 * d + b1, a1p * d + b1p] = acc
    return red / p, p


def _brute_force_single_step(rho_matrix, d, e_diag):
    """Dense single-mode composition: rho (x) rho, U . U^dagger, sqrt(e) on the
    measured mode 2, then the partial trace over mode 2."""
    rho2 = np.kron(rho_matrix, rho_matrix)  # (copy 1, copy 2)
    U = beamsplitter_unitary(d)
    rho2 = U @ rho2 @ U.conj().T  # (kept output, measured output)
    sq = np.zeros(d * d)
    for a in range(d):
        for m in range(d):
            sq[a * d + m] = math.sqrt(e_diag[m])
    cond = sq[:, None] * rho2 * sq[None, :]
    p = 0.0
    for i in range(d * d):
        p += cond[i, i].real
    red = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for ap in range(d):
            for m in range(d):
                red[a, ap] += cond[a * d + m, ap * d + m]
    return red / p, p


@pytest.mark.parametrize(
    "detector,e_fn",
    [
        (IdealVacuum(), lambda d: np.eye(d)[:, 0] ** 2),
        (OnOff(0.55), lambda d: (1 - 0.55) ** np.arange(d)),
        (HomodyneFilter(0.4), None),
    ],
)
def test_one_step_matches_brute_force_oracle(detector, e_fn):
    from gaussify.measurements import success_effect

    d = 4
    e = np.real(np.diag(success_effect(detector, d)))
    psi = prepare_epsilon_state(0.95, d)
    expected, p = _brute_force_step(psi.to_density().matrix, d, e)
    out = one_step(psi, detector)
    assert abs(out.probability - p) < 1e-12
    assert np.max(np.abs(as_matrix(out.conditional_state) - expected)) < 1e-12

    # mixed inputs: every n_A - n_B sector filled (the dense contraction), and
    # block-diagonal in n_A - n_B (the sector contraction)
    m = RNG.normal(size=(d * d, d * d)) + 1j * RNG.normal(size=(d * d, d * d))
    m = m @ m.conj().T
    for rho in (DensityOperator((d, d), m / np.trace(m).real), _random_sector_density(d, RNG)):
        expected, p = _brute_force_step(rho.matrix, d, e)
        out = one_step(rho, detector)
        assert abs(out.probability - p) < 1e-12
        assert np.max(np.abs(as_matrix(out.conditional_state) - expected)) < 1e-12


def _random_sector_density(d, rng):
    """A random full-rank density matrix on (d, d) that is block-diagonal in n_A - n_B."""
    i, j = np.divmod(np.arange(d * d), d)
    m = np.zeros((d * d, d * d), dtype=complex)
    for k in range(1 - d, d):
        block = np.flatnonzero(i - j == k)
        g = rng.normal(size=(block.size, block.size)) + 1j * rng.normal(size=(block.size, block.size))
        m[np.ix_(block, block)] = g @ g.conj().T
    return DensityOperator((d, d), m / np.trace(m).real)


def _off_sector_weight(state):
    """Sum of |r[i, j, I, J]|^2 over the entries with I - i != J - j."""
    d = state.dims.dims[0]
    r = as_matrix(state).reshape(d, d, d, d)
    i, j, bra_a, bra_b = np.indices(r.shape)
    return float(np.sum(np.abs(r[bra_a - i != bra_b - j]) ** 2))


def _iterate(detector, d, steps=2):
    """The density state after `steps` steps from the epsilon state at cutoff d."""
    state = prepare_epsilon_state(0.95, d)
    for _ in range(steps):
        state = one_step(state, detector).conditional_state
    return state if isinstance(state, DensityOperator) else state.to_density()


@pytest.mark.parametrize(
    "detector",
    [IdealVacuum(), OnOff(0.55), HomodyneFilter(0.4), HomodyneFilter(1.5)],
    ids=["vacuum", "onoff0.55", "homodyne0.4", "homodyne1.5"],
)
@pytest.mark.parametrize("d", range(2, 11))
def test_sector_contraction_matches_dense_contraction(detector, d):
    rng = np.random.default_rng(d)
    party = protocol._party(detector, d)
    for rho in (_iterate(detector, d), _random_sector_density(d, rng)):
        r = rho.matrix.reshape(d, d, d, d)
        rs = fock._sectors(r)
        assert rs is not None
        dense, trace_dense = protocol._density_contraction(r, party, party)
        sector_rs, trace_sector = protocol._sector_contraction(rs, party, party)
        sector = fock._from_sectors(sector_rs)
        p_dense, p_sector = np.trace(dense).real, np.trace(sector).real
        assert abs(p_sector - p_dense) < 1e-12
        assert np.max(np.abs(sector / p_sector - dense / p_dense)) < 1e-12
        assert abs(trace_sector - trace_dense) <= 1e-15


_DETECTORS = st.one_of(
    st.just(IdealVacuum()), st.floats(0.05, 1.0).map(OnOff), st.floats(0.3, 3.0).map(HomodyneFilter)
)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    parties=st.one_of(
        _DETECTORS.map(lambda detector: (detector, detector)),
        st.tuples(st.floats(0.05, 1.0).map(OnOff), st.floats(0.3, 3.0).map(HomodyneFilter)),
    ),
)
def test_sector_contraction_matches_dense_contraction_on_drawn_sector_states(d, seed, real, parties):
    # the real part of a sector density matrix is a real sector density matrix
    rho = _random_sector_density(d, np.random.default_rng(seed)).matrix
    r = (rho.real.copy() if real else rho).reshape(d, d, d, d)
    rs = fock._sectors(r)
    assert rs is not None and rs.dtype == (np.float64 if real else complex)
    party_a = protocol._party(parties[0], d)  # one party for both, as one_step passes it
    party_b = party_a if parties[1] is parties[0] else protocol._party(parties[1], d)
    dense, trace_dense = protocol._density_contraction(r, party_a, party_b)
    sector_rs, trace_sector = protocol._sector_contraction(rs, party_a, party_b)
    sector = fock._from_sectors(sector_rs)
    p_dense, p_sector = np.trace(dense).real, np.trace(sector).real
    assert abs(p_sector - p_dense) < 1e-12
    assert np.max(np.abs(sector / p_sector - dense / p_dense)) < 1e-12
    assert abs(trace_sector - trace_dense) <= 1e-15


@pytest.mark.parametrize("d", range(2, 25))
def test_balanced_splitter_changes_sign_with_the_kept_level_under_a_copy_swap(d):
    # u[a, m, p, i] = (-1)^a u[a, m, i, p]: the sector kernel folds the term
    # pairing copy sectors (delta, kappa - delta) into (kappa - delta, delta).
    # The recurrence builds the two input ports' columns apart, so from d = 10
    # some entries differ in their last bits; about one rounding per level
    u = protocol._balanced_splitter(d).u
    sign = (-1.0) ** np.arange(d)
    deviation = np.max(np.abs(u.transpose(0, 1, 3, 2) - sign[:, None, None, None] * u))
    assert deviation <= d * np.finfo(float).eps


@pytest.mark.parametrize("d", [2, 3, 6, 9])
def test_sector_contraction_output_is_exactly_hermitian(d):
    # only sectors kappa >= 0 are computed; kappa < 0 are their mirror images
    rng = np.random.default_rng(200 + d)
    onoff, homodyne = protocol._party(OnOff(0.55), d), protocol._party(HomodyneFilter(1.5), d)
    rho = _random_sector_density(d, rng).matrix
    for r in (rho, rho.real.copy()):
        rs = fock._sectors(r.reshape(d, d, d, d))
        for parties in ((onoff, onoff), (onoff, homodyne)):
            out_rs, _ = protocol._sector_contraction(rs, *parties)
            out = fock._from_sectors(out_rs)
            assert out_rs.shape == rs.shape and out.dtype == r.dtype
            assert np.array_equal(out, out.conj().T)


def test_sector_contraction_serves_two_different_parties():
    d = 6
    rho = _random_sector_density(d, np.random.default_rng(3))
    r = rho.matrix.reshape(d, d, d, d)
    party_a, party_b = protocol._party(OnOff(0.55), d), protocol._party(HomodyneFilter(1.5), d)
    dense, _ = protocol._density_contraction(r, party_a, party_b)
    sector_rs, _ = protocol._sector_contraction(fock._sectors(r), party_a, party_b)
    sector = fock._from_sectors(sector_rs)
    assert np.max(np.abs(sector - dense)) < 1e-14


def _swap_modes(state):
    """The same state with modes A and B exchanged."""
    d = state.dims.dims[0]
    if isinstance(state, PureState):
        return PureState(state.dims, state.amplitudes.reshape(d, d).T.ravel())
    r = state.matrix.reshape(d, d, d, d).transpose(1, 0, 3, 2)
    return DensityOperator(state.dims, r.reshape(d * d, d * d))


@BUILT_IN_DETECTORS
@pytest.mark.parametrize("d", [4, 6, 8])
def test_one_step_commutes_with_swapping_the_modes(detector, d):
    # the sector kernel contracts party A and party B in different orders
    rng = np.random.default_rng(d)
    for state in (_random_sector_density(d, rng), two_mode_squeezed_ket(0.5, d),
                  _random_state((d, d), True, rng)):
        swapped = one_step(_swap_modes(state), detector)
        expected = one_step(state, detector)
        diff = as_matrix(swapped.conditional_state) - as_matrix(
            _swap_modes(expected.conditional_state))
        assert np.max(np.abs(diff)) <= 1e-15
        assert abs(swapped.probability - expected.probability) <= 1e-15
        assert abs(swapped.leak - expected.leak) <= 1e-15


def _random_state(dims, pure, rng):
    """A random full-rank state on dims, with weight on every level up to the cutoff."""
    n = int(np.prod(dims))
    if pure:
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return PureState(dims, v / np.linalg.norm(v))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = m @ m.conj().T
    return DensityOperator(dims, m / np.trace(m).real)


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("kind", ["pure", "sector", "off-sector", "single pure", "single density"])
def test_leak_matches_explicit_two_copy_mixing(kind, d):
    # oracle: both copies on their own modes, (A1, B1, A2, B2) or for a single
    # mode (A1, A2), through the truncated splitters; the leak is 1 - the trace left
    rng = np.random.default_rng(d)
    if kind == "sector":
        state = _random_sector_density(d, rng)
    else:
        dims = (d,) if kind.startswith("single") else (d, d)
        state = _random_state(dims, kind.endswith("pure"), rng)
    pairs = [(0, 1)] if kind.startswith("single") else [(0, 2), (1, 3)]
    both = tensor(state, state)
    for modes in pairs:
        both = apply_unitary(both, beamsplitter_unitary(d), modes)
    if isinstance(both, PureState):
        oracle = 1.0 - float(np.sum(np.abs(both.amplitudes) ** 2))
    else:
        oracle = 1.0 - float(np.trace(both.matrix).real)
    step = one_step_single_mode if kind.startswith("single") else one_step
    leak = step(state, OnOff(0.6)).leak
    assert oracle >= 1e-3
    assert abs(leak - oracle) <= 1e-15


def _step_kraus(e, d):
    """The step's Kraus operators K[m, n] = sqrt(e_m e_n) <m, n| U_A U_B, stacked
    as k[(m, n), (a, b), (i, j, p, q)]: copy 1 (i, j) and copy 2 (p, q) of
    rho (x) rho to the kept outputs (a, b), each party's second output measured
    in m (A) and n (B)."""
    u = beamsplitter_unitary(d).reshape(d, d, d, d)  # u[a, m, i, p]
    root = np.sqrt(e)
    return np.einsum("m,n,amip,bnjq->mnabijpq", root, root, u, u).reshape(d * d, d * d, d**4)


def _check_step_is_a_trace_non_increasing_cp_map(state, detector):
    """The step is rho (x) rho -> sum_mn K_mn (rho (x) rho) K_mn^dagger, normalised:
    sum K^dagger K <= I, the deficit on rho (x) rho with unit effects is the leak,
    and one_step returns the normalised output and its trace before normalising."""
    eps = np.finfo(float).eps
    d = state.dims.dims[0]
    k = _step_kraus(success_diagonal(detector, d), d)
    stacked = k.reshape(d**4, d**4)  # rows (m, n, a, b)
    assert np.min(np.linalg.eigvalsh(np.eye(d**4) - stacked.conj().T @ stacked)) >= -8 * eps
    rho = as_matrix(state)
    copies = np.kron(rho, rho)
    out = np.sum(k @ copies @ k.conj().transpose(0, 2, 1), axis=0)
    unit = _step_kraus(np.ones(d), d)
    deficit = 1.0 - np.trace(np.sum(unit @ copies @ unit.conj().transpose(0, 2, 1), axis=0)).real
    step = one_step(state, detector)
    p = np.trace(out).real
    assert abs(step.leak - deficit) <= 4 * eps
    assert abs(step.probability - p) <= 4 * eps
    assert np.max(np.abs(as_matrix(step.conditional_state) - out / p)) <= 8 * eps


@BUILT_IN_DETECTORS
@pytest.mark.parametrize("d", [2, 3, 4])
def test_step_is_a_trace_non_increasing_completely_positive_map(detector, d):
    # kets step on the pure contraction, sector states on the sector one, the rest dense
    rng = np.random.default_rng(300 + d)
    for state in (_random_state((d, d), True, rng), _random_sector_density(d, rng),
                  _random_state((d, d), False, rng), _iterate(detector, d)):
        _check_step_is_a_trace_non_increasing_cp_map(state, detector)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), detector=_DETECTORS,
       kind=st.sampled_from(["pure", "sector", "dense"]))
def test_step_is_a_trace_non_increasing_completely_positive_map_on_drawn_states(d, seed, detector, kind):
    rng = np.random.default_rng(seed)
    state = (_random_sector_density(d, rng) if kind == "sector"
             else _random_state((d, d), kind == "pure", rng))
    _check_step_is_a_trace_non_increasing_cp_map(state, detector)


def _spied_contractions():
    return (
        mock.patch.object(protocol, "_sector_contraction", wraps=protocol._sector_contraction),
        mock.patch.object(protocol, "_density_contraction", wraps=protocol._density_contraction),
    )


@settings(max_examples=12, deadline=None)
@given(epsilon=st.floats(0.1, 1.5), detector=_DETECTORS)
def test_built_in_detectors_keep_density_steps_on_the_sector_path(epsilon, detector):
    # photon-number conserving splitters and diagonal effects: every step maps
    # a state that commutes with n_A - n_B to another one, exactly
    state = prepare_epsilon_state(epsilon, 5).to_density()
    spy_sector, spy_dense = _spied_contractions()
    with spy_sector as sector, spy_dense as dense:
        for _ in range(3):
            state = one_step(state, detector).conditional_state
            assert _off_sector_weight(state) == 0.0
    assert sector.call_count == 3 and dense.call_count == 0


def test_density_states_with_off_sector_weight_take_the_dense_path():
    d = 4
    m = RNG.normal(size=(d * d, d * d)) + 1j * RNG.normal(size=(d * d, d * d))
    m = m @ m.conj().T
    full = DensityOperator((d, d), m / np.trace(m).real)
    nearly = _random_sector_density(d, RNG).matrix.copy()
    nearly[1, 2] = nearly[2, 1] = 1e-300  # |0,1><0,2| is off-sector
    nearly = DensityOperator((d, d), nearly)
    single = DensityOperator((d,), np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
    spy_sector, spy_dense = _spied_contractions()
    with spy_sector as sector, spy_dense as dense:
        one_step(full, OnOff(0.6))
        one_step(nearly, OnOff(0.6))
        one_step_single_mode(single, OnOff(0.6))
    assert sector.call_count == 0 and dense.call_count == 3
    # the metrics take the one-block partition on the same states
    for state in (full, nearly, single):
        assert fock._partition(state).shape == (1, state.dims.size)


def _readme_iterates():
    """Every density iterate of the README's two-mode density commands: the
    on/off run (cutoff 6 -> 10) and the fixed-cutoff 6 efficiency sweep."""
    configs = [ProtocolConfig(steps=10, epsilon=0.95, detector=OnOff(0.6))] + [
        ProtocolConfig(steps=10, epsilon=0.95, truncation=6, max_truncation=6, detector=OnOff(eta))
        for eta in np.linspace(0.1, 1.0, 10)
    ]
    return [(c.detector, r.state) for c in configs for r in run(c).records
            if isinstance(r.state, DensityOperator)]


def test_step_and_metrics_classify_every_readme_iterate_alike():
    iterates = _readme_iterates()
    assert len(iterates) >= 60
    for detector, state in iterates:
        d = state.dims.dims[0]
        in_sectors = fock._partition(state).shape == (d, d)
        spy_sector, spy_dense = _spied_contractions()
        with spy_sector as sector, spy_dense as dense:
            one_step(state, detector)
        assert (sector.call_count, dense.call_count) == ((1, 0) if in_sectors else (0, 1))
        assert in_sectors and fock._partition(state, total=True).shape == (d, d)


def _padded_onoff_step_peak():
    """The tracemalloc peak of one on/off:0.6 step on a 3-step iterate padded to d = 20."""
    import tracemalloc

    state = pad(_iterate(OnOff(0.6), 8, steps=3), (20, 20))
    tracemalloc.start()
    try:
        out = one_step(state, OnOff(0.6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.conditional_state.dims.dims == (20, 20)
    return peak


def test_sector_step_holds_fourth_power_memory():
    # the dense contraction's d^6 intermediate alone would be ~1 GB at d = 20
    assert _padded_onoff_step_peak() < 100e6


def test_real_iterates_step_in_float64_with_half_the_memory():
    # 11.9 MB in float64; the complex128 path held 23.9 MB on this step
    assert _padded_onoff_step_peak() < 16e6


def _spied_inputs():
    """Patches recording the dtype of the state each step kernel receives."""
    seen = []
    patches = [
        mock.patch.object(protocol, name, side_effect=lambda x, a, b, f=getattr(protocol, name):
                          seen.append(x.dtype) or f(x, a, b))
        for name in ("_pure_contraction", "_density_contraction", "_sector_contraction")
    ]
    return seen, patches


def test_every_readme_iterate_steps_in_float64():
    iterates = _readme_iterates()
    vacuum_run = run(ProtocolConfig(steps=10, epsilon=0.95, truncation=6))
    iterates += [(IdealVacuum(), r.state) for r in vacuum_run.records]
    seen, (pure, dense, sector) = _spied_inputs()
    with pure, dense, sector as sector_spy:
        for detector, state in iterates:
            one_step(state, detector)
    assert sector_spy.call_count == len(iterates) - len(vacuum_run.records)
    assert len(seen) == len(iterates) and set(seen) == {np.dtype(np.float64)}


@pytest.mark.parametrize("d", range(4, 11))
def test_real_and_complex_kernel_inputs_agree(d):
    rng = np.random.default_rng(100 + d)
    onoff, homodyne = protocol._party(OnOff(0.55), d), protocol._party(HomodyneFilter(1.5), d)
    # the real part of a density matrix is a real symmetric density matrix
    r = _random_sector_density(d, rng).matrix.real.reshape(d, d, d, d)
    rs = fock._sectors(r)
    psi = rng.normal(size=(d, d))
    psi /= np.linalg.norm(psi)

    def sector(x, party_a, party_b):  # the sector kernel returns a sector form
        out, trace_after = protocol._sector_contraction(x, party_a, party_b)
        return fock._from_sectors(out), trace_after

    for parties in ((onoff, onoff), (onoff, homodyne)):
        for kernel, x in ((sector, rs), (protocol._density_contraction, r),
                          (protocol._pure_contraction, psi)):
            real, trace_real = kernel(x, *parties)
            cplx, trace_cplx = kernel(x.astype(complex), *parties)
            assert real.dtype == np.float64 and cplx.dtype == complex
            assert np.max(np.abs(real - cplx)) <= 1e-14
            assert abs(trace_real - trace_cplx) <= 1e-15


@pytest.mark.parametrize(
    "detector", [IdealVacuum(), OnOff(0.6), HomodyneFilter(1.5)], ids=["vacuum", "onoff0.6", "homodyne1.5"]
)
def test_phase_rotated_input_takes_the_complex_path_with_the_same_physics(detector):
    # exp(i phi n_A) is a local rotation; it commutes with the splitters and the
    # diagonal effects, so p, E_N and purity are those of the real run
    real_run = run(ProtocolConfig(steps=4, epsilon=0.95, detector=detector))
    phased = prepare_epsilon_state(0.95, 6).amplitudes.astype(complex)
    phased[7] *= np.exp(0.7j)  # |1, 1>
    seen, (pure, dense, sector) = _spied_inputs()
    with pure, dense, sector:
        phased_run = run(ProtocolConfig(steps=4, epsilon=0.95, detector=detector,
                                        initial_state=PureState((6, 6), phased)))
    assert len(seen) >= 4 and set(seen) == {np.dtype(complex)}
    for a, b in zip(real_run.records, phased_run.records, strict=True):
        assert a.state.dims == b.state.dims
        assert abs(a.p_success - b.p_success) <= 1e-12
        assert abs(a.log_negativity - b.log_negativity) <= 1e-12
        assert abs(a.purity - b.purity) <= 1e-12


class _PerStepKernel:
    """The sector kernel as it was once built on every step, from one party's
    splitter and effect: the oracle for the per-cutoff `protocol._BalancedSplitter`."""

    def __init__(self, party):
        e = party[1]
        d = e.size
        u = reference_beamsplitter(d).real.reshape(d, d, d, d)
        n = np.arange(d)
        m = n[:, None] + n - n[:, None, None]  # m[a, i, p]
        ok = (m >= 0) & (m < d)
        m = m % d
        compact = np.where(ok, u[n[:, None, None], m, n[:, None], n], 0)  # u[a, m, i, p]
        self.weighted = compact * np.where(ok, e[m], 0)
        self.padded = np.zeros((d, 3 * d - 2, 3 * d - 2), dtype=compact.dtype)
        self.padded[:, d - 1 : 2 * d - 1, d - 1 : 2 * d - 1] = compact.conj()
        self.gram = np.einsum("aip,adip->dip", compact, self._shifted(0, slice(0, d), 1 - d, d - 1))

    def _shifted(self, kappa, kept, lo, hi):
        d = self.padded.shape[0]
        s0, s1, s2 = self.padded.strides
        start = self.padded[kept.start + kappa :, d - 1 + lo :, d - 1 + kappa - lo :]
        return np.lib.stride_tricks.as_strided(
            start, (kept.stop - kept.start, hi - lo + 1, d, d), (s0, s1 - s2, s1, s2), writeable=False
        )

    def for_sector(self, kappa, kept, lo, hi):
        return self.weighted[kept, None] * self._shifted(kappa, kept, lo, hi)


def _per_step_sector_contraction(rs, party_a, party_b):
    """`protocol._sector_contraction` with both kernels built afresh for the call."""
    d = rs.shape[1]
    kernel_a = _PerStepKernel(party_a)
    kernel_b = kernel_a if party_b is party_a else _PerStepKernel(party_b)
    out = np.zeros((d,) * 4, dtype=np.result_type(rs, kernel_a.weighted, kernel_b.weighted))
    for kappa in range(d):
        kept = slice(0, d - kappa)
        lo, hi = (kappa + 1) // 2, d - 1
        v = kernel_a.for_sector(kappa, kept, lo, hi)
        w = v if kernel_b is kernel_a else kernel_b.for_sector(kappa, kept, lo, hi)
        twice = np.where(2 * np.arange(lo, hi + 1) == kappa, 1.0, 2.0)
        first = rs[d - 1 + lo : d + hi] * twice[:, None, None]
        second = rs[d - 1 + kappa - hi : d + kappa - lo][::-1]
        x = first.transpose(0, 2, 1) @ (v @ second)
        block = x.reshape(x.shape[0], -1) @ w.reshape(w.shape[0], -1).T
        if kappa == 0:
            block = block.real
        a = np.arange(d - kappa)
        out[a[:, None], a, a[:, None] + kappa, a + kappa] = block
        out[a[:, None] + kappa, a + kappa, a[:, None], a] = block.conj()
    trace_after = np.sum((rs.transpose(0, 2, 1) @ kernel_a.gram @ rs[::-1]) * kernel_b.gram)
    return out.reshape(d * d, d * d), float(np.real(trace_after))


def _shifted_splitter(d, kappa, lo):
    """u[a + kappa, i + p - a, i + delta, p + kappa - delta] of the balanced splitter at [a, delta - lo, i, p],
    a < d - kappa and lo <= delta < d, zero where an index leaves the cutoff."""
    u = reference_beamsplitter(d).real.reshape(d, d, d, d)
    out = np.zeros((d - kappa, d - lo, d, d))
    for a, k, i, p in np.ndindex(out.shape):
        index = (a + kappa, i + p - a, i + lo + k, p + kappa - lo - k)
        if all(0 <= n < d for n in index):
            out[a, k, i, p] = u[index]
    return out


def _recorded_splitters():
    """A patch of protocol._balanced_splitter recording every object it returns."""
    seen, cached = [], protocol._balanced_splitter
    patch = mock.patch.object(protocol, "_balanced_splitter",
                              side_effect=lambda d: seen.append(cached(d)) or seen[-1])
    return seen, patch


def test_steps_at_one_cutoff_share_one_read_only_splitter():
    splitters = []
    step = protocol._step
    with mock.patch.object(protocol, "_step",
                           side_effect=lambda s, a, b: splitters.append(a[0]) or step(s, a, b)):
        one_step(prepare_epsilon_state(0.9, 5), IdealVacuum())
        one_step(prepare_epsilon_state(0.5, 5).to_density(), OnOff(0.7))
    assert splitters[0] is splitters[1] is protocol._balanced_splitter(5)
    u = splitters[0].u
    assert u is splitters[0].u
    assert u.dtype == np.float64 and not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0, 0, 0] = 2.0
    fresh = beamsplitter_unitary(5)
    assert fresh.dtype == complex and not np.any(fresh.imag)
    assert fresh.flags.writeable and not np.shares_memory(fresh, u)
    fresh[0, 0] = 2.0
    assert np.array_equal(u, reference_beamsplitter(5).real.reshape(5, 5, 5, 5))
    # u is placed from the O(d^3) tables: bitwise the d^4 recurrence's entries on
    # the photon-number support, and zero off it, where that recurrence leaves
    # zeros of either sign. Cutoff 1 is the single-mode variant's party B
    assert protocol._NO_PARTY[0].u.tobytes() == np.ones((1, 1, 1, 1)).tobytes()
    for d in range(1, 17):
        placed = protocol._Splitter(d).u
        expected = reference_beamsplitter(d).real.reshape(d, d, d, d)
        assert placed.dtype == np.float64 and not placed.flags.writeable
        assert np.array_equal(placed, expected)
        a, m, i, p = np.indices(placed.shape)
        support = a + m == i + p
        assert placed[support].tobytes() == expected[support].tobytes()
        assert not np.any(placed[~support]) and not np.any(expected[~support])
    # built through protocol's own binding of _BalancedSplitter, the one a tracer
    # that rebinds module globals replaces: once per cutoff, and not for reading u
    protocol._balanced_splitter.cache_clear()
    with mock.patch.object(protocol, "_BalancedSplitter", wraps=protocol._BalancedSplitter) as built:
        protocol._party(OnOff(0.7), 5)
        protocol._party(IdealVacuum(), 5)[0].u
        assert built.call_count == 1
        protocol._party(OnOff(0.7), 6)[0].u
        protocol._party(IdealVacuum(), 6)
    assert [c.args for c in built.call_args_list] == [(5,), (6,)]

    # sector steps under two detectors, and both parties of a mixed-party step,
    # read one object per cutoff, whose sector tables the first of them builds
    # and which holds no u
    protocol._balanced_splitter.cache_clear()
    rho = _random_sector_density(5, RNG)
    seen, recorded = _recorded_splitters()
    with recorded:
        one_step(rho, OnOff(0.7))
        tables = dict(vars(seen[0]))
        one_step(rho, HomodyneFilter(1.5))
        protocol._step(rho, protocol._party(OnOff(0.7), 5), protocol._party(HomodyneFilter(1.5), 5))
    assert len(seen) == 4 and all(s is seen[0] for s in seen)  # one lookup per _party call
    assert set(tables) == {"d", "measured", "compact", "sector_tables"}
    assert set(vars(seen[0])) == set(tables)
    assert all(vars(seen[0])[name] is table for name, table in tables.items())
    gram, plan = tables["sector_tables"]
    arrays = [tables["measured"], tables["compact"], gram]
    assert not any(t.flags.writeable for t in arrays)
    # the per-kappa plan: built once, read-only, and each kappa's entry is the
    # one the loop used to build per step, its delta running lo ... d - 1
    assert len(plan) == 5
    assert not any(t.flags.writeable for entry in plan for t in entry[1:])
    for kappa, (lo, shifted, twice) in enumerate(plan):
        assert lo == (kappa + 1) // 2
        assert shifted.shape == (5 - kappa, 5 - lo, 5, 5)
        assert np.array_equal(shifted, _shifted_splitter(5, kappa, lo))
        assert np.array_equal(twice.ravel(), np.where(2 * np.arange(lo, 5) == kappa, 1.0, 2.0))
    # a run of density steps places u at none of the cutoffs it climbs through
    protocol._balanced_splitter.cache_clear()
    seen, recorded = _recorded_splitters()
    with recorded:
        run(ProtocolConfig(steps=3, detector=OnOff(0.6), max_truncation=12,
                           initial_state=prepare_epsilon_state(0.95, 6).to_density()))
    assert {s.d for s in seen} > {6} and not any("u" in vars(s) for s in seen)

    # runs that take no sector step build no sector tables: a vacuum run steps
    # kets, a single-mode on/off run density states on the dense contraction
    protocol._balanced_splitter.cache_clear()
    seen, recorded = _recorded_splitters()
    with recorded:
        run(ProtocolConfig(steps=4, epsilon=0.95, truncation=6))
        run(ProtocolConfig(steps=2, epsilon=0.95, mode_count=1, detector=OnOff(0.6)))
    assert len(seen) >= 6 and all(set(vars(s)) == {"d", "measured", "compact", "u"} for s in seen)

    # the per-cutoff tables give bitwise the per-step build's output and trace
    rng = np.random.default_rng(22)
    for d in range(2, 17):
        onoff, homodyne = protocol._party(OnOff(0.6), d), protocol._party(HomodyneFilter(1.5), d)
        rho = _random_sector_density(d, rng).matrix.reshape(d, d, d, d)
        for r in (rho, rho.real.copy()):
            rs = fock._sectors(r)
            for party_a, party_b in ((onoff, homodyne), (onoff, onoff)):
                out_rs, trace = protocol._sector_contraction(rs, party_a, party_b)
                out = fock._from_sectors(out_rs)
                oracle, oracle_trace = _per_step_sector_contraction(rs, party_a, party_b)
                assert out.dtype == oracle.dtype and out.tobytes() == oracle.tobytes()
                assert trace == oracle_trace



def test_only_the_balanced_splitter_holds_the_sector_tables():
    # the copy-swap fold holds at T = 1/2 alone, so no splitter of another T has the tables
    tilted = fock._Splitter(6, 0.9)
    assert not any(hasattr(tilted, name) for name in ("padded", "shifted", "gram", "plan", "sector_tables"))
    protocol._balanced_splitter.cache_clear()
    splitter = protocol._balanced_splitter(6)
    assert type(splitter) is protocol._BalancedSplitter and isinstance(splitter, fock._Splitter)
    assert splitter.compact.tobytes() == fock._Splitter(6, 0.5).compact.tobytes()
    gram, plan = splitter.sector_tables
    assert not gram.flags.writeable
    assert not any(t.flags.writeable for entry in plan for t in entry[1:])
    with pytest.raises(ValueError):
        plan[1][1][0, 0, 0, 0] = 1.0
    # one sector step looks its splitter up once, in _party; the kernel reads it from party A
    rho = _random_sector_density(6, RNG)
    spy_sector, _ = _spied_contractions()
    with mock.patch.object(protocol, "_balanced_splitter", wraps=protocol._balanced_splitter) as lookup, \
            spy_sector as sector:
        one_step(rho, OnOff(0.6))
    assert lookup.call_count == 1 and sector.call_count == 1
    assert sector.call_args.args[1][0] is splitter

def test_config_rejects_non_integral_sizes():
    # a float cutoff would run truncated while the config reports it as given
    for bad in (dict(truncation=6.5), dict(max_truncation=9.5), dict(steps=2.5), dict(steps=None),
                dict(truncation=np.float64(6.0)), dict(steps="2")):
        field = next(iter(bad))
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{"steps": 2, **bad})
    config = ProtocolConfig(steps=np.int64(2), truncation=np.int32(6), max_truncation=np.uint8(8))
    assert (config.steps, config.truncation, config.max_truncation) == (2, 6, 8)
    assert all(type(v) is int for v in (config.steps, config.truncation, config.max_truncation))


@pytest.mark.parametrize("detector", [IdealVacuum(), OnOff(0.55), HomodyneFilter(0.4)])
@pytest.mark.parametrize("d", [4, 5, 6])
def test_one_step_single_mode_matches_brute_force_oracle(detector, d):
    from gaussify.measurements import success_effect

    e = np.real(np.diag(success_effect(detector, d)))
    rng = np.random.default_rng(d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m @ m.conj().T
    inputs = [
        prepare_single_mode_state(0.95, d),
        PureState((d,), v).normalized(),
        DensityOperator((d,), m / np.trace(m).real),
    ]
    for state in inputs:
        expected, p = _brute_force_single_step(as_matrix(state), d, e)
        out = one_step_single_mode(state, detector)
        assert abs(out.probability - p) < 1e-12
        assert np.max(np.abs(as_matrix(out.conditional_state) - expected)) < 1e-12


def test_single_ideal_step_increases_entanglement():
    psi = prepare_epsilon_state(0.95, 6)
    before = logarithmic_negativity(psi)
    out = one_step(psi, IdealVacuum())
    assert logarithmic_negativity(out.conditional_state) > before + 0.005
    assert out.leak < 1e-14  # support still below the cutoff blocks


def _conditioned_copies(psi, detector):
    """One two-mode step composed explicitly: both copies on four modes, each
    party's splitter, then condition_on the measured output of B and of A."""
    d = psi.dims.dims[0]
    U = beamsplitter_unitary(d)
    full = tensor(psi, psi)  # (A1, B1, A2, B2)
    full = apply_unitary(apply_unitary(full, U, (0, 2)), U, (1, 3))
    E = success_effect(detector, d)
    first = condition_on(full, E, 3)
    second = condition_on(first.conditional_state, E, 2)
    return second.conditional_state, first.probability * second.probability


@pytest.mark.parametrize("eta, kind", [(1 - 1e-13, PureState), (1 - 1e-11, DensityOperator)])
def test_one_step_and_condition_on_share_one_rank_rule(eta, kind):
    # no-click weights (1 - eta)^n: 1e-13 counts as zero (rank one, pure
    # output), 1e-11 does not (a mixed output), in the kernel and in condition_on
    psi = prepare_epsilon_state(0.95, 4)
    expected, p = _conditioned_copies(psi, OnOff(eta))
    out = one_step(psi, OnOff(eta))
    assert isinstance(expected, kind) and isinstance(out.conditional_state, kind)
    assert abs(out.probability - p) < 1e-13
    assert np.max(np.abs(as_matrix(out.conditional_state) - as_matrix(expected))) < 1e-12


def test_one_step_requires_two_equal_modes():
    with pytest.raises(ValueError):
        one_step(vacuum((4,)), IdealVacuum())
    with pytest.raises(ValueError):
        one_step(vacuum((4, 5)), IdealVacuum())


@pytest.mark.parametrize(
    "detector",
    [IdealVacuum(), OnOff(0.6), OnOff(0.0), HomodyneFilter(1.5)],
    ids=["vacuum", "onoff0.6", "onoff0", "homodyne1.5"],
)
def test_step_outputs_are_valid_density_operators(detector):
    # Hermitian, unit trace and positive after every step of both variants
    variants = (
        (one_step, prepare_epsilon_state, (4, 6, 8)),
        (one_step_single_mode, prepare_single_mode_state, (8, 10, 12)),
    )
    for step, prepare, cutoffs in variants:
        for d in cutoffs:
            state = prepare(0.95, d)
            for _ in range(3):
                state = step(state, detector).conditional_state
                rho = state if isinstance(state, DensityOperator) else state.to_density()
                rho.validate()


# ------------------------------------------------------------ single-mode variant


def test_single_mode_vacuum_fixed_point():
    out = one_step_single_mode(vacuum(6), IdealVacuum())
    assert abs(out.probability - 1.0) < 1e-14
    assert np.allclose(out.conditional_state.amplitudes, vacuum(6).amplitudes)


def test_single_mode_step_kills_odd_component():
    eps = 0.95
    out = one_step_single_mode(prepare_single_mode_state(eps, 6), IdealVacuum())
    amps = out.conditional_state.amplitudes
    assert abs(amps[1]) < 1e-14
    # |0> - (eps^2/sqrt(2)) |2>, normalized
    ratio = amps[2] / amps[0]
    assert abs(ratio + eps**2 / math.sqrt(2)) < 1e-12


def test_single_mode_step_commutes_with_squeezing_conjugation():
    # running the step on a squeezed input equals squeezing the output of a
    # step whose measurement projector is squeezed accordingly
    d = 30
    U = beamsplitter_unitary(d).reshape(d, d, d, d)
    for s in (0.3, -0.3):
        S = squeezer_unitary(d, s)
        psi = prepare_single_mode_state(0.95, d)
        sq_in = PureState((d,), S @ psi.amplitudes).normalized()
        lhs = one_step_single_mode(sq_in, IdealVacuum())
        phi = np.einsum("amip,i,p->am", U, psi.amplitudes, psi.amplitudes)
        rhs = S @ (phi @ S.conj().T[:, 0])  # squeezed projector on the measured arm
        rhs = rhs / np.linalg.norm(rhs)
        overlap = abs(np.vdot(lhs.conditional_state.amplitudes, rhs))
        assert 1.0 - overlap < 1e-6


# ------------------------------------------------------------ homodyne step


def test_wide_filter_approaches_unconditioned_mixing():
    psi = prepare_epsilon_state(0.95, 6)
    wide = homodyne_step(psi, 6.0)
    blind = one_step(psi, OnOff(0.0))
    assert abs(wide.probability - 1.0) < 1e-5
    assert trace_distance(wide.conditional_state, blind.conditional_state) < 1e-5


def test_small_filter_matches_vacuum_projection():
    psi = prepare_epsilon_state(0.95, 6)
    ref = one_step(psi, IdealVacuum()).conditional_state
    out = homodyne_step(psi, 0.05)
    assert trace_distance(out.conditional_state, ref) < 1e-3


def test_filter_probability_dominates_scaled_vacuum_probability():
    # F >= (1 - e^{-x^2}) |0><0| as operators, hence p_F >= lambda^2 p_vac,
    # strictly for states with photons reaching the detectors
    psi = prepare_epsilon_state(0.95, 6)
    x = 0.5
    lam = 1.0 - math.exp(-x * x)
    p_f = homodyne_step(psi, x).probability
    p_v = one_step(psi, IdealVacuum()).probability
    assert p_f > lam**2 * p_v


def test_identical_pure_copies_make_filter_convergence_quartic():
    # the single-photon/no-photon detector pattern interferes destructively
    # for two identical pure copies, so the leading x^2 admixture cancels
    psi = prepare_epsilon_state(0.95, 6)
    ref = one_step(psi, IdealVacuum()).conditional_state
    tds = [trace_distance(homodyne_step(psi, x).conditional_state, ref)
           for x in (0.2, 0.1, 0.05)]
    fit = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(tds), 1)[0]
    assert 3.5 < fit < 4.5


def test_mixed_copies_make_filter_convergence_quadratic():
    psi = prepare_epsilon_state(0.95, 6)
    mixed = one_step(psi, OnOff(0.5)).conditional_state
    ref = one_step(mixed, IdealVacuum()).conditional_state
    tds = [trace_distance(homodyne_step(mixed, x).conditional_state, ref)
           for x in (0.2, 0.1, 0.05)]
    fit = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(tds), 1)[0]
    assert 1.7 < fit < 2.3


def test_two_filtered_steps_track_two_vacuum_steps():
    psi = prepare_epsilon_state(0.95, 6)
    f = homodyne_step(homodyne_step(psi, 0.05).conditional_state, 0.05)
    v = one_step(one_step(psi, IdealVacuum()).conditional_state, IdealVacuum())
    assert trace_distance(f.conditional_state, v.conditional_state) < 5e-3


# ------------------------------------------------------------ run


def test_zero_step_trace_has_single_record():
    trace = run(ProtocolConfig(steps=0, epsilon=0.95, truncation=6))
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.p_success == 1.0 and rec.p_cumulative == 1.0
    assert abs(rec.log_negativity - math.log2(1.95**2 / 1.9025)) < 1e-12


def _schmidt_recursion(c, d):
    """Independent recursion for ideal-detector iteration of sum_n c_n |n,n>."""
    out = np.zeros(d)
    for total in range(d):
        acc = 0.0
        for n in range(total + 1):
            m = total - n
            acc += c[n] * c[m] / (math.factorial(n) * math.factorial(m))
        out[total] = 0.5**total * math.factorial(total) * acc
    p = float(np.sum(out**2))
    return out / math.sqrt(p), p


def test_ideal_run_matches_schmidt_recursion_oracle():
    d, steps = 6, 10
    cfg = ProtocolConfig(steps=steps, epsilon=0.95, truncation=d, max_truncation=d)
    trace = run(cfg)
    c = np.zeros(d)
    c[0], c[1] = 1.0, 0.95
    c /= np.linalg.norm(c)
    for k in range(1, steps + 1):
        c, p = _schmidt_recursion(c, d)
        en = math.log2(np.sum(np.abs(c)) ** 2)
        assert abs(trace.records[k].p_success - p) < 1e-9
        assert abs(trace.records[k].log_negativity - en) < 1e-9


def test_ideal_run_entanglement_is_nondecreasing_and_saturates():
    cfg = ProtocolConfig(steps=16, epsilon=0.95, truncation=6, max_truncation=6)
    trace = run(cfg)
    ens = [r.log_negativity for r in trace.records]
    diffs = np.diff(ens)
    assert np.all(diffs >= -1e-12)
    # convergence ratio is 1/2 per step, so saturation to 1e-4 needs ~14 steps
    assert all(abs(x) < 1e-4 for x in diffs[-3:])
    assert abs(diffs[9]) > 1e-4
    ratios = diffs[8:15] / diffs[9:16]
    assert np.all(np.abs(ratios - 2.0) < 0.25)


def test_cumulative_probability_is_product_of_steps():
    trace = run(ProtocolConfig(steps=5, epsilon=0.95, truncation=6, detector=OnOff(0.7)))
    cum = 1.0
    for rec in trace.records:
        if rec.step > 0:
            cum *= rec.p_success
        assert 0.0 < rec.p_success <= 1.0 + 1e-12
        assert abs(rec.p_cumulative - cum) < 1e-12


def test_blind_detector_run_does_not_gain_entanglement():
    cfg = ProtocolConfig(steps=3, epsilon=0.95, truncation=6, detector=OnOff(0.0))
    trace = run(cfg)
    assert trace.records[1].p_success == pytest.approx(1.0, abs=1e-12)
    assert trace.records[-1].log_negativity <= trace.records[0].log_negativity + 1e-12


def test_blind_detector_step_is_partial_trace_of_mixed_copies():
    from gaussify.fock import apply_unitary, partial_trace

    d = 6
    psi = prepare_epsilon_state(0.95, d)
    out = one_step(psi, OnOff(0.0))
    both = tensor(psi, psi)
    t = both.tensor_view().transpose(0, 2, 1, 3)
    both = PureState((d, d, d, d), t.reshape(-1))
    U = beamsplitter_unitary(d)
    both = apply_unitary(apply_unitary(both, U, (0, 1)), U, (2, 3))
    ref = partial_trace(both.to_density(), (0, 2))
    assert np.max(np.abs(as_matrix(out.conditional_state) - ref.matrix)) < 1e-12


def test_one_step_entanglement_grows_with_detector_efficiency():
    psi = prepare_epsilon_state(0.95, 6)
    ens = [
        logarithmic_negativity(one_step(psi, OnOff(eta)).conditional_state)
        for eta in (0.2, 0.5, 0.8, 1.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(ens, ens[1:]))


def test_two_mode_gaussianity_decreases_over_early_steps():
    cfg = ProtocolConfig(steps=4, epsilon=0.95, truncation=6)
    trace = run(cfg)
    g = [r.gaussianity for r in trace.records]
    assert all(b < a for a, b in zip(g, g[1:]))


def test_adaptive_truncation_grows_until_cap():
    cfg = ProtocolConfig(steps=6, epsilon=0.95, truncation=6, max_truncation=10)
    trace = run(cfg)
    assert trace.final_state.dims.dims == (10, 10)
    # once at the cap, leaks are reported rather than raised
    assert trace.records[-1].leak > 0.0


def test_run_reports_failing_step_index():
    cfg = ProtocolConfig(
        steps=2, epsilon=0.95, truncation=6, detector=HomodyneFilter(5e-4)
    )
    with pytest.raises(RareOutcomeError, match="step 1"):
        run(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(steps=-1)
    with pytest.raises(ValueError):
        ProtocolConfig(steps=1, mode_count=3)
    with pytest.raises(ValueError):
        ProtocolConfig(steps=1, truncation=1)
    with pytest.raises(ValueError):
        ProtocolConfig(steps=1, truncation=8, max_truncation=6)
    # NaN passes "epsilon < 0"; the input family would then fail later as a
    # numerical error instead of a rejected parameter
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ProtocolConfig(steps=1, epsilon=eps)
        with pytest.raises(ValueError):
            prepare_epsilon_state(eps, 4)
        with pytest.raises(ValueError):
            prepare_single_mode_state(eps, 4)
