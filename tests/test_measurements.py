import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from gaussify import (
    DensityOperator,
    HomodyneFilter,
    IdealVacuum,
    OnOff,
    PureState,
    RareOutcomeError,
    apply_unitary,
    coherent_ket,
    coherent_projector,
    condition_on,
    filter_operator,
    fock_ket,
    no_click_effect,
    partial_trace,
    prepare_epsilon_state,
    success_diagonal,
    success_effect,
    tensor,
    two_mode_squeezed_ket,
    vacuum,
    vacuum_effect,
)
from gaussify.measurements import EFFECT_TOL

RNG = np.random.default_rng(1234)


def trace_distance(a, b):
    am = a.matrix if isinstance(a, DensityOperator) else a.to_density().matrix
    bm = b.matrix if isinstance(b, DensityOperator) else b.to_density().matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(am - bm))))


# ---------------------------------------------------------------- vacuum effect


def test_vacuum_effect_on_vacuum_is_certain():
    out = condition_on(tensor(vacuum(4), vacuum(4)), vacuum_effect(4), 1)
    assert abs(out.probability - 1.0) < 1e-14
    assert isinstance(out.conditional_state, PureState)


def test_vacuum_effect_on_single_photon_never_fires():
    st = tensor(fock_ket((4,), (1,)), vacuum(4))
    E = vacuum_effect(4)
    p = np.real(np.trace(np.kron(E, np.eye(4)) @ st.to_density().matrix))
    assert abs(p) < 1e-15
    with pytest.raises(RareOutcomeError):
        condition_on(st, E, 0)


def test_vacuum_probability_of_geometric_diagonal_state():
    # occupation weights p(n) ~ (1/2)^n on an 8-level mode
    w = 0.5 ** np.arange(8)
    w /= w.sum()
    rho = tensor(DensityOperator((8,), np.diag(w)), vacuum(8).to_density())
    out = condition_on(rho, vacuum_effect(8), 0)
    oracle = w[0]  # direct sum
    assert abs(oracle - 1.0 / (2.0 * (1.0 - 2.0**-8))) < 1e-15
    assert abs(out.probability - oracle) < 1e-12


# ---------------------------------------------------------------- on/off detector


def test_no_click_limits():
    assert np.allclose(no_click_effect(6, 1.0), vacuum_effect(6))
    assert np.allclose(no_click_effect(6, 0.0), np.eye(6))


def test_no_click_rejects_bad_efficiency():
    with pytest.raises(ValueError):
        no_click_effect(6, 1.2)
    with pytest.raises(ValueError):
        OnOff(-0.1)


def test_half_efficiency_misses_single_photon_half_the_time():
    st = tensor(fock_ket((4,), (1,)), vacuum(4))
    out = condition_on(st, no_click_effect(4, 0.5), 0)
    assert abs(out.probability - 0.5) < 1e-14


def test_no_click_probability_grows_as_efficiency_drops():
    states = [
        tensor(fock_ket((5,), (2,)), vacuum(5)),
        tensor(two_mode_squeezed_ket(0.4, 5), vacuum(5)),
        prepare_epsilon_state(0.95, 5),
    ]
    for st in states:
        # eta = 1 excluded: a perfect detector never misses a pure photon state
        probs = [condition_on(st, no_click_effect(5, eta), 0).probability
                 for eta in (0.9, 0.7, 0.4, 0.1, 0.0)]
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))


# ---------------------------------------------------------------- coherent projector


def test_coherent_projector_at_zero_is_vacuum_projector():
    assert np.allclose(coherent_projector(8, 0.0), vacuum_effect(8))


def test_coherent_state_norm_within_truncation():
    for alpha in (0.5, 1.0, 0.5 + 0.8j):
        v = coherent_ket(16, alpha)
        assert abs(v.norm() ** 2 - 1.0) < 1e-10


def test_coherent_vacuum_overlap():
    alpha = 0.9
    v = coherent_ket(16, alpha)
    assert abs(abs(v.amplitudes[0]) ** 2 - math.exp(-abs(alpha) ** 2)) < 1e-14


def test_coherent_projector_rejects_large_amplitude():
    with pytest.raises(ValueError):
        coherent_projector(8, 2.0)


# ---------------------------------------------------------------- filter


def test_filter_vacuum_entry():
    F = filter_operator(8, 0.5)
    assert abs(F[0, 0].real - (1.0 - math.exp(-0.25))) < 1e-14


def test_filter_entries_match_disk_quadrature():
    # (1/pi) integral over |alpha| < x of |<n|alpha>|^2, in polar coordinates
    x = 0.5
    F = np.real(np.diag(filter_operator(8, x)))
    for n in range(6):
        val, _ = quad(
            lambda r: 2.0 * r * math.exp(-r * r) * r ** (2 * n) / math.factorial(n),
            0.0, x, epsabs=1e-14,
        )
        assert abs(F[n] - val) < 1e-8


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
def test_filter_entries_match_the_incomplete_gamma_to_full_precision(x):
    """F(n) = P(n+1, x^2) against 40-digit mpmath, relative, at every cutoff
    up to 60 and on both sides of the tail / complement split at x^2 = n + 1."""
    with mpmath.workdps(40):
        exact = [float(mpmath.gammainc(n + 1, 0, mpmath.mpf(x) ** 2, regularized=True))
                 for n in range(60)]
    for dim in range(1, 61):
        F = np.diag(filter_operator(dim, x))
        assert not np.any(F.imag)
        for n in range(dim):
            if exact[n] > EFFECT_TOL:
                assert abs(F[n].real - exact[n]) <= 1e-14 * exact[n], (dim, n)


def test_filter_entries_decrease_with_photon_number():
    for x in (0.3, 0.6, 0.9):
        F = np.real(np.diag(filter_operator(10, x)))
        assert all(b < a for a, b in zip(F, F[1:]))


def test_filter_approaches_identity_for_large_radius():
    F = filter_operator(10, 6.0)
    assert np.max(np.abs(F - np.eye(10))) < 1e-6


def test_filter_ratio_is_quadratic_at_small_radius():
    for x in (0.05, 0.02):
        F = np.real(np.diag(filter_operator(6, x)))
        assert abs(F[1] / F[0] - x * x / 2.0) < x**4


def test_effect_bounds():
    for E in (
        vacuum_effect(8),
        no_click_effect(8, 0.35),
        filter_operator(8, 0.7),
        coherent_projector(8, 0.6),
    ):
        w = np.linalg.eigvalsh(E)
        assert w.min() > -1e-12
        assert w.max() < 1.0 + 1e-12


def test_on_off_povm_is_complete():
    E = no_click_effect(8, 0.35)
    click = np.eye(8) - E
    assert np.max(np.abs(E + click - np.eye(8))) == 0.0
    assert np.linalg.eigvalsh(click).min() > -1e-14


# ---------------------------------------------------------------- conditioning


def test_conditioning_entangled_pair_on_vacuum():
    bell = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
    out = condition_on(bell, vacuum_effect(2), 1)
    assert abs(out.probability - 0.5) < 1e-14
    assert np.allclose(out.conditional_state.amplitudes, [1.0, 0.0])


def test_rank_one_effect_keeps_pure_states_pure():
    psi = prepare_epsilon_state(0.8, 4)
    out = condition_on(psi, coherent_projector(4, 0.3), 1)
    assert isinstance(out.conditional_state, PureState)
    out = condition_on(psi, filter_operator(4, 0.4), 1)
    assert isinstance(out.conditional_state, DensityOperator)


def test_conditioning_matches_dense_composition():
    # sqrt(E) rho sqrt(E), trace, partial trace, assembled explicitly
    psi = two_mode_squeezed_ket(0.3, 10)
    E = filter_operator(10, 0.3)
    out = condition_on(psi, E, 1)
    sq = np.diag(np.sqrt(np.real(np.diag(E))))
    big = np.kron(np.eye(10), sq)
    cond = big @ psi.to_density().matrix @ big
    p = float(np.real(np.trace(cond)))
    red = np.einsum("ikjk->ij", cond.reshape(10, 10, 10, 10)) / p
    assert abs(out.probability - p) < 1e-14
    assert np.max(np.abs(out.conditional_state.matrix - red)) < 1e-13


def _random_effect(d, rng):
    """Non-diagonal full-rank effect: a random unitary conjugating eigenvalues in (0.05, 0.95)."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * rng.uniform(0.05, 0.95, size=d)) @ q.conj().T


def test_conditioning_matches_sqrt_effect_composition_on_every_mode():
    # sqrt(E) rho sqrt(E) through apply_unitary, then the trace and partial trace
    dims = (3, 4, 2)
    size = int(np.prod(dims))
    amps = RNG.normal(size=size) + 1j * RNG.normal(size=size)
    psi = PureState(dims, amps).normalized()
    g = RNG.normal(size=(size, size)) + 1j * RNG.normal(size=(size, size))
    rho = DensityOperator(dims, g @ g.conj().T).normalized()
    for mode, d in enumerate(dims):
        E = _random_effect(d, RNG)
        w, v = np.linalg.eigh(E)
        sqrt_e = (v * np.sqrt(w)) @ v.conj().T
        keep = [m for m in range(len(dims)) if m != mode]
        for state in (psi, rho):
            cond = apply_unitary(state.to_density() if state is psi else state, sqrt_e, (mode,))
            p = cond.trace()
            expected = partial_trace(cond, keep).matrix / p
            out = condition_on(state, E, mode)
            assert isinstance(out.conditional_state, DensityOperator)
            assert out.conditional_state.dims.dims == tuple(dims[m] for m in keep)
            assert abs(out.probability - p) < 1e-13
            assert np.max(np.abs(out.conditional_state.matrix - expected)) < 1e-13


def test_pure_and_density_paths_agree():
    psi = prepare_epsilon_state(0.95, 5)
    for E in (vacuum_effect(5), no_click_effect(5, 0.4), filter_operator(5, 0.5)):
        a = condition_on(psi, E, 1)
        b = condition_on(psi.to_density(), E, 1)
        assert abs(a.probability - b.probability) < 1e-13
        am = (
            a.conditional_state.matrix
            if isinstance(a.conditional_state, DensityOperator)
            else a.conditional_state.to_density().matrix
        )
        assert np.max(np.abs(am - b.conditional_state.matrix)) < 1e-12


def test_condition_on_validates_mode_and_effect():
    psi = prepare_epsilon_state(0.5, 4)
    with pytest.raises(ValueError):
        condition_on(psi, vacuum_effect(4), 2)
    with pytest.raises(ValueError):
        condition_on(psi, vacuum_effect(3), 0)


def test_success_effect_dispatch():
    assert np.allclose(success_effect(IdealVacuum(), 5), vacuum_effect(5))
    assert np.allclose(success_effect(OnOff(0.3), 5), no_click_effect(5, 0.3))
    assert np.allclose(success_effect(HomodyneFilter(0.4), 5), filter_operator(5, 0.4))


@pytest.mark.parametrize(
    "detector",
    [IdealVacuum(), OnOff(0.0), OnOff(0.35), OnOff(0.6), OnOff(0.9), OnOff(1.0),
     HomodyneFilter(0.001), HomodyneFilter(0.4), HomodyneFilter(1.5), HomodyneFilter(4.5)],
    ids=repr,
)
def test_success_effect_is_the_diagonal_vector_the_step_reads(detector):
    for d in range(1, 21):
        e = success_diagonal(detector, d)
        effect = success_effect(detector, d)
        assert e.dtype == np.float64 and e.shape == (d,)
        assert effect.dtype == complex and not np.any(effect - np.diag(np.diag(effect)))
        assert np.array_equal(np.diag(effect).real, e) and not np.any(np.diag(effect).imag)


def test_filter_conditioning_converges_to_vacuum_conditioning_quadratically():
    # single-detector filtering approaches the vacuum projection as the
    # acceptance disk shrinks; the admixture weight falls like x^2/2
    psi = prepare_epsilon_state(0.95, 6)
    ref = condition_on(psi, vacuum_effect(6), 1).conditional_state
    tds = []
    for x in (0.2, 0.1, 0.05):
        out = condition_on(psi, filter_operator(6, x), 1)
        tds.append(trace_distance(out.conditional_state, ref))
    assert all(b < a for a, b in zip(tds, tds[1:]))
    ratios = [a / b for a, b in zip(tds, tds[1:])]
    assert all(3.5 < r < 4.5 for r in ratios)
    # derived value at x = 0.05: eps^2 F(1) / (F(0) + eps^2 F(1)) ~ 1.13e-3
    eps2 = 0.95**2
    F = np.real(np.diag(filter_operator(6, 0.05)))
    oracle = eps2 * F[1] / (F[0] + eps2 * F[1])
    assert abs(tds[-1] - oracle) < 1e-12
    assert tds[-1] < 1.2e-3
