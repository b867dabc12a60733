"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
"""

import math
import time

import numpy as np
import pytest

from gaussify import (
    DensityOperator,
    HomodyneFilter,
    IdealVacuum,
    OnOff,
    ProtocolConfig,
    PureState,
    beamsplitter_unitary,
    covariance_of_state,
    eight_port_symplectic,
    fock_ket,
    gaussianity_distance,
    homodyne_step,
    ideal_step_covariance,
    logarithmic_negativity,
    no_click_effect,
    one_step,
    prepare_epsilon_state,
    run,
    squeezer_unitary,
    symplectic_form,
    to_fock_density,
    two_mode_squeezed,
    two_mode_squeezed_ket,
    vacuum,
    vacuum_effect,
    wigner,
)
from gaussify.gaussian import GaussianState, apply_symplectic, homodyne_condition, vacuum_condition
from gaussify.measurements import filter_operator

EPS = 0.95


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}{' - ' + detail if detail else ''}")


def _trace_distance(a, b):
    am = a.matrix if isinstance(a, DensityOperator) else a.to_density().matrix
    bm = b.matrix if isinstance(b, DensityOperator) else b.to_density().matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(am - bm))))


def test_criterion_1_initial_state_negativity_anchor():
    start = time.monotonic()
    psi = prepare_epsilon_state(EPS, 6)
    measured = logarithmic_negativity(psi)
    expected = math.log2((1 + EPS) ** 2 / (1 + EPS**2))
    elapsed = time.monotonic() - start
    ok = abs(measured - expected) < 1e-6 and elapsed < 1.0
    _report(1, "initial-state negativity anchor", ok,
            f"E_N = {measured:.9f}, formula = {expected:.9f}, {elapsed:.2f}s")
    assert abs(measured - expected) < 1e-6
    assert elapsed < 1.0


def _brute_force_step(rho_matrix, d, e_diag):
    D4 = d**4
    perm = np.zeros((D4, D4))
    for a1 in range(d):
        for b1 in range(d):
            for a2 in range(d):
                for b2 in range(d):
                    perm[((a1 * d + a2) * d + b1) * d + b2,
                         ((a1 * d + b1) * d + a2) * d + b2] = 1.0
    rho4 = perm @ np.kron(rho_matrix, rho_matrix) @ perm.T
    U4 = np.kron(beamsplitter_unitary(d), beamsplitter_unitary(d))
    rho4 = U4 @ rho4 @ U4.conj().T
    sq = np.zeros(D4)
    for a1 in range(d):
        for a2 in range(d):
            for b1 in range(d):
                for b2 in range(d):
                    sq[((a1 * d + a2) * d + b1) * d + b2] = math.sqrt(
                        e_diag[a2] * e_diag[b2]
                    )
    cond = sq[:, None] * rho4 * sq[None, :]
    p = float(np.real(np.trace(cond)))
    red = np.zeros((d * d, d * d), dtype=complex)
    for a1 in range(d):
        for b1 in range(d):
            for a1p in range(d):
                for b1p in range(d):
                    acc = 0.0
                    for a2 in range(d):
                        for b2 in range(d):
                            acc += cond[((a1 * d + a2) * d + b1) * d + b2,
                                        ((a1p * d + a2) * d + b1p) * d + b2]
                    red[a1 * d + b1, a1p * d + b1p] = acc
    return red / p, p


def test_criterion_2_single_step_gain_and_oracle():
    start = time.monotonic()
    psi = prepare_epsilon_state(EPS, 6)
    before = logarithmic_negativity(psi)
    out = one_step(psi, IdealVacuum())
    gain = logarithmic_negativity(out.conditional_state) - before

    d = 4
    psi4 = prepare_epsilon_state(EPS, d)
    e = np.real(np.diag(vacuum_effect(d)))
    expected, p_expected = _brute_force_step(psi4.to_density().matrix, d, e)
    got = one_step(psi4, IdealVacuum())
    got_matrix = got.conditional_state.to_density().matrix
    elementwise = float(np.max(np.abs(got_matrix - expected)))
    p_dev = abs(got.probability - p_expected)
    elapsed = time.monotonic() - start

    ok = gain > 0.005 and elementwise < 1e-12 and p_dev < 1e-12 and elapsed < 5.0
    _report(2, "single-step gain + dense oracle", ok,
            f"gain = {gain:.6f}, oracle deviation = {elementwise:.2e}, {elapsed:.2f}s")
    assert gain > 0.005
    assert elementwise < 1e-12
    assert p_dev < 1e-12
    assert elapsed < 5.0


def test_criterion_3_efficiency_sweep_shape():
    start = time.monotonic()
    etas = [round(0.1 * k, 1) for k in range(1, 11)]
    one, ten = [], []
    for eta in etas:
        cfg = ProtocolConfig(steps=10, epsilon=EPS, truncation=6, max_truncation=6,
                             detector=OnOff(eta))
        trace = run(cfg)
        one.append(trace.records[1].log_negativity)
        ten.append(trace.records[10].log_negativity)
    initial = math.log2((1 + EPS) ** 2 / (1 + EPS**2))
    monotone_1 = all(b >= a - 1e-9 for a, b in zip(one, one[1:]))
    monotone_10 = all(b >= a - 1e-9 for a, b in zip(ten, ten[1:]))
    crossing = [eta for eta, v in zip(etas, ten) if v < initial]
    elapsed = time.monotonic() - start

    ok = monotone_1 and monotone_10 and bool(crossing) and elapsed < 600.0
    _report(3, "negativity vs efficiency sweep", ok,
            f"monotone(1)={monotone_1}, monotone(10)={monotone_10}, "
            f"10-step drops below initial for eta <= {max(crossing) if crossing else None}, "
            f"{elapsed:.1f}s")
    assert monotone_1 and monotone_10
    assert crossing
    assert elapsed < 600.0


def test_criterion_4_gaussification_trajectories():
    start = time.monotonic()
    single = run(ProtocolConfig(steps=3, epsilon=EPS, mode_count=1))
    g = [r.gaussianity for r in single.records]
    states = [r.state for r in single.records]
    minima = [wigner(s, (-4, 4), (-4, 4), 161).minimum() for s in states]

    two = run(ProtocolConfig(steps=16, epsilon=EPS, truncation=6, max_truncation=6))
    ens = [r.log_negativity for r in two.records]
    last3 = np.abs(np.diff(ens))[-3:]

    # The kept single-mode output sees (a1 - a2)/sqrt(2), so one ideal step
    # maps |0> + eps|1> exactly to |0> - (eps^2/sqrt(2))|2>: it removes the
    # odd-photon sector, which raises the Gaussianity distance (0.2048 ->
    # 0.3475) and deepens the Wigner dip (-0.1036 -> -0.1049). Gaussification
    # is therefore read from step 1 on, plus the net change over the run. The
    # two-mode iteration contracts deviations by 1/2 per step, so |dE_N| falls
    # below 1e-4 only around step 14; the two-mode leg runs 16 steps.
    gauss_decreasing = g[1] > g[2] > g[3] and g[3] < g[0]
    wigner_rising = minima[1] <= minima[2] <= minima[3] and minima[3] > minima[0]
    converged = bool(np.all(last3 < 1e-4))
    elapsed = time.monotonic() - start

    ok = gauss_decreasing and wigner_rising and converged and elapsed < 120.0
    _report(
        4, "gaussification trajectories", ok,
        f"gaussianity 0/1->2->3 = {g[0]:.4f}/{g[1]:.4f}/{g[2]:.4f}/{g[3]:.4f} "
        f"(strictly decreasing from step 1, below step 0: {gauss_decreasing}); "
        f"Wigner minima 0/1->2->3 = {minima[0]:.5f}/{minima[1]:.5f}/"
        f"{minima[2]:.5f}/{minima[3]:.5f} "
        f"(rising from step 1, above step 0: {wigner_rising}); "
        f"steps 14-16 |dE_N| = {last3[0]:.1e}/{last3[1]:.1e}/{last3[2]:.1e} "
        f"(all < 1e-4: {converged}); {elapsed:.1f}s",
    )
    assert gauss_decreasing, f"gaussianity sequence not decreasing from step 1: {g}"
    assert wigner_rising, f"Wigner minima not rising from step 1: {minima}"
    assert converged, f"last-3 step changes {last3} not all below 1e-4"
    assert elapsed < 120.0


def test_criterion_5_homodyne_filter_equivalence():
    start = time.monotonic()
    psi = prepare_epsilon_state(EPS, 6)
    # representative mid-protocol mixed state; identical pure copies would
    # interfere destructively and hide the generic quadratic scaling
    mixed = one_step(psi, OnOff(0.5)).conditional_state
    reference = one_step(mixed, IdealVacuum()).conditional_state
    radii = (0.2, 0.1, 0.05)
    tds = [
        _trace_distance(homodyne_step(mixed, x).conditional_state, reference)
        for x in radii
    ]
    exponent = float(np.polyfit(np.log(radii), np.log(tds), 1)[0])
    pure_td = _trace_distance(
        homodyne_step(psi, 0.05).conditional_state,
        one_step(psi, IdealVacuum()).conditional_state,
    )
    elapsed = time.monotonic() - start

    ok = tds[-1] < 1e-3 and abs(exponent - 2.0) < 0.3 and elapsed < 60.0
    _report(5, "homodyne filter equivalence", ok,
            f"TD(x=0.05) = {tds[-1]:.2e}, fitted exponent = {exponent:.3f} "
            f"(identical-pure-copy TD(0.05) = {pure_td:.1e}, quartic), {elapsed:.1f}s")
    assert tds[-1] < 1e-3
    assert abs(exponent - 2.0) < 0.3
    assert elapsed < 60.0


def test_criterion_6_covariance_cross_validation():
    start = time.monotonic()
    rng = np.random.default_rng(606)

    S = eight_port_symplectic(0).S
    omega = symplectic_form(2)
    symp_residual = float(np.max(np.abs(S @ omega @ S.T - omega)))

    collapsed = vacuum_condition(two_mode_squeezed(0.4), 0)
    schur_dev = float(np.max(np.abs(collapsed.gamma - np.eye(2))))

    from scipy.linalg import expm

    worst_equiv = 0.0
    worst_disp = 0.0
    for _ in range(50):
        while True:
            A = rng.normal(size=(4, 4), scale=0.25)
            Sr = expm(symplectic_form(2) @ (A + A.T))
            nu = 1.0 + rng.uniform(0.0, 0.8, size=2)
            gamma = Sr @ np.diag(np.repeat(nu, 2)) @ Sr.T
            if np.linalg.eigvalsh(gamma).max() < 8.0:
                break
        gs = GaussianState(gamma, rng.normal(scale=0.5, size=4))
        direct = vacuum_condition(gs, 0)
        big = np.zeros((6, 6))
        big[:2, :2] = np.eye(2)
        big[2:, 2:] = gs.gamma
        tri = GaussianState(big, np.concatenate([[0.0, 0.0], gs.d]))
        tri = apply_symplectic(tri, eight_port_symplectic(1))
        tri = homodyne_condition(homodyne_condition(tri, 0, "x"), 0, "x")
        worst_equiv = max(worst_equiv, float(np.max(np.abs(tri.gamma - direct.gamma))))
        worst_disp = max(worst_disp, float(np.max(np.abs(tri.d - direct.d))))

    predicted = ideal_step_covariance(two_mode_squeezed(0.4))
    out = one_step(two_mode_squeezed_ket(0.4, 14), IdealVacuum())
    got = covariance_of_state(out.conditional_state)
    moment_dev = float(np.max(np.abs(got.gamma - predicted.gamma)))
    elapsed = time.monotonic() - start

    ok = (symp_residual < 1e-12 and schur_dev < 1e-10 and worst_equiv < 1e-10
          and moment_dev < 1e-4 and elapsed < 60.0)
    _report(6, "covariance-formalism cross-validation", ok,
            f"symplectic residual = {symp_residual:.1e}, collapsed pair dev = "
            f"{schur_dev:.1e}, eight-port equivalence = {worst_equiv:.1e} "
            f"(displacement diff {worst_disp:.1e}), moment deviation = "
            f"{moment_dev:.1e}, {elapsed:.1f}s")
    assert symp_residual < 1e-12
    assert schur_dev < 1e-10
    assert worst_equiv < 1e-10
    assert moment_dev < 1e-4
    assert elapsed < 60.0


def test_criterion_7_squeezing_identities():
    start = time.monotonic()
    d, s = 30, 0.3
    U = beamsplitter_unitary(d)
    S = squeezer_unitary(d, s)
    SS = np.kron(S, S)
    vectors = [
        fock_ket((d, d), occ).amplitudes
        for occ in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    ]
    comm_residual = max(
        float(np.linalg.norm(U @ (SS @ v) - SS @ (U @ v))) for v in vectors
    )
    SI = np.kron(S, np.eye(d))
    IS_dag = np.kron(np.eye(d), S.conj().T)
    proj_residual = max(
        float(np.linalg.norm(
            (SI @ (U @ v)).reshape(d, d)[0, :]
            - (IS_dag @ (U @ (SS @ v))).reshape(d, d)[0, :]
        ))
        for v in vectors
    )
    elapsed = time.monotonic() - start

    ok = comm_residual < 1e-6 and proj_residual < 1e-6 and elapsed < 30.0
    _report(7, "squeezing identities", ok,
            f"commutator residual = {comm_residual:.2e}, projected identity "
            f"residual = {proj_residual:.2e}, {elapsed:.1f}s")
    assert comm_residual < 1e-6
    assert proj_residual < 1e-6
    assert elapsed < 30.0


def test_criterion_8_povm_sanity():
    d = 8
    completeness = float(np.max(np.abs(
        no_click_effect(d, 0.35) + (np.eye(d) - no_click_effect(d, 0.35)) - np.eye(d)
    )))
    bounds_ok = True
    for E in (vacuum_effect(d), no_click_effect(d, 0.35), filter_operator(d, 0.7)):
        w = np.linalg.eigvalsh(E)
        bounds_ok = bounds_ok and w.min() > -1e-12 and w.max() < 1.0 + 1e-12
    limit_dev = max(
        float(np.max(np.abs(no_click_effect(d, 1.0) - vacuum_effect(d)))),
        float(np.max(np.abs(no_click_effect(d, 0.0) - np.eye(d)))),
    )
    v = vacuum((5, 5))
    fixed_dev, p_ideal = 0.0, None
    for det in (IdealVacuum(), OnOff(0.5), HomodyneFilter(0.4)):
        out = one_step(v, det)
        fixed_dev = max(fixed_dev, _trace_distance(out.conditional_state, v))
        if isinstance(det, IdealVacuum):
            p_ideal = out.probability

    ok = (completeness == 0.0 and bounds_ok and limit_dev == 0.0
          and fixed_dev < 1e-12 and abs(p_ideal - 1.0) < 1e-12)
    _report(8, "POVM sanity suite", ok,
            f"completeness = {completeness:.1e}, bounds ok = {bounds_ok}, "
            f"limit degeneracies = {limit_dev:.1e}, vacuum fixed point dev = "
            f"{fixed_dev:.1e} (ideal p = {p_ideal:.12f})")
    assert completeness == 0.0
    assert bounds_ok
    assert limit_dev == 0.0
    assert fixed_dev < 1e-12
    assert abs(p_ideal - 1.0) < 1e-12
