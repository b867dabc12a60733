import math
from unittest import mock

import numpy as np
import pytest

from gaussify import (
    DensityOperator,
    FockDims,
    OnOff,
    ProtocolConfig,
    PureState,
    apply_unitary,
    beamsplitter_unitary,
    displacement_unitary,
    fock_ket,
    gaussianity_distance,
    logarithmic_negativity,
    one_step,
    pad,
    partial_trace,
    prepare_epsilon_state,
    prepare_photon_subtracted,
    run,
    squeezer_unitary,
    tensor,
    two_mode_squeezed_ket,
    vacuum,
)
from gaussify import fock, protocol

RNG = np.random.default_rng(42)


def random_pure(dims, rng=RNG):
    fd = FockDims(tuple(dims))
    v = rng.normal(size=fd.size) + 1j * rng.normal(size=fd.size)
    return PureState(fd, v).normalized()


def random_density(dims, rng=RNG):
    fd = FockDims(tuple(dims))
    m = rng.normal(size=(fd.size, fd.size)) + 1j * rng.normal(size=(fd.size, fd.size))
    m = m @ m.conj().T
    return DensityOperator(fd, m / np.trace(m).real)


# ---------------------------------------------------------------- dims


def test_index_maps_are_mutual_inverses():
    fd = FockDims((3, 5, 2))
    for flat in range(fd.size):
        occ = fd.multi_index(flat)
        assert fd.flat_index(occ) == flat
    for occ in [(0, 0, 0), (2, 4, 1), (1, 3, 0)]:
        assert fd.multi_index(fd.flat_index(occ)) == occ


def test_dims_must_be_positive():
    with pytest.raises(ValueError):
        FockDims((3, 0))
    with pytest.raises(ValueError):
        FockDims(())


def test_ladder_operator_action_is_exact():
    from gaussify import ModeOperator

    d = 7
    a = ModeOperator.annihilation(d).matrix
    for n in range(1, d):
        ket = np.zeros(d)
        ket[n] = 1.0
        out = a @ ket
        expected = np.zeros(d)
        expected[n - 1] = math.sqrt(n)
        assert np.array_equal(out.real, expected)
    assert np.array_equal(
        ModeOperator.number(d).matrix.real, np.diag(np.arange(d, dtype=float))
    )
    assert np.array_equal(
        ModeOperator.creation(d).matrix, a.conj().T
    )


# ---------------------------------------------------------------- tensor


def test_tensor_of_vacua_is_vacuum():
    psi = tensor(vacuum(3), vacuum(3))
    assert psi.dims.dims == (3, 3)
    expected = np.zeros(9)
    expected[0] = 1.0
    assert np.allclose(psi.amplitudes, expected)


def test_tensor_of_identities_is_identity():
    out = tensor(np.eye(2), np.eye(2))
    assert np.allclose(out, np.eye(4))


def test_tensor_two_copies_has_squared_dimension():
    rho = random_density((3, 3))
    both = tensor(rho, rho)
    assert both.dims.dims == (3, 3, 3, 3)
    assert both.matrix.shape == (81, 81)
    assert abs(both.trace() - 1.0) < 1e-12


def test_tensor_promotes_pure_to_density_when_mixed():
    out = tensor(random_pure((2,)), random_density((2,)))
    assert isinstance(out, DensityOperator)
    assert out.dims.dims == (2, 2)


# ---------------------------------------------------------------- partial trace


def test_partial_trace_of_basis_state():
    rho = fock_ket((3, 3), (0, 1)).to_density()
    red = partial_trace(rho, keep=(0,))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(red.matrix, expected)


def test_partial_trace_of_entangled_pair_is_maximally_mixed():
    bell = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
    for keep in ((0,), (1,)):
        red = partial_trace(bell.to_density(), keep)
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-14)


def _loop_partial_trace(rho, keep):
    """Index-loop contraction, independent of the einsum implementation."""
    dims = rho.dims.dims
    keep = sorted(keep)
    traced = [m for m in range(len(dims)) if m not in keep]
    out_dims = FockDims(tuple(dims[m] for m in keep))
    out = np.zeros((out_dims.size, out_dims.size), dtype=complex)
    for i in range(rho.dims.size):
        occ_i = rho.dims.multi_index(i)
        for j in range(rho.dims.size):
            occ_j = rho.dims.multi_index(j)
            if all(occ_i[m] == occ_j[m] for m in traced):
                r = out_dims.flat_index(tuple(occ_i[m] for m in keep))
                c = out_dims.flat_index(tuple(occ_j[m] for m in keep))
                out[r, c] += rho.matrix[i, j]
    return out


def test_partial_trace_recovers_tensor_factors():
    rho = random_density((3, 2))
    sigma = random_density((2,))
    both = tensor(rho, sigma)
    red = partial_trace(both, keep=(0, 1))
    assert np.max(np.abs(red.matrix - rho.matrix)) < 1e-13
    assert np.max(np.abs(red.matrix - _loop_partial_trace(both, (0, 1)))) < 1e-13


def test_partial_trace_matches_loop_oracle_on_random_state():
    rho = random_density((2, 3, 2))
    for keep in ((0,), (1,), (0, 2), (1, 2)):
        got = partial_trace(rho, keep)
        assert np.max(np.abs(got.matrix - _loop_partial_trace(rho, keep))) < 1e-13
        assert abs(got.trace() - rho.trace()) < 1e-12


def test_partial_trace_rejects_bad_modes():
    rho = random_density((2, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, keep=())
    with pytest.raises(ValueError):
        partial_trace(rho, keep=(2,))


# ---------------------------------------------------------------- beam splitter


def test_beamsplitter_preserves_vacuum():
    U = beamsplitter_unitary(4)
    v = fock_ket((4, 4), (0, 0)).amplitudes
    assert np.allclose(U @ v, v)


def test_beamsplitter_splits_single_photon_evenly():
    d = 4
    U = beamsplitter_unitary(d)
    out = U @ fock_ket((d, d), (1, 0)).amplitudes
    expected = np.zeros(d * d, dtype=complex)
    expected[FockDims((d, d)).flat_index((1, 0))] = 1 / math.sqrt(2)
    expected[FockDims((d, d)).flat_index((0, 1))] = 1 / math.sqrt(2)
    assert np.max(np.abs(out - expected)) < 1e-14


def test_beamsplitter_two_photon_interference():
    # (a+ + b+)(-a+ + b+)|0,0>/2 = (|0,2> - |2,0>)/sqrt(2): both photons bunch
    d = 4
    U = beamsplitter_unitary(d)
    out = U @ fock_ket((d, d), (1, 1)).amplitudes
    fd = FockDims((d, d))
    expected = np.zeros(d * d, dtype=complex)
    expected[fd.flat_index((0, 2))] = 1 / math.sqrt(2)
    expected[fd.flat_index((2, 0))] = -1 / math.sqrt(2)
    assert np.max(np.abs(out - expected)) < 1e-14
    assert abs(out[fd.flat_index((1, 1))]) < 1e-14


def test_beamsplitter_commutes_with_total_photon_number():
    d = 5
    U = beamsplitter_unitary(d)
    n = np.diag(np.arange(d, dtype=float))
    N = np.kron(n, np.eye(d)) + np.kron(np.eye(d), n)
    assert np.max(np.abs(U @ N - N @ U)) == 0.0


def test_beamsplitter_unitary_on_safe_blocks():
    d = 5
    U = beamsplitter_unitary(d)
    gram = U.conj().T @ U
    fd = FockDims((d, d))
    for i in range(d * d):
        n1, n2 = fd.multi_index(i)
        if n1 + n2 < d:
            col = gram[:, i].copy()
            col[i] -= 1.0
            assert np.max(np.abs(col)) < 1e-14
        else:
            # unsafe blocks lose the weight that would cross the cutoff
            assert gram[i, i].real <= 1.0 + 1e-14


def test_beamsplitter_transmissivity_amplitudes():
    d, t = 4, 0.82
    U = beamsplitter_unitary(d, transmissivity=t)
    fd = FockDims((d, d))
    out = U @ fock_ket((d, d), (1, 0)).amplitudes
    assert abs(out[fd.flat_index((1, 0))] - math.sqrt(t)) < 1e-14
    assert abs(out[fd.flat_index((0, 1))] - math.sqrt(1 - t)) < 1e-14
    out = U @ fock_ket((d, d), (0, 1)).amplitudes
    assert abs(out[fd.flat_index((1, 0))] + math.sqrt(1 - t)) < 1e-14
    assert abs(out[fd.flat_index((0, 1))] - math.sqrt(t)) < 1e-14


def _mpmath_beamsplitter(d, transmissivity):
    """<m,n|U|p,q> at 40 digits from the binomial expansion of
    (t a+ + r b+)^p (-r a+ + t b+)^q |0,0> / sqrt(p! q!), rounded to double."""
    from mpmath import mp

    U = np.zeros((d * d, d * d))
    with mp.workdps(40):
        t = mp.sqrt(mp.mpf(transmissivity))
        r = mp.sqrt(1 - mp.mpf(transmissivity))
        for p in range(d):
            for q in range(d):
                for m in range(max(0, p + q - d + 1), min(d, p + q + 1)):
                    n = p + q - m
                    # j of the p photons and m - j of the q photons leave by port a
                    s = mp.fsum(
                        mp.binomial(p, j) * mp.binomial(q, m - j)
                        * t**j * r ** (p - j) * (-r) ** (m - j) * t ** (q - m + j)
                        for j in range(max(0, m - q), min(p, m) + 1)
                    )
                    norm = mp.factorial(m) * mp.factorial(n) / (mp.factorial(p) * mp.factorial(q))
                    U[m * d + n, p * d + q] = float(s * mp.sqrt(norm))
    return U


def test_beamsplitter_matches_mpmath_reference():
    for d, transmissivity in ((10, 0.5), (16, 0.5), (8, 0.9)):
        ref = _mpmath_beamsplitter(d, transmissivity)
        assert np.max(np.abs(beamsplitter_unitary(d, transmissivity) - ref)) < 1e-15


# ---------------------------------------------------------------- squeezer


def test_squeezer_at_zero_is_identity():
    assert np.allclose(squeezer_unitary(8, 0.0), np.eye(8))


def test_squeezer_vacuum_amplitude():
    s = 0.5
    S = squeezer_unitary(40, s)
    assert abs(S[0, 0] - 1 / math.sqrt(math.cosh(s))) < 1e-12


def test_squeezed_vacuum_amplitude_series():
    # <2n|S(s)|0> = (-tanh s)^n sqrt((2n)!)/(2^n n!) / sqrt(cosh s)
    s, d = 0.5, 40
    col = squeezer_unitary(d, s)[:, 0]
    t = math.tanh(s)
    for n in range(8):
        expected = (-t) ** n * math.sqrt(math.factorial(2 * n)) / (
            2**n * math.factorial(n)
        ) / math.sqrt(math.cosh(s))
        assert abs(col[2 * n] - expected) < 1e-10
        if 2 * n + 1 < d:
            assert abs(col[2 * n + 1]) < 1e-14


def test_squeezer_inverse_on_low_levels():
    d, s = 16, 0.4
    prod = squeezer_unitary(d, s) @ squeezer_unitary(d, -s)
    low = d // 2
    assert np.max(np.abs(prod[:low, :low] - np.eye(d)[:low, :low])) < 1e-10


# ---------------------------------------------------------------- displacement


def test_displacement_at_zero_is_identity():
    assert np.allclose(displacement_unitary(8, 0.0), np.eye(8))


def test_displaced_vacuum_is_poissonian():
    alpha = 0.8 + 0.4j
    col = displacement_unitary(24, alpha)[:, 0]
    a2 = abs(alpha) ** 2
    for n in range(8):
        assert abs(abs(col[n]) ** 2 - math.exp(-a2) * a2**n / math.factorial(n)) < 1e-12


def test_displacement_inverse_on_low_levels():
    d = 24
    prod = displacement_unitary(d, 0.7) @ displacement_unitary(d, -0.7)
    assert np.max(np.abs(prod[:10, :10] - np.eye(d)[:10, :10])) < 1e-12


@pytest.mark.parametrize("d", [8, 24])
def test_unitaries_match_scipy_expm(d):
    """The eigen-decomposition exponentials agree with scipy's Pade expm."""
    from scipy.linalg import expm

    a = fock.destroy(d)
    for alpha in (2.0, -2j, 1.2 - 1.6j, 0.3 + 0.1j, 2 * np.exp(0.7j)):
        ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
        assert np.max(np.abs(displacement_unitary(d, alpha) - ref)) < 1e-13
    for s in (1.0, -1.0, 0.37, -0.6):
        S = squeezer_unitary(d, s)
        assert not np.any(S.imag)
        assert np.max(np.abs(S - expm(0.5 * s * (a @ a - a.T @ a.T)))) < 1e-13


# ---------------------------------------------------------------- apply_unitary


def test_apply_identity_leaves_state():
    psi = random_pure((3, 3))
    out = apply_unitary(psi, np.eye(3), (1,))
    assert np.allclose(out.amplitudes, psi.amplitudes)


def _safe_block_density(d, rng=RNG):
    """Random two-mode density supported on total photon number < d, where the
    truncated splitter is exactly unitary."""
    fd = FockDims((d, d))
    m = rng.normal(size=(fd.size, fd.size)) + 1j * rng.normal(size=(fd.size, fd.size))
    for i in range(fd.size):
        if sum(fd.multi_index(i)) >= d:
            m[i, :] = 0.0
            m[:, i] = 0.0
    m = m @ m.conj().T
    return DensityOperator(fd, m / np.trace(m).real)


def test_apply_unitary_then_inverse():
    rho = _safe_block_density(3)
    U = beamsplitter_unitary(3)
    back = apply_unitary(apply_unitary(rho, U, (0, 1)), U.conj().T, (0, 1))
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


def test_apply_unitary_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        apply_unitary(random_pure((3, 3)), np.eye(4), (0,))


def test_apply_unitary_preserves_trace_and_hermiticity():
    rho = _safe_block_density(3)
    out = apply_unitary(rho, beamsplitter_unitary(3), (0, 1))
    assert abs(out.trace() - 1.0) < 1e-12
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12


def test_beamsplitter_pair_matches_dense_kron_oracle():
    # apply the splitter to modes (0,1) and (2,3) of rho (x) rho and compare
    # against an explicitly assembled 4-mode matrix
    d = 3
    rho = random_density((d, d))
    both = tensor(rho, rho)  # (A1, B1, A2, B2)
    perm = np.zeros((d**4, d**4))
    for a1 in range(d):
        for b1 in range(d):
            for a2 in range(d):
                for b2 in range(d):
                    src = ((a1 * d + b1) * d + a2) * d + b2
                    dst = ((a1 * d + a2) * d + b1) * d + b2
                    perm[dst, src] = 1.0
    rho4 = DensityOperator((d, d, d, d), perm @ both.matrix @ perm.T)
    U = beamsplitter_unitary(d)
    got = apply_unitary(apply_unitary(rho4, U, (0, 1)), U, (2, 3))
    dense = np.kron(U, U) @ rho4.matrix @ np.kron(U, U).conj().T
    assert np.max(np.abs(got.matrix - dense)) < 1e-13


# -------------------------------------------------- squeezing identities


def _low_photon_vectors(d):
    """Two-mode basis states with total photon number <= 2."""
    occs = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    return [fock_ket((d, d), occ).amplitudes for occ in occs]


def test_beamsplitter_commutes_with_pairwise_squeezing():
    d, s = 30, 0.3
    U = beamsplitter_unitary(d)
    SS = np.kron(squeezer_unitary(d, s), squeezer_unitary(d, s))
    for v in _low_photon_vectors(d):
        residual = np.linalg.norm(U @ (SS @ v) - SS @ (U @ v))
        assert residual < 1e-6


def test_commutation_residual_vanishes_with_dimension():
    s = 0.5
    residuals = []
    for d in (20, 30, 40, 50):
        U = beamsplitter_unitary(d)
        SS = np.kron(squeezer_unitary(d, s), squeezer_unitary(d, s))
        v = fock_ket((d, d), (1, 1)).amplitudes
        residuals.append(np.linalg.norm(U @ (SS @ v) - SS @ (U @ v)))
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < 1e-6


def test_projected_squeezing_identity():
    # <0|(S x I) U = <0|(I x S+) U (S x S), projecting the first output
    d = 30
    U = beamsplitter_unitary(d)
    for s in (0.3, -0.3):
        S = squeezer_unitary(d, s)
        SI = np.kron(S, np.eye(d))
        IS_dag = np.kron(np.eye(d), S.conj().T)
        SS = np.kron(S, S)
        for v in _low_photon_vectors(d):
            lhs = (SI @ (U @ v)).reshape(d, d)[0, :]
            rhs = (IS_dag @ (U @ (SS @ v))).reshape(d, d)[0, :]
            assert np.linalg.norm(lhs - rhs) < 1e-6


# ---------------------------------------------------------------- pad


def test_pad_embeds_and_projects():
    psi = random_pure((3, 3))
    bigger = pad(psi, (5, 5))
    assert bigger.dims.dims == (5, 5)
    assert abs(bigger.norm() - 1.0) < 1e-12
    back = pad(bigger, (3, 3))
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-14

    rho = random_density((3,  3))
    big = pad(rho, (4, 4))
    assert abs(big.trace() - 1.0) < 1e-12
    back = pad(big, (3, 3))
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-14


@pytest.mark.parametrize("total", [False, True])
def test_sector_rows_fold_two_sectors_into_each_of_d_blocks(total):
    """Block k holds |n, (n - k) mod d>: the i - j sectors k and k - d, or with
    ``total`` the total photon numbers k and k + d."""
    for d in range(1, 9):
        rows = fock._sector_rows(d, total)
        assert rows.shape == (d, d) and not rows.flags.writeable
        assert np.array_equal(np.sort(rows, axis=None), np.arange(d * d))
        i, j = np.divmod(rows, d)
        k = np.arange(d)[:, None]
        label, other = (i + j, k + d) if total else (i - j, k - d)
        assert np.all((label == k) | (label == other))


def _random_sector_matrix(d, rng):
    """A random complex matrix r[i, j, I, J] that vanishes unless I - i = J - j."""
    i, j, bra_a, bra_b = np.indices((d,) * 4)
    r = rng.normal(size=(d,) * 4) + 1j * rng.normal(size=(d,) * 4)
    return np.where(bra_a - i == bra_b - j, r, 0)


def test_sector_form_round_trips_through_the_one_sector_index():
    """`_sectors` gathers the sector form and `_from_sectors` places it back,
    both through `_sector_index`'s mask and flat positions."""
    rng = np.random.default_rng(24)
    for d in range(1, 13):
        cutoff = max(d, 2)  # an on/off iterate at d, cut from cutoff 2 at d = 1
        onoff = run(ProtocolConfig(steps=3, epsilon=0.95, truncation=cutoff, max_truncation=cutoff,
                                   detector=OnOff(0.6))).final_state
        inside, at = fock._sector_index(d)
        assert inside.shape == (2 * d - 1, d, d) and at.ndim == 1
        assert not inside.flags.writeable and not at.flags.writeable
        assert at.size == inside.sum() == np.unique(at).size
        # the positions are exactly the entries of r[i, j, I, J] with I - i = J - j
        i, j, bra_a, bra_b = np.indices((d,) * 4)
        assert np.array_equal(np.sort(at), np.flatnonzero(bra_a - i == bra_b - j))

        iterate = pad(onoff, (d, d)).matrix.reshape((d,) * 4)
        assert not np.any(iterate.imag)
        for r in (iterate, iterate.real, _random_sector_matrix(d, rng), _random_sector_matrix(d, rng).real):
            rs = fock._sectors(r)
            assert rs is not None and rs.dtype == r.dtype
            back = fock._from_sectors(rs)
            assert back.shape == (d * d, d * d) and back.dtype == r.dtype
            assert back.tobytes() == np.ascontiguousarray(r).tobytes()

        # a single non-zero entry outside the sectors makes r no sector state
        off = np.flatnonzero(bra_a - i != bra_b - j)
        if off.size:
            r = _random_sector_matrix(d, rng)
            r.reshape(-1)[rng.choice(off)] = 1e-300
            assert fock._sectors(r) is None
            assert fock._sectors(r.real) is None


# ------------------------------------------------------------ storage dtype


def test_real_and_integer_entries_are_stored_as_float64_without_a_copy():
    d = 3
    real = RNG.normal(size=(d * d, d * d))
    assert DensityOperator((d, d), real).matrix is real
    ket = PureState((d, d), real[0])
    assert ket.amplitudes.dtype == np.float64 and np.shares_memory(ket.amplitudes, real)
    for ints in (np.arange(d * d), list(range(d * d))):
        assert PureState((d, d), ints).amplitudes.dtype == np.float64
    identity = DensityOperator((d,), np.eye(d, dtype=int))
    assert identity.matrix.dtype == np.float64 and np.array_equal(identity.matrix, np.eye(d))


def test_complex_entries_are_stored_as_float64_exactly_when_every_imaginary_part_is_zero():
    d = 3
    real = RNG.normal(size=(d * d, d * d))
    cplx = real.astype(complex)
    cplx.imag[::2] = -0.0
    assert np.any(np.signbit(cplx.imag))
    # a new, owning C-contiguous float64 array, not a view of the complex buffer
    for stored in (DensityOperator((d, d), cplx).matrix, PureState((d, d), cplx[1]).amplitudes):
        assert stored.dtype == np.float64 and stored.flags.c_contiguous and stored.flags.owndata
        assert not np.shares_memory(stored, cplx)
    assert np.array_equal(DensityOperator((d, d), cplx).matrix, real)
    # one non-zero imaginary part, however small, keeps the entries complex
    for imag in (5e-324, np.nan):
        tipped = cplx.copy()
        tipped.imag[2, 1] = imag
        stored = DensityOperator((d, d), tipped).matrix
        assert stored.dtype == complex and np.array_equal(stored, tipped, equal_nan=True)
        amplitudes = PureState((d, d), tipped[2]).amplitudes
        assert amplitudes.dtype == complex and np.array_equal(amplitudes, tipped[2], equal_nan=True)


def test_built_in_states_and_state_operations_keep_float64():
    d = 4
    kets = [fock_ket((d, d), (1, 2)), vacuum((d, d)), two_mode_squeezed_ket(0.5, d),
            prepare_epsilon_state(0.95, d)]
    for ket in kets:
        rho = ket.to_density()
        derived = [ket, rho, pad(ket, (d + 2, d + 2)), pad(rho, (d + 2, d + 2)),
                   PureState(ket.dims, 2 * ket.amplitudes).normalized(),
                   DensityOperator(rho.dims, 3 * rho.matrix).normalized(),
                   tensor(ket, ket), tensor(ket, rho), tensor(rho, rho),
                   partial_trace(rho, [0]), partial_trace(tensor(rho, ket), [1, 3])]
        for state in derived:
            entries = state.amplitudes if isinstance(state, PureState) else state.matrix
            assert entries.dtype == np.float64


def test_every_record_of_a_lossy_run_holds_a_float64_state():
    trace = run(ProtocolConfig(steps=10, epsilon=0.95, detector=OnOff(0.6), max_truncation=16))
    assert trace.final_state.dims.dims == (16, 16)
    for record in trace.records:
        d = record.state.dims.dims[0]
        if record.step == 0:
            assert record.state.amplitudes.dtype == np.float64
            assert record.state.amplitudes.nbytes == d**2 * 8
        else:
            assert record.state.matrix.dtype == np.float64
            assert record.state.matrix.nbytes == d**4 * 8


def test_photon_subtracted_source_is_float64_and_steps_on_the_sector_kernel():
    source = prepare_photon_subtracted(0.3, 0.9, 10).conditional_state
    assert source.matrix.dtype == np.float64
    with mock.patch.object(protocol, "_sector_contraction", wraps=protocol._sector_contraction) as sector:
        one_step(source, OnOff(0.6))
    assert sector.call_count == 1 and sector.call_args.args[0].dtype == np.float64


def test_a_density_state_finds_its_sector_form_once():
    """One `_sectors` call per distinct two-mode density state of a run whose
    every record's E_N and Gaussianity are read, whether the step, the
    metrics or both read it; the re-run steps on padded states count too."""
    padded = []
    spy_pad = mock.patch.object(protocol, "pad", side_effect=lambda s, d: padded.append(pad(s, d)) or padded[-1])
    with mock.patch.object(fock, "_sectors", wraps=fock._sectors) as sectors, spy_pad:
        trace = run(ProtocolConfig(steps=3, epsilon=0.95, detector=OnOff(0.6), max_truncation=12))
        for record in trace.records:
            assert record.log_negativity > 0 and record.gaussianity >= 0
            if isinstance(record.state, DensityOperator):  # read again, outside the record's cache
                logarithmic_negativity(record.state), gaussianity_distance(record.state)
    states = [r.state for r in trace.records] + padded
    densities = [s for s in states if isinstance(s, DensityOperator)]
    assert len(densities) == sectors.call_count == 5
    # each call read a different state's entries
    for k, state in enumerate(densities):
        read = [c.args[0] for c in sectors.call_args_list if np.shares_memory(c.args[0], state.matrix)]
        assert len(read) == 1, k
    for state in densities:
        form = state._sector_form
        assert form is state._sector_form and not form.flags.writeable
        assert form.tobytes() == fock._sectors(state.tensor_view()).tobytes()
        with pytest.raises(ValueError):
            form[0, 0, 0] = 1.0
