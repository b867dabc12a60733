"""The iterative two-copy distillation driver.

One step: clone the current state, mix each party's pair of copies on a
balanced beam splitter, condition the second output of each pair on the
detector's success effect, and retain the first outputs. Iterating drives
any input toward a Gaussian state while (for good detectors) raising its
entanglement.

One kernel serves both variants: a step acts on a state of shape (A, B), and
each party mixes its two copies on its own splitter and conditions the
measured output on its own effect. The single-mode variant is the two-party
step whose party B has cutoff 1, splitter [[1]] and effect [1] (no detector).
Every splitter is a `fock._Splitter`: the tap of `prepare_photon_subtracted`,
and each cutoff's balanced one, shared by its steps, a `_BalancedSplitter`,
the one class that holds the sector contraction's tables.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from . import measures
from .fock import (
    DensityOperator,
    FockDims,
    PureState,
    _Splitter,
    _from_sectors,
    _read_only,
    pad,
    two_mode_squeezed_ket,
)
from .measurements import (
    EFFECT_TOL,
    DetectorModel,
    HomodyneFilter,
    IdealVacuum,
    MeasurementOutcome,
    RareOutcomeError,
    _kraus_sum,
    _outcome,
    success_diagonal,
)

DEFAULT_TRUNCATION = {1: 10, 2: 6}
DEFAULT_MAX_TRUNCATION = {1: 16, 2: 10}
LEAK_THRESHOLD = 1e-6


@dataclass
class ProtocolConfig:
    """Run parameters for the iterated protocol."""

    steps: int
    epsilon: float = 0.95
    mode_count: int = 2
    truncation: Optional[int] = None
    max_truncation: Optional[int] = None
    detector: DetectorModel = field(default_factory=IdealVacuum)
    initial_state: Optional[Union[PureState, DensityOperator]] = None

    def __post_init__(self):
        for name in ("steps", "truncation", "max_truncation"):  # 6.5 would truncate silently
            value = getattr(self, name)
            try:
                setattr(self, name, value if value is None and name != "steps" else operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.mode_count not in (1, 2):
            raise ValueError("mode_count must be 1 or 2 per copy")
        if self.truncation is None:
            self.truncation = DEFAULT_TRUNCATION[self.mode_count]
        _check_input(self.epsilon, self.truncation)
        if self.max_truncation is None:
            self.max_truncation = max(self.truncation, DEFAULT_MAX_TRUNCATION[self.mode_count])
        if self.max_truncation < self.truncation:
            raise ValueError("max_truncation must be >= truncation")


@dataclass
class IterationRecord:
    """Per-step diagnostics; step 0 describes the initial state.

    The record keeps the state after its step; the metrics are computed from
    it when first read and cached.
    """

    step: int
    p_success: float
    p_cumulative: float
    leak: float
    state: Union[PureState, DensityOperator] = field(repr=False, compare=False)

    @cached_property
    def log_negativity(self) -> float:
        """E_N in ebits; NaN for a single-mode state."""
        if self.state.dims.n_modes != 2:
            return math.nan
        return measures.logarithmic_negativity(self.state)

    @cached_property
    def purity(self) -> float:
        return measures.purity(self.state)

    @cached_property
    def gaussianity(self) -> float:
        """Gaussianity distance; NaN when the distance raises ValueError."""
        try:
            return measures.gaussianity_distance(self.state)
        except ValueError:
            return math.nan


@dataclass
class DistillationTrace:
    config: ProtocolConfig
    records: list[IterationRecord]

    @property
    def final_state(self) -> Union[PureState, DensityOperator]:
        return self.records[-1].state


def _check_input(epsilon: float, d: int):
    """Raise ValueError unless the input family's epsilon is finite and >= 0
    and its cutoff d is at least 2, which |1...1> needs."""
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    if d < 2:
        raise ValueError("truncation must be >= 2")


def _epsilon_state(epsilon: float, d: int, n_modes: int) -> PureState:
    """(|0...0> + epsilon |1...1>)/sqrt(1 + epsilon^2) on n_modes modes of cutoff d."""
    _check_input(epsilon, d)
    fd = FockDims((d,) * n_modes)
    amps = np.zeros(fd.size)
    amps[0] = 1.0
    amps[fd.flat_index((1,) * n_modes)] = epsilon
    return PureState(fd, amps / math.sqrt(1.0 + epsilon**2))


def prepare_epsilon_state(epsilon: float, d: int) -> PureState:
    """Two-mode input family (|0,0> + epsilon |1,1>)/sqrt(1 + epsilon^2)."""
    return _epsilon_state(epsilon, d, 2)


def prepare_single_mode_state(epsilon: float, d: int) -> PureState:
    """Single-mode input family (|0> + epsilon |1>)/sqrt(1 + epsilon^2)."""
    return _epsilon_state(epsilon, d, 1)


def prepare_photon_subtracted(r: float, t: float, d: int) -> MeasurementOutcome:
    """Two-mode squeezed vacuum with a weak tap on each mode, conditioned on
    a click (one or more photons) at both tap detectors.

    Returns the normalized two-mode output together with the joint click
    probability. Non-Gaussian by construction.
    """
    if not r > 0:
        raise ValueError("source squeezing r must be positive")
    if not 0.0 < t < 1.0:
        raise ValueError("tap transmissivity must lie in (0, 1)")
    psi = two_mode_squeezed_ket(r, d).amplitudes.reshape(d, d)
    # tap splitter v[a, m, i]: kept a, tap m >= 1 (a click) <- source i, tap vacuum
    v = _Splitter(d, t).u[:, 1:, :, 0]
    kraus = np.einsum("ami,ij,bnj->abmn", v, psi, v, optimize=True).reshape(d * d, -1)
    return _outcome(FockDims((d, d)), _kraus_sum(kraus))


class _BalancedSplitter(_Splitter):
    """The `_Splitter` at T = 1/2, where the copy-swap fold of `_sector_contraction` holds, with its tables."""

    @cached_property
    def sector_tables(self) -> tuple:
        """(gram, plan), read-only: gram[delta, i, p] = (U^dagger U)[(i + delta, p - delta), (i, p)], all of
        U^dagger U; per output sector kappa = 0 ... d - 1, (lo, shifted(kappa, lo), the column weighting each
        copy-1 sector delta in lo ... d - 1 by 2, or 1 at delta = kappa / 2: a copy swap), where the view
        shifted(kappa, lo)[a, delta - lo, i, p] = u[a + kappa, i + p - a, i + delta, p + kappa - delta],
        a < d - kappa, reads `compact` padded by d - 1 zero levels on both sides of i and p."""
        d = self.d
        padded = np.zeros((d, 3 * d - 2, 3 * d - 2))
        padded[:, d - 1 : 2 * d - 1, d - 1 : 2 * d - 1] = self.compact
        s0, s1, s2 = _read_only(padded).strides

        def shifted(kappa, lo):
            start = padded[kappa:, d - 1 + lo :, d - 1 + kappa - lo :]
            shape = (d - kappa, d - lo, d, d)
            return np.lib.stride_tricks.as_strided(start, shape, (s0, s1 - s2, s1, s2), writeable=False)

        plan = []
        for kappa in range(d):
            lo = (kappa + 1) // 2
            twice = np.where(2 * np.arange(lo, d) == kappa, 1.0, 2.0)[:, None, None]
            plan.append((lo, shifted(kappa, lo), _read_only(twice)))
        return _read_only(np.einsum("aip,adip->dip", self.compact, shifted(0, 1 - d))), tuple(plan)


@lru_cache(maxsize=2)
def _balanced_splitter(d: int) -> _BalancedSplitter:
    """The `_BalancedSplitter` every step at cutoff d shares; an adaptive step never returns to d after
    d + 2. Two entries serve eta-sweep's sweeps, which alternate cutoffs 6 and 8; lossy runs restart at 6
    and rebuild (the first 60 seed-1 lossy-adaptive commands: 192 builds, 0.12 of 1.9 s under cProfile)."""
    return _BalancedSplitter(d)


def _party(detector: DetectorModel, d: int):
    """One party's `_BalancedSplitter` (see `_balanced_splitter`) and the diagonal e of its
    detector's success effect, with entries at or below EFFECT_TOL set to zero."""
    e = success_diagonal(detector, d)
    return _balanced_splitter(d), np.where(e > EFFECT_TOL, e, 0.0)


# Party B of the single-mode variant: cutoff 1, beam splitter [[1]] and effect
# [1], i.e. no detector. A single-mode state of cutoff d runs as shape (d, 1).
_NO_PARTY = (_Splitter(1), np.ones(1))


def _pure_contraction(psi: np.ndarray, party_a, party_b):
    """Both copies of psi[A, B] through both parties' splitters and effects.

    Returns kraus[kept (a, b), outcome (m, n)], the unnormalized kept ket of
    each measured outcome pair weighted by sqrt(e_A[m] e_B[n]), and the trace
    of the state after mixing. Outcomes of zero weight are dropped, so when
    both effects have rank one the output stays pure.
    """
    (ua, ea), (ub, eb) = (party_a[0].u, party_a[1]), (party_b[0].u, party_b[1])
    # phi[a, m, b, n]: (A kept, A measured, B kept, B measured)
    x = np.einsum("amip,ij->ampj", ua, psi, optimize=True)
    y = np.einsum("ampj,pq->amjq", x, psi, optimize=True)
    phi = np.einsum("amjq,bnjq->ambn", y, ub, optimize=True)
    trace_after = float(np.sum(np.abs(phi) ** 2))
    sa, sb = np.flatnonzero(ea), np.flatnonzero(eb)
    weighted = phi[:, sa][..., sb] * np.sqrt(ea[sa])[:, None, None] * np.sqrt(eb[sb])
    return weighted.transpose(0, 2, 1, 3).reshape(psi.size, -1), trace_after


def _density_contraction(r: np.ndarray, party_a, party_b):
    """Both copies of r[i, j, I, J] (ket A, ket B, bra A, bra B) through both
    parties' splitters and effects; never materializes the four-mode matrix.

    Returns the unnormalized kept density matrix and the trace of the state
    after mixing, the same contraction with unit effects.
    """
    (ua, ea), (ub, eb) = (party_a[0].u, party_a[1]), (party_b[0].u, party_b[1])
    s = np.einsum("m,amip,cmIP,ijIJ,pqPQ->acjJqQ", ea, ua, ua.conj(), r, r, optimize=True)
    kb = np.einsum("n,bnjq,dnJQ->bdjJqQ", eb, ub, ub.conj(), optimize=True)
    out = np.einsum("acjJqQ,bdjJqQ->abcd", s, kb, optimize=True)
    trace_after = np.einsum("amip,amIP,ijIJ,pqPQ,bnjq,bnJQ->", ua, ua.conj(), r, r, ub, ub.conj(),
                            optimize=True)
    size = r.shape[0] * r.shape[1]
    return out.reshape(size, size), float(np.real(trace_after))


def _sector_contraction(rs: np.ndarray, party_a, party_b):
    """The kept output of `_density_contraction` for a two-mode state held as
    its sector form rs (see `_sectors`), as the output's sector form, which
    `fock._from_sectors` places in the dense matrix; both copies and both
    splitters conserve photon number, so output sector kappa collects copy-1
    sector delta with copy-2 sector kappa - delta.

    Both parties mix on party A's `_BalancedSplitter`; each effect vector
    weights its compact table once, and per kappa each party's O(d^4) kernel is
    v[a, delta, i, p] = e_m u[a, m, i, p] u[a + kappa, m, i + delta, p + kappa - delta].
    The loop runs over the splitter's `plan` (each kappa's lowest delta, shifted
    view and weights, built once per cutoff) and writes each block to slot d - 1 + kappa.

    Two exact identities leave a quarter of the (kappa, delta) terms to compute:
    - the output is Hermitian, so sector -kappa is the conjugate transpose of
      sector kappa: only kappa = 0 ... d - 1 are computed, and each kappa > 0
      block's conjugate is written to slot d - 1 - kappa;
    - the balanced splitter satisfies u[a, m, p, i] = (-1)^a u[a, m, i, p] (its
      float64 entries to within a few ulps), so with diagonal effects the term
      pairing copy-1 sector delta with copy-2 sector kappa - delta equals the
      one pairing kappa - delta with delta: only delta >= kappa / 2 are
      computed, each weighted 2 but the middle one, delta = kappa / 2.

    Also returns the trace after mixing, the sum over delta and (j, q) of
    (rs[delta]^T g[delta] rs[-delta]) * g[delta] with the splitter's `gram`.
    """
    d, splitter, e_a, e_b = rs.shape[1], party_a[0], party_a[1], party_b[1]
    gram, plan = splitter.sector_tables
    weighted_a = splitter.compact * e_a[splitter.measured]
    weighted_b = weighted_a if e_b is e_a else splitter.compact * e_b[splitter.measured]
    out = np.zeros(rs.shape, dtype=np.result_type(rs, weighted_a, weighted_b))
    for kappa, (lo, shifted, twice) in enumerate(plan):
        v = weighted_a[: d - kappa, None] * shifted
        w = v if weighted_b is weighted_a else weighted_b[: d - kappa, None] * shifted
        first = rs[d - 1 + lo :] * twice  # copy 1 in sector delta
        second = rs[kappa : d + kappa - lo][::-1]  # copy 2 in kappa - delta
        # x[a, delta, j, q] = sum_ip first[delta, i, j] v[a, delta, i, p] second[delta, p, q]
        x = first.transpose(0, 2, 1) @ (v @ second)
        block = x.reshape(x.shape[0], -1) @ w.reshape(w.shape[0], -1).T
        if kappa == 0:  # the output's diagonal: each term is real, up to rounding on complex input
            block = block.real
        # block[a, b] is out[a, b, a + kappa, b + kappa], its conjugate the mirror
        # out[a + kappa, b + kappa, a, b]; the real kappa = 0 block is its own mirror
        out[d - 1 + kappa, : d - kappa, : d - kappa] = block
        out[d - 1 - kappa, kappa:, kappa:] = block.conj()
    trace_after = np.sum((rs.transpose(0, 2, 1) @ gram @ rs[::-1]) * gram)
    return out, float(np.real(trace_after))


def _step(state, party_a, party_b) -> MeasurementOutcome:
    """One step on a state of shape (A, B) given each party's splitter and effect.

    A two-mode density state with exactly zero weight outside the n_A - n_B
    sectors, as every built-in iterate has, takes the sector contraction on the
    sector form the state finds once (`DensityOperator._sector_form`); every
    other density state takes the dense one. Each kernel steps the entries in
    the dtype the state stores them in: float64 for every built-in iterate, and
    the splitters and effects are real too, so the kernel runs in real arithmetic.
    """
    shape = (party_a[1].size, party_b[1].size)
    if isinstance(state, PureState):
        kraus, trace_after = _pure_contraction(state.amplitudes.reshape(shape), party_a, party_b)
        out = _kraus_sum(kraus)
    elif isinstance(state, DensityOperator):
        rs = state._sector_form
        if rs is None:
            out, trace_after = _density_contraction(state.matrix.reshape(shape + shape), party_a, party_b)
        else:
            out_rs, trace_after = _sector_contraction(rs, party_a, party_b)
            out = _from_sectors(out_rs)
    else:
        raise TypeError(f"unsupported state type {type(state)!r}")
    return _outcome(state.dims, out, max(0.0, 1.0 - trace_after))


def one_step(state, detector: DetectorModel) -> MeasurementOutcome:
    """One distillation step on a two-mode state under the given detector.

    Clones the input, mixes each party's copies on a balanced beam splitter,
    and conditions the measured output of each party on the detector's
    success effect (applied independently at both parties).
    """
    dims = state.dims.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError(f"expected a two-mode state with equal truncations, got {dims}")
    party = _party(detector, dims[0])
    return _step(state, party, party)


def one_step_single_mode(state, detector: DetectorModel) -> MeasurementOutcome:
    """One step of the single-party variant: two copies, one balanced beam
    splitter, one detector on the second output.

    The kept first output sees (a1 - a2)/sqrt(2) of the two copies, so an
    ideal step maps (|0> + eps|1>) exactly to |0> - (eps^2/sqrt(2))|2> (up to
    normalization): the odd-photon sector is removed and any mean field is
    cancelled. The other (sum) output would multiply the mean field by
    sqrt(2) per step, pushing the weight past the cutoff cap; with it every
    10-step ideal run at eps in {0.6, 0.8, 0.95, 1.2} raises
    RareOutcomeError at step 8 or 9, so that port is not used.
    """
    dims = state.dims.dims
    if len(dims) != 1:
        raise ValueError(f"expected a single-mode state, got {dims}")
    return _step(state, _party(detector, dims[0]), _NO_PARTY)


def homodyne_step(state, x: float) -> MeasurementOutcome:
    """One two-mode step conditioning on heterodyne outcomes inside |alpha| < x."""
    return one_step(state, HomodyneFilter(x))


def _adaptive_step(state, config: ProtocolConfig):
    """Run one step, raising the truncation by 2 (up to the cap) while the
    post-mixing leak exceeds the threshold."""
    step_fn = one_step if config.mode_count == 2 else one_step_single_mode
    current = state
    while True:
        outcome = step_fn(current, config.detector)
        d = current.dims.dims[0]
        if outcome.leak <= LEAK_THRESHOLD or d >= config.max_truncation:
            return outcome
        new_d = min(d + 2, config.max_truncation)
        current = pad(current, (new_d,) * current.dims.n_modes)


def run(config: ProtocolConfig) -> DistillationTrace:
    """Iterate the protocol, recording per-step diagnostics.

    The trace has steps + 1 records; record 0 describes the initial state.
    Truncation is raised adaptively when a step leaks more than the
    threshold, capped at max_truncation (beyond the cap the leak is
    reported in the record rather than raised). Each record keeps the state
    after its step and computes its metrics only when they are read.
    """
    if config.initial_state is not None:
        state = config.initial_state
        if state.dims.n_modes != config.mode_count:
            raise ValueError("initial state mode count does not match the configuration")
    else:
        state = _epsilon_state(config.epsilon, config.truncation, config.mode_count)

    records = [IterationRecord(0, 1.0, 1.0, 0.0, state)]
    cumulative = 1.0
    for k in range(1, config.steps + 1):
        try:
            outcome = _adaptive_step(state, config)
        except RareOutcomeError as exc:
            raise RareOutcomeError(f"step {k}: {exc}") from exc
        state = outcome.conditional_state
        cumulative *= outcome.probability
        records.append(IterationRecord(k, outcome.probability, cumulative, outcome.leak, state))
    return DistillationTrace(config, records)
