"""Iterative beam-splitter entanglement distillation of continuous-variable
optical states, simulated in truncated Fock space with ideal, inefficient
on/off, or homodyne-filtered conditioning."""

import os

# Small matrices: BLAS threads gain little and spin on the cores a --jobs pool needs (README).
if not any(map(os.environ.get, ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .fock import (
    DensityOperator,
    FockDims,
    ModeOperator,
    PureState,
    apply_unitary,
    beamsplitter_unitary,
    coherent_ket,
    displacement_unitary,
    fock_ket,
    pad,
    partial_trace,
    squeezer_unitary,
    tensor,
    two_mode_squeezed_ket,
    vacuum,
)
from .gaussian import (
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    beamsplitter_symplectic,
    covariance_of_state,
    eight_port_symplectic,
    homodyne_condition,
    ideal_step_covariance,
    symplectic_form,
    to_fock_density,
    two_mode_squeezed,
    vacuum_condition,
    williamson,
)
from .measurements import (
    DetectorModel,
    HomodyneFilter,
    IdealVacuum,
    MeasurementOutcome,
    OnOff,
    RareOutcomeError,
    coherent_projector,
    condition_on,
    filter_operator,
    no_click_effect,
    success_diagonal,
    success_effect,
    vacuum_effect,
)
from .measures import (
    WignerGrid,
    fidelity,
    gaussianity_distance,
    logarithmic_negativity,
    purity,
    wigner,
)
from .protocol import (
    DistillationTrace,
    IterationRecord,
    ProtocolConfig,
    homodyne_step,
    one_step,
    one_step_single_mode,
    prepare_epsilon_state,
    prepare_photon_subtracted,
    prepare_single_mode_state,
    run,
)

__version__ = "0.1.0"
