"""homsim: stochastic-wavefunction simulation of heralded entanglement
between two cavity-coupled ions and phase-controlled redistribution of the
second emitted photon behind a beam splitter."""

__version__ = "0.1.0"

from .hilbert import BasisIndex, OperatorMatrix, StateVector, embed, matrix_exp
from .model import (
    ChannelTag,
    JumpChannel,
    SystemParams,
    build_h_eff,
    build_h_eff_adiabatic,
    build_hamiltonian,
    build_jump_channels,
    initial_state,
    phase_gate,
    stage_hamiltonian,
)
from .trajectory import (
    Event,
    Outcome,
    RngStream,
    StageEngine,
    TrajectoryRecord,
    run_protocol,
    run_until_click,
    step,
)
from .experiments import (
    SweepPoint,
    SweepResult,
    fidelity_to_target,
    run_entanglement_generation,
    run_redistribution,
    sweep,
)
from .lindblad import DensityMatrix, ensemble_compare, integrate, liouvillian_apply
from .analytic import (
    ModePair,
    EmitterParams,
    bs_mode_transform,
    detection_rate,
    heralded_states,
    p1_p2_split,
    same_detector_probability,
    success_probability,
    emission_amplitude,
)
