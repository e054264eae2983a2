"""homsim: stochastic-wavefunction simulation of heralded entanglement
between two cavity-coupled ions and phase-controlled redistribution of the
second emitted photon behind a beam splitter."""

__version__ = "0.1.0"

from .hilbert import BasisIndex, OperatorMatrix, StateVector, embed
from .model import (
    ChannelTag,
    JumpChannel,
    ParamError,
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
)
from .experiments import (
    SweepPoint,
    SweepResult,
    fidelity_to_target,
    run_entanglement_generation,
    run_redistribution,
    sweep,
)
from .lindblad import DensityMatrix, ensemble_compare, integrate
from .analytic import (
    ModePair,
    EmitterParams,
    bs_mode_transform,
    heralded_states,
    same_detector_probability,
    emission_amplitude,
)
