"""Physical model: two driven three-level ions, each in its own single-mode
cavity, with the cavity outputs mixed on a beam splitter in front of two
photon detectors.

Level scheme per ion: two ground states |a>, |b> and one far-detuned upper
level |c>.  A classical field drives a<->c with Rabi coupling omega, the
cavity mode couples b<->c with strength g, and both transitions share the
detuning delta.  Completing a->c->b deposits one photon in the cavity, which
then leaks (total rate 2*kappa) toward the detectors.

Everything is expressed in units of g (time in 1/g).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import (
    BasisIndex,
    OperatorMatrix,
    StateVector,
    embed,
    fock_destroy,
    level_transfer,
)


class ChannelTag(enum.Enum):
    """Which collapse happened.  D1/D2 are observed detector clicks; the rest
    collapse the state but produce no record (see `recorded`)."""

    D1 = "D1"
    D2 = "D2"
    LOST_D1 = "LOST_D1"
    LOST_D2 = "LOST_D2"
    SPONT_A_ION1 = "SPONT_A_ION1"
    SPONT_B_ION1 = "SPONT_B_ION1"
    SPONT_A_ION2 = "SPONT_A_ION2"
    SPONT_B_ION2 = "SPONT_B_ION2"

    @property
    def recorded(self) -> bool:
        return self is ChannelTag.D1 or self is ChannelTag.D2


class ParamError(ValueError):
    """A SystemParams value out of range.  `field` names the offending field,
    and the message starts with it."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field = field


@dataclass(frozen=True)
class SystemParams:
    """All physical and numerical knobs, in units of g.

    lam is the beam splitter intensity ratio R/T; probability conservation
    fixes R = lam/(1+lam), T = 1/(1+lam) so the detector modes stay a unitary
    mix of the two cavity modes.  eta is the detection efficiency: each
    leaked photon is recorded with probability eta and silently lost
    otherwise.  adiabatic selects the reduced two-ground-state Hamiltonian
    (valid only without spontaneous decay, which needs the |c> level).
    """

    g: float = 1.0
    omega: float = 1.0
    delta: float = 20.0
    kappa: float = 10.0          # half the cavity energy decay rate (decay is 2*kappa)
    gamma_ca: float = 0.0
    gamma_cb: float = 0.0
    eta: float = 1.0
    lam: float = 1.0
    phi: float = 0.0
    dt: float = 0.01
    t_wait: float = 100.0        # stage-1 window for the first photon
    t_wait2: float = 10000.0     # stage-2 window for the second photon
    n_max: int = 1
    adiabatic: bool = False

    def __post_init__(self):
        for name in ("g", "omega", "kappa", "gamma_ca", "gamma_cb"):
            if getattr(self, name) < 0:
                raise ParamError(name, "must be >= 0")
        if not 0.0 <= self.eta <= 1.0:
            raise ParamError("eta", "must lie in [0, 1]")
        if self.lam <= 0:
            raise ParamError("lam", "must be > 0")
        if self.dt <= 0:
            raise ParamError("dt", "must be > 0")
        for name in ("t_wait", "t_wait2"):
            if getattr(self, name) < 0:
                raise ParamError(name, "must be >= 0")
        if self.n_max not in (1, 2):
            raise ParamError("n_max", "must be 1 or 2")
        if self.adiabatic and (self.gamma_ca > 0 or self.gamma_cb > 0):
            raise ParamError(
                "adiabatic",
                "Hamiltonian has no |c> level; spontaneous decay requires adiabatic=False",
            )
        if self.adiabatic and self.delta == 0:
            raise ParamError("delta", "must be nonzero: the adiabatic Hamiltonian divides by it")
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ParamError(name, "must be finite")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (3, 3, self.n_max + 1, self.n_max + 1)

    @property
    def reflectance(self) -> float:
        return self.lam / (1.0 + self.lam)

    @property
    def transmittance(self) -> float:
        return 1.0 / (1.0 + self.lam)

    def with_(self, **kw) -> "SystemParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class JumpChannel:
    """A collapse operator with its decay rate absorbed into the amplitude,
    tagged by what an experimenter would see."""

    operator: OperatorMatrix
    tag: ChannelTag


def _ion_op(mat: np.ndarray, which: int, p: SystemParams) -> OperatorMatrix:
    return embed(mat, which, p.dims)


def _cavity_destroy(which: int, p: SystemParams) -> OperatorMatrix:
    return embed(fock_destroy(p.n_max + 1), 2 + which, p.dims)


def build_hamiltonian(p: SystemParams) -> OperatorMatrix:
    """Hermitian ion-cavity Hamiltonian in the interaction picture.

    Per ion i: delta |c><c| + g (|c><b| c_i + h.c.) + omega (|c><a| + h.c.).
    """
    dims = p.dims
    h = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for i in (0, 1):
        c = _cavity_destroy(i, p).entries
        pcc = _ion_op(level_transfer("c", "c"), i, p).entries
        pcb = _ion_op(level_transfer("c", "b"), i, p).entries
        pca = _ion_op(level_transfer("c", "a"), i, p).entries
        h += p.delta * pcc
        h += p.g * (pcb @ c + c.conj().T @ pcb.conj().T)
        h += p.omega * (pca + pca.conj().T)
    return OperatorMatrix(h, dims)


def build_h_eff(p: SystemParams) -> OperatorMatrix:
    """Non-Hermitian no-jump generator: H minus i*kappa*sum c_i^dag c_i minus
    i*(gamma_ca+gamma_cb)*sum |c><c|.  Its anti-Hermitian part matches the
    jump-channel set exactly (see build_jump_channels)."""
    dims = p.dims
    h = build_hamiltonian(p).entries.copy()
    for i in (0, 1):
        c = _cavity_destroy(i, p).entries
        pcc = _ion_op(level_transfer("c", "c"), i, p).entries
        h -= 1j * p.kappa * (c.conj().T @ c)
        h -= 1j * (p.gamma_ca + p.gamma_cb) * pcc
    return OperatorMatrix(h, dims)


def build_h_eff_adiabatic(p: SystemParams) -> OperatorMatrix:
    """Reduced generator after eliminating the far-detuned |c> level.

    Per ion i: (g*omega/delta)(|a><b| c_i + |b><a| c_i^dag)
             + (g^2/delta)|b><b| + (omega^2/delta)|a><a| - i*kappa c_i^dag c_i.
    The |c> level is left completely decoupled.
    """
    dims = p.dims
    h = np.zeros((math.prod(dims),) * 2, dtype=complex)
    j = p.g * p.omega / p.delta
    for i in (0, 1):
        c = _cavity_destroy(i, p).entries
        pab = _ion_op(level_transfer("a", "b"), i, p).entries
        pbb = _ion_op(level_transfer("b", "b"), i, p).entries
        paa = _ion_op(level_transfer("a", "a"), i, p).entries
        h += j * (pab @ c + c.conj().T @ pab.conj().T)
        h += (p.g**2 / p.delta) * pbb
        h += (p.omega**2 / p.delta) * paa
        h -= 1j * p.kappa * (c.conj().T @ c)
    return OperatorMatrix(h, dims)


def stage_hamiltonian(p: SystemParams) -> OperatorMatrix:
    """The no-jump generator selected by p.adiabatic."""
    return build_h_eff_adiabatic(p) if p.adiabatic else build_h_eff(p)


def build_jump_channels(p: SystemParams) -> list[JumpChannel]:
    """All collapse channels with rates folded in as amplitude prefactors.

    Detector modes mix the cavity outputs: d1 = sqrt(R) c1 + sqrt(T) c2,
    d2 = sqrt(T) c1 - sqrt(R) c2.  Cavity decay 2*kappa splits into a
    recorded part (prob eta) and an unrecorded lost part (prob 1-eta).
    Spontaneous decay |c> -> |a>, |b> at 2*gamma_ca, 2*gamma_cb per ion is
    never recorded.  Channels with zero rate are omitted.
    """
    c1 = _cavity_destroy(0, p).entries
    c2 = _cavity_destroy(1, p).entries
    sr, st = math.sqrt(p.reflectance), math.sqrt(p.transmittance)
    d1 = sr * c1 + st * c2
    d2 = st * c1 - sr * c2

    channels: list[JumpChannel] = []
    amp_rec = math.sqrt(2.0 * p.kappa * p.eta)
    amp_lost = math.sqrt(2.0 * p.kappa * (1.0 - p.eta))
    if p.eta > 0:
        channels.append(JumpChannel(OperatorMatrix(amp_rec * d1, p.dims), ChannelTag.D1))
        channels.append(JumpChannel(OperatorMatrix(amp_rec * d2, p.dims), ChannelTag.D2))
    if p.eta < 1:
        channels.append(JumpChannel(OperatorMatrix(amp_lost * d1, p.dims), ChannelTag.LOST_D1))
        channels.append(JumpChannel(OperatorMatrix(amp_lost * d2, p.dims), ChannelTag.LOST_D2))
    spont = [
        (p.gamma_ca, "a", ChannelTag.SPONT_A_ION1, ChannelTag.SPONT_A_ION2),
        (p.gamma_cb, "b", ChannelTag.SPONT_B_ION1, ChannelTag.SPONT_B_ION2),
    ]
    for rate, target, tag1, tag2 in spont:
        if rate > 0:
            amp = math.sqrt(2.0 * rate)
            for i, tag in ((0, tag1), (1, tag2)):
                op = amp * _ion_op(level_transfer(target, "c"), i, p).entries
                channels.append(JumpChannel(OperatorMatrix(op, p.dims), tag))
    return channels


def phase_gate(phi: float, n_max: int = 1) -> OperatorMatrix:
    """Instantaneous light-shift gate: multiplies every basis state with ion 1
    in |a> by exp(i*phi).  Only the relative phase between the two branches of
    the heralded state matters, so acting on ion 1 is a fixed convention."""
    dims = (3, 3, n_max + 1, n_max + 1)
    diag = np.ones(math.prod(dims), dtype=complex)
    for flat in range(diag.size):
        if BasisIndex.unflatten(flat, dims).ion1 == "a":
            diag[flat] = np.exp(1j * phi)
    return OperatorMatrix(np.diag(diag), dims)


def initial_state(p: SystemParams) -> StateVector:
    """Both ions in |a>, both cavities empty."""
    from .hilbert import basis_state

    return basis_state(BasisIndex("a", "a", 0, 0), p.dims)


def total_jump_operator(channels: list[JumpChannel]) -> np.ndarray:
    """Sum of L^dag L over all channels; equals -2 times the anti-Hermitian
    part of the no-jump generator when model and channels are consistent."""
    if not channels:
        raise ValueError("empty channel list")
    dim = channels[0].operator.dim
    m = np.zeros((dim, dim), dtype=complex)
    for ch in channels:
        ell = ch.operator.entries
        m += ell.conj().T @ ell
    return m
