"""Physical model: two driven three-level ions, each in its own single-mode
cavity, with the cavity outputs mixed on a beam splitter in front of two
photon detectors.

Level scheme per ion: two ground states |a>, |b> and one far-detuned upper
level |c>.  A classical field drives a<->c with Rabi coupling omega, the
cavity mode couples b<->c with strength g, and both transitions share the
detuning delta.  Completing a->c->b deposits one photon in the cavity, which
then leaks (total rate 2*kappa) toward the detectors.

The two nodes meet only at the (unitary) beam splitter, so every two-node
operator is derived from one node, an (ion, cavity) pair of 3 (n_max + 1)
levels, through the permutation P to the composite order (node_order):
H_eff = P (h (x) 1 + 1 (x) h) P^T with the node's no-jump generator h.

Everything is expressed in units of g (time in 1/g).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .hilbert import OperatorMatrix, StateVector, fock_destroy, level_transfer


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
    """A parameter value out of range, such as a SystemParams field.  `field`
    names the offending one, and the message starts with it."""

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
        # an integer, numpy's included, and not a bool (a float fails in node_order)
        if not (np.issubdtype(type(self.n_max), np.integer) and self.n_max in (1, 2)):
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


def node_order(n_max: int) -> np.ndarray:
    """The permutation P from the two-node order (ion1, cav1, ion2, cav2) to
    the composite one (ion1, ion2, cav1, cav2): composite state k is P[k]."""
    n = n_max + 1
    return np.arange(9 * n * n).reshape(3, n, 3, n).transpose(0, 2, 1, 3).ravel()


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors or two square matrices, without its overhead."""
    ab = np.multiply.outer(a, b)
    return ab.ravel() if ab.ndim == 2 else ab.transpose(0, 2, 1, 3).reshape(len(a) * len(b), -1)


def two_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a on node 1 and b on node 2, operators or states, in the composite order."""
    ab, perm = _kron(a, b), node_order(a.shape[0] // 3 - 1)
    return ab[np.ix_(perm, perm)] if ab.ndim == 2 else ab[perm]


def both_nodes(x: np.ndarray) -> np.ndarray:
    """x on node 1 plus x on node 2, in the composite order."""
    one = np.eye(x.shape[0])
    return two_nodes(x, one) + two_nodes(one, x)


def _read_only(fn):
    """fn cached by its arguments, its arrays made read-only: they are built
    once and shared by every caller."""
    @functools.lru_cache(maxsize=None)
    def cached(*args):
        arr = fn(*args)
        arr.flags.writeable = False
        return arr

    return cached


@_read_only
def _cavity(n_max: int) -> np.ndarray:
    return _kron(np.eye(3), fock_destroy(n_max + 1))


@_read_only
def _level(to_level: str, from_level: str, n_max: int) -> np.ndarray:
    return _kron(level_transfer(to_level, from_level), np.eye(n_max + 1))


def node_cavity(p: SystemParams) -> np.ndarray:
    """The node's cavity annihilator (read-only, one array per n_max)."""
    return _cavity(p.n_max)


def node_level(to_level: str, from_level: str, p: SystemParams) -> np.ndarray:
    """|to><from| on the node's ion (read-only, one array per n_max)."""
    return _level(to_level, from_level, p.n_max)


def _node_hamiltonian(p: SystemParams) -> np.ndarray:
    """delta |c><c| + g (|c><b| c + h.c.) + omega (|c><a| + h.c.) on one node."""
    hop = p.g * node_level("c", "b", p) @ node_cavity(p) + p.omega * node_level("c", "a", p)
    return p.delta * node_level("c", "c", p) + hop + hop.conj().T


def node_jump_rate(p: SystemParams) -> np.ndarray:
    """The node's share of sum L^dag L: 2 kappa c^dag c (the beam splitter
    only mixes the two nodes' leaks) plus 2 (gamma_ca + gamma_cb) |c><c|."""
    c, spont = node_cavity(p), 2.0 * (p.gamma_ca + p.gamma_cb)
    return 2.0 * p.kappa * (c.conj().T @ c) + spont * node_level("c", "c", p)


def _node_adiabatic(p: SystemParams) -> np.ndarray:
    """The reduced generator of one node (see build_h_eff_adiabatic)."""
    c = node_cavity(p)
    hop = p.g * p.omega / p.delta * node_level("a", "b", p) @ c
    return (hop + hop.conj().T + p.g**2 / p.delta * node_level("b", "b", p)
            + p.omega**2 / p.delta * node_level("a", "a", p) - 1j * p.kappa * (c.conj().T @ c))


def node_generator(p: SystemParams) -> np.ndarray:
    """The no-jump generator h of one node, selected by p.adiabatic."""
    return _node_adiabatic(p) if p.adiabatic else _node_hamiltonian(p) - 0.5j * node_jump_rate(p)


def build_hamiltonian(p: SystemParams) -> OperatorMatrix:
    """Hermitian ion-cavity Hamiltonian in the interaction picture.

    Per ion i: delta |c><c| + g (|c><b| c_i + h.c.) + omega (|c><a| + h.c.).
    """
    return OperatorMatrix(both_nodes(_node_hamiltonian(p)), p.dims)


def build_h_eff(p: SystemParams) -> OperatorMatrix:
    """Non-Hermitian no-jump generator: H minus i*kappa*sum c_i^dag c_i minus
    i*(gamma_ca+gamma_cb)*sum |c><c|.  Its anti-Hermitian part matches the
    jump-channel set exactly (see build_jump_channels)."""
    return OperatorMatrix(both_nodes(_node_hamiltonian(p) - 0.5j * node_jump_rate(p)), p.dims)


def build_h_eff_adiabatic(p: SystemParams) -> OperatorMatrix:
    """Reduced generator after eliminating the far-detuned |c> level.

    Per ion i: (g*omega/delta)(|a><b| c_i + |b><a| c_i^dag)
             + (g^2/delta)|b><b| + (omega^2/delta)|a><a| - i*kappa c_i^dag c_i.
    The |c> level is left completely decoupled.
    """
    return OperatorMatrix(both_nodes(_node_adiabatic(p)), p.dims)


def stage_hamiltonian(p: SystemParams) -> OperatorMatrix:
    """The no-jump generator selected by p.adiabatic."""
    return OperatorMatrix(both_nodes(node_generator(p)), p.dims)


class NodeChannel(NamedTuple):
    """A jump channel as one node operator op: L = amp (x op_1 + y op_2),
    with op_k acting on node k.  A local channel has x or y zero."""

    tag: ChannelTag
    amp: float
    op: np.ndarray
    x: float
    y: float


def node_channels(p: SystemParams) -> list[NodeChannel]:
    """All collapse channels, in build_jump_channels' order, as node operators.

    Detector modes mix the cavity outputs: d1 = sqrt(R) c1 + sqrt(T) c2,
    d2 = sqrt(T) c1 - sqrt(R) c2.  Cavity decay 2*kappa splits into a
    recorded part (prob eta) and an unrecorded lost part (prob 1-eta).
    Spontaneous decay |c> -> |a>, |b> at 2*gamma_ca, 2*gamma_cb per ion is
    never recorded.  Channels with zero rate are omitted.
    """
    c = node_cavity(p)
    sr, st = math.sqrt(p.reflectance), math.sqrt(p.transmittance)
    found = []
    for share, tag1, tag2 in ((p.eta, ChannelTag.D1, ChannelTag.D2),
                              (1.0 - p.eta, ChannelTag.LOST_D1, ChannelTag.LOST_D2)):
        if share > 0:
            amp = math.sqrt(2.0 * p.kappa * share)
            found += [NodeChannel(tag1, amp, c, sr, st), NodeChannel(tag2, amp, c, st, -sr)]
    for rate, target, tag1, tag2 in (
        (p.gamma_ca, "a", ChannelTag.SPONT_A_ION1, ChannelTag.SPONT_A_ION2),
        (p.gamma_cb, "b", ChannelTag.SPONT_B_ION1, ChannelTag.SPONT_B_ION2),
    ):
        if rate > 0:
            amp, op = math.sqrt(2.0 * rate), node_level(target, "c", p)
            found += [NodeChannel(tag1, amp, op, 1.0, 0.0), NodeChannel(tag2, amp, op, 0.0, 1.0)]
    return found


def build_jump_channels(p: SystemParams) -> list[JumpChannel]:
    """All collapse channels of the pair (node_channels), with rates folded
    in as amplitude prefactors."""
    one = np.eye(3 * (p.n_max + 1))
    return [JumpChannel(OperatorMatrix(ch.amp * (ch.x * two_nodes(ch.op, one)
                                                 + ch.y * two_nodes(one, ch.op)), p.dims), ch.tag)
            for ch in node_channels(p)]


def phase_gate(phi: float, n_max: int = 1) -> OperatorMatrix:
    """Instantaneous light-shift gate: multiplies every basis state with ion 1
    in |a> by exp(i*phi).  Only the relative phase between the two branches of
    the heralded state matters, so acting on ion 1 is a fixed convention."""
    n = n_max + 1
    node = np.where(np.arange(3 * n) < n, np.exp(1j * phi), 1.0)   # the ion's |a> states
    return OperatorMatrix(np.diag(two_nodes(node, np.ones(3 * n))), (3, 3, n, n))


def node_initial_state(p: SystemParams) -> np.ndarray:
    """The node's start state |a, 0>: ion in |a>, cavity empty."""
    return np.eye(3 * (p.n_max + 1), dtype=complex)[0]


def initial_state(p: SystemParams) -> StateVector:
    """Both ions in |a>, both cavities empty: two_nodes of the node's start state."""
    node = node_initial_state(p)
    return StateVector(two_nodes(node, node), p.dims)


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
