"""Monte Carlo wavefunction engine.

Two statistically equivalent samplers over the same jump-channel set:

* fixed-step: the textbook discretization.  Each interval dt the total jump
  probability P = dt <psi| sum L^dag L |psi> is compared against a uniform
  draw; a hit selects one channel in proportion to its weight and collapses
  the state, a miss applies the exact no-jump propagator exp(-i H_eff dt)
  followed by renormalization.  Between jumps the evolution is deterministic,
  so one replay kernel (StageEngine._fixed_scan) evaluates a no-jump segment
  blockwise against a trajectory's random numbers, replaying a cached block
  for a window start many trajectories share.  It serves the stopping
  windows alone; the tests hold it to a literal one-step loop.

* fast: waiting-time sampling (Plenio and Knight, RMP 70, 101 (1998)).
  Draw r; if the unnormalized no-jump state still has squared norm >= r at
  the window end the window times out, otherwise the crossing time is
  root-found and the channel is selected from the weights at the crossing
  state.  The norm never grows along a no-jump segment, so the root is
  unique: safeguarded Newton with the analytic slope -<psi| sum L^dag L |psi>
  finds it (StageEngine._crossing), from the norm table of the one segment
  windows share, psi0's (StageEngine.coarse_curve), or a log-linear guess
  on any other.  The table's grid comes from the node's spectrum: where the
  norm rings (the full generator's, at about the detuning of |c>), a fine
  piece takes a few points a period for as long as the ringing lasts
  (_ring_grid), then a uniform one the rest of the window.  The scalar
  window searches the table and sums its channel weights on Python lists,
  to numpy's bits.  The no-jump state at any time
  comes from one eigendecomposition of the node, h = v diag(w) v^-1:
  psi(t) = V exp(-i W t) V^-1 psi with W = w_i + w_j and V = P (v (x) v),
  or from the node's expm when v is too ill-conditioned (near an
  exceptional point); from psi0 = two_nodes(a0, a0) it stays two_nodes(phi,
  phi), phi = u(t) a0, evaluated on the node alone.  The jump rate
  sum L^dag L is diagonal, and acts by its diagonal; a channel's weight
  <psi|L_k^dag L_k|psi> is summed from the nonzero entries of L_k^dag L_k,
  for all channels in one product, and held at 0 or above.  run_windows
  runs the windows of many streams, a fixed-step window per row or the
  fast sampler's as one stack: one comparison finds the timeouts, one
  Newton iteration over the stack the crossings (stopped rows stay in it
  until half of it has stopped), a per-row weight matrix the channels;
  windows going on after an unrecorded jump form a shrinking stack.  A
  window from psi0 (a stage-1 sweep chunk's herald
  window) is carried as two node states, two_nodes(a, b), for as long as
  it stays a product, as it does through every spontaneous decay, a local
  jump: it is crossed on the node (the first round from psi0's norm
  table), with a Halley first step from the norm's second derivative,
  its channel weights come from node expectations, and one product
  applies every channel's node operator, so a local jump acts on one
  node.  Only its click lifts it to the pair space, and a
  lost photon, which acts on both nodes, moves it there for good.  The
  pair space serves those rows and the windows from a state per row (a
  protocol chunk's stage-2 windows, from the phase-gated herald states),
  and StageEngine builds its machinery on first use.  The *_rows methods
  repeat the scalar ones row by row and are tested against the scalar
  window, as the replay is against the one-step loop.

Randomness comes from counter-based (Philox) streams keyed by
(master_seed, stream_index, stage, substream), so any trajectory is
bit-reproducible in isolation and independent of scheduling order.  The
streams live in homsim.rng: a chunk of trajectories derives the keys and
first output blocks of all its streams in one vectorized pass (a
StreamBlock), bit-exact against numpy's SeedSequence and Philox, which stay
the reference for a stream made on its own.  A stream bound to a block keeps
its row, serves its first four draws per substream from the block and
continues on a numpy Philox from the block's key at counter 1; the batch
reads the block's keys and first draws directly (a protocol chunk's second
windows only the heralded rows', derived for those rows alone) and takes
later draws from the vectorized Philox at counter 2, 3, ..., a round's step
and channel draws in one call.

A waiting window returns a StageResult: the recorded click that ended it, or
a timeout, with the state it left and every collapse on the way, timed from
the window's opening.  Whether a collapse is recorded is a property of its
tag (ChannelTag.recorded).  A protocol run is two windows, and its
TrajectoryRecord holds just those two results, at absolute times; the
outcome and the event list are derived from them.  The unconditioned walk
(run_unconditioned) is a chain of fast-sampler windows from one observation
time to the next.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import expm as _scipy_expm

from .hilbert import OperatorMatrix, StateVector
from .model import (
    ChannelTag,
    JumpChannel,
    ParamError,
    SystemParams,
    both_nodes,
    NodeChannel,
    build_jump_channels,
    initial_state,
    node_channels,
    node_generator,
    node_initial_state,
    node_jump_rate,
    node_order,
    phase_gate,
    two_nodes,
)
from .rng import RngStream, StreamBlock, nth_uniforms

P_STEP_MAX = 0.05           # abort threshold for the first-order jump probability
EIG_COND_MAX = 1e4          # above this cond(V) the fast sampler propagates with expm
_FIXED_BLOCK = 2048         # steps per replay block in unshared fixed-step scans
_TABLE_POINTS = 257         # coarse grid of the norm table of the shared psi0 segment
_RING_POINTS = 6            # table points per period of the psi0 norm's ringing
_RING_LEVEL = 1e-1          # ringing resolved while its slope is above this share of the norm's
_FINE_MAX = 4096            # most table points spent on the ringing
_NEWTON_MAX = 100           # crossing iterations before the root-find gives up
_XTOL = 2e-12               # crossing tolerance |dt| <= _XTOL + _RTOL t (brentq's defaults)
_RTOL = 4 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


class StepSizeError(RuntimeError):
    """Per-step jump probability exceeded the first-order validity guard."""


class Outcome(enum.Enum):
    NO_CLICK = "NO_CLICK"
    ONE_CLICK = "ONE_CLICK"
    TWO_CLICKS = "TWO_CLICKS"


@dataclass(frozen=True)
class Event:
    """One collapse: when it happened and through which channel."""

    time: float
    tag: ChannelTag


@dataclass
class StageResult:
    """What one waiting window produced: the recorded click that ended it
    (tag and time; both None after a timeout), the state it left behind and
    every collapse on the way."""

    tag: Optional[ChannelTag]
    time: Optional[float]
    state: StateVector
    events: list[Event] = field(default_factory=list)

    @property
    def clicked(self) -> bool:
        return self.tag is not None


@dataclass(frozen=True)
class TrajectoryRecord:
    """One full two-stage protocol run: the stage-1 window and, when it
    heralded, the stage-2 window (None after a stage-1 timeout)."""

    stream_index: int
    first: StageResult
    second: Optional[StageResult]

    @property
    def outcome(self) -> Outcome:
        if self.second is None:
            return Outcome.NO_CLICK
        return Outcome.TWO_CLICKS if self.second.clicked else Outcome.ONE_CLICK

    @property
    def events(self) -> tuple[Event, ...]:
        """Every collapse of the run, in time order."""
        return tuple(self.first.events) + tuple(self.second.events if self.second else ())


class WindowBatch(NamedTuple):
    """The windows of some of a block's streams (run_windows).  channel,
    time and jumps have a row per window: the index into StageEngine.tags of
    the recorded channel that ended it (-1 after a timeout), the click time
    from the window's opening (nan after a timeout) and the number of
    collapses.  state has a row per click, in window order: the state the
    click left."""

    channel: np.ndarray
    time: np.ndarray
    jumps: np.ndarray
    state: np.ndarray


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i|b_i> for each state i (along the last axis) of two stacks of states."""
    return np.einsum("...j,...j->...", a.conj(), b)


def _vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i|b_i> for each state i of two stacks of states."""
    return _dots(a, b).real


def _unit(x: np.ndarray) -> np.ndarray:
    """Each state of a stack (along the last axis) normalized, by the
    reciprocal of its norm: a complex-by-real division is the same
    product, through numpy's slower complex division."""
    return x * (1.0 / np.sqrt(_vdots(x, x)))[..., None]


def _diagonal(mat: np.ndarray) -> np.ndarray:
    """The diagonal of a matrix that has no other nonzero entry, as complex
    numbers: a complex product with a real array goes through numpy's slow
    casting loop."""
    diag = np.diag(mat).astype(complex)
    assert np.array_equal(mat, np.diag(diag)), "matrix is not diagonal"
    return diag


def _rows(states: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """mat applied to each row of states, each row rounded the same whatever
    stack it sits in: numpy hands a one-row product to gemv, whose last bits
    differ from gemm's, so a lone row goes as two."""
    if states.shape[0] == 1:
        return (np.concatenate((states, states)) @ mat.T)[:1]
    return states @ mat.T


class _FixedCurve(NamedTuple):
    states: np.ndarray   # (n_steps+1, D) unnormalized, states[k] at t = k*dt
    n2: np.ndarray       # squared norms of states
    pvals: np.ndarray    # per-step jump probability of the normalized state


class _Grid(NamedTuple):
    """The times of the psi0 segment's norm table, two uniform pieces: n_fine
    steps up to t_fine, where the norm rings (_ring_grid), then linspace(0,
    span, _TABLE_POINTS) from its point k0 = t_fine / span (_TABLE_POINTS -
    1) on; with n_fine = 0 the linspace alone."""

    span: float
    n_fine: int
    t_fine: float
    k0: int

    def times(self) -> np.ndarray:
        fine = self.t_fine * np.arange(self.n_fine) / max(self.n_fine, 1)
        return np.concatenate((fine, np.linspace(0.0, self.span, _TABLE_POINTS)[self.k0:]))

    def at(self, g):
        """The time at the fractional table index g (a float, or an array)."""
        coarse = self.span * (g - self.n_fine + self.k0) / (_TABLE_POINTS - 1)
        if isinstance(g, float):
            return self.t_fine * g / self.n_fine if g < self.n_fine else coarse
        return np.where(g < self.n_fine, self.t_fine * g / max(self.n_fine, 1), coarse)


@dataclass(eq=False, slots=True)
class _Segment:
    # start state in the evaluator's basis (see StageEngine._evolve); None
    # for the psi0 segment, which is evaluated on the node
    coeffs: Optional[np.ndarray]
    end: np.ndarray      # unnormalized state at the segment end
    n2_end: float        # its squared norm
    # the psi0 segment only: minus the squared norm on grid.times(), made
    # monotone, so that it ascends for searchsorted
    table: Optional[np.ndarray] = None
    table_list: Optional[list] = None   # the same, for the scalar window's bisect
    grid: Optional[_Grid] = None
    # the normalized end state, built at the segment's first timeout
    final: Optional[StateVector] = None
    node: Optional[np.ndarray] = None   # the psi0 segment only: v^-1 a0, psi0 = two_nodes(a0, a0)


class StageEngine:
    """Precomputed machinery for one parameter set.

    Holds the initial state, the jump channels, the node's one-step
    propagator and the eigendecomposition of the node that the fast sampler
    propagates with.  The pair space's machinery (H_eff, the channels'
    operators and weight terms, the summed jump operator, the pair
    eigenbasis, the fixed-step propagator and the phase gate) is built on
    first use, so a chunk whose windows stay products of node states never
    builds it.  Immutable after construction apart from internal caches;
    safe to share read-only across worker trajectories.
    """

    def __init__(self, params: SystemParams):
        self.params = params
        self.dt = params.dt
        self.dims = params.dims
        self._h = node_generator(params)
        self._nodes: list[NodeChannel] = node_channels(params)
        self.tags = [ch.tag for ch in self._nodes]
        # diagonal (node_jump_rate), so it acts elementwise
        self._j = _diagonal(node_jump_rate(params))
        self._mix, self._node_coef = _node_weight_terms(self._nodes)
        # a channel that entangles the nodes, or a recorded one, leaves a
        # product row for the pair space
        self._lifted = np.array([ch.tag.recorded or (ch.x != 0.0 and ch.y != 0.0)
                                 for ch in self._nodes])
        self._x = np.array([ch.x for ch in self._nodes], dtype=float)
        self._y = np.array([ch.y for ch in self._nodes], dtype=float)
        self._u = _scipy_expm(-1j * self.dt * self._h)   # the node's fixed step
        self.psi0 = initial_state(params)
        w, v = np.linalg.eig(self._h)
        # cond(V) = cond(v)^2; near an exceptional point V^-1 loses the digits
        # the spectral propagator needs, and the node's expm is used, with V = P
        self.spectral = bool(np.linalg.cond(v) ** 2 <= EIG_COND_MAX)
        v = v if self.spectral else np.eye(v.shape[0])
        self._w, self._nv, self._nv_inv = w, v, np.linalg.inv(v)
        self._mw = -1j * w   # t mw is -i t w, to the bit
        self._perm = node_order(params.n_max)
        self._node0 = self._nv_inv @ node_initial_state(params)   # v^-1 a0, psi0 = two_nodes(a0, a0)
        self._fixed_cache: dict = {}
        self._coarse_cache: dict = {}   # window length -> psi0 segment

    # -- the pair space, built on first use ------------------------------------

    @cached_property
    def h_eff(self) -> np.ndarray:
        return both_nodes(self._h)

    @cached_property
    def channels(self) -> list[JumpChannel]:
        return build_jump_channels(self.params)

    @cached_property
    def ops(self) -> list[np.ndarray]:
        return [ch.operator.entries for ch in self.channels]

    @cached_property
    def total_op(self) -> np.ndarray:
        return both_nodes(node_jump_rate(self.params))

    @cached_property
    def _total(self) -> np.ndarray:
        # diagonal, as the node's share is, so it acts elementwise
        return _diagonal(self.total_op)

    @cached_property
    def _pair_terms(self) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        return _weight_terms(self.ops)

    @cached_property
    def propagator(self) -> np.ndarray:
        return two_nodes(self._u, self._u)

    @cached_property
    def phase_diag(self) -> np.ndarray:
        return np.diag(phase_gate(self.params.phi, self.params.n_max).entries).copy()

    @cached_property
    def _w_pairs(self) -> np.ndarray:
        return (self._w[:, None] + self._w).ravel()   # W = w_i + w_j

    @cached_property
    def _v(self) -> np.ndarray:
        return np.kron(self._nv, self._nv)[self._perm]   # V = P (v (x) v)

    @cached_property
    def _v_inv(self) -> np.ndarray:
        # (v^-1 (x) v^-1) P^T, C order
        return np.kron(self._nv_inv, self._nv_inv)[:, self._perm].copy()

    # -- fixed-step machinery -------------------------------------------------

    def _pvals(self, states: np.ndarray, n2: np.ndarray) -> np.ndarray:
        """Per-step jump probabilities dt*<L^dag L> for a run of states."""
        p = self.dt * _vdots(states, states * self._total) / n2
        if p.size and p.max() >= P_STEP_MAX:
            raise StepSizeError(
                f"per-step jump probability {p.max():.3g} exceeds {P_STEP_MAX}; reduce dt"
            )
        return p

    def _fixed_block(self, psi_n: np.ndarray, n_steps: int) -> _FixedCurve:
        """n_steps of the no-jump evolution from psi_n, uncached."""
        states = np.empty((n_steps + 1, psi_n.size), dtype=complex)
        states[0] = psi_n
        u = self.propagator
        for k in range(n_steps):
            states[k + 1] = u @ states[k]
        n2 = _vdots(states, states)
        return _FixedCurve(states, n2, self._pvals(states[:n_steps], n2[:n_steps]))

    def fixed_curve(self, psi_n: np.ndarray, n_steps: int) -> _FixedCurve:
        """_fixed_block cached by start state, for window starts many
        trajectories share: psi0's, or one start of a whole run_windows batch."""
        key = (psi_n.tobytes(), n_steps)
        curve = self._fixed_cache.get(key)
        if curve is None:
            curve = self._fixed_cache[key] = self._fixed_block(psi_n, n_steps)
        return curve

    def _fixed_scan(self, psi_n: np.ndarray, r: np.ndarray, shared: bool):
        """Walk the no-jump evolution from psi_n against the uniforms r.

        Returns (k, psi_hat_k) for the first step k with r[k] < P_k, or
        (None, psi_final_normalized) if the segment survives all of r.  A
        shared start state replays its cached curve in one block; any other
        is walked in _FIXED_BLOCK blocks.
        """
        cur = psi_n
        off = 0
        n = r.size
        while off < n:
            m = n - off if shared else min(_FIXED_BLOCK, n - off)
            blk = self.fixed_curve(cur, m) if shared else self._fixed_block(cur, m)
            hits = np.flatnonzero(r[off : off + m] < blk.pvals)
            if hits.size:
                j = int(hits[0])
                return off + j, blk.states[j] / math.sqrt(blk.n2[j])
            cur = blk.states[m] / math.sqrt(blk.n2[m])
            off += m
        return None, cur

    def _collapse(self, psi_hat: np.ndarray, rng: RngStream):
        """Pick a channel proportionally to its weight and apply it."""
        weights = self._weights(psi_hat)
        total = weights.sum()
        if total <= 0.0:
            raise RuntimeError("jump triggered with zero total channel weight")
        idx = _pick(weights, rng.channel_uniform() * total)
        post = self.ops[idx] @ psi_hat
        post = post / math.sqrt(np.vdot(post, post).real)
        return self.tags[idx], post

    def _run_fixed(self, psi_n, rng, t_max, shared) -> StageResult:
        n_steps = int(whole_steps(t_max, self.dt, "t_max"))
        events: list[Event] = []
        r = rng.step_uniforms(n_steps)
        k0 = 0
        psi = psi_n
        while k0 < n_steps:
            # only a window's start state is shared
            rel, psi_hat = self._fixed_scan(psi, r[k0:], shared and not events)
            if rel is None:
                return StageResult(None, None, self._wrap(psi_hat), events)
            k = k0 + rel
            tag, psi = self._collapse(psi_hat, rng)
            t_evt = (k + 1) * self.dt
            events.append(Event(t_evt, tag))
            if tag.recorded:
                return StageResult(tag, t_evt, self._wrap(psi), events)
            k0 = k + 1
        return StageResult(None, None, self._wrap(psi), events)

    # -- fast-sampler machinery -----------------------------------------------

    def _evolve(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """Unnormalized no-jump state a time t into a segment with coeffs = V^-1 psi_start."""
        if self.spectral:
            # one row: 36 exponentials cost less than the outer product's call
            return self._v @ (np.exp(-1j * t * self._w_pairs) * coeffs)
        return self._evolve_rows(coeffs[None], np.array([t]))[0]

    def _pair_at(self, coeffs: np.ndarray, t: float):
        """_evolve, the state's squared norm and its slope -<psi| sum L^dag L |psi>."""
        psi = self._evolve(coeffs, t)
        return psi, np.vdot(psi, psi).real, -np.vdot(psi, self._total * psi).real

    def _node_at(self, c: np.ndarray, t: float):
        """_pair_at of two_nodes(phi, phi) from phi = u(t) a0 alone (c = v^-1 a0):
        phi, the squared norm (phi^dag phi)^2 and -2 (phi^dag phi)(phi^dag j phi)."""
        phi = (self._nv @ (np.exp(-1j * t * self._w) * c) if self.spectral
               else _scipy_expm(-1j * t * self._h) @ c)
        s = np.vdot(phi, phi).real
        return phi, s * s, -2.0 * s * np.vdot(phi, self._j * phi).real

    def _lift(self, x: np.ndarray) -> np.ndarray:
        """two_nodes(phi, phi) of a node state phi; a state of the pair as it is."""
        d = self._h.shape[0]
        return np.multiply.outer(x, x).reshape(d * d)[self._perm] if x.size == d else x

    def _products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """two_nodes(a[i], b[i]) of each row of two stacks of node states."""
        d = a.shape[-1]
        return (a[:, :, None] * b[:, None, :]).reshape(len(a), d * d)[:, self._perm]

    def _segment(self, psi_n: np.ndarray, span: float) -> _Segment:
        coeffs = self._v_inv @ psi_n
        end = self._evolve(coeffs, span)
        return _Segment(coeffs, end, float(np.vdot(end, end).real))

    def coarse_curve(self, t_max: float) -> _Segment:
        """The no-jump segment from psi0 over a window of length t_max: the
        one segment windows share, so the trajectories of a chunk decompose
        it once.  It is evaluated on the node, carries a table of the squared
        norm on a fixed grid, where its crossings start, and is cached by
        window length."""
        seg = self._coarse_cache.get(t_max)
        if seg is None:
            grid = _ring_grid(self._w, self._nv, self._node0, t_max)
            phi, n2 = self._node_rows(self._node0[None, None], grid.times(), 0)
            table = -np.minimum.accumulate(n2)
            seg = self._coarse_cache[t_max] = _Segment(
                None, self._lift(phi[-1, 0]), n2[-1],
                table=table, table_list=table.tolist(), grid=grid, node=self._node0)
        return seg

    def _first_guess(self, seg: _Segment, r: float, span: float) -> float:
        """Where Newton starts: interpolated in the psi0 segment's norm table,
        otherwise from n2 falling exponentially to n2_end over the span."""
        if seg.table is None:
            return span * math.log(r) / math.log(max(seg.n2_end, _TINY))
        table = seg.table_list   # searchsorted's left side, on a list
        k = min(max(bisect.bisect_left(table, -r), 1), len(table) - 1)
        above, below = -table[k - 1], -table[k]
        frac = min(max((above - r) / (above - below), 0.0), 1.0) if above > below else 0.5
        return seg.grid.at(k - 1 + frac)

    def _crossing(self, seg: _Segment, r: float, span: float) -> tuple[float, np.ndarray]:
        """The time t in (0, span) at which the segment's squared norm falls to
        r (seg.n2_end < r < 1), and the unnormalized state there.

        Safeguarded Newton on f(t) = ||psi(t)||^2 - r with the analytic slope
        f' = -<psi| sum L^dag L |psi>, as in Numerical Recipes' rtsafe.  f never
        grows along a no-jump segment, so the sign of each evaluation tightens
        a bracket [lo, hi] around the root.  A Newton step that leaves the
        bracket, lands on span (never evaluated) or fails to halve the step
        before last (as it does where rounding makes a flat f wander) bisects
        the bracket instead; the guess is held below span, and a bisection
        onto it stays at lo, so a root within rounding of span comes back as
        the float below it.  Stops at brentq's tolerance.  The evaluator is
        _node_at on the segment from two_nodes(a0, a0), _pair_at on any other.
        """
        at, coeffs = (self._pair_at, seg.coeffs) if seg.node is None else (self._node_at, seg.node)
        lo, hi = 0.0, span
        t = min(self._first_guess(seg, r, span), math.nextafter(span, 0.0))
        last = before = span   # sizes of the last two steps
        for _ in range(_NEWTON_MAX):
            x, n2, slope = at(coeffs, t)
            f = n2 - r
            if f > 0.0:
                lo = t
            else:
                hi = t
            step = -f / slope if slope < 0.0 else math.nan
            if not (lo <= t + step <= hi and t + step < span and abs(step) <= 0.5 * before):
                mid = 0.5 * (lo + hi)
                step = (mid if mid < span else lo) - t
            before, last = last, abs(step)
            nxt = t + step
            if last <= _XTOL + _RTOL * nxt:
                # one first-order step carries the state to the returned time
                psi = self._lift(x)
                return nxt, psi - 1j * step * (self.h_eff @ psi)
            t = nxt
        raise RuntimeError(f"no norm crossing of r = {r!r} found in {_NEWTON_MAX} "
                           f"iterations on [0, {span!r}]")

    def _run_fast(self, psi_n, rng, t_max, shared) -> StageResult:
        events: list[Event] = []
        psi = psi_n
        t_seg = 0.0
        while True:
            r = rng.step_uniform()
            span = t_max - t_seg
            seg = self.coarse_curve(span) if shared and not events else self._segment(psi, span)
            if seg.n2_end >= r:
                if seg.final is None:
                    seg.final = self._wrap(seg.end / math.sqrt(seg.n2_end))
                return StageResult(None, None, seg.final, events)
            wait, cross = self._crossing(seg, r, span)
            t_seg += wait
            tag, psi = self._collapse(cross / math.sqrt(np.vdot(cross, cross).real), rng)
            events.append(Event(t_seg, tag))
            if tag.recorded:
                return StageResult(tag, t_seg, self._wrap(psi), events)

    # -- the fast sampler over a stack of trajectories -------------------------
    # Each *_rows method does for every row of a stack what its namesake does
    # for one trajectory; a row's result never depends on the other rows.

    def _evolve_rows(self, coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
        """_evolve of row i of coeffs (or of its one shared row) to time t[i]: V times
        the phases exp(-i w_j t) exp(-i w_k t), or u (x) u with u = expm(-i t h)."""
        d = self._h.shape[0]
        if self.spectral:
            e = np.exp(np.multiply.outer(-1j * t, self._w))
            x = (e[:, :, None] * e[:, None, :]).reshape(t.size, d * d)
            x *= coeffs
        else:
            u = _scipy_expm(np.multiply.outer(-1j * t, self._h))
            c = np.broadcast_to(coeffs, (t.size, d * d)).reshape(t.size, d, d)
            x = (u @ c @ u.transpose(0, 2, 1)).reshape(t.size, d * d)
        return _rows(x, self._v)

    def _pair_rows(self, coeffs: np.ndarray, t: np.ndarray):
        """_pair_at of each row."""
        psi = self._evolve_rows(coeffs, t)
        return psi, _vdots(psi, psi), -_vdots(psi, psi * self._total)

    def _node_rows(self, c: np.ndarray, t: np.ndarray, derivatives: int = 1):
        """_pair_at of each product row two_nodes(phi[i, 0], phi[i, -1]) at
        time t[i], evaluated on the node: c (R, k, d), or its one shared row,
        holds the rows' node states as v^-1 a, and k = 1 is a row two_nodes(a,
        a).  Returns the node states phi = u(t) a, the squared norm s_a s_b
        and its first `derivatives` time derivatives: the slope -(s_b <a|j|a>
        + s_a <b|j|b>), s the nodes' squared norms (for k = 1, _node_at's norm
        and slope), and the curvature s_a'' s_b + 2 s_a' s_b' + s_a s_b'',
        where s' = -<j> and s'' = -2 Im <phi|j h|phi>, at one more product."""
        if self.spectral:
            e = np.exp(np.multiply.outer(t, self._mw))[:, None, :] * c
            phi = _rows(e.reshape(-1, c.shape[-1]), self._nv).reshape(e.shape)
        else:
            u = _scipy_expm(np.multiply.outer(-1j * t, self._h))
            phi = (u @ c.swapaxes(1, 2)).swapaxes(1, 2)
        s = _vdots(phi, phi)
        out = phi, s[:, 0] * s[:, -1]
        if not derivatives:
            return out
        jphi = phi * self._j
        sj = _vdots(phi, jphi)
        out += (-(s[:, -1] * sj[:, 0] + s[:, 0] * sj[:, -1]),)
        if derivatives == 1:
            return out
        hphi = _rows(phi.reshape(-1, phi.shape[-1]), self._h).reshape(phi.shape)
        s2 = -2.0 * _dots(jphi, hphi).imag
        return out + (s2[:, 0] * s[:, -1] + 2.0 * sj[:, 0] * sj[:, -1] + s[:, 0] * s2[:, -1],)

    def _segment_rows(self, psi: np.ndarray, span: np.ndarray):
        """_segment of each row: its coefficients and its end state's squared norm."""
        coeffs = _rows(psi, self._v_inv)
        end = self._evolve_rows(coeffs, span)
        return coeffs, _vdots(end, end)

    def _node_segment_rows(self, nodes: np.ndarray, span: np.ndarray):
        """_segment_rows of each product row two_nodes(nodes[i, 0], nodes[i, 1]),
        on the node: its node coefficients and its end state's squared norm."""
        coeffs = _rows(nodes.reshape(-1, nodes.shape[-1]), self._nv_inv).reshape(nodes.shape)
        return coeffs, self._node_rows(coeffs, span, 0)[1]

    def _first_guess_rows(self, seg, n2_end, r, span) -> np.ndarray:
        """_first_guess of each row, from the psi0 segment's norm table if
        seg is given, otherwise from each row's n2_end."""
        if seg is None:
            return span * np.log(r) / np.log(np.maximum(n2_end, _TINY))
        table = seg.table
        k = np.clip(np.searchsorted(table, -r), 1, table.size - 1)
        above, below = -table[k - 1], -table[k]
        falls = above > below
        frac = np.clip((above - r) / np.where(falls, above - below, 1.0), 0.0, 1.0)
        return seg.grid.at(k - 1 + np.where(falls, frac, 0.5))

    def _crossing_rows(self, at, coeffs, r, span, t, first=None) -> tuple[np.ndarray, np.ndarray]:
        """_crossing of each row from the first guesses t, evaluated by at
        (_node_rows or _pair_rows): the crossing times and the states there,
        as at gives them (node states, or states of the pair).  Each row
        iterates with the scalar safeguards, its bracket topped by the float
        below span (which no step may pass), and stops at their stop.  An
        evaluator first, given for the first iteration, also returns the
        norm's second derivative (_node_rows with 2 derivatives): that step is
        Halley's, f / f' / (1 - f f'' / (2 f'^2)), where the correction is at
        most twofold.  A stopped row goes on in the stack, unrecorded, until
        half of it has stopped; a row's steps depend on its own values alone."""
        top = np.nextafter(span, 0.0)
        t = np.minimum(t, top)
        # each row's time, evaluated state and last step at its stop
        t_out, out, last_step = np.empty(r.size), None, np.empty(r.size)
        live, going = np.arange(r.size), np.ones(r.size, dtype=bool)
        c_live, r_live, lo, hi = coeffs, r, np.zeros(r.size), top
        before = last = span   # sizes of the last two steps
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_MAX):
                x, n2, slope, *curv = (first or at)(c_live, t)
                first = None
                f = n2 - r_live
                above = f > 0.0
                lo, hi = np.where(above, t, lo), np.where(above, hi, t)
                # slope < 0 away from a dark state; a step at slope 0 is not
                # finite, and bisects
                step = -f / slope
                if curv:
                    q = 1.0 + 0.5 * step * curv[0] / slope
                    step = np.where(q >= 0.5, step / q, step)
                nxt = t + step
                size = np.abs(step)
                newton = (lo <= nxt) & (nxt <= hi) & (size <= 0.5 * before)
                if not newton.all():
                    step = np.where(newton, step, 0.5 * (lo + hi) - t)
                    nxt = t + step
                    size = np.abs(step)
                before, last, t = last, size, nxt
                stop = (last <= _XTOL + _RTOL * t) & going
                if not stop.any():
                    continue
                if out is None:
                    out = np.empty((r.size,) + x.shape[1:], dtype=complex)
                rows = live[stop]
                t_out[rows], out[rows], last_step[rows] = t[stop], x[stop], step[stop]
                going = going & ~stop
                left = np.count_nonzero(going)
                if not left:
                    return t_out, self._carry(out, last_step)
                if 2 * left <= going.size:
                    if c_live.shape[0] > 1:
                        c_live = c_live[going]
                    live, r_live, t, lo, hi, last, before = (
                        a[going] for a in (live, r_live, t, lo, hi, last, before))
                    going = np.ones(left, dtype=bool)
        i = live[going][0]
        raise RuntimeError(f"no norm crossing of r = {r[i]!r} found in {_NEWTON_MAX} "
                           f"iterations on [0, {span[i]!r}]")

    def _carry(self, x: np.ndarray, step: np.ndarray) -> np.ndarray:
        """One first-order step of each state to its returned crossing time:
        x - i step H x, by H_eff for states of the pair, by h for each node
        state of a stack (R, k, d)."""
        gen = self.h_eff if x.ndim == 2 else self._h
        hx = _rows(x.reshape(-1, x.shape[-1]), gen).reshape(x.shape)
        return x - (1j * step).reshape((-1,) + (1,) * (x.ndim - 1)) * hx

    def _weights(self, psi: np.ndarray) -> np.ndarray:
        """The channel weights <psi|L_k^dag L_k|psi> of a state, or of each
        row of a stack of them, from the nonzero entries of L_k^dag L_k
        (_weight_terms), at least 0."""
        (i, j), coef = self._pair_terms
        terms = psi[..., i].conj() * psi[..., j]
        # complex, not a real product of Re and Im: zgemm's rows keep their
        # bits in any stack, dgemm's do not above a few hundred rows
        w = coef @ terms if psi.ndim == 1 else _rows(terms, coef)
        return np.maximum(w.real, 0.0)

    def _product_weights(self, x: np.ndarray) -> np.ndarray:
        """_weights of each product row two_nodes(x[i, 0], x[i, -1]) of
        normalized node states, from the nodes' expectations
        (_node_weight_terms)."""
        m = _dots(x, _rows(x.reshape(-1, x.shape[-1]), self._mix).reshape(x.shape))
        cross = m[:, 0].conj() * m[:, -1]
        power = x.real ** 2 + x.imag ** 2
        terms = np.concatenate((power[:, 0], power[:, -1], cross[:, None]), axis=1)
        return np.maximum(_rows(terms, self._node_coef).real, 0.0)

    def _collapse_rows(self, psi_hat: np.ndarray, u: np.ndarray):
        """_collapse of each normalized row with its channel draw u: the
        channel indices and the normalized post-jump states."""
        idx = _pick_rows(self._weights(psi_hat), u)
        post = np.empty_like(psi_hat)
        for k in np.unique(idx):
            chosen = idx == k
            post[chosen] = _rows(psi_hat[chosen], self.ops[k])
        return idx, _unit(post)

    @cached_property
    def _node_ops(self) -> tuple[np.ndarray, np.ndarray]:
        """The channels' node operators, each array once (the model builds
        one array per operator), and the identity, stacked (n_ops d, d) so
        that one product applies all of them; and for each channel the index
        of the operator it applies to node 1 and to node 2 (the identity's
        on a node it leaves alone)."""
        index = {}
        for ch in self._nodes:
            index.setdefault(id(ch.op), (len(index), ch.op))
        ops = [op for _, op in index.values()] + [np.eye(self._h.shape[0])]
        sides = [[index[id(ch.op)][0] if amp != 0.0 else len(index) for amp in (ch.x, ch.y)]
                 for ch in self._nodes]
        return np.concatenate(ops), np.array(sides, dtype=int).reshape(-1, 2)

    def _collapse_products(self, x: np.ndarray, u: np.ndarray):
        """_collapse of each product row two_nodes(x[i, 0], x[i, -1]) with its
        channel draw u, on the node: the channel indices; the normalized
        node pairs (R', 2, d) of the rows a local channel left products,
        applied to one node; and the normalized states of the pair L (a (x)
        b) = amp (x (op a) (x) b + y a (x) (op b)) of the others, those whose
        channel is recorded or acts on both nodes (_lifted), in row order.
        One product applies every operator to every node state, and one
        gather picks each row's (op a, b), (a, op b) or (op a, op b)."""
        x = _unit(x)
        rows, k, d = x.shape
        idx = _pick_rows(self._product_weights(x), u)
        ops, sides = self._node_ops
        applied = _rows(x.reshape(-1, d), ops).reshape(-1, d)
        # row (i k + s) n_ops + o of applied: operator o on node s of row i
        out = applied[(np.arange(rows)[:, None] * k + [0, k - 1]) * (len(ops) // d) + sides[idx]]
        lift = self._lifted[idx]
        up = idx[lift]
        a, b, op_a, op_b = x[lift, 0], x[lift, -1], out[lift, 0], out[lift, 1]
        pair = (self._x[up, None] * self._products(op_a, b)
                + self._y[up, None] * self._products(a, op_b))
        return idx, _unit(out[~lift]), _unit(pair)

    def _wrap(self, arr: np.ndarray) -> StateVector:
        return StateVector(arr, self.dims)


def _weight_terms(ops: list[np.ndarray]) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The terms of <psi|M_k|psi> = Re sum_(i <= j) c_kij conj(psi_i) psi_j,
    M_k = L_k^dag L_k, over all channels k: the index pairs (i, j), i <= j,
    at which some M_k is nonzero, and the coefficients c (n_channels,
    n_pairs), M_ii on the diagonal and 2 M_ij above it (M_k is Hermitian).
    The operators are real, so M_k comes from one real product: its bytes
    are the complex product's, which adds the same terms in the same order."""
    stack = np.stack(ops)
    assert not stack.imag.any(), "a channel operator is not real"
    real = stack.real
    gram = real.transpose(0, 2, 1) @ real
    i, j = np.nonzero(np.triu(gram.any(axis=0)))
    return (i, j), (gram[:, i, j] * np.where(i == j, 1.0, 2.0)).astype(complex)


def _ring_grid(w: np.ndarray, v: np.ndarray, c: np.ndarray, span: float) -> _Grid:
    """The grid of the norm table of the node's no-jump segment u(t) a0 over
    span, from the spectrum the evaluator uses: eigenvalues w, eigenvectors
    v and c = v^-1 a0 (v = 1 and c = a0 where it propagates with expm).

    The node's squared norm is sum_ij A_ij exp(-g_ij t), A_ij = conj(c_i) c_j
    <v_i|v_j> and g_ij = i (w_j - conj(w_i)): it rings at the frequencies
    |Re(w_i - w_j)|.  A term rings while its slope |A_ij g_ij| exp(-Re(g_ij) t)
    is above _RING_LEVEL of that of the slowest-decaying populated mode
    (|c_i|^2 above _RING_LEVEL of the largest), and the coarse grid samples
    it fewer than _RING_POINTS times a period; until the last such term
    stops, the grid takes _RING_POINTS points a period of the fastest, at
    most _FINE_MAX of them."""
    coarse = span / (_TABLE_POINTS - 1)
    freq = np.abs(w.real[:, None] - w.real)
    i, j = np.nonzero(freq * (coarse * _RING_POINTS) > 2.0 * math.pi)
    if not i.size:
        return _Grid(span, 0, 0.0, 0)
    amp = np.abs(c) ** 2
    held = np.flatnonzero(amp >= _RING_LEVEL * amp.max())
    ref = held[np.argmax(w.imag[held])]
    ref_rate = max(-2.0 * w.imag[ref], 0.0)
    floor = _RING_LEVEL * amp[ref] * np.vdot(v[:, ref], v[:, ref]).real * ref_rate
    rate = -(w.imag[i] + w.imag[j])
    slope = np.abs(c[i].conj() * c[j] * np.einsum("ki,ki->i", v[:, i].conj(), v[:, j]))
    slope *= np.hypot(freq[i, j], rate)
    # when each term's slope falls below the floor: never, if it decays no
    # faster than the reference term, or that one does not decay
    lasts = slope > floor
    if not lasts.any():
        return _Grid(span, 0, 0.0, 0)
    life = np.full(i.size, np.inf)
    fades = lasts & (rate > ref_rate)
    if floor > 0.0:
        life[fades] = np.log(slope[fades] / floor) / (rate[fades] - ref_rate)
    life = life[lasts]
    k0 = math.ceil(min(life.max(), span) / coarse)
    t_fine = span * k0 / (_TABLE_POINTS - 1)
    n_fine = min(math.ceil(t_fine * freq[i, j][lasts].max() * _RING_POINTS / (2.0 * math.pi)),
                 _FINE_MAX)
    return _Grid(span, n_fine, t_fine, k0)


def _node_weight_terms(nodes: list[NodeChannel]) -> tuple[np.ndarray, np.ndarray]:
    """What the channel weights of a product state two_nodes(a, b), a and b
    normalized, are made of: <L^dag L> = amp^2 (x^2 <op^dag op>_a + y^2
    <op^dag op>_b + 2 x y Re(conj(<op>_a) <op>_b)).  Each op^dag op is
    diagonal, so with the terms [|a_i|^2, |b_i|^2, conj(<m>_a) <m>_b], m the
    one operator of the channels that act on both nodes, the weights are a
    product with coefficients (n_channels, 2 d + 1).  Returns m and the
    coefficients, complex for zgemm (see _weights)."""
    ops = np.stack([ch.op for ch in nodes])
    gram = ops.conj().transpose(0, 2, 1) @ ops
    g = np.diagonal(gram, axis1=1, axis2=2).real
    assert np.count_nonzero(gram) == np.count_nonzero(g), "an op^dag op is not diagonal"
    amp2, x, y = (np.array(col, dtype=float)[:, None] for col in zip(*(
        (ch.amp ** 2, ch.x, ch.y) for ch in nodes)))
    mixed = ops[(x * y != 0.0)[:, 0]]
    assert (mixed == mixed[:1]).all(), "channels mix the nodes unalike"
    coef = amp2 * np.concatenate((x ** 2 * g, y ** 2 * g, 2.0 * x * y), axis=1)
    m = mixed[0] if len(mixed) else np.zeros(ops.shape[1:])
    return m.astype(complex), coef.astype(complex)


def _pick_rows(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """_pick of each row of weights with its draw u, as one comparison."""
    total = weights.sum(axis=1)
    if np.any(total <= 0.0):
        raise RuntimeError("jump triggered with zero total channel weight")
    below = np.cumsum(weights, axis=1) <= (u * total)[:, None]
    return np.minimum(below.sum(axis=1), weights.shape[1] - 1)


def _pick(weights: np.ndarray, u: float) -> int:
    """np.searchsorted(np.cumsum(weights), u, side="right") capped at the last
    channel, summed in the same order on a list: cheaper for one collapse."""
    cum = list(itertools.accumulate(weights.tolist()))
    return min(bisect.bisect_right(cum, u), len(cum) - 1)


def whole_steps(t, dt: float, name: str) -> np.ndarray:
    """The number of dt steps in each time of t; a ParamError naming `name`
    unless every time is a whole number of steps, to 1e-9."""
    n = np.rint(np.asarray(t, dtype=float) / dt).astype(int)
    if np.any(np.abs(n * dt - t) > 1e-9):
        raise ParamError(name, f"must be a whole number of dt = {dt} steps, got {t}")
    return n


def _as_unit_array(psi: StateVector | np.ndarray) -> np.ndarray:
    arr = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)
    n2 = np.vdot(arr, arr).real
    if not (math.isfinite(n2) and n2 > 0.0):
        raise ValueError(f"start state must have a finite, positive norm, got squared norm {n2}")
    return arr / math.sqrt(n2)


def run_until_click(
    psi0: StateVector | np.ndarray,
    engine: StageEngine,
    rng: RngStream,
    t_max: float,
    *,
    sampler: str = "fixed",
) -> StageResult:
    """Evolve from psi0 until the first recorded detector click or t_max.

    Unrecorded collapses (lost photons, spontaneous decays) are applied and
    logged but do not stop the window.  Click and event times count from the
    window's opening.  A window from engine.psi0 (the state itself, or equal
    to it bit for bit) replays the engine-cached deterministic no-jump
    evolution from it, which changes nothing about the sampled statistics.
    """
    # the engine's own start state is normalized already
    psi_n = engine.psi0.amplitudes if psi0 is engine.psi0 else _as_unit_array(psi0)
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if t_max == 0.0:
        return StageResult(None, None, engine._wrap(psi_n), [])
    # the one shared curve is psi0's
    psi0 = engine.psi0.amplitudes
    shared = psi_n is psi0 or psi_n.tobytes() == psi0.tobytes()
    if sampler == "fixed":
        return engine._run_fixed(psi_n, rng, t_max, shared)
    if sampler == "fast":
        return engine._run_fast(psi_n, rng, t_max, shared)
    raise ValueError(f"unknown sampler {sampler!r}")


class _Waiting(NamedTuple):
    """The windows of a run_windows round that wait in one space: their
    rows, where their segments start (from the window's opening), the
    segments' end norms and their coefficients (one row psi0's, which every
    row shares)."""

    rows: np.ndarray
    t_seg: np.ndarray
    n2_end: np.ndarray
    coeffs: np.ndarray

    def crossing(self, draws: np.ndarray):
        """The windows whose step draw (column 0) falls below their end norm,
        and their draws: the others time out."""
        cross = draws[:, 0] > self.n2_end
        coeffs = self.coeffs if len(self.coeffs) == 1 else self.coeffs[cross]
        return _Waiting(self.rows[cross], self.t_seg[cross], self.n2_end[cross], coeffs), draws[cross]


def run_windows(
    engine: StageEngine,
    block: StreamBlock,
    t_max: float,
    *,
    stage: int = 0,
    rows: Optional[np.ndarray] = None,
    start: Optional[np.ndarray] = None,
    sampler: str = "fast",
) -> WindowBatch:
    """The stage `stage` windows of block's streams (those in rows, all by
    default), by either sampler: from engine.psi0, or row i from start[i]
    scaled to unit norm (its bytes can differ from run_until_click's in the
    last bits).  Times count from the window's opening.

    Row i draws the numbers run_until_click draws on the same stream and
    start state and decides from them as it does; that scalar window is the
    reference the batch is tested against.  The fixed-step sampler runs it
    per row, replaying one cached curve for the rows from psi0, or from a
    start several rows share (the scalar walk's bits up to _FIXED_BLOCK
    steps, to rounding past them).  The fast sampler's windows go through
    in rounds, as one stack: round k compares each waiting row's step draw
    k with its segment's end norm, which times out the rows at or below it,
    crosses the rest in one masked Newton iteration and collapses them with
    their draw k of the channel substream; the rows whose collapse was not
    recorded go on into round k + 1, each from its own segment.  A window
    from psi0 = two_nodes(a0, a0) stays a product two_nodes(a, b) until a
    channel acting on both nodes, and is carried as its two node states:
    crossed on the node (_node_rows, the first round from psi0's norm
    table), weighed from node expectations and collapsed on one node by a
    local (spontaneous) jump.  A click lifts it to the pair space for its
    post-click state, and an unrecorded jump on both nodes (a lost photon)
    moves it there, to the windows from start states: those are crossed
    and collapsed in the pair space (_pair_rows).
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if sampler not in ("fast", "fixed"):
        raise ValueError(f"unknown sampler {sampler!r}")
    streams = np.arange(block.start, block.stop)[slice(None) if rows is None else rows]
    n = streams.size
    channel, time, jumps = np.full(n, -1), np.full(n, np.nan), np.zeros(n, dtype=int)
    states = np.empty((n, engine.psi0.dim), dtype=complex)   # row i: window i's click
    if start is not None and len(start) != n:
        raise ValueError(f"{len(start)} start states for {n} windows")
    if t_max == 0.0 or n == 0:
        return WindowBatch(channel, time, jumps, states[:0])
    if sampler == "fixed":
        psi = [engine.psi0.amplitudes] * n if start is None else [_as_unit_array(x) for x in start]
        shared = start is None or n > 1 and all(x.tobytes() == psi[0].tobytes() for x in psi)
        for i, (index, x) in enumerate(zip(streams, psi)):
            res = engine._run_fixed(x, block.stream(index).for_stage(stage), t_max, shared)
            jumps[i] = len(res.events)
            if res.clicked:
                channel[i], time[i] = engine.tags.index(res.tag), res.time
                states[i] = res.state.amplitudes
        return WindowBatch(channel, time, jumps, states[channel >= 0])
    keys, head = block.stage_tables(stage) if rows is None else block.row_tables(stage, rows)
    recorded = np.array([tag.recorded for tag in engine.tags])
    none = _Waiting(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), np.zeros((0, 0)))
    if start is None:
        # psi0's shared segment, from one shared row of node coefficients
        seg = engine.coarse_curve(t_max)
        nodes = _Waiting(np.arange(n), np.zeros(n), np.full(n, seg.n2_end), seg.node[None, None])
        pairs = none
    else:
        psi = np.asarray(start, dtype=complex)
        n2 = _vdots(psi, psi)
        bad = ~(np.isfinite(n2) & (n2 > 0.0))
        if bad.any():
            raise ValueError("start state must have a finite, positive norm, got squared norm "
                             f"{n2[bad][0]}")
        coeffs, n2_end = engine._segment_rows(_unit(psi), np.full(n, t_max))
        nodes, pairs, seg = none, _Waiting(np.arange(n), np.zeros(n), n2_end, coeffs), None

    def cross(at, waiting, r, seg, first=None):
        """The crossing times from the window's opening and the states there."""
        span = t_max - waiting.t_seg
        wait, x = engine._crossing_rows(
            at, waiting.coeffs, r, span, engine._first_guess_rows(seg, waiting.n2_end, r, span),
            first)
        return waiting.t_seg + wait, x

    def halley(c, t):
        return engine._node_rows(c, t, 2)

    for k in itertools.count():
        m = nodes.rows.size
        live = np.concatenate((nodes.rows, pairs.rows)) if pairs.rows.size else nodes.rows
        if not live.size:
            return WindowBatch(channel, time, jumps, states[channel >= 0])
        # draw k of both substreams: step (column 0) and channel (column 1)
        draws = nth_uniforms(keys[live], head[live], k)
        # the collapses that leave a state of the pair: (rows, times, channels, states)
        lifted = []
        if m:
            nodes, node_draws = nodes.crossing(draws[:m])
        if nodes.rows.size:
            t, x = cross(engine._node_rows, nodes, node_draws[:, 0], seg, halley)
            chan, kept, post = engine._collapse_products(x, node_draws[:, 1])
            up = engine._lifted[chan]
            stay = ~up
            jumps[nodes.rows] += 1
            lifted.append((nodes.rows[up], t[up], chan[up], post))
            coeffs, n2_end = engine._node_segment_rows(kept, t_max - t[stay])
            nodes = _Waiting(nodes.rows[stay], t[stay], n2_end, coeffs)
        if pairs.rows.size:
            pairs, pair_draws = pairs.crossing(draws[m:])
        if pairs.rows.size:
            t, x = cross(engine._pair_rows, pairs, pair_draws[:, 0], None)
            chan, post = engine._collapse_rows(_unit(x), pair_draws[:, 1])
            lifted.append((pairs.rows, t, chan, post))
            jumps[pairs.rows] += 1
        pairs = none
        if lifted:
            live, t, chan, post = (lifted[0] if len(lifted) == 1 else
                                   (np.concatenate(c) for c in zip(*lifted)))
            hit = recorded[chan]
            clicked = live[hit]
            channel[clicked], time[clicked], states[clicked] = chan[hit], t[hit], post[hit]
            go = ~hit
            if go.any():
                coeffs, n2_end = engine._segment_rows(post[go], t_max - t[go])
                pairs = _Waiting(live[go], t[go], n2_end, coeffs)
        seg = None


def run_protocol(engine: StageEngine, rng: RngStream, *, sampler: str = "fast") -> TrajectoryRecord:
    """Full two-stage run: wait for the first photon, capture the heralded
    state, apply the phase manipulation, then wait for the second photon.

    The drive is identical in both stages, so one engine serves both, and
    the windows' lengths are its params' t_wait and t_wait2.  Event times
    are absolute: the second window's are shifted by the first click's.
    The scalar reference for a protocol chunk's columns.
    """
    first = run_until_click(
        engine.psi0,
        engine,
        rng if rng.stage == 0 else rng.for_stage(0),
        engine.params.t_wait,
        sampler=sampler,
    )
    second = None
    if first.clicked:
        second = run_until_click(
            engine.phase_diag * first.state.amplitudes,
            engine,
            rng.for_stage(1),
            engine.params.t_wait2,
            sampler=sampler,
        )
        t0 = first.time
        second = replace(second, time=None if second.time is None else t0 + second.time,
                         events=[Event(t0 + e.time, e.tag) for e in second.events])
    return TrajectoryRecord(rng.stream_index, first, second)


def run_unconditioned(
    psi0: StateVector | np.ndarray,
    engine: StageEngine,
    rng: RngStream,
    t_grid: Sequence[float],
    observables: Sequence[OperatorMatrix],
) -> np.ndarray:
    """One trajectory of the unconditioned (never-stopping) unraveling,
    returning <O>(t) on the grid for each observable.

    All jumps, recorded or not, are applied and the walk continues to the
    end of the grid; averaging many of these against the master equation's
    solution is the correctness oracle for the whole unraveling.  The walk
    is a chain of fast-sampler windows (run_until_click) from grid time to
    grid time (repeats allowed): a recorded click opens the next window from
    its state, a timeout gives the state at the grid time.  The unraveling
    is Markov in the normalized state, so a fresh draw at each window's
    opening leaves the law unchanged.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or not np.all((t_grid >= 0.0) & np.isfinite(t_grid)):
        raise ValueError(f"t_grid must be a non-empty set of finite times >= 0, got {t_grid}")
    obs = [o.entries for o in observables]
    vals = np.empty((len(obs), t_grid.size))
    psi, t = _as_unit_array(psi0), 0.0
    for j in np.argsort(t_grid, kind="stable"):
        while t < t_grid[j]:
            res = run_until_click(psi, engine, rng, t_grid[j] - t, sampler="fast")
            psi = res.state.amplitudes
            t = t + res.time if res.clicked else t_grid[j]
        vals[:, j] = [np.vdot(psi, o @ psi).real for o in obs]
    return vals
