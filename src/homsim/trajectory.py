"""Monte Carlo wavefunction engine.

Two statistically equivalent samplers over the same jump-channel set:

* fixed-step: the textbook discretization.  Each interval dt the total jump
  probability P = dt <psi| sum L^dag L |psi> is compared against a uniform
  draw; a hit selects one channel in proportion to its weight and collapses
  the state, a miss applies the exact no-jump propagator exp(-i H_eff dt)
  followed by renormalization.  Between jumps the evolution is deterministic,
  so one replay kernel (StageEngine._fixed_scan) evaluates a no-jump segment
  blockwise against a trajectory's random numbers, replaying a cached block
  for a start state many trajectories share.  It serves the stopping windows
  and the unconditioned walk; the tests hold it to a literal one-step loop.

* fast: waiting-time sampling (Plenio and Knight, RMP 70, 101 (1998)).
  Draw r; if the unnormalized no-jump state still has squared norm >= r at
  the window end the window times out, otherwise the crossing time is
  root-found and the channel is selected from the weights at the crossing
  state.  The norm never grows along a no-jump segment, so the root is
  unique: safeguarded Newton with the analytic slope -<psi| sum L^dag L |psi>
  finds it (StageEngine._crossing), from the norm table of the one segment
  windows share, psi0's (StageEngine.coarse_curve), or a log-linear guess
  on any other.  The scalar window searches the table and sums its channel
  weights on Python lists, to numpy's bits.  The no-jump state at any time
  comes from one eigendecomposition of the node, h = v diag(w) v^-1:
  psi(t) = V exp(-i W t) V^-1 psi with W = w_i + w_j and V = P (v (x) v),
  or from the node's expm when v is too ill-conditioned (near an
  exceptional point); from psi0 = two_nodes(a0, a0) it stays two_nodes(phi,
  phi), phi = u(t) a0, evaluated on the node alone.  The jump rate
  sum L^dag L is diagonal, and acts by its diagonal; a channel's weight
  <psi|L_k^dag L_k|psi> is summed from the nonzero entries of L_k^dag L_k,
  for all channels in one product, and held at 0 or above.  run_windows
  runs the windows of many streams as one stack: one comparison finds the
  timeouts, one masked Newton iteration the crossings, a per-row weight
  matrix the channels; windows going on after an unrecorded jump form a
  shrinking stack.  Its windows start either from psi0, whose shared
  segment is crossed on the node from its norm table (a stage-1 sweep
  chunk's herald windows), or from a state per row, crossed in the pair
  space (a protocol chunk's stage-2 windows, from the phase-gated herald
  states).  The *_rows methods repeat the scalar ones row by row and are
  tested against the scalar window, as the replay is against the one-step
  loop.

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
outcome and the event list are derived from them.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass, field, replace
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
    build_jump_channels,
    initial_state,
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
_FIXED_CACHE_STEPS = 1 << 16   # fixed-step states cached per engine (38 MB at dim 36)
_TABLE_POINTS = 257         # grid of the norm table of the shared psi0 segment
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


def _vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i|b_i> for each row i of two stacks of states."""
    return np.einsum("ij,ij->i", a.conj(), b).real


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


@dataclass(eq=False, slots=True)
class _Segment:
    coeffs: np.ndarray   # start state in the evaluator's basis (see StageEngine._evolve)
    end: np.ndarray      # unnormalized state at the segment end
    n2_end: float        # its squared norm
    # the psi0 segment only: minus the squared norm on linspace(0, span,
    # _TABLE_POINTS), made monotone, so that it ascends for searchsorted
    table: Optional[np.ndarray] = None
    table_list: Optional[list] = None   # the same, for the scalar window's bisect
    # the normalized end state, built at the segment's first timeout
    final: Optional[StateVector] = None
    node: Optional[np.ndarray] = None   # the psi0 segment only: v^-1 a0, psi0 = two_nodes(a0, a0)


class StageEngine:
    """Precomputed machinery for one parameter set.

    Holds the initial state, the jump channels, the summed jump operator,
    the fine fixed-step propagator and the eigendecomposition of the node
    that the fast sampler propagates with.  Immutable after construction apart
    from internal caches; safe to share read-only across worker trajectories.
    """

    def __init__(self, params: SystemParams):
        self.params = params
        self.dt = params.dt
        self.dims = params.dims
        self._h = node_generator(params)
        self.h_eff = both_nodes(self._h)
        self.channels: list[JumpChannel] = build_jump_channels(params)
        self.ops = [ch.operator.entries for ch in self.channels]
        self.tags = [ch.tag for ch in self.channels]
        j = node_jump_rate(params)
        self.total_op = both_nodes(j)
        # both are diagonal (node_jump_rate), so they act elementwise
        self._j, self._total = _diagonal(j), _diagonal(self.total_op)
        self._weight_pairs, self._weight_coef = _weight_terms(self.ops)
        u = _scipy_expm(-1j * self.dt * self._h)
        self.propagator = two_nodes(u, u)
        self.phase_diag = np.diag(phase_gate(params.phi, params.n_max).entries).copy()
        self.psi0 = initial_state(params)
        w, v = np.linalg.eig(self._h)
        # cond(V) = cond(v)^2; near an exceptional point V^-1 loses the digits
        # the spectral propagator needs, and the node's expm is used, with V = P
        self.spectral = bool(np.linalg.cond(v) ** 2 <= EIG_COND_MAX)
        v = v if self.spectral else np.eye(v.shape[0])
        self._w, self._w_pairs = w, (w[:, None] + w).ravel()   # W = w_i + w_j
        self._perm, self._nv, v_inv = node_order(params.n_max), v, np.linalg.inv(v)
        self._v = np.kron(v, v)[self._perm]                         # V = P (v (x) v)
        self._v_inv = np.kron(v_inv, v_inv)[:, self._perm].copy()   # (v^-1 (x) v^-1) P^T, C order
        self._node0 = v_inv @ node_initial_state(params)   # v^-1 a0, psi0 = two_nodes(a0, a0)
        self._fixed_cache: dict = {}
        self._coarse_cache: dict = {}   # window length -> psi0 segment

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
        """_fixed_block cached by start state, for states many trajectories share."""
        key = (psi_n.tobytes(), n_steps)
        curve = self._fixed_cache.get(key)
        if curve is None:
            curve = self._fixed_block(psi_n, n_steps)
            # bounded in steps, not entries: the unconditioned walk caches one
            # short segment per observation time; the newest curve always stays
            cached = sum(c.pvals.size for c in self._fixed_cache.values())
            while self._fixed_cache and cached + n_steps > _FIXED_CACHE_STEPS:
                cached -= self._fixed_cache.pop(next(iter(self._fixed_cache))).pvals.size
            self._fixed_cache[key] = curve
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

    def _run_fixed(self, psi_n, rng, t_max, share_curve) -> StageResult:
        n_steps = int(whole_steps(t_max, self.dt, "t_max"))
        events: list[Event] = []
        r = rng.step_uniforms(n_steps)
        k0 = 0
        psi = psi_n
        while k0 < n_steps:
            # only a window's start state is shared
            rel, psi_hat = self._fixed_scan(psi, r[k0:], share_curve and not events)
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
        """two_nodes(phi, phi) of a node state phi, or of each row of a stack of
        them; a state of the pair as it is."""
        d = self._h.shape[0]
        if x.ndim == 1 and x.size == d:   # the same products, for less than the broadcast's call
            return np.multiply.outer(x, x).reshape(d * d)[self._perm]
        return x if x.shape[-1] != d else (
            (x[..., :, None] * x[..., None, :]).reshape(*x.shape[:-1], d * d)[..., self._perm])

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
            phi, n2, _ = self._node_rows(self._node0[None], np.linspace(0.0, t_max, _TABLE_POINTS))
            table = -np.minimum.accumulate(n2)
            seg = self._coarse_cache[t_max] = _Segment(
                self._v_inv @ self.psi0.amplitudes, self._lift(phi[-1]), n2[-1],
                table=table, table_list=table.tolist(), node=self._node0)
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
        return span * (k - 1 + frac) / (len(table) - 1)

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

    def _run_fast(self, psi_n, rng, t_max, share_curve) -> StageResult:
        # the one shared segment is psi0's, from a window's start
        psi0 = self.psi0.amplitudes
        shared = share_curve and (psi_n is psi0 or psi_n.tobytes() == psi0.tobytes())
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

    def _node_rows(self, c: np.ndarray, t: np.ndarray):
        """_node_at of each row of c (or of its one shared row) at time t[i]."""
        phi = (_rows(np.exp(np.multiply.outer(-1j * t, self._w)) * c, self._nv) if self.spectral
               else (_scipy_expm(np.multiply.outer(-1j * t, self._h)) @ c[..., None])[..., 0])
        s = _vdots(phi, phi)
        return phi, s * s, -2.0 * s * _vdots(phi, phi * self._j)

    def _segment_rows(self, psi: np.ndarray, span: np.ndarray):
        """_segment of each row: its coefficients and its end state's squared norm."""
        coeffs = _rows(psi, self._v_inv)
        end = self._evolve_rows(coeffs, span)
        return coeffs, _vdots(end, end)

    def _first_guess_rows(self, table, n2_end, r, span) -> np.ndarray:
        """_first_guess of each row, from the shared segment's norm table if
        table is given, otherwise from each row's n2_end."""
        if table is None:
            return span * np.log(r) / np.log(np.maximum(n2_end, _TINY))
        k = np.clip(np.searchsorted(table, -r), 1, table.size - 1)
        above, below = -table[k - 1], -table[k]
        falls = above > below
        frac = np.clip((above - r) / np.where(falls, above - below, 1.0), 0.0, 1.0)
        return span * (k - 1 + np.where(falls, frac, 0.5)) / (table.size - 1)

    def _crossing_rows(self, at, coeffs, r, span, t) -> tuple[np.ndarray, np.ndarray]:
        """_crossing of each row from the first guesses t, evaluated by at
        (_node_rows or _pair_rows): the crossing times and the states there.
        Each row iterates with the scalar safeguards and leaves at their stop."""
        t = np.minimum(t, np.nextafter(span, 0.0))
        t_out = np.empty(r.size)
        psi_out = np.empty((r.size, self.h_eff.shape[0]), dtype=complex)
        live = np.arange(r.size)
        r_live, lo, hi, end = r, np.zeros(r.size), span, span
        last = before = span   # sizes of the last two steps
        for _ in range(_NEWTON_MAX):
            x, n2, slope = at(coeffs if coeffs.shape[0] == 1 else coeffs[live], t)
            f = n2 - r_live
            lo = np.where(f > 0.0, t, lo)
            hi = np.where(f > 0.0, hi, t)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(slope < 0.0, -f / slope, np.nan)
            nxt = t + step
            newton = (lo <= nxt) & (nxt <= hi) & (nxt < end) & (np.abs(step) <= 0.5 * before)
            mid = 0.5 * (lo + hi)
            step = np.where(newton, step, np.where(mid < end, mid, lo) - t)
            before, last = last, np.abs(step)
            t = t + step
            done = last <= _XTOL + _RTOL * t
            if done.any():
                # one first-order step carries each state to its returned time
                hit = self._lift(x[done])
                t_out[live[done]] = t[done]
                psi_out[live[done]] = hit - (1j * step[done])[:, None] * _rows(hit, self.h_eff)
                go = ~done
                if not go.any():
                    return t_out, psi_out
                live, r_live, t, lo, hi, end, last, before = (
                    a[go] for a in (live, r_live, t, lo, hi, end, last, before)
                )
        raise RuntimeError(f"no norm crossing of r = {r[live[0]]!r} found in {_NEWTON_MAX} "
                           f"iterations on [0, {span[live[0]]!r}]")

    def _weights(self, psi: np.ndarray) -> np.ndarray:
        """The channel weights <psi|L_k^dag L_k|psi> of a state, or of each
        row of a stack of them, from the nonzero entries of L_k^dag L_k
        (_weight_terms), at least 0."""
        i, j = self._weight_pairs
        terms = psi[..., i].conj() * psi[..., j]
        # complex, not a real product of Re and Im: zgemm's rows keep their
        # bits in any stack, dgemm's do not above a few hundred rows
        w = self._weight_coef @ terms if psi.ndim == 1 else _rows(terms, self._weight_coef)
        return np.maximum(w.real, 0.0)

    def _collapse_rows(self, psi_hat: np.ndarray, u: np.ndarray):
        """_collapse of each normalized row with its channel draw u: the
        channel indices and the normalized post-jump states."""
        weights = self._weights(psi_hat)
        total = weights.sum(axis=1)
        if np.any(total <= 0.0):
            raise RuntimeError("jump triggered with zero total channel weight")
        below = np.cumsum(weights, axis=1) <= (u * total)[:, None]
        idx = np.minimum(below.sum(axis=1), len(self.ops) - 1)
        post = np.empty_like(psi_hat)
        for k in np.unique(idx):
            chosen = idx == k
            post[chosen] = _rows(psi_hat[chosen], self.ops[k])
        return idx, post / np.sqrt(_vdots(post, post))[:, None]

    def _wrap(self, arr: np.ndarray) -> StateVector:
        return StateVector(arr, self.dims)


def _weight_terms(ops: list[np.ndarray]) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The terms of <psi|M_k|psi> = Re sum_(i <= j) c_kij conj(psi_i) psi_j,
    M_k = L_k^dag L_k, over all channels k: the index pairs (i, j), i <= j,
    at which some M_k is nonzero, and the coefficients c (n_channels,
    n_pairs), M_ii on the diagonal and 2 M_ij above it (M_k is Hermitian)."""
    stack = np.stack(ops)
    gram = stack.conj().transpose(0, 2, 1) @ stack
    i, j = np.nonzero(gram.any(axis=0))
    i, j = i[i <= j], j[i <= j]
    return (i, j), gram[:, i, j] * np.where(i == j, 1.0, 2.0)


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
    if not n2 > 0.0:
        raise ValueError(f"start state must have a positive norm, got squared norm {n2}")
    return arr / math.sqrt(n2)


def run_until_click(
    psi0: StateVector | np.ndarray,
    engine: StageEngine,
    rng: RngStream,
    t_max: float,
    *,
    sampler: str = "fixed",
    share_curve: bool = False,
) -> StageResult:
    """Evolve from psi0 until the first recorded detector click or t_max.

    Unrecorded collapses (lost photons, spontaneous decays) are applied and
    logged but do not stop the window.  Click and event times count from the
    window's opening.  share_curve reuses the engine-cached deterministic
    no-jump evolution, which changes nothing about the sampled statistics:
    the fixed sampler's from any start state, the fast sampler's from
    engine.psi0 (equal to it bit for bit) alone.
    """
    # the engine's own start state is normalized already
    psi_n = engine.psi0.amplitudes if psi0 is engine.psi0 else _as_unit_array(psi0)
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if t_max == 0.0:
        return StageResult(None, None, engine._wrap(psi_n), [])
    if sampler == "fixed":
        return engine._run_fixed(psi_n, rng, t_max, share_curve)
    if sampler == "fast":
        return engine._run_fast(psi_n, rng, t_max, share_curve)
    raise ValueError(f"unknown sampler {sampler!r}")


def run_windows(
    engine: StageEngine,
    block: StreamBlock,
    t_max: float,
    *,
    stage: int = 0,
    rows: Optional[np.ndarray] = None,
    start: Optional[np.ndarray] = None,
) -> WindowBatch:
    """The stage `stage` windows of block's streams (those in rows, all by
    default), by the fast sampler run over many of them at once: from
    engine.psi0, or row i from start[i], normalized as run_until_click
    normalizes it.  Times count from the window's opening.

    Row i draws the numbers run_until_click draws on the same stream and
    start state (with share_curve=True from psi0) and decides from them as
    it does; that scalar window is the reference the batch is tested
    against.  The windows go through in rounds, as one stack: round k
    compares each waiting row's step draw k with its segment's end norm,
    which times out the rows at or below it, crosses the rest in one masked
    Newton iteration and collapses them with their draw k of the channel
    substream; the rows whose collapse was not recorded go on into round
    k + 1, each from its own segment.  The shared psi0 segment is crossed
    on the node from its norm table (_node_rows), any other in the pair
    space (_pair_rows) from the log-linear guess.
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    keys, head = block.stage_tables(stage) if rows is None else block.row_tables(stage, rows)
    n = keys.shape[0]
    channel, time, jumps = np.full(n, -1), np.full(n, np.nan), np.zeros(n, dtype=int)
    states = np.empty((n, engine.psi0.dim), dtype=complex)   # row i: window i's click
    if start is not None and len(start) != n:
        raise ValueError(f"{len(start)} start states for {n} windows")
    if t_max == 0.0 or n == 0:
        return WindowBatch(channel, time, jumps, states[:0])
    recorded = np.array([tag.recorded for tag in engine.tags])
    if start is None:
        seg = engine.coarse_curve(t_max)
        at, table = engine._node_rows, seg.table
        coeffs, n2_end = seg.node[None], np.full(n, seg.n2_end)
    else:
        at, table = engine._pair_rows, None
        psi = np.asarray(start, dtype=complex)
        n2 = _vdots(psi, psi)
        if not np.all(n2 > 0.0):
            raise ValueError("start state must have a positive norm, got squared norm "
                             f"{n2[~(n2 > 0.0)][0]}")
        coeffs, n2_end = engine._segment_rows(psi / np.sqrt(n2)[:, None], np.full(n, t_max))
    live, t_seg, k = np.arange(n), np.zeros(n), 0
    while True:
        # draw k of both substreams: step (column 0) and channel (column 1)
        draws = nth_uniforms(keys[live], head[live], k)
        cross = draws[:, 0] > n2_end   # the other rows time out
        live, n2_end, t_seg, draws = (a[cross] for a in (live, n2_end, t_seg, draws))
        r, u = draws.T
        # one row of coeffs is psi0's, which every row shares, or a lone row's
        coeffs = coeffs if len(coeffs) == 1 else coeffs[cross]
        if not live.size:
            return WindowBatch(channel, time, jumps, states[channel >= 0])
        span = t_max - t_seg
        wait, psi = engine._crossing_rows(
            at, coeffs, r, span, engine._first_guess_rows(table, n2_end, r, span)
        )
        t_seg = t_seg + wait
        chan, post = engine._collapse_rows(psi / np.sqrt(_vdots(psi, psi))[:, None], u)
        jumps[live] += 1
        hit = recorded[chan]
        channel[live[hit]], time[live[hit]] = chan[hit], t_seg[hit]
        states[live[hit]] = post[hit]
        live, t_seg, post = live[~hit], t_seg[~hit], post[~hit]
        k += 1
        at, table = engine._pair_rows, None
        coeffs, n2_end = engine._segment_rows(post, t_max - t_seg)


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
        share_curve=True,
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
    end of the grid; averaging many of these against the density-matrix
    integrator is the correctness oracle for the whole unraveling.  The walk
    goes from grid time to grid time (repeats allowed) with the replay
    kernel, shared until the trajectory first jumps.
    """
    dt = engine.dt
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or not np.all(t_grid >= 0.0):
        raise ValueError(f"t_grid must be a non-empty set of times >= 0, got {t_grid}")
    grid_idx = whole_steps(t_grid, dt, "t_grid")
    obs = [o.entries for o in observables]
    vals = np.empty((len(obs), t_grid.size))
    psi = _as_unit_array(psi0)
    r = rng.step_uniforms(int(grid_idx.max()))
    k = 0
    shared = True
    for j in np.argsort(grid_idx, kind="stable"):
        while True:
            rel, psi_hat = engine._fixed_scan(psi, r[k : grid_idx[j]], shared)
            if rel is None:
                break
            _, psi = engine._collapse(psi_hat, rng)
            k += rel + 1
            shared = False
        psi, k = psi_hat, grid_idx[j]
        vals[:, j] = [np.vdot(psi, o @ psi).real for o in obs]
    return vals
