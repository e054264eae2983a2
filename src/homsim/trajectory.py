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
  and the unconditioned walk; `step` is the literal one-step reference.

* fast: waiting-time sampling (Plenio and Knight, RMP 70, 101 (1998)).
  Draw r; if the unnormalized no-jump state still has squared norm >= r at
  the window end the window times out, otherwise the crossing time is
  root-found and the channel is selected from the weights at the crossing
  state.  The norm never grows along a no-jump segment, so the root is
  unique: safeguarded Newton with the analytic slope -<psi| sum L^dag L |psi>
  finds it (StageEngine._crossing), starting from a norm table on the
  window segment every stage-1 trajectory shares.  The no-jump state at any
  time comes from one eigendecomposition of H_eff,
  psi(t) = V exp(-i w t) V^-1 psi, or from expm when V is too
  ill-conditioned (near an exceptional point).

Randomness comes from counter-based (Philox) streams keyed by
(master_seed, stream_index, stage, substream), so any trajectory is
bit-reproducible in isolation and independent of scheduling order.  The
streams live in homsim.rng: a chunk of trajectories derives the keys and
first output blocks of all its streams in one vectorized pass (a
StreamBlock), bit-exact against numpy's SeedSequence and Philox, which stay
the reference for a stream made on its own.  A stream serves its first four
draws per substream from the block and continues on a numpy Philox from the
block's key at counter 1.

A waiting window returns a StageResult: the recorded click that ended it, or
a timeout, with the state it left and every collapse on the way.  Whether a
collapse is recorded is a property of its tag (ChannelTag.recorded).  A
protocol run is two windows, and its TrajectoryRecord holds just those two
results; the outcome and the event list are derived from them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import expm as _scipy_expm

from .hilbert import OperatorMatrix, StateVector
from .model import (
    ChannelTag,
    JumpChannel,
    SystemParams,
    build_jump_channels,
    initial_state,
    phase_gate,
    stage_hamiltonian,
    total_jump_operator,
)
from .rng import RngStream

P_STEP_MAX = 0.05           # abort threshold for the first-order jump probability
EIG_COND_MAX = 1e4          # above this cond(V) the fast sampler propagates with expm
_FIXED_BLOCK = 2048         # steps per replay block in unshared fixed-step scans
_CURVE_CACHE_MAX = 4        # fast-sampler segments cached per engine
_FIXED_CACHE_STEPS = 1 << 16   # fixed-step states cached per engine (38 MB at dim 36)
_TABLE_POINTS = 257         # grid of the norm table a shared fast-sampler segment carries
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


class _FixedCurve(NamedTuple):
    states: np.ndarray   # (n_steps+1, D) unnormalized, states[k] at t = k*dt
    n2: np.ndarray       # squared norms of states
    pvals: np.ndarray    # per-step jump probability of the normalized state


@dataclass(eq=False, slots=True)
class _Segment:
    coeffs: np.ndarray   # start state in the evaluator's basis (see StageEngine._evolve)
    end: np.ndarray      # unnormalized state at the segment end
    n2_end: float        # its squared norm
    # shared segments only: minus the squared norm on linspace(0, span,
    # _TABLE_POINTS), made monotone, so that it ascends for searchsorted
    table: Optional[np.ndarray] = None
    # the normalized end state, built at the segment's first timeout
    final: Optional[StateVector] = None


class StageEngine:
    """Precomputed machinery for one parameter set.

    Holds the initial state, the jump channels, the summed jump operator,
    the fine fixed-step propagator and the eigendecomposition of H_eff that
    the fast sampler propagates with.  Immutable after construction apart
    from internal caches; safe to share read-only across worker trajectories.
    """

    def __init__(self, params: SystemParams):
        self.params = params
        self.dt = params.dt
        self.h_eff = stage_hamiltonian(params).entries
        self.dims = params.dims
        self.channels: list[JumpChannel] = build_jump_channels(params)
        self.ops = [ch.operator.entries for ch in self.channels]
        self._op_stack = np.stack(self.ops)
        self.tags = [ch.tag for ch in self.channels]
        self.total_op = total_jump_operator(self.channels)
        self.propagator = _scipy_expm(-1j * self.dt * self.h_eff)
        self.phase_diag = np.diag(phase_gate(params.phi, params.n_max).entries).copy()
        self.psi0 = initial_state(params)
        self._w, self._v = np.linalg.eig(self.h_eff)
        # near an exceptional point V is close to singular and V^-1 loses
        # the digits the spectral propagator needs; expm is used instead
        self.spectral = bool(np.linalg.cond(self._v) <= EIG_COND_MAX)
        self._v_inv = np.linalg.inv(self._v) if self.spectral else None
        self._fixed_cache: dict = {}
        self._coarse_cache: dict = {}

    # -- fixed-step machinery -------------------------------------------------

    def _pvals(self, states: np.ndarray, n2: np.ndarray) -> np.ndarray:
        """Per-step jump probabilities dt*<L^dag L> for a run of states."""
        mpsi = states @ self.total_op.T
        mexp = np.einsum("ij,ij->i", states.conj(), mpsi).real
        p = self.dt * mexp / n2
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
        n2 = np.einsum("ij,ij->i", states.conj(), states).real
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
        amps = self._op_stack @ psi_hat
        weights = np.einsum("ij,ij->i", amps.conj(), amps).real
        total = weights.sum()
        if total <= 0.0:
            raise RuntimeError("jump triggered with zero total channel weight")
        u = rng.channel_uniform() * total
        idx = int(np.searchsorted(np.cumsum(weights), u, side="right"))
        idx = min(idx, len(self.ops) - 1)
        post = self.ops[idx] @ psi_hat
        post = post / math.sqrt(np.vdot(post, post).real)
        return self.tags[idx], post

    def _run_fixed(self, psi_n, rng, t_max, share_curve, t_offset) -> StageResult:
        n_steps = int(round(t_max / self.dt))
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
            t_evt = t_offset + (k + 1) * self.dt
            events.append(Event(t_evt, tag))
            if tag.recorded:
                return StageResult(tag, t_evt, self._wrap(psi), events)
            k0 = k + 1
        return StageResult(None, None, self._wrap(psi), events)

    # -- fast-sampler machinery -----------------------------------------------

    def _evolve(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """Unnormalized no-jump state a time t into a segment whose start
        state has coefficients coeffs: eigenbasis components when spectral,
        otherwise the state itself."""
        if self.spectral:
            return self._v @ (np.exp(-1j * t * self._w) * coeffs)
        return _scipy_expm(-1j * t * self.h_eff) @ coeffs

    def _segment(self, psi_n: np.ndarray, span: float) -> _Segment:
        coeffs = self._v_inv @ psi_n if self.spectral else psi_n
        end = self._evolve(coeffs, span)
        return _Segment(coeffs, end, float(np.vdot(end, end).real))

    def coarse_curve(self, psi_n: np.ndarray, t_max: float) -> _Segment:
        """The no-jump segment from psi_n over a whole window, cached by start
        state so that trajectories sharing it decompose it once.  It carries
        a table of the squared norm on a fixed grid, where its crossings start."""
        key = (psi_n.tobytes(), round(float(t_max), 12))
        seg = self._coarse_cache.get(key)
        if seg is None:
            seg = self._segment(psi_n, t_max)
            seg.table = -np.minimum.accumulate(self._norm_grid(seg.coeffs, t_max))
            if len(self._coarse_cache) >= _CURVE_CACHE_MAX:
                self._coarse_cache.pop(next(iter(self._coarse_cache)))
            self._coarse_cache[key] = seg
        return seg

    def _norm_grid(self, coeffs: np.ndarray, span: float) -> np.ndarray:
        """Squared norms of the no-jump states at linspace(0, span, _TABLE_POINTS)."""
        if self.spectral:
            times = np.linspace(0.0, span, _TABLE_POINTS)
            states = (np.exp(np.outer(times, -1j * self._w)) * coeffs) @ self._v.T
        else:
            u = _scipy_expm(-1j * (span / (_TABLE_POINTS - 1)) * self.h_eff)
            states = np.empty((_TABLE_POINTS, coeffs.size), dtype=complex)
            states[0] = coeffs
            for k in range(1, _TABLE_POINTS):
                states[k] = u @ states[k - 1]
        return np.einsum("ij,ij->i", states.conj(), states).real

    def _first_guess(self, seg: _Segment, r: float, span: float) -> float:
        """Where Newton starts: interpolated in a shared segment's norm table,
        otherwise from n2 falling exponentially to n2_end over the span."""
        if seg.table is None:
            return span * math.log(r) / math.log(max(seg.n2_end, _TINY))
        k = min(max(int(np.searchsorted(seg.table, -r)), 1), seg.table.size - 1)
        above, below = -float(seg.table[k - 1]), -float(seg.table[k])
        frac = min(max((above - r) / (above - below), 0.0), 1.0) if above > below else 0.5
        return span * (k - 1 + frac) / (seg.table.size - 1)

    def _crossing(self, seg: _Segment, r: float, span: float) -> tuple[float, np.ndarray]:
        """The time t in (0, span) at which the segment's squared norm falls to
        r (seg.n2_end < r < 1), and the unnormalized state there.

        Safeguarded Newton on f(t) = ||psi(t)||^2 - r with the analytic slope
        f' = -<psi| sum L^dag L |psi>, as in Numerical Recipes' rtsafe.  f
        never grows along a no-jump segment, so the sign of each evaluation
        tightens a bracket [lo, hi] around the root.  A Newton step that
        leaves the bracket, or that fails to halve the step before last (as
        it does where rounding makes a flat f wander), bisects the bracket
        instead.  Stops at brentq's tolerance.
        """
        lo, hi = 0.0, span
        t = self._first_guess(seg, r, span)
        last = before = span   # sizes of the last two steps
        for _ in range(_NEWTON_MAX):
            psi = self._evolve(seg.coeffs, t)
            f = np.vdot(psi, psi).real - r
            if f > 0.0:
                lo = t
            else:
                hi = t
            slope = -np.vdot(psi, self.total_op @ psi).real
            step = -f / slope if slope < 0.0 else math.nan
            if not (lo <= t + step <= hi and abs(step) <= 0.5 * before):
                step = 0.5 * (lo + hi) - t
            before, last = last, abs(step)
            nxt = t + step
            if last <= _XTOL + _RTOL * nxt:
                # one first-order step carries the state to the returned time
                return nxt, psi - 1j * step * (self.h_eff @ psi)
            t = nxt
        raise RuntimeError(
            f"no norm crossing of r = {r!r} found in {_NEWTON_MAX} iterations on [0, {span!r}]"
        )

    def _run_fast(self, psi_n, rng, t_max, share_curve, t_offset) -> StageResult:
        events: list[Event] = []
        psi = psi_n
        t_seg = 0.0
        while True:
            r = rng.step_uniform()
            span = t_max - t_seg
            if share_curve and not events:   # only a window's start state is shared
                seg = self.coarse_curve(psi, span)
            else:
                seg = self._segment(psi, span)
            if seg.n2_end >= r:
                if seg.final is None:
                    seg.final = self._wrap(seg.end / math.sqrt(seg.n2_end))
                return StageResult(None, None, seg.final, events)
            wait, cross = self._crossing(seg, r, span)
            t_seg += wait
            tag, psi = self._collapse(cross / math.sqrt(np.vdot(cross, cross).real), rng)
            events.append(Event(t_offset + t_seg, tag))
            if tag.recorded:
                return StageResult(tag, t_offset + t_seg, self._wrap(psi), events)

    def _wrap(self, arr: np.ndarray) -> StateVector:
        return StateVector(arr, self.dims)


def _as_unit_array(psi: StateVector | np.ndarray) -> np.ndarray:
    arr = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)
    n2 = np.vdot(arr, arr).real
    if not n2 > 0.0:
        raise ValueError(f"start state must have a positive norm, got squared norm {n2}")
    return arr / math.sqrt(n2)


def step(
    psi: StateVector,
    propagator: OperatorMatrix,
    channels: Sequence[JumpChannel],
    rng: RngStream,
    dt: float,
    *,
    total_op: Optional[np.ndarray] = None,
    p_step_max: float = P_STEP_MAX,
) -> tuple[StateVector, Optional[Event]]:
    """One interval of the jump/no-jump loop on a normalized state: the
    literal reference that the engine's replay kernel must reproduce.

    Returns the successor state and, when a jump fired, an Event whose time
    is dt (relative to the start of the step).
    """
    arr = psi.amplitudes
    m = total_op if total_op is not None else total_jump_operator(list(channels))
    p = dt * np.vdot(arr, m @ arr).real
    if p >= p_step_max:
        raise StepSizeError(f"per-step jump probability {p:.3g} exceeds {p_step_max}; reduce dt")
    if rng.step_uniform() < p:
        weights = np.array(
            [np.vdot(ch.operator.entries @ arr, ch.operator.entries @ arr).real for ch in channels]
        )
        u = rng.channel_uniform() * weights.sum()
        idx = min(int(np.searchsorted(np.cumsum(weights), u, side="right")), len(channels) - 1)
        ch = channels[idx]
        post = ch.operator.entries @ arr
        post = post / math.sqrt(np.vdot(post, post).real)
        return StateVector(post, psi.basis_dims), Event(dt, ch.tag)
    prop = propagator.entries @ arr
    prop = prop / math.sqrt(np.vdot(prop, prop).real)
    return StateVector(prop, psi.basis_dims), None


def run_until_click(
    psi0: StateVector | np.ndarray,
    engine: StageEngine,
    rng: RngStream,
    t_max: float,
    *,
    sampler: str = "fixed",
    share_curve: bool = False,
    t_offset: float = 0.0,
) -> StageResult:
    """Evolve from psi0 until the first recorded detector click or t_max.

    Unrecorded collapses (lost photons, spontaneous decays) are applied and
    logged but do not stop the window.  share_curve reuses the engine-cached
    deterministic no-jump evolution for this initial state, which changes
    nothing about the sampled statistics.
    """
    psi_n = _as_unit_array(psi0)
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max == 0.0:
        return StageResult(None, None, engine._wrap(psi_n), [])
    if sampler == "fixed":
        return engine._run_fixed(psi_n, rng, t_max, share_curve, t_offset)
    if sampler == "fast":
        return engine._run_fast(psi_n, rng, t_max, share_curve, t_offset)
    raise ValueError(f"unknown sampler {sampler!r}")


def run_protocol(
    params: SystemParams,
    rng: RngStream,
    *,
    sampler: str = "fast",
    engine: Optional[StageEngine] = None,
) -> TrajectoryRecord:
    """Full two-stage run: wait for the first photon, capture the heralded
    state, apply the phase manipulation, then wait for the second photon.

    The drive is identical in both stages, so one engine serves both.  Event
    times are absolute; the second window opens at the first click.
    """
    eng = engine if engine is not None else StageEngine(params)
    first = run_until_click(
        eng.psi0,
        eng,
        rng if rng.stage == 0 else rng.for_stage(0),
        params.t_wait,
        sampler=sampler,
        share_curve=True,
    )
    second = None
    if first.clicked:
        second = run_until_click(
            eng.phase_diag * first.state.amplitudes,
            eng,
            rng.for_stage(1),
            params.t_wait2,
            sampler=sampler,
            t_offset=first.time,
        )
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
    grid_idx = np.rint(t_grid / dt).astype(int)
    if np.max(np.abs(grid_idx * dt - t_grid)) > 1e-9:
        raise ValueError("t_grid times must sit on the dt grid")
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
