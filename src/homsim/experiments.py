"""Reproducible numerical experiments: herald-probability/fidelity sweeps
over detection efficiency, beam-splitter imbalance and spontaneous decay,
and the two-photon redistribution scan over the manipulation phase.

Sweeps use common random numbers: every grid point reuses the same
per-trajectory streams, so cross-point comparisons (proportionality in eta,
flatness in lambda, monotonicity in gamma) are not washed out by independent
sampling noise.  Aggregation is performed in ascending stream index, making
every estimate a pure function of (params, seed) regardless of how many
worker processes ran the trajectories.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .analytic import heralded_states
from .hilbert import StateVector
from .model import ChannelTag, SystemParams
from .rng import StreamBlock
from .trajectory import StageEngine, _rows, run_until_click, run_windows

_CHUNK = 5000   # trajectories per worker task; fixed so results never depend on thread count

SWEEPABLE = ("eta", "lambda", "gamma")


@dataclass(frozen=True)
class SweepPoint:
    """Estimates from one parameter value: herald probability, mean heralded
    fidelity, and (for full-protocol runs) the same-detector statistics."""

    param: str
    value: float
    n_traj: int
    p_hat: float
    p_stderr: float
    f_hat: float
    f_stderr: float
    ps_hat: Optional[float] = None
    ps_stderr: Optional[float] = None
    two_click_fraction: Optional[float] = None

    def __post_init__(self):
        for name in ("p_hat", "f_hat", "ps_hat", "two_click_fraction"):
            v = getattr(self, name)
            if v is not None and not math.isnan(v) and not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name}={v} outside [0, 1]")


@dataclass(frozen=True)
class SweepResult:
    params: SystemParams
    param: str
    points: tuple[SweepPoint, ...]
    master_seed: int


@functools.lru_cache(maxsize=None)
def _targets(dims: tuple[int, ...]) -> np.ndarray:
    """The conjugated heralded-state targets of a D1 and a D2 click (rows 0
    and 1), tensored with both cavities in vacuum; read-only, one array per
    dims."""
    out = np.zeros((2,) + dims, dtype=complex)
    for row, ion in zip(out, heralded_states()):
        row[:, :, 0, 0] = ion.amplitudes.reshape(3, 3)
    out = out.reshape(2, -1).conj()
    out.flags.writeable = False
    return out


def _fidelities(targets: np.ndarray, d2: np.ndarray, states: np.ndarray) -> np.ndarray:
    """|<target, 00 | psi>|^2 of each click, states[i] a D2 click's if d2[i]
    and a D1 click's otherwise, in one product.  The bytes are np.vdot's
    per click: BLAS adds the overlap's terms in the same order in a dot and
    in a product, and Python's abs of one complex number is hypot, which
    numpy's abs of a complex array is not."""
    z = _rows(states, targets)[np.arange(len(states)), d2.astype(int)]
    return np.hypot(z.real, z.imag) ** 2


def fidelity_to_target(state: StateVector, tag: ChannelTag) -> float:
    """Squared overlap with the click-appropriate maximally entangled state
    (both cavities in vacuum): |<target, 00 | psi>|^2."""
    if tag not in (ChannelTag.D1, ChannelTag.D2):
        raise ValueError("fidelity target is defined for detector clicks only")
    return float(_fidelities(_targets(state.basis_dims), np.array([tag is ChannelTag.D2]),
                             state.amplitudes[None])[0])


def _binomial_stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else float("nan")


def _sample_stderr(values: np.ndarray) -> float:
    """The standard error of the mean of values; NaN below two values, which
    have no sample variance."""
    if values.size < 2:
        return float("nan")
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


# -- worker tasks (top level so they pickle) ----------------------------------


def _stage1_chunk(args):
    params, seed, start, stop, sampler = args
    engine = StageEngine(params)
    res = run_windows(engine, StreamBlock(seed, start, stop), params.t_wait, sampler=sampler)
    clicked = res.channel >= 0
    d2 = np.array([tag is ChannelTag.D2 for tag in engine.tags])
    fid = np.full(stop - start, np.nan)
    fid[clicked] = _fidelities(_targets(params.dims), d2[res.channel[clicked]], res.state)
    return clicked, fid


def _protocol_chunk(args):
    params, seed, start, stop, sampler = args
    engine = StageEngine(params)
    block = StreamBlock(seed, start, stop)
    # the first windows one stream at a time; heralded: (row, first window)
    # of each stream whose first window clicked
    firsts = (run_until_click(engine.psi0, engine, block.stream(i), params.t_wait,
                              sampler=sampler) for i in range(start, stop))
    heralded = [(j, first) for j, first in enumerate(firsts) if first.clicked]
    rows = np.array([j for j, _ in heralded], dtype=int)
    states = np.reshape([first.state.amplitudes for _, first in heralded],
                        (len(heralded), engine.psi0.dim))
    # the second windows from the phase-gated herald states, run_protocol's
    # second stage
    second = run_windows(engine, block, params.t_wait2, stage=1, rows=rows,
                         start=engine.phase_diag * states, sampler=sampler)
    n = stop - start
    n_clicks = np.zeros(n, dtype=np.int8)
    same_tag = np.zeros(n, dtype=bool)
    fid = np.full(n, np.nan)
    n_clicks[rows] = 1 + (second.channel >= 0)
    fid[rows] = _fidelities(_targets(params.dims),
                            np.array([first.tag is ChannelTag.D2 for _, first in heralded]),
                            states)
    same_tag[rows] = [c >= 0 and engine.tags[c] is first.tag
                      for (_, first), c in zip(heralded, second.channel)]
    return n_clicks, same_tag, fid


def _run_chunked(worker, grid_params, n_traj, seed, sampler, threads):
    """Run every (grid point, chunk) task of a scan, through one pool of at
    most one worker a task when threads > 1 and there is more than one task;
    return each grid point's concatenated columns, in grid order."""
    for key, value, least in (("seed", seed, 0), ("n_traj", n_traj, 1), ("threads", threads, 1)):
        if not (np.issubdtype(type(value), np.integer) and value >= least):
            raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")
    if not grid_params:
        raise ValueError("grid must be nonempty")
    bounds = [(lo, min(lo + _CHUNK, n_traj)) for lo in range(0, n_traj, _CHUNK)]
    tasks = [(params, seed, lo, hi, sampler) for params in grid_params for lo, hi in bounds]
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            parts = list(pool.map(worker, tasks))
    else:
        parts = [worker(t) for t in tasks]
    return [
        [np.concatenate(cols) for cols in zip(*parts[k : k + len(bounds)])]
        for k in range(0, len(parts), len(bounds))
    ]


# -- experiment entry points ---------------------------------------------------


def run_entanglement_generation(
    params: SystemParams, n_traj: int, seed: int, *, sampler: str = "fast", threads: int = 1
) -> SweepPoint:
    """Stage-1 only: herald fraction and mean fidelity of the heralded state,
    with binomial / sample standard errors."""
    (cols,) = _run_chunked(_stage1_chunk, [params], n_traj, seed, sampler, threads)
    return _stage1_point("", math.nan, *cols)


_SWEEP_FIELDS = {"eta": "eta", "lambda": "lam", "phi": "phi"}


def _apply_sweep_value(params: SystemParams, name: str, value: float) -> SystemParams:
    """params with one grid value of `name` (a SWEEPABLE name or "phi") set.
    SystemParams checks the range of eta, lambda and gamma; phi's is checked
    here."""
    if name == "gamma":
        # spontaneous decay needs the three-level Hamiltonian
        adiab = params.adiabatic and value == 0.0
        return params.with_(gamma_ca=value, gamma_cb=value, adiabatic=adiab)
    if name == "phi" and not 0.0 <= value < 2.0 * math.pi + 1e-12:
        raise ValueError(f"illegal grid value for phi: {value}")
    return params.with_(**{_SWEEP_FIELDS[name]: value})


def sweep(
    params: SystemParams,
    param: str,
    grid: Sequence[float],
    n_traj: int,
    seed: int,
    *,
    sampler: str = "fast",
    threads: int = 1,
) -> SweepResult:
    """One stage-1 experiment per grid value.  Grid points share the same
    per-trajectory random streams (common random numbers)."""
    if param not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {param!r}; expected one of {SWEEPABLE}")
    values = [float(v) for v in grid]
    grid_params = [_apply_sweep_value(params, param, v) for v in values]
    per_point = _run_chunked(_stage1_chunk, grid_params, n_traj, seed, sampler, threads)
    points = [_stage1_point(param, v, *cols) for v, cols in zip(values, per_point)]
    return SweepResult(params, param, tuple(points), seed)


def run_redistribution(
    params: SystemParams,
    phi_grid: Sequence[float],
    n_traj: int,
    seed: int,
    *,
    sampler: str = "fast",
    threads: int = 1,
) -> SweepResult:
    """Full two-stage protocol per phase value.  Reports the same-detector
    fraction among double detections and the double-detection fraction among
    heralded runs."""
    values = [float(phi) for phi in phi_grid]
    grid_params = [_apply_sweep_value(params, "phi", phi) for phi in values]
    per_point = _run_chunked(_protocol_chunk, grid_params, n_traj, seed, sampler, threads)
    points = [_protocol_point("phi", phi, *cols) for phi, cols in zip(values, per_point)]
    return SweepResult(params, "phi", tuple(points), seed)


def _stage1_point(param: str, value: float, clicked: np.ndarray, fid: np.ndarray) -> SweepPoint:
    """Reduce per-trajectory stage-1 columns (heralded, herald fidelity) to a SweepPoint."""
    n = clicked.size
    p_hat = float(clicked.mean())
    f_vals = fid[clicked]
    return SweepPoint(
        param=param,
        value=value,
        n_traj=n,
        p_hat=p_hat,
        p_stderr=_binomial_stderr(p_hat, n),
        f_hat=float(f_vals.mean()) if f_vals.size else float("nan"),
        f_stderr=_sample_stderr(f_vals),
    )


def _protocol_point(
    param: str, value: float, n_clicks: np.ndarray, same_tag: np.ndarray, fid: np.ndarray
) -> SweepPoint:
    """Reduce per-trajectory protocol columns (recorded clicks, second click
    on the first click's detector, herald fidelity) to a SweepPoint."""
    if n_clicks.size == 0:
        raise ValueError("a protocol point needs at least one trajectory")
    heralded = n_clicks >= 1
    two = n_clicks == 2
    n_her = int(heralded.sum())
    n_two = int(two.sum())
    ps_hat = float(same_tag[two].mean()) if n_two else float("nan")
    return replace(
        _stage1_point(param, value, heralded, fid),
        ps_hat=ps_hat,
        ps_stderr=_binomial_stderr(ps_hat, n_two) if n_two else float("nan"),
        two_click_fraction=(n_two / n_her) if n_her else float("nan"),
    )
