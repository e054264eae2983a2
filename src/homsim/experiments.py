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

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import heralded_states
from .hilbert import BasisIndex, StateVector
from .model import ChannelTag, SystemParams
from .rng import StreamBlock, check_seed
from .trajectory import StageEngine, run_protocol, run_until_click

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


def _target_vectors(dims: tuple[int, ...]) -> dict[ChannelTag, np.ndarray]:
    """Heralded-state targets tensored with both cavities in vacuum."""
    plus, minus = heralded_states()
    out = {}
    for tag, ion in ((ChannelTag.D1, plus), (ChannelTag.D2, minus)):
        vec = np.zeros(int(np.prod(dims)), dtype=complex)
        for i1, lev1 in enumerate("abc"):
            for i2, lev2 in enumerate("abc"):
                amp = ion.amplitudes[i1 * 3 + i2]
                if amp != 0:
                    vec[BasisIndex(lev1, lev2, 0, 0).flatten(dims)] = amp
        out[tag] = vec
    return out


def fidelity_to_target(state: StateVector, tag: ChannelTag) -> float:
    """Squared overlap with the click-appropriate maximally entangled state
    (both cavities in vacuum): |<target, 00 | psi>|^2."""
    if tag not in (ChannelTag.D1, ChannelTag.D2):
        raise ValueError("fidelity target is defined for detector clicks only")
    target = _target_vectors(state.basis_dims)[tag]
    return float(abs(np.vdot(target, state.amplitudes)) ** 2)


def _binomial_stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else float("nan")


def _sample_stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


# -- worker tasks (top level so they pickle) ----------------------------------


def _stage1_chunk(args):
    params, seed, start, stop, sampler = args
    engine = StageEngine(params)
    block = StreamBlock(seed, start, stop)
    targets = _target_vectors(params.dims)
    clicked = np.zeros(stop - start, dtype=bool)
    is_d1 = np.zeros(stop - start, dtype=bool)
    fid = np.full(stop - start, np.nan)
    for i in range(start, stop):
        res = run_until_click(
            engine.psi0, engine, block.stream(i), params.t_wait, sampler=sampler, share_curve=True
        )
        j = i - start
        if res.clicked:
            clicked[j] = True
            is_d1[j] = res.tag is ChannelTag.D1
            fid[j] = abs(np.vdot(targets[res.tag], res.state.amplitudes)) ** 2
    return clicked, is_d1, fid


def _protocol_chunk(args):
    params, seed, start, stop, sampler = args
    engine = StageEngine(params)
    block = StreamBlock(seed, start, stop)
    targets = _target_vectors(params.dims)
    n = stop - start
    n_clicks = np.zeros(n, dtype=np.int8)
    same_tag = np.zeros(n, dtype=bool)
    fid = np.full(n, np.nan)
    for i in range(start, stop):
        rec = run_protocol(params, block.stream(i), sampler=sampler, engine=engine)
        j = i - start
        first, second = rec.first, rec.second
        if second is not None:   # the first window heralded
            n_clicks[j] = 1 + second.clicked
            fid[j] = abs(np.vdot(targets[first.tag], first.state.amplitudes)) ** 2
            same_tag[j] = second.tag is first.tag   # tag None after a stage-2 timeout
    return n_clicks, same_tag, fid


def _run_chunked(worker, params, n_traj, seed, sampler, threads):
    check_seed(seed)
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    tasks = [
        (params, seed, lo, min(lo + _CHUNK, n_traj), sampler) for lo in range(0, n_traj, _CHUNK)
    ]
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(worker, tasks))
    else:
        parts = [worker(t) for t in tasks]
    return [np.concatenate(cols) for cols in zip(*parts)]


# -- experiment entry points ---------------------------------------------------


def run_entanglement_generation(
    params: SystemParams,
    n_traj: int,
    seed: int,
    *,
    sampler: str = "fast",
    threads: int = 1,
    param: str = "",
    value: float = float("nan"),
) -> SweepPoint:
    """Stage-1 only: herald fraction and mean fidelity of the heralded state,
    with binomial / sample standard errors."""
    clicked, _, fid = _run_chunked(_stage1_chunk, params, n_traj, seed, sampler, threads)
    p_hat = float(clicked.mean())
    f_vals = fid[clicked]
    f_hat = float(f_vals.mean()) if f_vals.size else float("nan")
    return SweepPoint(
        param=param,
        value=value,
        n_traj=n_traj,
        p_hat=p_hat,
        p_stderr=_binomial_stderr(p_hat, n_traj),
        f_hat=f_hat,
        f_stderr=_sample_stderr(f_vals),
    )


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
    if not grid:
        raise ValueError("grid must be nonempty")
    if param not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {param!r}; expected one of {SWEEPABLE}")
    points = []
    for v in grid:
        p_v = _apply_sweep_value(params, param, float(v))
        points.append(
            run_entanglement_generation(
                p_v, n_traj, seed, sampler=sampler, threads=threads, param=param, value=float(v)
            )
        )
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
    if not phi_grid:
        raise ValueError("phi grid must be nonempty")
    points = []
    for phi in phi_grid:
        phi = float(phi)
        p_phi = _apply_sweep_value(params, "phi", phi)
        cols = _run_chunked(_protocol_chunk, p_phi, n_traj, seed, sampler, threads)
        points.append(_protocol_point("phi", phi, *cols))
    return SweepResult(params, "phi", tuple(points), seed)


def _protocol_point(
    param: str, value: float, n_clicks: np.ndarray, same_tag: np.ndarray, fid: np.ndarray
) -> SweepPoint:
    """Reduce per-trajectory protocol columns (recorded clicks, second click
    on the first click's detector, herald fidelity) to a SweepPoint."""
    n = n_clicks.size
    if n == 0:
        raise ValueError("a protocol point needs at least one trajectory")
    heralded = n_clicks >= 1
    two = n_clicks == 2
    n_her = int(heralded.sum())
    n_two = int(two.sum())
    p_hat = n_her / n
    f_vals = fid[heralded]
    ps_hat = float(same_tag[two].mean()) if n_two else float("nan")
    return SweepPoint(
        param=param,
        value=value,
        n_traj=n,
        p_hat=p_hat,
        p_stderr=_binomial_stderr(p_hat, n),
        f_hat=float(f_vals.mean()) if f_vals.size else float("nan"),
        f_stderr=_sample_stderr(f_vals),
        ps_hat=ps_hat,
        ps_stderr=_binomial_stderr(ps_hat, n_two) if n_two else float("nan"),
        two_click_fraction=(n_two / n_her) if n_her else float("nan"),
    )
