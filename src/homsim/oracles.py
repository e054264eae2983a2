"""Self-consistency oracle suite.

Each check runs the simulator against a law it must obey (the channel
set against the no-jump generator, exponential waiting times, fast
against fixed sampler, trajectories against the master equation) and
returns one record: a dict with a `name`, a `passed` verdict and the
measured values.  `homsim oracle-check` writes these records and the
acceptance criteria assert on them.  Every check takes its sample size
and the master seed(s) of its streams; click times come from run_windows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import stats

from .hilbert import BasisIndex, OperatorMatrix, basis_state
from .lindblad import ensemble_compare
from .model import (
    JumpChannel,
    SystemParams,
    build_h_eff,
    build_hamiltonian,
    build_jump_channels,
    node_cavity,
    node_level,
    total_jump_operator,
    two_nodes,
)
from .rng import StreamBlock
from .trajectory import StageEngine, run_windows


def channel_residual(params: SystemParams, channels: Sequence[JumpChannel]) -> float:
    """max |H_eff - H + (i/2) sum L^dag L| over the entries: zero when the
    channel set matches the no-jump generator."""
    gap = (build_h_eff(params).entries - build_hamiltonian(params).entries
           + 0.5j * total_jump_operator(channels))
    return float(np.max(np.abs(gap)))


def channel_consistency(seed: int) -> dict:
    """channel_residual at 30 random points of the three-level model."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(30):
        p = SystemParams(
            omega=rng.uniform(0.2, 2.0), delta=rng.uniform(5.0, 40.0),
            kappa=rng.uniform(0.5, 20.0), gamma_ca=rng.uniform(0.0, 1.0),
            gamma_cb=rng.uniform(0.0, 1.0), eta=rng.uniform(0.05, 1.0),
            lam=rng.uniform(0.3, 3.0), adiabatic=False,
        )
        worst = max(worst, channel_residual(p, build_jump_channels(p)))
    return {
        "name": "channel_consistency", "passed": worst < 1e-12, "max_abs_residual": worst,
    }


def _click_times(engine: StageEngine, n: int, t_max: float, seed_fixed: int, seed_fast: int,
                 start=None) -> list[np.ndarray]:
    """Stage-1 click times of n windows, fixed-step then fast, each in stream
    order on the streams (seed, 0..n-1) of its seed, from engine.psi0 or
    from the state start."""
    if seed_fixed == seed_fast:
        raise ValueError(f"seed_fixed ({seed_fixed}) and seed_fast ({seed_fast}) must differ: "
                         "a two-sample KS test needs independent samples")
    starts = None if start is None else np.tile(start.amplitudes, (n, 1))
    times = []
    for sampler, seed in (("fixed", seed_fixed), ("fast", seed_fast)):
        res = run_windows(engine, StreamBlock(seed, 0, n), t_max, start=starts, sampler=sampler)
        times.append(res.time[res.channel >= 0])
    return times


def _ks_record(name: str, test, samples: Sequence[np.ndarray], **extra) -> dict:
    """The record of one KS test on click-time samples: passed at p > 0.01.
    A test needs at least one click time in every sample; otherwise the
    record fails with the reason, and its statistic and p-value are None."""
    sizes = [len(s) for s in samples]
    if min(sizes) < 1:
        return {"name": name, "passed": False, "ks_stat": None, "p_value": None, **extra,
                "reason": f"too few click times for the KS test: {sizes}"}
    res = test(*samples)
    return {"name": name, "passed": bool(res.pvalue > 0.01), "ks_stat": float(res.statistic),
            "p_value": float(res.pvalue), **extra}


def waiting_time_ks(params: SystemParams, n: int, seed_fixed: int, seed_fast: int) -> list[dict]:
    """KS tests of the frozen-ion waiting time against Exp(2 kappa), one per
    sampler, and of the two samplers against each other.

    The ion is frozen (omega = 0, no spontaneous decay, eta = 1, dt = 1e-4)
    with one photon in cavity 1; the two master seeds must differ, because
    the mutual test needs independent samples.
    """
    frozen = params.with_(
        omega=0.0, gamma_ca=0.0, gamma_cb=0.0, eta=1.0, dt=1e-4, adiabatic=False
    )
    psi0 = basis_state(BasisIndex("a", "a", 1, 0), frozen.dims)
    times = dict(zip(("fixed", "fast"),
                     _click_times(StageEngine(frozen), n, 1.0, seed_fixed, seed_fast, start=psi0)))
    scale = 1.0 / (2.0 * frozen.kappa)
    records = [_ks_record(f"waiting_time_ks_{name}",
                          lambda t: stats.kstest(t, "expon", args=(0.0, scale)),
                          [times[name]], n=len(times[name])) for name in ("fixed", "fast")]
    records.append(_ks_record("waiting_time_ks_mutual", stats.ks_2samp,
                              [times["fixed"], times["fast"]]))
    return records


def fast_vs_fixed(params: SystemParams, n: int, seed_fixed: int, seed_fast: int) -> dict:
    """Two-sample KS test of stage-1 click times from psi0 = |aa,00> over
    one t_wait window, fast against fixed sampler, and the z-score of their
    click fractions.  The two master seeds must differ, as in
    waiting_time_ks."""
    fixed, fast = _click_times(StageEngine(params), n, params.t_wait, seed_fixed, seed_fast)
    p_fix = len(fixed) / n
    p_fast = len(fast) / n
    sd = math.sqrt(2.0 * max(p_fix * (1 - p_fix), 1e-12) / n)
    return _ks_record("fast_vs_fixed_ks", stats.ks_2samp, [fixed, fast], p_fixed=p_fix,
                      p_fast=p_fast, click_fraction_z=(p_fast - p_fix) / sd)


def ensemble_observables(params: SystemParams) -> list[tuple[str, OperatorMatrix]]:
    """Photon number in cavity 1 and the population with both ions in |a>."""
    c, aa = node_cavity(params), node_level("a", "a", params)
    return [("n_c1", OperatorMatrix(two_nodes(c.conj().T @ c, np.eye(c.shape[0])), params.dims)),
            ("pop_aa", OperatorMatrix(two_nodes(aa, aa), params.dims))]


def lindblad_ensemble(params: SystemParams, n: int, seed: int) -> dict:
    """z-scores of n unconditioned trajectories against the master equation
    for ensemble_observables at t = 1, 5 and 10."""
    report = ensemble_compare(params, ensemble_observables(params), (1.0, 5.0, 10.0), n, seed)
    return {
        "name": "lindblad_ensemble", "passed": report.passed(),
        "max_abs_z": report.max_abs_z, "n_traj": n,
        "z_scores": [[float(z) for z in row] for row in report.z_scores],
    }


def run_suite(params: SystemParams, n_traj: int, seed: int) -> list[dict]:
    """Every check, at most n_traj samples each (10^4 for the KS tests, 5000
    for the ensemble), on streams derived from one master seed."""
    n_ks = min(n_traj, 10000)
    ideal = params.with_(gamma_ca=0.0, gamma_cb=0.0, eta=1.0, adiabatic=False)
    return [
        channel_consistency(seed),
        *waiting_time_ks(params, n_ks, seed + 1, seed + 11),
        fast_vs_fixed(ideal, n_ks, seed + 2, seed + 12),
        lindblad_ensemble(ideal, min(n_traj, 5000), seed + 3),
    ]
