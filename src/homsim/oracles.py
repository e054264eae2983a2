"""Self-consistency oracle suite.

Each check runs the simulator against a law it must obey (the channel
set against the no-jump generator, exponential waiting times, fast
against fixed sampler, trajectories against the master equation) and
returns one record: a dict with a `name`, a `passed` verdict and the
measured values.  `homsim oracle-check` writes these records and the
acceptance criteria assert on them.  Every check takes its sample size
and the master seed(s) of its random streams.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import stats

from .hilbert import BasisIndex, OperatorMatrix, basis_state, embed, fock_destroy
from .lindblad import ensemble_compare
from .model import (
    JumpChannel,
    SystemParams,
    build_h_eff,
    build_hamiltonian,
    build_jump_channels,
    total_jump_operator,
)
from .rng import StreamBlock
from .trajectory import StageEngine, run_until_click


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


def _click_times(psi0, engine: StageEngine, seed: int, n: int, t_max: float,
                 sampler: str) -> np.ndarray:
    """Stage-1 click times of n trajectories on streams (seed, 0..n-1)."""
    block = StreamBlock(seed, 0, n)
    ts = []
    for i in range(n):
        res = run_until_click(psi0, engine, block.stream(i), t_max,
                              sampler=sampler, share_curve=True)
        if res.clicked:
            ts.append(res.time)
    return np.asarray(ts)


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
    engine = StageEngine(frozen)
    psi0 = basis_state(BasisIndex("a", "a", 1, 0), frozen.dims)
    scale = 1.0 / (2.0 * frozen.kappa)
    records = []
    times = {}
    for seed, name in ((seed_fixed, "fixed"), (seed_fast, "fast")):
        times[name] = _click_times(psi0, engine, seed, n, 1.0, name)
        ks = stats.kstest(times[name], "expon", args=(0.0, scale))
        records.append({
            "name": f"waiting_time_ks_{name}", "passed": bool(ks.pvalue > 0.01),
            "ks_stat": float(ks.statistic), "p_value": float(ks.pvalue),
            "n": len(times[name]),
        })
    ks2 = stats.ks_2samp(times["fixed"], times["fast"])
    records.append({
        "name": "waiting_time_ks_mutual", "passed": bool(ks2.pvalue > 0.01),
        "ks_stat": float(ks2.statistic), "p_value": float(ks2.pvalue),
    })
    return records


def fast_vs_fixed(params: SystemParams, n: int, seed_fixed: int, seed_fast: int) -> dict:
    """Two-sample KS test of stage-1 click times from |aa,00> over one
    t_wait window, fast against fixed sampler, and the z-score of their
    click fractions."""
    engine = StageEngine(params)
    psi0 = basis_state(BasisIndex("a", "a", 0, 0), params.dims)
    fixed = _click_times(psi0, engine, seed_fixed, n, params.t_wait, "fixed")
    fast = _click_times(psi0, engine, seed_fast, n, params.t_wait, "fast")
    ks2 = stats.ks_2samp(fixed, fast)
    p_fix = len(fixed) / n
    p_fast = len(fast) / n
    sd = math.sqrt(2.0 * max(p_fix * (1 - p_fix), 1e-12) / n)
    return {
        "name": "fast_vs_fixed_ks", "passed": bool(ks2.pvalue > 0.01),
        "ks_stat": float(ks2.statistic), "p_value": float(ks2.pvalue),
        "p_fixed": p_fix, "p_fast": p_fast, "click_fraction_z": (p_fast - p_fix) / sd,
    }


def ensemble_observables(params: SystemParams) -> list[tuple[str, OperatorMatrix]]:
    """Photon number in cavity 1 and the population with both ions in |a>."""
    dims = params.dims
    c1 = embed(fock_destroy(params.n_max + 1), 2, dims)
    n_c1 = OperatorMatrix(c1.entries.conj().T @ c1.entries, dims)
    proj = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for n1 in range(params.n_max + 1):
        for n2 in range(params.n_max + 1):
            k = BasisIndex("a", "a", n1, n2).flatten(dims)
            proj[k, k] = 1.0
    return [("n_c1", n_c1), ("pop_aa", OperatorMatrix(proj, dims))]


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
