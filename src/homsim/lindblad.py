"""The master equation and the trajectory-vs-master-equation oracle.

The master equation whose stochastic unraveling the trajectory engine
implements:

    d rho/dt = -i[H, rho] + sum_k ( L_k rho L_k^dag - {L_k^dag L_k, rho}/2 )

with the Hermitian Hamiltonian and the identical jump-channel set; integrate
steps it by RK4.  Averaged trajectories must reproduce this evolution;
ensemble_compare quantifies the agreement as z-scores against its exact
solution and is the core correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .hilbert import OperatorMatrix
from .model import (JumpChannel, SystemParams, node_channels, node_generator,
                    node_initial_state, two_nodes)
from .rng import StreamBlock
from .trajectory import StageEngine, run_unconditioned

TRACE_TOL = 1e-8
HERM_TOL = 1e-10
EIG_TOL = 1e-8
CHECKPOINTS = 20     # physicality checks per integrate() call
Z_LIMIT = 3.0        # EnsembleReport.passed: largest accepted |z|


class IntegrationError(RuntimeError):
    """A physicality invariant (trace, Hermiticity, positivity) was violated."""


class DensityMatrix(OperatorMatrix):
    """A density matrix: an OperatorMatrix that can check it is physical."""

    def validate(self):
        rho = self.entries
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
            raise IntegrationError(f"trace drifted to {np.trace(rho):.12g}")
        if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
            raise IntegrationError("Hermiticity lost")
        w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        if w.min() < -EIG_TOL:
            raise IntegrationError(f"negative eigenvalue {w.min():.3g}")


def _master_rhs(h: np.ndarray, ells: Sequence[np.ndarray]):
    """d rho/dt as a function of rho (any leading axes), for the Hamiltonian h
    and the collapse operators ells, with L^dag L formed once."""
    ldls = [e.conj().T @ e for e in ells]

    def rhs(r):
        out = -1j * (h @ r - r @ h)
        for ell, ldl in zip(ells, ldls):
            out += ell @ r @ ell.conj().T - 0.5 * (ldl @ r + r @ ldl)
        return out

    return rhs


def integrate(
    rho0: DensityMatrix,
    hamiltonian: OperatorMatrix,
    channels: Sequence[JumpChannel],
    t_end: float,
    dt_rk: float,
) -> DensityMatrix:
    """Classical fourth-order Runge-Kutta with physicality checks along the way."""
    if dt_rk <= 0:
        raise ValueError("dt_rk must be > 0")
    rhs = _master_rhs(hamiltonian.entries, [ch.operator.entries for ch in channels])
    n = max(1, int(round(t_end / dt_rk)))
    step_len = t_end / n
    check_every = max(1, n // CHECKPOINTS)
    rho = rho0.entries.copy()
    for k in range(n):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * step_len * k1)
        k3 = rhs(rho + 0.5 * step_len * k2)
        k4 = rhs(rho + step_len * k3)
        rho = rho + (step_len / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % check_every == 0 or k == n - 1:
            DensityMatrix(rho, rho0.basis_dims).validate()
    return DensityMatrix(rho, rho0.basis_dims)


@dataclass(frozen=True)
class EnsembleReport:
    """Trajectory-vs-master-equation comparison on a time grid."""

    t_grid: tuple[float, ...]
    observable_names: tuple[str, ...]
    traj_mean: np.ndarray       # (n_obs, n_t)
    traj_stderr: np.ndarray
    lindblad_value: np.ndarray
    z_scores: np.ndarray
    n_traj: int

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z_scores)))

    def passed(self) -> bool:
        return bool(np.all(np.abs(self.z_scores) <= Z_LIMIT))


def ensemble_compare(
    params: SystemParams,
    observables: Sequence[tuple[str, OperatorMatrix]],
    t_grid: Sequence[float],
    n_traj: int,
    seed: int,
) -> EnsembleReport:
    """Run n_traj unconditioned trajectories and z-score their observable
    means against the exact master-equation solution at each grid time,
    propagated by one matrix exponential per grid interval and checked
    physical there."""
    eng = StageEngine(params)
    names = tuple(name for name, _ in observables)
    ops = [op for _, op in observables]
    t_grid = tuple(float(t) for t in t_grid)
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError(f"t_grid must be non-decreasing, got {t_grid}")
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")

    psi0 = eng.psi0
    block = StreamBlock(seed, 0, n_traj)
    # deviations from the first trajectory's values: a sample whose values
    # are all equal then has exactly zero variance, with no cancellation
    shift = run_unconditioned(psi0, eng, block.stream(0), t_grid, ops)
    acc = np.zeros_like(shift)
    acc2 = np.zeros_like(shift)
    for i in range(1, n_traj):
        dev = run_unconditioned(psi0, eng, block.stream(i), t_grid, ops) - shift
        acc += dev
        acc2 += dev * dev
    mean_dev = acc / n_traj
    mean = shift + mean_dev
    var = np.maximum(acc2 / n_traj - mean_dev**2, 0.0)
    stderr = np.sqrt(var / max(n_traj - 1, 1))

    # the beam splitter is unitary, so the detectors' cross terms cancel: the state
    # stays two_nodes(rho_n, rho_n), rho_n under the channels' node-1 parts amp x op
    h = node_generator(params)
    rhs = _master_rhs((h + h.conj().T) / 2.0,
                      [ch.amp * ch.x * ch.op for ch in node_channels(params) if ch.x != 0])
    liouvillian = rhs(np.eye(h.size, dtype=complex).reshape(-1, *h.shape)).reshape(h.size, -1).T
    node = node_initial_state(params)
    rho_n = np.outer(node, node.conj())
    ref = np.empty((len(ops), len(t_grid)))
    t_prev = 0.0
    for j, t in enumerate(t_grid):
        if t > t_prev:
            rho_n = (expm((t - t_prev) * liouvillian) @ rho_n.ravel()).reshape(h.shape)
            t_prev = t
        rho = DensityMatrix(two_nodes(rho_n, rho_n), params.dims)
        rho.validate()
        ref[:, j] = [np.trace(op.entries @ rho.entries).real for op in ops]
    # a degenerate (zero-variance) sample of size n cannot resolve effects
    # smaller than ~(observable range)/n: score those 0 within the Poisson
    # zero-count bound, infinite beyond it
    spans = np.array([np.ptp(np.linalg.eigvalsh(op.entries)) for op in ops])
    floor = np.maximum(spans, 1e-30)[:, None] / n_traj
    safe = np.where(stderr > 0, stderr, 1.0)
    z = np.where(
        stderr > 0,
        (mean - ref) / safe,
        np.where(np.abs(mean - ref) <= 3.0 * floor, 0.0, np.inf),
    )
    return EnsembleReport(t_grid, names, mean, stderr, ref, z, n_traj)
