"""Density-matrix reference integrator.

The master equation whose stochastic unraveling the trajectory engine
implements:

    d rho/dt = -i[H, rho] + sum_k ( L_k rho L_k^dag - {L_k^dag L_k, rho}/2 )

with the Hermitian Hamiltonian and the identical jump-channel set.  Averaged
trajectories must reproduce this evolution; ensemble_compare quantifies the
agreement as z-scores and is the core correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import OperatorMatrix, StateVector
from .model import JumpChannel, SystemParams, build_jump_channels, stage_hamiltonian
from .rng import StreamBlock
from .trajectory import StageEngine, run_unconditioned

TRACE_TOL = 1e-8
HERM_TOL = 1e-10
EIG_TOL = 1e-8
CHECKPOINTS = 20     # physicality checks per integrate() call
Z_LIMIT = 3.0        # EnsembleReport.passed: largest accepted |z|

# RK4 truncation pushes near-zero eigenvalues slightly negative; dt/8 keeps
# the worst case near -2e-9, inside EIG_TOL with margin (dt/2 gives -4.5e-7
# at the standard operating point).
RK_STEP_DIVISOR = 8.0


class IntegrationError(RuntimeError):
    """A physicality invariant (trace, Hermiticity, positivity) was violated."""


@dataclass(frozen=True)
class DensityMatrix:
    entries: np.ndarray
    basis_dims: tuple[int, ...]

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=complex)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError("density matrix must be square")
        if ent.shape[0] != math.prod(self.basis_dims):
            raise ValueError("dimension does not match basis dims")
        ent = ent.copy()
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "basis_dims", tuple(int(d) for d in self.basis_dims))

    @staticmethod
    def from_state(psi: StateVector) -> "DensityMatrix":
        amp = psi.amplitudes
        return DensityMatrix(np.outer(amp, amp.conj()), psi.basis_dims)

    def validate(self):
        rho = self.entries
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
            raise IntegrationError(f"trace drifted to {np.trace(rho):.12g}")
        if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
            raise IntegrationError("Hermiticity lost")
        w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        if w.min() < -EIG_TOL:
            raise IntegrationError(f"negative eigenvalue {w.min():.3g}")


def _master_rhs(hamiltonian: OperatorMatrix, channels: Sequence[JumpChannel]):
    """d rho/dt as a function of rho, with the L^dag L products formed once."""
    h = hamiltonian.entries
    ells = [ch.operator.entries for ch in channels]
    ldls = [e.conj().T @ e for e in ells]

    def rhs(r):
        out = -1j * (h @ r - r @ h)
        for ell, ldl in zip(ells, ldls):
            out += ell @ r @ ell.conj().T - 0.5 * (ldl @ r + r @ ldl)
        return out

    return rhs


def liouvillian_apply(
    rho: DensityMatrix | np.ndarray,
    hamiltonian: OperatorMatrix,
    channels: Sequence[JumpChannel],
) -> np.ndarray:
    """Right-hand side of the master equation."""
    r = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if r.shape != hamiltonian.entries.shape:
        raise ValueError("dimension mismatch between rho and H")
    return _master_rhs(hamiltonian, channels)(r)


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
    rhs = _master_rhs(hamiltonian, channels)
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
    means against the RK4 master-equation solution at each grid time."""
    from .model import initial_state

    eng = StageEngine(params)
    names = tuple(name for name, _ in observables)
    ops = [op for _, op in observables]
    t_grid = tuple(float(t) for t in t_grid)
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError(f"t_grid must be non-decreasing, got {t_grid}")
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")

    psi0 = initial_state(params)
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

    h_stage = stage_hamiltonian(params).entries
    h_herm = OperatorMatrix((h_stage + h_stage.conj().T) / 2.0, params.dims)
    channels = build_jump_channels(params)
    rho = DensityMatrix.from_state(psi0)
    ref = np.empty((len(ops), len(t_grid)))
    t_prev = 0.0
    for j, t in enumerate(t_grid):
        if t > t_prev:
            rho = integrate(rho, h_herm, channels, t - t_prev, params.dt / RK_STEP_DIVISOR)
            t_prev = t
        for a, op in enumerate(ops):
            ref[a, j] = np.trace(op.entries @ rho.entries).real
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
