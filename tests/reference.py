"""Reference implementations the tests check the program against.

None of these has a caller in homsim: each is the literal, unoptimized form
of something the package computes another way (the fixed-step replay kernel
against `step`, the spectral propagators against `matrix_exp`, the one-node
master-equation reference against `master_equation_values`), or a
convenience only the tests need.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from homsim.hilbert import ION_LEVELS, BasisIndex, OperatorMatrix, StateVector
from homsim.lindblad import DensityMatrix, _master_rhs
from homsim.model import (
    JumpChannel, SystemParams, build_jump_channels, initial_state, stage_hamiltonian,
    total_jump_operator,
)
from homsim.rng import RngStream
from homsim.trajectory import P_STEP_MAX, Event, StepSizeError


def identity(dims: tuple[int, ...]) -> OperatorMatrix:
    return OperatorMatrix(np.eye(math.prod(dims), dtype=complex), dims)


def matrix_exp(a: OperatorMatrix, scale: complex = 1.0) -> OperatorMatrix:
    """exp(scale * A) for a general (not necessarily Hermitian) operator, by
    scipy's scaling-and-squaring with Pade approximants."""
    return OperatorMatrix(expm(scale * a.entries), a.basis_dims)


def density_matrix(psi: StateVector) -> DensityMatrix:
    """|psi><psi| as a DensityMatrix."""
    amp = psi.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()), psi.basis_dims)


def unflatten(flat: int, dims: tuple[int, ...]) -> BasisIndex:
    """The basis label whose BasisIndex.flatten is flat."""
    i1, i2, n1, n2 = np.unravel_index(flat, dims)
    return BasisIndex(ION_LEVELS[i1], ION_LEVELS[i2], int(n1), int(n2))


def liouvillian_apply(
    rho: DensityMatrix | np.ndarray,
    hamiltonian: OperatorMatrix,
    channels: Sequence[JumpChannel],
) -> np.ndarray:
    """Right-hand side of the master equation, as lindblad.integrate evaluates it."""
    r = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if r.shape != hamiltonian.entries.shape:
        raise ValueError("dimension mismatch between rho and H")
    return _master_rhs(hamiltonian, channels)(r)


def pair_liouvillian(params: SystemParams) -> sparse.csr_matrix:
    """The master equation of the whole pair as a sparse matrix on the
    row-major flattened density matrix: every channel of build_jump_channels,
    cross terms between the nodes included, and the Hermitian part of
    stage_hamiltonian.  Row-major, vec(A rho B) = (A (x) B^T) vec(rho)."""
    h = stage_hamiltonian(params).entries
    h = (h + h.conj().T) / 2.0
    one = sparse.identity(h.shape[0], dtype=complex, format="csr")
    out = -1j * (sparse.kron(h, one) - sparse.kron(one, h.T))
    for ch in build_jump_channels(params):
        ell = sparse.csr_matrix(ch.operator.entries)
        ldl = ell.conj().T @ ell
        out = out + sparse.kron(ell, ell.conj()) - 0.5 * (sparse.kron(ldl, one)
                                                          + sparse.kron(one, ldl.T))
    return out.tocsr()


def master_equation_values(
    params: SystemParams, observables: Sequence[OperatorMatrix], t_grid: Sequence[float]
) -> np.ndarray:
    """<O>(t) on the non-decreasing t_grid for each observable, from the
    initial state under pair_liouvillian, propagated from grid time to grid
    time by expm_multiply: the full-space exact solution, (n_obs, n_t)."""
    liouvillian = pair_liouvillian(params)
    psi = initial_state(params).amplitudes
    rho = np.outer(psi, psi.conj()).ravel()
    out = np.empty((len(observables), len(t_grid)))
    t_prev = 0.0
    for j, t in enumerate(t_grid):
        if t > t_prev:
            rho = expm_multiply((t - t_prev) * liouvillian, rho)
            t_prev = t
        mat = rho.reshape(psi.size, psi.size)
        out[:, j] = [np.trace(op.entries @ mat).real for op in observables]
    return out


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
