"""Dense complex linear algebra on the fixed four-subsystem Hilbert space.

The composite space is ion1 (x) ion2 (x) cavity1 (x) cavity2, flattened
row-major in that order.  Ion levels are ordered (a, b, c) -> (0, 1, 2);
cavity Fock states run 0..n_max.  Everything here is a pure function over
immutable values, so states and operators can be shared freely across
concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ION_LEVELS = ("a", "b", "c")
LEVEL_INDEX = {name: i for i, name in enumerate(ION_LEVELS)}


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A read-only complex copy of arr: the value and its caller never share
    a writable array."""
    arr = np.array(arr, dtype=np.complex128, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
    """A pure state: complex amplitudes over the flattened composite basis."""

    amplitudes: np.ndarray
    basis_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _freeze(self.amplitudes).ravel())
        object.__setattr__(self, "basis_dims", tuple(int(d) for d in self.basis_dims))
        if self.amplitudes.shape[0] != math.prod(self.basis_dims):
            raise ValueError(
                f"state length {self.amplitudes.shape[0]} does not match "
                f"basis dims {self.basis_dims}"
            )

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense operator on the composite space (Hamiltonians, jump operators)."""

    entries: np.ndarray
    basis_dims: tuple[int, ...]

    def __post_init__(self):
        ent = np.asarray(self.entries)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError(f"operator must be square, got shape {ent.shape}")
        object.__setattr__(self, "entries", _freeze(ent))
        object.__setattr__(self, "basis_dims", tuple(int(d) for d in self.basis_dims))
        if ent.shape[0] != math.prod(self.basis_dims):
            raise ValueError(
                f"operator dimension {ent.shape[0]} does not match basis dims {self.basis_dims}"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class BasisIndex:
    """Label of one composite basis state: two ion levels and two photon numbers."""

    ion1: str
    ion2: str
    cav1: int
    cav2: int

    def flatten(self, dims: tuple[int, ...]) -> int:
        """Row-major flat index for the fixed (ion1, ion2, cav1, cav2) ordering."""
        idx = (LEVEL_INDEX[self.ion1], LEVEL_INDEX[self.ion2], self.cav1, self.cav2)
        for sub, d in zip(idx, dims):
            if not 0 <= sub < d:
                raise ValueError(f"basis label {self} out of range for dims {dims}")
        return int(np.ravel_multi_index(idx, dims))


def embed(op: np.ndarray | OperatorMatrix, subsystem: int, dims: tuple[int, ...]) -> OperatorMatrix:
    """Lift a single-subsystem operator to the full space.

    Identity acts on every other subsystem; ordering follows the fixed
    (ion1, ion2, cav1, cav2) layout.
    """
    if subsystem not in range(len(dims)):
        raise ValueError(f"subsystem {subsystem} out of range for dims {tuple(dims)}")
    mat = op.entries if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
    if mat.shape != (dims[subsystem], dims[subsystem]):
        raise ValueError(
            f"operator shape {mat.shape} does not match dims[{subsystem}]={dims[subsystem]}"
        )
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        out = np.kron(out, mat if k == subsystem else np.eye(d, dtype=complex))
    return OperatorMatrix(out, tuple(dims))


def basis_state(label: BasisIndex, dims: tuple[int, ...]) -> StateVector:
    """Unit vector on a single composite basis state."""
    amp = np.zeros(math.prod(dims), dtype=complex)
    amp[label.flatten(dims)] = 1.0
    return StateVector(amp, dims)


def fock_destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator truncated at dim-1 photons."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def level_transfer(to_level: str, from_level: str) -> np.ndarray:
    """|to><from| on one ion's three levels."""
    mat = np.zeros((3, 3), dtype=complex)
    mat[LEVEL_INDEX[to_level], LEVEL_INDEX[from_level]] = 1.0
    return mat
