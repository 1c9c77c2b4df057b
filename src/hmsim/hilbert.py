"""Finite-dimensional complex linear algebra: states, projectors, unitaries, tensors.

Everything here is a pure function over immutable values; arrays are frozen
after construction so instances can be shared freely between threads. Dense
numpy matrices only, aimed at desk scale (dims up to ~64, products up to MAX_DENSE_DIM).

Tensor index order is big-endian: in a product the first factor varies
slowest, i.e. ``kron(a, b)[i * dim_b + j] == a[i] * b[j]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSpanError,
    DimensionError,
    DomainError,
    EmptyTensorError,
    InvariantError,
    NormalizationError,
)

# Absolute tolerances, entrywise max-norm unless stated otherwise.
HERMITIAN_TOL = 1e-10
IDEMPOTENT_TOL = 1e-10
UNITARY_TOL = 1e-10
NORMALIZATION_TOL = 1e-12  # on <v|v> - 1
SPAN_RESIDUAL_TOL = 1e-10
RANK_TRACE_TOL = 1e-8
MAX_DENSE_DIM = 2048  # total dim of a Kronecker product; 64 MiB as a complex128 matrix


def _frozen_complex_matrix(m, name: str) -> np.ndarray:
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionError(f"{name} must be a nonempty square matrix, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector. Physical states are normalized; intermediate
    results of projections may not be."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size == 0:
            raise DimensionError(f"amplitudes must be a nonempty 1-D vector, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def of(cls, amplitudes: Iterable[complex]) -> "StateVector":
        return cls(np.array(list(amplitudes), dtype=np.complex128))

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        if not 0 <= index < dim:
            raise DimensionError(f"basis index {index} outside dim {dim}")
        a = np.zeros(dim, dtype=np.complex128)
        a[index] = 1.0
        return cls(a)

    @property
    def space_dim(self) -> int:
        return int(self.amplitudes.size)

    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= NORMALIZATION_TOL

    def require_normalized(self) -> None:
        if not self.is_normalized():
            raise NormalizationError(f"state has <v|v> = {self.norm_sq()!r}, expected 1")

    def normalized(self) -> tuple["StateVector", float]:
        """This vector divided by its norm, and that norm. Raises NormalizationError
        where double precision leaves no unit vector: a zero norm, one that over-
        or underflows, or a subnormal <v|v>, whose quotient misses 1."""
        with np.errstate(over="ignore"):
            n = self.norm()
        if not 0.0 < n < math.inf:
            raise NormalizationError(f"cannot normalize a vector of norm {n!r}")
        v = StateVector(self.amplitudes / n)
        v.require_normalized()
        return v, n


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent matrix (orthogonal projector)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_complex_matrix(self.matrix, "projector")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise InvariantError("projector matrix is not Hermitian within tolerance")
        if np.max(np.abs(m @ m - m)) > IDEMPOTENT_TOL:
            raise InvariantError("projector matrix is not idempotent within tolerance")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "Projector":
        """A projector on a fresh or frozen nonempty complex128 matrix that hmsim built to
        be one: keeps it, frozen, without the O(d^3) Hermiticity and idempotency checks."""
        matrix.setflags(write=False)
        p = object.__new__(cls)
        object.__setattr__(p, "matrix", matrix)
        return p

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def coordinate(cls, dim: int, indices: Iterable[int]) -> "Projector":
        """0/1 diagonal projector onto the span of the basis vectors `indices`."""
        if dim < 1:
            raise DimensionError(f"projector dim must be at least 1, got {dim}")
        idx = list(indices)
        if bad := [i for i in idx if isinstance(i, bool) or not isinstance(i, (int, np.integer))]:
            raise DimensionError(f"span index {bad[0]!r} is not an integer")
        if bad := [i for i in idx if not 0 <= i < dim]:
            raise DimensionError(f"span index {bad[0]} outside 0..{dim - 1}")
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[idx, idx] = 1.0
        return cls._trusted(m)

    @property
    def space_dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def rank(self) -> int:
        """Rank read off the trace, which is integral for projectors."""
        tr = float(np.real(np.trace(self.matrix)))
        r = round(tr)
        if abs(tr - r) > RANK_TRACE_TOL:
            raise InvariantError(f"projector trace {tr} is not close to an integer")
        return int(r)


@dataclass(frozen=True, eq=False)
class UnitaryMap:
    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_complex_matrix(self.matrix, "unitary")
        if np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) > UNITARY_TOL:
            raise InvariantError("matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", m)

    @property
    def space_dim(self) -> int:
        return int(self.matrix.shape[0])


def _check_same_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionError(f"{what}: dimension mismatch {a} vs {b}")


def projector_from_span(vectors: Sequence[StateVector]) -> Projector:
    """Orthogonal projector onto the span of the given vectors.

    The input list must be linearly independent; near-dependence is detected
    when a Gram-Schmidt residual drops to or below SPAN_RESIDUAL_TOL.
    """
    if not vectors:
        raise DegenerateSpanError("empty spanning set")
    dim = vectors[0].space_dim
    basis: list[np.ndarray] = []
    for v in vectors:
        _check_same_dim(v.space_dim, dim, "projector_from_span")
        n = v.norm()
        if n == 0.0:
            raise DegenerateSpanError("zero vector in spanning set")
        w = v.amplitudes / n
        for q in basis:           # two passes for numerical stability
            w = w - np.vdot(q, w) * q
        for q in basis:
            w = w - np.vdot(q, w) * q
        r = float(np.linalg.norm(w))
        if r <= SPAN_RESIDUAL_TOL:
            raise DegenerateSpanError("spanning set is linearly dependent within tolerance")
        basis.append(w / r)
    q = np.column_stack(basis)
    return Projector(q @ q.conj().T)


def ketbra(state: StateVector) -> Projector:
    """Rank-one projector |s><s| for a normalized state."""
    state.require_normalized()
    a = state.amplitudes
    # exactly Hermitian; P @ P - P = (<s|s> - 1) P stays within the normalization tolerance
    return Projector._trusted(np.outer(a, a.conj()))


def born_probability(p: StateVector, proj: Projector) -> float:
    """||P p||^2 for a normalized state p, clamped to at most 1."""
    p.require_normalized()
    _check_same_dim(p.space_dim, proj.space_dim, "born_probability")
    return _born(p.amplitudes, proj)


def _born(amps: np.ndarray, proj: Projector) -> float:
    """born_probability of a normalized state's amplitudes, of the projector's dim."""
    w = proj.matrix.dot(amps)
    return min(float(np.vdot(w, w).real), 1.0)  # a sum of squares: never below 0


def complement_projector(p: Projector) -> Projector:
    """I - P. Its Hermiticity error is P's; its idempotency error is P's up to
    rounding of order d * eps, so it is not checked again."""
    return Projector._trusted(np.eye(p.space_dim, dtype=np.complex128) - p.matrix)


def _kron(arrays: list[np.ndarray], what: str) -> np.ndarray:
    """Kronecker product of a nonempty list, refused above MAX_DENSE_DIM before any product."""
    if not arrays:
        raise EmptyTensorError(f"tensor product of no {what}")
    if (total := math.prod(len(a) for a in arrays)) > MAX_DENSE_DIM:
        raise DomainError(f"dense history operator dim {total} exceeds {MAX_DENSE_DIM}")
    return reduce(np.kron, arrays)


def tensor_vectors(factors: Sequence[StateVector]) -> StateVector:
    """Kronecker product of the factors, first factor varying slowest."""
    return StateVector(_kron([f.amplitudes for f in factors], "vectors"))


def tensor_projectors(factors: Sequence[Projector]) -> Projector:
    """Kronecker product of projectors, same ordering as tensor_vectors; not checked again."""
    return Projector._trusted(_kron([f.matrix for f in factors], "projectors"))


def conjugate(p: Projector, u: UnitaryMap) -> Projector:
    """U P U^dagger; it inherits the admission of P and U, not checked again."""
    _check_same_dim(p.space_dim, u.space_dim, "conjugate")
    return Projector._trusted(u.matrix @ p.matrix @ u.matrix.conj().T)


def vector_to_json(v: StateVector) -> list[list[float]]:
    """Amplitudes as [re, im] pairs, basis order."""
    return [[float(np.real(z)), float(np.imag(z))] for z in v.amplitudes]
