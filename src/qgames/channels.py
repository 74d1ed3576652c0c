"""Superoperators stored canonically as Choi matrices.

A map ``Theta: L(B) -> L(A)`` is identified with the matrix
``C = sum_ij Theta(E_ij) (x) E_ij`` on the output-then-input space ``A (x) B``,
where ``E_ij`` is the standard matrix-unit basis of ``L(B)``.  Applying the
map is the contraction ``Theta(X) = Tr_B(C (I_A (x) X^T))``, the transpose
taken in the computational basis of the stored matrix; no basis parameter is
exposed.  Complete positivity is an eigenvalue check on ``C``,
trace preservation is ``Tr_A(C) = I_B``, and unitality is ``Tr_B(C) = I_A``.
(Some texts attach different labels to the adjoint-side version of the
trace-preservation condition; here the names above are the contract.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import (
    _check_int,
    _check_ints,
    _check_layout,
    _checked_herm,
    _one_matrix,
    check_density,
    dagger,
    kron,
    lambda_min,
    maxabs,
    partial_trace,
)

CPTP_TOL = 1e-8


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a Hermiticity-preserving superoperator L(B) -> L(A)."""

    matrix: np.ndarray
    out_dim: int
    in_dim: int

    def __post_init__(self):
        out_dim, in_dim = _check_ints((self.out_dim, self.in_dim), "Choi matrix out and in dims")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (out_dim * in_dim,) * 2:
            raise ValueError(f"Choi matrix shape {m.shape} does not match out {self.out_dim} x in {self.in_dim}")
        m = _checked_herm(m, "Choi matrix must be Hermitian (Hermiticity-preserving maps only)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def _tensor(self) -> np.ndarray:
        return self.matrix.reshape(self.out_dim, self.in_dim, self.out_dim, self.in_dim)


def choi_of_map(fn: Callable[[np.ndarray], np.ndarray], in_dim: int) -> np.ndarray:
    """Assemble sum_ij fn(E_ij) (x) E_ij in one pass, one call of ``fn`` per matrix unit, (i, j) row-major."""
    in_dim = _check_int(in_dim, "input dim", low=1)
    units = np.eye(in_dim * in_dim, dtype=complex).reshape(-1, in_dim, in_dim)   # row i * d + j is E_ij
    return sum(kron(np.asarray(fn(e), dtype=complex), e) for e in units)


def choi_of_identity(dim: int) -> ChoiMatrix:
    """Identity channel: rank one, trace ``dim``, positive semidefinite."""
    return unitary_channel(np.eye(_check_int(dim, "dim", low=1)))


def replacement_channel(target: np.ndarray) -> ChoiMatrix:
    """The constant map X -> Tr(X) * target; Choi matrix target (x) I."""
    target = _one_matrix(check_density(target), "replacement_channel")
    d = target.shape[0]
    return ChoiMatrix(kron(target, np.eye(d, dtype=complex)), d, d)


def unitary_channel(u: np.ndarray) -> ChoiMatrix:
    """Conjugation X -> U X U^dag, assembled from its action on matrix units."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.shape != (d, d) or maxabs(dagger(u) @ u - np.eye(d)) > 1e-9:
        raise ValueError("matrix is not unitary within 1e-9")
    return ChoiMatrix(choi_of_map(lambda x: u @ x @ dagger(u), d), d, d)


def apply_superop(c: ChoiMatrix, x: np.ndarray) -> np.ndarray:
    """Theta(X) = Tr_B(C (I_A (x) X^T)), exactly linear in X."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (c.in_dim, c.in_dim):
        raise ValueError(f"input shape {x.shape} does not match channel input dim {c.in_dim}")
    return np.einsum("ambn,mn->ab", c._tensor, x)


def apply_adjoint(c: ChoiMatrix, a: np.ndarray) -> np.ndarray:
    """Theta^dag(A) = (Tr_A(C (A (x) I_B)))^T.

    This is the unique map satisfying <A, Theta(B)> = <Theta^dag(A), B> on
    Hermitian inputs, which is the contract the tests pin down.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (c.out_dim, c.out_dim):
        raise ValueError(f"input shape {a.shape} does not match channel output dim {c.out_dim}")
    return np.einsum("ambn,ba->nm", c._tensor, a)


def is_completely_positive(c: ChoiMatrix, tol: float = 1e-9) -> bool:
    return lambda_min(c.matrix) >= -tol


def is_trace_preserving(c: ChoiMatrix, tol: float = 1e-9) -> bool:
    tr_a = partial_trace(c.matrix, (c.out_dim, c.in_dim), keep=(1,))
    return maxabs(tr_a - np.eye(c.in_dim)) <= tol


def is_unital(c: ChoiMatrix, tol: float = 1e-9) -> bool:
    tr_b = partial_trace(c.matrix, (c.out_dim, c.in_dim), keep=(0,))
    return maxabs(tr_b - np.eye(c.out_dim)) <= tol


def is_cptp(c: ChoiMatrix) -> bool:
    return is_completely_positive(c, CPTP_TOL) and is_trace_preserving(c, CPTP_TOL)


def lift_channel(c: ChoiMatrix, dims: Sequence[int], i: int) -> Callable[[np.ndarray], np.ndarray]:
    """Extend a single-register channel to ``phi_i (x) id`` on the joint space.

    The returned map contracts the Choi tensor with register ``i``'s row and
    column axes of the ``dims + dims`` view of its input, in one einsum, and
    leaves every other axis in place.  The channel must be CPTP and square on
    register ``i``; the map takes densities to densities.
    """
    dims = _check_ints(dims)
    k = len(dims)
    i = _check_int(i, "player index", k)
    if c.in_dim != dims[i] or c.out_dim != dims[i]:
        raise ValueError(f"channel dims ({c.out_dim}, {c.in_dim}) do not match register {i} dim {dims[i]}")
    if not is_cptp(c):
        raise ValueError("lifting requires a CPTP channel")
    axes = list(range(2 * k))   # every register's row axis, then every column axis
    ins = [{i: 2 * k, k + i: 2 * k + 1}.get(x, x) for x in axes]   # register i's row and column, summed over

    def lifted(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        _check_layout(rho, dims)
        return np.einsum(c._tensor, [i, 2 * k, k + i, 2 * k + 1], rho.reshape(dims * 2), ins, axes).reshape(rho.shape)

    return lifted
