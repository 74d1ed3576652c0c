"""Dense complex linear algebra on multi-register operator spaces.

Conventions shared by every module in this package:

* Operators are dense complex128 numpy arrays, row-major.
* A joint space over registers ``dims = (d_0, ..., d_{k-1})`` places register
  0 in the most significant tensor-factor slot, so the basis state
  ``|i_0, ..., i_{k-1}>`` has flat index ``i_0 * d_1 * ... * d_{k-1} + ...``.
  ``permute_registers`` is the only way to reorder factors.
* Anything that is nominally Hermitian gets symmetrized with
  ``(m + m^dag) / 2`` before it is returned, so rounding drift never reaches
  the eigensolvers.
* Tolerances come in two tiers: 1e-9 .. 1e-12 for exact algebra, 1e-6 for
  spectra of iterated or time-averaged states.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

DEFAULT_HERM_TOL = 1e-8
_PHASE_EPS = 1e-12


def maxabs(m: np.ndarray) -> float:
    """Max-entry norm, the workhorse for numerical equality checks."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (..., d, d) stack."""
    return np.conj(np.asarray(m)).swapaxes(-1, -2)


def herm(m: np.ndarray) -> np.ndarray:
    """Symmetrize to the nearest Hermitian matrix, (m + m^dag) / 2, matrix by matrix on stacks."""
    m = np.asarray(m, dtype=complex)
    return (m + dagger(m)) / 2.0


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_HERM_TOL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and maxabs(m - dagger(m)) <= tol


def kron(*mats: np.ndarray) -> np.ndarray:
    """Tensor product of one or more matrices, leftmost factor most significant.

    Acts matrix by matrix on (..., d, d) stacks with one leading shape; every
    entry is the single product ``np.kron`` computes, so the bits match it.
    """
    if not mats:
        raise ValueError("kron needs at least one matrix")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        m = np.asarray(m, dtype=complex)
        blocks = out[..., :, None, :, None] * m[..., None, :, None, :]
        p, r, q, s = blocks.shape[-4:]
        out = blocks.reshape(blocks.shape[:-4] + (p * r, q * s))
    return out


def _check_layout(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"register dimensions must be positive, got {dims}")
    n = prod(dims)
    m = np.asarray(m)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match layout {dims} (joint dim {n})")
    return dims


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every register not in ``keep``.

    The result acts on the kept registers in ascending register order.  The
    map is linear in ``m`` and preserves the total trace; ``keep = ()``
    returns the 1x1 matrix holding ``Tr(m)``.
    """
    dims = _check_layout(m, dims)
    k = len(dims)
    keep_sorted = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= k for i in keep_sorted):
        raise ValueError(f"keep indices {keep_sorted} out of range for {k} registers")
    t = np.asarray(m, dtype=complex).reshape(dims + dims)
    row_sub = [0] * k
    col_sub = [0] * k
    nxt = 0
    for i in keep_sorted:
        row_sub[i] = nxt
        nxt += 1
    for i in keep_sorted:
        col_sub[i] = nxt
        nxt += 1
    for i in range(k):
        if i not in keep_sorted:
            row_sub[i] = col_sub[i] = nxt
            nxt += 1
    out_sub = [row_sub[i] for i in keep_sorted] + [col_sub[i] for i in keep_sorted]
    res = np.einsum(t, row_sub + col_sub, out_sub)
    d_keep = prod(dims[i] for i in keep_sorted) if keep_sorted else 1
    return np.ascontiguousarray(res.reshape(d_keep, d_keep))


def permute_registers(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Conjugate by the tensor-factor permutation.

    ``perm[new_slot] = old_register``: the output's factor order is
    ``[dims[p] for p in perm]``.  Involutive for self-inverse permutations and
    spectrum-preserving always.
    """
    dims = _check_layout(m, dims)
    k = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a bijection on {k} registers")
    n = prod(dims)
    t = np.asarray(m, dtype=complex).reshape(dims + dims)
    axes = list(perm) + [k + p for p in perm]
    return np.ascontiguousarray(t.transpose(axes).reshape(n, n))


def partial_transpose(m: np.ndarray, dims: Sequence[int], factor: int) -> np.ndarray:
    """Transpose a single tensor factor in place, leaving the others alone."""
    dims = _check_layout(m, dims)
    k = len(dims)
    if not 0 <= factor < k:
        raise ValueError(f"factor {factor} out of range for {k} registers")
    n = prod(dims)
    t = np.asarray(m, dtype=complex).reshape(dims + dims)
    axes = list(range(2 * k))
    axes[factor], axes[k + factor] = k + factor, factor
    return np.ascontiguousarray(t.transpose(axes).reshape(n, n))


def _checked_herm(h: np.ndarray, tol: float = DEFAULT_HERM_TOL) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return herm(h)


def herm_eig(h: np.ndarray, tol: float = DEFAULT_HERM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge.

    Returns ``(vals, vecs)`` with eigenvalues sorted descending (stable sort,
    so solver order breaks exact ties) and each eigenvector's phase fixed by
    making its first component of magnitude > 1e-12 real and positive.
    Satisfies ``h = vecs @ diag(vals) @ vecs^dag`` to 1e-9.
    """
    vals, vecs = np.linalg.eigh(_checked_herm(h, tol))
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > _PHASE_EPS)
        if nz.size:
            a = col[nz[0]]
            vecs[:, j] = col * (np.conj(a) / abs(a))
    return vals, vecs


def lambda_max(h: np.ndarray) -> float:
    """Largest eigenvalue, equal to max over unit vectors of <v, h v>."""
    return float(np.linalg.eigvalsh(herm(np.asarray(h, dtype=complex)))[-1])


def lambda_min(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(herm(np.asarray(h, dtype=complex)))[0])


def kron_spectrum(spectra: Sequence[np.ndarray]) -> np.ndarray:
    """Ascending spectrum of a tensor product from its factors' (..., d) spectra.

    The spectrum of ``kron(*mats)`` for Hermitian factors is every product of
    one eigenvalue per factor, so ``kron_spectrum([eigvalsh(m) for m in mats])``
    runs only factor-sized eigensolvers.  Acts on stacks like :func:`kron`.
    """
    if not spectra:
        raise ValueError("kron_spectrum needs at least one spectrum")
    spec = spectra[0]
    for s in spectra[1:]:
        pairs = spec[..., :, None] * s[..., None, :]
        spec = pairs.reshape(pairs.shape[:-2] + (-1,))
    return np.sort(spec, axis=-1)


def spectral_norm(h: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(herm(np.asarray(h, dtype=complex)))
    return float(np.max(np.abs(vals)))


def herm_exp(h: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via eigendecomposition.

    Always Hermitian positive definite.  Callers that need ``exp(h)``
    normalized to a density should use :func:`exp_density`, which never
    overflows.
    """
    vals, vecs = herm_eig(h)
    return herm((vecs * np.exp(vals)) @ dagger(vecs))


def exp_density(h: np.ndarray) -> np.ndarray:
    """The Gibbs-like state exp(h) / Tr(exp(h)), computed shift-stably.

    Qubits take a closed form in ``tanh``, which is bounded; other dimensions
    renormalize ``exp(h - lambda_max(h) I)``, which keeps all intermediate
    entries in [0, 1].  Either way nothing overflows however large ``||h||``
    grows (see :func:`exp_density_stack`).
    """
    return exp_density_stack(_checked_herm(h))


def exp_density_stack(h: np.ndarray) -> np.ndarray:
    """:func:`exp_density` of every matrix in a (..., d, d) stack, unvalidated.

    ``h`` must be exactly Hermitian (for example the output of :func:`herm`).
    Qubits (d = 2) take a closed form: ``h`` has eigenvalues ``m +- r``, with
    ``m = Tr(h) / 2`` and ``r = hypot((h00 - h11) / 2, |h01|)``, so the state is
    ``I/2 + s (h - m I)`` with ``s = tanh(r) / (2r)``.  It runs elementwise
    with no eigensolver, never reads ``m`` (so a large trace costs no
    accuracy), and gives exactly ``I/2`` when ``h`` is a multiple of ``I``.
    Other dimensions take a plain ``eigh`` of ``h`` with its mean diagonal
    subtracted (see :func:`_traceless`), so here too a large trace costs no
    accuracy: the map is a spectral function, unchanged by adding a multiple
    of ``I`` and independent of the eigenvector gauge that :func:`herm_eig`
    fixes.  Either way each matrix of a stack gives the same bits as a call
    on that matrix alone.
    """
    if h.shape[-1] == 2:
        return _exp_density_qubits(h)
    vals, vecs = np.linalg.eigh(_traceless(h))
    w = np.exp(vals - vals[..., -1:])
    w /= w.sum(axis=-1, keepdims=True)
    return _reassemble(vecs, w)


def _exp_density_qubits(h: np.ndarray) -> np.ndarray:
    """The d = 2 closed form of :func:`exp_density_stack`, over a (..., 2, 2) stack."""
    z = 0.5 * h[..., 0, 0].real - 0.5 * h[..., 1, 1].real  # halved first, so no overflow
    r = np.hypot(z, np.abs(h[..., 0, 1]))
    s = 0.5 * np.tanh(r) / np.where(r > 0, r, 1.0)  # at r = 0, z and h01 are 0 and s is moot
    sz = s * z
    out = s[..., None, None] * h
    out[..., 0, 0] = 0.5 + sz
    out[..., 1, 1] = 0.5 - sz
    return out


def _traceless(h: np.ndarray) -> np.ndarray:
    """``h - (Tr h / d) I`` for each matrix of a stack, on a copy.

    ``eigh``'s error grows with ``||h||``, so the spectral maps that ignore a
    multiple of ``I`` diagonalize this instead: its error is then bounded by
    the spread of the eigenvalues, however large the trace grows.
    """
    d = h.shape[-1]
    out = h.copy()
    diag = out.reshape(h.shape[:-2] + (d * d,))[..., :: d + 1]  # a view: the copy is C-contiguous
    diag -= diag.real.sum(axis=-1, keepdims=True) / d
    return out


def _reassemble(vecs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """vecs @ diag(w) @ vecs^dag over a stack, symmetrized."""
    return herm((vecs * w[..., None, :]) @ dagger(vecs))


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product Tr(a^dag b), real part.

    Only meaningful as a real number for Hermitian inputs; use ``np.vdot``
    directly when a complex-valued pairing is needed.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b).real)


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex, row by row on stacks."""
    v = np.asarray(v, dtype=float)
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, v.shape[-1] + 1)
    positive = u - (css - 1.0) / j > 0
    rho = v.shape[-1] - 1 - np.argmax(np.flip(positive, axis=-1), axis=-1)[..., None]  # last positive index
    theta = (np.take_along_axis(css, rho, axis=-1) - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_to_density(h: np.ndarray) -> np.ndarray:
    """Nearest density matrix in Hilbert-Schmidt norm.

    Diagonalize, project the eigenvalue vector onto the probability simplex,
    and reassemble.  Idempotent, and a fixed point on valid densities.
    """
    return project_to_density_stack(_checked_herm(h))


def project_to_density_stack(h: np.ndarray) -> np.ndarray:
    """:func:`project_to_density` of every matrix in a (..., d, d) stack, unvalidated.

    Same contract as :func:`exp_density_stack`: ``h`` exactly Hermitian, any
    eigenvector gauge, and per-matrix bits independent of the stack.  Shifting
    ``h`` by ``c I`` shifts its eigenvalues by ``c`` and leaves their simplex
    projection unchanged.  So this too diagonalizes :func:`_traceless` of
    ``h``, and it projects the eigenvalues minus the largest one: the
    threshold is then computed near 0, where the top eigenvalues lie, and the
    weights sum to 1 up to unit-scale rounding however large the spread.
    """
    vals, vecs = np.linalg.eigh(_traceless(h))
    return _reassemble(vecs, simplex_projection(vals - vals[..., -1:]))


def check_density(rho: np.ndarray, trace_tol: float = 1e-9, eig_tol: float = 1e-9) -> np.ndarray:
    """Validate trace-1 and positive semidefiniteness, returning the input."""
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho):
        raise ValueError("density matrix must be Hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} is not 1 within {trace_tol}")
    lo = lambda_min(rho)
    if lo < -eig_tol:
        raise ValueError(f"density matrix has eigenvalue {lo} below -{eig_tol}")
    return rho


def bloch_coords(rho: np.ndarray) -> tuple[float, float, float]:
    """Pauli expectation values (x, y, z) of a qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("Bloch coordinates are only defined for 2x2 densities")
    x, y, z = bloch_vectors(rho).tolist()
    return x, y, z


def bloch_vectors(rho: np.ndarray) -> np.ndarray:
    """The (..., 3) Bloch vectors of a (..., 2, 2) stack, unvalidated.

    Each coordinate ``Re Tr(P rho)`` is the sum of the two entries the Pauli
    matrix P picks, so it is exact up to that one rounding, and the ``+ 0.0``
    turns a zero into +0.0 as a dot product started from 0 would: the bits
    equal ``np.vdot(P, rho).real`` per matrix.
    """
    x = rho[..., 0, 1].real + rho[..., 1, 0].real
    y = rho[..., 1, 0].imag - rho[..., 0, 1].imag
    z = rho[..., 0, 0].real - rho[..., 1, 1].real
    return np.stack([x, y, z], axis=-1) + 0.0


def random_hermitian(dim: int, rng: np.random.Generator, norm: float | None = None) -> np.ndarray:
    """Hermitized standard complex Gaussian, optionally scaled to a target spectral norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = herm(g)
    if norm is not None:
        h = h * (norm / spectral_norm(h))
    return h


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return herm(rho / np.trace(rho).real)


def random_pure_states(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, dim) array of Haar-random unit vectors (normalized complex Gaussians)."""
    z = rng.standard_normal((n, 2 * dim))
    psi = z[:, :dim] + 1j * z[:, dim:]
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)
