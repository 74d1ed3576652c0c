"""Dense complex linear algebra on multi-register operator spaces.

Conventions shared by every module in this package:

* Operators are dense complex128 numpy arrays, row-major.
* A joint space over registers ``dims = (d_0, ..., d_{k-1})`` places register
  0 in the most significant tensor-factor slot, so the basis state
  ``|i_0, ..., i_{k-1}>`` has flat index ``i_0 * d_1 * ... * d_{k-1} + ...``.
  ``_reduced`` is the one register primitive: every partial trace, ordered
  marginal and factor permutation is one einsum there, and
  ``partial_trace`` and ``permute_registers`` are its checked entry points.
* Anything that is nominally Hermitian gets symmetrized with
  ``(m + m^dag) / 2`` before it is returned, so rounding drift never reaches
  the eigensolvers.
* Tolerances come in three tiers: 1e-12 .. 1e-9 for exact algebra, 1e-8 for
  checks on given operators and states, 1e-6 for spectra of iterated or
  time-averaged states.  Sizes and register indices go through
  ``operator.index``, so a float is refused, never truncated, and so is a bool.
"""

from __future__ import annotations

from math import inf, prod
from operator import index
from typing import Iterable, Sequence

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

DEFAULT_HERM_TOL = 1e-8
_DENSITY_TOL = 1e-9
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


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and maxabs(m - dagger(m)) <= DEFAULT_HERM_TOL


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


def _check_ints(xs, what: str = "dims", low: int = 1, high: int | None = None, empty: bool = False) -> tuple[int, ...]:
    """``xs`` as ints, if a sequence of integers (``operator.index``, not bool) in [low, high), non-empty unless ``empty``."""
    try:
        out = tuple(index(None if isinstance(x, bool) else x) for x in xs)
    except TypeError:   # not a sequence, or an entry that is not an integer
        out = None
    if out is None or not (out or empty) or any(x < low or (high is not None and x >= high) for x in out):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{what} must be a {'' if empty else 'non-empty '}sequence of integers {bounds}, got {xs!r}")
    return out


def _check_int(x, what: str, high: int | None = None, low: int | None = None) -> int:
    """A scalar, >= ``low`` if given or with ``high`` an index in [0, high), by the rule of :func:`_check_ints`."""
    try:
        return _check_ints((x,), what, 0 if high is not None else -inf if low is None else low, high)[0]
    except ValueError:
        bounds = f" in [0, {high})" if high is not None else "" if low is None else f" >= {low}"
        raise ValueError(f"{what} must be an integer{bounds}, got {x!r}") from None


def _check_layout(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = _check_ints(dims, empty=True)
    n = prod(dims)
    m = np.asarray(m)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match layout {dims} (joint dim {n})")
    return dims


def _reduced(m: np.ndarray, dims: Sequence[int], regs: Sequence[int]) -> np.ndarray:
    """Each matrix of a (..., n, n) stack reduced to the registers ``regs``, in the order given.

    One einsum over the ``dims + dims`` view: a register left out reads one
    label on its row axis and its column axis and is traced out, so ``regs``
    naming every register only moves entries.  Unvalidated.
    """
    k = len(dims)
    rows = list(range(k))
    cols = [k + x if x in regs else x for x in rows]
    t = m.reshape(m.shape[:-2] + tuple(dims) * 2)
    out = np.einsum(t, [..., *rows, *cols], [..., *regs, *(cols[x] for x in regs)])
    d = prod(dims[x] for x in regs)
    return np.ascontiguousarray(out.reshape(m.shape[:-2] + (d, d)))


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every register not in ``keep``.

    The result acts on the kept registers in ascending register order.  The
    map is linear in ``m`` and preserves the total trace; ``keep = ()``
    returns the 1x1 matrix holding ``Tr(m)``.
    """
    dims = _check_layout(m, dims)
    keep = sorted(set(_check_ints(keep, "keep", 0, len(dims), empty=True)))
    return _reduced(np.asarray(m, dtype=complex), dims, keep)


def permute_registers(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Conjugate by the tensor-factor permutation.

    ``perm[new_slot] = old_register``: the output's factor order is
    ``[dims[p] for p in perm]``.  Involutive for self-inverse permutations and
    spectrum-preserving always.
    """
    dims = _check_layout(m, dims)
    k = len(dims)
    perm = _check_ints(perm, "perm", 0, empty=True)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a bijection on {k} registers")
    return _reduced(np.asarray(m, dtype=complex), dims, perm)


def partial_transpose(m: np.ndarray, dims: Sequence[int], factor: int) -> np.ndarray:
    """Transpose a single tensor factor in place, leaving the others alone."""
    dims = _check_layout(m, dims)
    k = len(dims)
    factor = _check_int(factor, "factor", k)
    n = prod(dims)
    t = np.asarray(m, dtype=complex).reshape(dims + dims)
    axes = list(range(2 * k))
    axes[factor], axes[k + factor] = k + factor, factor
    return np.ascontiguousarray(t.transpose(axes).reshape(n, n))


def _checked_herm(h: np.ndarray, message: str = "matrix is not Hermitian within tolerance") -> np.ndarray:
    """The one Hermitian gate: ``herm(h)`` if ``h`` is a Hermitian matrix within ``DEFAULT_HERM_TOL``, else ``message``."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError(message)
    return herm(h)


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge.

    Returns ``(vals, vecs)`` with eigenvalues sorted descending (stable sort,
    so solver order breaks exact ties) and each eigenvector's phase fixed by
    making its first component of magnitude > 1e-12 real and positive.
    Satisfies ``h = vecs @ diag(vals) @ vecs^dag`` to 1e-9.
    """
    vals, vecs = np.linalg.eigh(_checked_herm(h))
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
    subtracted (see :func:`_shifted_eigh`), so here too a large trace costs no
    accuracy: the map is a spectral function, unchanged by adding a multiple
    of ``I`` and independent of the eigenvector gauge that :func:`herm_eig`
    fixes.  Either way each matrix of a stack gives the same bits as a call
    on that matrix alone.
    """
    if h.shape[-1] == 2:
        return _exp_density_qubits(h)
    # exp of anything below -746 is 0, so the floor moves no bit
    shifted, vecs = _shifted_eigh(h, -746.0)
    w = np.exp(shifted)
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


def _shifted_eigh(h: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum of ``h - (Tr h / d) I`` minus its top, clamped at ``floor``, and its eigenvectors.

    ``eigh``'s error grows with ``||h||``, so the spectral maps that ignore a
    multiple of ``I`` diagonalize each matrix minus its mean diagonal: the
    error is then bounded by the spread of the eigenvalues, however large the
    trace grows.  A matrix with entries of 2^1000 or more is scaled down by a
    power of two first, so the shift cannot overflow; the clamped spectrum
    undoes the scale exactly.  Below 2^1000 no bit moves.
    """
    d = h.shape[-1]
    big = np.maximum(np.abs(h.real).max(axis=(-2, -1)), np.abs(h.imag).max(axis=(-2, -1)))
    scale = np.ldexp(1.0, np.maximum(np.frexp(big)[1] - 1000, 0))[..., None]
    m = np.divide(h, scale[..., None], order="C")   # a fresh C-contiguous array, shifted in place
    diag = m.reshape(h.shape[:-2] + (d * d,))[..., :: d + 1]  # a view, as m is C-contiguous
    diag -= diag.real.sum(axis=-1, keepdims=True) / d
    vals, vecs = np.linalg.eigh(m)
    return np.maximum(vals - vals[..., -1:], floor / scale) * scale, vecs


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
    projection unchanged.  So this too diagonalizes ``h`` minus its mean
    diagonal, and it projects the eigenvalues minus the largest one: the
    threshold is then computed near 0, where the top eigenvalues lie, and the
    weights sum to 1 up to unit-scale rounding however large the spread.
    The threshold lies in [-1, 0), so clamping the shifted eigenvalues at -1
    (see :func:`_shifted_eigh`) moves no bit.
    """
    shifted, vecs = _shifted_eigh(h, -1.0)
    return _reassemble(vecs, simplex_projection(shifted))


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate trace-1 and positive semidefiniteness within ``_DENSITY_TOL``, returning the input."""
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho):
        raise ValueError("density matrix must be Hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _DENSITY_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1 within {_DENSITY_TOL}")
    lo = lambda_min(rho)
    if lo < -_DENSITY_TOL:
        raise ValueError(f"density matrix has eigenvalue {lo} below -{_DENSITY_TOL}")
    return rho


def _check_distribution(w, ndim: int) -> np.ndarray:
    """``w`` as floats, if an ndim-array of nonnegative weights summing to 1 (so not NaN)."""
    w = np.asarray(w, dtype=float)
    if w.ndim != ndim or not (w.min(initial=0.0) >= -1e-12 and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("weights must form a probability distribution")
    return w


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
    dim = _check_int(dim, "dim", low=1)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = herm(g)
    if norm is not None:
        h = h * (norm / spectral_norm(h))
    return h


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    dim = _check_int(dim, "dim", low=1)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return herm(rho / np.trace(rho).real)


def random_pure_states(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, dim) array of Haar-random unit vectors (normalized complex Gaussians)."""
    dim, n = _check_int(dim, "dim", low=1), _check_int(n, "number of states", low=1)
    z = rng.standard_normal((n, 2 * dim))
    psi = z[:, :dim] + 1j * z[:, dim:]
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)
