import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qgames as qg
from qgames.tensor import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _reassemble,
    _reduced,
    bloch_vectors,
    dagger,
    exp_density_stack,
    is_hermitian,
    kron_spectrum,
    maxabs,
    project_to_density_stack,
)


def _traceless(h):
    """Reference: ``h - (Tr h / d) I`` for each matrix of a stack, on a copy (the eigh kernels shift in place)."""
    d = h.shape[-1]
    out = h.copy()
    diag = out.reshape(h.shape[:-2] + (d * d,))[..., :: d + 1]  # a view: the copy is C-contiguous
    diag -= diag.real.sum(axis=-1, keepdims=True) / d
    return out


def rand_herm(d, seed):
    return qg.random_hermitian(d, np.random.default_rng(seed))


def rand_complex(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


SWAP = np.zeros((4, 4), dtype=complex)
for a in range(2):
    for b in range(2):
        SWAP[2 * b + a, 2 * a + b] = 1.0


# -- kron -------------------------------------------------------------------


def test_kron_identities():
    assert maxabs(qg.kron(np.eye(2), np.eye(2)) - np.eye(4)) == 0
    # hand-expanded 4x4 for diag(1,-1) (x) diag(1,-1)
    d = np.diag([1.0, -1.0]).astype(complex)
    assert maxabs(qg.kron(d, d) - np.diag([1.0, -1.0, -1.0, 1.0])) == 0
    assert qg.kron(rand_complex(2, 0), rand_complex(3, 1)).shape == (6, 6)
    # stacks: matrix by matrix, the same bits as np.kron
    a, b = np.stack([rand_complex(2, s) for s in range(3)]), np.stack([rand_complex(3, s) for s in range(3)])
    for s in range(3):
        assert np.array_equal(qg.kron(a, b)[s], np.kron(a[s], b[s]))


def test_kron_mixed_product():
    a, x = rand_complex(2, 2), rand_complex(2, 3)
    b, y = rand_complex(3, 4), rand_complex(3, 5)
    assert maxabs(qg.kron(a, b) @ qg.kron(x, y) - qg.kron(a @ x, b @ y)) < 1e-12


def test_kron_associativity():
    a, b, c = rand_complex(2, 6), rand_complex(3, 7), rand_complex(2, 8)
    assert maxabs(qg.kron(qg.kron(a, b), c) - qg.kron(a, qg.kron(b, c))) < 1e-12


# -- partial trace -----------------------------------------------------------


def test_partial_trace_product_axiom():
    a, b = rand_complex(2, 10), rand_complex(3, 11)
    got = qg.partial_trace(qg.kron(a, b), (2, 3), keep=(0,))
    assert maxabs(got - a * np.trace(b)) < 1e-12
    got = qg.partial_trace(qg.kron(a, b), (2, 3), keep=(1,))
    assert maxabs(got - b * np.trace(a)) < 1e-12


def test_partial_trace_bell_state():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert maxabs(qg.partial_trace(rho, (2, 2), keep=(1,)) - np.eye(2) / 2) < 1e-15
    assert maxabs(qg.partial_trace(rho, (2, 2), keep=(0,)) - np.eye(2) / 2) < 1e-15


def test_partial_trace_empty_keep_is_total_trace():
    rho = qg.random_density(6, np.random.default_rng(1))
    out = qg.partial_trace(rho, (2, 3), keep=())
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_partial_trace_linear_and_trace_preserving():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m1 = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        m2 = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        c = complex(rng.standard_normal(), rng.standard_normal())
        keep = tuple(rng.choice(3, size=rng.integers(0, 4), replace=False))
        lhs = qg.partial_trace(c * m1 + m2, (2, 3, 2), keep)
        rhs = c * qg.partial_trace(m1, (2, 3, 2), keep) + qg.partial_trace(m2, (2, 3, 2), keep)
        assert maxabs(lhs - rhs) < 1e-10
        assert abs(np.trace(qg.partial_trace(m1, (2, 3, 2), keep)) - np.trace(m1)) < 1e-10


def test_partial_trace_adjoint_identity():
    # <Tr_B(M), A> = <M, A (x) I_B> for arbitrary complex M and A
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.vdot(qg.partial_trace(m, (2, 3), keep=(0,)), a)
        rhs = np.vdot(m, qg.kron(a, np.eye(3)))
        assert abs(lhs - rhs) < 1e-10


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        qg.partial_trace(np.eye(5), (2, 3), keep=(0,))


# -- register permutations ----------------------------------------------------


def test_permute_identity_and_involution():
    m = rand_complex(6, 20)
    assert maxabs(qg.permute_registers(m, (2, 3), (0, 1)) - m) == 0
    m8 = rand_complex(8, 21)
    swapped = qg.permute_registers(m8, (2, 2, 2), (0, 2, 1))
    assert maxabs(qg.permute_registers(swapped, (2, 2, 2), (0, 2, 1)) - m8) == 0


def test_permute_swap_matches_index_map_oracle():
    # independent oracle: explicit basis-relabelling permutation matrix
    a, b = rand_complex(2, 22), rand_complex(2, 23)
    m = qg.kron(a, b)
    p = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            p[2 * j + i, 2 * i + j] = 1.0
    assert maxabs(qg.permute_registers(m, (2, 2), (1, 0)) - p @ m @ p.T) < 1e-14
    assert maxabs(qg.permute_registers(m, (2, 2), (1, 0)) - qg.kron(b, a)) < 1e-14


def test_permute_preserves_spectrum_and_trace():
    h = rand_herm(12, 24)
    out = qg.permute_registers(h, (2, 3, 2), (2, 0, 1))
    assert abs(np.trace(out) - np.trace(h)) < 1e-12
    assert maxabs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(h)) < 1e-10


def test_permute_rejects_non_bijections():
    with pytest.raises(ValueError):
        qg.permute_registers(np.eye(4), (2, 2), (0, 0))


def test_partial_transpose_is_involutive():
    m = rand_complex(6, 25)
    pt = qg.partial_transpose(m, (2, 3), 1)
    assert maxabs(qg.partial_transpose(pt, (2, 3), 1) - m) == 0
    a, b = rand_complex(2, 26), rand_complex(3, 27)
    assert maxabs(qg.partial_transpose(qg.kron(a, b), (2, 3), 1) - qg.kron(a, b.T)) < 1e-14


# -- eigendecomposition --------------------------------------------------------


def test_herm_eig_simple_cases():
    vals, vecs = qg.herm_eig(np.diag([0.3, 0.9]).astype(complex))
    assert maxabs(vals - np.array([0.9, 0.3])) < 1e-15
    vals, _ = qg.herm_eig(PAULI_X)
    # characteristic polynomial lambda^2 = 1
    assert maxabs(vals - np.array([1.0, -1.0])) < 1e-12


def test_herm_eig_reconstruction_and_orthonormality():
    for d in (2, 3, 5, 8, 16):
        h = rand_herm(d, 30 + d)
        vals, vecs = qg.herm_eig(h)
        assert maxabs(vecs @ np.diag(vals) @ dagger(vecs) - h) < 1e-9
        assert maxabs(dagger(vecs) @ vecs - np.eye(d)) < 1e-9
        assert np.all(np.diff(vals) <= 1e-12)


def test_herm_eig_phase_convention():
    _, vecs = qg.herm_eig(PAULI_X)
    for j in range(2):
        first = vecs[np.flatnonzero(np.abs(vecs[:, j]) > 1e-12)[0], j]
        assert abs(first.imag) < 1e-12 and first.real > 0


def phase_fixed_column_by_column(h):
    """Reference for herm_eig: the same eigh and order, then each column's phase fixed in a loop."""
    vals, vecs = np.linalg.eigh(qg.herm(h))
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        a = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        vecs[:, j] = col * (np.conj(a) / abs(a))
    return vals, vecs


def gauge_cases():
    rng = np.random.default_rng(64)
    for n in (1, 2, 3, 4, 7, 16, 33, 64):
        yield f"random-{n}", qg.random_hermitian(n, rng)
        yield f"degenerate-diagonal-{n}", np.diag(rng.integers(-1, 2, n)).astype(complex)   # unit eigenvectors
        h = qg.random_hermitian(n, rng)
        yield f"sparse-{n}", qg.herm(h * (rng.random((n, n)) < 0.15))   # leading zeros in the eigenvectors
        # weak couplings: entries of ~1e-14 precede the first one above the 1e-12 threshold
        yield f"near-threshold-{n}", np.diag(np.arange(n, dtype=complex)) + 1e-14 * qg.random_hermitian(n, rng)


GAUGE_CASES = list(gauge_cases())


@pytest.mark.parametrize("h", [h for _, h in GAUGE_CASES], ids=[name for name, _ in GAUGE_CASES])
def test_herm_eig_gauge_is_the_column_by_column_loop_bit_for_bit(h):
    # herm_eig fixes every column's phase in one step; its bytes are those of a loop that fixes one
    # column at a time with a scalar's abs (the sparse and near-threshold cases tell the two apart from
    # numpy's abs of a complex array, which rounds differently)
    vals, vecs = qg.herm_eig(h)
    ref_vals, ref_vecs = phase_fixed_column_by_column(h)
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()
    first = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(len(vals))]
    assert np.all(np.abs(first.imag) < 1e-12) and np.all(first.real > 0)


def test_herm_eig_of_an_empty_matrix_is_empty():
    vals, vecs = qg.herm_eig(np.zeros((0, 0), dtype=complex))
    assert vals.shape == (0,) and vecs.shape == (0, 0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qg.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_herm_eig_tie_convention_identity():
    vals, vecs = qg.herm_eig(np.eye(3, dtype=complex))
    assert maxabs(vecs - np.eye(3)) < 1e-12


# -- matrix exponential ---------------------------------------------------------


def test_herm_exp_trivial():
    assert maxabs(qg.herm_exp(np.zeros((3, 3))) - np.eye(3)) < 1e-12
    assert maxabs(qg.herm_exp(np.diag([1.0, -2.0])) - np.diag([np.e, np.exp(-2)])) < 1e-12


def test_herm_exp_matches_taylor_series():
    h = rand_herm(4, 40)
    h /= qg.spectral_norm(h)  # ||h|| = 1 keeps the series well-conditioned
    series = np.zeros_like(h)
    term = np.eye(4, dtype=complex)
    for k in range(1, 21):
        series += term
        term = term @ h / k
    assert maxabs(qg.herm_exp(h) - series) < 1e-8


def test_herm_exp_positive_definite_and_shift():
    for seed in range(5):
        h = rand_herm(4, 50 + seed)
        e = qg.herm_exp(h)
        assert qg.lambda_min(e) > 0
        c = 0.7
        lhs = qg.herm_exp(h + c * np.eye(4))
        rhs = np.exp(c) * e
        assert maxabs(lhs - rhs) / maxabs(rhs) < 1e-9


def test_exp_density_is_normalized_and_stable():
    h = rand_herm(3, 60)
    rho = qg.exp_density(1000.0 * h)  # would overflow without the shift
    assert np.isfinite(rho).all()
    qg.check_density(rho)
    assert maxabs(qg.exp_density(np.zeros((3, 3))) - np.eye(3) / 3) < 1e-15
    assert maxabs(qg.exp_density(np.diag([1.0, -2.0])) - np.diag([np.e, np.exp(-2)]) / (np.e + np.exp(-2))) < 1e-15


def test_exp_density_matches_taylor_series_and_ignores_shifts():
    h = rand_herm(4, 40)
    h /= qg.spectral_norm(h)  # ||h|| = 1 keeps the series well-conditioned
    series = np.zeros_like(h)
    term = np.eye(4, dtype=complex)
    for k in range(1, 21):
        series += term
        term = term @ h / k
    assert maxabs(qg.exp_density(h) - series / np.trace(series).real) < 1e-12
    for seed in range(5):
        h = rand_herm(4, 50 + seed)
        rho = qg.exp_density(h)
        assert qg.lambda_min(rho) > 0
        assert maxabs(qg.exp_density(h + 0.7 * np.eye(4)) - rho) < 1e-12


# -- extreme eigenvalues ----------------------------------------------------------


def test_lambda_extremes():
    assert abs(qg.lambda_max(np.eye(5)) - 1.0) < 1e-12
    assert abs(qg.lambda_max(PAULI_X) - 1.0) < 1e-12
    # SWAP spectrum {+1 (symmetric), -1 (antisymmetric)}
    assert abs(qg.lambda_min(SWAP) + 1.0) < 1e-12


def test_lambda_max_is_variational_max():
    h = rand_herm(4, 61)
    rng = np.random.default_rng(62)
    psi = qg.random_pure_states(4, 2000, rng)
    sampled = np.einsum("ni,ij,nj->n", psi.conj(), h, psi).real.max()
    assert sampled <= qg.lambda_max(h) + 1e-9


# -- inner product ------------------------------------------------------------------


def test_hs_inner_examples():
    rho = qg.random_density(3, np.random.default_rng(70))
    assert abs(qg.hs_inner(np.eye(3), rho) - 1.0) < 1e-12
    assert abs(qg.hs_inner(PAULI_X, PAULI_X) - 2.0) < 1e-15
    a, b = rand_herm(4, 71), rand_herm(4, 72)
    assert abs(qg.hs_inner(a, b) - qg.hs_inner(b, a)) < 1e-12
    with pytest.raises(ValueError):
        qg.hs_inner(np.eye(2), np.eye(3))


# -- projection ----------------------------------------------------------------------


def test_simplex_projection_examples():
    assert maxabs(qg.simplex_projection([2.0, 0.0]) - np.array([1.0, 0.0])) < 1e-15
    assert maxabs(qg.simplex_projection([1.0, 1.0, -1.0]) - np.array([0.5, 0.5, 0.0])) < 1e-15
    assert maxabs(qg.simplex_projection([0.0, 0.0]) - np.array([0.5, 0.5])) < 1e-15


def test_project_to_density_examples():
    rho = qg.random_density(4, np.random.default_rng(80))
    assert maxabs(qg.project_to_density(rho) - rho) < 1e-10
    assert maxabs(qg.project_to_density(np.diag([2.0, 0.0])) - np.diag([1.0, 0.0])) < 1e-12
    got = qg.project_to_density(np.diag([1.0, 1.0, -1.0]))
    assert maxabs(got - np.diag([0.5, 0.5, 0.0])) < 1e-12


def test_project_to_density_invariants_and_idempotence():
    for seed in range(10):
        h = rand_herm(5, 90 + seed) * 3.0
        rho = qg.project_to_density(h)
        qg.check_density(rho)
        assert maxabs(qg.project_to_density(rho) - rho) < 1e-10


# one bad matrix, by itself and as the middle of a stack of densities: each is refused with its own message
BAD_DENSITIES = {
    "trace": (np.eye(2) * 0.6, r"density matrix trace 1\.2 is not 1 within 1e-09"),
    "eigenvalue": (np.diag([1.5, -0.5]), r"density matrix has eigenvalue -0\.5 below -1e-09"),
    "non-Hermitian": (np.triu(np.ones((2, 2))) / 2, "density matrix must be Hermitian"),
    "NaN": (np.diag([np.nan, 0.5]), "density matrix must be Hermitian"),
    "inf": (np.array([[0.5, np.inf], [np.inf, 0.5]]), "density matrix must be Hermitian"),
}


def test_density_check_and_hermitian_test_take_a_stack():
    stack = np.stack([PAULI_Z * 0.25 + np.eye(2) / 2, np.eye(2) / 2, qg.random_density(2, np.random.default_rng(1))])
    assert is_hermitian(stack) and is_hermitian(stack[None])
    assert np.array_equal(qg.check_density(stack), stack) and qg.check_density(stack[None]).shape == (1, 3, 2, 2)
    assert qg.check_density(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    assert not is_hermitian(np.ones(2)) and not is_hermitian(np.ones((2, 3))) and not is_hermitian(np.ones((3, 2, 3)))


@pytest.mark.parametrize("fault", sorted(BAD_DENSITIES))
def test_a_stack_with_one_bad_matrix_is_refused_with_its_message(fault):
    bad, message = BAD_DENSITIES[fault]
    good = np.eye(2) / 2
    # a non-finite entry fails the Hermitian test with no floating-point error, as under run_game
    with np.errstate(all="raise"):
        for m in (bad, np.stack([good, bad, good]), np.stack([[good, good], [good, bad]])):
            with pytest.raises(ValueError, match=f"^{message}$"):
                qg.check_density(m)


def test_bloch_coords_unit_ball():
    for seed in range(10):
        x, y, z = qg.bloch_coords(qg.random_density(2, np.random.default_rng(seed)))
        assert x * x + y * y + z * z <= 1 + 1e-9
    x, y, z = qg.bloch_coords(np.array([[1, 0], [0, 0]], dtype=complex))
    assert abs(z - 1.0) < 1e-12 and abs(x) < 1e-12 and abs(y) < 1e-12


def test_bloch_vectors_match_pauli_dot_products_bit_for_bit():
    rng = np.random.default_rng(64)
    rhos = [qg.random_density(2, rng) for _ in range(201)]
    rhos += [np.eye(2) / 2, np.diag([1.0, 0.0]), np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, 0.5]])]
    # every pattern of signed zeros: the sum of two zeros must read +0.0, as a dot product's does
    for bits in range(256):
        z = [-0.0 if bits >> j & 1 else 0.0 for j in range(8)]
        rhos.append(np.array([[complex(z[0], z[1]), complex(z[2], z[3])], [complex(z[4], z[5]), complex(z[6], z[7])]]))
    stack = np.array(rhos, dtype=complex)
    want = np.array([[np.vdot(p, rho).real for p in (PAULI_X, PAULI_Y, PAULI_Z)] for rho in rhos])
    assert bloch_vectors(stack).tobytes() == want.tobytes()
    assert bloch_vectors(stack.reshape(2, -1, 2, 2)).tobytes() == want.tobytes()
    assert np.array([qg.bloch_coords(rho) for rho in rhos]).tobytes() == want.tobytes()


# -- stacked density kernels ---------------------------------------------------------


def _gauge_fixed_route(h, weights):
    """The reference route: herm_eig's sorted, phase-fixed eigenbasis."""
    vals, vecs = qg.herm_eig(h)
    return qg.herm((vecs * weights(vals)) @ dagger(vecs))


def _gibbs_weights(vals):
    w = np.exp(vals - vals.max())
    return w / w.sum()


def _simplex_weights(vals):
    return qg.simplex_projection(vals - vals.max())


# entry scales from 1e-9 up to 1e6, where late-run eta * (sum of gains) lies
MAGNITUDES = st.floats(-9, 6).map(lambda e: 10.0**e)


@st.composite
def hermitian_stacks(draw, magnitudes=MAGNITUDES):
    b, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    parts = draw(hnp.arrays(np.float64, (2, b, d, d), elements=st.floats(-10, 10)))
    return qg.herm(draw(magnitudes) * (parts[0] + 1j * parts[1]))


@settings(deadline=None)
@given(hermitian_stacks())
def test_stacked_density_kernels_match_per_matrix_calls(h):
    d = h.shape[-1]
    for stacked, single, weights in (
        (exp_density_stack, qg.exp_density, _gibbs_weights),
        (project_to_density_stack, qg.project_to_density, _simplex_weights),
    ):
        out = stacked(h)
        assert out.shape == h.shape
        assert np.array_equal(single(h), out)   # the checked map takes the stack too
        for b in range(h.shape[0]):
            assert np.array_equal(out[b], single(h[b]))
            # Both maps ignore a shift by c*I.  An eigh kernel diagonalizes h minus its mean diagonal,
            # and the reference shares that eigh, whose error grows with the eigenvalue spread; the
            # qubit closed form never reads Tr(h), so its reference runs on h - h_11 I, where the eigh
            # error stays at the scale of the eigenvalue gap.
            ref = h[b] - h[b, 1, 1] * np.eye(2) if d == 2 and stacked is exp_density_stack else _traceless(h[b])
            assert maxabs(out[b] - _gauge_fixed_route(ref, weights)) <= 1e-12


@pytest.mark.parametrize("d", [3, 4, 5])
def test_eigh_kernels_keep_their_accuracy_at_a_large_trace(d):
    # dyadic diagonals and c = 2**23 make h + c*I exact, so any move is the kernel's own error;
    # an eigh of h + c*I itself is ~1e-9 off here
    rng = np.random.default_rng(70 + d)
    h = qg.herm(rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d)))
    i = np.arange(d)
    h[..., i, i] = np.round(64 * h[..., i, i].real) / 64
    shifted = h.copy()
    shifted[..., i, i] += 2.0**23
    assert np.array_equal(shifted[..., i, i] - 2.0**23, h[..., i, i])
    for kernel in (exp_density_stack, project_to_density_stack):
        assert maxabs(kernel(shifted) - kernel(h)) <= 1e-13


@settings(deadline=None)
@given(hermitian_stacks())
def test_projection_clamp_and_prescale_change_no_bit(h):
    # below 2**1000 the projection equals the plain route: simplex weights of the unclamped shifted spectrum
    vals, vecs = np.linalg.eigh(_traceless(h))
    assert np.array_equal(project_to_density_stack(h), _reassemble(vecs, qg.simplex_projection(vals - vals[..., -1:])))


@pytest.mark.parametrize("scale", [1e308, 1.5e308])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_projection_stays_finite_near_the_float_maximum(d, scale):
    h = scale * qg.random_hermitian(d, np.random.default_rng(d), norm=1)
    rho = project_to_density_stack(h)   # an overflow warning fails the test
    assert np.isfinite(rho).all()
    assert abs(np.trace(rho).real - 1) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    # the eigenvalue gaps dwarf 1 either way, so both projections are the top eigenprojector
    assert maxabs(rho - project_to_density_stack(h * 2.0**-30)) <= 1e-12


@settings(deadline=None)
@given(hermitian_stacks())
def test_exp_clamp_and_prescale_change_no_bit(h):
    # below 2**1000 the eigh kernel equals the plain route: normalized exp of the unclamped shifted spectrum
    if h.shape[-1] == 2:
        return    # qubits take the closed form
    vals, vecs = np.linalg.eigh(_traceless(h))
    w = np.exp(vals - vals[..., -1:])
    w /= w.sum(axis=-1, keepdims=True)
    assert np.array_equal(exp_density_stack(h), _reassemble(vecs, w))


@pytest.mark.parametrize("scale", [1e308, 1.5e308])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_exp_density_stays_finite_near_the_float_maximum(d, scale):
    h = scale * qg.random_hermitian(d, np.random.default_rng(d), norm=1)
    rho = exp_density_stack(h)   # an overflow warning fails the test
    assert np.isfinite(rho).all()
    assert abs(np.trace(rho).real - 1) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    # the eigenvalue gaps dwarf 746 either way, so both states are the top eigenprojector
    assert maxabs(rho - exp_density_stack(h * 2.0**-30)) <= 1e-12


@st.composite
def learner_stacks(draw):
    """An (m, B, d, d) stack: m learners' (B, d, d) states, the shape run_game hands the kernels."""
    m, b, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    parts = draw(hnp.arrays(np.float64, (2, m, b, d, d), elements=st.floats(-10, 10)))
    return qg.herm(draw(MAGNITUDES) * (parts[0] + 1j * parts[1]))


@settings(deadline=None)
@given(learner_stacks())
def test_stacked_density_kernels_match_per_matrix_calls_on_4d_stacks(h):
    for stacked, single in ((exp_density_stack, qg.exp_density), (project_to_density_stack, qg.project_to_density)):
        out = stacked(h)
        assert out.shape == h.shape
        assert np.array_equal(single(h), out)
        for j in range(h.shape[0]):
            assert np.array_equal(out[j], stacked(h[j]))
            for b in range(h.shape[1]):
                assert np.array_equal(out[j, b], single(h[j, b]))


@settings(deadline=None)
@given(hermitian_stacks(magnitudes=st.just(1.0)), st.floats(-10, 10))
def test_exp_density_is_shift_invariant(h, c):
    # m + c*I rounds each diagonal entry to the scale of |m| + |c|, which moves the state by as
    # much; at unit magnitude that stays below 1e-12
    for m in h:
        assert maxabs(qg.exp_density(m + c * np.eye(len(m))) - qg.exp_density(m)) <= 1e-12


def test_qubit_exp_density_closed_form_cases():
    half = np.eye(2, dtype=complex) / 2
    for c in (0.0, 1.0, -3.5, 1e6, -1e300):  # h = c*I, c = 0 included: the first round's play
        assert exp_density_stack(np.diag([c, c]).astype(complex)).tobytes() == half.tobytes()
    # off-diagonal only: h = a X + b Y has eigenvalues +-r and state (I + tanh(r) (a X + b Y) / r) / 2
    a, b = 0.3, -0.4
    h = a * PAULI_X + b * PAULI_Y
    want = (np.eye(2) + np.tanh(0.5) * h / 0.5) / 2
    for got in (qg.exp_density(h), exp_density_stack(np.stack([h, 2 * h, h]))[2]):
        assert maxabs(got - want) <= 1e-15 and maxabs(got - dagger(got)) == 0
    # a large trace costs no accuracy; the eigh route on h itself is ~1e-10 off here
    h = (1e6 + 0.1) * np.eye(2) + 0.3 * PAULI_X - 0.4 * PAULI_Y + 0.2 * PAULI_Z
    assert maxabs(qg.exp_density(h) - _gauge_fixed_route(h - h[1, 1] * np.eye(2), _gibbs_weights)) <= 1e-15
    # a huge norm saturates to the top eigenprojector, a valid density with no overflow
    h = 1e300 * rand_herm(2, 63)
    rho = qg.check_density(qg.exp_density(h))
    assert maxabs(rho @ rho - rho) <= 1e-15
    assert maxabs(rho - _gauge_fixed_route(h, _gibbs_weights)) <= 1e-12


@settings(deadline=None)
@given(hermitian_stacks())
def test_project_to_density_is_idempotent_and_fixes_densities(h):
    for m in h:
        rho = qg.check_density(qg.project_to_density(m))
        assert maxabs(qg.project_to_density(rho) - rho) <= 1e-12
        sigma = m @ dagger(m) + 1e-3 * np.eye(len(m))
        sigma = qg.herm(sigma / np.trace(sigma).real)
        assert maxabs(qg.project_to_density(sigma) - sigma) <= 1e-12


@settings(deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=st.floats(-10, 10)))
def test_simplex_projection_row_by_row(v):
    out = qg.simplex_projection(v)
    for row, got in zip(v, out):
        assert np.array_equal(got, qg.simplex_projection(row))


@st.composite
def density_factor_stacks(draw):
    """One to four density factors, each a (b, d, d) stack or a single (d, d) matrix, with one b."""
    b = draw(st.integers(1, 3))
    factors = []
    for d in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        parts = draw(hnp.arrays(np.float64, (2, b, d, d), elements=st.floats(-1, 1)))
        g = parts[0] + 1j * parts[1]
        rho = g @ dagger(g) + 0.1 * np.eye(d)
        rho = qg.herm(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])
        factors.append(rho if draw(st.booleans()) else rho[0])
    return factors


@settings(deadline=None)
@given(density_factor_stacks())
def test_kron_eigvalsh_matches_joint_eigvalsh(factors):
    got = kron_spectrum([np.linalg.eigvalsh(f) for f in factors])
    assert maxabs(got - np.linalg.eigvalsh(qg.kron(*factors))) <= 1e-12
    for b in range(got.shape[0] if got.ndim == 2 else 0):
        alone = [np.linalg.eigvalsh(f[b] if f.ndim == 3 else f) for f in factors]
        assert np.array_equal(got[b], kron_spectrum(alone))


# -- register identities on random layouts ---------------------------------------------


@st.composite
def layouts(draw):
    """1-3 registers of dimension 1-3, one complex matrix per register, and their kron."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    factors = []
    for d in dims:
        parts = draw(hnp.arrays(np.float64, (2, d, d), elements=st.floats(-1, 1)))
        factors.append(parts[0] + 1j * parts[1])
    return dims, factors, qg.kron(*factors)


@settings(deadline=None)
@given(layouts(), st.data())
def test_partial_trace_of_kron_keeps_factors_and_traces_the_rest(layout, data):
    dims, factors, m = layout
    keep = sorted(data.draw(st.sets(st.integers(0, len(dims) - 1))))
    scale = np.prod([np.trace(f) for i, f in enumerate(factors) if i not in keep])
    want = qg.kron(*(factors[i] for i in keep)) if keep else np.ones((1, 1))
    assert maxabs(qg.partial_trace(m, dims, keep) - scale * want) <= 1e-12


@settings(deadline=None)
@given(layouts(), st.data())
def test_permute_registers_composes_and_inverts(layout, data):
    dims, factors, m = layout
    k = len(dims)
    p = data.draw(st.permutations(range(k)))
    q = data.draw(st.permutations(range(k)))
    once = qg.permute_registers(m, dims, p)
    assert maxabs(once - qg.kron(*(factors[i] for i in p))) <= 1e-15  # products in another order
    twice = qg.permute_registers(once, [dims[i] for i in p], q)
    assert np.array_equal(twice, qg.permute_registers(m, dims, [p[s] for s in q]))
    assert np.array_equal(qg.permute_registers(once, [dims[i] for i in p], np.argsort(p)), m)


@settings(deadline=None)
@given(layouts(), st.data())
def test_partial_transpose_matches_index_oracle(layout, data):
    dims, _, m = layout
    factor = data.draw(st.integers(0, len(dims) - 1))
    want = np.empty_like(m)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            # swap the factor's row and column digits
            r, c = list(row), list(col)
            r[factor], c[factor] = col[factor], row[factor]
            want[np.ravel_multi_index(r, dims), np.ravel_multi_index(c, dims)] = (
                m[np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims)]
            )
    assert np.array_equal(qg.partial_transpose(m, dims, factor), want)


def _reduced_oracle(m, dims, regs):
    """Index map: every entry whose left-out digits agree on its row and column adds at its kept digits, in order."""
    n = m.shape[0]
    rows, cols = (np.unravel_index(idx.ravel(), dims) for idx in np.indices((n, n)))
    agree = np.ones(n * n, dtype=bool)
    for x in set(range(len(dims))) - set(regs):
        agree &= rows[x] == cols[x]
    at_row = at_col = np.zeros(n * n, dtype=int)
    for x in regs:   # the kept digits, most significant first
        at_row, at_col = at_row * dims[x] + rows[x], at_col * dims[x] + cols[x]
    d = int(np.prod([dims[x] for x in regs]))
    out = np.zeros((d, d), dtype=complex)
    np.add.at(out, (at_row[agree], at_col[agree]), m.ravel()[agree])
    return out


@settings(deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4), st.data())
def test_reduced_is_the_ordered_marginal(dims, data):
    # one einsum reduces to any ordered subset of registers: an index map, the two-step path and a stack agree
    k = len(dims)
    regs = data.draw(st.permutations(range(k)))[: data.draw(st.integers(0, k))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(dims))
    stack = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    got = _reduced(stack, dims, regs)
    kept = sorted(regs)
    for m, one in zip(stack, got):
        assert np.array_equal(one, _reduced(m, dims, regs))
        assert maxabs(one - _reduced_oracle(m, dims, regs)) <= 1e-12
        two_step = qg.permute_registers(qg.partial_trace(m, dims, kept), [dims[x] for x in kept],
                                        [kept.index(x) for x in regs])
        assert np.array_equal(one, two_step)
