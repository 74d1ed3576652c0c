import numpy as np
import pytest

import qgames as qg
from qgames.tensor import dagger, maxabs


def rand_herm(d, seed):
    return qg.random_hermitian(d, np.random.default_rng(seed))


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


TRANSPOSE_CHOI = qg.ChoiMatrix(qg.choi_of_map(lambda x: x.T, 2), 2, 2)


def test_identity_choi_structure():
    for d in range(1, 5):
        c = qg.choi_of_identity(d)
        vec_i = np.eye(d).reshape(-1)
        assert maxabs(c.matrix - np.outer(vec_i, vec_i)) == 0
        assert abs(np.trace(c.matrix) - d) < 1e-12
        assert np.linalg.matrix_rank(c.matrix) == 1
        assert qg.lambda_min(c.matrix) >= -1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_choi_of_map_calls_its_map_once_per_matrix_unit(d):
    seen = []

    def record(x):
        seen.append(x.copy())
        return 2 * x

    c = qg.choi_of_map(record, d)
    units = [np.outer(np.eye(d)[i], np.eye(d)[j]) for i in range(d) for j in range(d)]   # E_ij, (i, j) row-major
    assert len(seen) == d * d
    assert all(np.array_equal(x, e) for x, e in zip(seen, units))
    assert np.array_equal(c, 2 * sum(np.kron(e, e) for e in units))


def test_identity_choi_acts_as_identity():
    c = qg.choi_of_identity(3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert maxabs(qg.apply_superop(c, x) - x) < 1e-14


def test_apply_superop_is_linear():
    c = qg.ChoiMatrix(rand_herm(6, 1), 2, 3)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = qg.apply_superop(c, 2 * x - y)
    rhs = 2 * qg.apply_superop(c, x) - qg.apply_superop(c, y)
    assert maxabs(lhs - rhs) < 1e-12


def test_apply_superop_dimension_mismatch():
    c = qg.choi_of_identity(2)
    with pytest.raises(ValueError):
        qg.apply_superop(c, np.eye(3))


def test_replacement_channel_behaviour():
    rho = qg.random_density(3, np.random.default_rng(3))
    c = qg.replacement_channel(rho)
    x = np.random.default_rng(4).standard_normal((3, 3)) + 0j
    assert maxabs(qg.apply_superop(c, x) - np.trace(x) * rho) < 1e-12
    # adjoint maps A to <rho', A> I
    a = rand_herm(3, 5)
    assert maxabs(qg.apply_adjoint(c, a) - qg.hs_inner(rho, a) * np.eye(3)) < 1e-10
    assert qg.is_completely_positive(c)
    assert qg.is_trace_preserving(c)


def test_choi_roundtrip_is_exact():
    for seed, (da, db) in enumerate([(2, 2), (2, 3), (3, 2), (4, 2)]):
        r = rand_herm(da * db, 10 + seed)
        c = qg.ChoiMatrix(r, da, db)
        rebuilt = qg.choi_of_map(lambda x: qg.apply_superop(c, x), db)
        assert maxabs(rebuilt - r) < 1e-10


def test_adjoint_defining_equation():
    for seed in range(50):
        r = rand_herm(6, 100 + seed)
        c = qg.ChoiMatrix(r, 2, 3)
        a = rand_herm(2, 200 + seed)
        b = rand_herm(3, 300 + seed)
        lhs = qg.hs_inner(a, qg.apply_superop(c, b))
        rhs = qg.hs_inner(qg.apply_adjoint(c, a), b)
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_of_identity_channel():
    c = qg.choi_of_identity(3)
    a = rand_herm(3, 6)
    assert maxabs(qg.apply_adjoint(c, a) - a) < 1e-12


def test_transpose_map_is_not_completely_positive():
    # Choi of the transpose map is SWAP, spectrum +/-1
    assert abs(qg.lambda_min(TRANSPOSE_CHOI.matrix) + 1.0) < 1e-9
    assert not qg.is_completely_positive(TRANSPOSE_CHOI, tol=1e-9)
    assert qg.is_trace_preserving(TRANSPOSE_CHOI)


def test_trace_preserving_and_unital_checks():
    c = qg.choi_of_identity(2)
    assert qg.is_trace_preserving(c) and qg.is_unital(c)
    # a random game tensor is almost surely neither
    r = qg.ChoiMatrix(rand_herm(4, 7), 2, 2)
    assert not qg.is_trace_preserving(r)
    # TP implies adjoint maps identity to identity
    rc = qg.replacement_channel(qg.random_density(2, np.random.default_rng(8)))
    assert maxabs(qg.apply_adjoint(rc, np.eye(2)) - np.eye(2)) < 1e-10


def test_unitary_channel_matches_conjugation():
    u = haar_unitary(3, 9)
    c = qg.unitary_channel(u)
    rng = np.random.default_rng(10)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert maxabs(qg.apply_superop(c, x) - u @ x @ dagger(u)) < 1e-10
    assert qg.is_cptp(c) and qg.is_unital(c)


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(ValueError):
        qg.unitary_channel(np.array([[1, 1], [0, 1]], dtype=complex))


def test_lift_identity_channel_is_identity():
    dims = (2, 3, 2)
    lifted = qg.lift_channel(qg.choi_of_identity(3), dims, 1)
    rho = qg.random_density(12, np.random.default_rng(11))
    assert maxabs(lifted(rho) - rho) < 1e-12


def test_lift_replacement_on_product_state():
    dims = (2, 2)
    rng = np.random.default_rng(12)
    rho_a, rho_b = qg.random_density(2, rng), qg.random_density(2, rng)
    target = qg.random_density(2, rng)
    lifted = qg.lift_channel(qg.replacement_channel(target), dims, 0)
    out = lifted(qg.kron(rho_a, rho_b))
    assert maxabs(out - qg.kron(target, rho_b)) < 1e-12


def test_lift_replacement_on_entangled_state():
    # replacement on register i sends any joint rho to target (x) Tr_i(rho)
    dims = (2, 2, 2)
    rng = np.random.default_rng(13)
    rho = qg.random_density(8, rng)
    target = qg.random_density(2, rng)
    lifted = qg.lift_channel(qg.replacement_channel(target), dims, 0)
    expected = qg.kron(target, qg.partial_trace(rho, dims, keep=(1, 2)))
    assert maxabs(lifted(rho) - expected) < 1e-12


def test_lift_rejects_non_cptp():
    with pytest.raises(ValueError):
        qg.lift_channel(TRANSPOSE_CHOI, (2, 2), 0)
    with pytest.raises(ValueError):
        qg.lift_channel(qg.choi_of_identity(3), (2, 2), 0)


def test_lifted_cptp_channels_preserve_densities():
    dims = (2, 2)
    rng = np.random.default_rng(14)
    channels = [
        qg.choi_of_identity(2),
        qg.replacement_channel(qg.random_density(2, rng)),
        qg.unitary_channel(haar_unitary(2, 15)),
    ]
    for c in channels:
        assert qg.is_cptp(c)
        for i in range(2):
            lifted = qg.lift_channel(c, dims, i)
            for _ in range(5):
                out = lifted(qg.random_density(4, rng))
                assert abs(np.trace(out).real - 1.0) < 1e-9
                assert qg.lambda_min(out) >= -1e-8


def _lift_by_permuting(c, dims, i, rho):
    """Reference lift: move register i to the front, apply the channel blockwise, move it back."""
    k, d = len(dims), dims[i]
    rest = int(np.prod(dims)) // d
    front = (i,) + tuple(j for j in range(k) if j != i)
    rho_f = qg.permute_registers(rho, dims, front).reshape(d, rest, d, rest)
    out = np.einsum("cadb,arbs->crds", c.matrix.reshape(d, d, d, d), rho_f).reshape(d * rest, d * rest)
    return qg.permute_registers(out, [dims[p] for p in front], [front.index(r) for r in range(k)])


def _random_cptp(d, seed):
    """A random CPTP map on C^d: d Kraus operators, the blocks of a Haar isometry."""
    kraus = haar_unitary(d * d, seed)[:, :d].reshape(d, d, d)
    return qg.ChoiMatrix(qg.choi_of_map(lambda x: sum(k @ x @ dagger(k) for k in kraus), d), d, d)


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 2, 3), (3, 2, 3), (3, 3, 3)])
def test_lift_in_place_equals_the_permuted_lift(dims):
    rng = np.random.default_rng(sum(dims) * len(dims))
    n = int(np.prod(dims))
    for i, d in enumerate(dims):
        c = _random_cptp(d, 100 * i + n)
        assert qg.is_cptp(c)
        lifted = qg.lift_channel(c, dims, i)
        rho = qg.random_density(n, rng)
        assert maxabs(lifted(rho) - _lift_by_permuting(c, dims, i, rho)) <= 1e-15
        with pytest.raises(ValueError):
            lifted(np.eye(n + 1) / (n + 1))
