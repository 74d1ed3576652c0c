import numpy as np
import pytest

import qgames as qg
from qgames.games import front_tensor
from qgames.tensor import maxabs

MP_A = np.array([[1.0, -1.0], [-1.0, 1.0]])


def matching_pennies():
    return qg.classical_embed([MP_A, -MP_A])


def basis_state(idx, n):
    v = np.zeros(n, dtype=complex)
    v[idx] = 1.0
    return np.outer(v, v.conj())


def test_game_constructor_validation():
    with pytest.raises(ValueError):
        qg.QuantumGame((2, 2), (np.eye(3),))
    with pytest.raises(ValueError):
        qg.QuantumGame((2, 2), (np.triu(np.ones((4, 4))) * 1j,))


@pytest.mark.parametrize("dims", [(), (2.5, 2), (-2, -2), (0, 2), (2, None), "22", 4])
def test_constructors_check_dims(dims):
    for build in (qg.Game, qg.QuantumGame, qg.PolymatrixGame, qg.random_game):
        with pytest.raises(ValueError, match="^dims must be"):
            build(dims, ())
    with pytest.raises(ValueError, match="^dims must be"):
        qg.QuantumGame((-2, -2), (np.eye(4), np.eye(4)))
    # a register of dimension 1 stays legal in the library
    assert qg.QuantumGame((1, 1), (np.eye(1), -np.eye(1))).dims == (1, 1)


@pytest.mark.parametrize("terms, message", [
    ([[((1,), np.eye(2))], []], "term reads"),              # not its own register
    ([[((0, 0), np.eye(4))], []], "term reads"),            # a register twice
    ([[((0, 2), np.eye(4))], []], "term reads"),            # no register 2
    ([[((0, 1), np.eye(2))], []], "tensor shape"),
    ([[((0, 1), np.triu(np.ones((4, 4))))], []], "Hermitian"),
    ([[]], "1 payoffs for 2 players"),
])
def test_game_checks_its_terms(terms, message):
    with pytest.raises(ValueError, match=message):
        qg.Game((2, 2), terms)


@pytest.mark.parametrize("edges, message", [
    ([((0, 2), (np.eye(4), np.eye(4)))], r"^invalid edge \(0, 2\)$"),
    ([((1, 1), (np.eye(4), np.eye(4)))], r"^invalid edge \(1, 1\)$"),
    # Game checks the shapes: player 0's end (0, 1) first, then player 1's end (1, 0)
    ([((0, 1), (np.eye(6), np.eye(6)))], r"^term tensor shape \(6, 6\) does not match the dims of registers \(0, 1\)$"),
    ([((0, 1), (np.eye(4), np.eye(2)))], r"^term tensor shape \(2, 2\) does not match the dims of registers \(1, 0\)$"),
])
def test_polymatrix_game_checks_its_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        qg.PolymatrixGame((2, 2), edges)


def test_games_compare_and_hash_by_identity():
    # a game holds numpy arrays, so it is equal only to itself and hashes by identity
    g, twin = qg.random_game((2, 2), 1), qg.random_game((2, 2), 1)
    assert g == g and g != twin and not (g == twin)
    assert hash(g) == hash(g) and len({g, twin, g}) == 2
    assert {g: "g", twin: "twin"}[g] == "g"


def test_zero_sum_is_read_off_the_tensors():
    assert qg.QuantumGame((2, 2), (np.eye(4), -np.eye(4))).zero_sum
    assert qg.QuantumGame((2, 2), (np.eye(4), -np.eye(4) + 1e-10 * np.eye(4))).zero_sum
    assert not qg.QuantumGame((2, 2), (np.eye(4), -np.eye(4) + 1e-8 * np.eye(4))).zero_sum
    assert not qg.QuantumGame((2, 2), (np.eye(4), np.eye(4))).zero_sum



def test_polymatrix_rejects_an_edge_given_twice():
    a, b = np.eye(4), 2 * np.eye(4)
    for edges in ({(0, 1): (a, a), (1, 0): (b, b)}, [((0, 1), (a, a)), ((0, 1), (b, b))]):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            qg.PolymatrixGame((2, 2), edges)
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        qg.random_polymatrix((2, 2, 2), [(0, 1), (1, 2), (1, 0)], seed=1)


@pytest.mark.parametrize("edges, message", [
    ([], "needs at least one edge"),
    ([(0, 5)], r"invalid edge \(0, 5\)"),
    ([(0, 1), (-1, 2)], r"invalid edge \(-1, 2\)"),
    ([(1, 1)], r"invalid edge \(1, 1\)"),
])
def test_random_polymatrix_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        qg.random_polymatrix((2, 2, 2), edges, seed=1)


def test_game_needs_one_tensor_per_player():
    # Game counts the payoffs, one per tensor here
    with pytest.raises(ValueError, match=r"^1 payoffs for 2 players$"):
        qg.QuantumGame((2, 2), (np.eye(4),))
    with pytest.raises(ValueError, match=r"^3 payoffs for 2 players$"):
        qg.QuantumGame((2, 2), (np.eye(4),) * 3)


def test_utility_classical_lookup():
    g = matching_pennies()
    assert abs(qg.utility(g, basis_state(0, 4), 0) - 1.0) < 1e-12  # profile (0,0)
    assert abs(qg.utility(g, basis_state(1, 4), 0) + 1.0) < 1e-12  # profile (0,1)


def test_zero_sum_utilities_cancel():
    g = qg.random_game((2, 2), 1, kind="zero_sum")
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = qg.random_density(4, rng)
        assert abs(qg.utility(g, rho, 0) + qg.utility(g, rho, 1)) < 1e-10
    assert maxabs(g.tensors[0] + g.tensors[1]) == 0


def test_matching_pennies_is_zero_sum():
    assert matching_pennies().zero_sum


def test_gain_matrix_product_observable():
    # R_1 = A (x) M gives gain A * Tr(M sigma)
    rng = np.random.default_rng(3)
    a = qg.random_hermitian(2, rng)
    m = qg.random_hermitian(3, rng)
    g = qg.QuantumGame((2, 3), (qg.kron(a, m), qg.kron(a, m)))
    sigma = qg.random_density(3, rng)
    gain = qg.gain_matrix(g, 0, sigma)
    assert maxabs(gain - a * qg.hs_inner(m, sigma)) < 1e-10


def test_gain_matrix_reproduces_utility():
    rng = np.random.default_rng(4)
    g = qg.random_game((2, 2), 5)
    for _ in range(50):
        rho_1, rho_2 = qg.random_density(2, rng), qg.random_density(2, rng)
        lhs = qg.hs_inner(rho_1, qg.gain_matrix(g, 0, rho_2))
        rhs = qg.utility(g, qg.kron(rho_1, rho_2), 0)
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
def test_gain_identity_across_shapes(dims):
    rng = np.random.default_rng(sum(dims))
    g = qg.random_game(dims, 11)
    for _ in range(10):
        parts = [qg.random_density(d, rng) for d in dims]
        joint = qg.kron(*parts)
        for i in range(len(dims)):
            opp = qg.kron(*(parts[j] for j in range(len(dims)) if j != i))
            lhs = qg.hs_inner(parts[i], qg.gain_matrix(g, i, opp))
            assert abs(lhs - qg.utility(g, joint, i)) < 1e-10


def test_gain_matrix_vs_maximally_mixed_in_maxent_common_payoff():
    a = np.array([[0.9, -0.3], [0.4, 0.1]])
    g = qg.maxent_game(a, a)
    gain = qg.gain_matrix(g, 0, np.eye(2) / 2)
    assert maxabs(gain - 0.25 * a.sum() * np.eye(2)) < 1e-10


def test_classical_embed_expected_payoffs():
    g = matching_pennies()
    # uniform joint distribution: expected payoff 0
    assert abs(qg.utility(g, np.eye(4) / 4, 0)) < 1e-12
    # off-diagonal coherences do not matter against diagonal tensors
    rng = np.random.default_rng(6)
    rho = qg.random_density(4, rng)
    diag = np.diag(np.diag(rho))
    assert abs(qg.utility(g, rho, 0) - qg.utility(g, diag, 0)) < 1e-12


def test_classical_embed_matches_direct_expectation_oracle():
    rng = np.random.default_rng(7)
    pay = [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))]
    g = qg.classical_embed(pay)
    probs = rng.random((2, 3))
    probs /= probs.sum()
    rho = np.diag(probs.reshape(-1)).astype(complex)
    for i in range(2):
        oracle = float((probs * pay[i]).sum())
        assert abs(qg.utility(g, rho, i) - oracle) < 1e-12


def test_maxent_game_structure():
    ones = np.ones((2, 2))
    g = qg.maxent_game(ones, ones)
    assert maxabs(g.tensors[0] - np.eye(4)) < 1e-12  # Bell-basis completeness

    a = np.array([[0.3, -0.7], [1.2, 0.5]])
    g = qg.maxent_game(a, a)
    eigs = np.sort(np.linalg.eigvalsh(g.tensors[0]))
    assert maxabs(eigs - np.sort(a.reshape(-1))) < 1e-10
    for p in range(2):
        for q in range(2):
            assert abs(qg.utility(g, qg.bell_projector(p, q), 0) - a[p, q]) < 1e-12
    with pytest.raises(ValueError):
        qg.maxent_game(np.ones((3, 3)), np.ones((3, 3)))


def test_maxent_differs_from_classical_embedding():
    g_me = qg.maxent_game(MP_A, -MP_A)
    g_cl = matching_pennies()
    assert maxabs(g_me.tensors[0] - g_cl.tensors[0]) > 0.1


def test_polymatrix_two_node_matches_direct_game():
    rng = np.random.default_rng(8)
    r01 = qg.random_hermitian(4, rng)
    r10 = qg.random_hermitian(4, rng)
    pg = qg.PolymatrixGame((2, 2), {(0, 1): (r01, r10)})
    lifted = qg.polymatrix_to_qg(pg)
    rho = qg.random_density(4, rng)
    assert abs(qg.utility(lifted, rho, 0) - qg.hs_inner(r01, rho)) < 1e-10
    swapped = qg.permute_registers(rho, (2, 2), (1, 0))
    assert abs(qg.utility(lifted, rho, 1) - qg.hs_inner(r10, swapped)) < 1e-10


def test_polymatrix_path_graph_edgewise_oracle():
    pg = qg.random_polymatrix((2, 2, 2), qg.graph_edges("path", 3), seed=9, pairwise_zero_sum=False)
    lifted = qg.polymatrix_to_qg(pg)
    rng = np.random.default_rng(10)
    parts = [qg.random_density(2, rng) for _ in range(3)]
    rho = qg.kron(*parts)
    for i in range(3):
        assert abs(qg.utility(lifted, rho, i) - qg.utility(pg, rho, i)) < 1e-9


def test_polymatrix_lift_commutes_with_marginalization():
    # holds for entangled joint states too
    pg = qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), seed=11)
    lifted = qg.polymatrix_to_qg(pg)
    rho = qg.random_density(8, np.random.default_rng(12))
    for i in range(3):
        assert abs(qg.utility(lifted, rho, i) - qg.utility(pg, rho, i)) < 1e-9


def test_pairwise_zero_sum_edges_cancel_globally():
    pg = qg.random_polymatrix((2, 3, 2), qg.graph_edges("cycle", 3), seed=13)
    lifted = qg.polymatrix_to_qg(pg)
    assert maxabs(sum(lifted.tensors)) <= 1e-9
    assert lifted.zero_sum


def test_polymatrix_zero_sum_is_pairwise():
    edges = qg.graph_edges("cycle", 3)
    assert qg.random_polymatrix((2, 3, 2), edges, seed=13).zero_sum
    assert not qg.random_polymatrix((2, 3, 2), edges, seed=13, pairwise_zero_sum=False).zero_sum
    r = qg.random_hermitian(6, np.random.default_rng(3))
    swapped = qg.permute_registers(r, (2, 3), (1, 0))
    assert qg.PolymatrixGame((2, 3), {(0, 1): (r, -swapped + 1e-10 * np.eye(6))}).zero_sum
    assert not qg.PolymatrixGame((2, 3), {(0, 1): (r, -swapped + 1e-8 * np.eye(6))}).zero_sum


def test_random_game_normalization_and_determinism():
    g = qg.random_game((2, 2), 42)
    rng = np.random.default_rng(14)
    for _ in range(100):
        rho = qg.random_density(4, rng)
        for i in range(2):
            assert abs(qg.utility(g, rho, i)) <= 1.0 + 1e-9
    g2 = qg.random_game((2, 2), 42)
    for r1, r2 in zip(g.tensors, g2.tensors):
        assert np.array_equal(r1, r2)
    gz = qg.random_game((2, 2), 42, kind="zero_sum")
    assert maxabs(gz.tensors[1] + gz.tensors[0]) == 0


def test_random_polymatrix_utility_bound():
    pg = qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), seed=15)
    lifted = qg.polymatrix_to_qg(pg)
    rng = np.random.default_rng(16)
    for _ in range(50):
        rho = qg.random_density(8, rng)
        for i in range(3):
            assert abs(qg.utility(lifted, rho, i)) <= 1.0 + 1e-9


def test_zs_certificate_value_is_the_plain_game_utility():
    g = qg.random_game((2, 3), 17, kind="zero_sum")
    # u_A via the certificate's bilinear convention equals the plain game utility
    rng = np.random.default_rng(18)
    rho, sigma = qg.random_density(2, rng), qg.random_density(3, rng)
    cert = qg.zs_certificate(g, rho, sigma)
    assert abs(cert.value_at - qg.utility(g, qg.kron(rho, sigma), 0)) < 1e-10


def test_front_tensor_moves_register_first():
    g = qg.random_game((2, 3), 19)
    f = front_tensor(g, 1)
    assert maxabs(qg.permute_registers(f, (3, 2), (1, 0)) - g.tensors[1]) < 1e-12


def test_graph_edges():
    assert qg.graph_edges("cycle", 3) == [(0, 1), (1, 2), (2, 0)]
    assert qg.graph_edges("path", 4) == [(0, 1), (1, 2), (2, 3)]
    assert qg.graph_edges("complete", 3) == [(0, 1), (0, 2), (1, 2)]
    assert qg.graph_edges("cycle", 2) == [(0, 1)]
    with pytest.raises(ValueError):
        qg.graph_edges("star", 3)
