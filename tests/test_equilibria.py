import numpy as np
import pytest

import qgames as qg
from qgames.channels import ChoiMatrix
from qgames.games import front_tensor
from qgames.tensor import maxabs

MP_A = np.array([[1.0, -1.0], [-1.0, 1.0]])


def matching_pennies():
    return qg.classical_embed([MP_A, -MP_A])


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def separable_game():
    """u_1 = Tr(A rho) + const, u_2 = Tr(B sigma) + const: QNE in closed form."""
    a = np.diag([0.6, -0.2]).astype(complex)
    b = np.diag([-0.1, 0.5]).astype(complex)
    r1 = qg.kron(a, np.eye(2, dtype=complex))
    r2 = qg.kron(np.eye(2, dtype=complex), b)
    g = qg.QuantumGame((2, 2), (r1, r2))
    qne = qg.kron(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    return g, qne


def test_exploitability_zero_at_closed_form_qne():
    g, qne = separable_game()
    for i in range(2):
        assert qg.exploitability(g, i, qne) <= 1e-8


def test_matching_pennies_uniform_is_qne():
    g = matching_pennies()
    uniform = np.eye(4) / 4
    for i in range(2):
        assert qg.exploitability(g, i, uniform) <= 1e-12
    rep = qg.is_qne(g, uniform, tol=1e-9)
    assert rep.verdict and rep.product_defect <= 1e-12


def test_exploitability_clamps_at_zero():
    # Bell state at the maximum entry of a common-payoff Bell-basis game:
    # deviations strictly lose, so the raw gap is negative and the clamp bites
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    g = qg.maxent_game(a, a)
    bell = qg.bell_projector(0, 0)
    assert qg.exploitability(g, 0, bell) == 0.0
    assert qg.is_qcce(g, bell, tol=1e-8).gaps[0] < -0.5  # signed diagnostic survives


def test_best_response_examples():
    rng = np.random.default_rng(0)
    g = qg.QuantumGame((2, 2), (qg.kron(np.diag([0.2, 0.8]).astype(complex), np.eye(2)),) * 2)
    br = qg.best_response(g, 0, np.eye(2, dtype=complex) / 2)
    assert maxabs(br - np.diag([0.0, 1.0])) < 1e-12
    assert abs(qg.hs_inner(br, qg.gain_matrix(g, 0, np.eye(2) / 2)) - 0.8) < 1e-12

    # sampling can only lower-bound the best-response value
    g = qg.random_game((2, 2), 1)
    sigma = qg.random_density(2, rng)
    gain = qg.gain_matrix(g, 0, sigma)
    br_val = qg.hs_inner(qg.best_response(g, 0, sigma), gain)
    psi = qg.random_pure_states(2, 10_000, rng)
    sampled = np.einsum("ni,ij,nj->n", psi.conj(), gain, psi).real.max()
    assert sampled <= br_val + 1e-9
    assert abs(br_val - qg.lambda_max(gain)) < 1e-9

    # tie convention: identity gain picks the lowest-index eigenvector
    g_flat = qg.QuantumGame((2, 2), (qg.kron(np.eye(2), np.eye(2)) / 2,) * 2)
    br = qg.best_response(g_flat, 0, np.eye(2, dtype=complex) / 2)
    assert maxabs(br - np.diag([1.0, 0.0])) < 1e-12


def test_is_qcce_boundary_case_maxent_uniform_mixture():
    a = np.array([[0.7, -0.2], [0.3, 0.4]])
    b = np.array([[-0.5, 0.1], [0.2, 0.6]])
    g = qg.maxent_game(a, b)
    mixed = np.eye(4) / 4  # uniform Bell mixture == maximally mixed joint
    rep = qg.is_qcce(g, mixed, tol=1e-9)
    assert rep.verdict
    assert max(abs(x) for x in rep.gaps) <= 1e-9


def test_qne_implies_qcce():
    g, qne = separable_game()
    assert qg.is_qne(g, qne, tol=1e-8).verdict
    assert qg.is_qcce(g, qne, tol=1e-8).verdict
    g2 = matching_pennies()
    assert qg.is_qcce(g2, np.eye(4) / 4, tol=1e-9).verdict


def test_spectrahedral_gap_matches_choi_route():
    # same certificate computed through the Choi superoperator plumbing
    rng = np.random.default_rng(2)
    for seed in range(200):
        dims = (2, 2) if seed % 2 == 0 else (2, 3)
        g = qg.random_game(dims, 1000 + seed)
        rho = qg.random_density(g.joint_dim, rng)
        rep = qg.is_qcce(g, rho, tol=1e-6)
        for i in range(2):
            rest = g.joint_dim // g.dims[i]
            c = ChoiMatrix(front_tensor(g, i), g.dims[i], rest)
            others = tuple(j for j in range(2) if j != i)
            opp = qg.partial_trace(rho, g.dims, keep=others)
            gap = qg.lambda_max(qg.herm(qg.apply_superop(c, opp.T))) - qg.utility(g, rho, i)
            assert abs(gap - rep.gaps[i]) < 1e-10


def test_phi_gap_identity_and_replacement():
    g = qg.random_game((2, 2), 3)
    rho = qg.random_density(4, np.random.default_rng(4))
    ident = qg.choi_of_identity(2)
    rep = qg.phi_gap(g, rho, [[ident], [ident]])
    assert max(abs(x) for x in rep.gaps) < 1e-12

    # replacement at the best response reproduces the coarse-deviation gap
    devs = []
    for i in range(2):
        opp = qg.partial_trace(rho, (2, 2), keep=(1 - i,))
        devs.append([qg.replacement_channel(qg.best_response(g, i, opp))])
    rep = qg.phi_gap(g, rho, devs)
    qcce = qg.is_qcce(g, rho)
    for i in range(2):
        assert abs(rep.gaps[i] - qcce.gaps[i]) < 1e-9


def test_phi_gap_unitary_orbit_at_qne():
    g, qne = separable_game()
    devs = [[qg.unitary_channel(haar_unitary(2, 10 + j)) for j in range(5)] for _ in range(2)]
    rep = qg.phi_gap(g, qne, devs)
    assert rep.max_gap <= 1e-8


def test_phi_gap_rejects_non_cptp():
    g = qg.random_game((2, 2), 5)
    rho = qg.random_density(4, np.random.default_rng(6))
    bad = ChoiMatrix(qg.choi_of_map(lambda x: x.T, 2), 2, 2)
    with pytest.raises(ValueError):
        qg.phi_gap(g, rho, [[bad], []])


def not_a_density(name, d):
    """A d x d Hermitian matrix that is no density: zero, of trace 2, or with a negative eigenvalue."""
    return {"zero": np.zeros((d, d)), "trace-2": 2 * np.eye(d) / d,
            "negative": np.diag([1.5, -0.5] + [0.0] * (d - 2))}[name]


@pytest.mark.parametrize("name", ["zero", "trace-2", "negative"])
@pytest.mark.parametrize("certificate", ["is_qcce", "is_qne", "phi_gap", "zs_certificate"])
def test_certificates_check_the_state_they_certify(certificate, name):
    # the zero matrix has no profitable deviation and is its own product of marginals, so an
    # unchecked certificate passes it; each rejects it, and every other non-density, instead
    g, zs, bad, uniform = qg.random_game((2, 2), 1), qg.random_game((2, 2), 1, "zero_sum"), not_a_density(name, 4), np.eye(2) / 2
    calls = {
        "is_qcce": [lambda: qg.is_qcce(g, bad)],
        "is_qne": [lambda: qg.is_qne(g, bad)],
        "phi_gap": [lambda: qg.phi_gap(g, bad, [[qg.unitary_channel(qg.PAULI_X)]] * 2)],
        "zs_certificate": [lambda: qg.zs_certificate(zs, not_a_density(name, 2), uniform),
                           lambda: qg.zs_certificate(zs, uniform, not_a_density(name, 2))],
    }[certificate]
    for call in calls:
        with pytest.raises(ValueError, match="^density matrix"):
            call()


def test_zs_certificate_matching_pennies_uniform():
    cert = qg.zs_certificate(matching_pennies(), np.eye(2) / 2, np.eye(2) / 2)
    assert abs(cert.lower) < 1e-12 and abs(cert.upper) < 1e-12
    assert cert.is_eps_qne(1e-9)


def test_zs_certificate_weak_duality():
    rng = np.random.default_rng(7)
    for seed in range(30):
        g = qg.random_game((2, 3), 2000 + seed, kind="zero_sum")
        rho, sigma = qg.random_density(2, rng), qg.random_density(3, rng)
        cert = qg.zs_certificate(g, rho, sigma)
        assert cert.lower <= cert.value_at + 1e-9
        assert cert.value_at <= cert.upper + 1e-9


def test_zs_certificate_bounds_product_exploitability():
    g = qg.random_game((2, 2), 8, kind="zero_sum")
    rng = np.random.default_rng(9)
    rho, sigma = qg.random_density(2, rng), qg.random_density(2, rng)
    cert = qg.zs_certificate(g, rho, sigma)
    prod = qg.kron(rho, sigma)
    e_a = qg.exploitability(g, 0, prod)
    e_b = qg.exploitability(g, 1, prod)
    assert abs(e_a - (cert.upper - cert.value_at)) < 1e-10
    assert abs(e_b - (cert.value_at - cert.lower)) < 1e-10


def test_marginalize():
    rng = np.random.default_rng(10)
    parts = [qg.random_density(2, rng), qg.random_density(3, rng)]
    prod = qg.kron(*parts)
    assert maxabs(qg.marginalize(prod, (2, 3)) - prod) < 1e-10
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell = np.outer(phi, phi.conj())
    assert maxabs(qg.marginalize(bell, (2, 2)) - np.eye(4) / 4) < 1e-12
    rho = qg.random_density(8, rng)
    assert abs(np.trace(qg.marginalize(rho, (2, 2, 2))).real - 1.0) < 1e-10


def test_polymatrix_marginalized_qcce_is_qne():
    # zero-sum polymatrix: coarse-correlated certificates transfer to the
    # marginalized product state, with gaps bounded by the summed gaps
    pg = qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), seed=11)
    eta, T = qg.horizon_for_epsilon(pg, 0.6)
    traj = qg.run_game(pg, [qg.MMWU(2, qg.fixed_schedule(eta)) for _ in range(3)], T, stride=T)
    rho_bar = traj.joint_average()
    qcce = qg.is_qcce(pg, rho_bar)
    qne = qg.is_qne(pg, qg.marginalize(rho_bar, pg.dims), tol=1.0)
    assert qne.max_gap <= sum(qcce.gaps) + 1e-8


def test_maxent_qcce_condition_examples():
    a = np.array([[0.9, 0.1], [0.4, 0.2]])
    uniform = np.full((2, 2), 0.25)
    assert qg.maxent_qcce_condition(a, a, uniform)  # equality case
    argmax = np.zeros((2, 2))
    argmax[np.unravel_index(np.argmax(a), (2, 2))] = 1.0
    assert qg.maxent_qcce_condition(a, a, argmax)
    argmin = np.zeros((2, 2))
    argmin[np.unravel_index(np.argmin(a), (2, 2))] = 1.0
    assert not qg.maxent_qcce_condition(a, a, argmin)
    with pytest.raises(ValueError):
        qg.maxent_qcce_condition(a, a, np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="probability distribution"):   # NaN passes no comparison
        qg.maxent_qcce_condition(a, a, [[np.nan, 1.0], [0.0, 0.0]])


def test_maxent_condition_agrees_with_spectrahedral_check():
    rng = np.random.default_rng(12)
    for _ in range(30):
        a = rng.uniform(-1, 1, (2, 2))
        b = rng.uniform(-1, 1, (2, 2))
        lam = rng.random((2, 2))
        lam /= lam.sum()
        rho = sum(lam[p, q] * qg.bell_projector(p, q) for p in range(2) for q in range(2))
        scalar = qg.maxent_qcce_condition(a, b, lam)
        spectra = qg.is_qcce(qg.maxent_game(a, b), rho, tol=1e-8).verdict
        assert scalar == spectra


def test_ppt_witness():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell = np.outer(phi, phi.conj())
    pt_eigs = np.sort(np.linalg.eigvalsh(qg.partial_transpose(bell, (2, 2), 1)))
    assert maxabs(pt_eigs - np.array([-0.5, 0.5, 0.5, 0.5])) < 1e-12
    assert qg.ppt_witness(bell, (2, 2)) == "entangled"
    rng = np.random.default_rng(13)
    prod = qg.kron(qg.random_density(2, rng), qg.random_density(2, rng))
    assert qg.ppt_witness(prod, (2, 2)) == "inconclusive"
    assert qg.ppt_witness(np.eye(4) / 4, (2, 2)) == "inconclusive"


def test_brute_force_gap_bounds_and_monotonicity():
    g = qg.random_game((2, 2), 14)
    rho = qg.random_density(4, np.random.default_rng(15))
    opp = qg.partial_trace(rho, (2, 2), keep=(1,))
    exact = qg.lambda_max(qg.gain_matrix(g, 0, opp)) - qg.utility(g, rho, 0)
    vals = [qg.brute_force_gap(g, 0, rho, n, seed=16) for n in (10, 100, 1000)]
    assert all(v <= exact + 1e-9 for v in vals)
    assert vals[0] <= vals[1] + 1e-15 and vals[1] <= vals[2] + 1e-15
    with pytest.raises(ValueError):
        qg.brute_force_gap(g, 0, rho, 0, seed=1)


def test_brute_force_gap_at_qne():
    g, qne = separable_game()
    for i in range(2):
        assert qg.brute_force_gap(g, i, qne, 2000, seed=17) <= 1e-8


def test_brute_force_gap_on_polymatrix_game_matches_lift():
    pg = qg.random_polymatrix((2, 3, 2), qg.graph_edges("cycle", 3), 20)
    lifted = qg.polymatrix_to_qg(pg)
    rho = qg.random_density(12, np.random.default_rng(21))
    for i in range(3):
        sampled = qg.brute_force_gap(pg, i, rho, 200, seed=22 + i)
        assert sampled == qg.brute_force_gap(lifted, i, rho, 200, seed=22 + i)
        assert sampled <= qg.exploitability(pg, i, rho) + 1e-12


def test_exploitability_invariant_under_relabeling():
    dims = (2, 3, 2)
    g = qg.random_game(dims, 18)
    rho = qg.random_density(12, np.random.default_rng(19))
    perm = (2, 0, 1)  # new slot s holds old register perm[s]
    new_dims = tuple(dims[p] for p in perm)
    new_tensors = tuple(qg.permute_registers(g.tensors[perm[s]], dims, perm) for s in range(3))
    g_new = qg.QuantumGame(new_dims, new_tensors)
    rho_new = qg.permute_registers(rho, dims, perm)
    for s in range(3):
        lhs = qg.exploitability(g_new, s, rho_new)
        rhs = qg.exploitability(g, perm[s], rho)
        assert abs(lhs - rhs) < 1e-10
