import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgames as qg
from qgames.tensor import dagger, maxabs


def rand_profiles(m, dims, seed):
    rng = np.random.default_rng(seed)
    return [[qg.random_density(d, rng) for d in dims] for _ in range(m)]


# -- MMWU ---------------------------------------------------------------------


def test_mmwu_initial_play_is_maximally_mixed():
    m = qg.MMWU(3, qg.fixed_schedule(0.5))
    assert maxabs(m.strategy - np.eye(3) / 3) < 1e-14


def test_mmwu_constant_gain_closed_form():
    m = qg.MMWU(2, qg.fixed_schedule(1.0))
    gain = np.diag([1.0, 0.0]).astype(complex)
    for t in range(1, 8):
        m.observe(gain)
        expected = np.diag([np.exp(t), 1.0])
        expected /= expected.trace()
        assert maxabs(m.strategy - expected) < 1e-12


def test_mmwu_shift_invariance():
    gains = [qg.random_hermitian(2, np.random.default_rng(s)) for s in range(6)]
    m1 = qg.MMWU(2, qg.fixed_schedule(0.3))
    m2 = qg.MMWU(2, qg.fixed_schedule(0.3))
    for g in gains:
        m1.observe(g)
        m2.observe(g + 1.7 * np.eye(2))
        assert maxabs(m1.strategy - m2.strategy) < 1e-10


def test_mmwu_rejects_non_hermitian_gain():
    m = qg.MMWU(2, qg.fixed_schedule(0.5))
    with pytest.raises(ValueError):
        m.observe(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("batch", [None, 3])
def test_a_non_finite_gain_is_refused_and_leaves_the_learner_alone(entry, batch):
    # nan - nan is NaN and NaN > tol is False, so the test must read a NaN as asymmetry, not its absence
    m = qg.MMWU(2, qg.fixed_schedule(0.5), batch)
    gain = np.zeros(m._sum.shape)
    gain[..., 0, 0] = entry
    with np.errstate(all="raise"), pytest.raises(ValueError, match="^gain matrix must be Hermitian$"):
        m.observe(gain)
    assert not m._sum.any()


# -- Frobenius FTRL --------------------------------------------------------------


def test_ftrl_initial_play_is_maximally_mixed():
    f = qg.FrobeniusFTRL(4, eta=0.5)
    assert maxabs(f.strategy - np.eye(4) / 4) < 1e-14


def test_ftrl_saturates_on_dominant_direction():
    f = qg.FrobeniusFTRL(2, eta=0.5)
    gain = np.diag([1.0, -1.0]).astype(complex)
    for _ in range(20):
        f.observe(gain)
    assert maxabs(f.strategy - np.diag([1.0, 0.0])) < 1e-12


def test_ftrl_average_regret_decreases():
    g = qg.random_game((2, 2), 0)
    horizons = [50, 400]
    avg = []
    for T in horizons:
        learners = [qg.FrobeniusFTRL(2, eta=1.0 / np.sqrt(T)) for _ in range(2)]
        traj = qg.run_game(g, learners, T, stride=T)
        avg.append(traj.avg_regret[-1].max())
    assert avg[1] < avg[0]


# -- regret accounting -------------------------------------------------------------


def test_external_regret_single_step():
    gain = np.diag([1.0, 0.0]).astype(complex)
    g = qg.QuantumGame((2, 2), (qg.kron(gain, np.eye(2)),) * 2)
    traj = qg.run_game(g, [qg.MMWU(2, qg.fixed_schedule(0.5)) for _ in range(2)], 1, stride=1)
    # played I/2 against gain diag(1, 0): regret = 1 - 1/2
    assert abs(traj.avg_regret[-1, 0] - 0.5) < 1e-12


def test_best_fixed_strategy_is_top_eigenprojector():
    rng = np.random.default_rng(1)
    gains = [qg.random_hermitian(2, rng) for _ in range(20)]
    total = sum(gains)
    psi = qg.random_pure_states(2, 10_000, rng)
    sampled = np.einsum("ni,ij,nj->n", psi.conj(), total, psi).real.max()
    assert sampled <= qg.lambda_max(total) + 1e-9


@st.composite
def bounded_runs(draw):
    """A random game kind, a batch, and an MMWU team."""
    setting = draw(st.sampled_from(["general", "zero-sum", "polymatrix", "polymatrix-general"]))
    if setting == "zero-sum":
        dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=2)))
    else:
        dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4)))
    B = draw(st.integers(1, 3))
    schedules = draw(st.lists(st.sampled_from([0.05, 0.3, 1.0, "doubling"]), min_size=len(dims), max_size=len(dims)))
    T = draw(st.integers(1, 80))
    return setting, dims, B, schedules, T, draw(st.sampled_from([1, 7, T])), draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=40)
@given(bounded_runs())
def test_gap_and_regret_stay_within_bound(run):
    # ROADMAP aim 3: gap <= bound and each learner's average regret <= its own bound, every checkpoint
    setting, dims, B, schedules, T, stride, seed = run
    if setting == "general":
        games = [qg.random_game(dims, seed + b) for b in range(B)]
    elif setting == "zero-sum":
        games = [qg.random_game(dims, seed + b, "zero_sum") for b in range(B)]
    else:
        graph = qg.graph_edges(["cycle", "path", "complete"][seed % 3], len(dims))
        games = [qg.random_polymatrix(dims, graph, seed + b, setting == "polymatrix") for b in range(B)]
    learners = [
        qg.MMWU(d, qg.doubling_schedule(4) if s == "doubling" else qg.fixed_schedule(s), batch=B)
        for d, s in zip(dims, schedules)
    ]
    for traj in qg.run_game(games, learners, T, stride=stride):
        assert np.max(traj.gaps - traj.bound[:, None]) <= 1e-9
        for row, t in enumerate(traj.checkpoints):
            for i, ln in enumerate(learners):
                assert traj.avg_regret[row, i] <= ln.average_regret_bound(int(t)) + 1e-9


@pytest.mark.slow
def test_long_horizon_drift_stays_in_the_1e6_tier():
    # 1e6 rounds of MMWU on a 2x2 zero-sum game: the running sums gather 1e6 roundings, and the
    # learners' eta * (sum of gains) reach eigenvalue gaps of hundreds, where tanh(r) saturates
    T = 10**6
    game = qg.random_game((2, 2), 9600, kind="zero_sum")
    learners = [qg.MMWU(2, qg.fixed_schedule(float(np.sqrt(np.log(2) / T)))) for _ in range(2)]
    traj = qg.run_game(game, learners, T, stride=T)
    avg = traj.joint_average()  # symmetrized, so the Hermiticity defect is read off the raw sum
    assert abs(np.trace(avg).real - 1.0) <= 1e-6
    assert maxabs(traj.joint_sum - dagger(traj.joint_sum)) / T <= 1e-6
    assert qg.lambda_min(avg) >= -1e-6
    assert np.all(traj.gaps[-1] <= traj.bound[-1] + 1e-9)
    # the qne gap column, read off the running sums, is the gap is_qne finds at the averaged marginals
    qne = qg.is_qne(game, traj.product_of_marginal_averages())
    assert np.abs(traj.gaps[-1] - np.maximum(qne.gaps, 0.0)).max() <= 1e-12
    for rho in traj.final_strategies:
        qg.check_density(rho)


# -- horizon calculator --------------------------------------------------------------


CYCLE3 = qg.graph_edges("cycle", 3)


def test_horizon_examples():
    assert qg.horizon_for_epsilon(qg.random_game((2, 2), 1), 0.2) == (0.1, 70)
    assert qg.horizon_for_epsilon(qg.random_game((2, 2), 1, "zero_sum"), 0.2) == (0.05, 278)
    eta, T = qg.horizon_for_epsilon(qg.random_polymatrix((2, 2, 2), CYCLE3, 1), 0.3)
    assert abs(eta - 0.05) < 1e-15 and T == 278


def test_horizon_range_validation():
    with pytest.raises(ValueError):
        qg.horizon_for_epsilon(qg.random_game((2, 2), 1), 2.5)
    with pytest.raises(ValueError):
        qg.horizon_for_epsilon(qg.random_game((2, 2), 1, "zero_sum"), 4.5)
    with pytest.raises(ValueError):
        qg.horizon_for_epsilon(qg.random_polymatrix((2, 2, 2), CYCLE3, 1), 6.5)
    with pytest.raises(ValueError):
        qg.horizon_for_epsilon(qg.random_game((2, 2), 1), 0.0)
    with pytest.raises(ValueError, match="register dimension must be >= 2"):
        qg.horizon_for_epsilon(qg.QuantumGame((1, 1), (np.eye(1), -np.eye(1))), 0.2)
    # epsilon**2 underflows to 0 (1e-200) or leaves a horizon beyond int64 (1e-150): no division, no endless run
    for eps in (1e-200, 1e-160, 1e-150):
        with pytest.raises(ValueError, match=r"needs a horizon over 2\*\*63 - 1 rounds"):
            qg.horizon_for_epsilon(qg.random_game((2, 2), 1), eps)


# (game, its zero_sum, its certificate, (eta, T) at eps 0.3 and at eps 0.7): the values the command
# line chose when it mapped each game class to a gap mode, a bound scale and a horizon setting by hand
CERTIFICATES = [
    (qg.random_game((2, 3), 1), False, ("qcce", 1.0), (0.15, 49), (0.35, 9)),
    (qg.random_game((2, 2, 2), 2), False, ("qcce", 1.0), (0.15, 31), (0.35, 6)),
    (qg.random_game((2, 3), 3, "zero_sum"), True, ("qne", 2.0), (0.075, 196), (0.175, 36)),
    # the dense lift of a zero-sum 3-cycle is zero-sum, but no QNE theorem covers a dense 3-player game
    (qg.polymatrix_to_qg(qg.random_polymatrix((2, 2, 2), CYCLE3, 4)), True, ("qcce", 1.0), (0.15, 31), (0.35, 6)),
    (qg.random_polymatrix((2, 3), [(0, 1)], 5), True, ("qne", 2.0), (0.075, 196), (0.175, 36)),
    (qg.random_polymatrix((2, 3, 2), CYCLE3, 6), True, ("qne", 3.0),
     (0.049999999999999996, 440), (0.11666666666666665, 81)),
    (qg.random_polymatrix((2, 3), [(0, 1)], 7, False), False, ("qcce", 1.0), (0.15, 49), (0.35, 9)),
    (qg.random_polymatrix((2, 3, 2), CYCLE3, 8, False), False, ("qcce", 1.0), (0.15, 49), (0.35, 9)),
]


@pytest.mark.parametrize("row", range(len(CERTIFICATES)))
def test_the_game_picks_its_certificate_and_horizon(row):
    game, zero_sum, certificate, at_03, at_07 = CERTIFICATES[row]
    assert game.zero_sum == zero_sum
    traj = qg.run_game(game, [qg.MMWU(d, qg.fixed_schedule(0.1)) for d in game.dims], 3)
    assert (traj.gap_mode, traj.bound_scale) == certificate and type(traj.bound_scale) is float
    assert qg.horizon_for_epsilon(game, 0.3) == at_03 and qg.horizon_for_epsilon(game, 0.7) == at_07


def test_a_batch_of_games_with_different_certificates_is_rejected():
    games = [qg.random_game((2, 2), 1, "zero_sum"), qg.random_game((2, 2), 1)]
    learners = [qg.MMWU(2, qg.fixed_schedule(0.1), batch=2) for _ in range(2)]
    with pytest.raises(ValueError, match="certificate"):
        qg.run_game(games, learners, 3)


# -- schedules ------------------------------------------------------------------------


def test_doubling_schedule_bound_walk():
    sched = qg.doubling_schedule(base_epoch=8)
    d = 2
    # one full epoch: eta_0 * 8 + ln(2) / eta_0 with eta_0 = sqrt(ln 2 / 8)
    eta0 = np.sqrt(np.log(2) / 8)
    assert abs(sched.cumulative_bound(8, d) - (eta0 * 8 + np.log(2) / eta0)) < 1e-12
    # partial second epoch adds eta_1 * 4 + ln(2) / eta_1
    eta1 = np.sqrt(np.log(2) / 16)
    expected = eta0 * 8 + np.log(2) / eta0 + eta1 * 4 + np.log(2) / eta1
    assert abs(sched.cumulative_bound(12, d) - expected) < 1e-12


def test_no_rounds_carry_no_regret_bound():
    for sched in (qg.fixed_schedule(0.1), qg.doubling_schedule()):
        assert sched.cumulative_bound(0, 2) == 0.0
        assert sched.average_bound(0, 2) == float("inf")


def test_doubling_bound_on_a_dim_one_register():
    # ln 1 = 0, so the ln d / eta term is 0 where eta_e = sqrt(ln 1 / T_e) is 0 too; a run with such a register plays
    assert qg.doubling_schedule().cumulative_bound(100, 1) == 0.0
    g = qg.QuantumGame((1, 2), (np.eye(2), qg.kron(np.eye(1), qg.PAULI_Z)))
    learners = [qg.MMWU(1, qg.doubling_schedule()), qg.MMWU(2, qg.doubling_schedule())]
    traj = qg.run_game(g, learners, 5)
    assert [float(b) for b in traj.bound] == [learners[1].average_regret_bound(t) for t in range(1, 6)]


@pytest.mark.parametrize("d", [2, 3, 7])
def test_doubling_bound_keeps_its_bits_for_d_at_least_2(d):
    sched, ln_d = qg.doubling_schedule(3), np.log(d)
    for t in (1, 3, 4, 100, 12345):
        total, remaining, epoch = 0.0, t, 0
        while remaining > 0:
            t_e = 3 * 2**epoch
            eta_e = float(np.sqrt(ln_d / t_e))
            used = min(remaining, t_e)
            total += eta_e * used + float(ln_d) / eta_e
            remaining, epoch = remaining - used, epoch + 1
        assert sched.cumulative_bound(t, d) == total


@pytest.mark.parametrize("d", [1, 2, 3, 64])
@pytest.mark.parametrize("eta", [1e-3, 0.05, 1.0, 1e200, 1e308])
def test_fixed_bound_is_one_endless_epoch(d, eta):
    # one epoch of length inf at stepsize eta: eta * t + ln(d) / eta, bit for bit, and nothing for t <= 0
    sched = qg.fixed_schedule(eta)
    for t in (-3, -1, 0):
        assert sched.cumulative_bound(t, d) == 0.0
    for t in (1, 2, 7, 555, 10**9, 2**53 + 1, 2**63 - 1):
        assert sched.cumulative_bound(t, d) == eta * t + math.log(d) / eta
    if eta == 1e308:
        assert sched.cumulative_bound(2, d) == math.inf


def test_doubling_mmwu_meets_anytime_bound():
    g = qg.random_game((2, 2), 3)
    sched = qg.doubling_schedule()
    learners = [qg.MMWU(2, sched) for _ in range(2)]
    traj = qg.run_game(g, learners, 2000, stride=50)
    for row, t in enumerate(traj.checkpoints):
        assert traj.avg_regret[row].max() <= sched.average_bound(int(t), 2) + 1e-9


def test_schedule_validation():
    with pytest.raises(ValueError):
        qg.Schedule("warmup")
    with pytest.raises(ValueError):
        qg.fixed_schedule(-0.1)


@pytest.mark.parametrize("eta", [True, np.True_])
def test_a_bool_stepsize_is_rejected(eta):
    # True once made a fixed schedule at eta = 1
    with pytest.raises(ValueError, match=r"^stepsize must be positive and finite, got True$"):
        qg.fixed_schedule(eta)
    with pytest.raises(ValueError, match=r"^stepsize must be positive and finite, got True$"):
        qg.FrobeniusFTRL(2, eta)


@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
def test_non_finite_stepsizes_rejected(eta):
    with pytest.raises(ValueError, match="stepsize"):
        qg.fixed_schedule(eta)
    with pytest.raises(ValueError, match="stepsize"):
        qg.FrobeniusFTRL(2, eta)


# -- runner ----------------------------------------------------------------------------


def test_run_game_with_fixed_strategies():
    rng = np.random.default_rng(4)
    parts = [qg.random_density(2, rng) for _ in range(2)]
    g = qg.random_game((2, 2), 5)
    learners = [qg.Constant(p) for p in parts]
    traj = qg.run_game(g, learners, 50, stride=10)
    assert maxabs(traj.joint_average() - qg.kron(*parts)) < 1e-12


def test_a_constant_stack_plays_one_density_per_game_of_a_batch():
    rng = np.random.default_rng(8)
    parts = [qg.random_density(2, rng) for _ in range(3)]
    games = [qg.random_game((2, 2), 20 + b) for b in range(3)]
    mmwu = [qg.MMWU(2, qg.fixed_schedule(0.2), batch=3)]
    trajs = qg.run_game(games, [qg.Constant(np.stack(parts))] + mmwu, 30, stride=7)
    for b, (game, traj) in enumerate(zip(games, trajs)):
        alone = qg.run_game(game, [qg.Constant(parts[b]), qg.MMWU(2, qg.fixed_schedule(0.2))], 30, stride=7)
        assert np.array_equal(traj.joint_sum, alone.joint_sum) and np.array_equal(traj.gaps, alone.gaps)
        assert np.array_equal(traj.final_strategies[1], alone.final_strategies[1])


def test_trajectory_running_average_invariants():
    g = qg.random_game((2, 2, 2), 6)
    learners = [qg.MMWU(2, qg.fixed_schedule(0.3)) for _ in range(3)]
    traj = qg.run_game(g, learners, 400, stride=40)
    # the averaged joint spectrum stays a density spectrum at every checkpoint
    assert traj.avg_joint_eigs.min() >= -1e-6
    assert np.abs(traj.avg_joint_eigs.sum(axis=1) - 1.0).max() < 1e-6
    # marginal of the average equals the average of the marginals
    rho_bar = traj.joint_average()
    for i in range(3):
        lhs = qg.partial_trace(rho_bar, g.dims, keep=(i,))
        assert maxabs(lhs - traj.marginal_average(i)) < 1e-10


def test_run_game_validation():
    g = qg.random_game((2, 2), 7)
    learners = [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)]
    with pytest.raises(ValueError):
        qg.run_game(g, learners[:1], 10)
    with pytest.raises(ValueError):
        qg.run_game(g, learners, 0)
    for T in (2**63, 10**20):   # past the int64 checkpoint rounds
        with pytest.raises(ValueError, match=r"^horizon must be <= 2\*\*63 - 1"):
            qg.run_game(g, learners, T)
    with pytest.raises(ValueError):
        qg.run_game(g, [qg.MMWU(3, qg.fixed_schedule(0.1)) for _ in range(2)], 10)
    # a bound that overflows is refused before the first round (FTRL's NaN states none); a too-long horizon comes first
    huge = [qg.MMWU(2, qg.fixed_schedule(1e308)), qg.FrobeniusFTRL(2, 1e308)]
    with pytest.raises(ValueError, match=r"^learner 0's regret bound over 5 rounds is not finite$"):
        qg.run_game(g, huge, 5)
    with pytest.raises(ValueError, match=r"^horizon must be <= 2\*\*63 - 1"):
        qg.run_game(g, huge, 10**400)
    # one learner object for two players would feed both players' gains into one sum
    shared = qg.MMWU(2, qg.fixed_schedule(0.2))
    with pytest.raises(ValueError, match="learner object of its own"):
        qg.run_game(g, [shared, shared], 20, stride=20)


def test_a_library_run_whose_numbers_overflow_raises_floating_point_error():
    # FTRL states no bound, so eta = 1e308 passes the bound check and overflows the learners' states;
    # the run raises numpy's error itself, before any warning, as the CLI reports it
    learners = [qg.FrobeniusFTRL(2, 1e308), qg.FrobeniusFTRL(2, 1e308)]
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow encountered"):
            qg.run_game(qg.random_game((2, 2), 1), learners, 5)
    assert np.geterr() == before


def test_run_batch_equals_single_runs_row_for_row():
    dims = (2, 3)
    games = [qg.random_game(dims, 30 + b) for b in range(20)]
    learners = [qg.MMWU(d, qg.doubling_schedule(), batch=20) for d in dims]
    batch = qg.run_game(games, learners, 80, stride=9)
    for g, traj in zip(games, batch):
        single = qg.run_game(g, [qg.MMWU(d, qg.doubling_schedule()) for d in dims], 80, stride=9)
        for field in ("checkpoints", "utils", "avg_regret", "gaps", "bound", "joint_eigs",
                      "avg_joint_eigs", "joint_sum", "realized"):
            assert np.array_equal(getattr(traj, field), getattr(single, field)), field
        assert np.array_equal(traj.bloch[0], single.bloch[0])
        for a, b in zip(traj.final_strategies, single.final_strategies):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("kind", [qg.MMWU, qg.FrobeniusFTRL])
def test_learners_end_a_run_holding_the_next_play(kind, batch):
    # after round T a learner has observed round T's gain, so its strategy is the play of round T + 1:
    # its kernel at eta times the whole cumulative gain, not the trajectory's final strategy
    dims, eta = (2, 3), 0.2
    games = [qg.random_game(dims, 5 + b) for b in range(batch or 1)]
    learners = [kind(d, eta if kind is qg.FrobeniusFTRL else qg.fixed_schedule(eta), batch=batch) for d in dims]
    trajs = qg.run_game(games if batch else games[0], learners, 30, stride=7)
    trajs = trajs if batch else [trajs]
    for i, ln in enumerate(learners):
        cum_gain = np.stack([traj.cum_gain[i] for traj in trajs]) if batch else trajs[0].cum_gain[i]
        assert np.array_equal(ln.strategy, kind.kernel(eta * cum_gain))


def test_batched_learner_observes_stacks():
    m = qg.MMWU(2, qg.fixed_schedule(1.0), batch=3)
    assert m.strategy.shape == (3, 2, 2)
    gains = np.stack([np.diag([float(b), 0.0]) for b in range(3)]).astype(complex)
    m.observe(gains)
    for b in range(3):
        expected = np.diag([np.exp(b), 1.0]) / (np.exp(b) + 1.0)
        assert maxabs(m.strategy[b] - expected) < 1e-12
    with pytest.raises(ValueError):
        m.observe(gains[0])
    with pytest.raises(ValueError):
        m.observe(gains + np.triu(np.ones((2, 2)), 1))


def test_run_batch_validation():
    games = [qg.random_game((2, 2), s) for s in range(3)]
    batched = [qg.MMWU(2, qg.fixed_schedule(0.1), batch=3) for _ in range(2)]
    with pytest.raises(ValueError):
        qg.run_game([], batched, 10)
    with pytest.raises(ValueError):
        qg.run_game(games[:2] + [qg.random_game((2, 3), 4)], batched, 10)
    with pytest.raises(ValueError):
        qg.run_game(games, [qg.MMWU(2, qg.fixed_schedule(0.1), batch=2) for _ in range(2)], 10)
    with pytest.raises(ValueError):
        qg.run_game(games, [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)], 10)
    with pytest.raises(ValueError):
        qg.MMWU(2, qg.fixed_schedule(0.1), batch=0)


def test_zero_sum_sandwich_around_game_value():
    g = qg.random_game((2, 2), 20, kind="zero_sum")

    def cert_at(T, eta):
        learners = [qg.MMWU(2, qg.fixed_schedule(eta)) for _ in range(2)]
        traj = qg.run_game(g, learners, T, stride=T)
        c = qg.zs_certificate(g, traj.marginal_average(0), traj.marginal_average(1))
        eps = traj.avg_regret[-1].max()
        return c, eps

    # independent tight bracket for the value from a long run
    ref, _ = cert_at(6000, float(np.sqrt(np.log(2) / 6000)))
    cert, eps = cert_at(300, 0.1)
    assert cert.width <= 2 * eps + 1e-9
    assert cert.lower >= ref.lower - 2 * eps - 1e-9
    assert cert.upper <= ref.upper + 2 * eps + 1e-9


QCCE_TEAMS = {
    "mmwu": lambda d, B: qg.MMWU(d, qg.fixed_schedule(0.2), batch=B),
    "mmwu-doubling": lambda d, B: qg.MMWU(d, qg.doubling_schedule(2), batch=B),
    "ftrl": lambda d, B: qg.FrobeniusFTRL(d, 0.2, batch=B),
}


@st.composite
def qcce_runs(draw):
    game_kind = draw(st.sampled_from(["general", "zero-sum", "polymatrix", "polymatrix-general"]))
    dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)] if game_kind == "zero-sum" else [(2, 3, 2), (4, 4), (3, 2, 3, 2)]))
    graph = draw(st.sampled_from(["cycle", "path"]))
    B = draw(st.sampled_from([1, 3]))
    odd = draw(st.sampled_from(["none", "scripted", "constant"])) if B == 1 else "none"   # these play a single game
    kinds = draw(st.lists(st.sampled_from(sorted(QCCE_TEAMS)), min_size=len(dims), max_size=len(dims)))
    T = draw(st.integers(1, 40))
    return dims, game_kind, graph, B, odd, kinds, T, draw(st.sampled_from([1, 7, T, None])), draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=40)
@given(qcce_runs())
# long horizons at the default stride, where the gap column gathers a thousand rounds of running sums
@example(((2, 2), "zero-sum", "cycle", 3, "none", ["mmwu", "mmwu-doubling"], 1000, None, 1))
@example(((2, 3), "zero-sum", "cycle", 3, "none", ["mmwu-doubling", "mmwu"], 1000, None, 2))
@example(((3, 3), "zero-sum", "cycle", 3, "none", ["mmwu", "mmwu"], 1000, None, 3))
@example(((3, 2, 3, 2), "polymatrix", "path", 1, "none", ["mmwu", "mmwu-doubling", "mmwu", "mmwu"], 1000, None, 4))
@example(((2, 3, 2), "polymatrix", "cycle", 3, "none", ["mmwu-doubling"] * 3, 1000, None, 5))
@example(((2, 3, 2), "polymatrix", "cycle", 1, "constant", ["mmwu"] * 3, 1000, None, 6))
@example(((2, 3, 2), "general", "cycle", 1, "constant", ["mmwu-doubling"] * 3, 1000, None, 7))
def test_qcce_gap_of_average_equals_average_regret(run):
    # the runner's gap column is read off its running sums.  In qcce mode it is the clamped average
    # regret, which by linearity is the coarse-deviation gap of the joint average that is_qcce
    # computes in joint space.  In qne mode (a zero-sum game whose terms each read two registers)
    # its last row is the clamped gap that is_qne computes at the product of averaged marginals,
    # and the clamped regret is checked against is_qcce on its own
    dims, game_kind, graph, B, odd, kinds, T, stride, seed = run
    if game_kind in ("general", "zero-sum"):
        games = [qg.random_game(dims, seed + b, game_kind.replace("-", "_")) for b in range(B)]
    else:
        edges = qg.graph_edges(graph, len(dims))
        games = [qg.random_polymatrix(dims, edges, seed + b, game_kind == "polymatrix") for b in range(B)]
    if odd == "scripted":
        learners = qg.scripted_team([0.3, 0.7], rand_profiles(2, dims, seed))
    else:
        learners = [QCCE_TEAMS[kind](d, B) for kind, d in zip(kinds, dims)]
        if odd == "constant":
            learners[-1] = qg.Constant(qg.random_density(dims[-1], np.random.default_rng(seed)))
    trajs = qg.run_game(games, learners, T, stride=stride)
    for g, traj in zip(games, trajs):
        qcce_gaps = np.maximum(traj.avg_regret, 0.0)
        assert traj.gap_mode == ("qne" if game_kind in ("zero-sum", "polymatrix") else "qcce")
        if traj.gap_mode == "qcce":
            assert np.array_equal(traj.gaps, qcce_gaps)
        else:
            qne = qg.is_qne(g, traj.product_of_marginal_averages())
            assert np.abs(traj.gaps[-1] - np.maximum(qne.gaps, 0.0)).max() <= 1e-12
        rep = qg.is_qcce(g, traj.joint_average())
        for i in range(len(dims)):
            assert abs(rep.gaps[i] - traj.avg_regret[-1, i]) <= 1e-12
            assert abs(qcce_gaps[-1, i] - qg.exploitability(g, i, traj.joint_average())) <= 1e-12


# -- scripted learners --------------------------------------------------------------------


def scripted_choices(weights, T):
    """The components a one-player scripted learner plays in T rounds: component j plays |j><j|."""
    d = len(weights)
    profiles = [[np.diag(np.eye(d)[j]).astype(complex)] for j in range(d)]
    learner = qg.ScriptedNoRegret(0, weights, profiles)
    out = []
    for _ in range(T):
        out.append(int(np.argmax(np.diag(learner.strategy).real)))
        learner.observe(np.zeros((d, d)))
    return out


def test_script_indices_greedy_rounding():
    assert scripted_choices([1.0], 5) == [0, 0, 0, 0, 0]
    alt = scripted_choices([0.5, 0.5], 10)
    assert alt == [0, 1] * 5
    for T in (10, 100, 1000):
        idx = scripted_choices([0.4, 0.3, 0.2, 0.1], T)
        counts = np.bincount(idx, minlength=4)
        assert np.abs(counts / T - np.array([0.4, 0.3, 0.2, 0.1])).max() <= 4 / T


def test_scripted_team_replays_target_mixture():
    profiles = rand_profiles(2, (2, 2), 9)
    team = qg.scripted_team([0.5, 0.5], profiles)
    g = qg.random_game((2, 2), 10)
    traj = qg.run_game(g, team, 100, stride=100)
    target = 0.5 * qg.kron(*profiles[0]) + 0.5 * qg.kron(*profiles[1])
    assert maxabs(traj.joint_average() - target) < 1e-12
    assert all(member._fallback is None for member in team)


def test_scripted_single_component_constant_play():
    profiles = rand_profiles(1, (2, 2), 11)
    team = qg.scripted_team([1.0], profiles)
    g = qg.random_game((2, 2), 12)
    traj = qg.run_game(g, team, 30, stride=30)
    assert maxabs(traj.joint_average() - qg.kron(*profiles[0])) < 1e-13


def test_scripted_learner_falls_back_on_deviation():
    profiles = rand_profiles(3, (2, 2), 13)
    team = qg.scripted_team([0.5, 0.3, 0.2], profiles)
    deviator = qg.Constant(np.diag([1.0, 0.0]).astype(complex))
    g = qg.random_game((2, 2), 14)
    T = 2000
    traj = qg.run_game(g, [team[0], deviator], T, stride=T)
    assert team[0]._fallback is not None
    # prefix slack (one scripted round, per-round regret <= 2) plus the
    # doubling-trick bound over the remaining rounds
    bound = (2.0 + qg.doubling_schedule().cumulative_bound(T, 2)) / T
    assert traj.avg_regret[-1, 0] <= bound


def test_scripted_validation():
    profiles = rand_profiles(2, (2, 2), 15)
    with pytest.raises(ValueError):
        qg.scripted_team([0.7, 0.7], profiles)
    with pytest.raises(ValueError):
        qg.scripted_team([1.0], profiles)
    with pytest.raises(ValueError, match="probability distribution"):   # NaN passes no comparison
        qg.ScriptedNoRegret(0, [np.nan, 1.0], profiles)
    with pytest.raises(ValueError, match="probability distribution"):
        qg.ScriptedNoRegret(0, [], profiles)
    for player in (-1, 2, True, 1.0):   # an index of one of the profile's two players
        with pytest.raises(ValueError, match=r"^player must be an integer in \[0, 2\), got "):
            qg.ScriptedNoRegret(player, [0.5, 0.5], profiles)


def test_run_game_is_deterministic():
    g = qg.random_game((2, 2), 16)
    t1 = qg.run_game(g, [qg.MMWU(2, qg.fixed_schedule(0.2)) for _ in range(2)], 100, stride=10)
    t2 = qg.run_game(g, [qg.MMWU(2, qg.fixed_schedule(0.2)) for _ in range(2)], 100, stride=10)
    assert np.array_equal(t1.gaps, t2.gaps)
    assert np.array_equal(t1.avg_regret, t2.avg_regret)
    assert np.array_equal(t1.joint_sum, t2.joint_sum)
