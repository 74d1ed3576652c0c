"""The runner's windowed joint fold and stacked learner play against round-by-round references.

``OneAtATime`` wraps a learner so that ``run_game`` plays it as a team of
itself (it is neither an MMWU nor an FTRL learner, so no other learner joins
it) and records the strategy it plays each round.  The joint running sum must
equal the sum of the recorded product states, and stacked play must give the
same bits as the wrapped play.
"""

import dataclasses
from copy import copy
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgames as qg
from qgames.learning import FOLD_FLOOR, _fold_plan
from qgames.tensor import exp_density_stack


class OneAtATime:
    """Delegates to a learner, recording each round's strategy; played alone by the runner."""

    def __init__(self, inner):
        self.inner, self.dim, self.played = inner, inner.dim, []

    @property
    def strategy(self):
        return self.inner.strategy

    def observe(self, gain, profile=None):
        self.played.append(np.array(self.inner.strategy))
        self.inner.observe(gain, profile)

    def average_regret_bound(self, t):
        return self.inner.average_regret_bound(t)


def round_by_round_joint_sum(recorders):
    return sum(qg.kron(*profile) for profile in zip(*(r.played for r in recorders)))


def bits(value):
    arrays = [value[key] for key in sorted(value)] if isinstance(value, dict) else value
    arrays = arrays if isinstance(arrays, list) else [arrays]
    return [(np.shape(x), np.asarray(x).dtype, np.asarray(x).tobytes()) for x in arrays]


def assert_same_bits(a, b):
    for f in dataclasses.fields(a):
        assert bits(getattr(a, f.name)) == bits(getattr(b, f.name)), f.name


@st.composite
def fold_runs(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)))
    T = draw(st.integers(1, 12))
    return dims, draw(st.integers(1, 3)), T, draw(st.sampled_from([1, 3, T])), draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=40)
@given(fold_runs())
def test_joint_sum_equals_round_by_round_kron_sum(run):
    dims, B, T, stride, seed = run
    games = [qg.random_game(dims, seed + b) for b in range(B)]
    recorders = [OneAtATime(qg.MMWU(d, qg.fixed_schedule(0.4), batch=B)) for d in dims]
    trajs = qg.run_game(games, recorders, T, stride=stride)
    reference = round_by_round_joint_sum(recorders)
    for b, traj in enumerate(trajs):
        assert np.abs(traj.joint_sum - reference[b]).max() <= 1e-12


def test_joint_sum_over_windows_longer_than_the_cap():
    dims = (2,) * 8
    _, cap = _fold_plan(dims)
    T = cap + cap // 2 + 1          # one full window and a partial one
    pg = qg.random_polymatrix(dims, qg.graph_edges("cycle", 8), 24)
    recorders = [OneAtATime(qg.MMWU(2, qg.fixed_schedule(0.05))) for _ in dims]
    traj = qg.run_game(pg, recorders, T, stride=T)
    assert np.abs(traj.joint_sum - round_by_round_joint_sum(recorders)).max() <= 1e-12


def test_fold_window_stays_within_the_joint_size():
    for dims in [(2,), (3, 2), (2,) * 8, (4, 4, 4), (2, 3, 2), (2,) * 11]:
        h, cap = _fold_plan(dims)
        n_l, n_r = prod(dims[:h]), prod(dims[h:])
        assert 1 <= h <= len(dims) and (h < len(dims) or len(dims) == 1)
        assert cap * (n_l**2 + n_r**2 + sum(d * d for d in dims)) <= max(prod(dims) ** 2, FOLD_FLOOR)


def random_games(kind, dims, seed, B):
    """B seeded games of one kind, and with it one certificate.

    "general" games are dense and get qcce; "zero-sum" games get qne: a dense two-player game, a
    pairwise zero-sum cycle of three or more players, and for one player the edgeless polymatrix game.
    """
    if kind == "general":
        return [qg.random_game(dims, seed + b) for b in range(B)]
    if len(dims) == 1:
        return [qg.PolymatrixGame(dims, [])] * B
    if len(dims) == 2:
        return [qg.random_game(dims, seed + b, "zero_sum") for b in range(B)]
    return [qg.random_polymatrix(dims, qg.graph_edges("cycle", len(dims)), seed + b) for b in range(B)]


GAME_KINDS = st.sampled_from(["general", "zero-sum"])

KINDS = {
    "mmwu": lambda d, B: qg.MMWU(d, qg.fixed_schedule(0.3), batch=B),
    "mmwu-doubling": lambda d, B: qg.MMWU(d, qg.doubling_schedule(2), batch=B),
    "ftrl": lambda d, B: qg.FrobeniusFTRL(d, 0.3, batch=B),
}


@st.composite
def stacked_runs(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4)))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=len(dims), max_size=len(dims)))
    return dims, kinds, draw(st.integers(1, 2)), draw(GAME_KINDS), draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=30)
@given(stacked_runs())
def test_stacked_play_matches_one_learner_at_a_time(run):
    dims, kinds, B, game_kind, seed = run
    games = random_games(game_kind, dims, seed, B)

    def team():
        return [KINDS[kind](d, B) for kind, d in zip(kinds, dims)]

    stacked = qg.run_game(games, team(), 20, stride=6)
    alone = qg.run_game(games, [OneAtATime(ln) for ln in team()], 20, stride=6)
    for a, b in zip(stacked, alone):
        assert_same_bits(a, b)


def test_stacked_play_matches_for_unequal_dims_and_mixed_learners():
    dims = (2, 3, 2)
    g = qg.random_game(dims, 25)

    def team():
        return [qg.MMWU(dims[0], qg.doubling_schedule()), qg.FrobeniusFTRL(dims[1], 0.2),
                qg.MMWU(dims[2], qg.doubling_schedule())]

    assert_same_bits(qg.run_game(g, team(), 40, stride=9),
                     qg.run_game(g, [OneAtATime(ln) for ln in team()], 40, stride=9))


def test_scripted_team_member_plays_alone_next_to_stacked_learners():
    profiles = [[qg.random_density(2, np.random.default_rng(26 + j)) for _ in range(3)] for j in range(2)]
    g = qg.random_game((2, 2, 2), 27)

    def team():
        scripted = qg.scripted_team([0.5, 0.5], profiles)
        return [scripted[0], qg.MMWU(2, qg.fixed_schedule(0.2)), qg.MMWU(2, qg.fixed_schedule(0.2))]

    stacked_team = team()
    traj = qg.run_game(g, stacked_team, 60, stride=10)
    assert stacked_team[0]._fallback is not None
    assert_same_bits(traj, qg.run_game(g, [OneAtATime(ln) for ln in team()], 60, stride=10))


def test_a_protocol_learner_with_an_infinite_bound_is_refused():
    # the bound check names the learner by its index: a learner without a schedule is refused like an MMWU one
    g = qg.random_game((2, 2), 5)
    learners = [OneAtATime(qg.MMWU(2, qg.fixed_schedule(1e308))), qg.MMWU(2, qg.fixed_schedule(0.1))]
    with pytest.raises(ValueError, match=r"^learner 0's regret bound over 5 rounds is not finite$"):
        qg.run_game(g, learners, 5)


def test_a_lone_learner_plays_as_itself(monkeypatch):
    # no other learner shares its team key, so the runner advances the learner itself: no copy, no write-back
    monkeypatch.setattr(qg.learning, "copy", lambda ln: pytest.fail("a lone learner was copied"))
    learners = [qg.MMWU(2, qg.doubling_schedule()), qg.FrobeniusFTRL(3, 0.2)]
    qg.run_game(qg.random_game((2, 3), 6), learners, 20, stride=7)
    assert (learners[0]._epoch, learners[0]._in_epoch) == (1, 12)   # epochs of 8 and 16 rounds
    assert learners[1]._sum.base is None and np.any(learners[1]._sum)


def test_fixed_schedule_learners_of_different_ages_play_as_one_team(monkeypatch):
    # a fixed schedule plays the same whatever the learner's age, so a learner that observed a
    # gain before the run still joins its team-mates: one kernel call per round, not two
    g = qg.random_game((2, 2, 2), 3)
    early = qg.random_hermitian(2, np.random.default_rng(4), norm=1.0)

    def team():
        members = [qg.MMWU(2, qg.fixed_schedule(0.2)) for _ in range(3)]
        members[1].observe(early)
        return members

    alone = qg.run_game(g, [OneAtATime(ln) for ln in team()], 10, stride=3)
    calls = []
    kernel = qg.MMWU.kernel
    monkeypatch.setattr(qg.MMWU, "kernel", staticmethod(lambda h: calls.append(h.shape) or kernel(h)))
    assert_same_bits(qg.run_game(g, team(), 10, stride=3), alone)
    assert len(calls) == 10


@st.composite
def carried_runs(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4)))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=len(dims), max_size=len(dims)))
    warmups = draw(st.lists(st.integers(0, 5), min_size=len(dims), max_size=len(dims)))
    return dims, kinds, warmups, draw(st.integers(1, 2)), draw(st.integers(1, 12)), draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=30)
@given(carried_runs())
@example(((2, 2, 2, 3), ["mmwu", "ftrl", "mmwu", "mmwu"], [0, 3, 2, 1], 1, 9, 7))
@example(((3, 3, 3), ["mmwu-doubling", "mmwu-doubling", "mmwu-doubling"], [0, 1, 2], 2, 12, 8))
@example(((2, 2, 2), ["mmwu-doubling", "mmwu-doubling", "ftrl"], [1, 5, 4], 1, 10, 9))
def test_learners_entering_with_state_play_as_if_alone(run):
    # learners that observed gains before the run enter it with nonzero sums and, on a doubling
    # schedule, at different epoch positions; their teams must play them bit for bit as alone
    # and hand each one its own state back
    dims, kinds, warmups, B, T, seed = run
    games = [qg.random_game(dims, seed + b) for b in range(B)]
    rng = np.random.default_rng(seed)
    early = [[np.stack([qg.random_hermitian(d, rng, norm=1.0) for _ in range(B)]) for _ in range(w)]
             for d, w in zip(dims, warmups)]

    def team():
        members = [KINDS[kind](d, B) for kind, d in zip(kinds, dims)]
        for ln, gains in zip(members, early):
            for gain in gains:
                ln.observe(gain)
        return members

    teamed, alone = team(), team()
    for a, b in zip(qg.run_game(games, teamed, T, stride=5),
                    qg.run_game(games, [OneAtATime(ln) for ln in alone], T, stride=5), strict=True):
        assert_same_bits(a, b)
    for x, y in zip(teamed, alone):
        assert bits(x._sum) == bits(y._sum) and (x._epoch, x._in_epoch) == (y._epoch, y._in_epoch)
        assert bits(x.strategy) == bits(y.strategy)
    # a later observe moves one learner and none of its team-mates
    held = [np.array(ln._sum) for ln in teamed]
    teamed[0].observe(np.stack([qg.random_hermitian(dims[0], rng, norm=1.0) for _ in range(B)]))
    assert not np.array_equal(teamed[0]._sum, held[0])
    for ln, s in zip(teamed[1:], held[1:]):
        assert bits(ln._sum) == bits(s)


@st.composite
def stride_runs(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=len(dims), max_size=len(dims)))
    T = draw(st.integers(1, 16))
    return dims, kinds, draw(st.integers(1, 3)), T, draw(st.integers(2, 7)), draw(GAME_KINDS), \
        draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=40)
@given(stride_runs())
@example(((3,), ["ftrl"], 2, 9, 4, "zero-sum", 5))
@example(((3, 2), ["ftrl", "mmwu"], 2, 9, 4, "zero-sum", 5))
@example(((2,), ["mmwu-doubling"], 1, 13, 3, "general", 6))
def test_checkpoint_rows_do_not_depend_on_the_stride(run):
    # the rows a checkpoint certifies come from that round's state alone, so a run checkpointing
    # every round must repeat, bit for bit, each row of a strided run; only avg_joint_eigs may
    # differ, as it is the spectrum of a joint sum folded over other windows
    dims, kinds, B, T, stride, game_kind, seed = run
    games = random_games(game_kind, dims, seed, B)

    def play(every):
        team = [KINDS[kind](d, B) for kind, d in zip(kinds, dims)]
        return qg.run_game(games, team, T, stride=every)

    for dense, sparse in zip(play(1), play(stride), strict=True):
        rows = np.searchsorted(dense.checkpoints, sparse.checkpoints)
        assert np.array_equal(dense.checkpoints[rows], sparse.checkpoints)
        for name in ("utils", "avg_regret", "gaps", "bound", "joint_eigs"):
            assert bits(getattr(dense, name)[rows]) == bits(getattr(sparse, name)), name
        assert bits({i: xyz[rows] for i, xyz in dense.bloch.items()}) == bits(sparse.bloch)
        assert sorted(sparse.bloch) == [i for i, d in enumerate(dims) if d == 2]


def star_edges(k):
    return [(0, j) for j in range(1, k)]


def reference_run(games, learners, T, stride, gap_mode, bound_scale):
    """The round loop one player at a time, as (field, value) pairs of each game's Trajectory.

    Each round reads every learner's ``strategy``, forms each player's gain with
    ``gain_matrix`` against the kron of the other players' strategies, game by game,
    and then lets the learners ``observe`` their gains one after the other, each
    with the round's profile of strategies in its own batch shape.
    """
    dims, B = games[0].dims, len(games)
    k, n = len(dims), prod(dims)
    others = [[j for j in range(k) if j != i] for i in range(k)]
    leads = [np.shape(ln.strategy)[:-2] for ln in learners]
    joint = np.zeros((B, n, n), dtype=complex)
    msum = [np.zeros((B, d, d), dtype=complex) for d in dims]
    cum = [np.zeros((B, d, d), dtype=complex) for d in dims]
    realized = np.zeros((B, k))
    rows = {key: [] for key in ("checkpoints", "utils", "avg_regret", "gaps", "bound", "joint_eigs", "avg_joint_eigs")}
    bloch = {i: [] for i, d in enumerate(dims) if d == 2}
    for t in range(1, T + 1):
        play = [np.array(np.reshape(ln.strategy, (B, d, d))) for ln, d in zip(learners, dims)]
        joint += qg.kron(*play)
        gains = [
            np.stack([qg.gain_matrix(g, i, qg.kron(*(play[j][b] for j in others[i]))) for b, g in enumerate(games)])
            for i in range(k)
        ]
        utils = np.array([[np.vdot(play[i][b], gains[i][b]).real for i in range(k)] for b in range(B)])
        for i in range(k):
            msum[i] += play[i]
            cum[i] += gains[i]
        realized += utils
        if t % stride == 0 or t == T:
            best = np.array([[np.linalg.eigvalsh(cum[i][b])[-1] for i in range(k)] for b in range(B)])
            avg_regret = (best - realized) / t
            if gap_mode == "qcce":
                gaps = np.maximum(avg_regret, 0.0)
            else:
                avg = [m / t for m in msum]
                gaps = np.zeros((B, k))
                for b, g in enumerate(games):
                    for i in range(k):
                        gain = qg.gain_matrix(g, i, qg.kron(*(avg[j][b] for j in others[i])))
                        gaps[b, i] = max(np.linalg.eigvalsh(gain)[-1] - np.vdot(avg[i][b], gain).real, 0.0)
            finite = [x for x in (ln.average_regret_bound(t) for ln in learners) if not np.isnan(x)]
            rows["checkpoints"].append(t)
            rows["utils"].append(utils)
            rows["avg_regret"].append(avg_regret)
            rows["gaps"].append(gaps)
            rows["bound"].append(bound_scale * max(finite) if finite else np.nan)
            rows["joint_eigs"].append(np.flip(np.linalg.eigvalsh(qg.kron(*play)), axis=-1))
            rows["avg_joint_eigs"].append(np.flip(np.linalg.eigvalsh(joint / t), axis=-1))
            for i in bloch:
                bloch[i].append([qg.bloch_coords(s) for s in play[i]])
        for i, ln in enumerate(learners):
            profile = [p.reshape(leads[i] + p.shape[1:]) for p in play]
            ln.observe(gains[i].reshape(leads[i] + gains[i].shape[1:]), profile)
    rows = {key: np.asarray(val) for key, val in rows.items()}
    final = [np.reshape(ln.strategy, (B, d, d)) for ln, d in zip(learners, dims)]
    return [
        {
            **{key: (val if key in ("checkpoints", "bound") else val[:, b]) for key, val in rows.items()},
            **{f"bloch[{i}]": np.asarray(val)[:, b] for i, val in bloch.items()},
            "joint_sum": joint[b],
            **{f"marginal_sums[{i}]": msum[i][b] for i in range(k)},
            **{f"cum_gain[{i}]": cum[i][b] for i in range(k)},
            "realized": realized[b],
            **{f"final_strategies[{i}]": s[b] for i, s in enumerate(play)},
        }
        for b in range(B)
    ], final


@st.composite
def reference_runs(draw):
    dims = draw(st.sampled_from([(2, 3, 2), (3, 2, 3, 2)]))
    graph = draw(st.sampled_from(["dense", "path", "star"]))
    B = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=len(dims), max_size=len(dims)))
    odd = draw(st.sampled_from(["none", "constant", "scripted"])) if B == 1 else "none"
    T = draw(st.integers(1, 16))
    stride = draw(st.sampled_from([1, 7, T]))
    return dims, graph, B, kinds, odd, T, stride, draw(st.booleans()), draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=40)
@given(reference_runs())
def test_stacked_round_matches_per_player_reference(run):
    # mixed dims make several player groups and term groups; path and star graphs give
    # players unequal numbers of terms; a Constant or scripted learner shares a group's stack;
    # pairwise zero-sum graphs get qne gaps at scale k, general-sum graphs and dense games qcce at scale 1
    dims, graph, B, kinds, odd, T, stride, pairwise_zero_sum, seed = run
    if graph == "dense":
        games = [qg.random_game(dims, seed + b) for b in range(B)]
    else:
        edges = qg.graph_edges("path", len(dims)) if graph == "path" else star_edges(len(dims))
        games = [qg.random_polymatrix(dims, edges, seed + b, pairwise_zero_sum) for b in range(B)]
    gap_mode, bound_scale = ("qne", float(len(dims))) if graph != "dense" and pairwise_zero_sum else ("qcce", 1.0)
    rng = np.random.default_rng(seed)
    profiles = [[qg.random_density(d, rng) for d in dims] for _ in range(2)]
    deviator = qg.random_density(dims[-1], rng)

    def team():
        members = [KINDS[kind](d, B) for kind, d in zip(kinds, dims)]
        if odd == "constant":
            members[-1] = qg.Constant(deviator)
        elif odd == "scripted":
            members[0] = qg.scripted_team([0.5, 0.5], profiles)[0]
        return members

    stacked_team, reference_team = team(), team()
    trajs = qg.run_game(games, stacked_team, T, stride=stride)
    reference = reference_run(games, reference_team, T, stride, gap_mode, bound_scale)
    assert_matches_reference(trajs, stacked_team, reference, gap_mode, bound_scale)


def assert_matches_reference(trajs, learners, reference, gap_mode, bound_scale):
    """Every trajectory field and every learner's final strategy within 1e-12 of ``reference_run``'s."""
    expected, final = reference
    for traj, want in zip(trajs, expected, strict=True):
        assert (traj.gap_mode, traj.bound_scale) == (gap_mode, bound_scale)
        got = {}
        for f in dataclasses.fields(traj):
            val = getattr(traj, f.name)
            if isinstance(val, dict):
                got.update({f"{f.name}[{i}]": x for i, x in val.items()})
            elif isinstance(val, list):
                got.update({f"{f.name}[{i}]": x for i, x in enumerate(val)})
            elif isinstance(val, np.ndarray):
                got[f.name] = val
        assert sorted(got) == sorted(want)
        for key, x in got.items():
            y = want[key]
            assert x.shape == y.shape and np.allclose(x, y, rtol=0, atol=1e-12, equal_nan=True), key
    # the learners end where the reference learners end
    for ln, s in zip(learners, final):
        assert np.allclose(np.reshape(ln.strategy, s.shape), s, rtol=0, atol=1e-12)


class ProtocolOnly:
    """A learner written to the documented protocol and nothing else.

    It plays the even mix of its own entry of the last profile and the normalized
    exponential of the last gain, so a wrong profile or gain moves its play, and it
    records what it is handed each round.
    """

    def __init__(self, dim, batch=None):
        self.dim = dim
        lead = () if batch is None else (batch,)
        self.strategy = np.broadcast_to(np.eye(dim, dtype=complex) / dim, lead + (dim, dim))
        self.seen = []

    def observe(self, gain, profile):
        self.seen.append((np.array(gain), [np.array(p) for p in profile]))
        self.strategy = 0.5 * profile[1] + 0.5 * exp_density_stack(qg.herm(gain))

    def average_regret_bound(self, t):
        return float("nan")


@pytest.mark.parametrize("batch", [None, 3])
def test_a_protocol_only_learner_plays_next_to_an_mmwu_team(monkeypatch, batch):
    # players 0 and 2 share an MMWU team; the qutrit player 1 is a class the library does not know
    lead = () if batch is None else (batch,)
    games = [qg.random_game((2, 3, 2), 40 + b) for b in range(batch or 1)]

    def team():
        return [qg.MMWU(2, qg.fixed_schedule(0.3), batch), ProtocolOnly(3, batch),
                qg.MMWU(2, qg.fixed_schedule(0.3), batch)]

    stacked_team, reference_team = team(), team()
    copied = []
    monkeypatch.setattr(qg.learning, "copy", lambda ln: copied.append(ln) or copy(ln))
    trajs = qg.run_game(games, stacked_team, 12, stride=5)
    assert copied == [stacked_team[0]]
    assert_matches_reference(trajs, stacked_team, reference_run(games, reference_team, 12, 5, "qcce", 1.0), "qcce", 1.0)
    # round by round, the learner was handed the reference's gain and profile, in its own batch shape
    got, want = stacked_team[1].seen, reference_team[1].seen
    assert len(got) == len(want) == 12
    for (gain, profile), (gain_ref, profile_ref) in zip(got, want):
        assert gain.shape == gain_ref.shape == np.shape(stacked_team[1].strategy)
        assert np.allclose(gain, gain_ref, rtol=0, atol=1e-12)
        for p, p_ref, d in zip(profile, profile_ref, (2, 3, 2), strict=True):
            assert p.shape == p_ref.shape == lead + (d, d)
            assert np.allclose(p, p_ref, rtol=0, atol=1e-12)
