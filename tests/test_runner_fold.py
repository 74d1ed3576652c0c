"""The runner's windowed joint fold and stacked learner play against round-by-round references.

``OneAtATime`` wraps a learner so that ``run_game`` cannot stack it (it is
neither an MMWU nor an FTRL learner) and records the strategy it plays each
round.  The joint running sum must equal the sum of the recorded product
states, and stacked play must give the same bits as the wrapped play.
"""

import dataclasses
from math import prod

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qgames as qg
from qgames.learning import FOLD_FLOOR, _fold_plan


class OneAtATime:
    """Delegates to a learner, recording each round's strategy; played alone by the runner."""

    def __init__(self, inner):
        self.inner, self.dim, self.played = inner, inner.dim, []
        self.watches_opponents = getattr(inner, "watches_opponents", False)

    @property
    def strategy(self):
        return self.inner.strategy

    def _update(self, gain, opponents=None):
        self.played.append(np.array(self.inner.strategy))
        self.inner._update(gain, opponents)

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


KINDS = {
    "mmwu": lambda d, B: qg.MMWU(d, qg.fixed_schedule(0.3), batch=B),
    "mmwu-doubling": lambda d, B: qg.MMWU(d, qg.doubling_schedule(2), batch=B),
    "ftrl": lambda d, B: qg.FrobeniusFTRL(d, 0.3, batch=B),
}


@st.composite
def stacked_runs(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4)))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=len(dims), max_size=len(dims)))
    return dims, kinds, draw(st.integers(1, 2)), draw(st.sampled_from(["qcce", "qne"])), draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=30)
@given(stacked_runs())
def test_stacked_play_matches_one_learner_at_a_time(run):
    dims, kinds, B, gap_mode, seed = run
    games = [qg.random_game(dims, seed + b) for b in range(B)]

    def team():
        return [KINDS[kind](d, B) for kind, d in zip(kinds, dims)]

    stacked = qg.run_game(games, team(), 20, stride=6, gap_mode=gap_mode)
    alone = qg.run_game(games, [OneAtATime(ln) for ln in team()], 20, stride=6, gap_mode=gap_mode)
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
