"""The native path of games made of local terms against the dense lift ``polymatrix_to_qg`` as oracle.

Random games have 2 to 6 players on registers of dimension 2 or 3: polymatrix
games on a cycle, path or complete graph, with pairwise zero-sum edges on or
off, and 3-local chains, whose supports ``(i, i+1, i+2)`` pay each of their
three players a term in a drawn factor order, with zero-sum supports on or
off.  The joint dimension is capped at 256 so the dense oracle stays cheap.
"""

import dataclasses
import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgames as qg
from qgames import serialize as ser
from qgames.cli import main
from qgames.tensor import maxabs

TOL = 1e-12


@st.composite
def layouts(draw):
    """(dims, supports, zero-sum): graph edges (pairs), or per chain support the factor orders of its three terms."""
    chain = draw(st.booleans())
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=3 if chain else 2, max_size=6)
                .filter(lambda ds: prod(ds) <= 256))
    if chain:
        supports = [[draw(st.permutations(range(i, i + 3))) for _ in range(3)] for i in range(len(dims) - 2)]
    else:
        supports = qg.graph_edges(draw(st.sampled_from(["cycle", "path", "complete"])), len(dims))
    return tuple(dims), supports, draw(st.booleans())


def random_chain(dims, supports, seed, zero_sum):
    """A 3-local chain game built with ``qg.Game``: support i pays players i, i+1, i+2 a term each,
    in the factor orders ``supports[i]``, at spectral norm 1/3 (each player is on at most three supports);
    with ``zero_sum`` the third tensor of each support is minus the sum of the other two."""
    rng = np.random.default_rng(seed)
    terms = [[] for _ in dims]
    for i, orders in enumerate(supports):
        sdims = dims[i : i + 3]
        tensors = [qg.random_hermitian(prod(sdims), rng, norm=1 / 3) for _ in range(3)]
        if zero_sum:
            tensors[2] = -(tensors[0] + tensors[1])
        for player, r, order in zip(range(i, i + 3), tensors, orders):
            terms[player].append((tuple(order), qg.permute_registers(r, sdims, [x - i for x in order])))
    return qg.Game(dims, terms)


def local_game(layout, seed):
    dims, supports, zero_sum = layout
    if len(supports[0]) == 2:   # graph edges
        return qg.random_polymatrix(dims, supports, seed, zero_sum)
    return random_chain(dims, supports, seed, zero_sum)


@st.composite
def polymatrix_games(draw):
    return local_game(draw(layouts()), draw(st.integers(0, 2**16)))


def mmwu_team(dims, eta=0.3, batch=None):
    return [qg.MMWU(d, qg.fixed_schedule(eta), batch=batch) for d in dims]


def trajectory_fields(traj):
    """Every field of a Trajectory as a flat list of (name, value) pairs."""
    out = []
    for f in dataclasses.fields(traj):
        val = getattr(traj, f.name)
        if isinstance(val, dict):
            out += [(f"{f.name}[{key}]", v) for key, v in sorted(val.items())]
        elif isinstance(val, list):
            out += [(f"{f.name}[{i}]", v) for i, v in enumerate(val)]
        else:
            out.append((f.name, val))
    return out


def assert_trajectories_match(a, b, tol, skip=()):
    """Every Trajectory array but those in skip agrees to tol (0: bit for bit, NaN matching NaN); the rest exactly."""
    for (name, x), (name_b, y) in zip(trajectory_fields(a), trajectory_fields(b), strict=True):
        assert name == name_b
        if name in skip:
            continue
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and np.allclose(x, y, rtol=0, atol=tol, equal_nan=True), name
        else:
            assert x == y, name


@settings(deadline=None, max_examples=30)
@given(polymatrix_games(), st.integers(0, 2**16))
def test_gains_utilities_and_certificates_match_lift(pg, seed):
    lifted = qg.polymatrix_to_qg(pg)
    rng = np.random.default_rng(seed)
    rho = qg.random_density(lifted.joint_dim, rng)
    for i in range(pg.n_players):
        others = tuple(j for j in range(pg.n_players) if j != i)
        opp = qg.partial_trace(rho, pg.dims, keep=others)
        assert maxabs(qg.gain_matrix(pg, i, opp) - qg.gain_matrix(lifted, i, opp)) <= TOL
        assert abs(qg.utility(pg, rho, i) - qg.utility(lifted, rho, i)) <= TOL
    native, oracle = qg.is_qcce(pg, rho), qg.is_qcce(lifted, rho)
    assert max(abs(x - y) for x, y in zip(native.gaps, oracle.gaps)) <= TOL
    product = qg.marginalize(rho, pg.dims)
    native, oracle = qg.is_qne(pg, product), qg.is_qne(lifted, product)
    assert max(abs(x - y) for x, y in zip(native.gaps, oracle.gaps)) <= TOL
    assert native.product_defect == oracle.product_defect


@settings(deadline=None, max_examples=20)
@given(polymatrix_games())
def test_run_matches_lift_on_every_trajectory_array(pg):
    lifted = qg.polymatrix_to_qg(pg)
    native = qg.run_game(pg, mmwu_team(pg.dims), 5, stride=2)
    oracle = qg.run_game(lifted, mmwu_team(pg.dims), 5, stride=2)
    if not (all(len(regs) == 2 for payoff in pg.terms for regs, _ in payoff) and pg.zero_sum and pg.n_players >= 3):
        assert_trajectories_match(native, oracle, TOL)
        return
    # a pairwise zero-sum polymatrix game of k >= 3 players gets QNE gaps at scale k, its dense lift QCCE at scale 1:
    # the lift is the oracle of every other array, and the QNE gaps are those of the averaged product
    assert (native.gap_mode, native.bound_scale) == ("qne", pg.n_players)
    assert (oracle.gap_mode, oracle.bound_scale) == ("qcce", 1)
    assert_trajectories_match(native, oracle, TOL, skip=("gap_mode", "bound_scale", "gaps", "bound"))
    assert np.array_equal(native.bound, pg.n_players * oracle.bound, equal_nan=True)
    product = native.product_of_marginal_averages()
    for i in range(pg.n_players):
        assert abs(native.gaps[-1, i] - qg.exploitability(lifted, i, product)) <= TOL


def run_main(argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _numbers(obj):
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _numbers(obj[key])]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj]


@settings(deadline=None, max_examples=10)
@given(polymatrix_games(), st.integers(0, 2**16))
def test_verify_stdout_matches_lift(pg, seed):
    # the lifted route is what verify ran before: the certificate of polymatrix_to_qg(pg)
    lifted = qg.polymatrix_to_qg(pg)
    rho = qg.random_density(prod(pg.dims), np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        game, state = Path(tmp) / "pg.json", Path(tmp) / "state.json"
        ser.save_game(game, pg)
        for kind, certify, sigma in (("qcce", qg.is_qcce, rho), ("qne", qg.is_qne, qg.marginalize(rho, pg.dims))):
            ser.save_state(state, sigma, pg.dims)
            rc, out = run_main(["verify", "--game", str(game), "--state", str(state), "--kind", kind])
            native, oracle = json.loads(out), ser.report_to_obj(certify(lifted, sigma))
            assert rc == (0 if oracle["verdict"] else 1)
            assert sorted(native) == sorted(oracle)
            for x, y in zip(_numbers(native), _numbers(oracle), strict=True):
                assert (abs(x - y) <= TOL) if isinstance(x, float) else x == y


@settings(deadline=None, max_examples=15)
@given(layouts(), st.lists(st.integers(0, 2**16), min_size=2, max_size=4))
def test_batch_equals_each_game_alone_bit_for_bit(layout, seeds):
    # the layout draws zero-sum supports on or off, and with them, on graph edges, the qne or the qcce certificate
    dims = layout[0]
    games = [local_game(layout, s) for s in seeds]
    batch = qg.run_game(games, mmwu_team(dims, batch=len(games)), 4, stride=3)
    for game, traj in zip(games, batch):
        alone = qg.run_game(game, mmwu_team(dims), 4, stride=3)
        assert_trajectories_match(traj, alone, 0)


def test_run_game_rejects_mixed_batches():
    cycle = qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), seed=1)
    path = qg.random_polymatrix((2, 2, 2), qg.graph_edges("path", 3), seed=2)
    for games in ([cycle, qg.polymatrix_to_qg(cycle)], [qg.polymatrix_to_qg(cycle), cycle], [cycle, path]):
        with pytest.raises(ValueError):
            qg.run_game(games, mmwu_team((2, 2, 2), batch=2), 3)


@pytest.mark.parametrize("gap_mode", ["qne", "qcce"])
def test_dense_and_polymatrix_games_of_one_term_layout_batch_together(gap_mode):
    # two players: a dense game and a one-edge polymatrix game both give each player one term on the other;
    # zero-sum games get the qne certificate, general-sum ones qcce
    zero_sum = gap_mode == "qne"
    games = [qg.random_game((2, 3), 5, "zero_sum" if zero_sum else "general"),
             qg.random_polymatrix((2, 3), [(0, 1)], seed=6, pairwise_zero_sum=zero_sum)]
    assert [[t.regs for t in terms] for terms in games[0].gain_terms] == [[(1,)], [(0,)]]
    assert [[t.regs for t in terms] for terms in games[1].gain_terms] == [[(1,)], [(0,)]]
    batch = qg.run_game(games, mmwu_team((2, 3), batch=2), 9, stride=4)
    for game, traj in zip(games, batch):
        assert traj.gap_mode == gap_mode
        assert_trajectories_match(traj, qg.run_game(game, mmwu_team((2, 3)), 9, stride=4), 0)


def test_gain_terms_are_edgewise():
    edges = qg.graph_edges("cycle", 4)
    pg = qg.random_polymatrix((2, 3, 2, 3), edges, seed=3)
    for i, terms in enumerate(pg.gain_terms):
        neighbors = sorted(j for edge in edges if i in edge for j in edge if j != i)
        assert [t.regs for t in terms] == [(j,) for j in neighbors]
        assert [t.op.shape for t in terms] == [(pg.dims[i] ** 2, pg.dims[j] ** 2) for j in neighbors]
    assert pg.gain_terms is pg.gain_terms   # compiled once


def test_scripted_learners_see_the_same_opponents_as_on_the_lift():
    # general-sum, so the game and its lift both get the qcce certificate and every array compares
    pg = qg.random_polymatrix((2, 3, 2), qg.graph_edges("cycle", 3), seed=4, pairwise_zero_sum=False)
    rng = np.random.default_rng(5)
    profiles = [[qg.random_density(d, rng) for d in pg.dims] for _ in range(2)]
    deviator = qg.random_density(2, rng)
    runs = []
    for game in (pg, qg.polymatrix_to_qg(pg)):
        faithful = qg.scripted_team([0.5, 0.5], profiles)
        deviated = [qg.Constant(deviator)] + qg.scripted_team([0.5, 0.5], profiles)[1:]
        runs.append([qg.run_game(game, team, 12, stride=4) for team in (faithful, deviated)] + [faithful, deviated])
    (native, native_dev, faithful, deviated), (oracle, oracle_dev, _, _) = runs
    assert_trajectories_match(native, oracle, TOL)
    assert_trajectories_match(native_dev, oracle_dev, TOL)
    assert all(member._fallback is None for member in faithful)
    assert all(member._fallback is not None for member in deviated[1:])
