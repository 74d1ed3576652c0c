"""One rule per input: sizes and register indices are integers, never truncated floats or booleans.

Every entry point that takes a register size or index sends it through
``operator.index`` (``tensor._check_ints`` for sequences, ``tensor._check_int``
for scalars), so a float raises ``ValueError`` where ``int()`` used to cut it
down, a ``bool`` raises it too, and numpy integers pass as Python ints do.
A player index lies in [0, k).
"""

import json
import re

import numpy as np
import pytest

import qgames as qg
from qgames import serialize as ser
from qgames.cli import _generate
from qgames.tensor import kron_spectrum

RHO = np.eye(4, dtype=complex) / 4
HALF = np.eye(2, dtype=complex) / 2
GAME = qg.random_game((2, 2), 1)


FLOAT_SIZES_AND_INDICES = {
    "partial_trace dims": lambda _: qg.partial_trace(RHO, (2.9, 2), keep=(0,)),
    "partial_trace keep": lambda _: qg.partial_trace(RHO, (2, 2), keep=(0.7,)),
    "permute_registers dims": lambda _: qg.permute_registers(RHO, (2.0, 2), (1, 0)),
    "permute_registers perm": lambda _: qg.permute_registers(RHO, (2, 2), (1.9, 0.2)),
    "partial_transpose factor": lambda _: qg.partial_transpose(RHO, (2, 2), 1.0),
    "lift_channel dims": lambda _: qg.lift_channel(qg.choi_of_identity(2), (2.0, 2.7), 0),
    "lift_channel register": lambda _: qg.lift_channel(qg.choi_of_identity(2), (2, 2), 0.0),
    "marginalize dims": lambda _: qg.marginalize(RHO, (2.0, 2)),
    "MMWU dim": lambda _: qg.MMWU(2.7, qg.fixed_schedule(0.1)),
    "MMWU batch": lambda _: qg.MMWU(2, qg.fixed_schedule(0.1), batch=3.9),
    "FrobeniusFTRL dim": lambda _: qg.FrobeniusFTRL(2.0, 0.1),
    "ScriptedNoRegret player": lambda _: qg.ScriptedNoRegret(0.0, [1.0], [[HALF, HALF]]),
    "PolymatrixGame edge": lambda _: qg.PolymatrixGame((2, 2), [((0.0, 1), (np.eye(4), np.eye(4)))]),
    "random_polymatrix edge": lambda _: qg.random_polymatrix((2, 2), [(0, 1.0)], seed=1),
    "save_state dims": lambda tmp_path: ser.save_state(tmp_path / "s.json", RHO, (2.5, 2)),
    "Game regs": lambda _: qg.Game((2, 2), [[((0, 1.0), np.eye(4))], [((1, 0), np.eye(4))]]),
    "ChoiMatrix sizes": lambda _: qg.ChoiMatrix(np.eye(4), 2.0, 2.0),
    "utility player": lambda _: qg.utility(GAME, RHO, 1.0),
    "brute_force_gap n_samples": lambda _: qg.brute_force_gap(GAME, 0, RHO, 2.5, seed=1),
    "run_game T": lambda _: qg.run_game(GAME, [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)], 5.0),
    "Schedule base_epoch": lambda _: qg.doubling_schedule(1.5),
    "random_game seed": lambda _: qg.random_game((2, 2), 1.5),
    "random_polymatrix seed": lambda _: qg.random_polymatrix((2, 2), [(0, 1)], seed=1.5),
    "graph_edges size": lambda _: qg.graph_edges("cycle", 3.0),
    "brute_force_gap seed": lambda _: qg.brute_force_gap(GAME, 0, RHO, 4, seed=1.5),
    "random_hermitian dim": lambda _: qg.random_hermitian(2.0, np.random.default_rng(1)),
    "random_density dim": lambda _: qg.random_density(2.0, np.random.default_rng(1)),
    "random_pure_states dim": lambda _: qg.random_pure_states(2.0, 3, np.random.default_rng(1)),
    "random_pure_states n": lambda _: qg.random_pure_states(2, 1.5, np.random.default_rng(1)),
    "choi_of_map in_dim": lambda _: qg.choi_of_map(lambda x: x, 2.0),
    "choi_of_identity dim": lambda _: qg.choi_of_identity(2.0),
}


@pytest.mark.parametrize("name", sorted(FLOAT_SIZES_AND_INDICES))
def test_a_float_size_or_index_is_rejected(tmp_path, name):
    with pytest.raises(ValueError):
        FLOAT_SIZES_AND_INDICES[name](tmp_path)
    assert not (tmp_path / "s.json").exists()


BOOL_SIZES_AND_INDICES = {
    # each would pass as the integer 1 (True) or 0 (False): the shapes and ranges all fit
    "QuantumGame dims": lambda: qg.QuantumGame((True, 2), (np.eye(2), np.eye(2))),
    "partial_trace keep": lambda: qg.partial_trace(RHO, (2, 2), keep=(True,)),
    "partial_transpose factor": lambda: qg.partial_transpose(RHO, (2, 2), False),
    "PolymatrixGame edge": lambda: qg.PolymatrixGame((2, 2), [((True, 0), (np.eye(4), np.eye(4)))]),
    "Game regs": lambda: qg.Game((2, 2), [[((0, True), np.eye(4))], [((1, 0), np.eye(4))]]),
    "ChoiMatrix sizes": lambda: qg.ChoiMatrix(np.eye(1), True, True),
    "MMWU dim": lambda: qg.MMWU(True, qg.fixed_schedule(0.1)),
    "MMWU batch": lambda: qg.MMWU(2, qg.fixed_schedule(0.1), batch=True),
    "utility player": lambda: qg.utility(GAME, RHO, True),
    "lift_channel register": lambda: qg.lift_channel(qg.choi_of_identity(2), (2, 2), False),
    "run_game T": lambda: qg.run_game(GAME, [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)], True),
    "Schedule base_epoch": lambda: qg.doubling_schedule(True),
    "random_game seed": lambda: qg.random_game((2, 2), True),
    "brute_force_gap seed": lambda: qg.brute_force_gap(GAME, 0, RHO, 4, seed=True),
    "random_hermitian dim": lambda: qg.random_hermitian(True, np.random.default_rng(1)),
    "random_density dim": lambda: qg.random_density(True, np.random.default_rng(1)),
    "random_pure_states n": lambda: qg.random_pure_states(2, True, np.random.default_rng(1)),
    "choi_of_map in_dim": lambda: qg.choi_of_map(lambda x: x, True),
    "choi_of_identity dim": lambda: qg.choi_of_identity(True),
}


@pytest.mark.parametrize("name", sorted(BOOL_SIZES_AND_INDICES))
def test_a_bool_size_or_index_is_rejected(name):
    with pytest.raises(ValueError):
        BOOL_SIZES_AND_INDICES[name]()


BELOW_THE_FLOOR = {
    # sizes below their floor: each once constructed, played a schedule its bound did not describe, or died in numpy
    "MMWU dim": (lambda: qg.MMWU(0, qg.fixed_schedule(0.1)), 1),
    "MMWU negative dim": (lambda: qg.MMWU(-1, qg.fixed_schedule(0.1)), 1),
    "FrobeniusFTRL dim": (lambda: qg.FrobeniusFTRL(0, 0.1), 1),
    "MMWU batch": (lambda: qg.MMWU(2, qg.fixed_schedule(0.1), batch=0), 1),
    "run_game T": (lambda: qg.run_game(GAME, [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)], 0), 1),
    "run_game stride": (lambda: qg.run_game(GAME, [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)], 5, 0), 1),
    "brute_force_gap n_samples": (lambda: qg.brute_force_gap(GAME, 0, RHO, 0, seed=1), 1),
    "Schedule base_epoch": (lambda: qg.doubling_schedule(0), 1),
    "random_game seed": (lambda: qg.random_game((2, 2), -1), 0),
    "random_polymatrix seed": (lambda: qg.random_polymatrix((2, 2), [(0, 1)], seed=-1), 0),
    "graph_edges size": (lambda: qg.graph_edges("path", 1), 2),
    "brute_force_gap seed": (lambda: qg.brute_force_gap(GAME, 0, RHO, 4, seed=-1), 0),
    "random_hermitian dim": (lambda: qg.random_hermitian(0, np.random.default_rng(1)), 1),
    "random_density dim": (lambda: qg.random_density(0, np.random.default_rng(1)), 1),
    "random_pure_states dim": (lambda: qg.random_pure_states(0, 3, np.random.default_rng(1)), 1),
    "random_pure_states n": (lambda: qg.random_pure_states(2, 0, np.random.default_rng(1)), 1),
    "choi_of_map in_dim": (lambda: qg.choi_of_map(lambda x: x, 0), 1),
    "choi_of_identity dim": (lambda: qg.choi_of_identity(0), 1),
}


@pytest.mark.parametrize("name", sorted(BELOW_THE_FLOOR))
def test_a_size_below_its_floor_is_rejected(name):
    call, low = BELOW_THE_FLOOR[name]
    with pytest.raises(ValueError, match=rf" must be an integer >= {low}, got -?\d+$"):
        call()


PLAYER_INDEX_CALLS = {
    "utility": lambda i: qg.utility(GAME, RHO, i),
    "gain_matrix": lambda i: qg.gain_matrix(GAME, i, HALF),
    "best_response": lambda i: qg.best_response(GAME, i, HALF),
    "exploitability": lambda i: qg.exploitability(GAME, i, RHO),
    "brute_force_gap": lambda i: qg.brute_force_gap(GAME, i, RHO, 4, seed=1),
    "ScriptedNoRegret": lambda i: qg.ScriptedNoRegret(i, [1.0], [[HALF, HALF]]),
    "lift_channel": lambda i: qg.lift_channel(qg.choi_of_identity(2), (2, 2), i),
    "partial_transpose": lambda i: qg.partial_transpose(RHO, (2, 2), i),
}


@pytest.mark.parametrize("i", [-1, 2, 10**400, 1.0, "1", None])
@pytest.mark.parametrize("name", sorted(PLAYER_INDEX_CALLS))
def test_a_player_index_is_an_integer_in_range(name, i):
    # -1 once read the last player's payoff, and the others died in a numpy reshape or with a TypeError
    with pytest.raises(ValueError, match=r" must be an integer in \[0, 2\), got "):
        PLAYER_INDEX_CALLS[name](i)
    PLAYER_INDEX_CALLS[name](np.int64(1))


def test_numpy_integers_pass_as_ints(tmp_path):
    dims, two = np.array([2, 2]), np.int64(2)
    rho = qg.random_density(4, np.random.default_rng(1))
    assert np.array_equal(qg.partial_trace(rho, dims, keep=np.array([1])), qg.partial_trace(rho, (2, 2), keep=(1,)))
    assert np.array_equal(qg.permute_registers(rho, dims, np.array([1, 0])), qg.permute_registers(rho, (2, 2), (1, 0)))
    assert np.array_equal(qg.partial_transpose(rho, dims, np.int32(1)), qg.partial_transpose(rho, (2, 2), 1))
    assert np.array_equal(qg.marginalize(rho, dims), qg.marginalize(rho, (2, 2)))
    lifted = qg.lift_channel(qg.unitary_channel(qg.PAULI_X), dims, np.int64(1))
    assert np.array_equal(lifted(rho), qg.lift_channel(qg.unitary_channel(qg.PAULI_X), (2, 2), 1)(rho))
    learner = qg.MMWU(two, qg.fixed_schedule(0.1), batch=np.int32(3))
    assert learner.dim == 2 and type(learner.dim) is int and learner._sum.shape == (3, 2, 2)
    assert qg.ScriptedNoRegret(np.int64(1), [1.0], [[HALF, HALF]]).player == 1
    edge = qg.random_polymatrix(dims, [(np.int64(0), np.int64(1))], seed=1)
    assert [[regs for regs, _ in payoff] for payoff in edge.terms] == [[(0, 1)], [(1, 0)]]
    assert {type(x) for payoff in edge.terms for regs, _ in payoff for x in regs} == {int}
    assert qg.random_game(dims, 1).dims == (2, 2)
    ser.save_state(tmp_path / "s.json", rho, dims)
    assert json.loads((tmp_path / "s.json").read_text())["dims"] == [2, 2]
    ser.save_game(tmp_path / "g.json", qg.random_game(dims, 1), seed=np.int64(1))   # json cannot write a numpy int
    assert json.loads((tmp_path / "g.json").read_text())["seed"] == 1
    assert ser.load_state(tmp_path / "s.json")[0] == (2, 2)


@pytest.mark.parametrize("dims", [(2, 3), (3,), (2, 2, 2), (0, 2), ()])
def test_save_state_checks_its_matrix_against_its_dims(tmp_path, dims):
    with pytest.raises(ValueError):
        ser.save_state(tmp_path / "s.json", RHO, dims)
    assert not (tmp_path / "s.json").exists()


def test_the_layout_functions_accept_the_empty_layout():
    one = np.array([[0.5 + 0.25j]])
    assert np.array_equal(qg.partial_trace(one, (), ()), one)
    assert np.array_equal(qg.permute_registers(one, [], []), one)
    with pytest.raises(ValueError):
        qg.partial_trace(one, (), (0,))


def test_out_of_range_indices_are_rejected():
    with pytest.raises(ValueError, match=r"^keep must be a sequence of integers in \[0, 2\), got \(0, 2\)$"):
        qg.partial_trace(RHO, (2, 2), keep=(0, 2))
    with pytest.raises(ValueError, match="^perm"):
        qg.permute_registers(RHO, (2, 2), (-1, 0))
    with pytest.raises(ValueError, match=r"^player index must be an integer in \[0, 2\), got 2$"):
        qg.lift_channel(qg.choi_of_identity(2), (2, 2), 2)


def test_each_hermitian_gate_keeps_its_message():
    skew = np.triu(np.ones((4, 4)))
    with pytest.raises(ValueError, match="^utility tensors must be Hermitian$"):
        qg.QuantumGame((2, 2), (skew, skew))
    with pytest.raises(ValueError, match=r"^Choi matrix must be Hermitian \(Hermiticity-preserving maps only\)$"):
        qg.ChoiMatrix(skew, 2, 2)
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        qg.herm_eig(skew)
    with pytest.raises(ValueError, match="^gain matrix must be Hermitian$"):
        qg.MMWU(4, qg.fixed_schedule(0.1)).observe(skew)


# refusals that no other test reaches, each with its whole message
SHAPE_AND_COUNT_REFUSALS = {
    "ChoiMatrix shape": (lambda: qg.ChoiMatrix(np.eye(3), 2, 2), "Choi matrix shape (3, 3) does not match out 2 x in 2"),
    "apply_adjoint shape": (lambda: qg.apply_adjoint(qg.choi_of_identity(2), RHO),
                            "input shape (4, 4) does not match channel output dim 2"),
    "phi_gap list count": (lambda: qg.phi_gap(GAME, RHO, [[]]), "one deviation list per player required"),
    "maxent_qcce_condition shapes": (lambda: qg.maxent_qcce_condition(np.eye(3), np.eye(2), HALF.real),
                                     "payoffs and weights must be 2x2"),
    "classical_embed no payoffs": (lambda: qg.classical_embed([]), "need at least one payoff array"),
    "classical_embed shapes": (lambda: qg.classical_embed([np.zeros((2, 2)), np.zeros((2, 3))]),
                               "payoff arrays must share one action-profile shape"),
    "utility state shape": (lambda: qg.utility(GAME, HALF, 0), "state shape (2, 2) does not match joint dim 4"),
    "gain_matrix opponent shape": (lambda: qg.gain_matrix(GAME, 0, RHO), "opponent state shape (4, 4) does not match dim 2"),
    "random_game zero-sum players": (lambda: qg.random_game((2, 2, 2), 1, "zero_sum"),
                                     "zero-sum generation needs exactly two players"),
    # the CLI's spelling is its own: it hands random_game "zero_sum", and any other kind as given
    "random_game kind": (lambda: qg.random_game((2, 2), 1, "zero-sum"), "unknown game kind 'zero-sum'"),
    "cli game kind": (lambda: _generate("bogus", (2, 2), 0, None, None), "unknown game kind 'bogus'"),
    "kron of nothing": (lambda: qg.kron(), "kron needs at least one matrix"),
    "kron_spectrum of nothing": (lambda: kron_spectrum([]), "kron_spectrum needs at least one spectrum"),
    "bloch_coords non-qubit": (lambda: qg.bloch_coords(np.eye(3) / 3), "Bloch coordinates are only defined for 2x2 densities"),
    "herm_eig stack": (lambda: qg.herm_eig(np.stack([HALF, HALF])), "herm_eig takes one matrix, got shape (2, 2, 2)"),
    "ScriptedNoRegret stack factor": (lambda: qg.scripted_team([1.0], [[np.stack([HALF] * 3), HALF]]),
                                      "ScriptedNoRegret profile factor takes one matrix, got shape (3, 2, 2)"),
    "replacement_channel stack": (lambda: qg.replacement_channel(np.stack([HALF] * 3)),
                                  "replacement_channel takes one matrix, got shape (3, 2, 2)"),
    "exp_density 0x0": (lambda: qg.exp_density(np.zeros((0, 0))),
                        "exp_density takes matrices of dim >= 1, got shape (0, 0)"),
    "project_to_density 0x0 stack": (lambda: qg.project_to_density(np.zeros((3, 0, 0))),
                                     "project_to_density takes matrices of dim >= 1, got shape (3, 0, 0)"),
    # a bool epsilon once played as 1.0; it is refused as a zero epsilon is, as Schedule refuses a bool stepsize
    "horizon_for_epsilon bool": (lambda: qg.horizon_for_epsilon(GAME, True), "epsilon must be in (0, 2] for this game"),
    "horizon_for_epsilon numpy bool": (lambda: qg.horizon_for_epsilon(GAME, np.True_),
                                       "epsilon must be in (0, 2] for this game"),
    # an epsilon or a stepsize that is no real number once escaped as a TypeError or as numpy's own error
    **{f"horizon_for_epsilon {e!r}": (lambda e=e: qg.horizon_for_epsilon(GAME, e),
                                      "epsilon must be in (0, 2] for this game")
       for e in ("0.1", None, 1 + 0j, np.array([0.1, 0.2]))},
    **{f"Schedule stepsize {eta!r}": (lambda eta=eta: qg.Schedule("fixed", eta=eta),
                                      f"stepsize must be positive and finite, got {eta}")
       for eta in ("0.1", None, 1 + 0j, np.array([0.1]))},
    # a bound's register dim is an integer >= 1: 2.5 once gave a bound for a fractional register, and 0, -1 and
    # True the bound for a dim-1 one
    **{f"{kind} {bound} dim {d!r}": (lambda kind=kind, bound=bound, d=d: getattr(qg.Schedule(kind), bound)(3, d),
                                     f"dim must be an integer >= 1, got {d!r}")
       for kind in ("fixed", "doubling") for bound in ("cumulative_bound", "average_bound")
       for d in (2.5, 0, -1, True, np.True_, None, "3")},
}


@pytest.mark.parametrize("name", sorted(SHAPE_AND_COUNT_REFUSALS))
def test_a_shape_or_count_refusal_keeps_its_message(name):
    call, message = SHAPE_AND_COUNT_REFUSALS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
