"""One rule per input: sizes and register indices are integers, never truncated floats.

Every entry point that takes a register size or index sends it through
``operator.index`` (``tensor._check_ints`` for sequences, ``tensor._check_int``
for scalars), so a float raises ``ValueError`` where ``int()`` used to cut it
down, and numpy integers pass as Python ints do.
"""

import json

import numpy as np
import pytest

import qgames as qg
from qgames import serialize as ser

RHO = np.eye(4, dtype=complex) / 4
HALF = np.eye(2, dtype=complex) / 2


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
}


@pytest.mark.parametrize("name", sorted(FLOAT_SIZES_AND_INDICES))
def test_a_float_size_or_index_is_rejected(tmp_path, name):
    with pytest.raises(ValueError):
        FLOAT_SIZES_AND_INDICES[name](tmp_path)
    assert not (tmp_path / "s.json").exists()


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
    assert qg.random_polymatrix(dims, [(np.int64(0), np.int64(1))], seed=1).edges.keys() == {(0, 1)}
    assert qg.random_game(dims, 1).dims == (2, 2)
    ser.save_state(tmp_path / "s.json", rho, dims)
    assert json.loads((tmp_path / "s.json").read_text())["dims"] == [2, 2]
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
    with pytest.raises(ValueError, match="out of range"):
        qg.lift_channel(qg.choi_of_identity(2), (2, 2), 2)


def test_each_hermitian_gate_keeps_its_message():
    skew = np.triu(np.ones((4, 4)))
    with pytest.raises(ValueError, match="^utility tensors must be Hermitian$"):
        qg.QuantumGame((2, 2), (skew, skew))
    with pytest.raises(ValueError, match=r"^Choi matrix must be Hermitian \(Hermiticity-preserving maps only\)$"):
        qg.ChoiMatrix(skew, 2, 2)
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        qg.herm_eig(skew)
