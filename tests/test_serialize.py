import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgames as qg
from qgames import serialize as ser
from qgames.tensor import maxabs


def test_matrix_roundtrip_is_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    text = json.dumps(ser.encode_matrix(m))
    back = ser.decode_matrix(json.loads(text), 3, 3)
    assert np.array_equal(back, m)


def test_decode_matrix_length_check():
    with pytest.raises(ValueError):
        ser.decode_matrix([[0.0, 0.0]], 2, 2)


def test_game_file_roundtrip(tmp_path):
    g = qg.random_game((2, 3), 7, kind="zero_sum")
    path = tmp_path / "g.json"
    ser.save_game(path, g, seed=7)
    kind, back = ser.load_game(path)
    assert kind == "zero_sum" and back.zero_sum
    for r1, r2 in zip(g.tensors, back.tensors):
        assert np.array_equal(r1, r2)
    obj = ser.read_json(path)
    assert obj["seed"] == 7
    assert all(abs(s - 1.0) < 1e-9 for s in obj["spectral_norms"])


def test_polymatrix_file_roundtrip(tmp_path):
    pg = qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), seed=3)
    path = tmp_path / "pg.json"
    ser.save_game(path, pg)
    kind, back = ser.load_game(path)
    assert kind == "polymatrix"
    assert set(back.edges) == set(pg.edges)
    for key in pg.edges:
        assert np.array_equal(pg.edges[key][0], back.edges[key][0])
        assert np.array_equal(pg.edges[key][1], back.edges[key][1])
    # lifted cancellation still verifies after a file trip
    assert qg.polymatrix_to_qg(back).zero_sum


def test_corrupted_zero_sum_file_rejected_on_load(tmp_path):
    g = qg.random_game((2, 2), 1, kind="zero_sum")
    path = tmp_path / "g.json"
    ser.save_game(path, g)
    obj = ser.read_json(path)
    obj["tensors"][1][0][0] += 0.5  # break the cancellation
    ser.write_json(path, obj)
    with pytest.raises(ValueError):
        ser.load_game(path)


def test_state_file_roundtrip(tmp_path):
    rho = qg.random_density(4, np.random.default_rng(2))
    path = tmp_path / "s.json"
    ser.save_state(path, rho, (2, 2))
    dims, back = ser.load_state(path)
    assert dims == (2, 2)
    assert np.array_equal(back, rho)


@pytest.mark.parametrize("dims", [None, [], [2, "2"], [2, 0], 4])
def test_malformed_dims_rejected_on_load(tmp_path, dims):
    game, state = tmp_path / "g.json", tmp_path / "s.json"
    ser.save_game(game, qg.random_game((2, 2), 3))
    ser.save_state(state, np.eye(4) / 4, (2, 2))
    for path, loader in ((game, ser.load_game), (state, ser.load_state)):
        obj = ser.read_json(path)
        obj["dims"] = dims
        ser.write_json(path, obj)
        with pytest.raises(ValueError, match="dims"):
            loader(path)


def test_non_object_files_rejected_on_load(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for loader in (ser.load_game, ser.load_state):
        with pytest.raises(ValueError):
            loader(path)


@pytest.mark.parametrize(
    "kind, path, message",
    [
        ("state", ("matrix",), 'state file has no "matrix" field'),
        ("general", ("kind",), 'game file has no "kind" field'),
        ("general", ("tensors",), 'game file has no "tensors" field'),
        ("polymatrix", ("edges",), 'game file has no "edges" field'),
        ("polymatrix", ("edges", 1, "r_ji"), 'game file edge has no "r_ji" field'),
    ],
)
def test_missing_fields_are_named_on_load(tmp_path, kind, path, message):
    file = tmp_path / "f.json"
    if kind == "state":
        ser.save_state(file, np.eye(4) / 4, (2, 2))
    elif kind == "general":
        ser.save_game(file, qg.random_game((2, 2), 3))
    else:
        ser.save_game(file, qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), 5))
    obj = ser.read_json(file)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    ser.write_json(file, obj)
    with pytest.raises(ValueError) as err:
        (ser.load_state if kind == "state" else ser.load_game)(file)
    assert str(err.value) == message


def test_save_game_is_deterministic(tmp_path):
    g = qg.random_game((2, 2), 11)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    ser.save_game(p1, g, seed=11)
    ser.save_game(p2, g, seed=11)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_trajectory_csv_schema_and_determinism(tmp_path):
    g = qg.random_game((2, 2), 4, kind="zero_sum")
    learners = [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)]
    traj = qg.run_game(g, learners, 40, stride=10, gap_mode="qne", bound_scale=2.0)
    path = tmp_path / "t.csv"
    ser.write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "t",
        "u_0", "u_1",
        "avg_regret_0", "avg_regret_1",
        "gap_0", "gap_1",
        "bound",
        "joint_eig_0", "joint_eig_1", "joint_eig_2", "joint_eig_3",
        "avg_joint_eig_0", "avg_joint_eig_1", "avg_joint_eig_2", "avg_joint_eig_3",
        "bloch_0_x", "bloch_0_y", "bloch_0_z",
        "bloch_1_x", "bloch_1_y", "bloch_1_z",
    ]
    assert len(lines) == 1 + 4
    assert [row.split(",")[0] for row in lines[1:]] == ["10", "20", "30", "40"]
    # parsed floats round-trip exactly against the in-memory trajectory
    row0 = [float(x) for x in lines[1].split(",")[1:]]
    assert row0[0] == traj.utils[0][0]
    learners = [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)]
    traj2 = qg.run_game(g, learners, 40, stride=10, gap_mode="qne", bound_scale=2.0)
    path2 = tmp_path / "t2.csv"
    ser.write_trajectory_csv(path2, traj2)
    assert path.read_bytes() == path2.read_bytes()


def test_report_serialization_fields():
    g = qg.random_game((2, 2), 5)
    rho = qg.random_density(4, np.random.default_rng(6))
    obj = ser.report_to_obj(qg.is_qcce(g, rho, tol=1e-6))
    assert set(obj) == {"certificate", "gaps", "max_gap", "tol", "verdict"}
    obj = ser.report_to_obj(qg.is_qne(g, rho, tol=1e-6))
    assert "product_defect" in obj
    zs = qg.zs_from_game(qg.random_game((2, 2), 7, kind="zero_sum"))
    rng = np.random.default_rng(8)
    cert = qg.zs_certificate(zs, qg.random_density(2, rng), qg.random_density(2, rng))
    obj = ser.certificate_to_obj(cert, 0.1)
    assert set(obj) == {"certificate", "lower", "value_at", "upper", "width", "tol", "verdict"}
    json.dumps(obj)  # plain JSON types only


def test_sha256_file(tmp_path):
    p = tmp_path / "x"
    p.write_bytes(b"abc")
    assert ser.sha256_file(p) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


# -- byte-identical fast writers ----------------------------------------------------


def reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


any_float = st.floats(allow_nan=True, allow_infinity=True)
pair_lists = st.lists(st.lists(any_float, min_size=2, max_size=2), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | any_float | st.text(max_size=5) | pair_lists,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@settings(deadline=None)
@given(json_values)
def test_dumps_canonical_matches_json_dumps(obj):
    assert ser.dumps_canonical(obj) == reference_dumps(obj)


@st.composite
def games(draw):
    """A random dense (general or two-player zero-sum) or polymatrix (cycle or path) game and its seed."""
    seed = draw(st.integers(0, 2**16))
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=3)))
    kind = draw(st.sampled_from(["general", "zero_sum", "cycle", "path"]))
    if kind == "general":
        return qg.random_game(dims, seed), seed
    if kind == "zero_sum":
        return qg.random_game(dims[:2], seed, "zero_sum"), seed
    return qg.random_polymatrix(dims, qg.graph_edges(kind, len(dims)), seed), seed


@settings(deadline=None, max_examples=30)
@given(games(), any_float)
def test_file_objects_dump_like_json_dumps(game_seed, bound_scale):
    game, seed = game_seed
    rho = qg.random_density(game.joint_dim, np.random.default_rng(seed))
    objs = [
        ser.game_to_obj(game, seed=seed),
        {"dims": list(game.dims), "matrix": ser.encode_matrix(rho)},
        ser.manifest_obj("ab" * 32, {"game": seed, "run": seed}, ["mmwu"] * game.n_players,
                         {"kind": "fixed", "eta": 0.1, "base_epoch": 8}, 10, 1, "qcce", bound_scale, "0.1.0"),
        ser.report_to_obj(qg.is_qne(game, rho)),
    ]
    for obj in objs:
        assert ser.dumps_canonical(obj) == reference_dumps(obj)


def reference_csv(traj):
    """The trajectory CSV rendered cell by cell with repr(float(x))."""
    qubit_players = [i for i, d in enumerate(traj.dims) if d == 2]
    lines = [",".join(ser.trajectory_header(traj.dims))]
    for row, t in enumerate(traj.checkpoints):
        cells = [str(int(t))]
        for arr in (traj.utils, traj.avg_regret, traj.gaps):
            cells += [repr(float(x)) for x in arr[row]]
        cells.append(repr(float(traj.bound[row])))
        cells += [repr(float(x)) for x in traj.joint_eigs[row]]
        cells += [repr(float(x)) for x in traj.avg_joint_eigs[row]]
        for i in qubit_players:
            cells += [repr(float(x)) for x in traj.bloch[i][row]]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("dims,learners", [
    ((2, 2), "mmwu"),
    ((2, 3, 2), "mmwu"),
    ((3, 3), "ftrl"),   # FTRL has no regret bound: the bound column is nan
])
def test_trajectory_csv_matches_per_cell_repr(tmp_path, dims, learners):
    g = qg.random_game(dims, 23)
    if learners == "mmwu":
        team = [qg.MMWU(d, qg.doubling_schedule()) for d in dims]
    else:
        team = [qg.FrobeniusFTRL(d, 0.2) for d in dims]
    traj = qg.run_game(g, team, 30, stride=7)
    path = tmp_path / "t.csv"
    ser.write_trajectory_csv(path, traj)
    assert path.read_bytes() == reference_csv(traj)
