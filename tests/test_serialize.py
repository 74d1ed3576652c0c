import hashlib
import json
import tracemalloc
from math import inf, nan

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qgames as qg
from qgames import serialize as ser
from qgames.cli import main
from qgames.tensor import maxabs


def test_matrix_roundtrip_is_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    text = ser.dumps_canonical(m)
    back = ser.decode_matrix(json.loads(text))
    assert np.array_equal(back, m)


def test_decode_matrix_length_check():
    # a matrix file holds a square matrix of any size, so only a count that is not a square is refused here
    with pytest.raises(ValueError, match="^a square matrix has a square number of entries, got 3$"):
        ser.decode_matrix([[0.0, 0.0]] * 3)
    assert ser.decode_matrix([[0.0, 0.0]] * 9).shape == (3, 3)


def test_game_file_roundtrip(tmp_path):
    g = qg.random_game((2, 3), 7, kind="zero_sum")
    path = tmp_path / "g.json"
    ser.save_game(path, g, seed=7)
    back, obj = ser.load_game(path), ser.read_json(path)
    assert obj["kind"] == "zero_sum" and back.zero_sum
    for r1, r2 in zip(g.tensors, back.tensors):
        assert np.array_equal(r1, r2)
    assert obj["seed"] == 7
    assert all(abs(s - 1.0) < 1e-9 for s in obj["spectral_norms"])


def test_polymatrix_file_roundtrip(tmp_path):
    pg = qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), seed=3)
    path = tmp_path / "pg.json"
    ser.save_game(path, pg)
    back = ser.load_game(path)
    assert ser.read_json(path)["kind"] == "polymatrix"
    assert set(back.edges) == set(pg.edges)
    for key in pg.edges:
        assert np.array_equal(pg.edges[key][0], back.edges[key][0])
        assert np.array_equal(pg.edges[key][1], back.edges[key][1])
    # lifted cancellation still verifies after a file trip
    assert qg.polymatrix_to_qg(back).zero_sum


@pytest.mark.parametrize("flags, kind", [
    (["--kind", "general", "--dims", "2,3,2"], "general"),
    (["--kind", "zero-sum", "--dims", "2,3"], "zero_sum"),
    (["--kind", "polymatrix", "--dims", "2,3,2", "--graph", "cycle"], "polymatrix"),
    (["--kind", "polymatrix", "--dims", "2,3"], "polymatrix"),
], ids=["general", "zero-sum", "polymatrix-cycle", "polymatrix-one-edge"])
def test_generated_files_round_trip_byte_for_byte(tmp_path, flags, kind):
    # the game, not the caller, says which layout it writes: load then save gives back the file and its kind
    path, again = tmp_path / "g.json", tmp_path / "again.json"
    assert main(["gen", *flags, "--seed", "5", "--out", str(path)]) == 0
    ser.save_game(again, ser.load_game(path), seed=5)
    assert ser.read_json(path)["kind"] == kind and again.read_bytes() == path.read_bytes()


def test_dense_game_and_its_one_edge_twin_keep_their_file_kinds(tmp_path):
    # one two-player game in two layouts: each player's one term on all registers, or on the edge, own register first
    rng = np.random.default_rng(9)
    a, b = qg.random_hermitian(6, rng), qg.random_hermitian(6, rng)
    dense = qg.QuantumGame((2, 3), (a, b))
    twin = qg.PolymatrixGame((2, 3), {(0, 1): (a, qg.permute_registers(b, (2, 3), (1, 0)))})
    assert all(np.array_equal(r, s) for r, s in zip(dense.tensors, twin.tensors, strict=True))
    for game, kind in ((dense, "general"), (twin, "polymatrix")):
        path, again = tmp_path / f"{kind}.json", tmp_path / f"{kind}.again.json"
        ser.save_game(path, game)
        ser.save_game(again, ser.load_game(path))
        assert ser.read_json(path)["kind"] == kind and again.read_bytes() == path.read_bytes()


def test_game_fitting_neither_layout_writes_its_dense_lift(tmp_path):
    # a 3-local game: one term per player on all three registers, each with its own register first
    rng = np.random.default_rng(4)
    dims, lift = (2, 3, 2), [qg.random_hermitian(12, rng) for _ in range(3)]
    terms = [[((i, *others), qg.permute_registers(r, dims, (i, *others)))]
             for i, others, r in zip(range(3), ((1, 2), (0, 2), (0, 1)), lift)]
    path = tmp_path / "g.json"
    ser.save_game(path, qg.Game(dims, terms))
    back = ser.load_game(path)
    assert ser.read_json(path)["kind"] == "general" and back.edges is None
    assert all(maxabs(r - s) <= 1e-15 for r, s in zip(back.tensors, lift, strict=True))
    # a pair read from one end only is no edge: the game writes its dense lift, which round-trips
    one_end = qg.Game((2, 3), [[((0, 1), qg.random_hermitian(6, rng))], []])
    assert one_end.edges is None
    path, again = tmp_path / "one_end.json", tmp_path / "one_end.again.json"
    ser.save_game(path, one_end)
    back = ser.load_game(path)
    ser.save_game(again, back)
    assert ser.read_json(path)["kind"] == "general" and again.read_bytes() == path.read_bytes()
    assert all(np.array_equal(r, s) for r, s in zip(back.tensors, one_end.tensors, strict=True))


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


@pytest.mark.parametrize("dims", [None, [], [2, "2"], [2, 0], 4, [1, 2]])
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
    traj = qg.run_game(g, learners, 40, stride=10)
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
    traj2 = qg.run_game(g, learners, 40, stride=10)
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
    g = qg.random_game((2, 2), 7, kind="zero_sum")
    rng = np.random.default_rng(8)
    cert = qg.zs_certificate(g, qg.random_density(2, rng), qg.random_density(2, rng))
    obj = ser.certificate_to_obj(cert, 0.1)
    assert set(obj) == {"certificate", "lower", "value_at", "upper", "width", "tol", "verdict"}
    json.dumps(obj)  # plain JSON types only


def test_sha256_file(tmp_path):
    p = tmp_path / "x"
    p.write_bytes(b"abc")
    assert ser.sha256_file(p) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    # a file of several 1 MiB blocks and a partial one hashes like its bytes in one piece
    data = np.random.default_rng(1).bytes(3 * 2**20 + 1)
    p.write_bytes(data)
    assert ser.sha256_file(p) == hashlib.sha256(data).hexdigest()


# -- byte-identical fast writers ----------------------------------------------------


def as_pairs(obj):
    """``obj`` with each numpy array replaced by the row-major list of its entries' [re, im] pairs."""
    if isinstance(obj, np.ndarray):
        return [[z.real, z.imag] for z in obj.astype(complex).ravel().tolist()]
    if isinstance(obj, dict):
        return {key: as_pairs(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_pairs(val) for val in obj]
    return obj


def reference_dumps(obj):
    return json.dumps(as_pairs(obj), sort_keys=True, indent=2) + "\n"


any_float = st.floats(allow_nan=True, allow_infinity=True)
pair_lists = st.lists(st.lists(any_float, min_size=2, max_size=2), max_size=6)
complex_arrays = hnp.arrays(
    st.sampled_from([complex, float]), hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=any_float,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | any_float | st.text(max_size=5) | pair_lists | complex_arrays,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


def pairs_across_blocks():
    """A 20x55 complex array, nine write blocks, with nan and infinities on both sides of some block edges."""
    pairs = [[0.5 * i, -1.0 / (i + 1)] for i in range(1100)]
    for i, x in ((0, nan), (511, inf), (512, -inf), (1023, nan), (1024, inf), (1099, -inf)):
        pairs[i][i % 2] = x
    return {"matrix": np.array([complex(*p) for p in pairs]).reshape(20, 55), "tail": [pairs[:3], 1]}


def assert_writes_canonical(obj, path):
    """write_json writes the bytes of json.dumps and returns their SHA-256."""
    digest = ser.write_json(path, obj)
    assert path.read_bytes() == reference_dumps(obj).encode()
    assert digest == ser.sha256_file(path)


@settings(deadline=None)
@given(json_values)
@example(pairs_across_blocks())
def test_dumps_canonical_matches_json_dumps(tmp_path_factory, obj):
    assert ser.dumps_canonical(obj) == reference_dumps(obj)
    assert_writes_canonical(obj, tmp_path_factory.getbasetemp() / "canonical.json")


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
def test_file_objects_dump_like_json_dumps(tmp_path_factory, game_seed, bound_scale):
    game, seed = game_seed
    rho = qg.random_density(game.joint_dim, np.random.default_rng(seed))
    objs = [
        ser.game_to_obj(game, seed=seed),
        {"dims": list(game.dims), "matrix": rho},
        {"game_hash": "ab" * 32, "seeds": {"game": seed, "run": seed}, "learner_kinds": ["mmwu"] * game.n_players,
         "schedule": {"kind": "fixed", "eta": 0.1, "base_epoch": 8}, "T": 10, "stride": 1, "gap_mode": "qcce",
         "bound_scale": bound_scale, "tool_version": "0.1.0"},
        ser.report_to_obj(qg.is_qne(game, rho)),
    ]
    for obj in objs:
        assert ser.dumps_canonical(obj) == reference_dumps(obj)
        assert_writes_canonical(obj, tmp_path_factory.getbasetemp() / "file_object.json")


# -- every file a writer accepts loads back bit for bit -------------------------------


file_dims = st.lists(st.sampled_from([True, 1, 2, 3, 2.0]), min_size=1, max_size=3)
entries = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([nan, inf, -inf])


@st.composite
def states(draw):
    """Dims drawn from legal and illegal entries, and a matrix of their joint size, some of its entries not finite."""
    dims = draw(file_dims)
    n = int(np.prod([int(d) for d in dims]))
    values = draw(st.lists(entries, min_size=2 * n * n, max_size=2 * n * n))
    return dims, np.array(values).view(complex).reshape(n, n)


@settings(deadline=None, max_examples=150)
@given(states())
@example(([1, 2], np.eye(2) / 2))   # a register of dimension 1, which the library allows
@example(([2], np.array([[0.5, nan], [nan, 0.5]])))
def test_save_state_writes_only_what_load_state_reads_back(tmp_path_factory, dims_rho):
    dims, rho = dims_rho
    path = tmp_path_factory.getbasetemp() / "roundtrip_state.json"
    path.unlink(missing_ok=True)
    try:
        ser.save_state(path, rho, dims)
    except ValueError:
        assert not path.exists()
        return
    back_dims, back = ser.load_state(path)
    assert back_dims == tuple(dims) and back.view(float).tobytes() == rho.view(float).tobytes()


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=3), st.booleans(), st.integers(0, 2**16))
@example([1, 2], False, 0)
def test_save_game_writes_only_what_load_game_reads_back(tmp_path_factory, dims, polymatrix, seed):
    # the library allows registers of dimension 1; a file does not, so a game with one is refused before writing
    game = (qg.random_polymatrix(dims, qg.graph_edges("path", len(dims)), seed) if polymatrix
            else qg.random_game(dims, seed))
    path = tmp_path_factory.getbasetemp() / "roundtrip_game.json"
    path.unlink(missing_ok=True)
    try:
        ser.save_game(path, game, seed=seed)
    except ValueError:
        assert 1 in dims and not path.exists()
        return
    back = ser.load_game(path)
    assert back.dims == game.dims
    for mine, theirs in zip(game.terms, back.terms, strict=True):
        for (regs, r), (back_regs, back_r) in zip(mine, theirs, strict=True):
            assert regs == back_regs and r.tobytes() == back_r.tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_save_game_refuses_a_seed_no_generator_takes(tmp_path, seed):
    # random_game, random_polymatrix and gen all take seeds >= 0, so a file's seed is one too
    path = tmp_path / "g.json"
    with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed}$"):
        ser.save_game(path, qg.random_game((2, 2), 1), seed=seed)
    assert not path.exists()


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


@pytest.mark.parametrize("dims,learners,T", [
    ((2, 2), "mmwu", 30),
    ((2, 3, 2), "mmwu", 30),
    ((3, 3), "ftrl", 30),   # FTRL has no regret bound: the bound column is nan
    ((2, 2), "mmwu", 4205),   # 601 rows, the last one off the stride
], ids=["dims0-mmwu", "dims1-mmwu", "dims2-ftrl", "601-rows"])
def test_trajectory_csv_matches_per_cell_repr(tmp_path, dims, learners, T):
    g = qg.random_game(dims, 23)
    if learners == "mmwu":
        team = [qg.MMWU(d, qg.doubling_schedule()) for d in dims]
    else:
        team = [qg.FrobeniusFTRL(d, 0.2) for d in dims]
    traj = qg.run_game(g, team, T, stride=7)
    path = tmp_path / "t.csv"
    ser.write_trajectory_csv(path, traj)
    assert path.read_bytes() == reference_csv(traj)


# -- writer memory --------------------------------------------------------------------


@pytest.fixture(scope="module")
def game444_files():
    """The (4,4,4) general game's file object and its epsilon = 0.1 trajectory at stride 1 (555 rows)."""
    game = qg.random_game((4, 4, 4), 2310)
    eta, horizon = qg.horizon_for_epsilon(game, 0.1)
    traj = qg.run_game(game, [qg.MMWU(4, qg.fixed_schedule(eta)) for _ in range(3)], horizon, stride=1)
    return ser.game_to_obj(game, seed=2310), traj


@pytest.mark.parametrize("kind", ["json", "csv"])
def test_writers_hold_a_block_not_the_file(tmp_path, game444_files, kind):
    obj, traj = game444_files
    write, arg = (ser.write_json, obj) if kind == "json" else (ser.write_trajectory_csv, traj)
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        write(path, arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * path.stat().st_size, (peak, path.stat().st_size)


@pytest.mark.parametrize("kind", ["game", "state"])
def test_save_writers_format_matrices_in_place(tmp_path, kind):
    """save_game and save_state format each matrix block by block from its array: no copy of the file as lists."""
    if kind == "game":
        game = qg.random_game((4, 4, 4), 2310)
        write = lambda path: ser.save_game(path, game, seed=2310)
    else:
        rho = qg.random_density(64, np.random.default_rng(3))
        write = lambda path: ser.save_state(path, rho, (4, 4, 4))
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        write(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * path.stat().st_size, (peak, path.stat().st_size)
