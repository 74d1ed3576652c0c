import json

import numpy as np
import pytest

import qgames as qg
from qgames import serialize as ser
from qgames.cli import main
from qgames.tensor import PAULI_Z, maxabs


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_gen_zero_sum_structure_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--kind", "zero-sum", "--dims", "2,2", "--seed", "7", "--out", str(p1)]) == 0
    assert main(["gen", "--kind", "zero-sum", "--dims", "2,2", "--seed", "7", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    _, g = ser.load_game(p1)
    assert maxabs(g.tensors[0] + g.tensors[1]) == 0


def test_gen_polymatrix_cancellation_verified_on_load(tmp_path):
    path = tmp_path / "pg.json"
    rc = main(["gen", "--kind", "polymatrix", "--dims", "2,2,2", "--graph", "cycle3",
               "--pairwise-zero-sum", "--seed", "3", "--out", str(path)])
    assert rc == 0
    _, pg = ser.load_game(path)
    lifted = qg.polymatrix_to_qg(pg)
    assert maxabs(sum(lifted.tensors)) <= 1e-9


def test_gen_invalid_spec_exits_1(tmp_path, capsys):
    assert main(["gen", "--kind", "polymatrix", "--dims", "2,2", "--graph", "star2",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_unwritable_path_exits_2(tmp_path):
    assert main(["gen", "--kind", "general", "--dims", "2,2",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")]) == 2


def test_run_zero_sum_csv_schema(tmp_path):
    game = tmp_path / "zs.json"
    out = tmp_path / "run"
    main(["gen", "--kind", "zero-sum", "--dims", "2,2", "--seed", "5", "--out", str(game)])
    assert main(["run", "--game", str(game), "--eta", "0.1", "--T", "200",
                 "--stride", "10", "--out", str(out)]) == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert sum(c.startswith("joint_eig_") for c in header) == 4
    assert sum(c.startswith("avg_joint_eig_") for c in header) == 4
    for i in range(2):
        assert {f"bloch_{i}_x", f"bloch_{i}_y", f"bloch_{i}_z"} <= set(header)
    # Bloch vectors live in the unit ball
    for row in rows:
        for i in range(2):
            r2 = sum(float(row[f"bloch_{i}_{c}"]) ** 2 for c in "xyz")
            assert r2 <= 1 + 1e-9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["game_hash"] == ser.sha256_file(game)
    assert manifest["T"] == 200 and manifest["gap_mode"] == "qne"
    assert manifest["learner_kinds"] == ["mmwu", "mmwu"]


def test_run_general_epsilon_horizon_and_bound_column(tmp_path):
    game = tmp_path / "g.json"
    out = tmp_path / "run"
    main(["gen", "--kind", "general", "--dims", "2,2", "--seed", "1", "--out", str(game)])
    assert main(["run", "--game", str(game), "--epsilon", "0.2", "--stride", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["T"] == 70 and abs(manifest["schedule"]["eta"] - 0.1) < 1e-12
    _, rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 70
    # exploitability column stays below the emitted theoretical bound column
    for row in rows:
        gap = max(float(row["gap_0"]), float(row["gap_1"]))
        assert gap <= float(row["bound"]) + 1e-9
    assert max(float(rows[-1][f"gap_{i}"]) for i in range(2)) <= 0.2 + 1e-6


def test_run_rerun_is_byte_identical(tmp_path):
    game = tmp_path / "g.json"
    main(["gen", "--kind", "zero-sum", "--dims", "2,2", "--seed", "9", "--out", str(game)])
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", "--game", str(game), "--epsilon", "0.4", "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "trajectory.csv").read_bytes() == (outs[1] / "trajectory.csv").read_bytes()
    assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


def test_run_flag_validation(tmp_path, capsys):
    game = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--dims", "2,2", "--seed", "2", "--out", str(game)])
    out = str(tmp_path / "run")
    assert main(["run", "--game", str(game), "--out", out]) == 1
    assert main(["run", "--game", str(game), "--epsilon", "0.2", "--T", "10", "--out", out]) == 1
    assert main(["run", "--game", str(game), "--T", "10", "--out", out]) == 1
    assert main(["run", "--game", str(game), "--epsilon", "0.2", "--learners", "mmwu",
                 "--out", out]) == 1
    capsys.readouterr()


def test_run_doubling_schedule_and_ftrl(tmp_path):
    game = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--dims", "2,2", "--seed", "3", "--out", str(game)])
    assert main(["run", "--game", str(game), "--T", "64", "--schedule", "doubling",
                 "--out", str(tmp_path / "dbl")]) == 0
    assert main(["run", "--game", str(game), "--T", "64", "--eta", "0.2",
                 "--learners", "ftrl,mmwu", "--out", str(tmp_path / "ftrl")]) == 0
    _, rows = read_csv(tmp_path / "dbl" / "trajectory.csv")
    for row in rows:
        gap = max(float(row["gap_0"]), float(row["gap_1"]))
        assert gap <= float(row["bound"]) + 1e-9


def test_run_polymatrix_game(tmp_path):
    game = tmp_path / "pg.json"
    main(["gen", "--kind", "polymatrix", "--dims", "2,2,2", "--graph", "cycle", "--seed", "4",
          "--out", str(game)])
    out = tmp_path / "run"
    assert main(["run", "--game", str(game), "--epsilon", "0.3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["gap_mode"] == "qne" and manifest["bound_scale"] == 3.0
    assert manifest["T"] == 278


def test_run_batch_inline(tmp_path):
    out = tmp_path / "batch"
    assert main(["run", "--kind", "general", "--dims", "2,2", "--epsilon", "0.4",
                 "--seed", "50", "--runs", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["run_000", "run_001", "run_002"]
    # distinct seeds make distinct games; each run dir is self-contained
    g0 = (out / "run_000" / "game.json").read_bytes()
    g1 = (out / "run_001" / "game.json").read_bytes()
    assert g0 != g1
    # batch against a fixed game file is refused, and so is an empty batch
    game = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--dims", "2,2", "--seed", "2", "--out", str(game)])
    assert main(["run", "--game", str(game), "--epsilon", "0.4", "--runs", "2",
                 "--out", str(tmp_path / "bad")]) == 1
    assert main(["run", "--kind", "general", "--dims", "2,2", "--epsilon", "0.4", "--runs", "0",
                 "--out", str(tmp_path / "empty")]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "zero-sum", "--eta", "0.1"],
        ["--kind", "general", "--dims", "2,3", "--schedule", "doubling"],
        ["--kind", "general", "--eta", "0.2", "--learners", "ftrl,mmwu"],
        ["--kind", "polymatrix", "--dims", "2,3,2", "--eta", "0.1"],
    ],
    ids=["mmwu-fixed", "mmwu-doubling", "ftrl", "polymatrix"],
)
def test_run_batch_matches_single_runs_byte_for_byte(tmp_path, flags):
    common = ["run", *flags, "--T", "60", "--stride", "7"]
    batch = tmp_path / "batch"
    assert main(common + ["--seed", "40", "--runs", "8", "--out", str(batch)]) == 0
    for r in range(8):
        single = tmp_path / f"single{r}"
        assert main(common + ["--seed", str(40 + r), "--out", str(single)]) == 0
        for name in ("game.json", "trajectory.csv", "manifest.json"):
            assert (batch / f"run_{r:03d}" / name).read_bytes() == (single / name).read_bytes(), (r, name)


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_run_rejects_non_finite_eta(tmp_path, capsys, eta):
    rc = main(["run", "--kind", "general", "--dims", "2,2", "--eta", eta, "--T", "10",
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1 and "stepsize" in err and "Traceback" not in err


def test_run_rejects_malformed_game_files(tmp_path, capsys):
    game = tmp_path / "g.json"
    ser.save_game(game, qg.random_game((2, 2), 3))
    obj = json.loads(game.read_text())
    few = tmp_path / "few.json"
    few.write_text(json.dumps({**obj, "tensors": obj["tensors"][:1]}))
    nulldims = tmp_path / "nulldims.json"
    nulldims.write_text(json.dumps({**obj, "dims": None}))
    for bad in (few, nulldims):
        rc = main(["run", "--game", str(bad), "--eta", "0.1", "--T", "10", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc in (1, 2) and err.startswith("error:") and "Traceback" not in err, bad.name


def _null_tensors(obj):
    return {**obj, "tensors": None}


def _null_edges(obj):
    return {**obj, "edges": None}


def _edge_out_of_range(obj):
    return {**obj, "edges": [{**obj["edges"][0], "j": 7}] + obj["edges"][1:]}


def _duplicate_edge(obj):
    e = obj["edges"][0]
    return {**obj, "edges": obj["edges"] + [{**e, "i": e["j"], "j": e["i"]}]}


def _unknown_kind(obj):
    return {**obj, "kind": "potential"}


def _matrix_not_a_list(obj):
    return {**obj, "tensors": [None] + obj["tensors"][1:]}


def _bad_matrix_entry(obj):
    return {**obj, "edges": [{**obj["edges"][0], "r_ij": [[None, 0.0]] + obj["edges"][0]["r_ij"][1:]}] + obj["edges"][1:]}


def _bool_matrix_entry(obj):
    # the first entry sits on the diagonal, so its imaginary part is 0.0 and False has the same value
    first, *rest = obj["tensors"][0]
    assert first[1] == 0.0
    return {**obj, "tensors": [[[first[0], False]] + rest] + obj["tensors"][1:]}


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("general", _null_tensors),
        ("polymatrix", _null_edges),
        ("polymatrix", _edge_out_of_range),
        ("polymatrix", _duplicate_edge),
        ("general", _unknown_kind),
        ("general", _matrix_not_a_list),
        ("polymatrix", _bad_matrix_entry),
        ("general", _bool_matrix_entry),
    ],
    ids=[
        "null-tensors", "null-edges", "edge-out-of-range", "duplicate-edge",
        "unknown-kind", "matrix-not-a-list", "bad-matrix-entry", "bool-matrix-entry",
    ],
)
def test_run_rejects_malformed_game_fields(tmp_path, capsys, kind, corrupt):
    game = tmp_path / "g.json"
    main(["gen", "--kind", kind, "--dims", "2,2,2", "--seed", "3", "--out", str(game)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(game.read_text()))))
    rc = main(["run", "--game", str(bad), "--eta", "0.1", "--T", "10", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "Traceback" not in err


def test_bloch_norm_approaches_one_on_convergent_fixture(tmp_path):
    # constant gain sigma_z drives the first player to a pure boundary state
    g = qg.zero_sum_game(qg.kron(PAULI_Z, np.eye(2, dtype=complex)) / 1.0, 2, 2)
    game = tmp_path / "conv.json"
    ser.save_game(game, g)
    out = tmp_path / "run"
    assert main(["run", "--game", str(game), "--eta", "0.2", "--T", "300",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "trajectory.csv")
    last = rows[-1]
    norm = np.sqrt(sum(float(last[f"bloch_0_{c}"]) ** 2 for c in "xyz"))
    assert abs(norm - 1.0) <= 1e-3


def test_verify_qcce_verdicts(tmp_path, capsys):
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    game = tmp_path / "me.json"
    ser.save_game(game, qg.maxent_game(a, a))
    state = tmp_path / "mm.json"
    ser.save_state(state, np.eye(4) / 4, (2, 2))
    rc = main(["verify", "--game", str(game), "--state", str(state), "--kind", "qcce",
               "--tol", "1e-9"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["verdict"] is True

    bad = tmp_path / "bad.json"
    ser.save_state(bad, qg.random_density(4, np.random.default_rng(1)), (2, 2))
    gamer = tmp_path / "rand.json"
    ser.save_game(gamer, qg.random_game((2, 2), 8))
    rc = main(["verify", "--game", str(gamer), "--state", str(bad), "--kind", "qcce"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and out["verdict"] is False and out["max_gap"] > 0


def test_verify_zs_value_matching_pennies(tmp_path, capsys):
    mp = qg.classical_embed([np.array([[1.0, -1.0], [-1.0, 1.0]]),
                             np.array([[-1.0, 1.0], [1.0, -1.0]])])
    game = tmp_path / "mp.json"
    ser.save_game(game, mp)
    state = tmp_path / "unif.json"
    ser.save_state(state, np.eye(4) / 4, (2, 2))
    rc = main(["verify", "--game", str(game), "--state", str(state), "--kind", "zs-value",
               "--tol", "1e-8"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(out["lower"]) < 1e-12 and abs(out["upper"]) < 1e-12


def test_verify_zs_value_on_two_player_polymatrix_file(tmp_path, capsys):
    pg = qg.random_polymatrix((2, 3), [(0, 1)], seed=21)
    game, lifted_game = tmp_path / "pg.json", tmp_path / "lifted.json"
    ser.save_game(game, pg)
    ser.save_game(lifted_game, qg.polymatrix_to_qg(pg))
    state = tmp_path / "unif.json"
    ser.save_state(state, np.eye(6) / 6, (2, 3))
    outs = []
    for path in (game, lifted_game):
        rc = main(["verify", "--game", str(path), "--state", str(state), "--kind", "zs-value", "--tol", "0.5"])
        outs.append((rc, capsys.readouterr().out))
    assert outs[0] == outs[1]
    three = tmp_path / "pg3.json"
    ser.save_game(three, qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), seed=22))
    ser.save_state(state, np.eye(8) / 8, (2, 2, 2))
    assert main(["verify", "--game", str(three), "--state", str(state), "--kind", "zs-value"]) == 1
    assert "two-player zero-sum" in capsys.readouterr().err


def test_verify_rejects_non_density_and_mislabelled_states(tmp_path, capsys):
    game = tmp_path / "g.json"
    ser.save_game(game, qg.random_game((2, 2), 1))
    rho = qg.random_density(4, np.random.default_rng(2))
    for name, matrix, dims in [("half", rho / 2, (2, 2)), ("flat", np.eye(4) / 4, (4,))]:
        state = tmp_path / f"{name}.json"
        ser.save_state(state, matrix, dims)
        rc = main(["verify", "--game", str(game), "--state", str(state), "--kind", "qcce"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and captured.err.startswith("error:"), name


def test_verify_names_a_missing_state_field(tmp_path, capsys):
    game = tmp_path / "g.json"
    ser.save_game(game, qg.random_game((2, 2), 1))
    rc = main(["verify", "--game", str(game), "--state", str(game), "--kind", "qcce"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and captured.err == 'error: state file has no "matrix" field\n'


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1e-6"])
@pytest.mark.parametrize("kind", ["qcce", "qne", "zs-value"])
def test_verify_rejects_non_finite_or_negative_tol(tmp_path, capsys, kind, tol):
    # the maximally mixed state is no 1e-6 certificate of these games; no --tol may make it one
    game, state = tmp_path / "g.json", tmp_path / "s.json"
    ser.save_game(game, qg.random_game((2, 2), 8, "zero_sum" if kind == "zs-value" else "general"))
    ser.save_state(state, np.eye(4) / 4, (2, 2))
    rc = main(["verify", "--game", str(game), "--state", str(state), "--kind", kind, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and captured.err.startswith("error: --tol"), captured.err


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize(
    "flags",
    [
        ["--T", "5", "--eta", "0.1", "--stride", "0"],
        ["--T", "0", "--eta", "0.1"],
        ["--T", "5", "--eta", "0.1", "--learners", "mmwu"],
        ["--T", "5"],
        ["--T", "5", "--schedule", "doubling", "--learners", "ftrl,mmwu"],
        ["--T", "5", "--schedule", "doubling", "--eta", "0.5"],
    ],
    ids=["stride-0", "T-0", "learner-count", "T-without-eta", "ftrl-doubling", "eta-with-doubling"],
)
def test_rejected_run_writes_nothing(tmp_path, capsys, flags, runs):
    out = tmp_path / "o"
    rc = main(["run", "--kind", "general", "--dims", "2,2", *flags, "--runs", str(runs), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_deeply_nested_files_exit_1(tmp_path, capsys):
    game, state = tmp_path / "g.json", tmp_path / "s.json"
    ser.save_game(game, qg.random_game((2, 2), 1))
    ser.save_state(state, np.eye(4) / 4, (2, 2))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    for argv in (["verify", "--game", str(deep), "--state", str(state), "--kind", "qcce"],
                 ["verify", "--game", str(game), "--state", str(deep), "--kind", "qcce"],
                 ["run", "--game", str(deep), "--eta", "0.1", "--T", "3", "--out", str(tmp_path / "run")]):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and "nested too deeply" in err, argv


def test_verify_malformed_files_exit_2(tmp_path, capsys):
    game = tmp_path / "g.json"
    ser.save_game(game, qg.random_game((2, 2), 1))
    missing = tmp_path / "missing.json"
    assert main(["verify", "--game", str(game), "--state", str(missing), "--kind", "qcce"]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["verify", "--game", str(game), "--state", str(garbled), "--kind", "qcce"]) == 2
    capsys.readouterr()


def test_maxent_demo(capsys):
    rc = main(["maxent", "--a", "1,0;0,0"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["bell_index"] == [0, 0]
    assert out["scalar_condition"] is True
    assert out["spectrahedral"]["verdict"] is True
    assert out["witness"] == "entangled"
    assert out["agreement"] is True


def test_maxent_constant_payoff_boundary(capsys):
    rc = main(["maxent", "--a", "1,1;1,1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["scalar_condition"] is True and out["agreement"] is True


def test_maxent_bad_shape_exits_1(capsys):
    assert main(["maxent", "--a", "1,0,0;0,0,0"]) == 1
    capsys.readouterr()
