"""Fuzzing of the game and state loaders through ``qgames verify`` and ``qgames run``.

Each example takes a saved game or state file, applies one mutation at one
node of its JSON tree (drop it, replace it, wrap it in a list, or nest it
thousands of levels deep) and runs the command on the result.  Whatever the
mutation, the command must exit 0, 1 or 2, raise nothing, warn nothing and
write nothing to stderr but an ``error:`` line.  A mutation that leaves a
matrix entry anything but a finite number must exit 1.
"""

import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgames as qg
from qgames import serialize as ser
from qgames.cli import main

DEEP = "@@deep@@"   # stands for a value nested thousands of levels deep, spliced into the text
REPLACEMENTS = [None, True, False, "1", [], {}, [1.0, 0.0], float("nan"), float("inf"), -float("inf"),
                10**400, -1, 0, 2, 0.5]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The unmutated files, by name, as parsed JSON, and the directory the mutants go to."""
    root = tmp_path_factory.mktemp("fuzz")
    ser.save_game(root / "general.json", qg.random_game((2, 2), 3), seed=3)
    ser.save_game(root / "zero_sum.json", qg.random_game((2, 2), 4, "zero_sum"), seed=4)
    ser.save_game(root / "polymatrix.json", qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), 5), seed=5)
    ser.save_state(root / "state.json", np.eye(4) / 4, (2, 2))
    files = {name: json.loads((root / f"{name}.json").read_text()) for name in
             ("general", "zero_sum", "polymatrix", "state")}
    return root, files


def nodes(obj, path=()):
    """Every path into a JSON tree, the root included."""
    yield path
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from nodes(val, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from nodes(val, path + (i,))


def is_matrix_number(path) -> bool:
    """Whether path leads to the re or im part of one matrix entry: matrix, entry, part."""
    return path[-3:-2] in (("matrix",), ("r_ij",), ("r_ji",)) or path[-4:-3] == ("tensors",)


def is_finite_number(value) -> bool:
    """Whether value is a JSON number that converts to a finite double."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


@st.composite
def mutations(draw, files):
    """(file name, mutated text, whether the mutation breaks a matrix entry)."""
    name = draw(st.sampled_from(sorted(files)))
    obj = json.loads(json.dumps(files[name]))
    path = draw(st.sampled_from(list(nodes(obj))))
    op = draw(st.sampled_from(["drop", "replace", "wrap", "deep"]))
    value = draw(st.sampled_from(REPLACEMENTS)) if op == "replace" else None
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else obj
    new = {"drop": None, "replace": value, "wrap": [old], "deep": DEEP}[op]
    if not path:
        obj = {} if op == "drop" else new
    elif op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    text = json.dumps(obj)
    if op == "deep":
        depth = draw(st.sampled_from([3, 5000, 200000]))
        text = text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    breaks_entry = is_matrix_number(path) and not (op == "replace" and is_finite_number(value))
    return name, text, breaks_entry


def call(argv):
    """Exit code and stderr of one in-process CLI call; an exception or a warning escapes as a test failure."""
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, err.getvalue()


@settings(deadline=None, max_examples=250)
@given(data=st.data())
def test_mutated_files_exit_cleanly(saved, data):
    root, files = saved
    name, text, breaks_entry = data.draw(mutations(files))
    mutant = root / "mutant.json"
    mutant.write_text(text)
    if name == "state":
        game = "zero_sum" if data.draw(st.booleans()) else "general"
        kind = data.draw(st.sampled_from(["qcce", "qne", "zs-value"]))
        argvs = [["verify", "--game", str(root / f"{game}.json"), "--state", str(mutant), "--kind", kind]]
    else:
        state = str(root / "state.json")
        argvs = [["verify", "--game", str(mutant), "--state", state, "--kind", "qcce"],
                 ["run", "--game", str(mutant), "--eta", "0.1", "--T", "3", "--out", str(root / "run")]]
    for argv in argvs:
        rc, err = call(argv)
        assert rc in (0, 1, 2), (argv[0], rc, err)
        assert err == "" or (err.startswith("error:") and "Traceback" not in err), (argv[0], err)
        if breaks_entry:
            assert rc == 1, (argv[0], rc, err)
