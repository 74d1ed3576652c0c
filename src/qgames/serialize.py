"""File formats: game JSON, state JSON, report JSON, trajectory CSV, manifests.

Complex matrices are stored as flat row-major lists of ``[re, im]`` pairs,
which writers format straight from numpy arrays.  Floats are written in
Python's shortest round-trip decimal form, so every value parses back to the
identical double and identical inputs always produce byte-identical files.
CSV output is UTF-8 with LF line endings and a fixed, documented header row.
Writers stream their files, JSON 128 pairs and CSV one row at a time, so their
memory does not grow with the file, and ``write_json`` returns the SHA-256 of
the bytes it wrote.  Readers decode the matrices and leave every other check to
the constructors they hand them to; writers refuse what readers refuse.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from math import isqrt, prod
from typing import Any, Iterator

import numpy as np

from .equilibria import EquilibriumReport, ValueCertificate
from .games import Game, PolymatrixGame, QuantumGame, tensors_cancel
from .learning import Trajectory
from .tensor import _check_int, _check_ints, _check_layout, spectral_norm


def decode_matrix(entries: list[list[float]]) -> np.ndarray:
    """The n x n matrix of n^2 row-major ``[re, im]`` pairs of finite numbers, not booleans."""
    if not isinstance(entries, list):
        raise ValueError(f"a matrix must be a list of [re, im] pairs, got {type(entries).__name__}")
    n = isqrt(len(entries))
    if n * n != len(entries):
        raise ValueError(f"a square matrix has a square number of entries, got {len(entries)}")
    try:
        # complex() takes booleans as 1 and 0, so they are filtered out and counted as bad entries
        flat = np.array(
            [complex(re, im) for re, im in entries if type(re) is not bool and type(im) is not bool], dtype=complex
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix entries must be [re, im] pairs of numbers: {exc}") from None
    if len(flat) != len(entries):
        raise ValueError("matrix entries must be [re, im] pairs of numbers, not booleans")
    return _check_finite(flat).reshape(n, n)


def _check_finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _blocks(obj: Any, indent: str = "") -> Iterator[str]:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` renders it at nesting ``indent``, block by block.

    Dict keys must be strings.  A numpy array, the bulk of game and state
    files, renders as its complex entries' row-major ``[re, im]`` pairs, 128
    pairs of its float view to a block in one ``%`` format.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        for n, (key, val) in enumerate(sorted(obj.items())):
            yield f"{',' if n else '{'}\n{inner}{json.dumps(key)}: "
            yield from _blocks(val, inner)
        yield "\n" + indent + "}"
    elif isinstance(obj, np.ndarray):
        flat = np.ascontiguousarray(obj, dtype=complex).view(float).ravel()
        row = f"\n{inner}[\n{inner}  %r,\n{inner}  %r\n{inner}]"
        for start in range(0, len(flat), 256):
            block = flat[start : start + 256]
            text = ",".join([row] * (len(block) // 2)) % tuple(block.tolist())
            if "n" in text:  # json spells the reprs nan and (-)inf as NaN and (-)Infinity
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            yield ("," if start else "[") + text
        yield "\n" + indent + "]" if len(flat) else "[]"
    elif isinstance(obj, (list, tuple)) and obj:
        for n, val in enumerate(obj):
            yield f"{',' if n else '['}\n{inner}"
            yield from _blocks(val, inner)
        yield "\n" + indent + "]"
    else:
        yield json.dumps(obj)


def dumps_canonical(obj: Any) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, each array read as its ``[re, im]`` pairs."""
    return "".join(_blocks(obj)) + "\n"


def write_json(path, obj: Any) -> str:
    """Write ``dumps_canonical(obj)`` to path one block at a time; return the SHA-256 hex digest of the bytes."""
    h = hashlib.sha256()
    with open(path, "wb") as f:
        for data in map(str.encode, chain(_blocks(obj), ["\n"])):
            f.write(data)
            h.update(data)
    return h.hexdigest()


def read_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            h.update(block)
    return h.hexdigest()


# -- games --------------------------------------------------------------


def game_to_obj(game: Game, seed: int | None = None) -> dict:
    """A game's file object: the ``polymatrix`` layout when its terms are edge ends, else its dense lift."""
    edges = game.edges
    if edges is None:
        mats = game.tensors
        obj = {"kind": "zero_sum" if tensors_cancel(mats) else "general", "tensors": list(mats)}
    else:
        mats = [r for pair in edges.values() for r in pair]
        obj = {"kind": "polymatrix",
               "edges": [{"i": i, "j": j, "r_ij": a, "r_ji": b} for (i, j), (a, b) in edges.items()]}
    obj.update(dims=list(_file_dims(game.dims)), spectral_norms=[spectral_norm(r) for r in mats])
    if seed is not None:
        obj["seed"] = _check_int(seed, "seed", low=0)   # json writes a Python int, and stops at a numpy int mid-file
    return obj


def _file_dims(dims: Any) -> tuple[int, ...]:
    """The "dims" of a game or state file, which must be a non-empty list of integers >= 2, as for ``--dims``."""
    return _check_ints(dims, low=2)


def _field(obj: dict, key: str, what: str) -> Any:
    """``obj[key]``, or a ValueError that names the missing field and what lacks it, or says ``obj`` is no object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f'{what} has no "{key}" field')
    return obj[key]


def _read_list(obj: dict, key: str) -> list:
    val = _field(obj, key, "game file")
    if not isinstance(val, list):
        raise ValueError(f"{key} must be a list, got {val!r}")
    return val


def obj_to_game(obj: dict) -> Game:
    dims = _file_dims(_field(obj, "dims", "game file"))
    kind = _field(obj, "kind", "game file")
    if kind not in ("general", "zero_sum", "polymatrix"):
        raise ValueError(f"unknown game kind {kind!r}")
    if kind == "polymatrix":
        edges = [[_field(e, key, "game file edge") for key in ("i", "j", "r_ij", "r_ji")]
                 for e in _read_list(obj, "edges")]
        return PolymatrixGame(dims, [((i, j), (decode_matrix(a), decode_matrix(b))) for i, j, a, b in edges])
    game = QuantumGame(dims, tuple(map(decode_matrix, _read_list(obj, "tensors"))))
    if kind == "zero_sum" and not game.zero_sum:
        raise ValueError("zero_sum flag set but tensors do not cancel")
    return game


def save_game(path, game, seed: int | None = None) -> str:
    return write_json(path, game_to_obj(game, seed))


def load_game(path) -> tuple[str, Game]:
    obj = read_json(path)
    game = obj_to_game(obj)
    return obj["kind"], game


# -- states ---------------------------------------------------------------


def save_state(path, rho: np.ndarray, dims) -> None:
    """Write ``{dims, matrix}``, refusing what :func:`load_state` refuses before the file is opened."""
    dims = _check_layout(rho, _file_dims(dims))
    write_json(path, {"dims": list(dims), "matrix": _check_finite(np.asarray(rho, dtype=complex))})


def load_state(path) -> tuple[tuple[int, ...], np.ndarray]:
    obj = read_json(path)
    dims = _file_dims(_field(obj, "dims", "state file"))
    rho = decode_matrix(_field(obj, "matrix", "state file"))
    return _check_layout(rho, dims), rho


# -- reports --------------------------------------------------------------


def report_to_obj(rep: EquilibriumReport) -> dict:
    obj = {
        "certificate": rep.kind,
        "gaps": list(rep.gaps),
        "max_gap": rep.max_gap,
        "tol": rep.tol,
        "verdict": rep.verdict,
    }
    if rep.product_defect is not None:
        obj["product_defect"] = rep.product_defect
    return obj


def certificate_to_obj(cert: ValueCertificate, tol: float) -> dict:
    return {
        "certificate": "zs_value",
        "lower": cert.lower,
        "value_at": cert.value_at,
        "upper": cert.upper,
        "width": cert.width,
        "tol": tol,
        "verdict": cert.is_eps_qne(tol),
    }


# -- trajectories ----------------------------------------------------------


def trajectory_header(dims) -> list[str]:
    k = len(dims)
    n = prod(dims)
    cols = ["t"]
    cols += [f"u_{i}" for i in range(k)]
    cols += [f"avg_regret_{i}" for i in range(k)]
    cols += [f"gap_{i}" for i in range(k)]
    cols += ["bound"]
    cols += [f"joint_eig_{j}" for j in range(n)]
    cols += [f"avg_joint_eig_{j}" for j in range(n)]
    for i, d in enumerate(dims):
        if d == 2:
            cols += [f"bloch_{i}_x", f"bloch_{i}_y", f"bloch_{i}_z"]
    return cols


def write_trajectory_csv(path, traj: Trajectory) -> None:
    columns = [traj.utils, traj.avg_regret, traj.gaps, traj.bound[:, None], traj.joint_eigs, traj.avg_joint_eigs]
    columns += [traj.bloch[i] for i, d in enumerate(traj.dims) if d == 2]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(trajectory_header(traj.dims)) + "\n")
        for t, *parts in zip(traj.checkpoints.tolist(), *columns):
            f.write(",".join([str(int(t)), *map(repr, np.concatenate(parts, dtype=float).tolist())]) + "\n")
