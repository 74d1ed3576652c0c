"""File formats: game JSON, state JSON, report JSON, trajectory CSV, manifests.

Complex matrices are stored as flat row-major lists of ``[re, im]`` pairs.
Floats are written in Python's shortest round-trip decimal form (at most 17
significant digits), so every value parses back to the identical double and
identical inputs always produce byte-identical files.  CSV output is UTF-8
with LF line endings and a fixed, documented header row.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .equilibria import EquilibriumReport, ValueCertificate
from .games import PolymatrixGame, QuantumGame
from .learning import Trajectory
from .tensor import spectral_norm


def encode_matrix(m: np.ndarray) -> list[list[float]]:
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2).tolist()


def decode_matrix(entries: list[list[float]], rows: int, cols: int) -> np.ndarray:
    if not isinstance(entries, list):
        raise ValueError(f"a matrix must be a list of [re, im] pairs, got {type(entries).__name__}")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    try:
        # complex() takes booleans as 1 and 0, so they are filtered out and counted as bad entries
        flat = np.array(
            [complex(re, im) for re, im in entries if type(re) is not bool and type(im) is not bool], dtype=complex
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix entries must be [re, im] pairs of numbers: {exc}") from None
    if len(flat) != len(entries):
        raise ValueError("matrix entries must be [re, im] pairs of numbers, not booleans")
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)


def _render(obj: Any, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` renders it at nesting ``indent``.

    Dict keys must be strings.  Lists of ``[re, im]`` float pairs, the bulk of
    game and state files, are formatted in one pass instead of going through
    json's pure-Python indenting encoder.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{inner}{json.dumps(key)}: {_render(val, inner)}" for key, val in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if all(type(p) is list and len(p) == 2 and type(p[0]) is float and type(p[1]) is float for p in obj):
            row = f"{inner}[\n{inner}  %r,\n{inner}  %r\n{inner}]"
            body = ",\n".join([row % (re, im) for re, im in obj])
            if "n" in body:  # json spells the reprs nan and (-)inf as NaN and (-)Infinity
                body = body.replace("nan", "NaN").replace("inf", "Infinity")
        else:
            body = ",\n".join([inner + _render(val, inner) for val in obj])
        return "[\n" + body + "\n" + indent + "]"
    return json.dumps(obj)


def dumps_canonical(obj: Any) -> str:
    """The canonical text of a JSON object: byte for byte ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``."""
    return _render(obj, "") + "\n"


def write_json(path, obj: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(dumps_canonical(obj))


def read_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


# -- games --------------------------------------------------------------


def game_to_obj(game: QuantumGame | PolymatrixGame, seed: int | None = None) -> dict:
    if isinstance(game, PolymatrixGame):
        edges = []
        norms = []
        for (i, j), (r_ij, r_ji) in sorted(game.edges.items()):
            edges.append(
                {
                    "i": i,
                    "j": j,
                    "r_ij": encode_matrix(r_ij),
                    "r_ji": encode_matrix(r_ji),
                }
            )
            norms += [spectral_norm(r_ij), spectral_norm(r_ji)]
        obj = {"kind": "polymatrix", "dims": list(game.dims), "edges": edges, "spectral_norms": norms}
    else:
        obj = {
            "kind": "zero_sum" if game.zero_sum else "general",
            "dims": list(game.dims),
            "tensors": [encode_matrix(r) for r in game.tensors],
            "spectral_norms": [spectral_norm(r) for r in game.tensors],
        }
    if seed is not None:
        obj["seed"] = seed
    return obj


def _read_dims(obj: Any) -> tuple[int, ...]:
    """The "dims" of a game or state object, which must be a non-empty list of positive integers."""
    dims = obj.get("dims") if isinstance(obj, dict) else None
    if not (isinstance(dims, list) and dims and all(type(d) is int and d >= 1 for d in dims)):
        raise ValueError(f"dims must be a non-empty list of positive integers, got {dims!r}")
    return tuple(dims)


def _field(obj: dict, key: str, what: str) -> Any:
    """``obj[key]``, or a ValueError that names the missing field and what lacks it."""
    if key not in obj:
        raise ValueError(f'{what} has no "{key}" field')
    return obj[key]


def _read_list(obj: dict, key: str) -> list:
    val = _field(obj, key, "game file")
    if not isinstance(val, list):
        raise ValueError(f"{key} must be a list, got {val!r}")
    return val


def _read_edge_ends(e: Any, k: int) -> tuple[int, int]:
    """The (i, j) of a polymatrix edge object: two distinct player indices below k."""
    ends = (e.get("i"), e.get("j")) if isinstance(e, dict) else None
    if ends is None or not all(type(p) is int and 0 <= p < k for p in ends) or ends[0] == ends[1]:
        raise ValueError(f"edge ends must be two distinct players in [0, {k}), got {ends!r}")
    return ends


def obj_to_game(obj: dict) -> QuantumGame | PolymatrixGame:
    dims = _read_dims(obj)
    kind = _field(obj, "kind", "game file")
    if kind not in ("general", "zero_sum", "polymatrix"):
        raise ValueError(f"unknown game kind {kind!r}")
    if kind == "polymatrix":
        edges = {}
        for e in _read_list(obj, "edges"):
            i, j = _read_edge_ends(e, len(dims))
            if (i, j) in edges or (j, i) in edges:
                raise ValueError(f"duplicate edge ({i}, {j})")
            nij = dims[i] * dims[j]
            edges[(i, j)] = (
                decode_matrix(_field(e, "r_ij", "game file edge"), nij, nij),
                decode_matrix(_field(e, "r_ji", "game file edge"), nij, nij),
            )
        return PolymatrixGame(dims, edges)
    n = 1
    for d in dims:
        n *= d
    tensors = tuple(decode_matrix(t, n, n) for t in _read_list(obj, "tensors"))
    return QuantumGame(dims, tensors, zero_sum=(kind == "zero_sum"))


def save_game(path, game, seed: int | None = None) -> None:
    write_json(path, game_to_obj(game, seed))


def load_game(path) -> tuple[str, QuantumGame | PolymatrixGame]:
    obj = read_json(path)
    game = obj_to_game(obj)
    return obj["kind"], game


# -- states ---------------------------------------------------------------


def save_state(path, rho: np.ndarray, dims) -> None:
    rho = np.asarray(rho, dtype=complex)
    write_json(path, {"dims": [int(d) for d in dims], "matrix": encode_matrix(rho)})


def load_state(path) -> tuple[tuple[int, ...], np.ndarray]:
    obj = read_json(path)
    dims = _read_dims(obj)
    n = 1
    for d in dims:
        n *= d
    return dims, decode_matrix(_field(obj, "matrix", "state file"), n, n)


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
    n = 1
    for d in dims:
        n *= d
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
    qubit_players = [i for i, d in enumerate(traj.dims) if d == 2]
    columns = [traj.utils, traj.avg_regret, traj.gaps, traj.bound[:, None], traj.joint_eigs, traj.avg_joint_eigs]
    table = np.concatenate(columns + [traj.bloch[i] for i in qubit_players], axis=1, dtype=float)
    lines = [",".join(trajectory_header(traj.dims))]
    for t, row in zip(traj.checkpoints.tolist(), table.tolist()):
        lines.append(",".join([str(int(t)), *map(repr, row)]))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def manifest_obj(
    game_hash: str,
    seeds: dict,
    learner_kinds: list[str],
    schedule: dict,
    T: int,
    stride: int,
    gap_mode: str,
    bound_scale: float,
    tool_version: str,
) -> dict:
    return {
        "game_hash": game_hash,
        "seeds": seeds,
        "learner_kinds": learner_kinds,
        "schedule": schedule,
        "T": T,
        "stride": stride,
        "gap_mode": gap_mode,
        "bound_scale": bound_scale,
        "tool_version": tool_version,
    }
