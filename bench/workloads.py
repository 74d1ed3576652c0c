"""The four benchmark workloads: their inputs, their CLI calls and the checks on the outputs.

An op is what the single closed-loop client waits for: one ``qgames`` CLI call,
or on ``verify-mix`` one pass of ``verify`` over the four saved pairs.  Inputs
and the ``--seed`` of every call derive from the benchmark's seed only.

``check`` returns one error message per call whose result is wrong.  A call
passes when it exits 0 (0 or 1 for ``verify``) without a traceback and its
outputs are right:

* every trajectory row keeps ``max_i gap_i <= bound + 1e-9`` (ROADMAP aim 3),
  its checkpoints are the documented ones, the averaged spectrum sums to one,
  and the manifest hashes the game file it names;
* every ``verify`` report agrees with gaps, value brackets and product defects
  that this file computes with plain numpy from the saved JSON, and then stays
  byte-identical on every later call of the same pair.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

GAP_SLACK = 1e-9        # gap <= bound at every checkpoint, up to rounding
SPECTRUM_TOL = 1e-6     # tolerance tier for spectra of time-averaged states
REFERENCE_TOL = 1e-8    # verify's numbers against this file's own computation
PRODUCT_TOL = 1e-8      # is_qne's default product-state tolerance


def op_seed(seed: int, j: int, stride: int) -> int:
    """The program's ``--seed`` for op j; ``--runs N`` consumes N consecutive seeds."""
    return random.Random(seed).randrange(1, 2**31) + stride * j


def call_error(call, ok_codes=(0,)) -> str | None:
    if call.code not in ok_codes:
        return f"exit code {call.code}: {call.stderr.strip()[-300:]}"
    if call.stderr:
        return f"unexpected stderr: {call.stderr.strip()[-300:]}"
    return None


# -- run workloads --------------------------------------------------------


def checkpoints(T: int, stride: int) -> list[int]:
    ts = list(range(stride, T + 1, stride))
    return ts if ts and ts[-1] == T else ts + [T]


def check_run_dir(run_dir: Path, game_path: Path, dims: tuple[int, ...], T: int, stride: int, seed: int) -> None:
    """Raise ValueError unless run_dir holds a correct trajectory and manifest."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest["game_hash"] != hashlib.sha256(game_path.read_bytes()).hexdigest():
        raise ValueError("manifest game_hash does not match the game file")
    if (manifest["T"], manifest["stride"], manifest["seeds"]["run"]) != (T, stride, seed):
        raise ValueError(f"manifest T/stride/seed {manifest['T']}/{manifest['stride']}/{manifest['seeds']}")

    k, n = len(dims), math.prod(dims)
    width = 1 + 3 * k + 1 + 2 * n + 3 * sum(1 for d in dims if d == 2)
    ts = []
    with open(run_dir / "trajectory.csv", encoding="utf-8", newline="") as f:
        header = f.readline().rstrip("\n").split(",")
        if len(header) != width or header[0] != "t":
            raise ValueError(f"header has {len(header)} columns, expected {width}")
        gap_cols = [header.index(f"gap_{i}") for i in range(k)]
        bound_col = header.index("bound")
        avg_cols = [header.index(f"avg_joint_eig_{j}") for j in range(n)]
        for line in f:
            r = line.rstrip("\n").split(",")
            if not line.endswith("\n") or len(r) != width:
                raise ValueError(f"row t={r[0]} has {len(r)} cells or no line end")
            ts.append(int(r[0]))
            if not all(math.isfinite(float(x)) for x in r[1:]):
                raise ValueError(f"non-finite value in row t={r[0]}")
            gaps = [float(r[c]) for c in gap_cols]
            if min(gaps) < 0 or max(gaps) > float(r[bound_col]) + GAP_SLACK:
                raise ValueError(f"row t={r[0]}: gaps {gaps} outside [0, bound {r[bound_col]}]")
            if abs(math.fsum(float(r[c]) for c in avg_cols) - 1.0) > SPECTRUM_TOL:
                raise ValueError(f"row t={r[0]}: averaged spectrum does not sum to 1")
    if ts != checkpoints(T, stride):
        raise ValueError("checkpoint rounds differ from the documented stride")


class RunWorkload:
    """Repeated ``qgames run`` calls, inline games or round-robin over saved ones."""

    unit = "rounds"

    def __init__(self, name, why, flags, dims, T, stride, runs=1, poly_games=0):
        self.name, self.why = name, why
        self.flags, self.dims, self.T, self.stride, self.runs = list(flags), tuple(dims), T, stride, runs
        self.poly_games = poly_games   # > 0: play saved polymatrix cycle games instead of --kind
        self.game_paths: list[Path] = []

    @property
    def units_per_op(self) -> int:
        return self.T * self.runs

    def prepare(self, qg, seed: int, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        self.game_paths = []
        rng = random.Random(seed)
        edges = qg.games.graph_edges("cycle", len(self.dims)) if self.poly_games else []
        for g in range(self.poly_games):
            game_seed = rng.randrange(2**31)
            path = inputs / f"cycle{len(self.dims)}_{g}.json"
            qg.serialize.save_game(path, qg.games.random_polymatrix(self.dims, edges, game_seed), seed=game_seed)
            self.game_paths.append(path)
        self._seed = seed

    def argvs(self, j: int, out: Path) -> list[list[str]]:
        argv = ["run", *self.flags, "--out", str(out)]
        if self.game_paths:
            argv += ["--game", str(self.game_paths[j % len(self.game_paths)])]
        else:
            argv += ["--seed", str(op_seed(self._seed, j, self.runs))]
        if self.runs > 1:
            argv += ["--runs", str(self.runs)]
        return [argv]

    def check(self, calls: list, out: Path) -> list[str]:
        (call,) = calls
        err = call_error(call) or (f"unexpected stdout {call.stdout[:200]!r}" if call.stdout else None)
        if err is None:
            try:
                if self.game_paths:
                    game = Path(call.argv[call.argv.index("--game") + 1])
                    check_run_dir(out, game, self.dims, self.T, self.stride, 0)
                else:
                    seed = int(call.argv[call.argv.index("--seed") + 1])
                    dirs = [out] if self.runs == 1 else [out / f"run_{r:03d}" for r in range(self.runs)]
                    for r, d in enumerate(dirs):
                        check_run_dir(d, d / "game.json", self.dims, self.T, self.stride, seed + r)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                err = f"{type(exc).__name__}: {exc}"
        return [err] if err else []


# -- verify-mix -------------------------------------------------------------


def marginal(rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Reduced state on the registers in ``keep``, in that order."""
    k = len(dims)
    cols = [k + r if r in keep else r for r in range(k)]
    out = np.einsum(rho.reshape(dims + dims), list(range(k)) + cols, list(keep) + [k + r for r in keep])
    m = math.prod(dims[r] for r in keep)
    return out.reshape(m, m)


def gain(r: np.ndarray, dims: tuple[int, ...], i: int, rho_rest: np.ndarray) -> np.ndarray:
    """G with Tr(sigma G) = Tr(r (sigma on register i, rho_rest on the others in order))."""
    k = len(dims)
    others = [j for j in range(k) if j != i]
    rows = [2 * k if j == i else j for j in range(k)]
    cols = [2 * k + 1 if j == i else k + j for j in range(k)]
    rest = tuple(dims[j] for j in others)
    g = np.einsum(
        r.reshape(dims + dims), rows + cols,
        rho_rest.reshape(rest + rest), [k + j for j in others] + others,
        [2 * k, 2 * k + 1],
    )
    return (g + g.conj().T) / 2


def trace_product(r: np.ndarray, rho: np.ndarray) -> float:
    return float(np.einsum("xy,yx->", r, rho).real)


def read_matrix(entries, n: int) -> np.ndarray:
    return np.array([complex(re, im) for re, im in entries]).reshape(n, n)


def reference_gaps(game: dict, rho: np.ndarray) -> list[float]:
    """Each player's signed best-deviation gap at rho, from the game file's own tensors."""
    dims = tuple(game["dims"])
    k = len(dims)
    if game["kind"] != "polymatrix":
        n = math.prod(dims)
        gaps = []
        for i, t in enumerate(game["tensors"]):
            r = read_matrix(t, n)
            rest = marginal(rho, dims, tuple(j for j in range(k) if j != i))
            gaps.append(np.linalg.eigvalsh(gain(r, dims, i, rest))[-1] - trace_product(r, rho))
        return gaps
    gains = [np.zeros((d, d), dtype=complex) for d in dims]
    utils = [0.0] * k
    for e in game["edges"]:
        a, b = e["i"], e["j"]
        for p, q, key in ((a, b, "r_ij"), (b, a, "r_ji")):
            r = read_matrix(e[key], dims[p] * dims[q])
            gains[p] += gain(r, (dims[p], dims[q]), 0, marginal(rho, dims, (q,)))
            utils[p] += trace_product(r, marginal(rho, dims, (p, q)))
    return [np.linalg.eigvalsh(g)[-1] - u for g, u in zip(gains, utils)]


def check_report(game: dict, rho: np.ndarray, kind: str, tol: float, code: int, report: dict) -> None:
    """Raise ValueError unless a verify report matches the reference computation."""
    dims = tuple(game["dims"])
    if kind == "zs-value":
        r = read_matrix(game["tensors"][0], math.prod(dims))
        rho_a, sigma_b = marginal(rho, dims, (0,)), marginal(rho, dims, (1,))
        want = {
            "lower": np.linalg.eigvalsh(gain(r, dims, 1, rho_a))[0],
            "value_at": trace_product(r, np.kron(rho_a, sigma_b)),
            "upper": np.linalg.eigvalsh(gain(r, dims, 0, sigma_b))[-1],
        }
        for key, val in want.items():
            if abs(report[key] - val) > REFERENCE_TOL:
                raise ValueError(f"{key} {report[key]} != reference {val}")
        if not want["lower"] - REFERENCE_TOL <= want["value_at"] <= want["upper"] + REFERENCE_TOL:
            raise ValueError("value bracket is not ordered")
        verdict = report["upper"] - report["lower"] <= 2 * tol
    else:
        gaps = reference_gaps(game, rho)
        if len(report["gaps"]) != len(gaps) or max(abs(x - y) for x, y in zip(report["gaps"], gaps)) > REFERENCE_TOL:
            raise ValueError(f"gaps {report['gaps']} != reference {gaps}")
        if report["max_gap"] != max(report["gaps"]):
            raise ValueError("max_gap is not the largest gap")
        verdict = report["max_gap"] <= tol
        if kind == "qne":
            product = marginal(rho, dims, (0,))
            for i in range(1, len(dims)):
                product = np.kron(product, marginal(rho, dims, (i,)))
            defect = float(np.max(np.abs(rho - product)))
            if abs(report["product_defect"] - defect) > REFERENCE_TOL:
                raise ValueError(f"product_defect {report['product_defect']} != reference {defect}")
            verdict = verdict and report["product_defect"] <= PRODUCT_TOL
    if report["verdict"] is not verdict or code != (0 if verdict else 1):
        raise ValueError(f"verdict {report['verdict']} / exit code {code} inconsistent with the numbers")


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


class VerifyMix:
    """``verify`` calls round-robin over four saved (game, state) pairs."""

    name = "verify-mix"
    why = "verify round-robin over four saved game/state pairs: the read path and one-shot certificates"
    unit = "verify calls"
    units_per_op = 4
    # (label, game kind, dims, verify kind, tol, state is a product of random marginals)
    PAIRS = (
        ("general222", "general", (2, 2, 2), "qcce", 1e-6, False),
        ("zerosum22", "zero_sum", (2, 2), "zs-value", 0.2, True),
        ("cycle6", "polymatrix", (2,) * 6, "qne", 1e-6, True),
        ("general444", "general", (4, 4, 4), "qcce", 1e-6, False),
    )

    def __init__(self):
        self.paths: dict[str, tuple[Path, Path]] = {}
        self.expected: dict[str, tuple[int, str]] = {}

    def prepare(self, qg, seed: int, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        for label, kind, dims, _, _, product in self.PAIRS:
            game_seed = rng.randrange(2**31)
            if kind == "polymatrix":
                game = qg.games.random_polymatrix(dims, qg.games.graph_edges("cycle", len(dims)), game_seed)
            else:
                game = qg.games.random_game(dims, game_seed, kind)
            state_rng = np.random.default_rng(game_seed)
            if product:
                rho = random_density(state_rng, dims[0])
                for d in dims[1:]:
                    rho = np.kron(rho, random_density(state_rng, d))
            else:
                rho = random_density(state_rng, math.prod(dims))
            game_path, state_path = inputs / f"{label}.game.json", inputs / f"{label}.state.json"
            qg.serialize.save_game(game_path, game, seed=game_seed)
            qg.serialize.save_state(state_path, rho, dims)
            self.paths[label] = (game_path, state_path)

    def argvs(self, j: int, out: Path) -> list[list[str]]:
        return [
            ["verify", "--game", str(self.paths[label][0]), "--state", str(self.paths[label][1]),
             "--kind", vkind, "--tol", repr(tol)]
            for label, _, _, vkind, tol, _ in self.PAIRS
        ]

    def check(self, calls: list, out: Path) -> list[str]:
        errors = []
        for call, (label, _, _, vkind, tol, _) in zip(calls, self.PAIRS):
            err = call_error(call, ok_codes=(0, 1))
            if err is None and label not in self.expected:
                err = self._check_reference(call, vkind, tol)
                if err is None:
                    self.expected[label] = (call.code, call.stdout)
            elif err is None and self.expected[label] != (call.code, call.stdout):
                err = "output differs from the first verified call"
            if err:
                errors.append(f"{label}: {err}")
        return errors

    def _check_reference(self, call, vkind: str, tol: float) -> str | None:
        game_path, state_path = (Path(call.argv[call.argv.index(flag) + 1]) for flag in ("--game", "--state"))
        try:
            game = json.loads(game_path.read_text(encoding="utf-8"))
            state = json.loads(state_path.read_text(encoding="utf-8"))
            rho = read_matrix(state["matrix"], math.prod(state["dims"]))
            check_report(game, rho, vkind, tol, call.code, json.loads(call.stdout))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


def workloads() -> dict:
    """Fresh workload objects by name, in BENCHMARK.json's order."""
    wls = [
        RunWorkload(
            "zs2-batch",
            "zero-sum 2x2 batches of 8 runs, one checkpoint each: per-call numpy overhead of the learner update",
            ["--kind", "zero-sum", "--dims", "2,2", "--T", "250", "--eta", "0.1", "--stride", "250"],
            dims=(2, 2), T=250, stride=250, runs=8,
        ),
        RunWorkload(
            "general444-ckpt",
            "general 4x4x4 at epsilon 0.1 (T=555) checkpointing every round: certification and writes",
            ["--kind", "general", "--dims", "4,4,4", "--epsilon", "0.1"],
            dims=(4, 4, 4), T=555, stride=1,
        ),
        RunWorkload(
            "poly8-cycle",
            "saved 8-qubit cycle polymatrix games on the dense 256x256 lift: per-round kron and contraction",
            ["--eta", "0.05", "--T", "50", "--stride", "50"],
            dims=(2,) * 8, T=50, stride=50, poly_games=4,
        ),
        VerifyMix(),
    ]
    return {wl.name: wl for wl in wls}
