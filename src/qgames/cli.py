"""Command-line front end: generate games, run dynamics, certify states.

Subcommands: ``gen`` writes a game file, ``run`` produces a trajectory CSV
plus a reproducibility manifest, ``verify`` certifies a saved state against a
saved game, and ``maxent`` runs the Bell-basis entangled-equilibrium demo.
Exit codes: 0 on success (and verdict true for ``verify``), 1 for domain
errors or a false verdict, 2 for I/O problems.  All outputs are deterministic
functions of the flags and seeds.  ``run --runs N`` plays its N seeded games
as one lockstep batch in a single thread; each run's files are byte-identical
to a ``--runs 1`` call with that run's seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .equilibria import is_qcce, is_qne, maxent_qcce_condition, ppt_witness, zs_certificate
from .games import (
    Game,
    bell_projector,
    graph_edges,
    maxent_game,
    random_game,
    random_polymatrix,
)
from .games import polymatrix_to_qg  # noqa: F401  (bench/tracer.py times the name cli.polymatrix_to_qg)
from .learning import FrobeniusFTRL, MMWU, Schedule, doubling_schedule, fixed_schedule, horizon_for_epsilon, run_game
from .serialize import (
    certificate_to_obj,
    dumps_canonical,
    load_game,
    load_state,
    report_to_obj,
    save_game,
    sha256_file,
    write_json,
    write_trajectory_csv,
)
from .tensor import _check_ints, check_density, partial_trace


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError:   # a token that is not an integer
        raise ValueError(f"--dims must be comma-separated integers; got {text!r}") from None
    return _check_ints(dims, "--dims", low=2)   # the rule of game and state files


def _parse_graph(text: str, k: int) -> list[tuple[int, int]]:
    m = re.fullmatch(r"([a-z]+)(\d*)", text)
    if not m:
        raise ValueError(f"cannot parse graph spec {text!r}")
    name, num = m.group(1), m.group(2)
    if num and int(num) != k:
        raise ValueError(f"graph size {num} does not match {k} players")
    return graph_edges(name, k)


def _parse_payoff(flag: str, text: str) -> np.ndarray:
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError:   # a token that is not a number
        rows = None
    if rows is None or len(set(map(len, rows))) > 1 or not np.isfinite(rows).all():
        raise ValueError(f"{flag} must be rows of finite numbers, all of one length; got {text!r}")
    return np.asarray(rows, dtype=float)


def _check_game_flags(args) -> None:
    """Reject game flags that the game the other flags choose would ignore."""
    if getattr(args, "game", None) is not None:
        for flag, val in (("--kind", args.kind), ("--dims", args.dims), ("--graph", args.graph)):
            if val is not None:
                raise ValueError(f"{flag} does not combine with --game")
    pzs = "--pairwise-zero-sum" if args.pairwise_zero_sum else "--no-pairwise-zero-sum"
    for flag, val in (("--graph", args.graph), (pzs, args.pairwise_zero_sum)):
        if val is not None and args.kind != "polymatrix":
            raise ValueError(f"{flag} applies only to --kind polymatrix")


def _generate(kind: str, dims: tuple[int, ...], seed: int, graph: str | None, pairwise_zero_sum: bool | None):
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    if kind == "general":
        return random_game(dims, seed, "general")
    if kind == "zero-sum":
        return random_game(dims, seed, "zero_sum")
    if kind == "polymatrix":
        edges = _parse_graph(graph or "cycle", len(dims))
        return random_polymatrix(dims, edges, seed, pairwise_zero_sum is not False)
    raise ValueError(f"unknown game kind {kind!r}")


def cmd_gen(args) -> int:
    _check_game_flags(args)
    game = _generate(args.kind, _parse_dims(args.dims), args.seed, args.graph, args.pairwise_zero_sum)
    save_game(args.out, game, seed=args.seed)
    return 0


def _run_setup(game, args):
    """Resolve (schedule, T) from the game and the flags."""
    if (args.epsilon is None) == (args.T is None):
        raise ValueError("specify exactly one of --epsilon or --T")
    if args.epsilon is not None:
        if args.eta is not None or args.schedule == "doubling":
            raise ValueError("--epsilon fixes the stepsize; do not combine with --eta or doubling")
        eta, horizon = horizon_for_epsilon(game, args.epsilon)
        schedule = fixed_schedule(eta)
    else:
        horizon = args.T
        if args.schedule == "doubling":
            if args.eta is not None:
                raise ValueError("--eta sets a fixed stepsize; do not combine with --schedule doubling")
            schedule = doubling_schedule()
        else:
            if args.eta is None:
                raise ValueError("--T needs --eta (or --schedule doubling)")
            schedule = fixed_schedule(args.eta)
    return schedule, horizon


def _make_learners(learner_arg: str | None, game: Game, schedule: Schedule, batch: int):
    names = learner_arg.split(",") if learner_arg else ["mmwu"] * game.n_players
    if len(names) != game.n_players:
        raise ValueError(f"need {game.n_players} learner kinds, got {len(names)}")
    learners = []
    for i, name in enumerate(names):
        if name == "mmwu":
            learners.append(MMWU(game.dims[i], schedule, batch=batch))
        elif name == "ftrl":
            if schedule.kind != "fixed":
                raise ValueError("ftrl supports only fixed stepsizes")
            learners.append(FrobeniusFTRL(game.dims[i], schedule.eta, batch=batch))
        else:
            raise ValueError(f"unknown learner kind {name!r}")
    return names, learners


def cmd_run(args) -> int:
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    _check_game_flags(args)
    if args.runs > 1 and args.game is not None:
        raise ValueError("--runs > 1 requires an inline game spec so each run draws a fresh seed")
    out = Path(args.out)
    outdirs = [out] if args.runs == 1 else [out / f"run_{rid:03d}" for rid in range(args.runs)]
    seeds = [args.seed + rid for rid in range(args.runs)]
    # everything that can reject the flags runs before the first file is written
    if args.game is not None:
        games = [load_game(args.game)[1]]
    elif args.kind is None:
        raise ValueError("either --game or an inline --kind spec is required")
    else:
        dims = _parse_dims(args.dims or "2,2")
        games = [_generate(args.kind, dims, seed, args.graph, args.pairwise_zero_sum) for seed in seeds]
    # every run shares the flags, the game kind and the register layout, so one setup holds for all
    schedule, horizon = _run_setup(games[0], args)
    names, learners = _make_learners(args.learners, games[0], schedule, batch=args.runs)
    trajs = run_game(games, learners, horizon, stride=args.stride)
    schedule_obj = {"kind": schedule.kind, "eta": schedule.eta, "base_epoch": schedule.base_epoch}
    for outdir, seed, game, traj in zip(outdirs, seeds, games, trajs):
        outdir.mkdir(parents=True, exist_ok=True)
        game_hash = sha256_file(args.game) if args.game is not None else save_game(outdir / "game.json", game, seed=seed)
        write_trajectory_csv(outdir / "trajectory.csv", traj)
        manifest = {
            "game_hash": game_hash,
            "seeds": {"game": seed, "run": seed},
            "learner_kinds": names,
            "schedule": schedule_obj,
            "T": horizon,
            "stride": traj.stride,
            "gap_mode": traj.gap_mode,
            "bound_scale": traj.bound_scale,
            "tool_version": __version__,
        }
        write_json(outdir / "manifest.json", manifest)
    return 0


def cmd_verify(args) -> int:
    if not (isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    _, game = load_game(args.game)
    dims, rho = load_state(args.state)
    if dims != game.dims:
        raise ValueError(f"state dims {list(dims)} do not match game dims {list(game.dims)}")
    if args.kind in ("qcce", "qne"):
        rep = (is_qcce if args.kind == "qcce" else is_qne)(game, rho, tol=args.tol)
        print(dumps_canonical(report_to_obj(rep)), end="")
        return 0 if rep.verdict else 1
    if args.kind == "zs-value":
        check_density(rho)   # the certificate checks the marginals it reads; this checks the joint state
        rho_a = partial_trace(rho, game.dims, keep=(0,))
        sigma_b = partial_trace(rho, game.dims, keep=(1,))
        cert = zs_certificate(game, rho_a, sigma_b)
        print(dumps_canonical(certificate_to_obj(cert, args.tol)), end="")
        return 0 if cert.is_eps_qne(args.tol) else 1
    raise ValueError(f"unknown verification kind {args.kind!r}")


def cmd_maxent(args) -> int:
    a = _parse_payoff("--a", args.a)
    b = _parse_payoff("--b", args.b) if args.b is not None else a
    game = maxent_game(a, b)
    p, q = np.unravel_index(int(np.argmax(a)), (2, 2))
    lam = np.zeros((2, 2))
    lam[p, q] = 1.0
    bell = bell_projector(int(p), int(q))
    rep = is_qcce(game, bell, tol=1e-8)
    scalar = maxent_qcce_condition(a, b, lam)
    obj = {
        "payoff_a": [[float(x) for x in row] for row in a],
        "payoff_b": [[float(x) for x in row] for row in b],
        "bell_index": [int(p), int(q)],
        "scalar_condition": scalar,
        "spectrahedral": report_to_obj(rep),
        "agreement": scalar == rep.verdict,
        "witness": ppt_witness(bell, (2, 2)),
    }
    print(dumps_canonical(obj), end="")
    return 0


@cache   # built once per process: argparse set-up costs more than a small run's rounds
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgames", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random game file")
    gen.add_argument("--kind", required=True, choices=["general", "zero-sum", "polymatrix"])
    gen.add_argument("--dims", required=True, help="comma-separated register dimensions, e.g. 2,2")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--graph", default=None, help="polymatrix graph: cycle, path, complete (optionally sized, e.g. cycle3)")
    gen.add_argument("--pairwise-zero-sum", action=argparse.BooleanOptionalAction, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run learning dynamics and emit a trajectory CSV")
    run.add_argument("--game", default=None, help="path to a game file (or use the inline gen flags)")
    run.add_argument("--kind", default=None, choices=["general", "zero-sum", "polymatrix"])
    run.add_argument("--dims", default=None, help="inline game: comma-separated register dimensions (default 2,2)")
    run.add_argument("--graph", default=None)
    run.add_argument("--pairwise-zero-sum", action=argparse.BooleanOptionalAction, default=None)
    run.add_argument("--learners", default=None, help="comma-separated per-player kinds: mmwu, ftrl")
    run.add_argument("--eta", type=float, default=None)
    run.add_argument("--epsilon", type=float, default=None, help="target accuracy; derives eta and T")
    run.add_argument("--T", type=int, default=None)
    run.add_argument("--schedule", default="fixed", choices=["fixed", "doubling"])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--stride", type=int, default=None)
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="certify a saved state against a saved game")
    ver.add_argument("--game", required=True)
    ver.add_argument("--state", required=True)
    ver.add_argument("--kind", required=True, choices=["qne", "qcce", "zs-value"])
    ver.add_argument("--tol", type=float, default=1e-6)
    ver.set_defaults(func=cmd_verify)

    mx = sub.add_parser("maxent", help="Bell-basis entangled equilibrium demo")
    mx.add_argument("--a", required=True, help="2x2 payoff matrix, rows ; separated: '1,0;0,0'")
    mx.add_argument("--b", default=None)
    mx.set_defaults(func=cmd_maxent)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # MemoryError: a size numpy refuses to allocate; FloatingPointError: a run whose numbers overflow
    except (ValueError, KeyError, MemoryError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
