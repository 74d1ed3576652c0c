#!/usr/bin/env python3
"""Closed-loop benchmark of the qgames command line.

Run from the repository root:

    python3 bench/run.py --workload zs2-batch [--seed N] [--seconds S] [--trace 0|1]

One client calls ``qgames.cli.main`` in-process; the next call starts when the
previous one returns.  ``OPENBLAS_NUM_THREADS`` is pinned to 1 and
``QG_THREADS`` to the cores this process may use, so threads never exceed
them.  Set-up (a fresh import of qgames, input generation and one warm-up op)
runs once before the ops; then ops run for ``--seconds``, and untraced the
set-up is repeated ``SETUP_REPS - 1`` more times, spread evenly over them, and
its median reported.  Every call is checked (see workloads.py), and the first timed
op is repeated at the end and must reproduce its files and stdout byte for
byte.

``--trace 0`` reports the end-to-end metrics: ``work_per_s`` (learning rounds
per second of op time on the run workloads, verify calls per second on
verify-mix), ``peak_rss_mb`` and ``setup_s``.  The median op latency, and the
p90 where at least ten ops lie beyond it, are printed with the sample count
but not gated: on a shared host whose CPU speed switches between fast and slow
phases, a median jumps between the two, while the mean behind ``work_per_s``
moves smoothly with the share of each.  ``--trace 1`` alternates each op
untraced and traced (see tracer.py), requires both to write identical bytes,
and reports the per-layer metrics, per traced op.

Earlier stdout lines print the environment and every metric with its unit;
the last line is the JSON result.  A fuller record (environment, every op's
latency and set-up time, absent layers, errors) goes to
``.bench_out/``.  The
default seed is ``DEFAULT_SEED``; claims must also hold on ``HELDOUT_SEED``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 2310
HELDOUT_SEED = 8473
SETUP_REPS = 11
MODULES = ("cli", "games", "serialize", "learning", "equilibria", "tensor", "channels")
END_TO_END = {
    "work_per_s": "1/s",     # learning rounds/s on run workloads, verify calls/s on verify-mix
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MIN_TAIL = 10                # report a percentile only with this many samples beyond it


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the qgames sources are missing."""


def pin_threads() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["QG_THREADS"] = str(len(os.sched_getaffinity(0)))


def load_qgames(root: Path = ROOT) -> SimpleNamespace:
    """A fresh import of qgames from root/src, never an installed copy."""
    src = root / "src"
    if not (src / "qgames" / "__init__.py").is_file():
        raise BenchError(f"no qgames sources under {src}")
    if str(src) in sys.path:
        sys.path.remove(str(src))
    sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "qgames" or m.startswith("qgames.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("qgames")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported qgames from {pkg.__file__}, not from {src}")
    mods = {}
    for m in MODULES:
        try:
            mods[m] = importlib.import_module(f"qgames.{m}")
        except ModuleNotFoundError:
            mods[m] = None
    return SimpleNamespace(package=pkg, **mods)


@dataclass
class Call:
    """One finished CLI call: its arguments, exit code and captured streams."""

    argv: list[str]
    code: int | None
    stdout: str
    stderr: str


def invoke(qg, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qg.cli.main(argv)
        except SystemExit as exc:       # argparse rejects the flags
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:               # a traceback is a failed call, not a crashed benchmark
            traceback.print_exc()
            code = None
    return Call(list(argv), code, out.getvalue(), err.getvalue())


def run_op(qg, argvs: list[list[str]]):
    start = perf_counter()
    calls = [invoke(qg, argv) for argv in argvs]
    return calls, perf_counter() - start


def snapshot(out: Path, calls) -> tuple:
    """Every file under out with its bytes, and each call's exit code and stdout."""
    paths = sorted(out.rglob("*")) if out.exists() else []
    return {str(p.relative_to(out)): p.read_bytes() for p in paths if p.is_file()}, [(c.code, c.stdout) for c in calls]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, calls, errors: list[str]) -> None:
        self.attempted += len(calls)
        self.failed += min(len(errors), len(calls))
        self.errors += errors[: max(0, 20 - len(self.errors))]


def set_up(wl, seed: int, work: Path, tally: Tally):
    """Import qgames afresh, generate the inputs and run one warm-up op; return (seconds, qg)."""
    out = work / "warmup"
    start = perf_counter()
    qg = load_qgames()
    wl.prepare(qg, seed, work / "inputs")
    calls, _ = run_op(qg, wl.argvs(0, out))
    seconds = perf_counter() - start
    tally.add(calls, wl.check(calls, out))
    shutil.rmtree(out, ignore_errors=True)
    return seconds, qg


def measure(wl, seed: int, seconds: float, work: Path, tally: Tally, trace: bool) -> SimpleNamespace:
    """Set up, then run the closed loop for `seconds` of ops.

    Untraced, the set-up runs SETUP_REPS times in all, spread evenly over the
    loop, so that its median samples the same stretch of host speed as the
    ops; the time it takes does not count against `seconds`.  Traced, each op
    also runs under the tracer and must write the same bytes.
    """
    setup_times, tracer = [], None
    seconds_each, qg = set_up(wl, seed, work, tally)
    setup_times.append(seconds_each)
    if trace:
        from tracer import Tracer

        tracer = Tracer(qg)
    reps = 1 if trace else SETUP_REPS
    walls, traced_walls = [], []
    start = perf_counter()
    deadline = start + seconds
    j = 1
    while j == 1 or perf_counter() < deadline or len(setup_times) < reps:
        out = work / f"op{j}"
        calls, wall = run_op(qg, wl.argvs(j, out))
        walls.append(wall)
        tally.add(calls, wl.check(calls, out))
        if j == 1:
            first = snapshot(out, calls)
        if tracer is not None:
            out_t = work / f"op{j}-traced"
            calls_t, wall_t = tracer.run(lambda: run_op(qg, wl.argvs(j, out_t)))
            traced_walls.append(wall_t)
            errors = wl.check(calls_t, out_t)
            if not errors and snapshot(out, calls) != snapshot(out_t, calls_t):
                errors = [f"op {j}: traced run wrote different bytes"]
            tally.add(calls_t, errors)
            shutil.rmtree(out_t, ignore_errors=True)
        if j > 1:
            shutil.rmtree(out, ignore_errors=True)
        if len(setup_times) < reps and perf_counter() - start >= seconds * len(setup_times) / reps:
            seconds_each, qg = set_up(wl, seed, work, tally)
            setup_times.append(seconds_each)
            start += seconds_each
            deadline += seconds_each
        j += 1

    # the first timed op again, with the same seed: identical files and stdout
    again = work / "op1-again"
    calls, _ = run_op(qg, wl.argvs(1, again))
    errors = wl.check(calls, again)
    if not errors and snapshot(again, calls) != first:
        errors = ["op 1 repeated with the same seed wrote different bytes"]
    tally.add(calls, errors)
    return SimpleNamespace(walls=walls, traced_walls=traced_walls, setup_times=setup_times, qg=qg, tracer=tracer)


def environment(qg) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src = ROOT / "src"
    digest = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        digest.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "QG_THREADS": os.environ.get("QG_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "qgames_version": getattr(qg.package, "__version__", None),
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of root's git repository, read from .git without running git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_benchmark(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return (result line, full record)."""
    from tracer import LAYERS, metric_specs

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        timing = measure(wl, seed, seconds, work, tally, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls, setup_times, qg, tracer = timing.walls, timing.setup_times, timing.qg, timing.tracer
    extra = {
        "ops": len(walls), "units_per_op": wl.units_per_op, "unit": wl.unit,
        "op_ms": [1e3 * w for w in walls], "setup_reps_s": setup_times,
    }
    if trace:
        overhead = sum(timing.traced_walls) / sum(walls) - 1.0
        values = tracer.metrics(overhead)
        units = {s["name"]: s["unit"] for s in metric_specs()}
        extra.update(absent_layers=tracer.absent, layer_moves={layer: spec[2] for layer, spec in LAYERS.items()})
    else:
        values = {
            "work_per_s": wl.units_per_op * len(walls) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
        extra["op_ms_p50"] = 1e3 * statistics.median(walls)
        if len(walls) - 1 - int(0.9 * len(walls)) >= MIN_TAIL:
            extra["op_ms_p90"] = 1e3 * sorted(walls)[int(0.9 * len(walls))]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(qg), "result": result, "extra": extra, "errors": tally.errors,
    }
    return result, record


def summary(result: dict, record: dict) -> list[str]:
    """The environment and every metric by name with its unit, for people to read."""
    extra = record["extra"]
    lines = [
        "env " + json.dumps(record["environment"], sort_keys=True),
        f"{record['workload']} seed={record['seed']} ops={extra['ops']} "
        f"attempted={result['attempted']} failed={result['failed']}",
    ]
    lines += [f"  {name:40s} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    for name in ("op_ms_p50", "op_ms_p90"):
        if name in extra:
            lines.append(f"  {name:40s} {extra[name]:.6g} ms (n={extra['ops']} ops, not gated)")
    lines += [f"  absent layer: {layer}" for layer in extra.get("absent_layers", [])]
    lines += [f"  failed: {err}" for err in record["errors"]]
    return lines


def main(argv=None) -> int:
    pin_threads()
    from workloads import workloads

    wls = workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        result, record = run_benchmark(wls[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"record {path.relative_to(ROOT)}")

    print("\n".join(summary(result, record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
