"""Per-layer spans for the traced run, recorded from outside the program.

A layer is a public qgames function.  It is timed by replacing, for the length
of one traced op, the name under which each caller module imported it (for
example ``qgames.learning.kron``); the learner update is timed by a subclass of
``MMWU`` installed as ``qgames.cli.MMWU``.  A name that no longer exists is
reported as absent, so refactors that delete a function still run.

Spans nest per thread, and a layer's self time is its span minus its child
spans.  Times are the calling thread's CPU time (``time.thread_time``): under
the thread pool of ``run --runs`` a wall-clock span would also count the time
its thread waits for the interpreter lock while the other thread runs.  The op
itself is the span ``cli.main``, whose self time is argparse and glue.  Spans
are aggregated in memory, per layer, and read once when the benchmark ends.
"""

from __future__ import annotations

import functools
import os
import threading
from time import thread_time

# layer -> (call sites "<module>.<name>" that are replaced, count the bytes of
# the file named by the first argument, the end-to-end metric it should move)
LAYERS = {
    "learning.update": ((), False, "work_per_s on zs2-batch; ~0 on verify-mix"),
    "learning.run_game": (("cli.run_game",), False, "work_per_s on poly8-cycle and general444-ckpt"),
    "tensor.kron": (("learning.kron", "equilibria.kron", "games.kron"), False,
                    "work_per_s on poly8-cycle; ~0 on verify-mix"),
    "tensor.lambda_max": (("learning.lambda_max", "equilibria.lambda_max"), False,
                          "work_per_s on general444-ckpt; ~0 on zs2-batch"),
    "tensor.partial_trace": (("cli.partial_trace", "equilibria.partial_trace", "games.partial_trace"), False,
                             "work_per_s on general444-ckpt; ~0 on zs2-batch"),
    "games.front_tensor": (("learning.front_tensor", "games.front_tensor"), False,
                           "work_per_s on general444-ckpt; ~0 on zs2-batch"),
    "games.gain_matrix": (("equilibria.gain_matrix",), False,
                          "work_per_s on general444-ckpt; ~0 on zs2-batch"),
    "games.utility": (("learning.utility", "equilibria.utility"), False,
                      "work_per_s on general444-ckpt; ~0 on zs2-batch"),
    "games.polymatrix_to_qg": (("cli.polymatrix_to_qg",), False,
                               "work_per_s and peak_rss_mb on poly8-cycle and verify-mix"),
    "games.random_game": (("cli.random_game",), False, "work_per_s on general444-ckpt and zs2-batch"),
    "equilibria.exploitability": (("learning.exploitability",), False,
                                  "work_per_s on general444-ckpt; ~0 on zs2-batch"),
    "equilibria.is_qcce": (("cli.is_qcce",), False, "work_per_s on verify-mix"),
    "equilibria.is_qne": (("cli.is_qne",), False, "work_per_s on verify-mix"),
    "equilibria.zs_certificate": (("cli.zs_certificate",), False, "work_per_s on verify-mix"),
    "channels.apply_superop": (("equilibria.apply_superop",), False, "work_per_s on verify-mix"),
    "channels.apply_adjoint": (("equilibria.apply_adjoint",), False, "work_per_s on verify-mix"),
    "serialize.save_game": (("cli.save_game",), False, "work_per_s on general444-ckpt and zs2-batch"),
    "serialize.load_game": (("cli.load_game",), True, "work_per_s on verify-mix; ~0 on zs2-batch"),
    "serialize.load_state": (("cli.load_state",), True, "work_per_s on verify-mix; ~0 on zs2-batch"),
    "serialize.write_trajectory_csv": (("cli.write_trajectory_csv",), True, "work_per_s on general444-ckpt"),
    "serialize.write_json": (("cli.write_json", "serialize.write_json"), True, "work_per_s on general444-ckpt"),
    "serialize.sha256_file": (("cli.sha256_file",), True, "work_per_s on general444-ckpt"),
}
MAIN = "cli.main"   # the op itself; its self time is argparse and glue on every workload


def metric_specs() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it; values are per traced op."""
    specs = []
    for layer, (_, counts_bytes, _) in LAYERS.items():
        specs.append({"name": f"{layer}.calls", "unit": "calls/op", "better": "lower"})
        specs.append({"name": f"{layer}.self_s", "unit": "s/op", "better": "lower"})
        if counts_bytes:
            specs.append({"name": f"{layer}.bytes", "unit": "B/op", "better": "lower"})
    specs += [
        {"name": f"{MAIN}.self_s", "unit": "s/op", "better": "lower"},
        {"name": "cli.threads", "unit": "count", "better": "higher"},
        {"name": "bench.trace_overhead_frac", "unit": "ratio", "better": "lower"},
        {"name": "bench.traced_ops", "unit": "count", "better": "higher"},
    ]
    return specs


class _ThreadRecord:
    def __init__(self):
        self.stack: list[list] = []                 # [layer, start, child seconds]
        self.layers: dict[str, list] = {}           # layer -> [calls, self seconds, bytes]
        self.active = False                         # ran a layer's span during the current op


class Tracer:
    """Installs the wrappers around one op at a time and aggregates their spans."""

    def __init__(self, qg):
        self.absent: list[str] = []
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._lock = threading.Lock()
        self.ops = 0
        self.max_threads = 0
        self._wrapped = self._build(qg)

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecord()
            with self._lock:
                self._records.append(rec)
        return rec

    def _enter(self, layer: str) -> list:
        rec = self._record()
        rec.active = rec.active or layer != MAIN
        frame = [layer, thread_time(), 0.0]
        rec.stack.append(frame)
        return frame

    def _exit(self, frame: list, nbytes: int = 0) -> None:
        end = thread_time()
        rec = self._record()
        rec.stack.pop()
        layer, start, child = frame
        dur = end - start
        stats = rec.layers.setdefault(layer, [0, 0.0, 0])
        stats[0] += 1
        stats[1] += dur - child
        stats[2] += nbytes
        if rec.stack:
            rec.stack[-1][2] += dur

    def _wrap(self, layer: str, fn, counts_bytes: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, os.path.getsize(args[0]) if counts_bytes and os.path.exists(args[0]) else 0)

        return traced

    def _timed_mmwu(self, base):
        tracer = self
        prop = base.__dict__.get("strategy")
        if not isinstance(prop, property) or not callable(getattr(base, "observe", None)):
            return None

        class TimedMMWU(base):
            @property
            def strategy(self):
                frame = tracer._enter("learning.update")
                try:
                    return prop.fget(self)
                finally:
                    tracer._exit(frame)

            def observe(self, *args, **kwargs):
                frame = tracer._enter("learning.update")
                try:
                    return base.observe(self, *args, **kwargs)
                finally:
                    tracer._exit(frame)

        return TimedMMWU

    def _build(self, qg) -> list[tuple[object, str, object]]:
        """(module, name, replacement) for every call site that still exists."""
        out = []
        for layer, (sites, counts_bytes, _) in LAYERS.items():
            found = False
            for site in sites:
                mod_name, attr = site.rsplit(".", 1)
                mod = getattr(qg, mod_name, None)
                fn = getattr(mod, attr, None)
                if callable(fn):
                    out.append((mod, attr, self._wrap(layer, fn, counts_bytes)))
                    found = True
            if layer == "learning.update":
                timed = self._timed_mmwu(getattr(qg.cli, "MMWU", None) or object)
                if timed is not None:
                    out.append((qg.cli, "MMWU", timed))
                    found = True
            if not found:
                self.absent.append(layer)
        return out

    def run(self, fn):
        """Call fn() as one op, with every wrapper installed; return its result."""
        for rec in self._records:
            rec.active = False
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._wrapped]
        for mod, attr, repl in self._wrapped:
            setattr(mod, attr, repl)
        frame = self._enter(MAIN)
        try:
            return fn()
        finally:
            self._exit(frame)
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)
            self.ops += 1
            self.max_threads = max(self.max_threads, sum(rec.active for rec in self._records))

    def totals(self) -> dict:
        """layer -> [calls, self seconds, bytes], summed over all threads."""
        layers = {}
        for rec in self._records:
            for layer, s in rec.layers.items():
                t = layers.setdefault(layer, [0, 0.0, 0])
                for i in range(3):
                    t[i] += s[i]
        return layers

    def metrics(self, overhead_frac: float) -> dict:
        ops = max(self.ops, 1)
        layers = self.totals()
        out = {}
        for layer, (_, counts_bytes, _) in LAYERS.items():
            calls, self_s, nbytes = layers.get(layer, [0, 0.0, 0])
            out[f"{layer}.calls"] = calls / ops
            out[f"{layer}.self_s"] = self_s / ops
            if counts_bytes:
                out[f"{layer}.bytes"] = nbytes / ops
        out[f"{MAIN}.self_s"] = layers.get(MAIN, [0, 0.0])[1] / ops
        out["cli.threads"] = self.max_threads
        out["bench.trace_overhead_frac"] = overhead_frac
        out["bench.traced_ops"] = self.ops
        return out
