"""Tests of the benchmark itself, on tiny sizes: python3 -m pytest bench"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer, metric_specs  # noqa: E402
from workloads import RunWorkload, VerifyMix, workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_workloads():
    return [
        RunWorkload("zs2", "", ["--kind", "zero-sum", "--dims", "2,2", "--T", "6", "--eta", "0.1", "--stride", "3"],
                    dims=(2, 2), T=6, stride=3, runs=3),
        RunWorkload("general", "", ["--kind", "general", "--dims", "2,3", "--T", "5", "--eta", "0.2", "--stride", "2"],
                    dims=(2, 3), T=5, stride=2),
        RunWorkload("poly", "", ["--eta", "0.1", "--T", "4", "--stride", "1"], dims=(2, 2, 2), T=4, stride=1,
                    poly_games=2),
        VerifyMix(),
    ]


@pytest.fixture(scope="module")
def qg():
    return run.load_qgames()


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in workloads().values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert SPEC["per_layer"] == metric_specs()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("wl", tiny_workloads(), ids=lambda wl: wl.name)
def test_emitted_metrics_match_benchmark_json(wl, trace):
    result, record = run.run_benchmark(wl, seed=5, seconds=0.05, trace=trace)
    calls_per_op = len(wl.argvs(0, Path()))
    setups = 1 if trace else run.SETUP_REPS
    assert len(record["extra"]["setup_reps_s"]) == setups
    ops = setups + record["extra"]["ops"] * (1 + trace) + 1
    assert (result["attempted"], result["failed"], result["correct"]) == (ops * calls_per_op, 0, True)
    record["extra"]["op_ms_p90"] = 1.0
    assert len(run.summary(result, record)) >= 2 + len(result["metrics"])
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("wl", tiny_workloads(), ids=lambda wl: wl.name)
def test_traced_run_writes_the_same_bytes(wl, qg, tmp_path):
    wl.prepare(qg, 3, tmp_path / "inputs")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    calls, _ = run.run_op(qg, wl.argvs(1, plain))
    tracer = Tracer(qg)
    calls_t, _ = tracer.run(lambda: run.run_op(qg, wl.argvs(1, traced)))
    assert wl.check(calls, plain) == [] and wl.check(calls_t, traced) == []
    assert run.snapshot(plain, calls) == run.snapshot(traced, calls_t)
    assert tracer.absent == [] and tracer.ops == 1
    assert not hasattr(qg.cli.run_game, "__wrapped__")   # wrappers removed again


def test_a_missing_layer_is_reported_absent(qg, monkeypatch, tmp_path):
    monkeypatch.delattr(qg.learning, "front_tensor")
    monkeypatch.delattr(qg.games, "front_tensor")
    tracer = Tracer(qg)
    assert tracer.absent == ["games.front_tensor"]
    assert tracer.metrics(0.0)["games.front_tensor.calls"] == 0


def corrupt_csv_gap(path: Path) -> None:
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("gap_0")] = repr(float(row[header.index("bound")]) + 1e-6)
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines))


def test_corrupted_outputs_count_as_failures(qg, tmp_path):
    zs2, general, _, mix = tiny_workloads()
    for wl in (zs2, general, mix):
        wl.prepare(qg, 4, tmp_path / wl.name)

    out = tmp_path / "general-op"
    calls, _ = run.run_op(qg, general.argvs(1, out))
    assert general.check(calls, out) == []
    corrupt_csv_gap(out / "trajectory.csv")
    assert len(general.check(calls, out)) == 1

    out = tmp_path / "zs2-op"
    calls, _ = run.run_op(qg, zs2.argvs(1, out))
    (out / "run_002" / "manifest.json").write_text("{}")
    assert len(zs2.check(calls, out)) == 1

    calls, _ = run.run_op(qg, mix.argvs(1, tmp_path))
    assert mix.check(calls, tmp_path) == []
    calls[1].stdout += " "
    calls[2].code = None
    assert len(mix.check(calls, tmp_path)) == 2

    fresh = tiny_workloads()[3]
    fresh.paths = mix.paths
    calls, _ = run.run_op(qg, fresh.argvs(1, tmp_path))
    report = json.loads(calls[0].stdout)
    report["gaps"][0] += 1e-6
    calls[0].stdout = json.dumps(report)
    assert len(fresh.check(calls, tmp_path)) == 1


def test_a_program_writing_wrong_bytes_fails_every_call(monkeypatch):
    load = run.load_qgames

    def load_corrupting(*args):
        qg = load(*args)
        write = qg.cli.write_trajectory_csv

        def write_then_corrupt(path, traj):
            write(path, traj)
            corrupt_csv_gap(Path(path))

        qg.cli.write_trajectory_csv = write_then_corrupt
        return qg

    monkeypatch.setattr(run, "load_qgames", load_corrupting)
    result, _ = run.run_benchmark(tiny_workloads()[1], seed=5, seconds=0.05, trace=False)
    assert result["attempted"] >= run.SETUP_REPS + 2
    assert (result["failed"], result["correct"]) == (result["attempted"], False)


def test_missing_sources_fail_before_any_result(tmp_path):
    with pytest.raises(run.BenchError):
        run.load_qgames(tmp_path)
