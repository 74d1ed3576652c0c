"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines alongside the timing and measured margins.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import qgames as qg
from qgames import serialize as ser
from qgames.cli import main
from qgames.tensor import maxabs


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_01_mmwu_regret_bound():
    with criterion(1, "MMWU average regret below eta + ln(d)/(eta t) on 20 games"):
        start = time.perf_counter()
        configs = [((2, 2), 0.5)] * 10 + [((2, 2, 2), 1.0)] * 10
        worst_margin = -np.inf
        for seed, (dims, eta) in enumerate(configs):
            g = qg.random_game(dims, 9000 + seed)
            learners = [qg.MMWU(d, qg.fixed_schedule(eta)) for d in dims]
            traj = qg.run_game(g, learners, 256, stride=4)
            for row, t in enumerate(traj.checkpoints):
                bound = eta + np.log(2) / (eta * int(t))
                margin = traj.avg_regret[row].max() - bound
                worst_margin = max(worst_margin, margin)
                assert margin <= 1e-6, (seed, int(t))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
        print(f"  worst bound margin {worst_margin:.3e}, runtime {elapsed:.2f}s", end=" ")


def test_criterion_02_general_qcce_horizon():
    with criterion(2, "general games reach a 0.2-QCCE at eta=0.1, T=70; gap curve under bound"):
        games = [qg.random_game((2, 2), 9100 + seed) for seed in range(20)]
        eta, T = qg.horizon_for_epsilon(games[0], 0.2)
        assert (eta, T) == (0.1, 70)
        worst = -np.inf
        for seed, g in enumerate(games):
            learners = [qg.MMWU(2, qg.fixed_schedule(eta)) for _ in range(2)]
            traj = qg.run_game(g, learners, T, stride=1)
            gap = qg.is_qcce(g, traj.joint_average()).max_gap
            worst = max(worst, gap)
            assert gap <= 0.2 + 1e-6, seed
            # exploitability curve never crosses the theoretical bound column
            assert np.all(traj.gaps.max(axis=1) <= traj.bound + 1e-9), seed
        print(f"  worst final QCCE gap {worst:.4f} (limit 0.2)", end=" ")


def test_criterion_03_zero_sum_qne_horizon():
    with criterion(3, "zero-sum pairs reach a 2*0.2-QNE at eta=0.05, T=278"):
        games = [qg.random_game((2, 2), 9200 + seed, kind="zero_sum") for seed in range(20)]
        eta, T = qg.horizon_for_epsilon(games[0], 0.2)
        assert (eta, T) == (0.05, 278)
        worst = -np.inf
        for seed, g in enumerate(games):
            learners = [qg.MMWU(2, qg.fixed_schedule(eta)) for _ in range(2)]
            traj = qg.run_game(g, learners, T, stride=10)
            assert (traj.gap_mode, traj.bound_scale) == ("qne", 2.0)
            cert = qg.zs_certificate(g, traj.marginal_average(0), traj.marginal_average(1))
            worst = max(worst, cert.width)
            assert cert.width <= 2 * 0.2 + 1e-6, seed
            assert np.all(traj.gaps.max(axis=1) <= traj.bound + 1e-9), seed
        print(f"  worst bracket width {worst:.4f} (limit 0.4)", end=" ")


def test_criterion_04_polymatrix_qne_horizon():
    with criterion(4, "3-cycle polymatrix play is a 0.3-QNE at eta=0.05, T=278"):
        games = [qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", 3), 9300 + seed) for seed in range(5)]
        eta, T = qg.horizon_for_epsilon(games[0], 0.3)
        assert (abs(eta - 0.05) < 1e-15) and T == 278
        worst = -np.inf
        for seed, pg in enumerate(games):
            assert qg.polymatrix_to_qg(pg).zero_sum
            learners = [qg.MMWU(2, qg.fixed_schedule(eta)) for _ in range(3)]
            traj = qg.run_game(pg, learners, T, stride=T)
            assert (traj.gap_mode, traj.bound_scale) == ("qne", 3.0)
            prod = traj.product_of_marginal_averages()
            expl = [qg.exploitability(pg, i, prod) for i in range(3)]
            worst = max(worst, max(expl))
            assert max(expl) <= 0.3 + 1e-6, seed
        print(f"  worst player exploitability {worst:.4f} (limit 0.3)", end=" ")


def test_criterion_05_minimax_bracket():
    with criterion(5, "minimax brackets shrink below 0.05 by T=1e4 with weak duality throughout"):
        T = 10_000
        eta = float(np.sqrt(np.log(2) / T))
        widest = -np.inf
        # the twenty T=1e4 runs are one lockstep batch; the short horizons run singly
        games = [qg.random_game((2, 2), 9400 + seed, kind="zero_sum") for seed in range(20)]
        learners = [qg.MMWU(2, qg.fixed_schedule(eta), batch=len(games)) for _ in range(2)]
        long_runs = qg.run_game(games, learners, T, stride=T)
        for seed, (g, long_run) in enumerate(zip(games, long_runs)):
            trajs = []
            for horizon in (100, 1000) if seed < 3 else ():
                learners = [qg.MMWU(2, qg.fixed_schedule(eta)) for _ in range(2)]
                trajs.append(qg.run_game(g, learners, horizon, stride=horizon))
            trajs.append(long_run)
            certs = [
                qg.zs_certificate(g, traj.marginal_average(0), traj.marginal_average(1)) for traj in trajs
            ]
            for cert in certs:
                assert cert.lower <= cert.value_at + 1e-9 <= cert.upper + 2e-9, seed
            assert certs[-1].width < 0.05, seed
            widest = max(widest, certs[-1].width)
            if len(certs) == 3:
                assert certs[2].width < certs[0].width, seed
        print(f"  widest final bracket {widest:.4f} (limit 0.05)", end=" ")


def test_criterion_06_choi_suite():
    with criterion(6, "Choi roundtrip, adjoint equation, and CPTP classification"):
        rng_seeds = range(100)
        for seed in rng_seeds:
            da, db = [(2, 2), (2, 3), (3, 2), (4, 2)][seed % 4]
            r = qg.random_hermitian(da * db, np.random.default_rng(9500 + seed))
            c = qg.ChoiMatrix(r, da, db)
            rebuilt = qg.choi_of_map(lambda x: qg.apply_superop(c, x), db)
            assert maxabs(rebuilt - r) <= 1e-10
            rng = np.random.default_rng(9600 + seed)
            a = qg.random_hermitian(da, rng)
            b = qg.random_hermitian(db, rng)
            lhs = qg.hs_inner(a, qg.apply_superop(c, b))
            rhs = qg.hs_inner(qg.apply_adjoint(c, a), b)
            assert abs(lhs - rhs) <= 1e-10
        rng = np.random.default_rng(97)
        fixtures = {
            "identity": (qg.choi_of_identity(2), True),
            "unitary": (qg.unitary_channel(haar_unitary(2, 98)), True),
            "replacement": (qg.replacement_channel(qg.random_density(2, rng)), True),
            "transpose": (qg.ChoiMatrix(qg.choi_of_map(lambda x: x.T, 2), 2, 2), False),
        }
        for name, (c, expect_cp) in fixtures.items():
            assert qg.is_completely_positive(c, tol=1e-9) == expect_cp, name
            assert qg.is_trace_preserving(c, tol=1e-9), name
        transpose_choi = fixtures["transpose"][0]
        assert abs(qg.lambda_min(transpose_choi.matrix) + 1.0) <= 1e-9
        print("  100 fixtures exact to 1e-10", end=" ")


def test_criterion_07_maxent_entangled_qcce():
    with criterion(7, "Bell-basis game: entangled pure QCCE and scalar test agreement"):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        g = qg.maxent_game(a, a)
        bell = qg.bell_projector(0, 0)
        rep = qg.is_qcce(g, bell, tol=1e-8)
        assert rep.verdict and rep.max_gap <= 1e-8
        pt_min = qg.lambda_min(qg.partial_transpose(bell, (2, 2), 1))
        assert abs(pt_min + 0.5) <= 1e-9
        assert qg.ppt_witness(bell, (2, 2)) == "entangled"

        rng = np.random.default_rng(9700)
        agree = 0
        true_count = 0
        for _ in range(200):
            pa = rng.uniform(-1, 1, (2, 2))
            pb = rng.uniform(-1, 1, (2, 2))
            lam = rng.random((2, 2))
            lam /= lam.sum()
            rho = sum(lam[p, q] * qg.bell_projector(p, q) for p in range(2) for q in range(2))
            scalar = qg.maxent_qcce_condition(pa, pb, lam)
            spectral = qg.is_qcce(qg.maxent_game(pa, pb), rho, tol=1e-8).verdict
            assert scalar == spectral
            agree += 1
            true_count += scalar
        assert 0 < true_count < 200  # both verdicts exercised
        print(f"  200/200 verdict agreements ({true_count} positive)", end=" ")


def test_criterion_08_sampling_oracle_equivalence():
    with criterion(8, "sampling oracle within 1e-2 below the eigenvalue gap, never above"):
        rng = np.random.default_rng(9800)
        worst_deficit = -np.inf
        for case in range(50):
            g = qg.random_game((2, 2), 9900 + case)
            rho = qg.random_density(4, rng)
            i = case % 2
            opp = qg.partial_trace(rho, (2, 2), keep=(1 - i,))
            exact = qg.lambda_max(qg.gain_matrix(g, i, opp)) - qg.utility(g, rho, i)
            sampled = qg.brute_force_gap(g, i, rho, 10_000, seed=9950 + case)
            deficit = exact - sampled
            assert -1e-9 <= deficit <= 1e-2, case
            worst_deficit = max(worst_deficit, deficit)
        print(f"  worst sampling deficit {worst_deficit:.2e}", end=" ")


def test_criterion_09_scripted_convergence_and_fallback():
    with criterion(9, "scripted play tracks a separable target; fallback stays no-regret"):
        T = 10_000
        rng = np.random.default_rng(10_000)
        dims = (2, 2, 2)
        profiles = [[qg.random_density(d, rng) for d in dims] for _ in range(4)]
        weights = [0.4, 0.3, 0.2, 0.1]
        target = sum(w * qg.kron(*prof) for w, prof in zip(weights, profiles))
        g = qg.random_game(dims, 10_001)

        team = qg.scripted_team(weights, profiles)
        traj = qg.run_game(g, team, T, stride=T)
        gap_avg = qg.is_qcce(g, traj.joint_average()).max_gap
        gap_target = qg.is_qcce(g, target).max_gap
        assert gap_avg <= gap_target + 10.0 / T
        assert all(member._fallback is None for member in team)

        # one adversarial deviator: the scripted players switch to doubling MMWU
        team = qg.scripted_team(weights, profiles)
        deviator = qg.Constant(np.diag([1.0, 0.0]).astype(complex))
        traj = qg.run_game(g, [team[0], team[1], deviator], T, stride=T)
        assert team[0]._fallback is not None and team[1]._fallback is not None
        bound = (2.0 + qg.doubling_schedule().cumulative_bound(T, 2)) / T
        regs = [traj.avg_regret[-1, i] for i in (0, 1)]
        assert max(regs) <= bound
        print(f"  gap excess {gap_avg - gap_target:.2e}, fallback regret {max(regs):.4f} <= {bound:.4f}", end=" ")


def test_criterion_10_byte_identical_outputs(tmp_path, capsys):
    with criterion(10, "byte-identical CSV/JSON outputs across repeated executions"):
        specs = {
            "general": ["gen", "--kind", "general", "--dims", "2,2", "--seed", "21"],
            "zero-sum": ["gen", "--kind", "zero-sum", "--dims", "2,2", "--seed", "22"],
            "polymatrix": ["gen", "--kind", "polymatrix", "--dims", "2,2,2", "--graph", "cycle",
                            "--seed", "23"],
        }
        games = {}
        for name, argv in specs.items():
            paths = []
            for rep in range(2):
                p = tmp_path / f"{name}-{rep}.json"
                assert main(argv + ["--out", str(p)]) == 0
                paths.append(p)
            assert paths[0].read_bytes() == paths[1].read_bytes(), name
            games[name] = paths[0]

        run_flags = {
            "general": ["--epsilon", "0.2"],
            "zero-sum": ["--epsilon", "0.4"],
            "polymatrix": ["--epsilon", "0.6"],
        }
        for name, flags in run_flags.items():
            dirs = []
            for rep in range(2):
                out = tmp_path / f"run-{name}-{rep}"
                assert main(["run", "--game", str(games[name])] + flags + ["--out", str(out)]) == 0
                dirs.append(out)
            assert (dirs[0] / "trajectory.csv").read_bytes() == (dirs[1] / "trajectory.csv").read_bytes(), name
            assert (dirs[0] / "manifest.json").read_bytes() == (dirs[1] / "manifest.json").read_bytes(), name

        state = tmp_path / "state.json"
        ser.save_state(state, np.eye(4) / 4, (2, 2))
        outs = []
        for _ in range(2):
            main(["verify", "--game", str(games["general"]), "--state", str(state),
                  "--kind", "qcce"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and json.loads(outs[0])

        outs = []
        for _ in range(2):
            main(["maxent", "--a", "1,0;0,0"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and json.loads(outs[0])
        print("  gen/run/verify/maxent outputs reproduced byte-for-byte", end=" ")
