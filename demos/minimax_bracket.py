"""Bracketing the value of a zero-sum quantum game by self-play alone.

For a two-player zero-sum game the learned time-averaged strategies certify
the game value from both sides: the smallest eigenvalue of the adjoint gain
at Alice's average is a guaranteed floor, the largest eigenvalue of the gain
at Bob's average a guaranteed ceiling, and the realized payoff sits in
between (weak duality).  As the horizon grows the bracket tightens at the
regret rate, squeezing onto the minimax value without ever solving a
semidefinite program.
"""

import numpy as np

import qgames as qg

game = qg.random_game((2, 2), 7, kind="zero_sum")

print("horizon   floor        payoff       ceiling      width")
for T in (30, 100, 300, 1000, 3000, 10000):
    eta = float(np.sqrt(np.log(2) / T))
    learners = [qg.MMWU(2, qg.fixed_schedule(eta)) for _ in range(2)]
    traj = qg.run_game(game, learners, T, stride=T)
    cert = qg.zs_certificate(game, traj.marginal_average(0), traj.marginal_average(1))
    assert cert.lower <= cert.value_at + 1e-9 <= cert.upper + 2e-9
    print(f"{T:7d}   {cert.lower:+.6f}   {cert.value_at:+.6f}   {cert.upper:+.6f}   {cert.width:.6f}")

print("\nevery row satisfies floor <= payoff <= ceiling; the width decays ~ 1/sqrt(T)")
