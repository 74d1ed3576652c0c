"""An entangled equilibrium that no amount of independent learning can reach.

Take a classical 2x2 common-payoff game and attach its payoffs to the Bell
basis instead of the computational product basis.  Every Bell state has
maximally mixed marginals, so a coarse deviation earns exactly the payoff
mean; a Bell mixture is therefore robust against all replacement deviations
iff its expected payoff is at least that mean.  Concentrating the mixture on
the maximum entry gives a pure state that passes the certificate while the
partial-transpose witness proves it entangled.  Time-averaged independent
play only ever produces separable states, so this equilibrium lives strictly
outside what the learning dynamics can converge to.
"""

import numpy as np

import qgames as qg

a = np.array([[1.0, 0.0], [0.0, 0.0]])
game = qg.maxent_game(a, a)
print("common payoff:", a.tolist(), "-> payoff mean", a.mean())

for (p, q) in [(0, 0), (0, 1)]:
    bell = qg.bell_projector(p, q)
    lam = np.zeros((2, 2))
    lam[p, q] = 1.0
    rep = qg.is_qcce(game, bell, tol=1e-8)
    scalar = qg.maxent_qcce_condition(a, a, lam)
    witness = qg.ppt_witness(bell, (2, 2))
    print(f"\nBell state e_{p}{q}: payoff {a[p, q]:.2f}")
    print(f"  deviation gap {rep.max_gap:+.4f}  -> equilibrium: {rep.verdict}")
    print(f"  scalar mean test: {scalar} (agreement: {scalar == rep.verdict})")
    print(f"  partial-transpose witness: {witness} "
          f"(PT lambda_min = {qg.lambda_min(qg.partial_transpose(bell, (2, 2), 1)):+.3f})")

mixed = np.eye(4) / 4
print("\nuniform Bell mixture (the maximally mixed joint):",
      "boundary equilibrium, gaps", [round(x, 12) for x in qg.is_qcce(game, mixed).gaps])

print("\nonly entries at or above the payoff mean support a pure Bell equilibrium;")
print("the argmax entry always does, and its state is certifiably entangled.")
