"""Decentralized learning on a cycle of pairwise zero-sum quantum games.

Three players sit on a triangle; each edge carries a two-player quantum game
whose payoffs cancel pairwise, so the whole network is zero-sum.  Each player
runs plain MMWU against the sum of their edge gains, never seeing more than
their own feedback.  The game is played edge by edge: no joint utility
tensor is ever built, and the dense lift appears only to confirm that the
network is globally zero-sum.  The product of their individually time-averaged
strategies converges to an approximate Nash equilibrium of the network game,
with every player's exploitability under k * (per-player regret bound).
"""

import qgames as qg

k = 3
pg = qg.random_polymatrix((2, 2, 2), qg.graph_edges("cycle", k), seed=5)
print("lifted network game is globally zero-sum:", qg.polymatrix_to_qg(pg).zero_sum)

eps = 0.3
eta, T = qg.horizon_for_epsilon(pg, eps)
print(f"target {eps}-QNE: stepsize {eta}, horizon {T}\n")

learners = [qg.MMWU(2, qg.fixed_schedule(eta)) for _ in range(k)]
traj = qg.run_game(pg, learners, T, stride=T)
avg_product = traj.product_of_marginal_averages()

print("player   avg regret   exploitability at the averaged product")
for i in range(k):
    reg = traj.avg_regret[-1, i]
    expl = qg.exploitability(pg, i, avg_product)
    print(f"{i:6d}   {reg:10.4f}   {expl:.4f}")

worst = max(qg.exploitability(pg, i, avg_product) for i in range(k))
print(f"\nworst exploitability {worst:.4f} <= {eps} as guaranteed")

# the coarse certificate on the joint average transfers to the marginals
rep = qg.is_qcce(pg, traj.joint_average())
qne = qg.is_qne(pg, qg.marginalize(traj.joint_average(), pg.dims), tol=k * rep.max_gap + 1e-8)
print(f"joint-average coarse gap {rep.max_gap:.4f} -> marginalized Nash gap "
      f"{qne.max_gap:.4f} (<= sum of coarse gaps)")
