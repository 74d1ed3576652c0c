"""Day-to-day MMWU behavior in two-player zero-sum games on the Bloch sphere.

Two qualitative regimes show up in zero-sum self-play even though the time
averages always converge:

* oscillation: the iterates circle an interior equilibrium forever
  (matching pennies is the classic case), while the joint-state eigenvalues
  of the time average settle;
* boundary convergence: with a dominant direction in the payoff the iterates
  run to a pure state, the Bloch vector norm approaching 1.

Each regime writes a trajectory CSV with per-step Bloch coordinates
(bloch_i_x/y/z), per-step joint eigenvalues, and time-averaged joint
eigenvalues, which is exactly the data behind sphere-and-spectrum plots.
"""

from pathlib import Path

import numpy as np

import qgames as qg
from qgames.serialize import write_trajectory_csv
from qgames.tensor import PAULI_Z

OUT = Path(__file__).resolve().parent / "out" / "bloch"
OUT.mkdir(parents=True, exist_ok=True)

T = 4000
# asymmetric matching pennies: the interior equilibrium sits away from the
# maximally mixed starting point, so the iterates cycle around it forever
ASYM_MP = np.array([[2.0, -1.0], [-1.0, 1.0]])

fixtures = {
    "oscillating": qg.classical_embed([ASYM_MP, -ASYM_MP]),
    # constant gain sigma_z for the first player: iterates hit the boundary
    "converging": qg.zero_sum_game(qg.kron(PAULI_Z, np.eye(2, dtype=complex)), 2, 2),
}

for name, game in fixtures.items():
    learners = [qg.MMWU(2, qg.fixed_schedule(0.1)) for _ in range(2)]
    traj = qg.run_game(game, learners, T, stride=4)
    write_trajectory_csv(OUT / f"{name}.csv", traj)
    xyz = traj.bloch[0]
    norms = np.linalg.norm(xyz, axis=1)
    prod = traj.product_of_marginal_averages()
    gap = max(qg.exploitability(game, i, prod) for i in range(2))
    print(f"{name:>12}: player-0 Bloch norm ends {norms[-1]:.3f}; "
          f"z-spread over the last quarter {np.ptp(xyz[3 * len(xyz) // 4:, 2]):.3f}; "
          f"averaged-play Nash gap {gap:.4f}")

print(f"\nCSV trajectories in {OUT} (light-to-dark time gradient = row order)")
