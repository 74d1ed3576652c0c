"""No-regret learning dynamics and equilibrium certification for quantum games.

Players hold density-matrix strategies on finite registers; payoffs are
expectations of Hermitian utility tensors made of local terms on a few
registers.  The package provides the tensor/channel machinery (partial traces,
register permutations, Choi-matrix superoperators), one game type and its
constructors (dense, random, classical and Bell-basis embeddings, polymatrix),
matrix-multiplicative-weights and Frobenius-FTRL learners with regret
accounting, and certificates for Nash, coarse-correlated, and finite-deviation
equilibria, including minimax value brackets for two-player zero-sum games.
"""

__version__ = "0.1.0"

from .channels import (
    ChoiMatrix,
    apply_adjoint,
    apply_superop,
    choi_of_identity,
    choi_of_map,
    is_completely_positive,
    is_cptp,
    is_trace_preserving,
    is_unital,
    lift_channel,
    replacement_channel,
    unitary_channel,
)
from .equilibria import (
    EquilibriumReport,
    ValueCertificate,
    best_response,
    brute_force_gap,
    exploitability,
    is_qcce,
    is_qne,
    marginalize,
    maxent_qcce_condition,
    phi_gap,
    ppt_witness,
    zs_certificate,
)
from .games import (
    BELL_BASIS,
    Game,
    PolymatrixGame,
    QuantumGame,
    bell_projector,
    classical_embed,
    gain_matrix,
    graph_edges,
    maxent_game,
    polymatrix_to_qg,
    random_game,
    random_polymatrix,
    utility,
    zero_sum_game,
)
from .learning import (
    Constant,
    FrobeniusFTRL,
    MMWU,
    Schedule,
    ScriptedNoRegret,
    Trajectory,
    doubling_schedule,
    fixed_schedule,
    horizon_for_epsilon,
    run_game,
    scripted_team,
)
from .tensor import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_coords,
    check_density,
    exp_density,
    herm,
    herm_eig,
    herm_exp,
    hs_inner,
    kron,
    lambda_max,
    lambda_min,
    partial_trace,
    partial_transpose,
    permute_registers,
    project_to_density,
    random_density,
    random_hermitian,
    random_pure_states,
    simplex_projection,
    spectral_norm,
)
