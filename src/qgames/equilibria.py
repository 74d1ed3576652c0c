"""Exploitability, best responses, and equilibrium certificates.

Certification surfaces:

* Nash-style reports on product states (per-player exploitability gaps).
* Coarse-correlated reports on arbitrary joint states via the eigenvalue
  test ``u_i(rho) I - Theta_i((Tr_i rho)^T) >= 0``, equivalent to robustness
  against every replacement-channel deviation.
* Finite-deviation reports for an explicit family of CPTP maps per player.
* Minimax value certificates for two-player zero-sum games.
* A Bell-mixture scalar test for 2x2 Bell-basis games, a partial-transpose
  entanglement witness, and a sampling oracle for deviation gaps.

Gaps are reported signed: a negative gap means strictly unprofitable
deviations, which is useful diagnostic information.  Only verdicts compare
against the tolerance.  ``exploitability`` alone clamps at zero, since it is
defined as a nonnegative "how much can be gained" metric.  The Nash,
coarse-correlated, finite-deviation and minimax certificates first check
each state they certify with ``check_density``, so none passes a non-density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import ChoiMatrix, apply_adjoint, apply_superop, lift_channel
from .games import Game, _others, gain_matrix, utility
from .tensor import (
    _check_distribution,
    _check_int,
    _check_ints,
    _reduced,
    check_density,
    herm,
    herm_eig,
    kron,
    lambda_max,
    lambda_min,
    maxabs,
    partial_trace,
    partial_transpose,
    random_pure_states,
)

LEARNED_TOL = 1e-6
_EXACT_STATE_TOL = 1e-8   # the product-state and Bell-condition checks, on states given exactly


@dataclass(frozen=True)
class EquilibriumReport:
    """Per-player deviation gaps plus a verdict at the stated tolerance."""

    kind: str
    gaps: tuple[float, ...]
    max_gap: float
    tol: float
    verdict: bool
    product_defect: float | None = None


@dataclass(frozen=True)
class ValueCertificate:
    """Weak-duality bracket lower <= value_at <= upper for a zero-sum pair."""

    lower: float
    value_at: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def is_eps_qne(self, eps: float) -> bool:
        return self.width <= 2.0 * eps


def _deviation_gap(g: Game, i: int, rho: np.ndarray) -> float:
    """Signed sup over deviations of u_i(rho_i' (x) Tr_i rho) - u_i(rho)."""
    opp = partial_trace(rho, g.dims, keep=_others(g.n_players, i))
    return lambda_max(gain_matrix(g, i, opp)) - utility(g, rho, i)


def exploitability(g: Game, i: int, rho: np.ndarray) -> float:
    """Best achievable utility gain for player i by deviating, clamped at 0."""
    return max(_deviation_gap(g, i, rho), 0.0)


def best_response(g: Game, i: int, rho_others: np.ndarray) -> np.ndarray:
    """Rank-1 projector onto the top eigenvector of the gain matrix.

    Deterministic under the eigenvector phase and tie conventions of
    :func:`qgames.tensor.herm_eig`.
    """
    _, vecs = herm_eig(gain_matrix(g, i, rho_others))
    v = vecs[:, 0]
    return herm(np.outer(v, v.conj()))


def marginalize(rho: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Product of single-register marginals, Tr_{-0} rho (x) ... (x) Tr_{-(k-1)} rho."""
    dims = _check_ints(dims)
    return kron(*(partial_trace(rho, dims, keep=(i,)) for i in range(len(dims))))


def is_qcce(g: Game, rho: np.ndarray, tol: float = LEARNED_TOL) -> EquilibriumReport:
    """Coarse-correlated certificate: no replacement deviation gains > tol.

    The per-player gap ``lambda_max(Theta_i((Tr_i rho)^T)) - u_i(rho)`` is the
    exact sup over deviation states, so the verdict is the eigenvalue form of
    the defining inequality.
    """
    rho = check_density(rho)
    gaps = tuple(_deviation_gap(g, i, rho) for i in range(g.n_players))
    mx = max(gaps)
    return EquilibriumReport("qcce", gaps, mx, tol, mx <= tol)


def is_qne(g: Game, rho: np.ndarray, tol: float = LEARNED_TOL) -> EquilibriumReport:
    """Nash certificate: product state, within ``_EXACT_STATE_TOL``, with no profitable unilateral deviation."""
    rho = check_density(rho)
    gaps = tuple(_deviation_gap(g, i, rho) for i in range(g.n_players))
    mx = max(gaps)
    defect = maxabs(rho - marginalize(rho, g.dims))
    return EquilibriumReport("qne", gaps, mx, tol, mx <= tol and defect <= _EXACT_STATE_TOL, defect)


def phi_gap(g: Game, rho: np.ndarray, deviations: Sequence[Sequence[ChoiMatrix]]) -> EquilibriumReport:
    """Deviation gaps over an explicit finite family of CPTP maps per player.

    Each channel is lifted to ``phi_i (x) id`` before evaluation; non-CPTP
    deviations are rejected.  Players with an empty family report gap 0; the verdict is at ``LEARNED_TOL``.
    """
    rho = check_density(rho)
    if len(deviations) != g.n_players:
        raise ValueError("one deviation list per player required")
    gaps = []
    for i, family in enumerate(deviations):
        base = utility(g, rho, i)
        candidates = [utility(g, lift_channel(c, g.dims, i)(rho), i) - base for c in family]
        gaps.append(max(candidates) if candidates else 0.0)
    gaps = tuple(gaps)
    mx = max(gaps)
    return EquilibriumReport("qphie", gaps, mx, LEARNED_TOL, mx <= LEARNED_TOL)


def zs_certificate(g: Game, rho: np.ndarray, sigma: np.ndarray) -> ValueCertificate:
    """Minimax bracket for a strategy pair of a two-player zero-sum game.

    The certificate works in the bilinear convention of Jain-Watrous,
    ``u_A = Tr(r (rho (x) sigma^T))`` with ``r`` the partial transpose of
    Alice's tensor on Bob's factor: then Alice's gain operator against sigma
    is the Choi superoperator of ``r`` applied to sigma.
    ``lower = lambda_min(Theta^dag(rho))`` certifies what Alice guarantees,
    ``upper = lambda_max(Theta(sigma))`` what Bob concedes at worst, and
    ``value_at = u_A(rho (x) sigma)`` sits between them (weak duality).
    The pair is an eps-Nash pair iff ``upper - lower <= 2 eps``.  The game
    is read on its dense lift, so a one-edge polymatrix game on its edge.
    """
    rho, sigma = check_density(rho), check_density(sigma)
    if g.n_players != 2 or not g.zero_sum:
        raise ValueError("expected a two-player zero-sum game")
    c = ChoiMatrix(partial_transpose(g.tensors[0], g.dims, 1), *g.dims)
    lower = lambda_min(apply_adjoint(c, rho))
    upper = lambda_max(apply_superop(c, sigma))
    value_at = float(np.vdot(c.matrix, kron(rho, sigma.T)).real)
    return ValueCertificate(lower, value_at, upper)


def maxent_qcce_condition(a: np.ndarray, b: np.ndarray, lam: np.ndarray) -> bool:
    """Scalar test for Bell-basis mixtures sum_pq lam_pq |e_pq><e_pq|.

    True iff ``sum(a * lam) >= mean(a)`` and likewise for b, each up to ``_EXACT_STATE_TOL``,
    which matches the eigenvalue certificate of the corresponding Bell-basis
    game because every Bell state has maximally mixed marginals.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if a.shape != (2, 2) or b.shape != (2, 2) or lam.shape != (2, 2):
        raise ValueError("payoffs and weights must be 2x2")
    _check_distribution(lam, 2)
    gap_a = 0.25 * float(a.sum()) - float((a * lam).sum())
    gap_b = 0.25 * float(b.sum()) - float((b * lam).sum())
    return bool(gap_a <= _EXACT_STATE_TOL and gap_b <= _EXACT_STATE_TOL)


def ppt_witness(rho: np.ndarray, dims: tuple[int, int]) -> str:
    """Peres-Horodecki partial-transpose test on a bipartite state.

    A negative eigenvalue after transposing the second factor certifies
    entanglement; otherwise the test is inconclusive (it is conclusive for
    separability only on 2x2 and 2x3 systems).
    """
    pt = herm(partial_transpose(rho, dims, 1))
    return "entangled" if lambda_min(pt) < -1e-9 else "inconclusive"


def brute_force_gap(
    g: Game,
    i: int,
    rho: np.ndarray,
    n_samples: int,
    seed: int,
) -> float:
    """Sampling lower bound on the deviation gap of player i at rho.

    Evaluates ``u_i(rho' (x) Tr_i rho) - u_i(rho)`` at Haar-random pure
    deviations by building each deviation joint state directly, so the
    estimate is independent of the gain-matrix eigenvalue route it is used to
    cross-check.  Never exceeds the exact gap, converges upward with
    ``n_samples``, and is a running max over a seed-deterministic stream.
    Every payoff is read off the dense lift ``g.tensors``, so the estimate
    stays independent of the game's terms too.
    """
    i = _check_int(i, "player", g.n_players)
    n_samples = _check_int(n_samples, "n_samples", low=1)
    k = g.n_players
    d = g.dims[i]
    n = g.joint_dim
    others = _others(k, i)
    opp = partial_trace(rho, g.dims, keep=others)
    base = float(np.vdot(g.tensors[i], np.asarray(rho, dtype=complex)).real)
    rng = np.random.default_rng(_check_int(seed, "seed", low=0))
    psi = random_pure_states(d, n_samples, rng)
    projectors = psi[:, :, None] * psi[:, None, :].conj()
    # Batched kron(rho'_n, opp) in player-i-first layout, moved back to register order
    joints = (projectors[:, :, None, :, None] * opp[None, None, :, None, :]).reshape(n_samples, n, n)
    front = (i,) + others
    joints = _reduced(joints, [g.dims[p] for p in front], [front.index(s) for s in range(k)])
    vals = np.einsum("pq,nqp->n", g.tensors[i], joints).real
    return float(vals.max() - base)
