"""No-regret learners over density matrices and the repeated-game runner.

Learners implement a two-method protocol: ``strategy`` is the density played
this round (the maximally mixed state before any feedback), and
``observe(gain, opponents)`` absorbs the round's gain matrix.  The runner
passes the opponents' joint state only to learners that set
``watches_opponents`` (the scripted learner, which checks it against its
script), and ``None`` to the others.  The runner is round-synchronous: all
gains for round t are computed from round-t strategies before any learner
advances, matching full-information simultaneous play.

Feedback is the exact gain matrix of each player (full-information online
linear optimization), never a sampled payoff.

MMWU and FTRL learners built with ``batch=B`` hold B independent states in a
(B, d, d) stack, and :func:`run_game` plays B games of one shape in lockstep
with them; a single game is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, log, prod, sqrt
from typing import Sequence

import numpy as np

from .equilibria import exploitability  # noqa: F401  (bench/tracer.py times the name learning.exploitability)
from .games import Game, PolymatrixGame, QuantumGame, _others
from .games import front_tensor  # noqa: F401  (bench/tracer.py times the name learning.front_tensor)
from .tensor import (
    DEFAULT_HERM_TOL,
    bloch_vectors,
    check_density,
    dagger,
    exp_density_stack,
    herm,
    kron,
    kron_spectrum,
    lambda_max,
    maxabs,
    project_to_density_stack,
)

DEVIATION_DETECT_TOL = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Stepsize policy: a fixed eta, or restarts on epochs of doubling length.

    The doubling variant runs epochs of length ``base_epoch * 2^e`` with
    ``eta_e = sqrt(ln(d) / T_e)``, restarting the learner at each boundary;
    this turns the fixed-horizon regret guarantee into an anytime one at a
    small constant-factor cost.
    """

    kind: str = "fixed"
    eta: float = 0.1
    base_epoch: int = 8

    def __post_init__(self):
        if self.kind not in ("fixed", "doubling"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "fixed":
            _check_stepsize(self.eta)
        if self.base_epoch < 1:
            raise ValueError("base epoch length must be >= 1")

    def epoch_length(self, epoch: int) -> int:
        return self.base_epoch * (2 ** epoch)

    def epoch_eta(self, epoch: int, dim: int) -> float:
        return sqrt(log(dim) / self.epoch_length(epoch))

    def cumulative_bound(self, t: int, dim: int) -> float:
        """Upper bound on cumulative external regret after t rounds.

        Each (partial) epoch of length tau at stepsize eta contributes at
        most ``eta * tau + ln(d) / eta`` for gains with eigenvalues in
        [-1, 1].
        """
        if t < 1:
            return 0.0
        if self.kind == "fixed":
            return self.eta * t + log(dim) / self.eta
        total = 0.0
        remaining = t
        epoch = 0
        while remaining > 0:
            t_e = self.epoch_length(epoch)
            eta_e = self.epoch_eta(epoch, dim)
            used = min(remaining, t_e)
            total += eta_e * used + log(dim) / eta_e
            remaining -= used
            epoch += 1
        return total

    def average_bound(self, t: int, dim: int) -> float:
        return self.cumulative_bound(t, dim) / t if t >= 1 else float("inf")


def fixed_schedule(eta: float) -> Schedule:
    return Schedule("fixed", eta=eta)


def doubling_schedule(base_epoch: int = 8) -> Schedule:
    return Schedule("doubling", base_epoch=base_epoch)


def _check_stepsize(eta: float) -> None:
    if not (isfinite(eta) and eta > 0):
        raise ValueError(f"stepsize must be positive and finite, got {eta}")


def _state_shape(dim: int, batch: int | None) -> tuple[int, ...]:
    """(d, d) for a single learner, (B, d, d) for a batch of B independent ones."""
    if batch is None:
        return (dim, dim)
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    return (int(batch), dim, dim)


def _check_gain(gain: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The boundary check of ``observe``: state-shaped and Hermitian, returned symmetrized."""
    gain = np.asarray(gain, dtype=complex)
    if gain.shape != shape:
        raise ValueError(f"gain shape {gain.shape} does not match learner state {shape}")
    if maxabs(gain - dagger(gain)) > DEFAULT_HERM_TOL:
        raise ValueError("gain matrix must be Hermitian")
    return herm(gain)


class MMWU:
    """Matrix multiplicative weights: play exp(eta * sum of gains), normalized.

    The normalized exponential (:func:`~qgames.tensor.exp_density_stack`)
    is shift-stable, so cumulative gains growing linearly in t never
    overflow.  Before any feedback the play is the maximally mixed state,
    and adding c*I to every gain leaves the iterates unchanged.  With
    ``batch=B`` the learner runs B independent copies on one schedule, and
    ``strategy`` and ``observe`` take (B, d, d) stacks.
    """

    kind = "mmwu"

    def __init__(self, dim: int, schedule: Schedule, batch: int | None = None):
        self.dim = int(dim)
        self.schedule = schedule
        self._sum = np.zeros(_state_shape(self.dim, batch), dtype=complex)
        self._epoch = 0
        self._in_epoch = 0
        self._cached = None

    @property
    def _eta(self) -> float:
        if self.schedule.kind == "fixed":
            return self.schedule.eta
        return self.schedule.epoch_eta(self._epoch, self.dim)

    kernel = staticmethod(exp_density_stack)

    def _scaled_sum(self) -> np.ndarray:
        """The matrix ``kernel`` maps to the strategy; :func:`run_game` stacks it across learners."""
        return self._eta * self._sum

    @property
    def strategy(self) -> np.ndarray:
        if self._cached is None:
            self._cached = self.kernel(self._scaled_sum())
        return self._cached

    def observe(self, gain: np.ndarray, opponents: np.ndarray | None = None) -> None:
        self._update(_check_gain(gain, self._sum.shape))

    def _update(self, gain: np.ndarray, opponents: np.ndarray | None = None) -> None:
        """``observe`` minus the boundary check: gain is exactly Hermitian and state-shaped."""
        self._sum = self._sum + gain
        self._in_epoch += 1
        # eager epoch rollover: the first play of the next epoch is the fresh
        # maximally mixed state, so every epoch is a clean fixed-eta run
        if self.schedule.kind == "doubling" and self._in_epoch >= self.schedule.epoch_length(self._epoch):
            self._epoch += 1
            self._in_epoch = 0
            self._sum = np.zeros_like(self._sum)
        self._cached = None

    def average_regret_bound(self, t: int) -> float:
        return self.schedule.average_bound(t, self.dim)


class FrobeniusFTRL:
    """Follow-the-regularized-leader with the squared-Frobenius regularizer.

    Plays the Euclidean projection of ``eta * sum of gains`` onto the density
    set; the projection of the zero matrix is the maximally mixed state.
    ``batch`` stacks independent copies as in :class:`MMWU`.
    """

    kind = "ftrl_frobenius"

    def __init__(self, dim: int, eta: float, batch: int | None = None):
        _check_stepsize(eta)
        self.dim = int(dim)
        self.eta = float(eta)
        self._sum = np.zeros(_state_shape(self.dim, batch), dtype=complex)
        self._cached = None

    kernel = staticmethod(project_to_density_stack)

    def _scaled_sum(self) -> np.ndarray:
        return self.eta * self._sum

    @property
    def strategy(self) -> np.ndarray:
        if self._cached is None:
            self._cached = self.kernel(self._scaled_sum())
        return self._cached

    def observe(self, gain: np.ndarray, opponents: np.ndarray | None = None) -> None:
        self._update(_check_gain(gain, self._sum.shape))

    def _update(self, gain: np.ndarray, opponents: np.ndarray | None = None) -> None:
        self._sum = self._sum + gain
        self._cached = None

    def average_regret_bound(self, t: int) -> float:
        return float("nan")


class Constant:
    """Plays one fixed density forever (useful as an adversarial deviator)."""

    kind = "constant"

    def __init__(self, rho: np.ndarray):
        rho = check_density(np.asarray(rho, dtype=complex))
        self.dim = rho.shape[0]
        self._rho = rho

    @property
    def strategy(self) -> np.ndarray:
        return self._rho

    def observe(self, gain: np.ndarray, opponents: np.ndarray | None = None) -> None:
        pass

    _update = observe

    def average_regret_bound(self, t: int) -> float:
        return float("nan")


class ScriptedNoRegret:
    """Replays a shared product-state script; falls back to MMWU on deviation.

    All players derive the same deterministic component index per round from
    the mixture weights.  Each round the learner compares the opponents'
    reported joint state with the scripted one; any mismatch beyond 1e-9
    permanently switches it to MMWU on a doubling schedule restarted at the
    deviation round (the deviation round's gain is the first one fed to it).
    """

    kind = "scripted"
    watches_opponents = True

    def __init__(
        self,
        player: int,
        weights: Sequence[float],
        profiles: Sequence[Sequence[np.ndarray]],
        fallback_base_epoch: int = 8,
    ):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.min() < -1e-12 or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must form a probability distribution")
        if len(profiles) != len(weights):
            raise ValueError("one strategy profile per mixture component required")
        self.player = int(player)
        self.weights = weights
        self.profiles = [[check_density(np.asarray(r, dtype=complex)) for r in prof] for prof in profiles]
        self.dim = self.profiles[0][self.player].shape[0]
        self.fallback_base_epoch = int(fallback_base_epoch)
        self._counts = np.zeros(len(weights))
        self._t = 0
        self._fallback: MMWU | None = None

    def _current_component(self) -> int:
        return int(np.argmax(self.weights * (self._t + 1) - self._counts))

    @property
    def strategy(self) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.strategy
        return self.profiles[self._current_component()][self.player]

    def observe(self, gain: np.ndarray, opponents: np.ndarray | None = None) -> None:
        self._update(_check_gain(gain, (self.dim, self.dim)), opponents)

    def _update(self, gain: np.ndarray, opponents: np.ndarray | None = None) -> None:
        if self._fallback is not None:
            self._fallback._update(gain)
            return
        j = self._current_component()
        deviated = False
        if opponents is not None:
            expected = kron(*(r for p, r in enumerate(self.profiles[j]) if p != self.player))
            deviated = maxabs(np.asarray(opponents) - expected) > DEVIATION_DETECT_TOL
        self._counts[j] += 1
        self._t += 1
        if deviated:
            self._fallback = MMWU(self.dim, doubling_schedule(self.fallback_base_epoch))
            self._fallback._update(gain)

    def average_regret_bound(self, t: int) -> float:
        return float("nan")


def scripted_team(
    weights: Sequence[float],
    profiles: Sequence[Sequence[np.ndarray]],
    fallback_base_epoch: int = 8,
) -> list[ScriptedNoRegret]:
    """One scripted learner per player, all sharing the same decomposition."""
    k = len(profiles[0])
    return [ScriptedNoRegret(i, weights, profiles, fallback_base_epoch) for i in range(k)]


def horizon_for_epsilon(setting: str, dim: int, epsilon: float, k: int | None = None) -> tuple[float, int]:
    """Stepsize and horizon guaranteeing an epsilon-certificate by time T.

    general:    eta = eps/2,     T = ceil(4 ln d / eps^2),      eps <= 2
    zero_sum:   eta = eps/4,     T = ceil(16 ln d / eps^2),     eps <= 4
    polymatrix: eta = eps/(2k),  T = ceil(4 k^2 ln d / eps^2),  eps <= 2k
    """
    if dim < 2:
        raise ValueError("register dimension must be >= 2")
    if setting == "general":
        if not 0 < epsilon <= 2:
            raise ValueError("epsilon must be in (0, 2] for general games")
        return epsilon / 2.0, ceil(4.0 * log(dim) / epsilon**2)
    if setting == "zero_sum":
        if not 0 < epsilon <= 4:
            raise ValueError("epsilon must be in (0, 4] for zero-sum games")
        return epsilon / 4.0, ceil(16.0 * log(dim) / epsilon**2)
    if setting == "polymatrix":
        if k is None or k < 2:
            raise ValueError("polymatrix setting needs the player count k")
        if not 0 < epsilon <= 2 * k:
            raise ValueError("epsilon must be in (0, 2k] for polymatrix games")
        return epsilon / (2.0 * k), ceil(4.0 * k**2 * log(dim) / epsilon**2)
    raise ValueError(f"unknown setting {setting!r}")


@dataclass
class Trajectory:
    """Checkpointed record of a repeated-game run.

    Running sums (joint product states, marginals, gain matrices, realized
    payoffs) cover the full horizon; the per-checkpoint arrays hold the CSV
    columns.  In "qcce" mode ``gaps`` is ``max(avg_regret, 0)``, which is
    the exploitability of the joint average up to rounding; in "qne" mode it
    is the exploitability of the product of averaged marginals.
    ``joint_sum`` is the sum over rounds of the played product
    states, which the runner adds up a window of rounds at a time, so it
    equals the round-by-round sum up to rounding (1e-12).  The joint average
    at any checkpoint is a valid density up to accumulated rounding (1e-6
    tier), and its marginals equal the averaged marginals up to rounding.
    """

    dims: tuple[int, ...]
    T: int
    gap_mode: str
    bound_scale: float
    checkpoints: np.ndarray
    utils: np.ndarray            # (C, k) realized utility at the checkpoint round
    avg_regret: np.ndarray       # (C, k)
    gaps: np.ndarray             # (C, k) exploitability per player (see gap_mode)
    bound: np.ndarray            # (C,)
    joint_eigs: np.ndarray       # (C, n) spectrum of the round-t product state
    avg_joint_eigs: np.ndarray   # (C, n) spectrum of the running joint average
    bloch: dict[int, np.ndarray]  # player -> (C, 3), for 2-dimensional registers
    joint_sum: np.ndarray
    marginal_sums: list[np.ndarray]
    cum_gain: list[np.ndarray]
    realized: np.ndarray
    final_strategies: list[np.ndarray]

    @property
    def n_players(self) -> int:
        return len(self.dims)

    def joint_average(self) -> np.ndarray:
        return herm(self.joint_sum / self.T)

    def marginal_average(self, i: int) -> np.ndarray:
        return herm(self.marginal_sums[i] / self.T)

    def product_of_marginal_averages(self) -> np.ndarray:
        return kron(*(self.marginal_average(i) for i in range(self.n_players)))


def external_regret(traj: Trajectory, i: int, average: bool = True) -> float:
    """Regret against the best fixed density in hindsight.

    The best fixed strategy for a cumulative gain matrix is its top
    eigenprojector, so the benchmark term is ``lambda_max(sum_t G_t)``.
    """
    reg = lambda_max(traj.cum_gain[i]) - traj.realized[i]
    return reg / traj.T if average else reg


def _pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a^dag b) for each matrix pair of two (..., d, d) stacks."""
    lead = a.shape[:-2]
    return (a.reshape(lead + (1, -1)).conj() @ b.reshape(lead + (-1, 1))).real[..., 0, 0]


FOLD_FLOOR = 1 << 10  # entries per game a fold window may use however small the joint space


def _fold_plan(dims: Sequence[int]) -> tuple[int, int]:
    """The register cut h of the windowed joint fold and the window's cap in rounds.

    h balances ``n_L = prod(dims[:h])`` against ``n_R = prod(dims[h:])`` (h = k,
    with ``n_R = 1``, only for one register).  A window of W rounds holds
    ``W * sum(d_i^2)`` buffered entries and ``W * (n_L^2 + n_R^2)`` half-product
    entries per game; the cap keeps that within ``max(n^2, FOLD_FLOOR)``.
    """
    k = len(dims)
    h = min(range(1, k + 1), key=lambda c: max(prod(dims[:c]), prod(dims[c:])))
    per_round = prod(dims[:h]) ** 2 + prod(dims[h:]) ** 2 + sum(d * d for d in dims)
    return h, max(1, max(prod(dims) ** 2, FOLD_FLOOR) // per_round)


def _kron_or_identity(factors: list[np.ndarray], lead: tuple[int, ...]) -> np.ndarray:
    """kron of factor stacks with leading shape ``lead``, or a stack of 1x1 identities for no factor."""
    return kron(*factors) if factors else np.ones(lead + (1, 1), dtype=complex)


def _player_groups(dims: Sequence[int]) -> tuple[list[int], list[list[int]], list[tuple[int, int]]]:
    """The player groups of a register layout: the players of one register dim, ascending.

    Returns ``(group_dims, members, where)``: group g holds players ``members[g]``,
    all of dim ``group_dims[g]``, and player i sits in slot ``where[i][1]`` of group
    ``where[i][0]``.
    """
    group_dims = sorted(set(dims))
    members = [[i for i, d in enumerate(dims) if d == gd] for gd in group_dims]
    where = [(group_dims.index(d), dims[:i].count(d)) for i, d in enumerate(dims)]
    return group_dims, members, where


def _per_player(rows: list[np.ndarray], members: list[list[int]]) -> np.ndarray:
    """The (..., B, k) table of one (..., m_g, B) stack per player group."""
    out = np.empty(rows[0].shape[:-2] + (rows[0].shape[-1], sum(map(len, members))))
    for ids, r in zip(members, rows):
        out[..., ids] = np.swapaxes(r, -1, -2)
    return out


def certify_checkpoints(
    ts: np.ndarray,
    dims: tuple[int, ...],
    utils: list[np.ndarray],
    realized: list[np.ndarray],
    cum_gain: list[np.ndarray],
    strategies: list[np.ndarray],
    avg_spectra: np.ndarray,
    qne_gaps: list[np.ndarray] | None,
):
    """Every checkpoint row of a run, built from its records in stacked passes.

    :func:`run_game` records raw state at each of the C checkpoint rounds ``ts``:
    per player group (see :func:`_player_groups`) one array with leading axes
    (C, m_g, B) of the round's utilities, of the running sums of utilities and
    gains, of the round's strategies and, in "qne" mode, of the deviation gaps
    at the averaged marginals; and the (C, B, n) ascending spectra of the
    running joint averages.  Each pass is the per-matrix LAPACK call or the
    elementwise IEEE operation a checkpoint-by-checkpoint computation would
    make, so the rows have its bits.

    Returns the (C, B, ...) columns ``utils``, ``avg_regret``, ``gaps``,
    ``joint_eigs`` and ``avg_joint_eigs`` (spectra descending), and the
    (C, B, 3) Bloch vectors of each qubit player.
    """
    _, members, where = _player_groups(dims)
    best_fixed = _per_player([np.linalg.eigvalsh(c)[..., -1] for c in cum_gain], members)
    avg_regret = (best_fixed - _per_player(realized, members)) / ts[:, None, None]
    # in qcce mode, by linearity, the deviation gap of the joint average is the average regret
    gaps = np.maximum(avg_regret if qne_gaps is None else _per_player(qne_gaps, members), 0.0)
    spectra = [np.linalg.eigvalsh(s) for s in strategies]
    joint_eigs = np.flip(kron_spectrum([spectra[g][:, s] for g, s in where]), axis=-1)
    bloch = {i: bloch_vectors(strategies[g][:, s]) for i, (g, s) in enumerate(where) if dims[i] == 2}
    return _per_player(utils, members), avg_regret, gaps, joint_eigs, np.flip(avg_spectra, axis=-1), bloch


def _gain_contraction(games: Sequence[Game], group_dims: list[int], where: list[tuple[int, int]]):
    """The stacked gain map of a batch of games over player groups.

    Player i sits in slot ``where[i][1]`` of the stack of group ``where[i][0]``,
    whose players have register dim ``group_dims[g]``.  The games' gain terms
    are compiled once into term groups, one per shape ``(d_i, dims of regs)``:
    an ``(M, B, d_i^2, r^2)`` operator stack over the terms and games, and the
    group and slots of the register at each position.  The returned map takes
    one ``(m_g, B, d, d)`` strategy stack per group and returns the groups'
    gain stacks: per term group one gather and kron of the sources and one
    matmul into rows of its target group's buffer, then per player group one
    scatter-add that sums each player's terms in ``gain_terms`` order
    (ascending regs), one after the other, as a per-player loop would.
    """
    B = len(games)
    dims = games[0].dims
    by_shape = {}
    for i, player_terms in enumerate(games[0].gain_terms):
        for m, (regs, _) in enumerate(player_terms):
            by_shape.setdefault((dims[i], tuple(dims[r] for r in regs)), []).append((i, m, regs))
    term_groups, rows = [], [[] for _ in group_dims]    # rows[g]: (player, term index) per buffer row
    for (d, reg_dims), entries in by_shape.items():
        g = group_dims.index(d)
        ops = np.stack([np.stack([game.gain_terms[i][m].op for game in games]) for i, m, _ in entries])
        sources = [
            (group_dims.index(rd), np.array([where[regs[p]][1] for _, _, regs in entries]))
            for p, rd in enumerate(reg_dims)
        ]
        lo = len(rows[g])
        rows[g] += [(i, m) for i, m, _ in entries]
        term_groups.append((ops, sources, g, slice(lo, len(rows[g]))))
    buffers = [np.empty((len(r), B, d * d, 1), dtype=complex) for r, d in zip(rows, group_dims)]
    scatter = []    # per group: the target slot of each buffer row, and the rows in (player, term) order
    for r in rows:
        order = sorted(range(len(r)), key=r.__getitem__)
        scatter.append((np.array([where[r[c][0]][1] for c in order], dtype=np.intp), np.array(order, dtype=np.intp)))
    sizes = [sum(1 for g, _ in where if g == gi) for gi in range(len(group_dims))]

    def contract(stacks: list[np.ndarray]) -> list[np.ndarray]:
        for ops, sources, g, span in term_groups:
            vec = _kron_or_identity([stacks[s][slots] for s, slots in sources], ops.shape[:2])
            np.matmul(ops, vec.reshape(ops.shape[:2] + (-1, 1)), out=buffers[g][span])
        gains = []
        for m, d, buf, (targets, order) in zip(sizes, group_dims, buffers, scatter):
            acc = np.zeros((m, B, d * d, 1), dtype=complex)
            np.add.at(acc, targets, buf[order])
            gains.append(herm(acc.reshape(m, B, d, d)))
        return gains

    return contract


def run_game(
    g: Game | Sequence[Game],
    learners: Sequence,
    T: int,
    stride: int | None = None,
    gap_mode: str = "qcce",
    bound_scale: float = 1.0,
) -> Trajectory | list[Trajectory]:
    """Run T synchronous rounds of self-play and record checkpoints.

    Each round every learner's gain matrix is computed from the current
    strategy profile, utilities and running sums are updated, and only then
    do all learners advance.  ``gap_mode`` selects the exploitability column:
    "qcce" reports the deviation gaps of the running joint average, read off
    the regret sums as ``max(avg_regret, 0)``: the gain map and the utility
    are linear, so ``lambda_max(G_i(Tr_i rho_bar)) - Tr(R_i rho_bar)`` is
    ``(lambda_max(cum_gain_i) - realized_i) / t``, the identity behind the
    paper's QCCE theorem.
    :func:`qgames.equilibria.is_qcce` (``verify --kind qcce``) stays the
    independent joint-space certificate.  "qne" evaluates the gaps at the
    product of averaged marginals.  Checkpoints
    fall every ``stride`` rounds (default ``max(1, T // 1000)``) plus the
    final round.  The run is deterministic given the game and learners.

    The round works on player groups, the players of one register
    dimension, each held as one ``(m, B, d, d)`` stack of strategies, gains
    and running sums.  Gains go through the game's compiled ``gain_terms``,
    so a :class:`PolymatrixGame` is played edge by edge and its dense joint
    tensors are never built.  The terms are compiled once per run into term
    groups, one per shape ``(d_i, dims of regs)``; each round a term group
    gathers its source registers, forms their kron and applies all its
    operators in one matmul, and one scatter-add per player group sums each
    player's terms in ``gain_terms`` order.  Utilities, running sums and the
    window then take one call per player group.  A checkpoint only records:
    it folds the window, writes the spectrum of the joint average, and copies
    each group's utilities, realized and gain sums and strategies (and, in
    "qne" mode, the gaps at the averaged marginals) into preallocated
    ``(C, m_g, B, ...)`` records; after the last round
    :func:`certify_checkpoints` builds every row from them in stacked passes.
    Only the running joint average is joint-sized.
    No joint product state is formed per round: each round's strategies are
    copied into a window, and at every checkpoint (and whenever the window
    is full) the window is folded into ``joint_sum`` as ``sum_s L_s (x) R_s``,
    one matmul over the window's products of the registers before and after
    a balanced cut.  The window's cap keeps it within the size of
    ``joint_sum`` (or a small fixed floor), whatever T and ``stride`` are.

    :class:`MMWU` and :class:`FrobeniusFTRL` learners (subclasses included)
    of one kernel and state shape compute each round's strategies in one
    stacked kernel call, written straight into their group's stack and
    bit-identical per matrix to their own ``strategy``; any other learner is
    asked for its ``strategy`` alone.

    ``g`` may also be a sequence of B games of one kind with one register
    layout (and, for polymatrix games, one edge set).  They are played in
    lockstep, every array of the round loop carrying a batch axis, by
    learners built with ``batch=B`` (``learners[i]`` plays register i of
    every game), and the result is one trajectory per game.  Each is
    bit-identical to a batch holding that game alone.  A single game is the
    batch B = 1, played by learners with or without ``batch=1``.
    """
    single = isinstance(g, (QuantumGame, PolymatrixGame))
    games = [g] if single else list(g)
    if not games:
        raise ValueError("a batch needs at least one game")
    dims = games[0].dims
    if any(game.dims != dims for game in games):
        raise ValueError("games in a batch must share register dims")
    if any(type(game) is not type(games[0]) for game in games):
        raise ValueError("games in a batch must be of one kind")
    if isinstance(games[0], PolymatrixGame) and any(game.edges.keys() != games[0].edges.keys() for game in games):
        raise ValueError("polymatrix games in a batch must share one edge set")
    B, k = len(games), len(dims)
    if len(learners) != k:
        raise ValueError("one learner per player required")
    for i, ln in enumerate(learners):
        if ln.dim != dims[i]:
            raise ValueError(f"learner {i} dim {ln.dim} does not match register dim {dims[i]}")
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if gap_mode not in ("qcce", "qne"):
        raise ValueError(f"unknown gap mode {gap_mode!r}")
    if stride is None:
        stride = max(1, T // 1000)
    if stride < 1:
        raise ValueError("checkpoint stride must be >= 1")

    # a learner's own batch shape: () for a single learner, (B,) for a batch; a spectral
    # learner's strategy has the shape of its sum, so only the others are asked to play
    spectral = (MMWU, FrobeniusFTRL)
    leads = [np.shape(ln._sum if isinstance(ln, spectral) else ln.strategy)[:-2] for ln in learners]
    for i, lead in enumerate(leads):
        if lead != (B,) and not (lead == () and B == 1):
            raise ValueError(f"learner {i} plays a batch of shape {lead}, expected ({B},)")

    # player groups, held as the slots of (m_g, B, d, d) stacks
    group_dims, members, where = _player_groups(dims)
    shapes = [(len(ids), B, d, d) for ids, d in zip(members, group_dims)]

    def player(stacks: list[np.ndarray], i: int) -> np.ndarray:
        g, s = where[i]
        return stacks[g][s]

    contract = _gain_contraction(games, group_dims, where)

    n = prod(dims)
    joint_sum = np.zeros((B, n, n), dtype=complex)
    # window[g][:, :, s]: group g's strategies s rounds after the last fold; folded into
    # joint_sum as sum_s L_s (x) R_s, L on registers [:h]
    h, cap = _fold_plan(dims)
    n_l, n_r = prod(dims[:h]), prod(dims[h:])
    window = [np.empty((m, B, min(cap, stride, T), d, d), dtype=complex) for m, _, d, _ in shapes]

    def fold(w: int) -> None:
        left = _kron_or_identity([player(window, i)[:, :w] for i in range(h)], (B, w)).reshape(B, w, -1)
        right = _kron_or_identity([player(window, i)[:, :w] for i in range(h, k)], (B, w)).reshape(B, w, -1)
        outer = left.transpose(0, 2, 1) @ right    # (B, n_L^2, n_R^2): sum over the window
        # added in place through a strided view: no n x n temporary
        joint_sum.reshape(B, n_l, n_r, n_l, n_r)[...] += outer.reshape(B, n_l, n_l, n_r, n_r).transpose(0, 1, 3, 2, 4)

    marginal_sums = [np.zeros(shape, dtype=complex) for shape in shapes]
    cum_gain = [np.zeros(shape, dtype=complex) for shape in shapes]
    realized = [np.zeros((m, B)) for m, *_ in shapes]

    # the checkpoint rounds, and their raw state, certified after the loop by certify_checkpoints:
    # one (C, m_g, B, ...) record per player group of the utilities, the realized and gain sums,
    # the strategies and, in qne mode, the gaps at the averaged marginals
    ts = np.arange(stride, T + 1, stride)
    if T % stride:
        ts = np.append(ts, T)
    C = len(ts)
    rec_utils = [np.empty((C, m, B)) for m, *_ in shapes]
    rec_realized = [np.empty((C, m, B)) for m, *_ in shapes]
    rec_cum = [np.empty((C,) + shape, dtype=complex) for shape in shapes]
    rec_strategies = [np.empty((C,) + shape, dtype=complex) for shape in shapes]
    rec_gaps = [np.empty((C, m, B)) for m, *_ in shapes] if gap_mode == "qne" else None
    avg_spectra = np.empty((C, B, n))
    bound = np.empty(C)

    # MMWU and FTRL learners of one kernel and state shape play one stacked kernel call, written
    # into their slots; the kernels are spectral maps, bit-identical per matrix to separate calls
    by_kernel = {}
    for i, ln in enumerate(learners):
        if isinstance(ln, spectral):
            by_kernel.setdefault((ln.kernel, ln._sum.shape), []).append(i)
    stacked = []
    for (kernel, _), ids in by_kernel.items():
        g = where[ids[0]][0]
        slots = np.array([where[i][1] for i in ids])
        stacked.append((kernel, [learners[i] for i in ids], g, slots, (len(ids),) + shapes[g][1:]))
    alone = [(ln, *where[i]) for i, ln in enumerate(learners) if not isinstance(ln, spectral)]
    strategies = [np.empty(shape, dtype=complex) for shape in shapes]

    def play() -> None:
        for kernel, group, g, slots, shape in stacked:
            strategies[g][slots] = kernel(np.array([ln._scaled_sum() for ln in group])).reshape(shape)
        for ln, g, s in alone:
            strategies[g][s] = np.reshape(ln.strategy, shapes[g][1:])

    # each learner's update: (learner, group, slot, its gain shape, and, if it watches the
    # opponents, their registers and the shape of their joint state)
    updates = []
    for i, ln in enumerate(learners):
        rest = n // dims[i]
        watched = (_others(k, i), leads[i] + (rest, rest)) if getattr(ln, "watches_opponents", False) else None
        updates.append((ln, *where[i], leads[i] + (dims[i], dims[i]), watched))

    play()
    filled = c = 0
    for t in range(1, T + 1):
        for buf, s in zip(window, strategies):
            buf[:, :, filled] = s
        filled += 1
        checkpoint = t == ts[c]    # the last checkpoint is round T, so c stays in range
        if checkpoint or filled == window[0].shape[2]:
            fold(filled)
            filled = 0
        gains = contract(strategies)
        utils = [_pairing(s, gain) for s, gain in zip(strategies, gains)]
        for msum, cum, r, s, gain, u in zip(marginal_sums, cum_gain, realized, strategies, gains, utils):
            msum += s
            cum += gain
            r += u

        if checkpoint:
            avg_spectra[c] = np.linalg.eigvalsh(joint_sum / t)
            for records, now in zip((rec_utils, rec_realized, rec_cum, rec_strategies),
                                    (utils, realized, cum_gain, strategies)):
                for rec, x in zip(records, now):
                    rec[c] = x
            if gap_mode == "qne":
                # at a product state, player i's deviation gap is lambda_max(G_i) - Tr(rho_i G_i)
                avg = [herm(m / t) for m in marginal_sums]
                for rec, a, gain in zip(rec_gaps, avg, contract(avg)):
                    rec[c] = np.linalg.eigvalsh(gain)[..., -1] - _pairing(a, gain)
            finite = [b for b in (ln.average_regret_bound(t) for ln in learners) if not np.isnan(b)]
            bound[c] = bound_scale * max(finite) if finite else float("nan")
            c += 1

        for ln, g, s, shape, watched in updates:
            opponents = None
            if watched is not None:
                others, opponents_shape = watched
                opponents = _kron_or_identity([player(strategies, j) for j in others], (B,)).reshape(opponents_shape)
            ln._update(gains[g][s].reshape(shape), opponents)
        if t < T:
            play()

    # per-checkpoint rows are (C, B, ...); game b reads slice [:, b]
    utils, avg_regret, gaps, joint_eigs, avg_joint_eigs, bloch = certify_checkpoints(
        ts, dims, rec_utils, rec_realized, rec_cum, rec_strategies, avg_spectra, rec_gaps
    )
    realized = _per_player(realized, members)
    trajs = [
        Trajectory(
            dims=dims,
            T=T,
            gap_mode=gap_mode,
            bound_scale=bound_scale,
            checkpoints=ts.copy(),
            utils=utils[:, b],
            avg_regret=avg_regret[:, b],
            gaps=gaps[:, b],
            bound=bound.copy(),
            joint_eigs=joint_eigs[:, b],
            avg_joint_eigs=avg_joint_eigs[:, b],
            bloch={i: rows[:, b] for i, rows in bloch.items()},
            joint_sum=joint_sum[b],
            marginal_sums=[player(marginal_sums, i)[b] for i in range(k)],
            cum_gain=[player(cum_gain, i)[b] for i in range(k)],
            realized=realized[b],
            final_strategies=[player(strategies, i)[b] for i in range(k)],
        )
        for b in range(B)
    ]
    return trajs[0] if single else trajs
