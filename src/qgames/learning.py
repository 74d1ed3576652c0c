"""No-regret learners over density matrices and the repeated-game runner.

A learner is the four things :func:`run_game` reads of it: ``dim``;
``strategy``, the density played this round; ``observe(gain, profile)``, which
absorbs the round's gain matrix given the round's states, one per register; and
``average_regret_bound(t)``, NaN for none.  :class:`MMWU`-family learners play
as batched teams on the unchecked ``_update(gain)`` fast path; any other
learner is called through ``observe``.  The runner is round-synchronous: all
gains for round t are computed from round-t strategies before any learner
advances, as in full-information simultaneous play.

Feedback is the exact gain matrix of each player (full-information online
linear optimization), never a sampled payoff.

Frobenius FTRL is MMWU's follow-the-regularized-leader loop with the
projection onto the density set as its kernel, one subclass.  Strategies
are not cached: ``strategy`` maps the scaled gain sum on every read.
Learners built with ``batch=B`` hold B independent states in a (B, d, d)
stack, and :func:`run_game` plays B games of one gain-term layout in
lockstep with them; a single game is its batch of one.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from math import ceil, inf, isfinite, isinf, log, prod, sqrt
from numbers import Real
from typing import Sequence

import numpy as np

from .equilibria import exploitability  # noqa: F401  (bench/tracer.py times the name learning.exploitability)
from .games import Game
from .games import front_tensor  # noqa: F401  (bench/tracer.py times the name learning.front_tensor)
from .tensor import (
    _check_distribution,
    _check_int,
    _checked_herm,
    _one_matrix,
    bloch_vectors,
    check_density,
    exp_density_stack,
    herm,
    kron,
    kron_spectrum,
    maxabs,
    project_to_density_stack,
)

DEVIATION_DETECT_TOL = 1e-9
_MAX_HORIZON = 2**63 - 1   # the checkpoint rounds are an int64 array


def _is_real(x) -> bool:
    """A Python or numpy real scalar, not a bool: True would play as 1."""
    return isinstance(x, Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class Schedule:
    """Stepsize policy: a fixed eta, or restarts on epochs of doubling length.

    The doubling variant runs epochs of length ``base_epoch * 2^e`` with
    ``eta_e = sqrt(ln(d) / T_e)``, restarting the learner at each boundary;
    this turns the fixed-horizon regret guarantee into an anytime one at a
    small constant-factor cost.  A fixed stepsize is one epoch that never
    ends, of length ``inf`` at stepsize ``eta``, so one bound formula covers
    both kinds.
    """

    kind: str = "fixed"
    eta: float = 0.1
    base_epoch: int = 8

    def __post_init__(self):
        if self.kind not in ("fixed", "doubling"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "fixed" and not (_is_real(self.eta) and isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"stepsize must be positive and finite, got {self.eta}")
        _check_int(self.base_epoch, "base epoch length", low=1)

    def epoch_length(self, epoch: int) -> float:
        return inf if self.kind == "fixed" else self.base_epoch * (2 ** epoch)

    def epoch_eta(self, epoch: int, dim: int) -> float:
        return self.eta if self.kind == "fixed" else sqrt(log(dim) / self.epoch_length(epoch))

    def cumulative_bound(self, t: int, dim: int) -> float:
        """Upper bound on cumulative external regret after t rounds, 0 for t <= 0.

        Each (partial) epoch of length tau at stepsize eta contributes at
        most ``eta * tau + ln(d) / eta`` for gains with eigenvalues in
        [-1, 1]; a fixed stepsize's one epoch gives ``eta * t + ln(d) / eta``.
        The round count t must be an integer, as for :func:`run_game`'s horizon, and dim an integer
        >= 1, as for a learner's.
        """
        total = 0.0
        remaining = _check_int(t, "round count")
        dim = _check_int(dim, "dim", low=1)
        epoch = 0
        while remaining > 0:
            t_e = self.epoch_length(epoch)
            eta_e = self.epoch_eta(epoch, dim)
            used = min(remaining, t_e)
            total += eta_e * used + (log(dim) / eta_e if dim > 1 else 0.0)   # ln 1 / eta_e is 0 / 0
            remaining -= used
            epoch += 1
        return total

    def average_bound(self, t: int, dim: int) -> float:
        """``cumulative_bound(t, dim) / t``, inf for t <= 0; refuses the t and dim that ``cumulative_bound`` refuses."""
        total = self.cumulative_bound(t, dim)
        return total / t if t >= 1 else float("inf")


def fixed_schedule(eta: float) -> Schedule:
    return Schedule("fixed", eta=eta)


def doubling_schedule(base_epoch: int = 8) -> Schedule:
    return Schedule("doubling", base_epoch=base_epoch)


def _state_shape(dim: int, batch: int | None) -> tuple[int, ...]:
    """(d, d) for a single learner, (B, d, d) for a batch of B independent ones."""
    return (dim, dim) if batch is None else (_check_int(batch, "batch size", low=1), dim, dim)


def _check_gain(gain: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The boundary check of ``observe``: state-shaped and Hermitian, returned symmetrized."""
    gain = np.asarray(gain, dtype=complex)
    if gain.shape != shape:
        raise ValueError(f"gain shape {gain.shape} does not match learner state {shape}")
    return _checked_herm(gain, "gain matrix must be Hermitian")


def _checked_play(play, shape: tuple[int, ...], i: int, t: int) -> np.ndarray:
    """Learner i's round-t strategy, if it has ``shape`` and passes one :func:`check_density` call, matrix or stack.

    A non-finite entry fails the Hermitian test, with no floating-point
    warning or error under the runner's ``errstate``.
    """
    play = np.asarray(play)
    if play.shape != shape:
        raise ValueError(f"learner {i} plays shape {play.shape} in round {t}, expected {shape}")
    try:
        check_density(play)
    except ValueError as exc:
        raise ValueError(f"learner {i} plays no density in round {t}: {exc}") from None
    return play


class MMWU:
    """Matrix multiplicative weights: play exp(eta * sum of gains), normalized.

    The normalized exponential (:func:`~qgames.tensor.exp_density_stack`)
    is shift-stable, so cumulative gains growing linearly in t never
    overflow.  Before any feedback the play is the maximally mixed state,
    and adding c*I to every gain leaves the iterates unchanged.  With
    ``batch=B`` the learner runs B independent copies on one schedule, and
    ``strategy`` and ``observe`` take (B, d, d) stacks.  ``strategy`` is
    ``kernel(eta * sum)``, recomputed on every read.  A subclass changes the
    regularizer through ``kernel`` (:class:`FrobeniusFTRL`) and play through
    ``strategy`` and ``_update``, which :func:`run_game` calls, not ``observe``,
    on a team whose ``_sum`` stacks like learners' sums on a new leading axis.
    """

    def __init__(self, dim: int, schedule: Schedule, batch: int | None = None):
        self.dim = _check_int(dim, "dim", low=1)
        self.schedule = schedule
        self._sum = np.zeros(_state_shape(self.dim, batch), dtype=complex)
        self._epoch = 0
        self._in_epoch = 0

    kernel = staticmethod(exp_density_stack)

    @property
    def strategy(self) -> np.ndarray:
        return self.kernel(self.schedule.epoch_eta(self._epoch, self.dim) * self._sum)

    def observe(self, gain: np.ndarray, profile: Sequence[np.ndarray] | None = None) -> None:
        self._update(_check_gain(gain, self._sum.shape))

    def _update(self, gain: np.ndarray) -> None:
        """``observe`` minus the boundary check: gain is exactly Hermitian and state-shaped."""
        self._sum = self._sum + gain
        if self.schedule.kind != "doubling":
            return
        # eager epoch rollover: the first play of the next epoch is the fresh
        # maximally mixed state, so every epoch is a clean fixed-eta run; a fixed
        # schedule counts no rounds, so learners that differ only in age share a team
        self._in_epoch += 1
        if self._in_epoch >= self.schedule.epoch_length(self._epoch):
            self._epoch += 1
            self._in_epoch = 0
            self._sum = np.zeros_like(self._sum)

    def average_regret_bound(self, t: int) -> float:
        return self.schedule.average_bound(t, self.dim)


class FrobeniusFTRL(MMWU):
    """Follow-the-regularized-leader with the squared-Frobenius regularizer.

    MMWU's loop on a fixed stepsize with the Euclidean projection onto the
    density set as its kernel: it plays the projection of
    ``eta * sum of gains``, and the projection of the zero matrix is the
    maximally mixed state.  Its average regret carries no stated bound.
    """

    kernel = staticmethod(project_to_density_stack)

    def __init__(self, dim: int, eta: float, batch: int | None = None):
        super().__init__(dim, fixed_schedule(eta), batch)

    def average_regret_bound(self, t: int) -> float:
        return float("nan")


class Constant:
    """Plays one fixed density forever (useful as an adversarial deviator).

    Built from a (B, d, d) stack, it plays one density per game of a batch of B.
    """

    def __init__(self, rho: np.ndarray):
        rho = check_density(rho)
        self.dim = rho.shape[-1]
        self._rho = rho

    @property
    def strategy(self) -> np.ndarray:
        return self._rho

    def observe(self, gain: np.ndarray, profile: Sequence[np.ndarray] | None = None) -> None:
        pass

    def average_regret_bound(self, t: int) -> float:
        return float("nan")


class ScriptedNoRegret:
    """Replays a shared product-state script; falls back to MMWU on deviation.

    All players derive the same deterministic component index per round from
    the mixture weights.  Each round the learner compares every opponent's
    entry of the round's ``profile`` with its scripted factor; any entry off
    by more than ``DEVIATION_DETECT_TOL`` permanently switches it to MMWU on a
    doubling schedule restarted at the deviation round (the deviation round's
    gain is the first one fed to it).  Without a profile it never deviates.
    """

    def __init__(
        self,
        player: int,
        weights: Sequence[float],
        profiles: Sequence[Sequence[np.ndarray]],
    ):
        weights = _check_distribution(weights, 1)
        if len(profiles) != len(weights):
            raise ValueError("one strategy profile per mixture component required")
        self.player = _check_int(player, "player", len(profiles[0]))
        self.weights = weights
        self.profiles = [
            [_one_matrix(check_density(r), "ScriptedNoRegret profile factor") for r in prof] for prof in profiles
        ]
        self.dim = self.profiles[0][self.player].shape[0]
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

    def observe(self, gain: np.ndarray, profile: Sequence[np.ndarray] | None = None) -> None:
        gain = _check_gain(gain, (self.dim, self.dim))
        if self._fallback is None:
            j = self._current_component()
            deviated = profile is not None and any(
                maxabs(np.asarray(rho) - r) > DEVIATION_DETECT_TOL
                for p, (rho, r) in enumerate(zip(profile, self.profiles[j], strict=True)) if p != self.player
            )
            self._counts[j] += 1
            self._t += 1
            if not deviated:
                return
            self._fallback = MMWU(self.dim, doubling_schedule())
        self._fallback._update(gain)

    def average_regret_bound(self, t: int) -> float:
        return float("nan")


def scripted_team(weights: Sequence[float], profiles: Sequence[Sequence[np.ndarray]]) -> list[ScriptedNoRegret]:
    """One scripted learner per player, all sharing the same decomposition."""
    return [ScriptedNoRegret(i, weights, profiles) for i in range(len(profiles[0]))]


def _certificate(game: Game) -> tuple[str, float]:
    """The certificate of time-averaged no-regret play in ``game``: (gap mode, bound scale).

    Zero-sum games of k players whose terms all read two registers reach a separable QNE
    at k times the regret bound (Cai-Daskalakis minmax), all others a QCCE.
    """
    k = game.n_players
    if game.zero_sum and all(len(regs) == 2 for payoff in game.terms for regs, _ in payoff):
        return "qne", float(k)
    return "qcce", 1.0


def horizon_for_epsilon(game: Game, epsilon: float) -> tuple[float, int]:
    """Stepsize and horizon guaranteeing ``game`` its epsilon-certificate by time T.

    With s the certificate's bound scale and d the largest register dimension,
    eta = eps/(2s) and T = ceil(4 s^2 ln d / eps^2), for 0 < eps <= 2s and T <= 2**63 - 1.
    """
    _, scale = _certificate(game)
    dim = max(game.dims)
    if dim < 2:
        raise ValueError("register dimension must be >= 2")
    if not (_is_real(epsilon) and 0 < epsilon <= 2 * scale):
        raise ValueError(f"epsilon must be in (0, {2 * scale:g}] for this game")
    horizon = 4.0 * scale**2 * log(dim) / epsilon**2 if epsilon**2 else float("inf")   # eps**2 is 0 below ~1e-162
    if horizon > _MAX_HORIZON:
        raise ValueError(f"epsilon {epsilon} needs a horizon over 2**63 - 1 rounds")
    return epsilon / (2.0 * scale), ceil(horizon)


@dataclass
class Trajectory:
    """Checkpointed record of a repeated-game run.

    Running sums (joint product states, marginals, gain matrices, realized
    payoffs) cover the full horizon; the per-checkpoint arrays hold the CSV
    columns.  ``gap_mode`` and ``bound_scale`` are the game's certificate (see
    :func:`run_game`): in "qcce" mode ``gaps`` is ``max(avg_regret, 0)``, the
    exploitability of the joint average up to rounding; in "qne" mode it is
    the exploitability of the product of averaged marginals.  Both are read off
    the sums, the qne one since each gain term of a "qne" game reads one
    opponent register.  ``joint_sum`` is the sum over rounds of the played
    product states, which the runner adds up a window of rounds at a time, so
    it equals the round-by-round sum up to rounding (1e-12).  The joint average
    at any checkpoint is a valid density up to accumulated rounding (1e-6
    tier), and its marginals equal the averaged marginals up to rounding.
    """

    dims: tuple[int, ...]
    T: int
    stride: int                  # checkpoints fall every stride rounds, plus round T
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


def certify_checkpoints(dims: tuple[int, ...], rows: Sequence[tuple]):
    """Every checkpoint row of a run, built from its raw records in stacked passes.

    :func:`run_game` appends one row per checkpoint, C rows in all, each
    ``(t, bound, utils, realized, cum_gain, strategies, avg_spectrum, pairings)``:
    the round t and its entry of the bound column; per player group (see
    :func:`_player_groups`) one (m_g, B, ...) array each of the round's
    utilities, the running sums of utilities and of gains, and the round's
    strategies; the (B, n) ascending spectrum of the running joint averages;
    and, in "qne" mode, per group the pairings ``Re Tr(marginal_sum cum_gain)``
    (an empty list in "qcce" mode), from which both gap columns are read (see
    :func:`run_game`: each gain term of a "qne" game reads one opponent
    register).  The records are stacked to (C, m_g, B, ...) per group, and each
    pass is the per-matrix LAPACK call or the elementwise IEEE operation a
    checkpoint-by-checkpoint computation would make, so the rows have its bits.

    Returns the (C,) rounds ``ts`` and ``bound``, the (C, B, ...) columns
    ``utils``, ``avg_regret``, ``gaps``, ``joint_eigs`` and ``avg_joint_eigs``
    (spectra descending), and the (C, B, 3) Bloch vectors of each qubit player.
    """
    _, members, where = _player_groups(dims)
    ts, bound, utils, realized, cum_gain, strategies, avg_spectra, pairings = zip(*rows)
    utils, realized, cum_gain, strategies, pairings = (
        [np.stack(group) for group in zip(*record)] for record in (utils, realized, cum_gain, strategies, pairings)
    )
    ts, bound = np.array(ts), np.array(bound)
    t = ts[:, None, None]
    best_fixed = _per_player([np.linalg.eigvalsh(c)[..., -1] for c in cum_gain], members)
    avg_regret = (best_fixed - _per_player(realized, members)) / t
    # qcce: the gap of the joint average is its average regret; qne: the gain at the marginal average is cum_gain / t
    gaps = np.maximum((best_fixed - _per_player(pairings, members) / t) / t if pairings else avg_regret, 0.0)
    spectra = [np.linalg.eigvalsh(s) for s in strategies]
    joint_eigs = np.flip(kron_spectrum([spectra[g][:, s] for g, s in where]), axis=-1)
    bloch = {i: bloch_vectors(strategies[g][:, s]) for i, (g, s) in enumerate(where) if dims[i] == 2}
    return ts, bound, _per_player(utils, members), avg_regret, gaps, joint_eigs, np.flip(avg_spectra, axis=-1), bloch


def _term_layout(game: Game) -> list[list[tuple[int, ...]]]:
    """The registers of each player's gain terms: what a stacked contraction needs games to share."""
    return [[t.regs for t in terms] for terms in game.gain_terms]


def _gain_contraction(games: Sequence[Game]):
    """The stacked gain map of a batch of games over their player groups (see :func:`_player_groups`).

    Player i sits in slot ``where[i][1]`` of the stack of group ``where[i][0]``,
    whose players ``members[g]`` have register dim ``group_dims[g]``.  The games'
    gain terms are compiled once into term groups, one per shape ``(d_i, dims of
    regs)``: an ``(M, B, d_i^2, r^2)`` operator stack over the terms and games,
    and the group and slots of the register at each position.  Each player group
    holds one zero row block ``(m_g, 1 + q_g, B, d^2, 1)``, q_g being the most
    terms a player of the group has: row ``1 + m`` of slot s holds term m of the
    player in slot s, and row 0 stays zero.  The returned map takes one
    ``(m_g, B, d, d)`` strategy stack per group and returns the groups' gain
    stacks: per term group one gather and kron of the sources and one matmul
    into its rows, then per player group one sum over the rows.  The sum reads
    the block as floats, so its innermost axis is (real, imaginary), never the
    rows: numpy adds them in order, ``((0 + t_1) + t_2) + ...`` in
    ``gain_terms`` order, as a per-player loop would, not pairwise.
    """
    B, dims, terms = len(games), games[0].dims, games[0].gain_terms
    group_dims, members, where = _player_groups(dims)
    by_shape = {}
    for i, player_terms in enumerate(terms):
        for m, (regs, _) in enumerate(player_terms):
            by_shape.setdefault((dims[i], tuple(dims[r] for r in regs)), []).append((i, m, regs))
    term_groups = []
    for (d, reg_dims), entries in by_shape.items():
        ops = np.stack([np.stack([game.gain_terms[i][m].op for game in games]) for i, m, _ in entries])
        sources = [
            (group_dims.index(rd), np.array([where[regs[p]][1] for _, _, regs in entries]))
            for p, rd in enumerate(reg_dims)
        ]
        rows = (np.array([where[i][1] for i, _, _ in entries]), np.array([1 + m for _, m, _ in entries]))
        term_groups.append((ops, sources, group_dims.index(d), rows))
    blocks = [np.zeros((len(ids), 1 + max(len(terms[i]) for i in ids), B, d * d, 1), dtype=complex)
              for ids, d in zip(members, group_dims)]

    def contract(stacks: list[np.ndarray]) -> list[np.ndarray]:
        for ops, sources, g, rows in term_groups:
            vec = _kron_or_identity([stacks[s][slots] for s, slots in sources], ops.shape[:2])
            blocks[g][rows] = ops @ vec.reshape(ops.shape[:2] + (-1, 1))
        return [herm(block.view(float).sum(axis=1).view(complex).reshape(len(block), B, d, d))
                for block, d in zip(blocks, group_dims)]

    return contract


def run_game(
    g: Game | Sequence[Game],
    learners: Sequence,
    T: int,
    stride: int | None = None,
) -> Trajectory | list[Trajectory]:
    """Run T synchronous rounds of self-play and record checkpoints.

    Each round every learner's gain matrix is computed from the current
    strategy profile, utilities and running sums are updated, and only then
    do all learners advance.  The game picks its certificate: "qne" with the
    regret bound scaled by k for a zero-sum game whose terms all read two
    registers (two-player or pairwise polymatrix), else "qcce" at scale 1.
    Both gap columns are deviation gaps clamped at 0 and read off the running
    sums, the gain map being linear: "qcce" at the joint average, where the gap
    is ``(lambda_max(cum_gain_i) - realized_i) / t`` (the paper's QCCE identity);
    "qne" at the product of averaged marginals, where each gain term reads one
    opponent register, so the gain is ``cum_gain_i / t`` and the gap
    ``lambda_max(cum_gain_i) / t - Tr(marginal_sum_i cum_gain_i) / t^2``.
    :func:`~qgames.equilibria.is_qcce` and ``is_qne`` (``verify``) stay the
    independent certificates.  Checkpoints fall every ``stride`` rounds
    (default ``max(1, T // 1000)``) plus the final round.  The run is
    deterministic given the game and learners.  Each learner's
    ``average_regret_bound(T)`` must be finite, or NaN for no bound.  A run
    whose numbers overflow stops with numpy's ``FloatingPointError``.

    The round works on player groups, the players of one register
    dimension, each held as one ``(m, B, d, d)`` stack of strategies, gains
    and running sums.  Gains go through the game's compiled ``gain_terms``,
    so a game is played term by term and its dense joint tensors are never
    built.  The terms are compiled once per run into term groups, one per
    shape ``(d_i, dims of regs)``; each round a term group gathers its source
    registers, forms their kron and applies all its operators in one matmul
    into the rows of a per-group block, and one sum over the block adds each
    player's terms in ``gain_terms`` order.  Utilities, running sums and the
    window then take one call per player group.  A checkpoint, every
    ``stride``-th round and round T, only records: it folds the window and
    appends one row of raw state, the spectrum of the joint average and each
    group's utilities, realized and gain sums, strategies and, in "qne" mode,
    the pairing of its marginal and gain sums; the records grow by one row per
    checkpoint, and after the last round :func:`certify_checkpoints` stacks
    them and builds every row.  Only the running joint average is joint-sized.
    No joint product state is formed per round: each round's strategies are
    copied into a window, and at every checkpoint (and whenever the window
    is full) the window is folded into ``joint_sum`` as ``sum_s L_s (x) R_s``,
    one matmul over the window's products of the registers before and after
    a balanced cut.  The window's cap keeps it within the size of
    ``joint_sum`` (or a small fixed floor), whatever T and ``stride`` are.

    A learner is what the runner reads of it: ``dim``, ``strategy``,
    ``observe(gain, profile)`` and ``average_regret_bound(t)``, one learner
    object per player.  Once T and ``stride`` pass their checks, one pass over
    the learners checks each in turn (its dim, its bound over T, its batch
    shape) and files it under its team key, so a refused run stops at its
    first bad learner before any learner is copied or changed.  Learners play
    in teams, each read and advanced once a round, and each team carries its
    members' indices.  :class:`MMWU`-family learners of one class, schedule,
    epoch position and state shape form one team, a copy of the first whose
    ``_sum`` stacks theirs, bit-identical per slot to the learner played alone;
    it advances by the unchecked ``_update(gain)``, and after the run each
    member takes back its slot and the epoch counters.  Any other learner, or
    a lone MMWU one, is a team of itself (no copy, no write-back); outside the
    MMWU family it advances by ``observe(gain, profile)``, ``profile`` being
    the round's states, one per register in its batch shape, and its play is
    checked as it is read: a ``lead + (d, d)`` stack that passes one
    :func:`~qgames.tensor.check_density` call (a non-finite entry fails its
    Hermitian test), else a ``ValueError`` naming the learner and the round.

    ``g`` may also be a sequence of B games that share register dims,
    gain-term layout (each player's terms read the same registers, so a
    dense two-player game batches with its one-edge polymatrix twin, but a
    k-local game not with its dense lift) and certificate.  They are played in
    lockstep, every array of the round loop carrying a batch axis, by
    learners built with ``batch=B`` (``learners[i]`` plays register i of
    every game), and the result is one trajectory per game.  Each is
    bit-identical to a batch holding that game alone.  A single game is the
    batch B = 1, played by learners with or without ``batch=1``.
    """
    single = isinstance(g, Game)
    games = [g] if single else list(g)
    if not games:
        raise ValueError("a batch needs at least one game")
    dims, layout, cert = games[0].dims, _term_layout(games[0]), _certificate(games[0])
    if any(game.dims != dims or _term_layout(game) != layout or _certificate(game) != cert for game in games):
        raise ValueError("games in a batch must share register dims, gain-term layout and certificate")
    gap_mode, bound_scale = cert
    B, k = len(games), len(dims)
    if len(learners) != k:
        raise ValueError("one learner per player required")
    if len(set(map(id, learners))) < k:
        raise ValueError("each player needs a learner object of its own")
    if (T := _check_int(T, "horizon", low=1)) > _MAX_HORIZON:
        raise ValueError(f"horizon must be <= 2**63 - 1, got {T}")
    stride = max(1, T // 1000) if stride is None else _check_int(stride, "checkpoint stride", low=1)

    # MMWU-family learners of one class, schedule, epoch position and state shape play as one team;
    # any other learner is a team of itself
    by_key = {}
    for i, ln in enumerate(learners):
        if ln.dim != dims[i]:
            raise ValueError(f"learner {i} dim {ln.dim} does not match register dim {dims[i]}")
        if isinf(ln.average_regret_bound(T)):   # the bound column; NaN states no bound
            raise ValueError(f"learner {i}'s regret bound over {T} rounds is not finite")
        # a learner's own batch shape: () for a single learner, (B,) for a batch; a spectral
        # (MMWU-family) learner's strategy has the shape of its sum, so only the others are asked to play
        lead = np.shape(ln._sum if isinstance(ln, MMWU) else ln.strategy)[:-2]
        if lead != (B,) and not (lead == () and B == 1):
            raise ValueError(f"learner {i} plays a batch of shape {lead}, expected ({B},)")
        key = (type(ln), ln.schedule, ln._epoch, ln._in_epoch, ln._sum.shape) if isinstance(ln, MMWU) else i
        by_key.setdefault(key, (lead, []))[1].append(i)

    # player groups, held as the slots of (m_g, B, d, d) stacks
    group_dims, members, where = _player_groups(dims)
    shapes = [(len(ids), B, d, d) for ids, d in zip(members, group_dims)]

    def player(stacks: list[np.ndarray], i: int) -> np.ndarray:
        g, s = where[i]
        return stacks[g][s]

    contract = _gain_contraction(games)

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

    # a team of several is a copy of its first learner holding their sums stacked; a lone learner plays itself
    strategies = [np.empty(shape, dtype=complex) for shape in shapes]
    teams = []
    for lead, ids in by_key.values():
        i = ids[0]
        team, stack = learners[i], ()
        if len(ids) > 1:
            team, stack = copy(team), (len(ids),)
            team._sum = np.stack([learners[j]._sum for j in ids])
        # a learner outside the MMWU family gets a profile: views of the round's strategies in its batch shape
        profile = None if isinstance(team, MMWU) else [player(strategies, j).reshape(lead + (d, d))
                                                       for j, d in enumerate(dims)]
        gain_shape = stack + lead + (dims[i], dims[i])
        teams.append((team, ids, where[i][0], np.array([where[j][1] for j in ids]), gain_shape, profile))

    rows = []   # one row per checkpoint, laid out as certify_checkpoints reads it
    filled = 0
    with np.errstate(over="raise", invalid="raise"):   # a stepsize that overflows a learner's state stops the run
        for t in range(1, T + 1):
            for team, ids, g, slots, shape, profile in teams:
                play = team.strategy
                if profile is not None:   # outside the MMWU family: a team of one, its play checked
                    play = _checked_play(play, shape, ids[0], t)
                strategies[g][slots] = play.reshape((-1,) + shapes[g][1:])
            for buf, s in zip(window, strategies):
                buf[:, :, filled] = s
            filled += 1
            checkpoint = t % stride == 0 or t == T
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
                finite = [b for b in (ln.average_regret_bound(t) for ln in learners) if not np.isnan(b)]
                pairings = [_pairing(m, c) for m, c in zip(marginal_sums, cum_gain)] if gap_mode == "qne" else []
                rows.append((t, bound_scale * max(finite) if finite else float("nan"), utils,
                             [r.copy() for r in realized], [c.copy() for c in cum_gain],
                             [s.copy() for s in strategies], np.linalg.eigvalsh(joint_sum / t), pairings))
            for team, _, g, slots, gain_shape, profile in teams:
                gain = gains[g][slots].reshape(gain_shape)
                if profile is None:
                    team._update(gain)
                else:
                    team.observe(gain, profile)

        for team, ids, *_ in teams:
            if len(ids) > 1:   # each member of a team of several takes back its slot and the epoch counters
                for j, i in enumerate(ids):
                    ln = learners[i]
                    ln._sum, ln._epoch, ln._in_epoch = team._sum[j], team._epoch, team._in_epoch

        # the certified columns are (C, B, ...); game b reads slice [:, b]
        ts, bound, utils, avg_regret, gaps, joint_eigs, avg_joint_eigs, bloch = certify_checkpoints(dims, rows)
    realized = _per_player(realized, members)
    trajs = [
        Trajectory(
            dims=dims,
            T=T,
            stride=stride,
            gap_mode=gap_mode,
            bound_scale=bound_scale,
            checkpoints=ts.copy(),
            utils=utils[:, b],
            avg_regret=avg_regret[:, b],
            gaps=gaps[:, b],
            bound=bound.copy(),
            joint_eigs=joint_eigs[:, b],
            avg_joint_eigs=avg_joint_eigs[:, b],
            bloch={i: v[:, b] for i, v in bloch.items()},
            joint_sum=joint_sum[b],
            marginal_sums=[player(marginal_sums, i)[b] for i in range(k)],
            cum_gain=[player(cum_gain, i)[b] for i in range(k)],
            realized=realized[b],
            final_strategies=[player(strategies, i)[b] for i in range(k)],
        )
        for b in range(B)
    ]
    return trajs[0] if single else trajs
