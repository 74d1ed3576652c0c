"""Construction and evaluation of multiplayer quantum games.

A game is its register dims and, per player, a payoff made of local terms:
Hermitian tensors on a few registers, ``u_i(rho) = sum Tr(R rho_regs)`` over
player i's terms.  Dense games have one term per player on every register,
polymatrix graph games one per incident edge, k-local (graphical) games terms
on k registers; every rule is written once over the terms.  Constructors
cover direct tensors, zero-sum pairs, classical and Bell-basis embeddings,
polymatrix graphs and seeded random games with utilities in [-1, 1].  A game
is zero-sum when the tensors on each support cancel within ``ZERO_SUM_TOL``,
whichever constructor built it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import NamedTuple, Sequence

import numpy as np

from .tensor import (
    _check_int,
    _check_ints,
    _checked_herm,
    _reduced,
    herm,
    kron,
    maxabs,
    permute_registers,
    random_hermitian,
)

ZERO_SUM_TOL = 1e-9


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m)
    m.setflags(write=False)
    return m


def _others(k: int, i: int) -> tuple[int, ...]:
    return tuple(j for j in range(k) if j != i)


def _check_edge(i, j, k: int) -> tuple[int, int]:
    """The ends of an edge among k players as ints: two distinct integers in [0, k)."""
    try:
        ends = _check_ints((i, j), low=0, high=k)
    except ValueError:
        ends = None
    if ends is None or ends[0] == ends[1]:
        raise ValueError(f"invalid edge ({i}, {j})")
    return ends


def _arrange(r: np.ndarray, dims: Sequence[int], regs: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """A tensor on registers ``regs`` (its factor order) with its factors moved into ``order``."""
    if order == regs:
        return r
    return permute_registers(r, [dims[x] for x in regs], [regs.index(x) for x in order])


def tensors_cancel(tensors: Sequence[np.ndarray]) -> bool:
    """Every entry of the tensors' sum is within ZERO_SUM_TOL of zero."""
    return maxabs(sum(tensors)) <= ZERO_SUM_TOL


class GainTerm(NamedTuple):
    """One summand of a player's gain: ``op @ vec(kron of the states on regs)``.

    ``regs`` are opponent registers in tensor-factor order.  ``op`` is the
    player's tensor on ``(i, *regs)`` as a ``(d_i^2, prod_r d_r^2)`` matrix,
    ``op[(a, b), (s, r)] = R[(a, r), (b, s)]``, so the product with the
    row-major ``vec`` of an opponent state sigma is ``Tr_regs(R (I (x) sigma))``.
    """

    regs: tuple[int, ...]
    op: np.ndarray


def _gain_term(dims: tuple[int, ...], i: int, regs: tuple[int, ...], r: np.ndarray) -> GainTerm:
    """Player i's term on registers regs as a GainTerm on the other registers it reads."""
    rest = tuple(x for x in regs if x != i)
    d, front = dims[i], _arrange(r, dims, regs, (i,) + rest)
    m = front.shape[0] // d
    return GainTerm(rest, _freeze(front.reshape(d, m, d, m).transpose(0, 2, 3, 1).reshape(d * d, m * m)))


Term = tuple[tuple[int, ...], np.ndarray]   # (registers, a tensor on them in that factor order)


@dataclass(frozen=True, eq=False)   # a game is equal only to itself, and hashes by identity
class Game:
    """k-player game: register dims and, per player, a payoff of ``(regs, tensor)`` terms.

    A term reads distinct registers, its player's own among them, with a Hermitian
    tensor in the factor order of ``regs``; the rest is read off the terms on first use.
    """

    dims: tuple[int, ...]
    terms: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        dims = _check_ints(self.dims)
        k = len(dims)
        if len(self.terms) != k:
            raise ValueError(f"{len(self.terms)} payoffs for {k} players")
        terms = [[] for _ in dims]
        for i, payoff in enumerate(self.terms):
            for regs, r in payoff:
                regs = _check_ints(regs, f"the registers player {i}'s term reads", 0, k)
                if i not in regs or len(set(regs)) != len(regs):
                    raise ValueError(f"player {i}'s term reads {regs}: not distinct registers with {i}")
                if np.shape(r) != (prod(dims[x] for x in regs),) * 2:
                    raise ValueError(f"term tensor shape {np.shape(r)} does not match the dims of registers {regs}")
                terms[i].append((regs, _freeze(_checked_herm(r, "utility tensors must be Hermitian"))))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "terms", tuple(map(tuple, terms)))

    @property
    def n_players(self) -> int:
        return len(self.dims)

    @property
    def joint_dim(self) -> int:
        return prod(self.dims)

    @cached_property
    def zero_sum(self) -> bool:
        """The tensors on every support cancel (:func:`tensors_cancel`), each read in ascending register order."""
        supports = {}
        for regs, r in (term for payoff in self.terms for term in payoff):
            support = tuple(sorted(regs))
            supports.setdefault(support, []).append(_arrange(r, self.dims, regs, support))
        return all(map(tensors_cancel, supports.values()))

    @cached_property
    def gain_terms(self) -> tuple[tuple[GainTerm, ...], ...]:
        """Per player, one gain term per payoff term, ordered by its opponent registers; compiled on first use."""
        return tuple(tuple(sorted((_gain_term(self.dims, i, *term) for term in payoff), key=lambda t: t.regs))
                     for i, payoff in enumerate(self.terms))

    @cached_property
    def tensors(self) -> tuple[np.ndarray, ...]:
        """The dense lift: per player, the sum of their terms, each (x) the identity on the registers it leaves out."""
        full, out = tuple(range(self.n_players)), []
        for payoff in self.terms:
            if [regs for regs, _ in payoff] == [full]:   # one term on every register, in order, is its own lift
                out.append(payoff[0][1])
                continue
            total = np.zeros((self.joint_dim,) * 2, dtype=complex)
            for regs, r in payoff:
                rest = tuple(x for x in full if x not in regs)
                m = kron(r, np.eye(prod(self.dims[x] for x in rest), dtype=complex)) if rest else r
                total = total + _arrange(m, self.dims, regs + rest, full)
            out.append(_freeze(herm(total)))
        return tuple(out)


def QuantumGame(dims: Sequence[int], tensors: Sequence[np.ndarray]) -> Game:
    """The dense game: one Hermitian tensor per player, a term on every register."""
    dims = _check_ints(dims)
    return Game(dims, tuple(((tuple(range(len(dims))), r),) for r in tensors))


def PolymatrixGame(dims: Sequence[int], edges) -> Game:
    """Graph game: every edge (i, j) holds player i's tensor r_ij on H_i (x) H_j and player j's r_ji on H_j (x) H_i.

    ``edges`` maps pairs (i, j) to ``(r_ij, r_ji)`` or lists those items, in either
    orientation; a pair given twice is rejected.  Each player gets one term per
    incident edge, in the order given, its own register first.
    """
    dims = _check_ints(dims)
    terms = [[] for _ in dims]
    for (i, j), (r_ij, r_ji) in edges.items() if isinstance(edges, dict) else edges:
        i, j = _check_edge(i, j, len(dims))
        pair = (min(i, j), max(i, j))
        if any(regs == (i, j) for regs, _ in terms[i]):
            raise ValueError(f"duplicate edge {pair}")
        terms[i].append(((i, j), r_ij))
        terms[j].append(((j, i), r_ji))
    return Game(dims, tuple(map(tuple, terms)))


def front_tensor(g: Game, i: int) -> np.ndarray:
    """R_i with register i permuted to the most significant slot."""
    return permute_registers(g.tensors[i], g.dims, (i,) + _others(g.n_players, i))


def zero_sum_game(r: np.ndarray, d_a: int, d_b: int) -> Game:
    """Two-player game with tensors (r, -r)."""
    r = np.asarray(r, dtype=complex)
    return QuantumGame((d_a, d_b), (r, -r))


def classical_embed(payoffs: Sequence[np.ndarray]) -> Game:
    """Diagonal embedding of a classical normal-form game.

    ``payoffs[i]`` is player i's real payoff array over action profiles; the
    utility tensors are diagonal in the computational product basis, so only
    the diagonal of a joint density (a classical joint distribution) affects
    payoffs.
    """
    if not payoffs:
        raise ValueError("need at least one payoff array")
    shape = np.asarray(payoffs[0]).shape
    tensors = []
    for p in payoffs:
        p = np.asarray(p, dtype=float)
        if p.shape != shape:
            raise ValueError("payoff arrays must share one action-profile shape")
        tensors.append(np.diag(p.reshape(-1).astype(complex)))
    return QuantumGame(tuple(shape), tuple(tensors))


_S2 = 1.0 / np.sqrt(2.0)
# Ordered (phi+, phi-, psi+, psi-), indexed by (p, q) as 2*p + q.
BELL_BASIS = (
    np.array([_S2, 0, 0, _S2], dtype=complex),
    np.array([_S2, 0, 0, -_S2], dtype=complex),
    np.array([0, _S2, _S2, 0], dtype=complex),
    np.array([0, _S2, -_S2, 0], dtype=complex),
)


def bell_projector(p: int, q: int) -> np.ndarray:
    v = BELL_BASIS[2 * p + q]
    return np.outer(v, v.conj())


def maxent_game(a: np.ndarray, b: np.ndarray) -> Game:
    """2x2 bimatrix game with payoffs attached to the Bell basis of C^2 (x) C^2.

    ``R_1 = sum_pq a[p, q] |e_pq><e_pq|`` and likewise for b, so the
    eigenvalues of each tensor are exactly the classical payoff entries.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("Bell-basis construction needs 2x2 payoff matrices")
    r1 = sum(a[p, q] * bell_projector(p, q) for p in range(2) for q in range(2))
    r2 = sum(b[p, q] * bell_projector(p, q) for p in range(2) for q in range(2))
    return QuantumGame((2, 2), (r1, r2))


def utility(g: Game, rho: np.ndarray, i: int) -> float:
    """Player i's payoff at the joint state rho: ``sum Tr(R rho_regs)`` over their terms, rho_regs a marginal."""
    i = _check_int(i, "player", g.n_players)
    rho = np.asarray(rho, dtype=complex)
    n = g.joint_dim
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match joint dim {n}")
    return sum((float(np.vdot(r, _reduced(rho, g.dims, regs)).real) for regs, r in g.terms[i]), 0.0)


def gain_matrix(g: Game, i: int, rho_others: np.ndarray) -> np.ndarray:
    """Player i's gain matrix against the opponents' joint state.

    This is the operator G on H_i satisfying ``<rho_i, G> = u_i(rho_i (x)
    rho_others)`` for every rho_i, with rho_others on the other registers in
    ascending order: the sum over ``g.gain_terms[i]`` of each term's
    contraction with the marginal of rho_others on the term's registers.
    """
    i = _check_int(i, "player", g.n_players)
    d = g.dims[i]
    rest = g.joint_dim // d
    rho_others = np.asarray(rho_others, dtype=complex)
    if rho_others.shape != (rest, rest):
        raise ValueError(f"opponent state shape {rho_others.shape} does not match dim {rest}")
    others = _others(g.n_players, i)
    dims_others = [g.dims[j] for j in others]
    gain = np.zeros(d * d, dtype=complex)
    for regs, op in g.gain_terms[i]:
        gain += op @ _reduced(rho_others, dims_others, [others.index(r) for r in regs]).reshape(-1)
    return herm(gain.reshape(d, d))


def polymatrix_to_qg(g: Game) -> Game:
    """The dense game of ``g``'s lift: R_i = sum of player i's terms, each (x) the identity on the rest."""
    return QuantumGame(g.dims, g.tensors)


def random_game(dims: Sequence[int], seed: int, kind: str = "general") -> Game:
    """Seeded random game with every utility tensor at spectral norm one.

    Entries are independent standard complex Gaussians, Hermitized, then
    scaled so ``||R_i||_spec = 1``, which bounds every achievable utility in
    [-1, 1].  Identical seeds produce bitwise-identical games.
    """
    dims = _check_ints(dims)
    n = prod(dims)
    rng = np.random.default_rng(_check_int(seed, "seed", low=0))
    if kind == "general":
        tensors = tuple(random_hermitian(n, rng, norm=1.0) for _ in dims)
        return QuantumGame(dims, tensors)
    if kind == "zero_sum":
        if len(dims) != 2:
            raise ValueError("zero-sum generation needs exactly two players")
        r = random_hermitian(n, rng, norm=1.0)
        return zero_sum_game(r, *dims)
    raise ValueError(f"unknown game kind {kind!r}")


def graph_edges(name: str, k: int) -> list[tuple[int, int]]:
    """Named interaction graphs on k >= 2 players: cycle, path, complete."""
    k = _check_int(k, "graph size", low=2)
    if name == "cycle":
        if k == 2:
            return [(0, 1)]
        return [(i, (i + 1) % k) for i in range(k)]
    if name == "path":
        return [(i, i + 1) for i in range(k - 1)]
    if name == "complete":
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    raise ValueError(f"unknown graph {name!r}")


def random_polymatrix(
    dims: Sequence[int],
    edges: Sequence[tuple[int, int]],
    seed: int,
    pairwise_zero_sum: bool = True,
) -> Game:
    """Seeded random polymatrix game with utilities bounded in [-1, 1].

    Edge tensors are drawn at spectral norm 1 / max_degree, so each player's
    summed payoff stays in [-1, 1].  With ``pairwise_zero_sum`` every edge
    satisfies R_ji = -swap(R_ij), a sufficient (strictly stronger than
    necessary) construction for the global zero-sum property.
    """
    dims = _check_ints(dims)
    if not edges:
        raise ValueError("a random polymatrix game needs at least one edge")
    edges = [_check_edge(i, j, len(dims)) for i, j in edges]
    rng = np.random.default_rng(_check_int(seed, "seed", low=0))
    scale = 1.0 / np.bincount(np.ravel(edges)).max()   # 1 / the largest degree
    built = []
    for i, j in map(sorted, edges):
        nij = dims[i] * dims[j]
        r_ij = random_hermitian(nij, rng, norm=scale)
        if pairwise_zero_sum:
            r_ji = -permute_registers(r_ij, (dims[i], dims[j]), (1, 0))
        else:
            r_ji = random_hermitian(nij, rng, norm=scale)
        built.append(((i, j), (r_ij, r_ji)))
    return PolymatrixGame(dims, built)
