"""Construction and evaluation of multiplayer quantum games.

A game assigns each player a Hermitian utility tensor on the joint register
space; payoffs are expectations ``u_i(rho) = Tr(R_i rho)``.  Supported
constructions: direct tensors, two-player zero-sum pairs, diagonal embeddings
of classical normal-form games, Bell-basis embeddings of 2x2 bimatrix games,
polymatrix graph games with edgewise two-player tensors, and seeded random
generators normalized so every achievable utility lies in [-1, 1].

Zero-sum is a property of the tensors, not a label: a game is zero-sum when
its tensors cancel within ``ZERO_SUM_TOL`` (a polymatrix game when every edge
cancels), whichever constructor built it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import NamedTuple, Sequence

import numpy as np

from .tensor import (
    herm,
    is_hermitian,
    kron,
    maxabs,
    partial_trace,
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


class GainTerm(NamedTuple):
    """One summand of a player's gain: ``op @ vec(kron of the states on regs)``.

    ``regs`` are opponent registers in tensor-factor order.  ``op`` is the
    player's tensor on ``(i, *regs)`` as a ``(d_i^2, prod_r d_r^2)`` matrix,
    ``op[(a, b), (s, r)] = R[(a, r), (b, s)]``, so the product with the
    row-major ``vec`` of an opponent state sigma is ``Tr_regs(R (I (x) sigma))``.
    """

    regs: tuple[int, ...]
    op: np.ndarray


def _gain_op(front: np.ndarray, d: int) -> np.ndarray:
    """A tensor on H_i (x) H_rest, register i first, as the (d^2, r^2) operator of a GainTerm."""
    r = front.shape[0] // d
    return _freeze(front.reshape(d, r, d, r).transpose(0, 2, 3, 1).reshape(d * d, r * r))


@dataclass(frozen=True)
class QuantumGame:
    """k-player game: register dims and one Hermitian tensor per player.

    ``zero_sum`` is read off the tensors on first use, so a game built from
    tensors that cancel is zero-sum however it was constructed.
    """

    dims: tuple[int, ...]
    tensors: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        n = prod(dims)
        tensors = []
        for r in self.tensors:
            r = np.asarray(r, dtype=complex)
            if r.shape != (n, n):
                raise ValueError(f"utility tensor shape {r.shape} does not match joint dim {n}")
            if not is_hermitian(r):
                raise ValueError("utility tensors must be Hermitian")
            tensors.append(_freeze(herm(r)))
        if len(tensors) != len(dims):
            raise ValueError(f"{len(tensors)} utility tensors for {len(dims)} players")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "tensors", tuple(tensors))

    @property
    def n_players(self) -> int:
        return len(self.dims)

    @property
    def joint_dim(self) -> int:
        return prod(self.dims)

    @cached_property
    def zero_sum(self) -> bool:
        """The tensors cancel: every entry of ``sum(tensors)`` within ZERO_SUM_TOL; checked on first use."""
        return maxabs(sum(self.tensors)) <= ZERO_SUM_TOL

    @cached_property
    def gain_terms(self) -> tuple[tuple[GainTerm, ...], ...]:
        """Per player, one term over all the other registers, compiled on first use."""
        return tuple(
            (GainTerm(_others(self.n_players, i), _gain_op(front_tensor(self, i), d)),)
            for i, d in enumerate(self.dims)
        )


def front_tensor(g: QuantumGame, i: int) -> np.ndarray:
    """R_i with register i permuted to the most significant slot."""
    return permute_registers(g.tensors[i], g.dims, (i,) + _others(g.n_players, i))


def zero_sum_game(r: np.ndarray, d_a: int, d_b: int) -> QuantumGame:
    """Two-player game with tensors (r, -r)."""
    r = np.asarray(r, dtype=complex)
    return QuantumGame((d_a, d_b), (r, -r))


def classical_embed(payoffs: Sequence[np.ndarray]) -> QuantumGame:
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


def maxent_game(a: np.ndarray, b: np.ndarray) -> QuantumGame:
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


@dataclass(frozen=True)
class PolymatrixGame:
    """Graph game: every edge (i, j) holds two-player tensors R_ij and R_ji.

    ``edges`` maps canonical pairs (i, j) with i < j to ``(r_ij, r_ji)`` where
    r_ij lives on H_i (x) H_j (player i's payoff tensor for that edge) and
    r_ji on H_j (x) H_i.  The constructor also takes the ``((i, j), (r_ij,
    r_ji))`` items as a sequence, in either orientation; a pair given twice
    is rejected.
    """

    dims: tuple[int, ...]
    edges: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        k = len(dims)
        edges = {}
        for (i, j), (r_ij, r_ji) in self.edges.items() if isinstance(self.edges, dict) else self.edges:
            if not (0 <= i < k and 0 <= j < k) or i == j:
                raise ValueError(f"invalid edge ({i}, {j})")
            if i > j:
                i, j, r_ij, r_ji = j, i, r_ji, r_ij
            if (i, j) in edges:
                raise ValueError(f"duplicate edge ({i}, {j})")
            nij = dims[i] * dims[j]
            r_ij = np.asarray(r_ij, dtype=complex)
            r_ji = np.asarray(r_ji, dtype=complex)
            if r_ij.shape != (nij, nij) or r_ji.shape != (nij, nij):
                raise ValueError(f"edge ({i}, {j}) tensor shapes do not match register dims")
            if not (is_hermitian(r_ij) and is_hermitian(r_ji)):
                raise ValueError("edge tensors must be Hermitian")
            edges[(i, j)] = (_freeze(herm(r_ij)), _freeze(herm(r_ji)))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "edges", edges)

    @property
    def n_players(self) -> int:
        return len(self.dims)

    @property
    def joint_dim(self) -> int:
        return prod(self.dims)

    def neighbors(self, i: int) -> list[int]:
        out = [j for (a, j) in self.edges if a == i] + [a for (a, j) in self.edges if j == i]
        return sorted(out)

    @cached_property
    def zero_sum(self) -> bool:
        """Pairwise zero-sum: every edge has R_ji = -swap(R_ij) within ZERO_SUM_TOL; checked on first use."""
        return all(
            maxabs(r_ji + permute_registers(r_ij, (self.dims[i], self.dims[j]), (1, 0))) <= ZERO_SUM_TOL
            for (i, j), (r_ij, r_ji) in self.edges.items()
        )

    @cached_property
    def gain_terms(self) -> tuple[tuple[GainTerm, ...], ...]:
        """Per player, one term per incident edge, ordered by neighbor, compiled on first use."""
        terms = [[] for _ in self.dims]
        for (i, j), (r_ij, r_ji) in self.edges.items():
            terms[i].append(GainTerm((j,), _gain_op(r_ij, self.dims[i])))
            terms[j].append(GainTerm((i,), _gain_op(r_ji, self.dims[j])))
        return tuple(tuple(sorted(ts, key=lambda term: term.regs)) for ts in terms)


Game = QuantumGame | PolymatrixGame


def _reduce(rho: np.ndarray, dims: Sequence[int], regs: Sequence[int]) -> np.ndarray:
    """Reduced state of rho on the registers regs, in the order given."""
    if list(regs) == list(range(len(dims))):
        return rho
    kept = sorted(regs)
    m = partial_trace(rho, dims, keep=kept)
    if list(regs) == kept:
        return m
    return permute_registers(m, [dims[r] for r in kept], [kept.index(r) for r in regs])


def utility(g: Game, rho: np.ndarray, i: int) -> float:
    """Player i's payoff Tr(R_i rho) at the joint state rho.

    For a polymatrix game this is the edgewise sum ``sum_j Tr(R_ij rho_ij)``
    over the two-register marginals of rho; no joint tensor is built.
    """
    rho = np.asarray(rho, dtype=complex)
    n = g.joint_dim
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match joint dim {n}")
    if isinstance(g, QuantumGame):
        return float(np.vdot(g.tensors[i], rho).real)
    total = 0.0
    for (a, b), (r_ab, r_ba) in g.edges.items():
        if i == a:
            total += float(np.vdot(r_ab, _reduce(rho, g.dims, (a, b))).real)
        elif i == b:
            total += float(np.vdot(r_ba, _reduce(rho, g.dims, (b, a))).real)
    return total


def gain_matrix(g: Game, i: int, rho_others: np.ndarray) -> np.ndarray:
    """Player i's gain matrix against the opponents' joint state.

    This is the operator G on H_i satisfying ``<rho_i, G> = u_i(rho_i (x)
    rho_others)`` for every rho_i, with rho_others on the other registers in
    ascending order: the sum over ``g.gain_terms[i]`` of each term's
    contraction with the marginal of rho_others on the term's registers.
    """
    d = g.dims[i]
    rest = g.joint_dim // d
    rho_others = np.asarray(rho_others, dtype=complex)
    if rho_others.shape != (rest, rest):
        raise ValueError(f"opponent state shape {rho_others.shape} does not match dim {rest}")
    others = _others(g.n_players, i)
    dims_others = [g.dims[j] for j in others]
    gain = np.zeros(d * d, dtype=complex)
    for regs, op in g.gain_terms[i]:
        gain += op @ _reduce(rho_others, dims_others, [others.index(r) for r in regs]).reshape(-1)
    return herm(gain.reshape(d, d))


def _embed_edge(r: np.ndarray, dims: Sequence[int], i: int, j: int) -> np.ndarray:
    """Place a two-register operator on registers (i, j), identity elsewhere."""
    k = len(dims)
    others = [m for m in range(k) if m not in (i, j)]
    rest = prod(dims[m] for m in others) if others else 1
    layout = (i, j, *others)
    m = kron(r, np.eye(rest, dtype=complex)) if others else np.asarray(r, dtype=complex)
    back = tuple(layout.index(s) for s in range(k))
    return permute_registers(m, tuple(dims[p] for p in layout), back)


def polymatrix_to_qg(pg: PolymatrixGame) -> QuantumGame:
    """Lift edge tensors to joint-space tensors R_i = sum_j R_ij (x) I_rest."""
    k = pg.n_players
    n = prod(pg.dims)
    tensors = [np.zeros((n, n), dtype=complex) for _ in range(k)]
    for (i, j), (r_ij, r_ji) in pg.edges.items():
        tensors[i] = tensors[i] + _embed_edge(r_ij, pg.dims, i, j)
        tensors[j] = tensors[j] + _embed_edge(r_ji, pg.dims, j, i)
    return QuantumGame(pg.dims, tuple(tensors))


def random_game(dims: Sequence[int], seed: int, kind: str = "general") -> QuantumGame:
    """Seeded random game with every utility tensor at spectral norm one.

    Entries are independent standard complex Gaussians, Hermitized, then
    scaled so ``||R_i||_spec = 1``, which bounds every achievable utility in
    [-1, 1].  Identical seeds produce bitwise-identical games.
    """
    dims = tuple(int(d) for d in dims)
    n = prod(dims)
    rng = np.random.default_rng(seed)
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
    """Named interaction graphs: cycle, path, complete."""
    if k < 2:
        raise ValueError("graphs need at least two players")
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
) -> PolymatrixGame:
    """Seeded random polymatrix game with utilities bounded in [-1, 1].

    Edge tensors are drawn at spectral norm 1 / max_degree, so each player's
    summed payoff stays in [-1, 1].  With ``pairwise_zero_sum`` every edge
    satisfies R_ji = -swap(R_ij), a sufficient (strictly stronger than
    necessary) construction for the global zero-sum property.
    """
    dims = tuple(int(d) for d in dims)
    if not edges:
        raise ValueError("a random polymatrix game needs at least one edge")
    for (i, j) in edges:
        if not (0 <= i < len(dims) and 0 <= j < len(dims)) or i == j:
            raise ValueError(f"invalid edge ({i}, {j}) for {len(dims)} players")
    rng = np.random.default_rng(seed)
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
