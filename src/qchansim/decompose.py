"""Rank-1 extremal measurements over a fixed projector set, and convex decompositions.

A rank-1 measurement assigns a nonnegative weight to each projector in an
ordered slot list (the same projector may occupy several slots).  It is
extremal when its nonzero terms are linearly independent as operators, in
which case the completeness condition fixes the weights uniquely.  Over a
finite slot list there are finitely many extremal weight patterns, and every
valid rank-1 measurement on those slots is a convex mixture of them.

``enumerate_extremals`` lists all extremal patterns, scanning slot subsets
level by level with one batched independence test per support size.
Conditioning a two-party product measurement on a known sender state gives
the slot weights of a rank-1 measurement on the receiver: ``slot_weight_map``
stacks the measurement once and ``slot_weights`` conditions it on each state.
``mixture_system`` builds what depends only on a family, and ``solve_mixture``
decomposes each weight vector into its coefficients mu over the family.
``message_system`` builds it over a subfamily that provably decomposes every
sender state: the smallest among the first _VERTEX_ENUM_LIMIT proper
subfamilies, else the members whose support stays inside one group of slots
with the same sender projector (for a product of two local measurements, the
sender's outcome), else the whole family.
The mixture is generally not unique, so the lexicographically smallest
feasible mu (in enumeration order) is returned, computed exactly by vertex
enumeration when the family has at most _VERTEX_ENUM_LIMIT candidate
supports (the subfamily search's cap too) and by deterministic non-negative
least squares otherwise.  Per sender state, ``slot_weights`` is one product
for the overlaps and one for its identity check, and the vertex search is
one batched product with the stored pseudo-inverses and a scan whose winner
is returned as solved there, without a second ``lstsq``.  Only the NNLS
solves need scipy, and ``_nnls`` imports it on first use.  Every product of
two local basis, trine or tetrahedral measurements prunes to at most 4
members and so is decided by vertex enumeration alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, groupby, islice
from typing import Sequence

import numpy as np

from . import qmath
from .qmath import ATOL_MATRIX, ProductRank1Effect, projector

INDEPENDENCE_TOL = 1e-8   # smallest singular value separating degeneracy from noise
MIN_WEIGHT = 1e-10        # weights at or below this count as structural zeros
RESIDUAL_TOL = 1e-9       # per-slot reconstruction residual for decompositions
SIGN_TOL = 1e-11          # most negative mixture coefficient a vertex may have

_MAX_PROJECTORS = 16
_MAX_DIM = 4
_VERTEX_ENUM_LIMIT = 3000  # candidate cap for the vertex scan and for alphabet pruning


class DecompositionInfeasibleError(ValueError):
    """The target has no convex decomposition over the given extremal family."""


@dataclass(frozen=True)
class ExtremalPovm:
    """An extremal weight pattern: slot indices with their uniquely determined weights."""

    support: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must align")
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def full_weights(self, n_slots: int) -> np.ndarray:
        out = np.zeros(n_slots)
        out[list(self.support)] = self.weights
        return out


def _assert_rank1_projector(p: np.ndarray) -> None:
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"projector must be square, got shape {p.shape}")
    if abs(np.trace(p).real - 1.0) > 1e-10 or np.max(np.abs(p @ p - p)) > 1e-10:
        raise ValueError("slot operator is not a rank-1 projector")


def enumerate_extremals(projectors: Sequence[np.ndarray]) -> list[ExtremalPovm]:
    """All extremal weight patterns over an ordered list of rank-1 projectors.

    A slot subset qualifies when its projectors are linearly independent and
    the unique solution of sum_a w_a P_a = identity is strictly positive.
    Subsets are scanned level by level: the supports of size k extend each
    independent support of size k - 1 by every later slot (a dependent subset
    cannot become independent by adding slots), one batched ``svd`` decides
    the independence of a whole level, and each independent support is then
    solved with ``lstsq``.  Results come back sorted lexicographically by
    support.
    """
    projs = [np.asarray(p, dtype=complex) for p in projectors]
    if not 1 <= len(projs) <= _MAX_PROJECTORS:
        raise ValueError(f"need between 1 and {_MAX_PROJECTORS} projectors, got {len(projs)}")
    dims = {p.shape for p in projs}
    if len(dims) != 1:
        raise qmath.DimensionError(f"projectors have mixed shapes: {dims}")
    for p in projs:
        _assert_rank1_projector(p)
    dim = projs[0].shape[0]
    if dim > _MAX_DIM:
        raise qmath.DimensionError(f"dimension {dim} exceeds supported maximum {_MAX_DIM}")

    flat = np.array(projs).reshape(len(projs), -1)
    vectors = np.concatenate([flat.real, flat.imag], axis=1)  # Hermitian matrices as real rows
    identity_vec = np.concatenate([np.eye(dim).reshape(-1), np.zeros(dim * dim)])
    found: list[ExtremalPovm] = []
    level = [()]
    for _ in range(dim * dim):
        extended = [s + (j,) for s in level for j in range(s[-1] + 1 if s else 0, len(projs))]
        if not extended:
            break
        sv = np.linalg.svd(vectors[np.array(extended)], compute_uv=False)
        level = [s for s, ok in zip(extended, sv[:, -1] > INDEPENDENCE_TOL) if ok]
        for support in level:
            a = vectors[list(support)].T
            w, *_ = np.linalg.lstsq(a, identity_vec, rcond=None)
            residual = np.max(np.abs(a @ w - identity_vec))
            if residual <= ATOL_MATRIX and np.min(w) > MIN_WEIGHT:
                found.append(ExtremalPovm(support=support, weights=tuple(w)))
    found.sort(key=lambda e: e.support)
    return found


@dataclass(frozen=True, eq=False)
class SlotWeightMap:
    """The state-independent part of ``slot_weights`` for one two-party product measurement.

    Stacks the sender projectors U_i, the term weights w_i and the receiver
    projectors V_i of the terms w_i U_i (x) V_i.  ``slot_weight_map`` checks
    once that the terms sum to the identity; ``slot_weights`` then conditions
    on each sender state.  The flat copies serve ``slot_weights``: row i of
    ``sender_rows`` is U_i transposed and flattened, so that
    ``sender_rows @ psi.ravel()`` stacks tr(U_i psi), and ``receiver_rows``
    and ``identity`` flatten the V_i and the receiver's identity.
    """

    sender: np.ndarray
    weights: np.ndarray
    receiver: np.ndarray
    sender_rows: np.ndarray
    receiver_rows: np.ndarray
    identity: np.ndarray


def slot_weight_map(joint: Sequence[ProductRank1Effect]) -> SlotWeightMap:
    """Check a two-party product measurement and stack its terms for ``slot_weights``."""
    if any(e.n_parties != 2 for e in joint):
        raise ValueError("slot weights need two-party product effects")
    qmath.assert_product_povm(joint)
    sender = np.array([projector(e.factors[0]) for e in joint])
    receiver = np.array([projector(e.factors[1]) for e in joint])
    for p in receiver:
        _assert_rank1_projector(p)
    d = receiver.shape[-1]
    arrays = (
        sender,
        np.array([e.weight for e in joint]),
        receiver,
        sender.transpose(0, 2, 1).reshape(len(joint), -1),
        receiver.reshape(len(joint), d * d),
        np.eye(d).reshape(-1),
    )
    for a in arrays:
        a.setflags(write=False)
    return SlotWeightMap(*arrays)


def slot_weights(slot_map: SlotWeightMap, psi: np.ndarray) -> np.ndarray:
    """The slot weights w_i tr(U_i psi) induced on the receiver projectors by a known sender state.

    Negative overlaps (rounding) count as zero, and the weighted receiver
    projectors must sum to the identity within ATOL_MATRIX.  The overlaps
    are one product with the map's flat sender rows, and the identity check
    one product with its flat receiver rows.
    """
    psi = qmath.assert_density_matrix(psi)
    if psi.shape[0] != slot_map.sender.shape[-1]:
        raise qmath.DimensionError("state dimension does not match the first factor")
    overlaps = (slot_map.sender_rows @ psi.ravel()).real
    weights = slot_map.weights * np.where(overlaps < 0.0, 0.0, overlaps)
    if np.max(np.abs(weights @ slot_map.receiver_rows - slot_map.identity)) > ATOL_MATRIX:
        raise ValueError("weighted projectors do not sum to identity")
    return weights


def _constraint_system(n_slots: int, extremals: Sequence[ExtremalPovm]) -> np.ndarray:
    a = np.ones((n_slots + 1, len(extremals)))
    for col, ext in enumerate(extremals):
        a[:n_slots, col] = ext.full_weights(n_slots)
    return a


def _lex_less(a: Sequence[float], b: Sequence[float], tol: float = 1e-11) -> bool:
    for x, y in zip(a, b):
        if x < y - tol:
            return True
        if x > y + tol:
            return False
    return False


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """``scipy.optimize.nnls``, imported on first use (loading scipy takes about 0.5 s on 2 cores)."""
    from scipy.optimize import nnls

    return nnls(a, b)


@dataclass(frozen=True, eq=False)
class MixtureSystem:
    """The state-independent part of ``solve_mixture`` for one family and slot count.

    ``matrix`` is the constraint matrix A of A mu = (slot weights, 1): one
    column per extremal pattern, holding its full weights over the slots and
    a final 1.  Every vertex of {mu >= 0 : A mu = b} is supported on at most
    rank(A) columns.  When at most _VERTEX_ENUM_LIMIT column subsets are
    that small, ``supports`` lists them by size and then in ``combinations``
    order, and ``submatrices`` and ``inverses`` stack their columns of A and
    the pseudo-inverses of those (cut off as ``lstsq(rcond=None)`` cuts off),
    zero-padded to rank(A) columns and rows, and they alone decide
    feasibility.  Otherwise all three are None and NNLS decides.
    """

    extremals: tuple[ExtremalPovm, ...]
    matrix: np.ndarray
    supports: tuple[tuple[int, ...], ...] | None = None
    submatrices: np.ndarray | None = None
    inverses: np.ndarray | None = None


def _stacked_subsets(a: np.ndarray, supports):
    """Per size of the size-grouped ``supports``: those supports, their columns of ``a``, their pinv."""
    for size, group in groupby(supports, len):
        group = np.array(list(group))
        subs = a[:, group].transpose(1, 0, 2)
        yield group, subs, np.linalg.pinv(subs, rtol=np.finfo(float).eps * max(a.shape[0], size))


def mixture_system(n_slots: int, extremals: Sequence[ExtremalPovm]) -> MixtureSystem:
    """Build the constraint system and candidate inverses that ``solve_mixture`` reuses per state."""
    if not extremals:
        raise DecompositionInfeasibleError("empty extremal family")
    extremals = tuple(extremals)
    a = _constraint_system(n_slots, extremals)
    a.setflags(write=False)
    rank = int(np.linalg.matrix_rank(a, tol=1e-10))
    sizes = range(1, rank + 1)
    if sum(math.comb(len(extremals), size) for size in sizes) > _VERTEX_ENUM_LIMIT:
        return MixtureSystem(extremals, a)
    supports = tuple(s for size in sizes for s in combinations(range(len(extremals)), size))
    submatrices = np.zeros((len(supports), a.shape[0], rank))
    inverses = np.zeros((len(supports), rank, a.shape[0]))
    lo = 0
    for group, subs, invs in _stacked_subsets(a, supports):
        hi = lo + len(group)
        submatrices[lo:hi, :, :group.shape[1]] = subs
        inverses[lo:hi, :group.shape[1]] = invs
        lo = hi
    for array in (submatrices, inverses):
        array.setflags(write=False)
    return MixtureSystem(extremals, a, supports, submatrices, inverses)


def _certified(g: np.ndarray, subs: np.ndarray, invs: np.ndarray) -> np.ndarray:
    """Which stacked candidates (columns ``subs`` of A, pseudo-inverses ``invs``) decompose every state.

    A candidate passes when lambda_min(Q_j) >= -SIGN_TOL and ||R_k|| <=
    RESIDUAL_TOL, with Q = P G and R = (1 - A_S P) G (see ``message_system``).
    """
    # |tr(R_k 1/d)| <= ||R_k||, so the maximally mixed state's residual rules most candidates out.
    mixed = np.trace(g, axis1=1, axis2=2).real / g.shape[-1]  # b(1/d)
    mixed_residual = mixed - np.einsum("krs,ks->kr", subs, invs @ mixed)
    near = np.flatnonzero(np.abs(mixed_residual).max(axis=1) <= RESIDUAL_TOL)
    q = np.tensordot(invs[near], g, 1)
    r = g - np.einsum("krs,ksij->krij", subs[near], q)
    certified = np.zeros(len(subs), dtype=bool)
    certified[near] = qmath.hermitian_eigenvalues(q)[..., 0].min(axis=1) >= -SIGN_TOL
    certified[near] &= np.abs(qmath.hermitian_eigenvalues(r)).max(axis=(1, 2)) <= RESIDUAL_TOL
    return certified


def _sender_groups(sender: np.ndarray) -> list[int]:
    """Per slot, its group: slot j joins the first earlier slot whose projector is within ATOL_MATRIX."""
    groups: list[int] = []
    for j, u in enumerate(sender):
        near = np.flatnonzero(np.max(np.abs(sender[:j] - u), axis=(1, 2)) <= ATOL_MATRIX)
        groups.append(groups[near[0]] if len(near) else j)
    return groups


def message_system(slot_map: SlotWeightMap) -> MixtureSystem:
    """The mixture system over the smallest extremal subfamily that decomposes every sender state.

    Proper subfamilies are tried by ascending size, in ``combinations`` order,
    the first _VERTEX_ENUM_LIMIT of them.  When none passes, one more
    candidate is tried: the members whose support lies inside one group of
    slots with the same sender projector (the sender measures the first
    factor and announces the group).  The full family (always feasible) is
    the fallback.  The slot weights and tr(psi) = 1 are linear in psi,
    b(psi)_k = tr(G_k psi) with G stacking the w_i U_i and the identity.  For
    columns A_S and P = pinv(A_S), the mixture P b(psi) is tr(Q_j psi) and
    its residual tr(R_k psi), with Q = P G and R = (1 - A_S P) G.  Over all
    states, of any dimension, min tr(Q_j psi) = lambda_min(Q_j) and
    max |tr(R_k psi)| = ||R_k||, so lambda_min(Q_j) >= -SIGN_TOL and
    ||R_k|| <= RESIDUAL_TOL (the vertex scan's sign and residual tests)
    certify every state; the converse holds when A_S has independent
    columns, as P b(psi) is then the only mixture.  ``_certified`` decides
    both kinds of candidate.
    """
    family = tuple(enumerate_extremals(slot_map.receiver))
    n_slots = len(slot_map.weights)
    a = _constraint_system(n_slots, family)
    d = slot_map.sender.shape[-1]
    g = np.concatenate([slot_map.weights[:, None, None] * slot_map.sender, np.eye(d)[None]])
    subsets = chain.from_iterable(combinations(range(len(family)), k) for k in range(1, len(family)))
    for group, subs, invs in _stacked_subsets(a, islice(subsets, _VERTEX_ENUM_LIMIT)):
        certified = _certified(g, subs, invs)
        if certified.any():
            return mixture_system(n_slots, [family[i] for i in group[np.argmax(certified)]])
    groups = _sender_groups(slot_map.sender)
    sender_first = tuple(k for k, e in enumerate(family) if len({groups[i] for i in e.support}) == 1)
    if 0 < len(sender_first) < len(family):
        (_, subs, invs), = _stacked_subsets(a, [sender_first])
        if _certified(g, subs, invs)[0]:
            return mixture_system(n_slots, [family[i] for i in sender_first])
    return mixture_system(n_slots, family)


def _lex_min_vertex(system: MixtureSystem, b: np.ndarray) -> np.ndarray | None:
    """The lexicographically smallest basic feasible solution of A mu = b, mu >= 0, or None.

    Every candidate support is solved at once from its stored pseudo-inverse
    (cut off as ``lstsq(rcond=None)`` cuts off), and those solves are the
    mixtures: the feasible ones are scanned in enumeration order with
    ``_lex_less``, as Python floats, and the winner's solve is returned.
    """
    w = system.inverses @ b
    residual = np.max(np.abs(np.einsum("krs,ks->kr", system.submatrices, w) - b), axis=1)
    feasible = np.flatnonzero(~(np.min(w, axis=1) < -SIGN_TOL) & ~(residual > RESIDUAL_TOL))
    n_family = system.matrix.shape[1]
    best = None
    for k, values in zip(feasible.tolist(), w[feasible].tolist()):
        mu = [0.0] * n_family
        for i, x in zip(system.supports[k], values):
            mu[i] = max(x, 0.0)
        if best is None or _lex_less(mu, best):
            best = mu
    return None if best is None else np.array(best)


def solve_mixture(system: MixtureSystem, weights: Sequence[float]) -> np.ndarray:
    """The mixture coefficients mu over ``system.extremals`` that reproduce the slot weights.

    mu is nonnegative, sums to 1, and A[:-1] mu matches ``weights`` within
    RESIDUAL_TOL.  It is found by the system's one feasibility rule:
    ``_lex_min_vertex`` (the lexicographically smallest vertex, in enumeration
    order) when the system holds candidate supports, and deterministic NNLS
    when it does not.  Coefficients below MIN_WEIGHT are then zeroed, and the
    sum and the slot residual are checked on the result.
    DecompositionInfeasibleError is raised when the rule finds no mixture or
    the mixture misses the weights, which signals that the weights are not a
    valid measurement over this family.
    """
    a = system.matrix
    b = np.concatenate([np.asarray(weights, dtype=float), [1.0]])
    if b.shape != a.shape[:1]:
        raise ValueError(f"{len(b) - 1} slot weights for a system over {a.shape[0] - 1} slots")
    if system.supports is None:
        mu, residual = _nnls(a, b)
        if residual > RESIDUAL_TOL:
            mu = None
    else:
        mu = _lex_min_vertex(system, b)
    if mu is None:
        raise DecompositionInfeasibleError("no convex decomposition over this family")

    mu = np.where(mu < MIN_WEIGHT, 0.0, mu)
    total = mu.sum()
    if abs(total - 1.0) > 1e-9:
        raise DecompositionInfeasibleError(f"mixture coefficients sum to {total!r}")
    mu = mu / total
    slot_residual = np.max(np.abs(a[:-1] @ mu - b[:-1]))
    if slot_residual > RESIDUAL_TOL:
        raise DecompositionInfeasibleError(
            f"reconstruction residual {slot_residual:.3e} exceeds tolerance"
        )
    return mu

