"""Numerical witness that finite one-round messaging cannot hit the forced targets.

If a one-round protocol reproduced the singlet-outcome statistics for every
pair of qubit states, the receiver's effective effect conditioned on the
sender's state psi would be forced to half the projector onto the state
orthogonal to psi.  This module optimizes finite strategies (K shared atoms,
M messages, rank-at-most-1 sub-unit effects) against that target family on a
finite grid of N sender states, reports the best error found, and checks the
counting obstruction: an exact strategy dedicates, for each message, disjoint
shared-randomness support to different sender states, each carrying total
probability at least 1/2 across messages, which is impossible once N > 2M.

Everything is parametrized in Bloch form: a Hermitian 2x2 operator
t*I + v.sigma has operator norm |t| + |v| when compared to another such
operator, which makes the error metric exact and cheap.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qmath

EXACTNESS_TOL = 1e-9
SUPPORT_TOL = 1e-10
MASS_TOL = 1e-6
#: Most entries one start's encoder-step table may hold (2^24 float64 entries are 128 MiB).
MAX_TABLE_ENTRIES = 2**24
#: Most grid states a case may ask for.  ``nested_grid`` rejects directions
#: within its gap of an earlier one, so near 2,150 points its sampler stalls
#: for good; 1,000 points take it about a second.
MAX_STATES = 1000


class NogoError(ValueError):
    """Invalid witness input."""


@dataclass(frozen=True)
class TargetFamily:
    """Grid of unit Bloch vectors defining the forced effects P(-psi)/2."""

    grid: np.ndarray

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        if g.ndim != 2 or g.shape[1] != 3 or g.shape[0] < 1:
            raise NogoError(f"grid must have shape (N, 3), got {g.shape}")
        norms = np.linalg.norm(g, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise NogoError("grid vectors must be unit length")
        dots = np.clip(g @ g.T, -1.0, 1.0)
        np.fill_diagonal(dots, -1.0)
        if g.shape[0] > 1 and np.arccos(np.max(dots)) < 1e-9:
            raise NogoError("grid vectors must be pairwise distinct")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)

    def __len__(self) -> int:
        return self.grid.shape[0]

    def target_effect(self, j: int) -> np.ndarray:
        """The forced effect for grid state j: half the antipodal projector."""
        return 0.5 * qmath.bloch_to_density(-self.grid[j])


def nested_grid(n: int, seed: int = 0xF00D, min_gap: float = 1e-3) -> TargetFamily:
    """Deterministic grid whose prefixes are nested: grid(n1) is a prefix of grid(n2).

    Points come from a seeded uniform stream, rejecting near-duplicates and
    near-antipodal repeats so the counting checks see distinct directions.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    points: list[np.ndarray] = []
    while len(points) < n:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if all(abs(float(v @ w)) < 1.0 - min_gap for w in points):
            points.append(v)
    return TargetFamily(grid=np.array(points))


@dataclass(frozen=True)
class FiniteStrategy:
    """K shared atoms, an N x K x M stochastic encoder, and rank-1 sub-unit effects.

    The effect used for (message m, atom x) is weight[m, x] times the
    projector onto the Bloch direction axis[m, x]; weights lie in [0, 1].
    """

    atom_probs: np.ndarray       # (K,)
    encoder: np.ndarray          # (N, K, M), rows over the last axis are distributions
    effect_weights: np.ndarray   # (M, K) in [0, 1]
    effect_axes: np.ndarray      # (M, K, 3) unit vectors

    def __post_init__(self):
        p = np.array(self.atom_probs, dtype=float)
        enc = np.array(self.encoder, dtype=float)
        w = np.array(self.effect_weights, dtype=float)
        axes = np.array(self.effect_axes, dtype=float)
        if p.ndim != 1 or abs(p.sum() - 1.0) > 1e-12 or p.min() < 0.0:
            raise NogoError("atom probabilities must form a distribution")
        k = p.size
        if enc.ndim != 3 or enc.shape[1] != k:
            raise NogoError(f"encoder must have shape (N, {k}, M)")
        if np.max(np.abs(enc.sum(axis=2) - 1.0)) > 1e-12 or enc.min() < -1e-15:
            raise NogoError("encoder rows must be probability distributions")
        m = enc.shape[2]
        if w.shape != (m, k) or w.min() < -1e-15 or w.max() > 1.0 + 1e-12:
            raise NogoError("effect weights must lie in [0, 1] with shape (M, K)")
        if axes.shape != (m, k, 3):
            raise NogoError(f"effect axes must have shape ({m}, {k}, 3)")
        if np.max(np.abs(np.linalg.norm(axes, axis=2) - 1.0)) > 1e-9:
            raise NogoError("effect axes must be unit vectors")
        for arr in (p, enc, w, axes):
            arr.setflags(write=False)
        object.__setattr__(self, "atom_probs", p)
        object.__setattr__(self, "encoder", enc)
        object.__setattr__(self, "effect_weights", w)
        object.__setattr__(self, "effect_axes", axes)

    @property
    def n_states(self) -> int:
        return self.encoder.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atom_probs.size

    @property
    def n_messages(self) -> int:
        return self.encoder.shape[2]


@dataclass(frozen=True)
class WitnessReport:
    n_messages: int
    n_atoms: int
    n_states: int
    best_error: float
    iterations: int
    starts: int
    seed: int
    strategy: FiniteStrategy


def _effective_bloch(
    p: np.ndarray, enc: np.ndarray, weights: np.ndarray, axes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar and vector parts (t_j, v_j) of every effective effect t I + v.sigma.

    Leading axes, such as a start axis, are carried through.
    """
    # c[..., j, m, x] = p(x) * encoder[..., j, x, m] * weight[..., m, x]
    c = p[..., None, None, :] * np.swapaxes(enc, -1, -2) * weights[..., None, :, :]
    t = 0.5 * c.sum(axis=(-2, -1))
    v = 0.5 * np.einsum("...jmx,...mxd->...jd", c, axes)
    return t, v


def _state_errors(
    targets: TargetFamily, p: np.ndarray, enc: np.ndarray, weights: np.ndarray, axes: np.ndarray
) -> np.ndarray:
    t, v = _effective_bloch(p, enc, weights, axes)
    return np.abs(t - 0.25) + np.linalg.norm(v + 0.25 * targets.grid, axis=-1)


def effective_effect(s: FiniteStrategy, j: int) -> np.ndarray:
    """The effect the receiver effectively applies when the sender holds grid state j."""
    if not 0 <= j < s.n_states:
        raise NogoError(f"grid index {j} out of range")
    t, v = _effective_bloch(s.atom_probs, s.encoder, s.effect_weights, s.effect_axes)
    return t[j] * qmath.I2 + v[j, 0] * qmath.SIGMA_X + v[j, 1] * qmath.SIGMA_Y + v[j, 2] * qmath.SIGMA_Z


def strategy_error(s: FiniteStrategy, targets: TargetFamily) -> float:
    """Worst-case operator-norm distance between effective and forced effects.

    The operator norm of (t I + v.sigma) is |t| + |v|, so the distance to the
    target (1/4) I - (psi_hat/4).sigma is exact.
    """
    if s.n_states != len(targets):
        raise NogoError("strategy and target family disagree on the grid size")
    return float(np.max(per_state_errors(s, targets)))


def per_state_errors(s: FiniteStrategy, targets: TargetFamily) -> np.ndarray:
    return _state_errors(targets, s.atom_probs, s.encoder, s.effect_weights, s.effect_axes)


# ---------------------------------------------------------------------------
# Alternating optimizer
# ---------------------------------------------------------------------------

def exact_strategy(targets: TargetFamily, n_messages: int) -> FiniteStrategy:
    """Zero-error strategy for N <= M: message j carries the forced effect for state j."""
    n = len(targets)
    if n_messages < n:
        raise NogoError("the explicit construction needs at least as many messages as states")
    encoder = np.zeros((n, 1, n_messages))
    encoder[np.arange(n), 0, np.arange(n)] = 1.0
    weights = np.zeros((n_messages, 1))
    weights[:n, 0] = 0.5
    weights[n:, 0] = 0.0
    axes = np.tile(np.array([0.0, 0.0, 1.0]), (n_messages, 1, 1))
    axes[:n, 0, :] = -targets.grid
    return FiniteStrategy(
        atom_probs=np.array([1.0]),
        encoder=encoder,
        effect_weights=weights,
        effect_axes=axes,
    )


def _random_strategy(rng: np.random.Generator, n: int, m: int, k: int) -> FiniteStrategy:
    encoder = rng.dirichlet(np.ones(m), size=(n, k))
    axes = rng.normal(size=(m, k, 3))
    axes /= np.linalg.norm(axes, axis=2, keepdims=True)
    return FiniteStrategy(
        atom_probs=np.full(k, 1.0 / k),
        encoder=encoder,
        effect_weights=rng.uniform(0.2, 0.8, size=(m, k)),
        effect_axes=axes,
    )


def _clustered_strategy(targets: TargetFamily, m: int, k: int, rng: np.random.Generator) -> FiniteStrategy:
    """Seed strategy: route each grid state to the nearest of m direction clusters.

    Cluster centers come from a few spherical Lloyd iterations; each message
    carries half the projector antipodal to its center, which is exact when
    every cluster is a single state.
    """
    n = len(targets)
    centers = np.array(targets.grid[rng.choice(n, size=m, replace=n < m)])
    previous = None
    for _ in range(10):
        assign = np.argmax(targets.grid @ centers.T, axis=1)
        if previous is not None and np.array_equal(assign, previous):
            break  # the same clusters give the same centers, so nothing moves again
        previous = assign
        for c in range(m):
            members = targets.grid[assign == c]
            if len(members):
                mean = members.sum(axis=0)
                norm = np.linalg.norm(mean)
                if norm > 1e-12:
                    centers[c] = mean / norm
    assign = np.argmax(targets.grid @ centers.T, axis=1)
    encoder = np.zeros((n, 1, m))
    encoder[np.arange(n), 0, assign] = 1.0
    return _pad_strategy_atoms(
        FiniteStrategy(
            atom_probs=np.array([1.0]),
            encoder=encoder,
            effect_weights=np.full((m, 1), 0.5),
            effect_axes=-centers[:, None, :],
        ),
        k,
    )


def _pad_strategy_atoms(s: FiniteStrategy, k: int) -> FiniteStrategy:
    """Extend a strategy to k atoms by replicating it uniformly."""
    if s.n_atoms == k:
        return s
    reps = k
    return FiniteStrategy(
        atom_probs=np.full(k, 1.0 / k),
        encoder=np.repeat(s.encoder, reps, axis=1),
        effect_weights=np.repeat(s.effect_weights, reps, axis=1),
        effect_axes=np.repeat(s.effect_axes, reps, axis=1),
    )


def _effect_vectors(weights: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Effects as 4-vectors (e/2, e*axis/2): the (t, v) parts of e(I + n.sigma)/2."""
    return np.concatenate([0.5 * weights[..., None], 0.5 * weights[..., None] * axes], axis=-1)


def _target_vectors(targets: TargetFamily) -> np.ndarray:
    return np.concatenate([np.full((len(targets), 1), 0.25), -0.25 * targets.grid], axis=1)


def _effects_step(
    targets: TargetFamily, enc: np.ndarray, p: np.ndarray,
    weights: np.ndarray, axes: np.ndarray, state_weights: np.ndarray,
) -> None:
    """Least-squares update of each (m, x) effect, projected to rank-1 sub-unit form.

    For fixed encoder the weighted squared-Frobenius objective is quadratic in
    each effect; the unconstrained optimum is Hermitian and its projection
    onto {e * rank-1 projector, 0 <= e <= 1} keeps the top eigenvalue (clipped
    to [0, 1]) along the top eigenvector.  In 4-vector form the projection of
    (a, u) is a' = clip((a + |u|)/2, 0, 1/2) along u.

    Arrays carry a leading start axis: enc (S, N, K, M), p (S, K), weights
    (S, M, K), axes (S, M, K, 3) and state_weights (S, N).  Each start is
    updated Gauss-Seidel over its (m, x) effects in order; starts never read
    each other, so the S starts advance together.  A start whose effect has
    no weight on any state (denominator at most 1e-18) keeps that effect, and
    a zero-length optimum keeps its axis.  Arrays are updated in place.

    The effects are held effect-major, row e = m K + x holding effect (m, x)
    of every start, and the update of one effect is a fixed chain of ufuncs
    into buffers allocated once per call.  Every start is computed; a start
    whose effect is dead divides by 1, not by its denominator, and is not
    written.  So each value is the one the per-start update gives.
    """
    n_starts, n, k, m_count = enc.shape
    n_effects = m_count * k
    c = p[:, None, None, :] * np.swapaxes(enc, -1, -2)   # (S, N, M, K)
    g = _effect_vectors(weights, axes)                    # (S, M, K, 4)
    tau = _target_vectors(targets)                        # (N, 4)
    z = np.einsum("sjmx,smxd->sjd", c, g)                 # effective 4-vectors
    # The encoder is fixed in this step, so every column c[s, :, m, x], its
    # weighted form and its denominator are known up front; the grid axis is
    # laid out last so that each denominator is summed as one contiguous row
    # (the layout of that sum decides its rounding).
    cols = np.ascontiguousarray(np.moveaxis(c, 1, -1))   # (S, M, K, N)
    weighted = state_weights[:, None, None, :] * cols
    denoms = (weighted * cols).sum(axis=-1)

    def effect_major(a: np.ndarray) -> np.ndarray:
        return np.swapaxes(a.reshape(n_starts, n_effects, *a.shape[3:]), 0, 1)

    live = effect_major(denoms > 1e-18)                              # (E, S)
    cols, weighted = effect_major(cols)[..., None], effect_major(weighted)[..., None]  # (E, S, N, 1)
    denoms = np.where(live, effect_major(denoms), 1.0)[..., None]    # (E, S, 1)
    g = np.ascontiguousarray(effect_major(g))[:, :, None, :]         # (E, S, 1, 4)
    # h holds (1, axis) per effect, so that a * h is the effect's 4-vector;
    # the new weights are 2 a, written for the live starts at the end.
    h = np.ones((n_effects, n_starts, 4))
    h[..., 1:] = effect_major(axes)
    a = np.zeros((n_effects, n_starts))
    live_rows = live.tolist()
    rest, scratch = np.empty_like(z), np.empty_like(z)
    g_star, norm = np.empty((n_starts, 4)), np.empty(n_starts)
    u, norm_col = g_star[:, 1:], norm[:, None]
    for e in range(n_effects):
        if not any(live_rows[e]):
            continue
        np.multiply(cols[e], g[e], out=scratch)
        np.subtract(z, scratch, out=rest)
        np.subtract(tau, rest, out=scratch)
        np.multiply(weighted[e], scratch, out=scratch)
        np.add.reduce(scratch, axis=1, out=g_star)
        np.divide(g_star, denoms[e], out=g_star)
        # vecdot is the dot product np.linalg.norm takes of one vector, bit for bit.
        np.vecdot(u, u, out=norm)
        np.sqrt(norm, out=norm)
        a_e = a[e]
        np.add(g_star[:, 0], norm, out=a_e)
        np.multiply(0.5, a_e, out=a_e)
        np.maximum(a_e, 0.0, out=a_e)
        np.minimum(a_e, 0.5, out=a_e)
        # Where every start is live with a nonzero optimum, nothing is masked.
        turn = on = True
        if not (all(live_rows[e]) and all(v > 1e-15 for v in norm.tolist())):
            on = live[e, :, None, None]
            turn = (norm_col > 1e-15) & on[:, 0]
        np.divide(u, norm_col, out=h[e, :, 1:], where=turn)
        np.multiply(a_e[:, None], h[e], out=g[e, :, 0])
        np.multiply(cols[e], g[e], out=scratch)
        np.add(rest, scratch, out=z, where=on)
    weights[...] = np.where(live, 2.0 * a, effect_major(weights)).T.reshape(weights.shape)
    axes[...] = h[..., 1:].swapaxes(0, 1).reshape(axes.shape)


@functools.cache
def _support_tables(m_count: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Index tables of the supports of two or more of m_count messages, one per size.

    Candidates are the non-empty supports, by size, each size in combinations
    order; the first m_count are the one-message supports.  For each size
    from 2 up, the entry holds the supports (C, size), their indices among
    the solved candidates (counted from the first two-message support), and
    the columns of the full right-hand side that each row reads (its
    messages, then the constraint).  The arrays are read-only and made once
    per M.
    """
    tables = []
    first = 0
    for size in range(2, m_count + 1):
        sups = np.array(list(itertools.combinations(range(m_count), size)))
        cand = first + np.arange(len(sups))
        first += len(sups)
        cols = np.concatenate([sups, np.full((len(sups), 1), m_count)], axis=1)
        for table in (sups, cand, cols):
            table.setflags(write=False)
        tables.append((sups, cand, cols))
    return tuple(tables)


def _record_scan(vals: np.ndarray) -> np.ndarray:
    """Winning candidate per row of vals (..., C), or -1 where none wins.

    The rule is a record scan in candidate order: the best starts at
    infinity, and a candidate replaces it only when its value is lower by
    more than 1e-15, so NaN and infinity never win.  When a row's smallest
    value is finite and every other value is at least 1e-12 above it, the
    rule picks the first index of that minimum (any margin above 2e-15 would
    do); so only rows with a near-tie, a NaN or no finite value run the scan
    itself, and when there is none the answer is one ``argmin``.
    """
    flat = vals.reshape(-1, vals.shape[-1])
    best = flat.min(axis=1)
    choice = flat.argmin(axis=1)
    bound = best + 1e-12
    below = flat < bound[:, None]
    # Every row has one value below its bound exactly when the counts sum to
    # the rows and each row's own minimum is below it.
    if not np.count_nonzero(below) == len(flat) == np.count_nonzero(best < bound):
        rows = np.flatnonzero(np.count_nonzero(below, axis=1) != 1)
        best_val, pick = np.full(len(rows), np.inf), np.full(len(rows), -1)
        for c, column in enumerate(flat[rows].T):
            take = column < best_val - 1e-15
            best_val, pick = np.where(take, column, best_val), np.where(take, c, pick)
        choice[rows] = pick
    return choice.reshape(vals.shape[:-1])


def _encoder_step(
    targets: TargetFamily, enc: np.ndarray, p: np.ndarray,
    weights: np.ndarray, axes: np.ndarray,
) -> None:
    """Exact simplex-constrained quadratic minimization of each encoder row.

    For fixed effects the objective restricted to one (j, x) row is a convex
    quadratic over the simplex; with few messages the optimum is found by
    enumerating supports and solving the equality-constrained normal
    equations, keeping the best feasible candidate (in support order, a later
    candidate wins only when it is lower by more than 1e-15; ``_record_scan``).

    A one-message support needs no solve: its only point on the simplex is
    e_m, which the solve of its KKT matrix [[2|b|^2, 1], [1, 0]] also gives,
    since q_m = 1 +- 1e-15 there and the row is normalised to q_m / q_m = 1.
    So those candidate rows are written as e_m.  The KKT matrix of an (atom,
    support) pair of two or more messages depends only on the effects, so all
    of them are inverted once per step with one stacked pseudo-inverse per
    support size; its cut-off eps * (s + 1) is that of ``lstsq(rcond=None)``,
    so singular systems from zero-weight effects get the same minimum-norm
    solution.  Rows of different grid states never read each other and are
    solved together, for every support at once.  Atoms stay sequential
    (Gauss-Seidel): the row for atom x is fitted against the rows already
    updated for the atoms before it, which batching across atoms would change.

    With one message there is nothing to solve.  Arrays carry a leading start
    axis, as in ``_effects_step``, and the starts are solved together.
    """
    n_starts, n, k, m_count = enc.shape
    if m_count == 1:
        # The simplex is the single point 1.0, which the support solve writes
        # exactly (q / q); rows drawn from a Dirichlet may be 1 - eps before.
        enc[...] = 1.0
        return
    basis = p[:, :, None, None] * np.swapaxes(_effect_vectors(weights, axes), 1, 2)  # (S, K, M, 4)
    tau = _target_vectors(targets)
    n_solved = 2**m_count - 1 - m_count
    # solve[s, x, c] maps the full right-hand side (2 basis[s, x] @ target, 1)
    # to the candidate row of the c-th support of two or more messages, zero
    # off the support.
    solve = np.zeros((n_starts, k, n_solved, m_count, m_count + 1))
    for sups, cand, cols in _support_tables(m_count):
        size = sups.shape[1]
        b = basis[:, :, sups]  # (S, K, C, size, 4)
        kkt = np.ones((n_starts, k, len(sups), size + 1, size + 1))
        kkt[..., :size, :size] = 2.0 * b @ b.swapaxes(-1, -2)
        kkt[..., size, size] = 0.0
        inv = np.linalg.pinv(kkt, rtol=np.finfo(float).eps * (size + 1))
        solve[:, :, cand[:, None, None], sups[:, :, None], cols[:, None, :]] = inv[..., :size, :]
    contrib = np.einsum("sjxm,sxmd->sjxd", enc, basis)  # (S, N, K, 4) per-atom effective parts
    rhs = np.ones((n_starts, n, m_count + 1))
    # Candidate rows: the one-message rows e_m first, then the solved ones.
    full = np.zeros((n_starts, n, 2**m_count - 1, m_count))
    full[:, :, np.arange(m_count), np.arange(m_count)] = 1.0
    solved = full[:, :, m_count:]
    atoms, start_rows, state_rows = np.arange(k), np.arange(n_starts)[:, None], np.arange(n)
    for x in range(k):
        target = tau - contrib[:, :, atoms != x].sum(axis=2)  # (S, N, 4)
        rhs[..., :m_count] = 2.0 * target @ basis[:, x].swapaxes(-1, -2)
        q = np.einsum("scmi,sji->sjcm", solve[:, x], rhs)  # (S, N, solved candidates, M)
        np.maximum(q, 0.0, out=solved)
        total = solved.sum(axis=3)
        feasible = (q.min(axis=3) >= -1e-12) & (total > 0.0)
        solved /= np.where(feasible, total, 1.0)[..., None]
        vals = np.square(full @ basis[:, None, x] - target[:, :, None, :]).sum(axis=3)
        vals[:, :, m_count:][~feasible] = np.inf
        choice = _record_scan(vals)
        picked = full[start_rows, state_rows, choice]
        if choice.min() < 0:  # a row with no feasible candidate keeps its old value
            picked = np.where((choice >= 0)[..., None], picked, enc[:, :, x])
        enc[:, :, x] = picked
        contrib[:, :, x] = enc[:, :, x] @ basis[:, x]


def check_sizes(n_messages: int, n_atoms: int, n_states: int) -> None:
    """Reject sizes ``optimize`` cannot run, before anything is allocated.

    Every size must be at least 1, the states at most ``MAX_STATES``, and
    one start's encoder-step table, K (2^M - 1) M (M + 1) entries, its
    candidate rows, N (2^M - 1) M entries, and its effects-step columns,
    N M K entries, must each hold at most ``MAX_TABLE_ENTRIES``; so M <= 15
    at one atom, M <= 10 at 1,000 states, and M K <= 16,777 at 1,000 states.
    """
    if n_messages < 1 or n_atoms < 1 or n_states < 1:
        raise NogoError("messages, atoms and states must all be at least 1")
    if n_states > MAX_STATES:
        raise NogoError(f"{n_states} states exceed the grid's limit of {MAX_STATES}")
    # M > 24 is over the limit at any K, and 2**M is not formed for it.
    if n_messages > 24 or _table_entries(n_messages, n_atoms) > MAX_TABLE_ENTRIES:
        raise NogoError(
            f"the encoder table for {n_messages} messages and {n_atoms} atoms "
            f"exceeds {MAX_TABLE_ENTRIES} entries"
        )
    if _row_entries(n_messages, n_states) > MAX_TABLE_ENTRIES:
        raise NogoError(
            f"the candidate rows for {n_messages} messages and {n_states} states "
            f"exceed {MAX_TABLE_ENTRIES} entries"
        )
    if _column_entries(n_messages, n_atoms, n_states) > MAX_TABLE_ENTRIES:
        raise NogoError(
            f"the effects-step columns for {n_messages} messages, {n_atoms} atoms and "
            f"{n_states} states exceed {MAX_TABLE_ENTRIES} entries"
        )


def _table_entries(n_messages: int, n_atoms: int) -> int:
    return n_atoms * (2**n_messages - 1) * n_messages * (n_messages + 1)


def _row_entries(n_messages: int, n_states: int) -> int:
    return n_states * (2**n_messages - 1) * n_messages


def _column_entries(n_messages: int, n_atoms: int, n_states: int) -> int:
    return n_states * n_messages * n_atoms


def _start_entries(n_messages: int, n_atoms: int, n_states: int) -> int:
    """Entries of the largest array one start adds to a stacked sweep.

    That is its encoder-step table, the candidate rows, N (2^M - 1) M
    entries, that the encoder step's solve for each atom builds, or the
    effects step's columns, N M K entries in each of its column arrays; the
    rows and columns grow with the grid.
    """
    return max(
        _table_entries(n_messages, n_atoms),
        _row_entries(n_messages, n_states),
        _column_entries(n_messages, n_atoms, n_states),
    )


def _replay_in_start_order(histories: list[np.ndarray]) -> tuple[float, int | None, int]:
    """Read per-start error histories as one start after another would have run.

    Returns (best error, start holding it, sweeps run).  Only a strictly lower
    error replaces the best, and the reading stops at the first sweep that
    brings the best below EXACTNESS_TOL / 10, as the sequential run stopped.
    The start is None when no error compares below infinity.
    """
    best_error, best_start, iterations = math.inf, None, 0
    for start, history in enumerate(histories):
        for err in history:
            iterations += 1
            if err < best_error:
                best_error, best_start = float(err), start
            if best_error < EXACTNESS_TOL / 10.0:
                return best_error, best_start, iterations
    return best_error, best_start, iterations


def _initial_strategy(
    targets: TargetFamily, n_messages: int, n_atoms: int, start_index: int, rng: np.random.Generator
) -> FiniteStrategy:
    n = len(targets)
    if start_index == 0 and n <= n_messages:
        return _pad_strategy_atoms(exact_strategy(targets, n_messages), n_atoms)
    if start_index == 0 or (start_index == 1 and n > n_messages):
        return _clustered_strategy(targets, n_messages, n_atoms, rng)
    return _random_strategy(rng, n, n_messages, n_atoms)


def optimize(
    targets: TargetFamily,
    n_messages: int,
    n_atoms: int,
    seed: int,
    budget: int = 320,
    starts: int = 8,
) -> WitnessReport:
    """Multi-start alternating minimization against the forced target family.

    Each start alternates the effects step and the encoder step for
    max(1, budget // starts) sweeps, from its own seed, keeping its own
    state weights and its best-so-far iterate.  When the grid fits in the
    message alphabet the first start is seeded with the exact construction,
    so exactness is found immediately.

    Starts advance together, in start-order groups whose stacked encoder
    tables, candidate rows and effects-step columns each hold at most
    ``MAX_TABLE_ENTRIES`` entries (``check_sizes`` rejects a start that alone
    holds more), and are reported in start order: the best error, the sweep
    count and the strategy are those of running one start after another, where
    only a strictly lower error wins and the run stops at the first start that
    goes exact (``_replay_in_start_order``).  The report carries the best
    error found; no claim of global optimality is made.
    """
    n = len(targets)
    check_sizes(n_messages, n_atoms, n)
    sweeps = max(1, budget // starts)
    seeds = np.random.SeedSequence(seed).spawn(starts)
    group_size = MAX_TABLE_ENTRIES // _start_entries(n_messages, n_atoms, n)
    histories: list[np.ndarray] = []
    snapshots: list[tuple[np.ndarray, ...]] = []
    for first in range(0, starts, group_size):
        group = [
            _initial_strategy(targets, n_messages, n_atoms, i, np.random.default_rng(seeds[i]))
            for i in range(first, min(first + group_size, starts))
        ]
        p = np.stack([s.atom_probs for s in group])
        enc = np.stack([s.encoder for s in group])
        weights = np.stack([s.effect_weights for s in group])
        axes = np.stack([s.effect_axes for s in group])
        best_enc, best_weights, best_axes = enc.copy(), weights.copy(), axes.copy()
        best_err = np.full(len(group), math.inf)
        state_weights = np.ones((len(group), n))
        history = np.empty((len(group), sweeps))
        lengths = np.full(len(group), sweeps)
        # Starts after the first exact one are never read, so the live starts
        # are always a prefix of the group.
        live, went_exact = len(group), False
        for sweep in range(sweeps):
            rows = slice(0, live)
            _effects_step(targets, enc[rows], p[rows], weights[rows], axes[rows], state_weights[rows])
            _encoder_step(targets, enc[rows], p[rows], weights[rows], axes[rows])
            errors = _state_errors(targets, p[rows], enc[rows], weights[rows], axes[rows])
            err = errors.max(axis=1)
            history[rows, sweep] = err
            improved = err < best_err[rows]
            best_err[rows][improved] = err[improved]
            for best, now in ((best_enc, enc), (best_weights, weights), (best_axes, axes)):
                best[rows][improved] = now[rows][improved]
            exact = np.flatnonzero(err < EXACTNESS_TOL / 10.0)
            if exact.size:
                live, went_exact = int(exact[0]), True
                lengths[live] = sweep + 1
                if live == 0:
                    break
                errors, err = errors[:live], err[:live]
            # Multiplicative re-weighting concentrates the least-squares steps
            # on the worst grid states, approximating the minimax solution.
            grown = state_weights[:live] * np.exp(errors / np.maximum(err, 1e-15)[:, None])
            state_weights[:live] = np.minimum(grown / grown.mean(axis=1, keepdims=True), 1e6)
        kept = live + 1 if went_exact else len(group)
        histories.extend(history[i, :lengths[i]] for i in range(kept))
        snapshots.extend((p[i], best_enc[i], best_weights[i], best_axes[i]) for i in range(kept))
        if went_exact:
            break
    best_error, best_start, iterations = _replay_in_start_order(histories)
    assert best_start is not None
    atom_probs, encoder, effect_weights, effect_axes = snapshots[best_start]
    return WitnessReport(
        n_messages=n_messages,
        n_atoms=n_atoms,
        n_states=n,
        best_error=best_error,
        iterations=iterations,
        starts=starts,
        seed=seed,
        strategy=FiniteStrategy(
            atom_probs=atom_probs, encoder=encoder, effect_weights=effect_weights, effect_axes=effect_axes
        ),
    )


# ---------------------------------------------------------------------------
# Counting obstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingVerdict:
    consistent: bool
    n_states: int
    n_messages: int
    bound_satisfied: bool          # N <= 2M
    support_mass: tuple[float, ...]   # per grid state, sum_m sum_{x in support} p(x)
    weighted_mass: tuple[float, ...]  # per grid state, sum_m sum_x p(x) q(m|x) e(m,x)
    violations: tuple[dict, ...]


def counting_bound(
    s: FiniteStrategy, targets: TargetFamily, *, exactness_tol: float = EXACTNESS_TOL
) -> CountingVerdict:
    """Structural checks forced on any exact strategy, exposing the N <= 2M bound.

    For each grid state, the shared-randomness mass carried by its active
    (message, atom) pairs must be at least 1/2 (the trace of the forced
    effect), and for a fixed message the active atom sets of different grid
    states must be disjoint, because an active effect is pinned to the state's
    own antipodal projector.  Disjointness plus the mass bound force
    N <= 2M, so any exact strategy on more states is flagged.
    """
    err = strategy_error(s, targets)
    if err >= exactness_tol:
        raise NogoError(
            f"counting checks apply to exact strategies only (error {err:.3e})"
        )
    n, k, m_count = s.encoder.shape
    active = np.empty((n, m_count), dtype=object)
    support_mass = np.zeros(n)
    weighted_mass = np.zeros(n)
    for j in range(n):
        for m in range(m_count):
            atoms = [
                x
                for x in range(k)
                if s.encoder[j, x, m] * s.effect_weights[m, x] > SUPPORT_TOL
            ]
            active[j, m] = atoms
            support_mass[j] += sum(s.atom_probs[x] for x in atoms)
            weighted_mass[j] += sum(
                s.atom_probs[x] * s.encoder[j, x, m] * s.effect_weights[m, x]
                for x in atoms
            )

    violations: list[dict] = []
    for j in range(n):
        if support_mass[j] < 0.5 - MASS_TOL:
            violations.append(
                {
                    "kind": "mass",
                    "state": j,
                    "mass": float(support_mass[j]),
                }
            )
    for m in range(m_count):
        for j in range(n):
            for jj in range(j + 1, n):
                shared = sorted(set(active[j, m]) & set(active[jj, m]))
                for x in shared:
                    # An active effect must match both antipodal projectors,
                    # impossible for distinct grid states.
                    axis = s.effect_axes[m, x]
                    gap_j = float(np.linalg.norm(axis + targets.grid[j]))
                    gap_jj = float(np.linalg.norm(axis + targets.grid[jj]))
                    violations.append(
                        {
                            "kind": "shared_support",
                            "message": m,
                            "atom": int(x),
                            "states": (j, jj),
                            "axis_gap": (gap_j, gap_jj),
                        }
                    )
    bound_ok = n <= 2 * m_count
    consistent = not violations
    return CountingVerdict(
        consistent=consistent,
        n_states=n,
        n_messages=m_count,
        bound_satisfied=bound_ok,
        support_mass=tuple(float(v) for v in support_mass),
        weighted_mass=tuple(float(v) for v in weighted_mass),
        violations=tuple(violations),
    )
