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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qmath

EXACTNESS_TOL = 1e-9
SUPPORT_TOL = 1e-10
MASS_TOL = 1e-6


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

    def effect_matrix(self, m: int, x: int) -> np.ndarray:
        return self.effect_weights[m, x] * qmath.bloch_to_density(self.effect_axes[m, x])


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
    """Scalar and vector parts (t_j, v_j) of every effective effect t I + v.sigma."""
    # c[j, m, x] = p(x) * encoder[j, x, m] * weight[m, x]
    c = p[None, None, :] * np.transpose(enc, (0, 2, 1)) * weights[None, :, :]
    t = 0.5 * c.sum(axis=(1, 2))
    v = 0.5 * np.einsum("jmx,mxd->jd", c, axes)
    return t, v


def _state_errors(
    targets: TargetFamily, p: np.ndarray, enc: np.ndarray, weights: np.ndarray, axes: np.ndarray
) -> np.ndarray:
    t, v = _effective_bloch(p, enc, weights, axes)
    return np.abs(t - 0.25) + np.linalg.norm(v + 0.25 * targets.grid, axis=1)


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
    for _ in range(10):
        assign = np.argmax(targets.grid @ centers.T, axis=1)
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
    return np.concatenate([0.5 * weights[..., None], 0.5 * weights[..., None] * axes], axis=2)


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
    """
    n, k, m_count = enc.shape
    c = p[None, None, :] * np.transpose(enc, (0, 2, 1))  # (N, M, K)
    g = _effect_vectors(weights, axes)                   # (M, K, 4)
    tau = _target_vectors(targets)                       # (N, 4)
    z = np.einsum("jmx,mxd->jd", c, g)                   # effective 4-vectors
    for m in range(m_count):
        for x in range(k):
            cj = c[:, m, x]
            denom = float((state_weights * cj * cj).sum())
            if denom <= 1e-18:
                continue
            rest = z - np.outer(cj, g[m, x])
            g_star = ((state_weights * cj)[:, None] * (tau - rest)).sum(axis=0) / denom
            norm_u = float(np.linalg.norm(g_star[1:]))
            a_new = min(0.5, max(0.0, 0.5 * (g_star[0] + norm_u)))
            axis_new = g_star[1:] / norm_u if norm_u > 1e-15 else axes[m, x]
            g[m, x, 0] = a_new
            g[m, x, 1:] = a_new * axis_new
            weights[m, x] = 2.0 * a_new
            axes[m, x] = axis_new
            z = rest + np.outer(cj, g[m, x])


def _encoder_step(
    targets: TargetFamily, enc: np.ndarray, p: np.ndarray,
    weights: np.ndarray, axes: np.ndarray,
) -> None:
    """Exact simplex-constrained quadratic minimization of each encoder row.

    For fixed effects the objective restricted to one (j, x) row is a convex
    quadratic over the simplex; with few messages the optimum is found by
    enumerating supports and solving the equality-constrained normal
    equations, keeping the best feasible candidate (in support order, a later
    candidate wins only when it is lower by more than 1e-15).

    The KKT matrix of an (atom, support) pair depends only on the effects, so
    all of them are inverted once per step with one stacked pseudo-inverse per
    support size; its cut-off eps * (s + 1) is that of ``lstsq(rcond=None)``,
    so singular systems from zero-weight effects get the same minimum-norm
    solution.  Rows of different grid states never read each other and are
    solved together, for every support at once.  Atoms stay sequential
    (Gauss-Seidel): the row for atom x is fitted against the rows already
    updated for the atoms before it, which batching across atoms would change.
    """
    n, k, m_count = enc.shape
    basis = p[:, None, None] * _effect_vectors(weights, axes).transpose(1, 0, 2)  # (K, M, 4)
    tau = _target_vectors(targets)
    # solve[x, c] maps the full right-hand side (2 basis[x] @ target, 1) to the
    # candidate row of support c, zero off the support.
    # Candidates are the non-empty supports, by size, each size in combinations order.
    solve = np.zeros((k, 2**m_count - 1, m_count, m_count + 1))
    first = 0
    for size in range(1, m_count + 1):
        sups = np.array(list(itertools.combinations(range(m_count), size)))  # (S, size)
        cand = first + np.arange(len(sups))
        first += len(sups)
        b = basis[:, sups]  # (K, S, size, 4)
        kkt = np.ones((k, len(sups), size + 1, size + 1))
        kkt[..., :size, :size] = 2.0 * b @ b.swapaxes(-1, -2)
        kkt[..., size, size] = 0.0
        inv = np.linalg.pinv(kkt, rtol=np.finfo(float).eps * (size + 1))
        cols = np.concatenate([sups, np.full((len(sups), 1), m_count)], axis=1)
        solve[:, cand[:, None, None], sups[:, :, None], cols[:, None, :]] = inv[..., :size, :]
    contrib = np.einsum("jxm,xmd->jxd", enc, basis)  # (N, K, 4) per-atom effective parts
    rhs = np.ones((n, m_count + 1))
    for x in range(k):
        target = tau - contrib[:, np.arange(k) != x].sum(axis=1)  # (N, 4)
        rhs[:, :m_count] = 2.0 * target @ basis[x].T
        q = np.einsum("cmi,ji->jcm", solve[x], rhs)  # (N, candidates, M)
        full = np.clip(q, 0.0, None)
        total = full.sum(axis=2)
        feasible = (q.min(axis=2) >= -1e-12) & (total > 0.0)
        full /= np.where(feasible, total, 1.0)[..., None]
        vals = np.square(full @ basis[x] - target[:, None, :]).sum(axis=2)
        vals[~feasible] = np.inf
        best_val, choice = np.full(n, np.inf), np.full(n, -1)
        for c in range(solve.shape[1]):
            take = vals[:, c] < best_val - 1e-15
            best_val, choice = np.where(take, vals[:, c], best_val), np.where(take, c, choice)
        won = np.flatnonzero(choice >= 0)
        enc[won, x] = full[won, choice[won]]
        contrib[:, x] = enc[:, x] @ basis[x]


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
    budget // starts sweeps.  When the grid fits in the message alphabet the
    first start is seeded with the exact construction, so exactness is found
    immediately.  The report carries the best error found; no claim of global
    optimality is made.
    """
    if n_messages < 1 or n_atoms < 1 or len(targets) < 1:
        raise NogoError("messages, atoms and states must all be at least 1")
    n = len(targets)
    sweeps = max(1, budget // starts)
    seeds = np.random.SeedSequence(seed).spawn(starts)
    best: FiniteStrategy | None = None
    best_error = math.inf
    iterations = 0
    for start_index in range(starts):
        rng = np.random.default_rng(seeds[start_index])
        if start_index == 0 and n <= n_messages:
            strategy = _pad_strategy_atoms(exact_strategy(targets, n_messages), n_atoms)
        elif start_index == 0 or (start_index == 1 and n > n_messages):
            strategy = _clustered_strategy(targets, n_messages, n_atoms, rng)
        else:
            strategy = _random_strategy(rng, n, n_messages, n_atoms)
        enc = np.array(strategy.encoder)
        weights = np.array(strategy.effect_weights)
        axes = np.array(strategy.effect_axes)
        p = np.array(strategy.atom_probs)
        state_weights = np.ones(n)
        for sweep in range(sweeps):
            _effects_step(targets, enc, p, weights, axes, state_weights)
            _encoder_step(targets, enc, p, weights, axes)
            iterations += 1
            errors = _state_errors(targets, p, enc, weights, axes)
            err = float(errors.max())
            if err < best_error:
                best_error = err
                # The copy made by FiniteStrategy keeps the best apart from
                # the working arrays that later sweeps overwrite.
                best = FiniteStrategy(
                    atom_probs=p, encoder=enc, effect_weights=weights, effect_axes=axes
                )
            if best_error < EXACTNESS_TOL / 10.0:
                break
            # Multiplicative re-weighting concentrates the least-squares steps
            # on the worst grid states, approximating the minimax solution.
            state_weights = state_weights * np.exp(errors / max(errors.max(), 1e-15))
            state_weights = np.minimum(state_weights / state_weights.mean(), 1e6)
        if best_error < EXACTNESS_TOL / 10.0:
            break
    assert best is not None
    return WitnessReport(
        n_messages=n_messages,
        n_atoms=n_atoms,
        n_states=n,
        best_error=float(best_error),
        iterations=iterations,
        starts=starts,
        seed=seed,
        strategy=best,
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
