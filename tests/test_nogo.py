import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchansim import nogo, qmath
from qchansim.nogo import (
    CountingVerdict,
    FiniteStrategy,
    NogoError,
    TargetFamily,
    counting_bound,
    effective_effect,
    exact_strategy,
    nested_grid,
    optimize,
    per_state_errors,
    strategy_error,
)


def brute_force_effective(s: FiniteStrategy, j: int) -> np.ndarray:
    """Direct double sum over messages and atoms through full matrices."""
    total = np.zeros((2, 2), dtype=complex)
    for m in range(s.n_messages):
        for x in range(s.n_atoms):
            total += s.atom_probs[x] * s.encoder[j, x, m] * s.effect_matrix(m, x)
    return total


def random_strategy(rng, n, m, k):
    encoder = rng.dirichlet(np.ones(m), size=(n, k))
    axes = rng.normal(size=(m, k, 3))
    axes /= np.linalg.norm(axes, axis=2, keepdims=True)
    probs = rng.dirichlet(np.ones(k))
    return FiniteStrategy(
        atom_probs=probs,
        encoder=encoder,
        effect_weights=rng.uniform(0, 1, size=(m, k)),
        effect_axes=axes,
    )


def chebyshev_radius(points: np.ndarray) -> float:
    """Smallest enclosing ball radius for up to three points (candidate search)."""
    candidates = []
    for a, b in itertools.combinations(range(len(points)), 2):
        candidates.append(0.5 * (points[a] + points[b]))
    if len(points) == 3:
        # Circumcenter of the plane triangle, solved from equal-distance conditions.
        a, b, c = points
        ab, ac = b - a, c - a
        m = np.array([ab, ac, np.cross(ab, ac)])
        rhs = np.array([ab @ (a + b) / 2, ac @ (a + c) / 2, np.cross(ab, ac) @ a])
        try:
            candidates.append(np.linalg.solve(m, rhs))
        except np.linalg.LinAlgError:
            pass
    candidates.extend(points)
    best = math.inf
    for center in candidates:
        r = max(np.linalg.norm(p - center) for p in points)
        best = min(best, r)
    return best


class TestTargetFamily:
    def test_target_effect_is_half_antipodal_projector(self):
        fam = TargetFamily(grid=np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(
            fam.target_effect(0), 0.5 * qmath.bloch_to_density((0, 0, -1)), atol=1e-15
        )

    def test_rejects_duplicate_directions(self):
        with pytest.raises(NogoError):
            TargetFamily(grid=np.array([[0, 0, 1.0], [0, 0, 1.0]]))

    def test_nested_grids_share_prefixes(self):
        small = nested_grid(3)
        large = nested_grid(9)
        np.testing.assert_array_equal(small.grid, large.grid[:3])


class TestEffectiveEffect:
    def test_single_pair_hits_target_exactly(self):
        fam = TargetFamily(grid=np.array([[0.0, 0.0, 1.0]]))
        s = exact_strategy(fam, n_messages=1)
        np.testing.assert_allclose(effective_effect(s, 0), fam.target_effect(0), atol=1e-15)
        assert strategy_error(s, fam) <= 1e-15

    def test_uniform_encoder_with_identical_effects_is_convex_fixed_point(self):
        m, k = 3, 2
        axes = np.tile(np.array([0.0, 1.0, 0.0]), (m, k, 1))
        s = FiniteStrategy(
            atom_probs=np.full(k, 0.5),
            encoder=np.full((2, k, m), 1.0 / m),
            effect_weights=np.full((m, k), 0.7),
            effect_axes=axes,
        )
        expected = 0.7 * qmath.bloch_to_density((0, 1, 0))
        for j in range(2):
            np.testing.assert_allclose(effective_effect(s, j), expected, atol=1e-14)

    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = random_strategy(rng, n=4, m=3, k=3)
            for j in range(4):
                np.testing.assert_allclose(
                    effective_effect(s, j), brute_force_effective(s, j), atol=1e-12
                )

    def test_affine_in_encoder_and_weights(self):
        rng = np.random.default_rng(5)
        s = random_strategy(rng, n=2, m=2, k=2)
        other = random_strategy(rng, n=2, m=2, k=2)
        lam = 0.37
        mixed_encoder = lam * s.encoder + (1 - lam) * other.encoder
        mixed = FiniteStrategy(
            atom_probs=s.atom_probs,
            encoder=mixed_encoder,
            effect_weights=s.effect_weights,
            effect_axes=s.effect_axes,
        )
        expected = lam * effective_effect(s, 0) + (1 - lam) * effective_effect(
            FiniteStrategy(
                atom_probs=s.atom_probs,
                encoder=other.encoder,
                effect_weights=s.effect_weights,
                effect_axes=s.effect_axes,
            ),
            0,
        )
        np.testing.assert_allclose(effective_effect(mixed, 0), expected, atol=1e-8)
        # Linearity in a single effect weight via midpoint probing.
        w0 = np.array(s.effect_weights)
        w1 = np.array(s.effect_weights)
        w1[0, 0] = min(1.0, w1[0, 0] + 0.4)
        mid = np.array(s.effect_weights)
        mid[0, 0] = 0.5 * (w0[0, 0] + w1[0, 0])
        f = lambda w: effective_effect(
            FiniteStrategy(
                atom_probs=s.atom_probs,
                encoder=s.encoder,
                effect_weights=w,
                effect_axes=s.effect_axes,
            ),
            1,
        )
        np.testing.assert_allclose(f(mid), 0.5 * (f(w0) + f(w1)), atol=1e-8)


class TestStrategyError:
    def test_zero_for_exact_construction(self):
        fam = nested_grid(3)
        s = exact_strategy(fam, n_messages=3)
        assert strategy_error(s, fam) <= 1e-12

    def test_all_zero_effects_give_half(self):
        fam = TargetFamily(grid=np.array([[0.0, 0.0, 1.0]]))
        s = FiniteStrategy(
            atom_probs=np.array([1.0]),
            encoder=np.ones((1, 1, 1)),
            effect_weights=np.zeros((1, 1)),
            effect_axes=np.array([[[0.0, 0.0, 1.0]]]),
        )
        assert abs(strategy_error(s, fam) - 0.5) <= 1e-12

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(7)
        fam = nested_grid(4)
        for _ in range(25):
            s = random_strategy(rng, n=4, m=2, k=3)
            oracle = max(
                np.max(np.abs(np.linalg.eigvalsh(effective_effect(s, j) - fam.target_effect(j))))
                for j in range(4)
            )
            assert abs(strategy_error(s, fam) - oracle) <= 1e-10


class TestOptimize:
    def test_exactness_when_grid_fits_alphabet(self):
        fam = nested_grid(4)
        report = optimize(fam, n_messages=4, n_atoms=1, seed=11, budget=16, starts=2)
        assert report.best_error < 1e-9

    def test_single_message_floor_matches_chebyshev_oracle(self):
        # With one message the effective effect cannot depend on the sender
        # state, and the exact infimum is (Chebyshev radius of the grid)/4.
        fam = nested_grid(3)
        radius = chebyshev_radius(fam.grid)
        report = optimize(fam, n_messages=1, n_atoms=4, seed=13, budget=120, starts=4)
        floor = radius / 4.0
        assert report.best_error >= floor - 1e-9
        assert report.best_error <= floor * 1.25 + 1e-6

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 5)])
    def test_positive_floor_beyond_double_alphabet(self, m, n):
        fam = nested_grid(n)
        report = optimize(fam, n_messages=m, n_atoms=4 * m, seed=17, budget=64, starts=4)
        assert report.best_error > 1e-8

    def test_error_nondecreasing_on_nested_grids(self):
        errors = []
        for n in (3, 4, 6):
            fam = nested_grid(n)
            report = optimize(fam, n_messages=1, n_atoms=4, seed=19, budget=80, starts=4)
            errors.append(report.best_error)
        for lo, hi in zip(errors, errors[1:]):
            assert hi >= lo - 1e-6

    def test_error_nonincreasing_in_messages_at_fixed_grid(self):
        fam = nested_grid(9)
        errors = []
        for m in (1, 2, 4):
            report = optimize(fam, n_messages=m, n_atoms=4 * m, seed=37, budget=64, starts=4)
            errors.append(report.best_error)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] > 1e-8

    def test_deterministic_given_seed(self):
        fam = nested_grid(3)
        a = optimize(fam, n_messages=2, n_atoms=2, seed=23, budget=24, starts=2)
        b = optimize(fam, n_messages=2, n_atoms=2, seed=23, budget=24, starts=2)
        assert a.best_error == b.best_error
        np.testing.assert_array_equal(a.strategy.encoder, b.strategy.encoder)


def reference_encoder_step(targets, enc, p, weights, axes):
    """Row-by-row encoder update: one lstsq KKT solve per (state, atom, support).

    Atoms are visited in order for each state, each reading the rows already
    updated for the atoms before it; a later support wins only when its value
    is lower by more than 1e-15.
    """
    n, k, m_count = enc.shape
    g = np.concatenate([0.5 * weights[..., None], 0.5 * weights[..., None] * axes], axis=2)
    tau = np.concatenate([np.full((n, 1), 0.25), -0.25 * targets.grid], axis=1)
    supports = [
        list(sup) for size in range(1, m_count + 1)
        for sup in itertools.combinations(range(m_count), size)
    ]
    for j in range(n):
        for x in range(k):
            others = sum(
                (p[xx] * (enc[j, xx, :, None] * g[:, xx, :]).sum(axis=0) for xx in range(k) if xx != x),
                np.zeros(4),
            )
            target = tau[j] - others
            basis = p[x] * g[:, x, :]
            best_q, best_val = None, None
            for sup in supports:
                s = len(sup)
                kkt = np.zeros((s + 1, s + 1))
                kkt[:s, :s] = 2.0 * basis[sup] @ basis[sup].T
                kkt[:s, s] = kkt[s, :s] = 1.0
                rhs = np.concatenate([2.0 * basis[sup] @ target, [1.0]])
                q = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:s]
                if q.min() < -1e-12:
                    continue
                full = np.zeros(m_count)
                full[sup] = np.clip(q, 0.0, None)
                if full.sum() <= 0.0:
                    continue
                full /= full.sum()
                val = float(np.square(full @ basis - target).sum())
                if best_val is None or val < best_val - 1e-15:
                    best_q, best_val = full, val
            if best_q is not None:
                enc[j, x, :] = best_q


class TestEncoderStep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 4),
        k=st.integers(1, 5),
        n=st.integers(1, 5),
        zero_weights=st.floats(0.0, 0.6),
        repeat_axes=st.booleans(),
    )
    def test_matches_row_by_row_reference(self, seed, m, k, n, zero_weights, repeat_axes):
        rng = np.random.default_rng(seed)
        targets = nested_grid(n)
        s = random_strategy(rng, n=n, m=m, k=k)
        weights = np.where(rng.uniform(size=(m, k)) < zero_weights, 0.0, s.effect_weights)
        axes = np.array(s.effect_axes)
        if repeat_axes:
            # Every message of an atom shares one axis: parallel effect vectors.
            axes[:] = axes[:1]
        batched = np.array(s.encoder)
        reference = np.array(s.encoder)
        nogo._encoder_step(targets, batched, s.atom_probs, weights, axes)
        reference_encoder_step(targets, reference, s.atom_probs, weights, axes)
        np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-10)
        assert batched.min() >= 0.0
        np.testing.assert_allclose(batched.sum(axis=2), 1.0, rtol=0.0, atol=1e-12)


class TestCountingBound:
    def test_exact_construction_is_consistent(self):
        fam = nested_grid(3)
        s = exact_strategy(fam, n_messages=3)
        verdict = counting_bound(s, fam)
        assert verdict.consistent
        assert verdict.bound_satisfied
        # The weighted mass equals the trace of the forced effect exactly.
        np.testing.assert_allclose(verdict.weighted_mass, 0.5, atol=1e-12)
        assert min(verdict.support_mass) >= 0.5 - 1e-6

    def test_rejects_inexact_strategies(self):
        rng = np.random.default_rng(29)
        fam = nested_grid(3)
        s = random_strategy(rng, n=3, m=2, k=2)
        with pytest.raises(NogoError):
            counting_bound(s, fam)

    def test_hand_built_sharing_violation_is_flagged(self):
        # Two distinct grid states route through the same (message, atom) with
        # the same effect; the checker must localize the clash.
        fam = TargetFamily(grid=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        s = FiniteStrategy(
            atom_probs=np.array([1.0]),
            encoder=np.ones((2, 1, 1)),
            effect_weights=np.array([[0.5]]),
            effect_axes=np.array([[[0.0, 0.0, -1.0]]]),
        )
        verdict = counting_bound(s, fam, exactness_tol=math.inf)
        assert not verdict.consistent
        shared = [v for v in verdict.violations if v["kind"] == "shared_support"]
        assert shared and shared[0]["states"] == (0, 1)
        assert shared[0]["message"] == 0 and shared[0]["atom"] == 0
        # The effect matches the first target's forced axis but not the second.
        gap_first, gap_second = shared[0]["axis_gap"]
        assert gap_first <= 1e-12 and gap_second > 1.0

    def test_optimizer_exact_outputs_respect_the_bound(self):
        for n in (2, 4):
            fam = nested_grid(n)
            report = optimize(fam, n_messages=n, n_atoms=1, seed=31, budget=16, starts=2)
            if report.best_error < 1e-9:
                verdict = counting_bound(report.strategy, fam)
                assert verdict.consistent
                assert verdict.n_states <= 2 * verdict.n_messages
