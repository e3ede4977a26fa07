import itertools
import math
import tracemalloc
import warnings

import helpers
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
            effect = s.effect_weights[m, x] * qmath.bloch_to_density(s.effect_axes[m, x])
            total += s.atom_probs[x] * s.encoder[j, x, m] * effect
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

    def test_size_over_the_table_limit_is_rejected_before_allocating(self):
        # K (2^M - 1) M (M + 1) at M = 8: 913 atoms fit under 2^24 entries, 914 do not.
        assert nogo._table_entries(8, 913) <= nogo.MAX_TABLE_ENTRIES < nogo._table_entries(8, 914)
        nogo.check_sizes(8, 913, 3)
        fam = nested_grid(3)
        tracemalloc.start()
        try:
            with pytest.raises(NogoError, match="encoder table"):
                optimize(fam, n_messages=8, n_atoms=914, seed=0, budget=8, starts=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(NogoError, match="encoder table"):
            nogo.check_sizes(10**6, 1, 3)

    def test_states_over_the_grid_limit_are_rejected(self):
        nogo.check_sizes(1, 1, nogo.MAX_STATES)
        with pytest.raises(NogoError, match="states exceed"):
            nogo.check_sizes(1, 1, nogo.MAX_STATES + 1)

    def test_candidate_rows_over_the_limit_are_rejected(self):
        # N (2^M - 1) M at 1,000 states: M = 10 fits under 2^24 entries, M = 11 does not,
        # and M = 15 asks for 491,505,000 entries while its encoder table fits.
        assert nogo._table_entries(15, 1) <= nogo.MAX_TABLE_ENTRIES
        assert nogo._start_entries(15, 1, 1000) == 491_505_000
        nogo.check_sizes(10, 1, nogo.MAX_STATES)
        for m in (11, 15):
            with pytest.raises(NogoError, match="candidate rows"):
                nogo.check_sizes(m, 1, nogo.MAX_STATES)

    @pytest.mark.parametrize("m,k,n", [(1, 8_000_000, 1000), (2, 900_000, 1000)])
    def test_effects_columns_over_the_limit_are_rejected(self, m, k, n):
        # Both encoder tables and candidate rows fit, but N M K is 8e9 and 1.8e9 entries.
        assert nogo._table_entries(m, k) <= nogo.MAX_TABLE_ENTRIES
        assert n * (2**m - 1) * m <= nogo.MAX_TABLE_ENTRIES
        assert nogo._start_entries(m, k, n) == n * m * k
        with pytest.raises(NogoError, match="effects-step columns"):
            nogo.check_sizes(m, k, n)

    def test_effects_columns_at_the_limit_pass(self):
        # N M K at 1,000 states and one message: 16,777 atoms fit under 2^24 entries, 16,778 do not.
        nogo.check_sizes(1, 16_777, nogo.MAX_STATES)
        with pytest.raises(NogoError, match="effects-step columns"):
            nogo.check_sizes(1, 16_778, nogo.MAX_STATES)

    @pytest.mark.parametrize("m,k,n", [(2, 3, 5), (1, 2, 3), (2, 1, 2)])
    def test_start_groups_under_a_small_table_limit_change_nothing(self, monkeypatch, m, k, n):
        fam = nested_grid(n)
        whole = optimize(fam, n_messages=m, n_atoms=k, seed=41, budget=20, starts=5)
        # Two starts per group: groups of 2, 2 and 1.
        monkeypatch.setattr(nogo, "MAX_TABLE_ENTRIES", 2 * nogo._start_entries(m, k, n) + 1)
        grouped = optimize(fam, n_messages=m, n_atoms=k, seed=41, budget=20, starts=5)
        assert grouped.best_error == whole.best_error
        assert grouped.iterations == whole.iterations
        np.testing.assert_array_equal(grouped.strategy.encoder, whole.strategy.encoder)
        np.testing.assert_array_equal(grouped.strategy.effect_axes, whole.strategy.effect_axes)


def reference_effects_step(targets, enc, p, weights, axes, state_weights):
    """One start's effects step, one (m, x) effect at a time with scalar arithmetic."""
    n, k, m_count = enc.shape
    c = p[None, None, :] * np.transpose(enc, (0, 2, 1))
    g = np.concatenate([0.5 * weights[..., None], 0.5 * weights[..., None] * axes], axis=2)
    tau = np.concatenate([np.full((n, 1), 0.25), -0.25 * targets.grid], axis=1)
    z = np.einsum("jmx,mxd->jd", c, g)
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


def reference_optimize(targets, n_messages, n_atoms, seed, budget, starts):
    """One start after another, each building a FiniteStrategy on every improvement."""
    n = len(targets)
    sweeps = max(1, budget // starts)
    seeds = np.random.SeedSequence(seed).spawn(starts)
    best, best_error, iterations = None, math.inf, 0
    for start_index in range(starts):
        rng = np.random.default_rng(seeds[start_index])
        strategy = nogo._initial_strategy(targets, n_messages, n_atoms, start_index, rng)
        enc = np.array(strategy.encoder)
        weights = np.array(strategy.effect_weights)
        axes = np.array(strategy.effect_axes)
        p = np.array(strategy.atom_probs)
        state_weights = np.ones(n)
        for _ in range(sweeps):
            reference_effects_step(targets, enc, p, weights, axes, state_weights)
            nogo._encoder_step(targets, enc[None], p[None], weights[None], axes[None])
            iterations += 1
            errors = nogo._state_errors(targets, p, enc, weights, axes)
            err = float(errors.max())
            if err < best_error:
                best_error = err
                best = FiniteStrategy(atom_probs=p, encoder=enc, effect_weights=weights, effect_axes=axes)
            if best_error < nogo.EXACTNESS_TOL / 10.0:
                break
            state_weights = state_weights * np.exp(errors / max(errors.max(), 1e-15))
            state_weights = np.minimum(state_weights / state_weights.mean(), 1e6)
        if best_error < nogo.EXACTNESS_TOL / 10.0:
            break
    return best_error, iterations, best


class TestEffectsStep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 4),
        k=st.integers(1, 4),
        n=st.integers(1, 6),
        starts=st.integers(1, 4),
        silent=st.floats(0.0, 0.6),
        balanced_pair=st.booleans(),
    )
    def test_matches_row_by_row_reference(self, seed, m, k, n, starts, silent, balanced_pair):
        rng = np.random.default_rng(seed)
        if balanced_pair:
            # One effect against an antipodal pair: with equal state weights the
            # optimum's vector part cancels exactly, so the axis is kept.
            m, k, targets = 1, 1, TargetFamily(grid=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        else:
            targets = nested_grid(n)
        n = len(targets)
        group = [random_strategy(rng, n=n, m=m, k=k) for _ in range(starts)]
        enc = np.stack([s.encoder for s in group])
        # Silent (message, atom) columns carry no weight on any state: the step skips them.
        enc = np.where(rng.uniform(size=(starts, 1, k, m)) < silent, 0.0, enc)
        p = np.stack([s.atom_probs for s in group])
        weights = np.stack([s.effect_weights for s in group])
        axes = np.stack([s.effect_axes for s in group])
        state_weights = rng.uniform(0.5, 2.0, size=(starts, n))
        if balanced_pair:
            state_weights[::2] = 1.0
        stacked_weights, stacked_axes = weights.copy(), axes.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nogo._effects_step(targets, enc, p, stacked_weights, stacked_axes, state_weights)
        for i in range(starts):
            w, a = weights[i].copy(), axes[i].copy()
            reference_effects_step(targets, enc[i], p[i], w, a, state_weights[i])
            np.testing.assert_allclose(stacked_weights[i], w, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(stacked_axes[i], a, rtol=0.0, atol=1e-12)
        if balanced_pair:
            np.testing.assert_array_equal(stacked_axes[::2], axes[::2])


class TestStartOrderReplay:
    def test_a_later_start_going_exact_first_is_not_reached_early(self):
        # Start 1 goes exact at its first sweep; start 0 still runs all its sweeps first.
        histories = [np.array([0.3, 0.2, 0.25]), np.array([1e-12]), np.array([0.1])]
        assert nogo._replay_in_start_order(histories) == (1e-12, 1, 4)

    def test_the_first_exact_start_stops_the_reading(self):
        histories = [np.array([0.3, 5e-11, 1e-12]), np.array([0.0])]
        assert nogo._replay_in_start_order(histories) == (5e-11, 0, 2)

    def test_only_a_strictly_lower_error_wins(self):
        histories = [np.array([0.4, 0.2, 0.2]), np.array([0.2, 0.3]), np.array([0.5, 0.2])]
        assert nogo._replay_in_start_order(histories) == (0.2, 0, 7)

    def test_budget_below_starts_runs_one_sweep_per_start(self):
        fam = nested_grid(5)
        report = optimize(fam, n_messages=2, n_atoms=2, seed=3, budget=3, starts=5)
        assert report.iterations == 5
        histories = [np.array([0.5]), np.array([0.4]), np.array([0.45]), np.array([0.4]), np.array([0.6])]
        assert nogo._replay_in_start_order(histories) == (0.4, 1, 5)

    def test_no_comparable_error_leaves_no_start(self):
        assert nogo._replay_in_start_order([np.array([np.nan])]) == (math.inf, None, 1)


class TestStackedOptimize:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        k=st.integers(1, 4),
        n=st.integers(1, 6),
        starts=st.integers(1, 4),
        budget=st.integers(1, 24),
    )
    def test_matches_one_start_after_another(self, seed, m, k, n, starts, budget):
        fam = nested_grid(n)
        report = optimize(fam, n_messages=m, n_atoms=k, seed=seed, budget=budget, starts=starts)
        best_error, iterations, best = reference_optimize(fam, m, k, seed, budget, starts)
        assert abs(report.best_error - best_error) <= 1e-12
        assert report.iterations == iterations
        np.testing.assert_allclose(report.strategy.encoder, best.encoder, rtol=0.0, atol=1e-9)

    def test_a_later_start_going_exact_ends_the_run_where_one_at_a_time_would(self, monkeypatch):
        # Start 2 of 4 begins at the exact construction; the others are random.
        def third_is_exact(targets, n_messages, n_atoms, start_index, rng):
            if start_index == 2:
                return nogo._pad_strategy_atoms(exact_strategy(targets, n_messages), n_atoms)
            return nogo._random_strategy(rng, len(targets), n_messages, n_atoms)

        monkeypatch.setattr(nogo, "_initial_strategy", third_is_exact)
        fam = nested_grid(4)
        report = optimize(fam, n_messages=4, n_atoms=2, seed=7, budget=24, starts=4)
        best_error, iterations, best = reference_optimize(fam, 4, 2, 7, 24, 4)
        assert report.best_error == best_error < 1e-10
        assert report.iterations == iterations == 2 * 6 + 1
        np.testing.assert_array_equal(report.strategy.encoder, best.encoder)


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
        nogo._encoder_step(targets, batched[None], s.atom_probs[None], weights[None], axes[None])
        reference_encoder_step(targets, reference, s.atom_probs, weights, axes)
        np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-10)
        assert batched.min() >= 0.0
        np.testing.assert_allclose(batched.sum(axis=2), 1.0, rtol=0.0, atol=1e-12)


def assert_same_bits(ours, oracle):
    np.testing.assert_array_equal(ours, oracle)
    assert ours.tobytes() == oracle.tobytes()  # signed zeros too


def stacked_step_inputs(rng, m, k, n, starts, zero_weights, repeat_axes, silent, one_hot):
    """Stacked step inputs with zero-weight effects, shared axes, silent or faint columns and one-hot rows."""
    targets = nested_grid(n)
    group = [random_strategy(rng, n=n, m=m, k=k) for _ in range(starts)]
    enc = np.stack([s.encoder for s in group])
    if one_hot:
        # Deterministic rows, as the exact and clustered starts begin: full of exact ties.
        enc = np.eye(m)[rng.integers(0, m, size=(starts, n, k))]
    # Silent (message, atom) columns, drawn per start, leave an effect live in some starts only;
    # a faint column is dead too (denominator below 1e-18) but still moves the sums if written.
    draw = rng.uniform(size=(starts, 1, k, m))
    enc = np.where(draw < silent, 0.0, np.where(draw < 1.5 * silent, 1e-10 * enc, enc))
    p = np.stack([s.atom_probs for s in group])
    weights = np.stack([s.effect_weights for s in group])
    weights = np.where(rng.uniform(size=weights.shape) < zero_weights, 0.0, weights)
    axes = np.stack([s.effect_axes for s in group])
    if repeat_axes:
        axes[:] = axes[:, :1]
    state_weights = rng.uniform(0.5, 2.0, size=(starts, n))
    return targets, enc, p, weights, axes, state_weights


_STEP_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    k=st.integers(1, 4),
    # 8 and more states put the grid sums past numpy's unrolled pairwise block.
    n=st.sampled_from([1, 2, 3, 5, 8, 9, 17]),
    starts=st.integers(1, 4),
    zero_weights=st.floats(0.0, 0.6),
    repeat_axes=st.booleans(),
    silent=st.floats(0.0, 0.5),
    one_hot=st.booleans(),
)


class TestStepsMatchFrozenOracles:
    """Both steps equal the oracle steps kept in ``helpers``, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(**_STEP_CASES)
    def test_effects_step(self, seed, m, k, n, starts, zero_weights, repeat_axes, silent, one_hot):
        rng = np.random.default_rng(seed)
        targets, enc, p, weights, axes, state_weights = stacked_step_inputs(
            rng, m, k, n, starts, zero_weights, repeat_axes, silent, one_hot
        )
        ours_w, ours_a = weights.copy(), axes.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nogo._effects_step(targets, enc, p, ours_w, ours_a, state_weights)
        helpers.nogo_effects_step_oracle(targets, enc, p, weights, axes, state_weights)
        assert_same_bits(ours_w, weights)
        assert_same_bits(ours_a, axes)

    @settings(max_examples=80, deadline=None)
    @given(**_STEP_CASES)
    def test_encoder_step(self, seed, m, k, n, starts, zero_weights, repeat_axes, silent, one_hot):
        rng = np.random.default_rng(seed)
        targets, enc, p, weights, axes, _ = stacked_step_inputs(
            rng, m, k, n, starts, zero_weights, repeat_axes, silent, one_hot
        )
        ours = enc.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nogo._encoder_step(targets, ours, p, weights, axes)
        helpers.nogo_encoder_step_oracle(targets, enc, p, weights, axes)
        assert_same_bits(ours, enc)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), k=st.integers(1, 3),
           n=st.sampled_from([2, 5, 9]), starts=st.integers(1, 3))
    def test_sweeps_from_a_start_stay_equal(self, seed, m, k, n, starts):
        """Several alternating sweeps, each step fed what the other wrote, as ``optimize`` runs them."""
        rng = np.random.default_rng(seed)
        targets, enc, p, weights, axes, state_weights = stacked_step_inputs(
            rng, m, k, n, starts, 0.2, False, 0.2, False
        )
        ours = [a.copy() for a in (enc, weights, axes)]
        for _ in range(4):
            nogo._effects_step(targets, ours[0], p, ours[1], ours[2], state_weights)
            nogo._encoder_step(targets, ours[0], p, ours[1], ours[2])
            helpers.nogo_effects_step_oracle(targets, enc, p, weights, axes, state_weights)
            helpers.nogo_encoder_step_oracle(targets, enc, p, weights, axes)
        for mine, oracle in zip(ours, (enc, weights, axes)):
            assert_same_bits(mine, oracle)


def planted_scan_values(rng, rows, candidates):
    """Candidate values with exact ties, near-ties 0.3e-15 to 3e-15 apart, infinities and NaN."""
    # Magnitudes from 1e-3 to 3, so that steps of 1e-15 are resolved at some and not at others.
    vals = rng.uniform(0.0, 1.0, size=(rows, candidates)) * 10.0 ** rng.uniform(-3.0, 0.5, size=(rows, 1))
    for row in vals:
        kind = rng.integers(0, 6)
        picks = rng.random(candidates) < 0.5
        if kind == 1:    # exact ties at the row's minimum
            row[picks] = row.min()
        elif kind == 2:  # a ladder of near-ties around one value
            row[picks] = row[0] + rng.integers(-3, 4, size=picks.sum()) * rng.uniform(0.3e-15, 3e-15)
        elif kind == 3:  # infeasible candidates
            row[picks] = np.inf
        elif kind == 4:  # nothing feasible: the row keeps its old value
            row[:] = np.inf
        elif kind == 5:
            row[picks] = np.nan
    return vals


class TestRecordScan:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), candidates=st.integers(1, 33),
           lead=st.sampled_from([(), (2,), (3, 1)]))
    def test_matches_the_sequential_loop(self, seed, rows, candidates, lead):
        vals = planted_scan_values(np.random.default_rng(seed), math.prod(lead) * rows, candidates)
        vals = vals.reshape(*lead, rows, candidates)
        np.testing.assert_array_equal(nogo._record_scan(vals.copy()), helpers.sequential_record_scan(vals))

    @pytest.mark.parametrize(
        "row, winner",
        [
            ([1.0, 1.0, 2.0], 0),                        # an exact tie keeps the first
            ([1.0 + 0.5e-15, 1.0, 2.0], 0),              # lower by less than 1e-15: kept
            ([1.0 + 2.5e-15, 1.0, 2.0], 1),              # lower by more than 1e-15: replaced
            ([1.0 + 2.5e-15, 1.0 + 0.5e-15, 1.0], 1),    # a record, then one too close to it
            ([np.inf, 0.5, np.inf], 1),
            ([np.inf, np.inf, np.inf], -1),              # no feasible candidate
            ([np.nan, np.nan], -1),
            ([np.nan, 0.25, 0.5], 1),                    # NaN never wins
            ([3.0, 2.0, 1.0], 2),
        ],
    )
    def test_hand_made_rows(self, row, winner):
        vals = np.array([row])
        assert helpers.sequential_record_scan(vals)[0] == winner
        assert nogo._record_scan(vals)[0] == winner


class TestOneMessageRows:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), k=st.integers(1, 4),
           n=st.integers(1, 6), zero_weights=st.floats(0.0, 1.0), scale=st.sampled_from([1.0, 1e-8, 0.0]))
    def test_the_support_solve_gives_e_m(self, seed, m, k, n, zero_weights, scale):
        """The stacked solve of each one-message support, as the oracle step runs it, is exactly e_m.

        That is why ``nogo._encoder_step`` writes those candidate rows as e_m without a solve:
        the KKT matrix [[2|b|^2, 1], [1, 0]] gives q_m = 1 +- 1e-15 and q_m / q_m = 1, also
        for an effect of zero weight (b = 0) and for a vanishing atom probability.
        """
        rng = np.random.default_rng(seed)
        weights = np.where(rng.uniform(size=(1, m, k)) < zero_weights, 0.0, rng.uniform(0, 1, (1, m, k)))
        axes = rng.normal(size=(1, m, k, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        p = scale * rng.dirichlet(np.ones(k), size=1)
        basis = p[:, :, None, None] * np.swapaxes(nogo._effect_vectors(weights, axes), 1, 2)
        sups = np.arange(m)[:, None]
        b = basis[:, :, sups]
        kkt = np.ones((1, k, m, 2, 2))
        kkt[..., :1, :1] = 2.0 * b @ b.swapaxes(-1, -2)
        kkt[..., 1, 1] = 0.0
        inv = np.linalg.pinv(kkt, rtol=np.finfo(float).eps * 2)
        solve = np.zeros((1, k, m, m, m + 1))
        cols = np.concatenate([sups, np.full((m, 1), m)], axis=1)
        solve[:, :, np.arange(m)[:, None, None], sups[:, :, None], cols[:, None, :]] = inv[..., :1, :]
        # Targets as the step forms them: a forced effect less the other atoms' parts.
        target = nogo._target_vectors(nested_grid(n))[None] - rng.uniform(-0.5, 0.5, size=(1, n, 4))
        rhs = np.ones((1, n, m + 1))
        for x in range(k):
            rhs[..., :m] = 2.0 * target @ basis[:, x].swapaxes(-1, -2)
            q = np.einsum("scmi,sji->sjcm", solve[:, x], rhs)
            full = np.maximum(q, 0.0)
            total = full.sum(axis=3)
            assert (q.min(axis=3) >= -1e-12).all() and (total > 0.0).all()
            full /= total[..., None]
            assert_same_bits(full, np.broadcast_to(np.eye(m), full.shape))


def ten_lloyd_iterations(targets, m, rng):
    """Cluster centers and assignment after all ten Lloyd iterations of the clustered seed."""
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
    return centers, np.argmax(targets.grid @ centers.T, axis=1)


class TestClusteredStrategy:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 40))
    def test_stopping_at_a_repeated_assignment_changes_nothing(self, seed, m, n):
        targets = nested_grid(n)
        s = nogo._clustered_strategy(targets, m, 1, np.random.default_rng(seed))
        centers, assign = ten_lloyd_iterations(targets, m, np.random.default_rng(seed))
        assert_same_bits(s.effect_axes, -centers[:, None, :])
        assert_same_bits(s.encoder[:, 0, :], np.eye(m)[assign])


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
