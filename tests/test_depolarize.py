import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchansim import depolarize as dp
from qchansim import qmath
from qchansim.depolarize import (
    Codebook,
    DepolarizeError,
    alice_index,
    codebook,
    estimate_eta,
    eta_cap,
    fibonacci_sphere,
    sample_rotations,
    simulate_average_state,
)


# Operational expectations of the argmax protocol, from independent oracles:
# the cube value is exact (E[(|x|+|y|+|z|)]/sqrt(3) = sqrt(3)/2 on the unit
# sphere); the tetrahedron value is frozen from a 2e7-point deterministic
# equal-area grid quadrature, corroborated by the rotation sampler.
TETRA_ETA_ORACLE = 0.7448573
CUBE_ETA_ORACLE = math.sqrt(3.0) / 2.0


class TestCodebooks:
    def test_antipodal(self):
        c = codebook("antipodal")
        np.testing.assert_allclose(c.vectors, [[0, 0, 1], [0, 0, -1]], atol=0)
        assert c.bits == 1

    def test_tetrahedron_pairwise_dots(self):
        c = codebook("tetrahedron")
        gram = c.vectors @ c.vectors.T
        off_diag = gram[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off_diag, -1.0 / 3.0, atol=1e-15)

    def test_cube(self):
        c = codebook("cube")
        assert len(c) == 8
        np.testing.assert_allclose(np.abs(c.vectors), 1.0 / math.sqrt(3.0), atol=1e-15)

    def test_generic_bit_counts(self):
        for m in range(1, 8):
            c = codebook(m)
            assert len(c) == 2**m
            assert c.bits == m
            np.testing.assert_allclose(np.linalg.norm(c.vectors, axis=1), 1.0, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(DepolarizeError):
            codebook("octahedron")

    @pytest.mark.parametrize("m", [0, dp.MAX_BITS + 1, 10**6])
    def test_bit_count_outside_the_cap_is_refused_before_any_point(self, m):
        with pytest.raises(DepolarizeError, match=f"between 1 and {dp.MAX_BITS}"):
            codebook(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vectors(self, bad):
        # NaN fails every comparison, so the norm and distinctness checks alone pass it.
        with pytest.raises(DepolarizeError, match="finite"):
            Codebook(np.array([[bad, 0.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_rejects_duplicates(self):
        with pytest.raises(DepolarizeError):
            Codebook(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))

    def test_rejects_duplicates_across_row_blocks(self):
        # 2049 vectors check in row blocks of 511: the copy of row 0 sits in the last block.
        v = fibonacci_sphere(2048)
        with pytest.raises(DepolarizeError, match="pairwise distinct"):
            Codebook(np.vstack([v, v[:1]]))

    def test_distinctness_check_peak_memory_at_4096_vectors(self):
        # The full 4096 x 4096 Gram matrix peaks at about 134 MB; row blocks near 9 MB.
        tracemalloc.start()
        try:
            codebook(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_fibonacci_is_deterministic(self):
        np.testing.assert_array_equal(fibonacci_sphere(16), fibonacci_sphere(16))


class TestRotationSampling:
    def test_columns_orthonormal(self):
        rng = np.random.default_rng(1)
        for r in sample_rotations(rng, 200):
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) > 0

    def test_isotropy_of_rotated_pole(self):
        rng = np.random.default_rng(3)
        rotations = sample_rotations(rng, 10**5)
        mean = rotations[:, :, 2].mean(axis=0)
        assert np.max(np.abs(mean)) < 0.01

    def test_polar_angle_is_uniform(self):
        # For a uniform rotation, z . R z is uniform on [-1, 1]; compare the
        # empirical distribution function on a grid (Kolmogorov-Smirnov).
        rng = np.random.default_rng(5)
        rotations = sample_rotations(rng, 10**5)
        cosines = np.sort(rotations[:, 2, 2])
        grid = np.linspace(-1.0, 1.0, 201)
        empirical = np.searchsorted(cosines, grid) / cosines.size
        uniform_cdf = (grid + 1.0) / 2.0
        assert np.max(np.abs(empirical - uniform_cdf)) < 0.01


class TestAliceIndex:
    def test_identity_rotation_picks_matching_pole(self):
        c = codebook("antipodal")
        assert alice_index((0, 0, 1), np.eye(3), c) == 0
        assert alice_index((0, 0, -1), np.eye(3), c) == 1

    def test_tie_breaks_to_lowest_index(self):
        c = codebook("antipodal")
        assert alice_index((1, 0, 0), np.eye(3), c) == 0

    def test_matches_projector_overlap_oracle(self):
        # Brute force through density matrices: the index maximizing
        # tr[(R P_w R^dag) P_psi] must coincide.
        rng = np.random.default_rng(7)
        c = codebook("tetrahedron")
        for _ in range(1000):
            psi_hat = qmath.random_bloch(rng)
            rot = sample_rotations(rng, 1)[0]
            overlaps = [
                np.trace(
                    qmath.bloch_to_density(rot @ w) @ qmath.bloch_to_density(psi_hat)
                ).real
                for w in c.vectors
            ]
            assert alice_index(psi_hat, rot, c) == int(np.argmax(overlaps))

    def test_rejects_non_unit_state(self):
        with pytest.raises(qmath.InvalidBlochVectorError):
            alice_index((0.2, 0, 0), np.eye(3), codebook("cube"))

    @pytest.mark.parametrize("psi_hat", [(np.nan, 0, 0), (np.nan, np.nan, np.nan), (np.inf, 0, 0)])
    def test_rejects_non_finite_state(self, psi_hat):
        # NaN fails the unit-length comparison too, so only a finiteness check rejects it.
        with pytest.raises(qmath.InvalidBlochVectorError):
            alice_index(psi_hat, np.eye(3), codebook("cube"))

    @pytest.mark.parametrize(
        "rotation",
        [
            np.full((3, 3), np.nan),
            np.diag([1.0, 1.0, np.inf]),
            5 * np.eye(3),
            np.diag([1.0, 1.0, -1.0]),  # orthogonal but a reflection
            np.eye(3) + 1e-6,
            np.eye(2),
        ],
    )
    def test_rejects_a_matrix_that_is_not_a_finite_rotation(self, rotation):
        with pytest.raises(DepolarizeError):
            alice_index((0, 0, 1), rotation, codebook("cube"))

    def test_accepts_rotations_within_rounding(self):
        rotation = sample_rotations(np.random.default_rng(5), 1)[0]
        assert 0 <= alice_index((0, 0, 1), rotation, codebook("cube")) < 8


class TestAverageState:
    def test_antipodal_shrinks_to_half(self):
        rho = simulate_average_state(
            qmath.bloch_to_density((0, 0, 1)), codebook("antipodal"), 10**6, seed=11
        )
        bloch = qmath.density_to_bloch(rho)
        assert abs(bloch[2] - 0.5) < 0.005
        assert np.linalg.norm(bloch[:2]) < 0.005

    def test_tetrahedron_value(self):
        # Frozen from a 2e7-point deterministic equal-area quadrature of
        # E[max_i u . v_i] over the tetrahedron codebook.
        rho = simulate_average_state(
            qmath.bloch_to_density((0, 0, 1)), codebook("tetrahedron"), 10**6, seed=13
        )
        assert abs(qmath.density_to_bloch(rho)[2] - TETRA_ETA_ORACLE) < 0.005

    def test_cube_value(self):
        # Closed-form oracle: max_i u . v_i over the cube vertices equals
        # (|x| + |y| + |z|)/sqrt(3), whose spherical average is sqrt(3)/2.
        rho = simulate_average_state(
            qmath.bloch_to_density((0, 0, 1)), codebook("cube"), 10**6, seed=17
        )
        assert abs(qmath.density_to_bloch(rho)[2] - CUBE_ETA_ORACLE) < 0.005

    def test_average_aligns_with_input_direction(self):
        rng = np.random.default_rng(19)
        psi_hat = qmath.random_bloch(rng)
        rho = simulate_average_state(
            qmath.bloch_to_density(psi_hat), codebook("cube"), 2 * 10**5, seed=23
        )
        bloch = qmath.density_to_bloch(rho)
        cross = np.linalg.norm(np.cross(bloch, psi_hat))
        assert cross < 5.0 / math.sqrt(2 * 10**5)

    def test_rejects_mixed_input(self):
        with pytest.raises(DepolarizeError):
            simulate_average_state(qmath.I2 / 2, codebook("cube"), 10, seed=1)

    @pytest.mark.parametrize("n, batch", [(0, 100), (10, 0), (10, -5)])
    def test_rejects_sample_count_or_batch_below_one(self, n, batch):
        psi = qmath.bloch_to_density((0, 0, 1))
        with pytest.raises(DepolarizeError):
            simulate_average_state(psi, codebook("cube"), n, seed=1, batch=batch)

    # At m = 8 a block is 1,365 rows, so each batch is several whole blocks and a short one.
    @pytest.mark.parametrize("m, seed", [(1, 3), (3, 4), (6, 5), (8, 6)])
    def test_row_chunks_match_the_whole_batch_average(self, m, seed):
        psi_hat = qmath.random_bloch(np.random.default_rng(seed))
        c, n, batch = codebook(m), 10_000, 6_000
        total = np.zeros(3)
        for rng, size in zip(dp._batch_seeds(seed, 2), (batch, n - batch)):
            rotated = np.einsum("nij,kj->nki", sample_rotations(rng, size), c.vectors)
            winners = np.argmax(rotated @ psi_hat, axis=1)
            total += rotated[np.arange(size), winners].sum(axis=0)
        rho = simulate_average_state(qmath.bloch_to_density(psi_hat), c, n, seed, batch=batch)
        np.testing.assert_array_equal(rho, qmath.bloch_to_density(total / n))

    def test_peak_memory_stays_bounded_at_256_codewords(self):
        # Scoring the whole 20,000-row batch at once peaks at about 166 MB; row chunks near 52 MB.
        tracemalloc.start()
        try:
            simulate_average_state(qmath.bloch_to_density((0, 0, 1)), codebook(8), 20_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6

    @pytest.mark.parametrize("cpus", [8, 64])
    def test_peak_memory_does_not_grow_with_the_cpu_count(self, monkeypatch, cpus):
        # The averager rotates one block at a time on the caller's thread: a
        # worker per CPU would hold a block each (74.6 MB at 8 workers, 12.5 MB on one).
        report_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            simulate_average_state(qmath.bloch_to_density((0, 0, 1)), codebook(8), 20_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestEstimateEta:
    def test_antipodal_half(self):
        eta, se = estimate_eta(codebook("antipodal"), 10**6, seed=29)
        assert abs(eta - 0.5) <= 3.0 * se
        assert se < 0.001

    @pytest.mark.parametrize("n, batch", [(0, 100), (10, 0), (10, -5)])
    def test_rejects_sample_count_or_batch_below_one(self, n, batch):
        with pytest.raises(DepolarizeError):
            estimate_eta(codebook("cube"), n, 0, batch=batch)

    def test_single_vector_codebook_averages_to_zero(self):
        eta, se = estimate_eta(Codebook(np.array([[0.0, 0.0, 1.0]])), 10**5, seed=31)
        assert abs(eta) <= 3.0 * se

    def test_operational_values(self):
        expected = {1: 0.5, 2: TETRA_ETA_ORACLE, 3: CUBE_ETA_ORACLE}
        for m, name in dp.REFERENCE_CODEBOOKS.items():
            eta, se = estimate_eta(codebook(name), 10**6, seed=100 + m)
            assert abs(eta - expected[m]) <= 4.0 * se

    def test_reference_values_are_cap_model_at_packing_angle(self):
        # The quoted reference numbers coincide exactly with the cap model at
        # half the minimum pairwise angle of each codebook.
        for m, name in dp.REFERENCE_CODEBOOKS.items():
            assert abs(dp.packing_cap_eta(codebook(name)) - dp.ETA_REFERENCE[m]) <= 1e-12

    def test_union_bound_ceiling(self):
        # P(max_i u.v_i > t) <= min(1, n(1-t)/2) integrates to a hard ceiling
        # of 1 - 1/n on E[max] for ANY n-vector codebook: 0.75 for n=4 and
        # 0.875 for n=8.  Both quoted reference values exceed their ceiling,
        # while every sampled codebook respects it.
        assert dp.ETA_REFERENCE[2] > 0.75
        assert dp.ETA_REFERENCE[3] > 0.875
        rng = np.random.default_rng(71)
        for n, ceiling in [(4, 0.75), (8, 0.875)]:
            for _ in range(5):
                v = rng.normal(size=(n, 3))
                v /= np.linalg.norm(v, axis=1, keepdims=True)
                eta, se = estimate_eta(Codebook(v), 10**5, seed=int(rng.integers(2**32)))
                assert eta <= ceiling + 4.0 * se

    def test_reference_discrepancy_reporting(self):
        # For the antipodal codebook the cap model is exact; for the larger
        # codebooks the argmax selection is not cap-uniform and the sampled
        # value sits a stable ~0.04 below the reference, far beyond 4 s.e.
        close = dp.reference_discrepancy(1, 10**5, seed=301)
        assert close["sigma_from_reference"] <= 4.0
        for m in (2, 3):
            report = dp.reference_discrepancy(m, 10**5, seed=300 + m)
            assert report["eta"] < report["reference_eta"] - 0.03
            assert report["sigma_from_reference"] > 4.0

    def test_direction_independence(self):
        # eta is defined through the z direction; check against a direct
        # estimate along random directions using the same protocol.
        rng = np.random.default_rng(37)
        c = codebook("tetrahedron")
        eta_z, se_z = estimate_eta(c, 4 * 10**5, seed=41)
        for _ in range(5):
            psi_hat = qmath.random_bloch(rng)
            rho = simulate_average_state(
                qmath.bloch_to_density(psi_hat), c, 4 * 10**5, seed=43
            )
            eta_dir = float(qmath.density_to_bloch(rho) @ psi_hat)
            assert abs(eta_dir - eta_z) < 4.0 * (se_z + 1.0 / math.sqrt(4 * 10**5))

    def test_monotone_in_codebook_size(self):
        estimates = []
        for m in range(1, 8):
            eta, se = estimate_eta(codebook(m), 2 * 10**5, seed=200 + m)
            estimates.append((eta, se))
        for (lo, se_lo), (hi, se_hi) in zip(estimates, estimates[1:]):
            assert hi >= lo - 3.0 * (se_lo + se_hi)

    def test_big_codebook_beats_cube(self):
        eta_cube, se_cube = estimate_eta(codebook("cube"), 4 * 10**5, seed=47)
        eta_64, se_64 = estimate_eta(codebook(6), 4 * 10**5, seed=53)
        assert eta_64 > eta_cube + 3.0 * (se_cube + se_64)

    def test_noise_vanishes_with_more_bits(self):
        eta_7, _ = estimate_eta(codebook(7), 2 * 10**5, seed=59)
        assert 1.0 - eta_7 < 0.05

    @pytest.mark.parametrize("spec", ["single", "antipodal", "tetrahedron", 8])
    def test_matches_sample_major_scoring_of_full_rotations(self, spec):
        c = Codebook(np.array([[0.0, 0.0, 1.0]])) if spec == "single" else codebook(spec)
        n, batch, seed = 25_001, 10_000, 61
        sizes = (batch, batch, n % batch)
        total = total_sq = 0.0
        for rng, size in zip(dp._batch_seeds(seed, len(sizes)), sizes):
            scores = elementwise_scores(uniform_directions(rng, size), c)
            total += scores.sum()
            total_sq += np.square(scores).sum()
        mean = total / n
        stderr = math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)
        assert estimate_eta(c, n, seed, batch=batch) == (mean, stderr)

    def test_peak_memory_stays_bounded_at_4096_codewords(self):
        # A (samples x codewords) score block of 4096 rows peaks at about 137 MB here.
        c = codebook(12)
        tracemalloc.start()
        try:
            estimate_eta(c, 20_000, seed=67)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


def uniform_directions(rng, size):
    """The batch's directions, Archimedes' map of ``rng.random((size, 2))`` on the whole batch.

    z = 1 - 2a and (x, y) = 2 sqrt(a (1 - a)) (cos 2 pi b, sin 2 pi b), with
    cos 2 pi b = r - 1 and sin 2 pi b = t r for t = tan(pi b), r = 2 / (1 + t^2).
    """
    a, b = rng.random((size, 2)).T
    t = np.tan(np.pi * b)
    r = 2 / (1 + t * t)
    s = 2 * np.sqrt(a * (1 - a))
    return np.column_stack([s * (r - 1), s * (t * r), 1 - 2 * a])


def elementwise_scores(directions, c):
    """max_i (x wx_i + y wy_i) + z wz_i over every codeword, for (samples, 3) ``directions``.

    The formula ``_batch_scores`` scores a candidate with, evaluated for
    every word, so the pruning of its cell index must move no bit.  Parts of
    at most 2^20 (sample, word) entries are broadcast at once.
    """
    wx, wy, wz = c.vectors.T
    step = max(1, 2**20 // len(wx))
    best = np.empty(len(directions))
    for lo in range(0, len(directions), step):
        x, y, z = directions[lo : lo + step, :, np.newaxis].transpose(1, 0, 2)
        np.max((x * wx + y * wy) + z * wz, axis=1, out=best[lo : lo + step])
    return best


def sample_major_scores(c, rng, size):
    """Scores of the batch's directions, each against every codeword (``elementwise_scores``)."""
    return elementwise_scores(uniform_directions(rng, size), c)


def report_cpus(monkeypatch, cpus):
    """Make the machine report ``cpus`` CPUs to every caller that asks ``os``."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


BLOCK = dp._SAMPLE_BLOCK


class TestDirections:
    """The two-uniform map that gives estimate_eta its directions."""

    N = 10**6

    @pytest.fixture(scope="class")
    def uniforms(self):
        return np.random.default_rng(131).random((self.N, 2))

    @pytest.fixture(scope="class")
    def points(self, uniforms):
        return dp._directions(uniforms, np.empty((3, self.N)))

    def test_points_are_unit_vectors(self, points):
        assert np.max(np.abs(np.linalg.norm(points, axis=0) - 1.0)) <= 1e-15

    def test_matches_the_cosine_and_sine_form(self, uniforms, points):
        a, b = uniforms.T
        s = 2 * np.sqrt(a * (1 - a))
        expected = [s * np.cos(2 * np.pi * b), s * np.sin(2 * np.pi * b), 1 - 2 * a]
        np.testing.assert_allclose(points, expected, rtol=0, atol=1e-15)

    def test_first_and_second_moments_are_uniform(self, points):
        # On the unit sphere each coordinate has mean 0 and variance 1/3, and
        # its square has variance 1/5 - 1/9 = 4/45.
        for coordinate in points:
            assert abs(coordinate.mean()) <= 5.0 * math.sqrt(1.0 / 3.0 / self.N)
            assert abs(np.square(coordinate).mean() - 1.0 / 3.0) <= 5.0 * math.sqrt(4.0 / 45.0 / self.N)

    def test_pole_and_equator_inputs(self):
        u = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.25], [0.5, 0.5], [0.5, 0.75]])
        expected = [[0, 0, 1], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
        np.testing.assert_allclose(dp._directions(u, np.empty((3, 5))).T, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("block", [1, 8, 1000, 4093, BLOCK])
    def test_splitting_the_batch_moves_no_bit(self, uniforms, points, block):
        n = 25_013
        buffer = np.empty((3, block))
        split = np.empty((3, n))
        for lo in range(0, n, block):
            width = min(block, n - lo)
            dp._directions(uniforms[lo : lo + width], buffer[:, :width])
            split[:, lo : lo + width] = buffer[:, :width]
        np.testing.assert_array_equal(split, points[:, :n])

    def test_matches_the_whole_batch_oracle(self, points):
        np.testing.assert_array_equal(points.T, uniform_directions(np.random.default_rng(131), self.N))


class TestBlockedEstimator:
    """estimate_eta draws, maps and scores in blocks; none of it may move a bit."""

    CODEBOOKS = {
        1: lambda: Codebook(np.array([[0.0, 0.0, 1.0]])),
        2: lambda: codebook("antipodal"),
        4: lambda: codebook("tetrahedron"),
        256: lambda: codebook(8),
        257: lambda: Codebook(fibonacci_sphere(257)),
        4096: lambda: codebook(12),
    }

    @pytest.mark.parametrize("words", sorted(CODEBOOKS))
    @pytest.mark.parametrize(
        "n, batch",
        [
            (BLOCK - 1, 200_000),
            (BLOCK, 200_000),
            (BLOCK + 1, 200_000),
            (2 * BLOCK + 1, 200_000),  # a one-sample last block
            (25_013, 10_007),  # batches that are not a multiple of the block
            (10_008, 10_007),  # a one-sample last batch
        ],
    )
    def test_matches_sample_major_scoring(self, words, n, batch):
        c = self.CODEBOOKS[words]()
        sizes = [batch] * (n // batch) + ([n % batch] if n % batch else [])
        total = total_sq = 0.0
        for seq, size in zip(np.random.SeedSequence(71).spawn(len(sizes)), sizes):
            expected = sample_major_scores(c, np.random.default_rng(seq), size)
            np.testing.assert_array_equal(dp._batch_scores(c, np.random.default_rng(seq), size), expected)
            total += expected.sum()
            total_sq += np.square(expected).sum()
        mean = total / n
        stderr = math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)
        assert estimate_eta(c, n, 71, batch=batch) == (mean, stderr)

    @pytest.mark.parametrize("spec", ["tetrahedron", "cube", 8, 12])
    def test_one_sample_batches_match_sample_major_scoring(self, spec):
        # The 200 m = 12 batches share one cell index, built on the first.
        c = codebook(spec)
        for seq in np.random.SeedSequence(89).spawn(200):
            expected = sample_major_scores(c, np.random.default_rng(seq), 1)
            np.testing.assert_array_equal(dp._batch_scores(c, np.random.default_rng(seq), 1), expected)

    @pytest.mark.parametrize("m", [3, 8, 11])
    @pytest.mark.parametrize("block", [8, 1000, 4093])
    def test_sample_block_size_changes_nothing(self, monkeypatch, m, block):
        c, n = codebook(m), 9_001
        whole = dp._batch_scores(c, np.random.default_rng(73), n)
        monkeypatch.setattr(dp, "_SAMPLE_BLOCK", block)
        np.testing.assert_array_equal(dp._batch_scores(c, np.random.default_rng(73), n), whole)

    def test_peak_memory_at_256_codewords(self):
        # Scoring whole batches peaked at 16 MB: 2e5 quaternions, z rows and 2^20-entry blocks.
        c = codebook(8)
        tracemalloc.start()
        try:
            estimate_eta(c, 200_000, seed=79)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("cpus", [2, 16, 64])
    def test_peak_memory_at_256_codewords_does_not_grow_with_the_cpu_count(self, monkeypatch, cpus):
        # One block's scratch (uniforms, directions and gathered candidates) on
        # the caller's thread; a worker per CPU would reach 5.8 MB at 6 CPUs.
        report_cpus(monkeypatch, cpus)
        c = codebook(8)
        tracemalloc.start()
        try:
            estimate_eta(c, 200_000, seed=79)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_one_row_last_block_of_simulate_average_state(self):
        psi_hat = qmath.random_bloch(np.random.default_rng(83))
        c, n = codebook(3), BLOCK + 1
        rotated = np.einsum("nij,kj->nki", sample_rotations(dp._batch_seeds(83, 1)[0], n), c.vectors)
        winners = np.argmax(rotated @ psi_hat, axis=1)
        expected = qmath.bloch_to_density(rotated[np.arange(n), winners].sum(axis=0) / n)
        rho = simulate_average_state(qmath.bloch_to_density(psi_hat), c, n, 83)
        np.testing.assert_array_equal(rho, expected)


class UniformRows:
    """Stands in for a generator: ``random(out=...)`` hands out fixed rows of uniforms in order."""

    def __init__(self, rows):
        self.rows = rows
        self.used = 0

    def random(self, out):
        out[...] = self.rows[self.used : self.used + len(out)]
        self.used += len(out)
        return out


def unit_rows(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def make_codebook(kind, words, m, seed):
    """A codebook of one of the kinds the cell index must score exactly."""
    rng = np.random.default_rng(seed)
    if kind == "spiral":
        return Codebook(fibonacci_sphere(2**m))
    if kind == "random":
        return Codebook(unit_rows(rng.normal(size=(words, 3))))
    if kind == "antipodal":
        v = unit_rows(rng.normal(size=(-(-words // 2), 3)))
        return Codebook(np.concatenate([v, -v]))
    # Every word within 0.1 rad of one axis, so the far cells keep nearly every word.
    polar = 0.1 * np.sqrt(rng.random(words))
    azimuth = 2 * np.pi * rng.random(words)
    local = np.column_stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])
    axes = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return Codebook(unit_rows(local @ axes.T))


def edge_uniforms(c, rng, count):
    """Uniforms on the cells' edges: band edges, sector edges, the last double below each, a = 0, b = 1 - 2^-53."""
    below = 1 - 2.0**-53
    rows = [[0.0, 0.0], [0.0, below], [below, 0.0], [below, below], [0.5, 0.5]]
    if c._cells.grid:
        layout = dp._cell_layout(len(c))
        cells = np.arange(layout.first[-1] + layout.sectors[-1])
        band = np.searchsorted(layout.first, cells, side="right") - 1
        n = layout.sectors[band]
        sector = cells - layout.first[band]
        a = [layout.edges[band] / layout.grid, np.nextafter(layout.edges[band + 1] / layout.grid, 0)]
        b = [sector / n, np.nextafter((sector + 1) / n, 0)]
        edges = np.concatenate([np.column_stack([a_k, b_k]) for a_k in a for b_k in b])
        edges = np.minimum(edges, below)  # a and b stay below 1, as the generator's do
        rows += edges[rng.permutation(len(edges))[:count]].tolist()
    return np.array(rows)


class TestCellIndex:
    """estimate_eta scores each sample only against its sphere cell's candidates."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["random", "clustered", "antipodal", "spiral"]),
        words=st.integers(1, 300),
        m=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_equal_the_elementwise_max_over_all_codewords(self, kind, words, m, seed):
        c = make_codebook(kind, words, m, seed)
        rng = np.random.default_rng(seed)
        rows = np.concatenate([edge_uniforms(c, rng, 2_000), rng.random((2_000, 2))])
        scores = dp._batch_scores(c, UniformRows(rows), len(rows))
        expected = elementwise_scores(dp._directions(rows, np.empty((3, len(rows)))).T, c)
        np.testing.assert_array_equal(scores, expected)

    @pytest.mark.parametrize("words", [17, 256, 4096])
    def test_no_point_of_a_cell_lies_beyond_its_radius(self, words):
        layout = dp._cell_layout(words)
        cells = np.arange(layout.first[-1] + layout.sectors[-1])
        band, centres = dp._cell_centres(layout, cells)
        a0, a1 = layout.edges[band] / layout.grid, layout.edges[band + 1] / layout.grid
        n = layout.sectors[band]
        b0 = (cells - layout.first[band]) / n
        b1 = b0 + 1 / n
        farthest = np.zeros(len(cells))
        for t in np.linspace(0.0, 1.0, 65):
            a_t, b_t = a0 + t * (a1 - a0), b0 + t * (b1 - b0)
            for a, b in [(a_t, b0), (a_t, b1), (a0, b_t), (a1, b_t)]:
                points = dp._directions(np.column_stack([a, b]), np.empty((3, len(cells))))
                angle = np.arccos(np.clip(np.sum(points * centres, axis=0), -1, 1))
                np.maximum(farthest, angle, out=farthest)
        radius = layout.radius[band]
        assert np.all(farthest <= radius)
        # The farthest point is a corner: the slack is not what keeps the edges inside.
        assert np.all(farthest <= radius - dp._CELL_SLACK + 1e-9)

    def test_sectors_are_at_most_half_a_turn_and_bands_are_whole_grid_steps(self):
        for words in (17, 100, 256, 4096, 65536):
            layout = dp._cell_layout(words)
            assert layout.sectors.min() >= 2
            assert layout.edges[0] == 0 and layout.edges[-1] == layout.grid
            assert np.all(np.diff(layout.edges) > 0)
            assert layout.grid & (layout.grid - 1) == 0

    def test_the_sector_of_the_largest_uniform_is_the_last(self):
        # floor(b * n) < n for every b < 1, so no sample leaves its band.
        n = np.arange(2, 200_000)
        assert np.all(np.floor((1 - 2.0**-53) * n) == n - 1)

    @pytest.mark.parametrize("extra, one_cell", [(0, True), (1, False)])
    def test_small_codebooks_are_one_cell(self, extra, one_cell):
        index = Codebook(fibonacci_sphere(dp._SINGLE_CELL_WORDS + extra))._cells
        assert (index.grid == 0) == one_cell

    def test_built_on_first_use_and_kept_on_the_codebook(self):
        c = codebook(8)
        assert "_cells" not in vars(c)
        estimate_eta(c, 1_000, 1)
        index = vars(c)["_cells"]
        estimate_eta(c, 1_000, 2)
        assert c._cells is index

    def test_build_scratch_at_4096_codewords(self):
        # The cells are searched in runs of 1,024: all 16,250 at once held 13 MB.
        c = codebook(12)
        tracemalloc.start()
        try:
            index = c._cells
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = index.words.nbytes + index.first_cell.nbytes + index.sectors.nbytes
        assert peak - table < 2e6


class TestBlockWorkers:
    """Both Monte Carlo paths run every block on the thread that calls them.

    No result may depend on the machine's CPU count or on which thread calls.
    """

    SMALL_BLOCK = 8

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dp, "_SAMPLE_BLOCK", self.SMALL_BLOCK)

    @pytest.mark.parametrize("spec", [7, 8])
    @pytest.mark.parametrize("n", [SMALL_BLOCK - 1, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 1, 9_001])
    def test_results_do_not_depend_on_the_cpu_count(self, monkeypatch, spec, n):
        psi = qmath.bloch_to_density(qmath.random_bloch(np.random.default_rng(n)))
        expected_scores = sample_major_scores(codebook(spec), np.random.default_rng(97), n)
        results = []
        for cpus in (1, 2, 3):
            report_cpus(monkeypatch, cpus)
            c = codebook(spec)  # a fresh cell index, built under this CPU count
            before = threading.active_count()
            scores = dp._batch_scores(c, np.random.default_rng(97), n)
            assert threading.active_count() == before
            eta = estimate_eta(c, n, 101, batch=n // 2 + 1)
            assert threading.active_count() == before
            rho = simulate_average_state(psi, c, n, 103)
            assert threading.active_count() == before
            np.testing.assert_array_equal(scores, expected_scores)
            results.append((eta, rho))
        for eta, rho in results[1:]:
            assert eta == results[0][0]
            np.testing.assert_array_equal(rho, results[0][1])

    def test_more_workers_than_cores_under_fast_thread_switching(self):
        # Callers on more threads than cores share one codebook whose cell index
        # none has built yet; a block drawn out of turn or a half-built index
        # would move a score.
        c, n = codebook(8), 9_001
        expected = sample_major_scores(c, np.random.default_rng(113), n)
        workers = min(len(os.sched_getaffinity(0)), 32) + 1
        results = [None] * workers

        def work(k):
            results[k] = dp._batch_scores(c, np.random.default_rng(113), n)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for scores in results:
            np.testing.assert_array_equal(scores, expected)

    @pytest.mark.parametrize("failing", ["caller", "started"])
    def test_a_failing_block_raises_in_the_caller_and_ends_every_thread(self, monkeypatch, failing):
        # The third block fails in the test's own thread or in one it starts;
        # the error reaches that call, the later blocks do not run, and the
        # codebook's cell index still scores right afterwards.
        c, n = codebook(7), 9_001
        blocks_run = []
        directions = dp._directions

        def failing_directions(uniforms, rows):
            blocks_run.append(threading.current_thread())
            if len(blocks_run) == 3:
                raise RuntimeError("block failed")
            return directions(uniforms, rows)

        monkeypatch.setattr(dp, "_directions", failing_directions)
        before = set(threading.enumerate())
        if failing == "caller":
            with pytest.raises(RuntimeError, match="block failed"):
                dp._batch_scores(c, np.random.default_rng(109), n)
        else:
            raised = []

            def call():
                try:
                    dp._batch_scores(c, np.random.default_rng(109), n)
                except RuntimeError as error:
                    raised.append(error)

            thread = threading.Thread(target=call)
            thread.start()
            thread.join()
            assert [str(error) for error in raised] == ["block failed"]
            assert set(blocks_run) == {thread}
        assert set(threading.enumerate()) == before
        assert len(blocks_run) == 3
        monkeypatch.setattr(dp, "_directions", directions)
        expected = sample_major_scores(c, np.random.default_rng(109), n)
        np.testing.assert_array_equal(dp._batch_scores(c, np.random.default_rng(109), n), expected)


class TestEtaCap:
    def test_reference_points(self):
        assert abs(eta_cap(math.pi / 2) - 0.5) <= 1e-14
        assert eta_cap(0.0) == 1.0
        assert abs(eta_cap(math.pi)) <= 1e-14

    def test_closed_form_identity(self):
        for theta in np.linspace(1e-6, math.pi, 1000):
            assert abs(eta_cap(theta) - 0.5 * (1.0 + math.cos(theta))) <= 1e-14

    def test_domain_check(self):
        with pytest.raises(DepolarizeError):
            eta_cap(-0.1)
        with pytest.raises(DepolarizeError):
            eta_cap(3.5)

    def test_rejects_nan(self):
        # NaN fails both range comparisons, so only a check that it is in range rejects it.
        with pytest.raises(DepolarizeError):
            eta_cap(float("nan"))
