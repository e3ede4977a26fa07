import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

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
        # Every worker would rotate a block of its own: 8 workers peaked at 74.6 MB,
        # against 12.5 MB on one.
        monkeypatch.setattr(dp, "_cpu_count", lambda: cpus)
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
            scores = np.max(uniform_directions(rng, size) @ c.vectors.T, axis=1)
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


def sample_major_scores(c, rng, size, rows_per_product=512):
    """Scores of the batch's directions, each against every codeword.

    The (samples x codewords) products take near-equal parts of at most
    ``rows_per_product`` directions, so a 4096-word codebook stays near 16 MB
    and no part is a single row (gemv) unless the batch is.
    """
    rows = uniform_directions(rng, size)
    parts = np.array_split(rows, -(-size // rows_per_product))
    return np.concatenate([np.max(part @ c.vectors.T, axis=1) for part in parts])


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
        # Blocks write into buffers padded to whole panels, as _batch_scores does.
        buffer = np.empty((3, block + dp._PANEL))
        split = np.empty((3, n))
        for lo in range(0, n, block):
            width = min(block, n - lo)
            dp._directions(uniforms[lo : lo + width], buffer[:, : width + 3])
            assert not buffer[:, width : width + 3].any()
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
        257: lambda: Codebook(fibonacci_sphere(257)),  # codeword chunks of 129 and 128
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
        # A one-sample batch is one column, scored through gemv as sample-major scoring is.
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

    def test_score_blocks_are_whole_panels(self):
        for rows in [1, 2, 3, 8, 100, 129, dp._SCORE_ROWS]:
            columns = dp._score_columns(rows)
            assert columns % dp._PANEL == 0
            assert dp._PANEL <= columns <= BLOCK
            assert rows * columns <= dp._CACHE_SCORE_ENTRIES

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
        # Each worker holds one block's scratch (uniforms, directions and a score
        # block, 0.69 MB); a worker per CPU would reach 5.8 MB at 6 CPUs.
        monkeypatch.setattr(dp, "_cpu_count", lambda: cpus)
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


class TestBlockWorkers:
    """From 128 codewords estimate_eta blocks run on up to min(CPUs, blocks) threads.

    simulate_average_state starts none.  No result may depend on how many.
    """

    SMALL_BLOCK = 8

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dp, "_SAMPLE_BLOCK", self.SMALL_BLOCK)

    @staticmethod
    def record_threads(monkeypatch):
        """Record the live thread count in every block of either estimator.

        Wraps _directions, which every estimate_eta block calls, and
        _quaternions_to_rotations, which sample_rotations calls for every
        simulate_average_state block.
        """
        seen = []

        def recording(function):
            def wrapped(*args):
                seen.append(threading.active_count())
                return function(*args)

            return wrapped

        for name in ("_directions", "_quaternions_to_rotations"):
            monkeypatch.setattr(dp, name, recording(getattr(dp, name)))
        return seen

    @pytest.mark.parametrize("spec", [7, 8])
    @pytest.mark.parametrize("n", [SMALL_BLOCK - 1, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 1, 9_001])
    def test_results_do_not_depend_on_the_cpu_count(self, monkeypatch, spec, n):
        c = codebook(spec)
        psi = qmath.bloch_to_density(qmath.random_bloch(np.random.default_rng(n)))
        expected_scores = sample_major_scores(c, np.random.default_rng(97), n)
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(dp, "_cpu_count", lambda: cpus)
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

    def test_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        # A block drawn out of turn or taken twice would move a score.
        monkeypatch.setattr(dp, "_cpu_count", lambda: 8)
        c, n = codebook(8), 9_001
        expected = sample_major_scores(c, np.random.default_rng(113), n)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                np.testing.assert_array_equal(dp._batch_scores(c, np.random.default_rng(113), n), expected)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "cpus, n, extra", [(1, 9_001, 0), (3, SMALL_BLOCK, 0), (3, SMALL_BLOCK + 1, 1), (3, 9_001, 2)]
    )
    def test_starts_one_thread_fewer_than_min_of_cpus_and_blocks(self, monkeypatch, cpus, n, extra):
        monkeypatch.setattr(dp, "_cpu_count", lambda: cpus)
        seen = self.record_threads(monkeypatch)
        before = threading.active_count()
        dp._batch_scores(codebook(7), np.random.default_rng(107), n)
        assert max(seen) <= before + extra
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "path, spec, extra",
        [
            ("eta", "antipodal", 0),
            ("eta", 6, 0),
            ("eta", 7, 2),
            ("eta", 8, 2),
            ("average", "antipodal", 0),
            ("average", 8, 0),
        ],
    )
    def test_scratch_budget_caps_the_threads_on_many_cpus(self, monkeypatch, path, spec, extra):
        # At full-size blocks an estimate_eta worker's scratch is 0.69 MB at 128
        # and at 256 codewords.  Below 128 codewords estimate_eta starts
        # no thread, and simulate_average_state runs on one worker.
        monkeypatch.setattr(dp, "_SAMPLE_BLOCK", BLOCK)
        monkeypatch.setattr(dp, "_cpu_count", lambda: 64)
        seen = self.record_threads(monkeypatch)
        c = codebook(spec)
        before = threading.active_count()
        if path == "eta":
            estimate_eta(c, 9 * BLOCK, 127)
        else:
            simulate_average_state(qmath.bloch_to_density((0, 0, 1)), c, 9 * BLOCK, 127)
        assert max(seen) <= before + extra
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["caller", "started"])
    def test_a_failing_block_raises_in_the_caller_and_ends_every_thread(self, monkeypatch, failing):
        # The failing kind of thread raises on its third block; the other kind
        # sleeps on each block, so the failing one is sure to reach its third.
        monkeypatch.setattr(dp, "_cpu_count", lambda: 2)
        caller = threading.current_thread()
        blocks_run = {}
        directions = dp._directions

        def failing_directions(uniforms, rows):
            thread = threading.current_thread()
            blocks_run[thread] = blocks_run.get(thread, 0) + 1
            if (thread is caller) == (failing == "caller"):
                if blocks_run[thread] == 3:
                    raise RuntimeError("block failed")
            else:
                time.sleep(0.001)
            return directions(uniforms, rows)

        monkeypatch.setattr(dp, "_directions", failing_directions)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="block failed"):
            dp._batch_scores(codebook(7), np.random.default_rng(109), 9_001)
        assert set(threading.enumerate()) == before
        assert sum(blocks_run.values()) < -(-9_001 // self.SMALL_BLOCK)

    def test_cpu_count_falls_back_to_the_machine_count(self, monkeypatch):
        assert dp._cpu_count() >= 1
        monkeypatch.delattr(dp.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(dp.os, "cpu_count", lambda: 5)
        assert dp._cpu_count() == 5
        monkeypatch.setattr(dp.os, "cpu_count", lambda: None)
        assert dp._cpu_count() == 1

        def unavailable(pid):
            raise OSError("affinity unavailable")

        monkeypatch.setattr(dp.os, "sched_getaffinity", unavailable, raising=False)
        monkeypatch.setattr(dp.os, "cpu_count", lambda: 5)
        assert dp._cpu_count() == 5


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
