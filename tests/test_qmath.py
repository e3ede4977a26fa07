import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchansim import qmath
from qchansim.qmath import (
    I2,
    I4,
    SIGMA_X,
    SIGMA_Z,
    Instrument,
    Povm,
    born,
    bloch_to_density,
    catalog_measurement,
    catalog_product_effects,
    density_to_bloch,
    depolarize,
    projector,
    singlet_probability,
    tensor,
)

RT2 = math.sqrt(2.0)


def unit_vectors(draw_count=None):
    return st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ).filter(lambda v: 1e-3 < np.linalg.norm(v)).map(
        lambda v: tuple(np.asarray(v) / np.linalg.norm(v))
    )


class TestBlochConversion:
    def test_z_eigenstate(self):
        np.testing.assert_allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=1e-15)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(bloch_to_density((0, 0, 0)), I2 / 2, atol=1e-15)

    def test_tilted_pure_state(self):
        # Hand expansion of (I + (sigma_x + sigma_z)/sqrt(2)) / 2.
        rho = bloch_to_density((1 / RT2, 0, 1 / RT2))
        expected = np.array(
            [[0.5 + 1 / (2 * RT2), 1 / (2 * RT2)], [1 / (2 * RT2), 0.5 - 1 / (2 * RT2)]],
            dtype=complex,
        )
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_rejects_long_vector(self):
        with pytest.raises(qmath.InvalidBlochVectorError):
            bloch_to_density((1.0, 1.0, 0.0))

    def test_density_to_bloch_trivial(self):
        np.testing.assert_allclose(density_to_bloch(I2 / 2), [0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(density_to_bloch(np.diag([1.0, 0.0])), [0, 0, 1], atol=1e-15)

    def test_density_to_bloch_rejects_wrong_dim(self):
        with pytest.raises(qmath.DimensionError):
            density_to_bloch(I4)

    def test_round_trip_on_random_unit_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = qmath.random_bloch(rng)
            np.testing.assert_allclose(density_to_bloch(bloch_to_density(v)), v, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(unit_vectors())
    def test_round_trip_property(self, v):
        np.testing.assert_allclose(density_to_bloch(bloch_to_density(v)), v, atol=1e-12)

    def test_bloch_to_ket_matches_projector(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = qmath.random_bloch(rng)
            np.testing.assert_allclose(
                projector(qmath.bloch_to_ket(v)), bloch_to_density(v), atol=1e-12
            )


class TestTensorAndBorn:
    def test_identity_product(self):
        np.testing.assert_allclose(tensor(I2, I2), I4, atol=0)

    def test_basis_projectors(self):
        np.testing.assert_allclose(
            tensor(projector(qmath.KET0), projector(qmath.KET1)),
            np.diag([0.0, 1.0, 0.0, 0.0]),
            atol=1e-15,
        )

    def test_kron_index_formula(self):
        # Oracle: (A x B)[2i+k, 2j+l] = A[i,j] B[k,l].
        t = tensor(SIGMA_X, SIGMA_Z)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert t[2 * i + k, 2 * j + l] == SIGMA_X[i, j] * SIGMA_Z[k, l]

    def test_born_computational(self):
        m = Povm.from_effects([projector(qmath.KET0), projector(qmath.KET1)])
        np.testing.assert_allclose(born(projector(qmath.KET0), m), [1.0, 0.0], atol=1e-15)

    def test_born_singlet_parallel_and_antiparallel(self):
        m = catalog_measurement("singlet")
        psi = bloch_to_density((0, 0, 1))
        np.testing.assert_allclose(born(tensor(psi, psi), m)[0], 0.0, atol=1e-12)
        phi = bloch_to_density((0, 0, -1))
        np.testing.assert_allclose(born(tensor(psi, phi), m)[0], 0.5, atol=1e-12)

    def test_born_dimension_mismatch(self):
        m = catalog_measurement("singlet")
        with pytest.raises(qmath.DimensionError):
            born(I2 / 2, m)

    def test_born_is_probability_vector(self):
        rng = np.random.default_rng(3)
        m = catalog_measurement("tb")
        for _ in range(50):
            rho = projector(qmath.haar_ket(4, rng))
            p = born(rho, m)
            assert np.all(p >= -1e-12)
            assert abs(p.sum() - 1.0) <= 1e-10


class TestDepolarize:
    def test_identity_channel(self):
        rho = bloch_to_density((0.3, -0.2, 0.4))
        np.testing.assert_allclose(depolarize(rho, 1.0), rho, atol=0)

    def test_full_noise(self):
        np.testing.assert_allclose(depolarize(projector(qmath.KET0), 0.0), I2 / 2, atol=0)

    def test_half_noise_on_ground_state(self):
        np.testing.assert_allclose(
            depolarize(projector(qmath.KET0), 0.5), np.diag([0.75, 0.25]), atol=1e-15
        )

    def test_rejects_bad_eta(self):
        with pytest.raises(qmath.QmathError):
            depolarize(I2 / 2, 1.5)

    @settings(max_examples=40, deadline=None)
    @given(unit_vectors(), st.floats(0, 1, allow_nan=False))
    def test_bloch_vector_scales_exactly(self, v, eta):
        rho = bloch_to_density(v)
        np.testing.assert_allclose(
            density_to_bloch(depolarize(rho, eta)), eta * np.asarray(v), atol=1e-12
        )


class TestSingletProbability:
    def test_endpoint_values(self):
        z = (0.0, 0.0, 1.0)
        assert singlet_probability(z, z) == 0.0
        assert singlet_probability(z, (0.0, 0.0, -1.0)) == 0.5
        assert singlet_probability(z, (1.0, 0.0, 0.0)) == 0.25

    def test_rejects_non_unit(self):
        with pytest.raises(qmath.InvalidBlochVectorError):
            singlet_probability((0.5, 0, 0), (0, 0, 1))

    def test_agrees_with_born_on_singlet_povm(self):
        rng = np.random.default_rng(5)
        m = catalog_measurement("singlet")
        for _ in range(1000):
            a = qmath.random_bloch(rng)
            b = qmath.random_bloch(rng)
            joint = tensor(bloch_to_density(a), bloch_to_density(b))
            assert abs(singlet_probability(a, b) - born(joint, m)[0]) <= 1e-12


class TestCatalog:
    @pytest.mark.parametrize("name", qmath.CATALOG_NAMES)
    def test_every_entry_is_complete(self, name):
        m = catalog_measurement(name)
        total = sum(m.effects)
        np.testing.assert_allclose(total, np.eye(m.dim), atol=1e-10)

    def test_unknown_name(self):
        with pytest.raises(qmath.UnknownMeasurementError):
            catalog_measurement("nope")

    def test_tb_weights(self):
        effects = catalog_product_effects("tb")
        assert [e.weight for e in effects] == [1.0, 0.75, 0.75, 0.75, 0.75]
        assert len(effects) == 5

    def test_singlet_effects(self):
        m = catalog_measurement("singlet")
        np.testing.assert_allclose(m.effects[0], projector(qmath.SINGLET), atol=1e-15)
        np.testing.assert_allclose(m.effects[0] + m.effects[1], I4, atol=1e-15)

    def test_shift_is_a_product_basis_of_c8(self):
        effects = catalog_product_effects("shift")
        assert len(effects) == 8
        for e in effects:
            assert e.n_parties == 3
            assert e.weight == 1.0
        np.testing.assert_allclose(
            qmath.product_effects_matrix_sum(effects), np.eye(8), atol=1e-12
        )

    def test_twist_measurements_match_their_tilts(self):
        a = catalog_measurement("twistA")
        b = catalog_measurement("twistB")
        # twistA tilts Alice's side, twistB tilts Bob's side.
        np.testing.assert_allclose(
            a.effects[2], tensor(projector(qmath.KET_PLUS), projector(qmath.KET1)), atol=1e-15
        )
        np.testing.assert_allclose(
            b.effects[2], tensor(projector(qmath.KET1), projector(qmath.KET_PLUS)), atol=1e-15
        )


class TestMarkerStateIdentities:
    def test_delta_pattern(self):
        report = qmath.verify_s3_identities()
        assert report["passed"]
        assert report["max_deviation"] <= 1e-12
        np.testing.assert_allclose(report["first_effect_overlaps"], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(report["grouped_overlaps"][2], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(report["grouped_overlaps"][3], [0.0, 0.0, 1.0], atol=1e-12)


class TestInstrument:
    def test_completeness_enforced(self):
        with pytest.raises(qmath.QmathError):
            Instrument(kraus=(projector(qmath.KET0), 0.5 * projector(qmath.KET1)))


class TestPovmValidation:
    def test_rejects_incomplete(self):
        with pytest.raises(qmath.QmathError):
            Povm.from_effects([projector(qmath.KET0), 0.5 * projector(qmath.KET1)])

    def test_rejects_negative_effect(self):
        with pytest.raises(qmath.QmathError):
            Povm.from_effects([1.5 * projector(qmath.KET0), I2 - 1.5 * projector(qmath.KET0)])

    def test_effects_are_read_only(self):
        m = catalog_measurement("comp")
        with pytest.raises(ValueError):
            m.effects[0][0, 0] = 5.0
