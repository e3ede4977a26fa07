import json
import math
import threading
from collections import OrderedDict

import numpy as np
import pytest
from helpers import TETRA_BLOCH
from hypothesis import given, settings
from hypothesis import strategies as st

from qchansim import cli, multiround, protocols, qmath
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


def good_stack(count=5, n=3, dim=2, seed=4):
    """The Kraus blocks of ``count`` random instruments and their K^dag K measurements."""
    blocks = multiround._isometry_blocks(np.random.default_rng(seed), count, n, dim)
    return blocks, qmath.dagger(blocks) @ blocks


def raised(build) -> tuple[type, str]:
    """The class of the QmathError that ``build()`` raises, and its message up to the first figure."""
    with pytest.raises(qmath.QmathError) as info:
        build()
    return type(info.value), str(info.value).split(":")[0].split(", got")[0]


BAD_EFFECTS = {
    "non-hermitian": [projector(qmath.KET0) + 0.1 * SIGMA_X @ SIGMA_Z,
                      projector(qmath.KET1) - 0.1 * SIGMA_X @ SIGMA_Z],
    "eigenvalue-outside": [1.5 * projector(qmath.KET0), I2 - 1.5 * projector(qmath.KET0)],
    "incomplete": [projector(qmath.KET0), 0.5 * projector(qmath.KET1)],
    "non-finite": [np.full((2, 2), np.nan), I2],
    "non-square": [np.eye(2, 3), np.eye(2, 3)],
}


class TestStateMemo:
    @staticmethod
    def counting(calls):
        def compute(psi):
            calls.append(psi)
            return np.array([np.asarray(psi)[0, 0].real, 1.0])

        return compute

    def test_a_one_state_memo_keeps_the_last_state(self):
        memo, calls = qmath.StateMemo(1), []
        a, b = np.diag([1.0, 0.0]).astype(complex), np.diag([0.25, 0.75]).astype(complex)
        tables = [memo.get(psi, self.counting(calls)) for psi in (a, b, a, a, b)]
        assert len(calls) == 4 and tables[3] is tables[2] and not tables[2].flags.writeable

    def test_a_non_finite_table_is_never_kept(self):
        memo, calls = qmath.StateMemo(2), []
        nan = np.full((2, 2), np.nan, dtype=complex)
        for _ in range(2):
            assert np.isnan(memo.get(nan, self.counting(calls))[0])
        assert len(memo) == 0 and len(calls) == 2

    def test_a_state_without_a_key_or_a_raising_compute_keeps_nothing(self):
        memo = qmath.StateMemo(2)
        memo.get([[1.0, 0.0], [0.0, 0.0]], self.counting([]))

        def raising(psi):
            raise ValueError("no table")

        with pytest.raises(ValueError, match="no table"):
            memo.get(np.eye(2) / 2, raising)
        assert len(memo) == 0


class TestPovmStack:
    @pytest.mark.parametrize("bad", BAD_EFFECTS.values(), ids=BAD_EFFECTS.keys())
    def test_one_bad_member_raises_what_it_raises_alone(self, bad):
        expected = raised(lambda: Povm(effects=tuple(bad), labels=(0, 1)))
        stack = np.array([[projector(qmath.KET0), projector(qmath.KET1)]] * 4, dtype=complex)
        if np.shape(bad) != stack.shape[1:]:
            stack = np.zeros((4,) + np.shape(bad), dtype=complex)
        stack[2] = bad
        assert raised(lambda: qmath.checked_effects(stack, (0, 1))) == expected

    @pytest.mark.parametrize("labels", [(0, 0, 1), (0, 1)], ids=["repeated", "too-few"])
    def test_bad_labels_raise_what_one_measurement_raises(self, labels):
        _, effects = good_stack()
        expected = raised(lambda: Povm(effects=tuple(effects[0]), labels=labels))
        assert raised(lambda: qmath.checked_effects(effects, labels)) == expected

    @pytest.mark.parametrize("shape", [(3, 2, 2), (0, 3, 2, 2), (2, 0, 2, 2)])
    def test_anything_but_a_non_empty_stack_is_a_dimension_error(self, shape):
        with pytest.raises(qmath.DimensionError):
            qmath.checked_effects(np.zeros(shape), range(shape[-3]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_equal_one_at_a_time_measurements_and_are_read_only(self, dim):
        _, effects = good_stack(dim=dim)
        stacked = Povm._rows(qmath.checked_effects(effects, "abc"), tuple("abc"))
        assert len(stacked) == len(effects)
        for povm, rows in zip(stacked, effects):
            single = Povm(effects=tuple(rows), labels=tuple("abc"))
            assert povm.labels == single.labels == ("a", "b", "c")
            assert povm.dim == dim and len(povm) == 3
            for e, f in zip(povm.effects, single.effects):
                assert np.array_equal(e, f)
                assert not e.flags.writeable
                with pytest.raises(ValueError):
                    e[0, 0] = 5.0

    def test_the_stack_is_a_copy(self):
        _, effects = good_stack()
        kept = effects.copy()
        stacked = Povm._rows(qmath.checked_effects(effects, range(3)), tuple(range(3)))
        assert effects.flags.writeable
        effects[:] = 0.0
        assert all(np.array_equal(povm.effects, rows) for povm, rows in zip(stacked, kept))


BAD_KRAUS = {
    "incomplete": [projector(qmath.KET0), 0.5 * projector(qmath.KET1)],
    "non-finite": [np.full((2, 2), np.inf), projector(qmath.KET1)],
    "not-square": [np.eye(2, 3), np.eye(2, 3)],
}


class TestInstrumentStack:
    @pytest.mark.parametrize("bad", BAD_KRAUS.values(), ids=BAD_KRAUS.keys())
    def test_one_bad_member_raises_what_it_raises_alone(self, bad):
        expected = raised(lambda: Instrument(kraus=tuple(bad)))
        stack = np.zeros((4,) + np.shape(bad), dtype=complex)
        if np.shape(bad)[-1] == np.shape(bad)[-2]:
            stack[:] = [projector(qmath.KET0), projector(qmath.KET1)]
        stack[2] = bad
        assert raised(lambda: qmath.checked_kraus(stack)) == expected

    @pytest.mark.parametrize("shape", [(3, 2, 2), (0, 3, 2, 2), (2, 0, 2, 2)])
    def test_anything_but_a_non_empty_stack_is_a_dimension_error(self, shape):
        with pytest.raises(qmath.DimensionError):
            qmath.checked_kraus(np.zeros(shape))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_equal_one_at_a_time_instruments_and_are_read_only(self, dim):
        blocks, _ = good_stack(dim=dim)
        stacked = Instrument._rows(qmath.checked_kraus(blocks))
        assert len(stacked) == len(blocks)
        for inst, rows in zip(stacked, blocks):
            single = Instrument(kraus=tuple(rows))
            assert inst.dim == dim and len(inst) == 3
            for k, j in zip(inst.kraus, single.kraus):
                assert np.array_equal(k, j)
                assert not k.flags.writeable
                with pytest.raises(ValueError):
                    k[0, 0] = 5.0
        assert blocks.flags.writeable

    def test_mixed_shapes_in_one_instrument_are_a_dimension_error(self):
        with pytest.raises(qmath.DimensionError):
            Instrument(kraus=(I2, np.eye(3)))


def test_a_depth5_generator_checks_three_stacks(monkeypatch):
    """One measurement stack and two instrument stacks, and no object checks itself."""
    calls = {"measurements": 0, "instrument stacks": 0, "objects": 0}
    check, stack = qmath.assert_measurements, qmath.checked_kraus

    def counting_check(effects):
        calls["measurements"] += 1
        return check(effects)

    def counting_stack(kraus):
        calls["instrument stacks"] += 1
        return stack(kraus)

    def counting_object(self):
        calls["objects"] += 1

    monkeypatch.setattr(qmath, "assert_measurements", counting_check)
    monkeypatch.setattr(qmath, "checked_kraus", counting_stack)
    monkeypatch.setattr(Instrument, "__post_init__", counting_object)
    monkeypatch.setattr(Povm, "__post_init__", counting_object)
    p = multiround.random_odd_round(3, 5)
    assert calls == {"measurements": 1, "instrument stacks": 2, "objects": 0}
    assert isinstance(p.final_povm(1, (0, 1, 1, 0, 1)), Povm)
    assert isinstance(p.instruments[1](0, (1, 0, 0)), Instrument)


@pytest.fixture
def checks(monkeypatch):
    """An empty checked-state memo, and the list of states the underlying check is called on."""
    monkeypatch.setattr(qmath, "_checked_states", OrderedDict())
    seen = []
    check = qmath._check_density_matrix

    def counting(rho, name):
        seen.append(rho)
        return check(rho, name)

    monkeypatch.setattr(qmath, "_check_density_matrix", counting)
    return seen


def mixed_qubit(p0: float) -> np.ndarray:
    return np.diag([p0, 1.0 - p0]).astype(complex)


class TestCheckedStateMemo:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex), "not Hermitian"),
            (2.0 * projector(qmath.KET0), "has trace"),
            (np.diag([1.5, -0.5]).astype(complex), "negative eigenvalue"),
        ],
        ids=["non-hermitian", "trace-2", "negative-eigenvalue"],
    )
    def test_bad_state_raises_every_time(self, checks, bad, message):
        good = projector(qmath.KET_PLUS)
        qmath.assert_density_matrix(good)
        for _ in range(3):
            with pytest.raises(qmath.QmathError, match=message):
                qmath.assert_density_matrix(bad.copy(), "receiver state")
        assert len(checks) == 4
        assert len(qmath._checked_states) == 1

    def test_equal_state_is_checked_once(self, checks):
        rho = projector(qmath.ket(1, 1j))
        first = qmath.assert_density_matrix(rho)
        again = qmath.assert_density_matrix(rho.copy())
        np.testing.assert_array_equal(again, first)
        assert again.dtype == complex
        assert len(checks) == 1

    def test_state_changed_in_place_is_checked_again(self, checks):
        rho = projector(qmath.KET_PLUS)
        qmath.assert_density_matrix(rho)
        rho[0, 0] = 0.75  # in place: same object, new bytes, trace 1.25
        with pytest.raises(qmath.QmathError, match="has trace"):
            qmath.assert_density_matrix(rho)
        assert len(checks) == 2

    def test_other_dtype_or_shape_is_checked_anew(self, checks):
        rho = mixed_qubit(0.25)
        qmath.assert_density_matrix(rho)
        converted = qmath.assert_density_matrix(rho.astype(np.complex64))
        assert converted.dtype == complex
        real = qmath.assert_density_matrix(rho.real.copy())
        np.testing.assert_array_equal(real, rho)
        with pytest.raises(qmath.DimensionError):
            qmath.assert_density_matrix(rho.reshape(1, 4))
        with pytest.raises(qmath.QmathError):  # the same shape and bytes as ``real``, as integers
            qmath.assert_density_matrix(rho.real.copy().view(np.int64))
        assert len(checks) == 5
        qmath.assert_density_matrix(rho.astype(np.complex64))
        assert len(checks) == 5

    def test_memo_never_holds_more_than_its_bound(self, checks):
        bound = qmath.CHECKED_STATES_MAX
        states = [mixed_qubit(p) for p in np.linspace(0.0, 1.0, bound + 10)]
        for rho in states:
            qmath.assert_density_matrix(rho)
            assert len(qmath._checked_states) <= bound
        assert len(qmath._checked_states) == bound
        qmath.assert_density_matrix(states[-1])
        assert len(checks) == bound + 10
        qmath.assert_density_matrix(states[0])  # the oldest went first
        assert len(checks) == bound + 11

    def test_large_state_is_checked_every_time(self, checks):
        dim = 24
        rho = np.eye(dim, dtype=complex) / dim
        assert rho.nbytes > qmath.CHECKED_STATE_MAX_BYTES
        for _ in range(2):
            qmath.assert_density_matrix(rho)
        assert len(checks) == 2
        assert not qmath._checked_states

    def test_threads_sharing_the_memo_never_raise(self, checks):
        bound = qmath.CHECKED_STATES_MAX
        states = [mixed_qubit(p) for p in np.linspace(0.0, 1.0, 3 * bound)]
        errors = []

        def work():
            try:
                for rho in states:
                    qmath.assert_density_matrix(rho)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(qmath._checked_states) <= bound

    def test_protocol_loop_checks_each_distinct_state_once(self, checks):
        """The benchmark's eight protocols, each with both runners, on one (psi, psi2, phi, phi6) set."""
        shift, shift_labels = qmath.catalog_product_effects("shift"), qmath.catalog_labels("shift")
        tetra = [qmath.bloch_to_ket(np.asarray(b) / math.sqrt(3.0)) for b in TETRA_BLOCH]
        cases = [(protocols.catalog_protocol(name), "two") for name in ("comp", "twistA", "twistB", "tb")]
        cases.append((protocols.block_basis_protocol(protocols.demo_block_basis()), "block"))
        cases += [(protocols.multi_sender_protocol(shift, c, shift_labels), "three") for c in ("A", "B")]
        joint = [qmath.ProductRank1Effect(weight=0.25, factors=(a, b)) for a in tetra for b in tetra]
        cases.append((protocols.rank1_product_protocol(joint), "two"))
        rng = np.random.default_rng(17)
        psi, psi2, phi = (projector(qmath.haar_ket(2, rng)) for _ in range(3))
        phi6 = projector(qmath.haar_ket(6, rng))
        args = {"two": (psi, phi), "block": (psi, phi6), "three": ([psi, psi2], phi)}
        checks.clear()
        for protocol, kind in cases:
            sender, receiver = args[kind]
            protocols.run_analytic(protocol, sender, receiver)
            protocols.run_sampled(protocol, sender, receiver, 500, seed=3)
        keys = [qmath.state_key(rho) for rho in checks]
        assert len(keys) == len(set(keys)) == 4
        assert set(keys) == {qmath.state_key(rho) for rho in (psi, psi2, phi, phi6)}

    def test_simulate_with_invalid_receiver_state_is_an_invariant_violation(self, checks, tmp_path, monkeypatch):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"measurement": "tb", "samples": 100, "phi": [0, 0, 1]}))
        args = ["simulate", "--config", str(config), "--out", str(tmp_path / "r.json")]
        assert cli.main(args) == cli.EXIT_OK
        resolve = cli._resolve_state
        bad = 2.0 * projector(qmath.KET0)  # the shape of the valid phi, trace 2
        monkeypatch.setattr(
            cli, "_resolve_state", lambda spec, dim, rng, what: bad if what == "phi" else resolve(spec, dim, rng, what)
        )
        for _ in range(2):
            assert cli.main(args) == cli.EXIT_INVARIANT
