import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    TETRA_BLOCH,
    born_product_oracle,
    count_solves,
    mixed_product_povm,
    random_product_povm,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from qchansim import decompose, multiround, protocols, qmath
from qchansim.decompose import (
    DecompositionInfeasibleError,
    enumerate_extremals,
    mixture_system,
    slot_weight_map,
    slot_weights,
    solve_mixture,
)
from qchansim.protocols import (
    BasisBlock,
    MultiSenderProtocol,
    OneRoundProtocol,
    ProtocolError,
    SharedRandomness,
    bit_cost,
    block_basis_protocol,
    block_branch_table,
    blocks_from_product_basis,
    catalog_protocol,
    check_distributions,
    constant_protocol,
    demo_block_basis,
    multi_sender_protocol,
    rac_born_oracle_success,
    rac_classical_best,
    rac_one_bit_bound,
    rac_qubit_success,
    rac_qubit_table,
    rac_success_via_protocol,
    rank1_product_protocol,
    run_analytic,
    run_sampled,
    twist_simulator_protocol,
)
from qchansim.qmath import (
    KET0,
    ProductRank1Effect,
    bloch_to_density,
    born,
    catalog_labels,
    catalog_measurement,
    catalog_product_effects,
    haar_ket,
    ket,
    projector,
    tensor,
)

RT2 = math.sqrt(2.0)
QUBIT_OPTIMUM = 0.5 * (1.0 + 1.0 / RT2)


class TestRunAnalytic:
    def test_constant_protocol_reduces_to_born(self):
        rng = np.random.default_rng(1)
        m = catalog_measurement("comp")
        p = constant_protocol(m)
        for _ in range(10):
            phi = projector(haar_ket(4, rng))
            np.testing.assert_allclose(
                run_analytic(p, qmath.I2 / 2, phi), born(phi, m), atol=1e-14
            )

    def test_encoder_normalization_enforced(self):
        comp = catalog_measurement("comp")
        p = OneRoundProtocol(
            randomness=SharedRandomness.trivial(),
            messages=(0, 1),
            encoder=lambda psi: np.array([[0.7, 0.7]]),
            effects=np.array([[comp.effects, comp.effects]]),
            outcomes=comp.labels,
            cost_bits=1,
        )
        with pytest.raises(ProtocolError):
            run_analytic(p, qmath.I2 / 2, np.eye(4, dtype=complex) / 4)


def random_partial_protocol(seed, n_atoms, n_messages, n_outcomes, dim):
    """A protocol whose decoders each name a random non-empty subset of the outcomes."""
    rng = np.random.default_rng(seed)
    effects = np.zeros((n_atoms, n_messages, n_outcomes, dim, dim), dtype=complex)
    named = np.zeros((n_atoms, n_messages, n_outcomes), dtype=bool)
    for x in range(n_atoms):
        for m in range(n_messages):
            size = rng.integers(1, n_outcomes + 1)
            subset = np.sort(rng.choice(n_outcomes, size=size, replace=False))
            povm = multiround.random_povm(rng, len(subset), dim)
            effects[x, m, subset] = povm.effects
            named[x, m, subset] = True
    encoder = rng.dirichlet(np.ones(n_messages), size=n_atoms)
    encoder[rng.random(encoder.shape) < 0.25] = 0.0  # some messages never sent
    encoder[:, 0] += 1.0 - encoder.sum(axis=1)
    atoms = rng.dirichlet(np.ones(n_atoms))
    protocol = OneRoundProtocol(
        randomness=SharedRandomness(probabilities=tuple(atoms / atoms.sum())),
        messages=tuple(range(n_messages)),
        encoder=lambda psi: encoder,
        effects=effects,
        outcomes=tuple(f"o{o}" for o in range(n_outcomes)),
        cost_bits=bit_cost(n_messages),
        named=named,
    )
    return protocol, projector(haar_ket(dim, rng))


class TestTensorRunners:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_atoms=st.integers(1, 3),
        n_messages=st.integers(1, 4),
        n_outcomes=st.integers(1, 4),
        dim=st.integers(2, 4),
    )
    def test_runners_match_per_message_born_loop(self, seed, n_atoms, n_messages, n_outcomes, dim):
        p, phi = random_partial_protocol(seed, n_atoms, n_messages, n_outcomes, dim)
        atoms = p.randomness.probabilities
        encoder = p.encoder_matrix(None)
        expected = np.zeros(n_outcomes)
        for x in range(n_atoms):
            for m in range(n_messages):
                for o in np.flatnonzero(p.named[x, m]):
                    born_p = np.trace(phi @ p.effects[x, m, o]).real
                    expected[o] += atoms[x] * encoder[x, m] * born_p
        np.testing.assert_allclose(run_analytic(p, None, phi), expected, rtol=0, atol=1e-12)

        # Sampling: one multinomial over the sent (atom, message) pairs, then one
        # per drawn pair over the outcomes its decoder names, in outcome order.
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        pairs = [
            (x, m) for x in range(n_atoms) for m in range(n_messages) if atoms[x] * encoder[x, m] > 0
        ]
        weights = np.array([atoms[x] * encoder[x, m] for x, m in pairs])
        counts = np.zeros(n_outcomes)
        for (x, m), count in zip(pairs, rng.multinomial(500, weights / weights.sum())):
            if count:
                slots = np.flatnonzero(p.named[x, m])
                probs = [np.trace(phi @ p.effects[x, m, o]).real for o in slots]
                probs = np.clip(probs, 0.0, None)
                counts[slots] += rng.multinomial(count, probs / probs.sum())
        np.testing.assert_array_equal(run_sampled(p, None, phi, 500, seed)[0], counts / 500)


class TestConstructionChecks:
    def _protocol(self, effects, encoder=lambda psi: np.ones((1, 1)), outcomes=(0, 1)):
        return OneRoundProtocol(
            randomness=SharedRandomness.trivial(),
            messages=("go",),
            encoder=encoder,
            effects=effects,
            outcomes=outcomes,
            cost_bits=0,
        )

    def test_incomplete_effects_are_rejected(self):
        effects = np.array([[[projector(KET0), 0.5 * projector(qmath.KET1)]]])
        with pytest.raises(qmath.QmathError):
            self._protocol(effects)

    def test_effect_that_is_not_psd_is_rejected(self):
        # Sums to the identity with eigenvalues at most 1, but the first is -0.2.
        diagonals = ([-0.2, 0.5], [0.6, 0.25], [0.6, 0.25])
        effects = np.array([[[np.diag(d).astype(complex) for d in diagonals]]])
        with pytest.raises(qmath.QmathError):
            self._protocol(effects, outcomes=(0, 1, 2))

    def test_effect_that_is_not_hermitian_is_rejected(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(qmath.QmathError):
            self._protocol(np.array([[[skew, qmath.I2 - skew]]]))

    def test_encoder_of_the_wrong_shape_is_rejected(self):
        effects = np.array([[[projector(KET0), projector(qmath.KET1)]]])
        for wrong in (np.ones(1), np.ones((1, 2)) / 2, np.ones((2, 1))):
            p = self._protocol(effects, encoder=lambda psi, wrong=wrong: wrong)
            with pytest.raises(ProtocolError):
                run_analytic(p, qmath.I2 / 2, qmath.I2 / 2)

    def test_effects_of_the_wrong_shape_are_rejected(self):
        effects = np.array([[[projector(KET0), projector(qmath.KET1)]]])
        with pytest.raises(ProtocolError):
            self._protocol(effects[:, :, :1])

    def test_repeated_outcome_labels_are_rejected(self):
        effects = np.array([[[projector(KET0), projector(qmath.KET1)]]])
        with pytest.raises(ProtocolError, match="repeat"):
            self._protocol(effects, outcomes=("a", "a"))


class TestRankOneProductProtocol:
    def test_twisted_butterfly_matches_born(self):
        rng = np.random.default_rng(3)
        joint = catalog_product_effects("tb")
        protocol = rank1_product_protocol(joint, labels=catalog_labels("tb"))
        for _ in range(50):
            psi = projector(haar_ket(2, rng))
            phi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                run_analytic(protocol, psi, phi),
                born_product_oracle(joint, psi, phi),
                atol=1e-10,
            )

    def test_twisted_butterfly_costs_two_bits(self):
        assert catalog_protocol("tb").cost_bits == 2

    def test_computational_basis_costs_one_bit(self):
        protocol = catalog_protocol("comp")
        assert protocol.cost_bits == 1
        assert protocol.n_messages == 2
        rng = np.random.default_rng(5)
        joint = catalog_product_effects("comp")
        for _ in range(20):
            psi = projector(haar_ket(2, rng))
            phi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                run_analytic(protocol, psi, phi),
                born_product_oracle(joint, psi, phi),
                atol=1e-10,
            )

    def test_tilted_measurements_cost_two_bits(self):
        assert catalog_protocol("twistA").cost_bits == 2
        assert catalog_protocol("twistB").cost_bits == 1

    def test_random_product_measurements(self):
        rng = np.random.default_rng(7)
        for kinds in [("basis", "basis"), ("trine", "basis"), ("basis", "trine")]:
            joint = random_product_povm(rng, kinds)
            protocol = rank1_product_protocol(joint)
            for _ in range(10):
                psi = projector(haar_ket(2, rng))
                phi = projector(haar_ket(2, rng))
                np.testing.assert_allclose(
                    run_analytic(protocol, psi, phi),
                    born_product_oracle(joint, psi, phi),
                    atol=1e-10,
                )

    def test_six_outcome_random_measurement(self):
        rng = np.random.default_rng(11)
        joint = mixed_product_povm(rng)
        protocol = rank1_product_protocol(joint)
        psi = projector(haar_ket(2, rng))
        phi = projector(haar_ket(2, rng))
        np.testing.assert_allclose(
            run_analytic(protocol, psi, phi),
            born_product_oracle(joint, psi, phi),
            atol=1e-10,
        )

    @pytest.mark.parametrize(
        "source",
        ["comp", "twistA", "twistB", "tb", ("basis", "trine"), ("trine", "basis"), ("basis", "tetra")],
    )
    def test_encoder_equals_solve_mixture(self, source):
        rng = np.random.default_rng(37)
        joint = catalog_product_effects(source) if isinstance(source, str) else random_product_povm(rng, source)
        protocol = rank1_product_protocol(joint)
        by_support = {e.support: e for e in enumerate_extremals([projector(e.factors[1]) for e in joint])}
        family = [by_support[support] for support in protocol.messages]
        slot_map, system = slot_weight_map(joint), mixture_system(len(joint), family)
        for _ in range(20):
            psi = projector(haar_ket(2, rng))
            expected = solve_mixture(system, slot_weights(slot_map, psi))[None, :]
            np.testing.assert_array_equal(protocol.encoder(psi), expected)

    def test_encoder_rejects_a_sender_state_that_is_not_one(self):
        protocol = catalog_protocol("tb")
        with pytest.raises(qmath.QmathError):
            protocol.encoder(np.eye(2))
        with pytest.raises(qmath.QmathError):
            protocol.encoder(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(qmath.DimensionError):
            protocol.encoder(np.eye(4) / 4)

    def test_large_family_matches_born_on_its_sender_first_alphabet(self):
        rng = np.random.default_rng(13)
        joint = random_product_povm(rng, ("tetra", "tetra"))
        protocol = rank1_product_protocol(joint)
        assert protocol.n_messages == 4
        psi = projector(haar_ket(2, rng))
        phi = projector(haar_ket(2, rng))
        np.testing.assert_allclose(
            run_analytic(protocol, psi, phi),
            born_product_oracle(joint, psi, phi),
            atol=1e-10,
        )


AXIS_STATES = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

# Local measurement pairs of helpers.random_product_povm; the (tetra, tetra) pair is left
# out to keep the probe-rule and property tests short;
# TestMessageFamily.test_product_family_prunes_to_the_sender_outcomes covers it.
KIND_PAIRS = [
    (left, right)
    for left in ("basis", "trine", "tetra")
    for right in ("basis", "trine", "tetra")
    if (left, right) != ("tetra", "tetra")
]


def probe_states(dim):
    """The probe rule's states: the six axis states (qubit senders) and 54 Haar states from a fixed seed."""
    rng = np.random.default_rng(0xA11CE)
    probes = [bloch_to_density(v) for v in AXIS_STATES] if dim == 2 else []
    return probes + [projector(haar_ket(dim, rng)) for _ in range(54)]


def sender_first_supports(joint, kinds):
    """Supports of the family members that stay inside one sender outcome of ``random_product_povm``.

    Its slots run over the receiver's outcomes within each sender outcome,
    so slot i belongs to sender outcome i // (the receiver's outcome count).
    """
    n_receiver = {"basis": 2, "trine": 3, "tetra": 4}[kinds[1]]
    family = enumerate_extremals([projector(e.factors[1]) for e in joint])
    return [e.support for e in family if len({i // n_receiver for i in e.support}) == 1]


# Pairs whose families have no certified subfamily among the first
# decompose._VERTEX_ENUM_LIMIT, so the probe rule kept them whole and
# message_system falls through to the sender-first candidate.
SENDER_FIRST_PAIRS = {("trine", "tetra"), ("tetra", "trine")}


def probe_rule_family(slot_map):
    """Reference copy of the former alphabet pruning, which checked probe states only.

    The first subfamily, by ascending size and among the first
    ``decompose._VERTEX_ENUM_LIMIT``, over which ``solve_mixture`` decomposes
    the six axis states (qubit senders) and 54 Haar states drawn from a fixed
    seed, each subfamily with its own mixture system.
    """
    family = tuple(enumerate_extremals(slot_map.receiver))
    targets = [slot_weights(slot_map, psi) for psi in probe_states(slot_map.sender.shape[-1])]

    def decomposes(system, weights):
        try:
            solve_mixture(system, weights)
        except DecompositionInfeasibleError:
            return False
        return True

    subfamilies = itertools.chain.from_iterable(
        itertools.combinations(family, size) for size in range(1, len(family))
    )
    for subfamily in itertools.islice(subfamilies, decompose._VERTEX_ENUM_LIMIT):
        system = mixture_system(len(slot_map.weights), subfamily)
        if all(decomposes(system, t) for t in targets):
            return subfamily
    return family


class TestMessageFamily:
    def test_certificate_chooses_what_the_probe_rule_chose(self):
        shift = catalog_product_effects("shift")
        first_sender = slot_weight_map(protocols._peel_pairs(shift))
        slot_maps = [slot_weight_map(catalog_product_effects(n)) for n in ("comp", "twistA", "twistB", "tb")]
        slot_maps.append(first_sender)
        for ext in probe_rule_family(first_sender):
            branch = [ProductRank1Effect(weight=w, factors=shift[i].factors[1:])
                      for i, w in zip(ext.support, ext.weights)]
            slot_maps.append(slot_weight_map(branch))
        moved = []
        for seed in (0, 1):
            for kinds in KIND_PAIRS:
                joint = random_product_povm(np.random.default_rng(seed), kinds)
                if kinds in SENDER_FIRST_PAIRS:
                    moved.append((joint, kinds))
                else:
                    slot_maps.append(slot_weight_map(joint))
        assert len(slot_maps) == 21 and len(moved) == 4
        for slot_map in slot_maps:
            chosen = [e.support for e in decompose.message_system(slot_map).extremals]
            assert chosen == [e.support for e in probe_rule_family(slot_map)]
        for joint, kinds in moved:
            slot_map = slot_weight_map(joint)
            system = decompose.message_system(slot_map)
            assert [e.support for e in system.extremals] == sender_first_supports(joint, kinds)
            for psi in probe_states(2):
                solve_mixture(system, slot_weights(slot_map, psi))

    @pytest.mark.parametrize(
        "kinds, n_family, n_messages",
        [
            (("trine", "trine"), 27, 3),
            (("tetra", "tetra"), 256, 4),
            (("trine", "tetra"), 81, 3),
            (("tetra", "trine"), 64, 4),
        ],
        ids=["trine-trine", "tetra-tetra", "trine-tetra", "tetra-trine"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_product_family_prunes_to_the_sender_outcomes(self, kinds, n_family, n_messages, seed):
        # The scan certifies the (trine, trine) alphabet; the other three families have no
        # certified subfamily among the scan's first 3,000 and take the sender-first candidate.
        joint = random_product_povm(np.random.default_rng(seed), kinds)
        assert len(enumerate_extremals([projector(e.factors[1]) for e in joint])) == n_family
        protocol = rank1_product_protocol(joint)
        assert protocol.n_messages == n_messages
        assert protocol.cost_bits == 2
        assert list(protocol.messages) == sender_first_supports(joint, kinds)
        # Few enough candidate supports for the exact vertex search: no NNLS solve.
        assert decompose.message_system(slot_weight_map(joint)).supports is not None
        rng = np.random.default_rng(100 + seed)
        states = [bloch_to_density(v) for v in AXIS_STATES]
        states += [projector(haar_ket(2, rng)) for _ in range(10)]
        for psi in states:
            phi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                run_analytic(protocol, psi, phi), born_product_oracle(joint, psi, phi), atol=1e-10
            )

    @settings(max_examples=30, deadline=None)
    @given(
        source=st.sampled_from(KIND_PAIRS + ["mixed"]),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["pure", "mixed", "axis"]),
        p=st.floats(0.0, 1.0),
    )
    def test_pruned_protocol_matches_born_on_every_state(self, source, seed, kind, p):
        rng = np.random.default_rng(seed)
        joint = mixed_product_povm(rng) if source == "mixed" else random_product_povm(rng, source)
        protocol = rank1_product_protocol(joint)
        if kind == "axis":
            psi = bloch_to_density(AXIS_STATES[rng.integers(len(AXIS_STATES))])
        else:
            psi = projector(haar_ket(2, rng))
            if kind == "mixed":
                psi = p * psi + (1.0 - p) * qmath.I2 / 2
        phi = projector(haar_ket(2, rng))
        np.testing.assert_allclose(
            run_analytic(protocol, psi, phi), born_product_oracle(joint, psi, phi), atol=1e-10
        )


def tetra_product_effects():
    """The 256-member tetrahedral product family: both parties measure the same tetrahedron."""
    tetra = [qmath.bloch_to_ket(np.asarray(b) / math.sqrt(3.0)) for b in TETRA_BLOCH]
    return [ProductRank1Effect(weight=0.25, factors=(a, b)) for a in tetra for b in tetra]


# Every alphabet that message_system certifies with independent columns.  tb and twistA are
# left out: they keep their whole 4-member family, of rank 3, so their mixtures are not
# unique and pinv(A) G has negative eigenvalues (about -0.13 and -0.10), which is no sender
# measurement.
INDEPENDENT_ALPHABETS = [
    pytest.param(catalog_product_effects(name), catalog_labels(name), id=name) for name in ("comp", "twistB")
] + [pytest.param(tetra_product_effects(), None, id="tetra256")] + [
    pytest.param(random_product_povm(np.random.default_rng(seed), (left, right)), None,
                 id=f"{left}-{right}-{seed}")
    for left in ("basis", "trine", "tetra")
    for right in ("basis", "trine", "tetra")
    for seed in range(6)
]


def identity_deviation(q, effects, joint, labels, outcomes):
    """The largest entry of sum_j Q_j (x) effects[0, j, o] minus outcome o's summed target effect."""
    deviation = 0.0
    for o, label in enumerate(outcomes):
        target = sum(e.matrix() for e, term_label in zip(joint, labels) if term_label == label)
        simulated = sum(np.kron(q_j, effects[0, j, o]) for j, q_j in enumerate(q))
        deviation = max(deviation, np.max(np.abs(simulated - target)))
    return deviation


class TestSenderOperators:
    @pytest.mark.parametrize("joint, labels", INDEPENDENT_ALPHABETS)
    def test_certified_alphabet_reproduces_every_target_effect(self, joint, labels):
        # With independent columns the mixture is unique: mu_j = tr(Q_j psi), Q = pinv(A) G, and
        # the sender in effect measures {Q_j}.  So sum_j Q_j (x) F_{j,o} = E_o proves equal
        # statistics for every sender state and every receiver state, entangled ones included.
        protocol = rank1_product_protocol(joint, labels)
        slot_map = slot_weight_map(joint)
        system = decompose.message_system(slot_map)
        assert list(protocol.messages) == [e.support for e in system.extremals]
        assert np.linalg.matrix_rank(system.matrix) == system.matrix.shape[1]
        d = slot_map.sender.shape[-1]
        g = np.concatenate([slot_map.weights[:, None, None] * slot_map.sender, np.eye(d)[None]])
        q = np.tensordot(np.linalg.pinv(system.matrix), g, 1)
        assert np.linalg.eigvalsh(q).min() >= -decompose.SIGN_TOL
        labels = range(len(joint)) if labels is None else labels
        assert identity_deviation(q, protocol.effects, joint, labels, protocol.outcomes) <= 1e-12
        perturbed = protocol.effects.copy()
        perturbed[0, 0, 0] += 1e-6 * qmath.SIGMA_X
        assert identity_deviation(q, perturbed, joint, labels, protocol.outcomes) > 1e-12


class TestRunSampled:
    def test_same_seed_is_reproducible(self):
        protocol = catalog_protocol("tb")
        psi = projector(ket(1, 1j))
        phi = projector(ket(2, 1))
        a, _ = run_sampled(protocol, psi, phi, 2000, seed=42)
        b, _ = run_sampled(protocol, psi, phi, 2000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_matches_analytic_within_four_sigma(self):
        rng = np.random.default_rng(17)
        joint = catalog_product_effects("tb")
        protocol = rank1_product_protocol(joint, labels=catalog_labels("tb"))
        psi = projector(haar_ket(2, rng))
        phi = projector(haar_ket(2, rng))
        n = 10**6
        analytic = run_analytic(protocol, psi, phi)
        freqs, _ = run_sampled(protocol, psi, phi, n, seed=7)
        sigma = np.sqrt(np.clip(analytic * (1 - analytic), 1e-12, None) / n)
        assert np.all(np.abs(freqs - analytic) <= 4.0 * sigma)

    def test_deterministic_branch_is_exact(self):
        # Point-mass encoder and an eigenstate receiver: sampling has no noise.
        m = qmath.Povm.from_effects([projector(KET0), projector(qmath.KET1)])
        p = constant_protocol(m)
        freqs, stderr = run_sampled(p, qmath.I2 / 2, projector(KET0), 1000, seed=1)
        np.testing.assert_array_equal(freqs, born(projector(KET0), m))
        np.testing.assert_array_equal(stderr, [0.0, 0.0])


def counting_protocol(encoder=None):
    """A two-message protocol on a qubit sender, and the list of states its encoder saw."""
    seen = []

    def default(psi):
        p0 = float(np.real(np.ravel(psi)[0]))
        return np.array([[p0, 1.0 - p0]])

    def counting(psi):
        seen.append(psi)
        return (encoder or default)(psi)

    comp = catalog_measurement("comp")
    protocol = OneRoundProtocol(
        randomness=SharedRandomness.trivial(),
        messages=(0, 1),
        encoder=counting,
        effects=np.array([[comp.effects, comp.effects]]),
        outcomes=comp.labels,
        cost_bits=1,
    )
    return protocol, seen


def tetra_product_protocol():
    return rank1_product_protocol(tetra_product_effects())


def shift_protocol(config="A"):
    return multi_sender_protocol(catalog_product_effects("shift"), config, catalog_labels("shift"))


@functools.cache
def memo_protocols():
    """(protocol, oracle, two senders?) for tb, shift A and the tetrahedral family, built once.

    Each protocol keeps its memo from one Hypothesis example to the next; the
    oracle's raw ``encoder`` has no memo.
    """
    return (
        (catalog_protocol("tb"), catalog_protocol("tb"), False),
        (shift_protocol("A"), shift_protocol("A"), True),
        (tetra_product_protocol(), tetra_product_protocol(), False),
    )


class TestEncoderMemo:
    def test_runners_on_one_state_evaluate_once(self):
        p, seen = counting_protocol()
        rng = np.random.default_rng(3)
        psi, phi = projector(haar_ket(2, rng)), projector(haar_ket(4, rng))
        analytic = run_analytic(p, psi, phi)
        run_sampled(p, psi, phi, 500, seed=1)
        # An equal array, not the same object, is the same state.
        np.testing.assert_array_equal(run_analytic(p, psi.copy(), phi), analytic)
        assert len(seen) == 1

    def test_changed_state_evaluates_again(self):
        p, seen = counting_protocol()
        psi = projector(ket(1, 1))
        p.encoder_matrix(psi)
        psi[0, 0] = 0.25  # in place: same object, new bytes
        p.encoder_matrix(psi)
        p.encoder_matrix(psi.astype(np.complex64))
        p.encoder_matrix(psi.reshape(4))
        p.encoder_matrix([psi])
        assert len(seen) == 5
        np.testing.assert_array_equal(p.encoder_matrix(psi), [[0.25, 0.75]])
        assert len(seen) == 6

    def test_only_the_last_state_is_kept(self):
        p, seen = counting_protocol()
        a, b = projector(KET0), projector(ket(1, 1))
        for psi in (a, a, b, b, a):
            p.encoder_matrix(psi)
        assert len(seen) == 3

    def test_raising_encoder_raises_on_every_call_and_keeps_nothing(self):
        def encoder(psi):
            if np.real(psi[0, 0]) < 0.5:
                raise ProtocolError("no table for this state")
            return np.array([[1.0, 0.0]])

        p, seen = counting_protocol(encoder)
        good, bad = projector(KET0), projector(qmath.KET1)
        p.encoder_matrix(good)
        for _ in range(2):
            with pytest.raises(ProtocolError, match="no table"):
                p.encoder_matrix(bad)
        p.encoder_matrix(good)
        assert len(seen) == 3

    def test_unchecked_encoder_output_is_rejected_on_every_call(self):
        p, seen = counting_protocol(lambda psi: np.array([[0.7, 0.7]]))
        for _ in range(2):
            with pytest.raises(ProtocolError, match="not a probability distribution"):
                p.encoder_matrix(projector(KET0))
        assert len(seen) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_encoder_output_is_rejected_on_every_call(self, bad):
        p, seen = counting_protocol(lambda psi: np.array([[bad, 1.0]]))
        for _ in range(2):
            with pytest.raises(ProtocolError, match="non-finite"):
                p.encoder_matrix(projector(KET0))
        assert len(seen) == 2

    def test_non_finite_distributions_are_rejected(self):
        # NaN passes both the normalisation and the sign comparison.
        for dist in ([[math.nan, 0.5, 0.5]], [[math.inf, -math.inf, 1.0]]):
            with np.errstate(invalid="ignore"), pytest.raises(ProtocolError, match="non-finite"):
                check_distributions(dist, (1, 3), "table")

    def test_table_is_read_only(self):
        p, _ = counting_protocol()
        psi = projector(KET0)
        table = p.encoder_matrix(psi)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5
        assert p.encoder_matrix(psi) is table

    def test_state_without_a_key_runs_the_encoder_every_time(self):
        p = constant_protocol(catalog_measurement("comp"))
        for _ in range(2):
            np.testing.assert_array_equal(p.encoder_matrix(None), [[1.0]])
        counted, seen = counting_protocol()
        for _ in range(2):
            counted.encoder_matrix([[1.0, 0.0], [0.0, 0.0]])
        assert len(seen) == 2

    def test_vertex_search_protocol_solves_once_per_state(self, monkeypatch):
        p = catalog_protocol("tb")
        calls = count_solves(monkeypatch)
        rng = np.random.default_rng(5)
        psi, phi = projector(haar_ket(2, rng)), projector(haar_ket(2, rng))
        run_analytic(p, psi, phi)
        run_sampled(p, psi, phi, 1000, seed=2)
        assert len(calls) == 1
        psi[1, 1] += 0.0  # no change of bytes
        run_analytic(p, psi, phi)
        assert len(calls) == 1

    def test_multi_sender_protocol_solves_once_per_state_pair(self, monkeypatch):
        p = shift_protocol("A")
        calls = count_solves(monkeypatch)
        rng = np.random.default_rng(9)
        states = [projector(haar_ket(2, rng)) for _ in range(2)]
        phi = projector(haar_ket(2, rng))
        p.run_analytic(states, phi)
        first = len(calls)
        assert first >= 2  # the first sender, then every branch it weights
        p.run_sampled(list(states), phi, 1000, seed=3)
        p.run_analytic(tuple(states), phi)
        assert len(calls) == first
        states[1][...] = projector(haar_ket(2, rng))  # in place: same list, new bytes
        p.run_analytic(states, phi)
        assert len(calls) > first

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    )
    def test_interleaved_states_match_fresh_encoder_bit_for_bit(self, seed, order):
        rng = np.random.default_rng(seed)
        kets = [haar_ket(2, rng) for _ in range(6)]
        singles = [projector(k) for k in kets[:3]]
        pairs = [[projector(a), projector(b)] for a, b in zip(kets[:3], kets[3:])]
        for p, oracle, two_senders in memo_protocols():
            states = pairs if two_senders else singles
            expected = [check_distributions(oracle.encoder(s), p.shape[:2], "oracle") for s in states]
            for i in order:
                np.testing.assert_array_equal(p.encoder_matrix(states[i]), expected[i])


class TestPerStateWork:
    def test_encoders_run_no_lstsq_per_state(self, monkeypatch):
        # Built first: enumerate_extremals still runs lstsq while a protocol is built.
        singles, shift = [catalog_protocol(name) for name in ("tb", "twistA", "comp")], shift_protocol("A")

        def lstsq_forbidden(*args, **kwargs):
            raise AssertionError("an encoder ran lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq_forbidden)
        rng = np.random.default_rng(23)
        for _ in range(20):
            psi = projector(haar_ket(2, rng))
            for protocol in singles:
                protocol.encoder(psi)
            shift.encoder([psi, projector(haar_ket(2, rng))])


class TestBlockBasisProtocol:
    def demo_povm(self):
        blocks = demo_block_basis()
        effects, labels = [], []
        for i, b in enumerate(blocks):
            for j, v in enumerate(b.bob_bit0):
                effects.append(projector(tensor(b.alice, v)))
                labels.append((i, 0, j))
            for j, v in enumerate(b.bob_bit1):
                effects.append(projector(tensor(b.alice_perp, v)))
                labels.append((i, 1, j))
        return qmath.Povm(effects=tuple(effects), labels=tuple(labels))

    def test_three_blocks_cost_three_bits(self):
        protocol = block_basis_protocol(demo_block_basis())
        assert protocol.cost_bits == 3
        assert protocol.n_messages == 8

    def test_worked_point(self):
        # Known sender state |0>, receiver basis state 2: only the x-basis
        # block fires, splitting 1/2 : 1/4 : 1/4.
        protocol = block_basis_protocol(demo_block_basis())
        e2 = np.zeros(6, dtype=complex)
        e2[2] = 1.0
        dist = run_analytic(protocol, projector(KET0), projector(e2))
        expected = {(1, 0, 0): 0.5, (1, 1, 0): 0.25, (1, 1, 1): 0.25}
        for label, p in zip(protocol.outcomes, dist):
            np.testing.assert_allclose(p, expected.get(label, 0.0), atol=1e-12)

    def test_matches_born_for_random_states(self):
        rng = np.random.default_rng(19)
        protocol = block_basis_protocol(demo_block_basis())
        povm = self.demo_povm()
        order = [povm.labels.index(label) for label in protocol.outcomes]
        for _ in range(50):
            psi = projector(haar_ket(2, rng))
            phi = projector(haar_ket(6, rng))
            np.testing.assert_allclose(
                run_analytic(protocol, psi, phi),
                born(tensor(psi, phi), povm)[order],
                atol=1e-12,
            )

    def test_single_block_costs_one_bit(self):
        basis = np.eye(3, dtype=complex)
        block = BasisBlock(
            alice=ket(1, 0),
            bob_bit0=tuple(basis),
            bob_bit1=tuple(basis),
        )
        assert block_basis_protocol([block]).cost_bits == 1

    def test_branch_table_structure(self):
        blocks = demo_block_basis()
        table = block_branch_table(blocks)
        assert [row["block"] for row in table] == [0, 1, 2]
        # Subspace selectors pick out coordinate pairs (0,1), (2,3), (4,5).
        for i, row in enumerate(table):
            expected = np.zeros((6, 6))
            expected[2 * i, 2 * i] = expected[2 * i + 1, 2 * i + 1] = 1.0
            np.testing.assert_allclose(row["subspace_projector"], expected, atol=1e-12)
        # Sender bases are the z, x, y eigenbases.
        np.testing.assert_allclose(table[0]["alice_basis"][0], ket(1, 0), atol=1e-12)
        np.testing.assert_allclose(table[1]["alice_basis"][0], ket(1, 1), atol=1e-12)
        np.testing.assert_allclose(table[2]["alice_basis"][0], ket(1, 1j), atol=1e-12)

    def test_block_discovery_round_trip(self):
        blocks = demo_block_basis()
        pairs = []
        for b in blocks:
            pairs.extend((b.alice, v) for v in b.bob_bit0)
            pairs.extend((b.alice_perp, v) for v in b.bob_bit1)
        recovered = blocks_from_product_basis(pairs)
        assert len(recovered) == 3
        protocol = block_basis_protocol(recovered)
        assert protocol.cost_bits == 3

    def test_rejects_non_orthonormal(self):
        basis = np.eye(2, dtype=complex)
        bad = BasisBlock(
            alice=ket(1, 0),
            bob_bit0=tuple(basis),
            bob_bit1=(ket(1, 0), ket(1, 1)),
        )
        with pytest.raises(ProtocolError):
            block_basis_protocol([bad])


def per_label_sums(values, labels) -> list[float]:
    """Per-slot values summed per label, labels in first-seen order."""
    sums: dict = {}
    for value, label in zip(values, labels):
        sums[label] = sums.get(label, 0.0) + value
    return list(sums.values())


class TestSeparableOutcomes:
    """Product terms that share a label are one outcome of the one product path."""

    def test_twisted_butterfly_grouping(self):
        rng = np.random.default_rng(29)
        joint = catalog_product_effects("tb")
        labels = [label[0] for label in catalog_labels("tb")]  # {1}, {21, 22}, {31, 32}
        grouped, per_term = rank1_product_protocol(joint, labels), rank1_product_protocol(joint)
        assert grouped.outcomes == ("1", "2", "3")
        assert grouped.messages == per_term.messages
        assert grouped.cost_bits == per_term.cost_bits == 2
        np.testing.assert_allclose(
            grouped.effects[:, :, 1], per_term.effects[:, :, 1] + per_term.effects[:, :, 2], atol=1e-15
        )
        for _ in range(20):
            psi, phi = projector(haar_ket(2, rng)), projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                run_analytic(grouped, psi, phi),
                per_label_sums(born_product_oracle(joint, psi, phi), labels),
                atol=1e-10,
            )

    def test_one_label_per_term_is_the_product_protocol(self):
        labelled, default = catalog_protocol("comp"), rank1_product_protocol(catalog_product_effects("comp"))
        assert labelled.outcomes == catalog_labels("comp")
        assert default.outcomes == (0, 1, 2, 3)
        np.testing.assert_array_equal(labelled.effects, default.effects)
        assert labelled.effects.strides == default.effects.strides

    @pytest.mark.parametrize("config", ["A", "B"])
    def test_shift_grouped_in_three_matches_born(self, config):
        rng = np.random.default_rng(23)
        joint = catalog_product_effects("shift")
        labels = [0, 1, 2, 0, 1, 2, 0, 2]  # terms {0, 3, 6}, {1, 4} and {2, 5, 7}
        protocol = multi_sender_protocol(joint, config, labels)
        assert protocol.outcomes == (0, 1, 2)
        groups = [[e.matrix() for e, label in zip(joint, labels) if label == g] for g in range(3)]
        povm = qmath.Povm.from_effects([sum(g) for g in groups])
        for _ in range(20):
            states = [projector(haar_ket(2, rng)) for _ in range(3)]
            np.testing.assert_allclose(
                protocol.run_analytic(states[:2], states[2]), born(tensor(*states), povm), atol=1e-10
            )

    def test_incomplete_term_list_is_rejected(self):
        joint = catalog_product_effects("comp")
        with pytest.raises(qmath.QmathError):
            rank1_product_protocol(joint[:-1], [0, 1, 1])
        with pytest.raises(ProtocolError, match="labels"):
            rank1_product_protocol(joint, [0, 1, 1])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.sampled_from(KIND_PAIRS),
        slot_labels=st.lists(st.integers(0, 3), min_size=12, max_size=12),
        distinct=st.permutations(range(12)),
    )
    def test_grouped_outcomes_are_per_label_born_sums(self, seed, kinds, slot_labels, distinct):
        rng = np.random.default_rng(seed)
        joint = random_product_povm(rng, kinds)
        labels = slot_labels[: len(joint)]
        grouped = rank1_product_protocol(joint, labels)
        assert grouped.outcomes == tuple(dict.fromkeys(labels))
        for _ in range(3):
            psi, phi = projector(haar_ket(2, rng)), projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                run_analytic(grouped, psi, phi),
                per_label_sums(born_product_oracle(joint, psi, phi), labels),
                rtol=0,
                atol=1e-10,
            )
        relabelled = rank1_product_protocol(joint, distinct[: len(joint)])
        default = rank1_product_protocol(joint)
        for name in ("effects", "named"):
            mine, theirs = getattr(relabelled, name), getattr(default, name)
            np.testing.assert_array_equal(mine, theirs)
            assert mine.strides == theirs.strides
        # The runners' einsum sums in stride order, so one term per outcome keeps the
        # per-term tensor's values and its memory layout, which is not C order.
        slot_map = slot_weight_map(joint)
        system = decompose.message_system(slot_map)
        per_term = np.array(system.matrix[:-1].T[None, :, :, None, None] * slot_map.receiver, dtype=complex)
        np.testing.assert_array_equal(default.effects, per_term)
        assert default.effects.strides == per_term.strides


class TestMultiSender:
    def shift_povm(self):
        return qmath.catalog_measurement("shift")

    @pytest.mark.parametrize("config", ["A", "B"])
    def test_shift_basis_matches_born(self, config):
        rng = np.random.default_rng(23)
        joint = catalog_product_effects("shift")
        protocol = multi_sender_protocol(joint, config, labels=catalog_labels("shift"))
        povm = self.shift_povm()
        for _ in range(50):
            psi1 = projector(haar_ket(2, rng))
            psi2 = projector(haar_ket(2, rng))
            phi = projector(haar_ket(2, rng))
            state = tensor(psi1, psi2, phi)
            np.testing.assert_allclose(
                protocol.run_analytic([psi1, psi2], phi),
                born(state, povm),
                atol=1e-10,
            )

    def test_config_b_costs_at_least_config_a(self):
        joint = catalog_product_effects("shift")
        a = multi_sender_protocol(joint, "A", labels=catalog_labels("shift"))
        b = multi_sender_protocol(joint, "B", labels=catalog_labels("shift"))
        assert b.cost_bits >= a.cost_bits
        assert b.cost_bits > a.cost_bits  # shift has a branching alphabet

    def test_three_local_bases_one_bit_each(self):
        bases = [
            (ket(1, 0), ket(0, 1)),
            (ket(1, 1), ket(1, -1)),
            (ket(1, 1j), ket(1, -1j)),
        ]
        joint = [
            qmath.ProductRank1Effect(weight=1.0, factors=(a, b, c))
            for a in bases[0]
            for b in bases[1]
            for c in bases[2]
        ]
        protocol = multi_sender_protocol(joint, "A")
        assert protocol.first_bits == 1
        assert all(bits == 1 for bits in protocol.branch_bits)
        assert protocol.cost_bits == 2

        rng = np.random.default_rng(29)
        povm = qmath.Povm.from_effects([e.matrix() for e in joint])
        for _ in range(10):
            psi1 = projector(haar_ket(2, rng))
            psi2 = projector(haar_ket(2, rng))
            phi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                protocol.run_analytic([psi1, psi2], phi),
                born(tensor(psi1, psi2, phi), povm),
                atol=1e-10,
            )

    def test_rejects_bad_config(self):
        with pytest.raises(ProtocolError):
            multi_sender_protocol(catalog_product_effects("shift"), "C")

    @pytest.mark.parametrize("config", ["A", "B"])
    def test_encoder_equals_solve_mixture_times_branch(self, config):
        joint = catalog_product_effects("shift")
        protocol = multi_sender_protocol(joint, config)
        pairs = [
            qmath.ProductRank1Effect(weight=e.weight, factors=(e.factors[0], tensor(*e.factors[1:])))
            for e in joint
        ]
        by_support = {e.support: e for e in enumerate_extremals([projector(p.factors[1]) for p in pairs])}
        family = [by_support[support] for support in dict.fromkeys(s for s, _ in protocol.messages)]
        branches = [
            rank1_product_protocol(
                [qmath.ProductRank1Effect(weight=w, factors=joint[i].factors[1:])
                 for i, w in zip(ext.support, ext.weights)],
                ext.support,
            )
            for ext in family
        ]
        slot_map, system = slot_weight_map(pairs), mixture_system(len(pairs), family)
        rng = np.random.default_rng(41)
        for _ in range(10):
            psi1, psi2 = (projector(haar_ket(2, rng)) for _ in range(2))
            mu = solve_mixture(system, slot_weights(slot_map, psi1))
            expected = np.concatenate([
                c * b.encoder_matrix(psi2)[0] if c > 0.0 else np.zeros(b.n_messages)
                for c, b in zip(mu, branches)
            ])
            np.testing.assert_array_equal(protocol.encoder([psi1, psi2])[0], expected)

    def test_encoder_rejects_a_first_sender_state_that_is_not_one(self):
        protocol = multi_sender_protocol(catalog_product_effects("shift"), "A")
        with pytest.raises(qmath.QmathError):
            protocol.encoder([np.eye(2), qmath.I2 / 2])
        with pytest.raises(qmath.DimensionError):
            protocol.encoder([np.eye(4) / 4, qmath.I2 / 2])

    @pytest.mark.parametrize("config", ["A", "B"])
    def test_sampled_is_reproducible_and_matches_analytic(self, config):
        protocol = multi_sender_protocol(
            catalog_product_effects("shift"), config, labels=catalog_labels("shift")
        )
        rng = np.random.default_rng(31)
        n = 200_000
        for _ in range(3):
            states = [projector(haar_ket(2, rng)) for _ in range(2)]
            phi = projector(haar_ket(2, rng))
            freqs, stderr = protocol.run_sampled(states, phi, n, seed=5)
            again, _ = protocol.run_sampled(states, phi, n, seed=5)
            np.testing.assert_array_equal(freqs, again)
            analytic = protocol.run_analytic(states, phi)
            sigma = np.sqrt(np.clip(analytic * (1 - analytic), 1e-12, None) / n)
            assert np.all(np.abs(freqs - analytic) <= 6.0 * sigma)
            assert abs(freqs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("count", [1, 3])
    def test_needs_one_state_per_sender(self, count):
        protocol = multi_sender_protocol(catalog_product_effects("shift"), "A")
        states = [projector(KET0)] * count
        with pytest.raises(ProtocolError):
            run_analytic(protocol, states, projector(KET0))
        with pytest.raises(ProtocolError):
            protocol.run_sampled(states, projector(KET0), 100, seed=1)

    def test_four_party_residual_is_rejected(self):
        # Peeling one of four qubit parties leaves an 8-dimensional residual,
        # above what the extremal enumeration supports, so every branch of a
        # multi-sender protocol is a two-party protocol.
        basis = (KET0, qmath.KET1)
        joint = [
            qmath.ProductRank1Effect(weight=1.0, factors=(a, b, c, d))
            for a in basis for b in basis for c in basis for d in basis
        ]
        with pytest.raises(qmath.DimensionError):
            multi_sender_protocol(joint, "A")

    def test_is_a_one_round_protocol_with_forwarding_runners(self):
        # The benchmark calls these methods and wraps run_analytic by name.
        protocol = multi_sender_protocol(catalog_product_effects("shift"), "B")
        assert isinstance(protocol, MultiSenderProtocol)
        assert isinstance(protocol, OneRoundProtocol)
        assert "run_analytic" in vars(MultiSenderProtocol)
        assert "run_sampled" in vars(MultiSenderProtocol)


class TestRac:
    def test_classical_maximum_is_three_quarters(self):
        best, argmax = rac_classical_best()
        assert best == Fraction(3, 4)
        # "Send x0, always answer the message" is among the maximizers.
        send_x0 = (0, 0, 1, 1)  # encoder over (x0,x1) in lex order
        echo = (0, 0, 1, 1)  # decoder over (m,y) in lex order
        assert (send_x0, echo) in argmax

    def test_constant_strategy_is_a_coin_flip(self):
        # Send 0 always, guess 0 always: correct exactly when x_y = 0.
        hits = sum((x0, x1)[y] == 0 for x0 in (0, 1) for x1 in (0, 1) for y in (0, 1))
        assert Fraction(hits, 8) == Fraction(1, 2)

    def test_qubit_success(self):
        assert abs(rac_qubit_success() - (2 + RT2) / 4) <= 1e-12

    def test_qubit_per_instance_success_is_uniform(self):
        table = rac_qubit_table()
        values = list(table.values())
        assert max(values) - min(values) <= 1e-12
        assert abs(values[0] - QUBIT_OPTIMUM) <= 1e-12

    def test_unbalanced_tilt_does_worse(self):
        assert rac_qubit_success(theta=0.0) < QUBIT_OPTIMUM - 0.05
        assert rac_qubit_success(theta=math.pi / 3) < QUBIT_OPTIMUM

    def test_born_oracle_reaches_qubit_optimum(self):
        assert abs(rac_born_oracle_success() - QUBIT_OPTIMUM) <= 1e-12

    def test_two_bit_simulator_reaches_qubit_optimum(self):
        protocol = twist_simulator_protocol()
        assert protocol.cost_bits == 2
        assert abs(rac_success_via_protocol(protocol) - QUBIT_OPTIMUM) <= 1e-10

    def test_one_bit_bound(self):
        best, detail = rac_one_bit_bound(n_atoms=8)
        assert best == Fraction(3, 4)
        assert best <= Fraction(3, 4) + Fraction(1, 10**9)
        # Shared randomness mixes per-encoder values and cannot exceed the max.
        rng = np.random.default_rng(31)
        values = list(detail["per_encoder"].values())
        for _ in range(100):
            weights = rng.dirichlet(np.ones(8))
            chosen = rng.choice(len(values), size=8)
            mix = sum(w * float(values[i]) for w, i in zip(weights, chosen))
            assert mix <= 0.75 + 1e-9


class TestBitCost:
    @pytest.mark.parametrize("size,bits", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
    def test_ceil_log2(self, size, bits):
        assert bit_cost(size) == bits
