import dataclasses
import itertools

import numpy as np
import pytest
from helpers import count_coin_evaluations, nested_sum_odd_round, oracle_random_rounds, oracle_state_coin
from hypothesis import given, settings
from hypothesis import strategies as st

from qchansim import multiround, protocols, qmath, serialize
from qchansim.multiround import (
    OddRoundProtocol,
    collapse_odd_rounds,
    collapse_trailing_rounds,
    interactive_twist_protocol,
    pad_leading_sender_round,
    random_odd_round,
    random_three_round,
    run_odd_round,
    run_odd_rounds,
)
from qchansim.protocols import ProtocolError, SharedRandomness, run_analytic
from qchansim.qmath import Instrument, Povm, born, catalog_measurement, haar_ket, projector, tensor


def random_pair(rng):
    return projector(haar_ket(2, rng)), projector(haar_ket(2, rng))


def collapsed_message_count(p):
    """|m_prev| * |m_last|^|replies|, folded from the last exchange to the first."""
    count = len(p.sender_alphabets[-1])
    for sender, receiver in zip(p.sender_alphabets[-2::-1], p.receiver_alphabets[::-1]):
        count = len(sender) * count ** len(receiver)
    return count


class TestRunThreeRound:
    def test_distribution_normalizes(self):
        rng = np.random.default_rng(1)
        p = random_three_round(seed=5, n_m1=2, n_m2=3, n_m3=2, n_outcomes=3)
        for _ in range(10):
            psi, phi = random_pair(rng)
            dist = run_odd_round(p, psi, phi)
            assert abs(dist.sum() - 1.0) <= 1e-12
            assert dist.min() >= -1e-12

    def test_degenerate_wrapper_equals_one_round(self):
        # Trivial instrument and point-mass coins: the three-round protocol is
        # a one-round protocol in disguise.
        rng = np.random.default_rng(3)
        final = multiround.random_povm(np.random.default_rng(11), 3, 2)
        wrapped = OddRoundProtocol(
            randomness=SharedRandomness.trivial(),
            sender_alphabets=((0,), (0,)),
            receiver_alphabets=((0,),),
            outcomes=final.labels,
            coins=(lambda psi, x, tr: np.array([1.0]),) * 2,
            instruments=(lambda x, tr: Instrument(kraus=(np.eye(2, dtype=complex),)),),
            final_povm=lambda x, tr: final,
        )
        plain = protocols.constant_protocol(final)
        for _ in range(10):
            psi, phi = random_pair(rng)
            np.testing.assert_allclose(
                run_odd_round(wrapped, psi, phi),
                run_analytic(plain, psi, phi),
                atol=1e-14,
            )

    def test_interactive_twist_matches_born(self):
        rng = np.random.default_rng(7)
        p = interactive_twist_protocol()
        povm = catalog_measurement("twistA")
        for _ in range(50):
            psi, phi = random_pair(rng)
            np.testing.assert_allclose(
                run_odd_round(p, psi, phi),
                born(tensor(psi, phi), povm),
                atol=1e-12,
            )

    def test_interactive_twist_builds_its_final_measurements_once(self, monkeypatch):
        p = interactive_twist_protocol()
        built = []
        monkeypatch.setattr(qmath.Povm, "__post_init__", built.append)
        run_odd_round(p, *random_pair(np.random.default_rng(3)))
        multiround.tabulate(p)
        assert built == []
        assert p.final_povm(0, (0, 1, 0)) is p.final_povm(0, (0, 1, 0))


class TestCollapse:
    def test_collapse_equality_hundred_random_protocols(self):
        rng = np.random.default_rng(13)
        for k in range(100):
            p = random_three_round(seed=1000 + k, n_m1=2, n_m2=2, n_m3=3, n_outcomes=2)
            collapsed = collapse_odd_rounds(p)
            for _ in range(10):
                psi, phi = random_pair(rng)
                np.testing.assert_allclose(
                    run_analytic(collapsed, psi, phi),
                    run_odd_round(p, psi, phi),
                    atol=1e-12,
                )

    def test_collapse_of_interactive_twist(self):
        rng = np.random.default_rng(17)
        p = interactive_twist_protocol()
        collapsed = collapse_odd_rounds(p)
        povm = catalog_measurement("twistA")
        # One opening message times a planned reply for each of the receiver's
        # two possible reports: alphabet 1 * 2^2, carried in 2 bits.
        assert collapsed.n_messages == 4
        assert collapsed.cost_bits == 2
        for _ in range(20):
            psi, phi = random_pair(rng)
            np.testing.assert_allclose(
                run_analytic(collapsed, psi, phi),
                born(tensor(psi, phi), povm),
                atol=1e-12,
            )

    def test_point_mass_coins_collapse_to_point_mass(self):
        final = multiround.random_povm(np.random.default_rng(23), 2, 2)
        p = OddRoundProtocol(
            randomness=SharedRandomness.trivial(),
            sender_alphabets=((0, 1), (0, 1)),
            receiver_alphabets=((0, 1),),
            outcomes=final.labels,
            coins=(
                lambda psi, x, tr: np.array([0.0, 1.0]),
                lambda psi, x, tr: np.array([1.0, 0.0]) if tr[1] == 0 else np.array([0.0, 1.0]),
            ),
            instruments=(
                lambda x, tr: Instrument(kraus=(projector(qmath.KET0), projector(qmath.KET1))),
            ),
            final_povm=lambda x, tr: final,
        )
        collapsed = collapse_odd_rounds(p)
        dist = collapsed.encoder_matrix(qmath.I2 / 2)[0]
        assert np.count_nonzero(dist) == 1
        chosen = collapsed.messages[int(np.argmax(dist))]
        assert chosen == (1, (0, 1))

    def test_collapsed_alphabet_size_and_cost(self):
        p = random_three_round(seed=77, n_m1=3, n_m2=2, n_m3=3, n_outcomes=2)
        collapsed = collapse_odd_rounds(p)
        assert collapsed.n_messages == 3 * 3**2
        assert collapsed.cost_bits == 5  # ceil(log2 27)

    @settings(max_examples=200, deadline=None)
    @given(
        senders=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        replies=st.lists(st.integers(1, 6), min_size=3, max_size=3),
    )
    def test_closed_form_count_matches_the_fold(self, senders, replies):
        replies = replies[: len(senders) - 1]
        count = senders[-1]
        for size, reply in zip(senders[-2::-1], replies[::-1]):
            count = size * count**reply
        if count <= multiround.MAX_COLLAPSED_MESSAGES:
            assert multiround.collapsed_message_count(senders, replies) == count
        else:
            with pytest.raises(ProtocolError, match="more than 2097152 messages"):
                multiround.collapsed_message_count(senders, replies)

    @pytest.mark.parametrize(
        "senders, replies, count",
        [
            ((3, 3, 3), (3, 3), 1_594_323),
            ((2, 2, 2, 2), (2, 2, 2), 32_768),
            ((1, 2), (21,), 2**21),
            ((1, 1), (10**12,), 1),
            ((2, 1, 10**6), (1, 1), 2 * 10**6),
        ],
        ids=["depth5-ternary", "depth7-binary", "at-the-limit", "unit-alphabets", "large-last-round"],
    )
    def test_counts_within_the_limit(self, senders, replies, count):
        assert multiround.collapsed_message_count(senders, replies) == count

    @pytest.mark.parametrize(
        "senders, replies",
        [((2, 2), (40,)), ((2, 2), (10**12,)), ((2,) * 5, (2,) * 4), ((3,) * 4, (3,) * 3), ((2, 2**21), (1,))],
        ids=["40-replies", "huge-reply-count", "depth9-binary", "depth7-ternary", "one-past-the-limit"],
    )
    def test_counts_past_the_limit_raise(self, senders, replies):
        with pytest.raises(ProtocolError, match="more than 2097152 messages"):
            multiround.collapsed_message_count(senders, replies)

    def test_oversized_protocols_are_refused_before_any_table(self, monkeypatch):
        with pytest.raises(ProtocolError, match="more than"):
            random_three_round(seed=0, n_m2=40)
        with pytest.raises(ProtocolError, match="more than"):
            random_odd_round(seed=0, depth=3, alphabet=1000)
        wide = dataclasses.replace(random_three_round(seed=0), receiver_alphabets=(tuple(range(40)),))
        monkeypatch.setattr(multiround, "tabulate", lambda p: pytest.fail("tabulated"))
        with pytest.raises(ProtocolError, match="more than"):
            collapse_odd_rounds(wide)

    def test_collapse_preserves_atom_count(self):
        p = random_three_round(seed=99, n_atoms=3)
        collapsed = collapse_odd_rounds(p)
        assert len(collapsed.randomness) == len(p.randomness)

    def test_collapsed_interactive_twist_wins_the_access_code(self):
        # The receiver-first two-bit protocol, collapsed to one round, must
        # still reach the qubit value of the 2->1 access code.
        collapsed = collapse_odd_rounds(interactive_twist_protocol())
        success = protocols.rac_success_via_protocol(collapsed)
        assert abs(success - 0.25 * (2.0 + 2.0**0.5)) <= 1e-10


class TestOddRounds:
    def test_five_round_collapse_matches_direct_evaluation(self):
        rng = np.random.default_rng(31)
        p = random_odd_round(seed=41, depth=5)
        collapsed = collapse_odd_rounds(p)
        for _ in range(10):
            psi, phi = random_pair(rng)
            np.testing.assert_allclose(
                run_analytic(collapsed, psi, phi),
                run_odd_round(p, psi, phi),
                atol=1e-10,
            )

    def test_trivial_middle_rounds_reduce_to_three_round(self):
        # Depth-5 protocol whose last exchange is inert equals its inner
        # three-round protocol.
        inner = random_three_round(seed=53, n_m1=2, n_m2=2, n_m3=2, n_outcomes=2)
        padded = OddRoundProtocol(
            randomness=inner.randomness,
            sender_alphabets=inner.sender_alphabets + ((0,),),
            receiver_alphabets=inner.receiver_alphabets + ((0,),),
            outcomes=inner.outcomes,
            coins=inner.coins + (lambda psi, x, tr: np.array([1.0]),),
            instruments=inner.instruments
            + (lambda x, tr: Instrument(kraus=(np.eye(2, dtype=complex),)),),
            final_povm=lambda x, tr: inner.final_povm(x, tr[:3]),
        )
        rng = np.random.default_rng(59)
        collapsed = collapse_odd_rounds(padded)
        for _ in range(10):
            psi, phi = random_pair(rng)
            np.testing.assert_allclose(
                run_analytic(collapsed, psi, phi),
                run_odd_round(inner, psi, phi),
                atol=1e-12,
            )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_atoms=st.integers(1, 3),
        three_round_alphabets=st.one_of(
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)), st.none()
        ),
    )
    def test_collapse_equals_direct_evaluation_property(self, seed, n_atoms, three_round_alphabets):
        if three_round_alphabets is None:
            # Depth 5 with binary alphabets collapses to 2 * (2 * 2^2)^2 = 128 messages.
            p = random_odd_round(seed=seed, depth=5, n_atoms=n_atoms, alphabet=2)
        else:
            n1, n2, n3 = three_round_alphabets
            p = random_three_round(seed=seed, n_atoms=n_atoms, n_m1=n1, n_m2=n2, n_m3=n3)
        collapsed = collapse_odd_rounds(p)
        assert collapsed.n_messages == collapsed_message_count(p)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            psi, phi = random_pair(rng)
            np.testing.assert_allclose(
                run_analytic(collapsed, psi, phi), run_odd_round(p, psi, phi), atol=1e-10
            )

    def test_message_growth_recurrence(self):
        # Collapsing the trailing exchange multiplies the last sender alphabet
        # by |replies| planned answers: |m_prev| * |m_last|^k at each stage.
        p = random_odd_round(seed=61, depth=5, alphabet=2)
        once = collapse_trailing_rounds(p)
        assert len(once.sender_alphabets[-1]) == 2 * 2**2
        collapsed = collapse_odd_rounds(p)
        assert collapsed.n_messages == 2 * (2 * 2**2) ** 2
        assert collapsed.meta["stage_alphabet_sizes"] == [(2, 2, 2), (2, 8)]

    def test_seven_round_collapse_small_case(self):
        rng = np.random.default_rng(67)
        p = random_odd_round(seed=71, depth=7, n_atoms=1, alphabet=2, n_outcomes=2)
        collapsed = collapse_odd_rounds(p)
        psi, phi = random_pair(rng)
        np.testing.assert_allclose(
            run_analytic(collapsed, psi, phi), run_odd_round(p, psi, phi), atol=1e-10
        )

    def test_seven_round_collapse_two_atoms(self):
        rng = np.random.default_rng(79)
        p = random_odd_round(seed=83, depth=7, n_atoms=2)
        collapsed = collapse_odd_rounds(p)
        assert collapsed.n_messages == collapsed_message_count(p) == 32768
        for _ in range(3):
            psi, phi = random_pair(rng)
            np.testing.assert_allclose(
                run_analytic(collapsed, psi, phi), run_odd_round(p, psi, phi), atol=1e-10
            )

    def test_depth_validation(self):
        with pytest.raises(ProtocolError):
            random_odd_round(seed=1, depth=4)
        with pytest.raises(ProtocolError):
            random_odd_round(seed=1, depth=9)

    def test_repeated_outcome_labels_are_rejected(self):
        p = random_three_round(seed=5)
        with pytest.raises(ProtocolError, match="repeat"):
            dataclasses.replace(p, outcomes=p.outcomes + p.outcomes[:1])

    def test_receiver_first_padding_preserves_statistics(self):
        # A protocol that opens with the receiver's z measurement, normalized
        # by a trivial first message, must reproduce the receiver-first
        # statistics computed by hand.
        rng = np.random.default_rng(73)
        reply_alphabet = (0, 1)
        opening = Instrument(kraus=(projector(qmath.KET0), projector(qmath.KET1)))
        finals = {
            m2: multiround.random_povm(np.random.default_rng(100 + m2), 2, 2)
            for m2 in (0, 1)
        }
        inner = OddRoundProtocol(
            randomness=SharedRandomness.trivial(),
            sender_alphabets=((0, 1),),
            receiver_alphabets=(),
            outcomes=(0, 1),
            coins=(lambda psi, x, tr: np.array([0.5, 0.5]),),
            instruments=(),
            # The transcript seen here starts with the opening reply.
            final_povm=lambda x, tr: finals[(tr[0] + tr[1]) % 2],
        )
        padded = pad_leading_sender_round(lambda x: opening, reply_alphabet, inner)
        assert padded.depth == 3

        def receiver_first_oracle(psi, phi):
            out = np.zeros(2)
            for m2, kraus in enumerate(opening.kraus):
                updated = kraus @ phi @ qmath.dagger(kraus)
                for m3, weight in enumerate((0.5, 0.5)):
                    povm = finals[(m2 + m3) % 2]
                    for label, effect in zip(povm.labels, povm.effects):
                        out[label] += weight * np.trace(effect @ updated).real
            return out

        for _ in range(10):
            psi, phi = random_pair(rng)
            np.testing.assert_allclose(
                run_odd_round(padded, psi, phi), receiver_first_oracle(psi, phi), atol=1e-12
            )


class TestLevelWiseEvaluation:
    """``run_odd_round`` against the depth-first nested sum it replaced, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.sampled_from([3, 5, 7]),
        n_atoms=st.integers(1, 3),
        alphabet=st.integers(1, 3),
        n_outcomes=st.integers(1, 3),
    )
    def test_equals_nested_sum_on_random_odd_rounds(self, seed, depth, n_atoms, alphabet, n_outcomes):
        if depth == 7:
            alphabet = min(alphabet, 2)  # 3^7 transcripts per atom take seconds to generate
        p = random_odd_round(seed, depth, n_atoms=n_atoms, alphabet=alphabet, n_outcomes=n_outcomes)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            psi, phi = random_pair(rng)
            assert np.array_equal(run_odd_round(p, psi, phi), nested_sum_odd_round(p, psi, phi))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_atoms=st.integers(1, 3),
        alphabets=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        n_outcomes=st.integers(1, 3),
    )
    def test_equals_nested_sum_on_random_three_rounds(self, seed, n_atoms, alphabets, n_outcomes):
        n1, n2, n3 = alphabets
        p = random_three_round(
            seed, n_atoms=n_atoms, n_m1=n1, n_m2=n2, n_m3=n3, n_outcomes=n_outcomes
        )
        rng = np.random.default_rng(seed)
        for _ in range(3):
            psi, phi = random_pair(rng)
            assert np.array_equal(run_odd_round(p, psi, phi), nested_sum_odd_round(p, psi, phi))

    def test_zero_probability_branches_of_the_interactive_twist(self):
        # Basis states make coins point masses and z replies of trace 0.
        rng = np.random.default_rng(89)
        p = interactive_twist_protocol()
        kets = [qmath.KET0, qmath.KET1, qmath.KET_PLUS, haar_ket(2, rng)]
        for psi in map(projector, kets):
            for phi in map(projector, kets):
                assert np.array_equal(run_odd_round(p, psi, phi), nested_sum_odd_round(p, psi, phi))

    def test_zero_probability_branches_of_a_loaded_three_round_file(self):
        # Point-mass coins and a z instrument, written to a protocol file and read back.
        final = multiround.random_povm(np.random.default_rng(97), 2, 2)
        p = OddRoundProtocol(
            randomness=SharedRandomness(probabilities=(0.25, 0.75)),
            sender_alphabets=((0, 1), (0, 1)),
            receiver_alphabets=((0, 1),),
            outcomes=final.labels,
            coins=(
                lambda psi, x, tr: np.array([1.0 - x, float(x)]),
                lambda psi, x, tr: np.array([1.0, 0.0]) if tr[1] == 0 else np.array([0.3, 0.7]),
            ),
            instruments=(
                lambda x, tr: Instrument(kraus=(projector(qmath.KET0), projector(qmath.KET1))),
            ),
            final_povm=lambda x, tr: final,
        )
        rng = np.random.default_rng(101)
        grid = [projector(haar_ket(2, rng)) for _ in range(3)]
        text = serialize.dumps(serialize.three_round_protocol_to_obj(p, grid))
        loaded = serialize.three_round_protocol_from_obj(serialize.loads(text))
        for psi in grid:
            for phi in map(projector, (qmath.KET0, qmath.KET1, haar_ket(2, rng))):
                direct = run_odd_round(loaded, psi, phi)
                assert np.array_equal(direct, nested_sum_odd_round(loaded, psi, phi))
                assert np.array_equal(direct, nested_sum_odd_round(p, psi, phi))

    def test_coin_of_the_wrong_length_is_a_protocol_error(self):
        # Only one transcript's coin is too long, so the coins cannot be stacked.
        p = random_three_round(seed=103)
        good = p.coins[1]
        bad = dataclasses.replace(
            p,
            coins=(
                p.coins[0],
                lambda psi, x, tr: np.full(3, 1.0 / 3.0) if tuple(tr) == (1, 0) else good(psi, x, tr),
            ),
        )
        psi, phi = random_pair(np.random.default_rng(107))
        with pytest.raises(ProtocolError, match="coin 1 has shape"):
            run_odd_round(bad, psi, phi)

    def test_unknown_final_label_is_a_protocol_error_in_the_direct_run(self):
        psi, phi = random_pair(np.random.default_rng(109))
        with pytest.raises(ProtocolError, match="names 'zz'"):
            run_odd_round(with_unknown_final_label(), psi, phi)

    @pytest.mark.parametrize("build", [multiround.tabulate, collapse_odd_rounds], ids=["tabulate", "collapse"])
    def test_unknown_final_label_is_a_protocol_error_in_the_tables(self, build):
        with pytest.raises(ProtocolError, match="names 'zz'"):
            build(with_unknown_final_label())


def with_unknown_final_label():
    """``random_odd_round(3, 3)`` whose second atom's final measurement names the label 'zz'."""
    p = random_odd_round(3, 3)
    stray = Povm(effects=(qmath.I2,), labels=("zz",))
    return dataclasses.replace(p, final_povm=lambda x, tr: stray if x == 1 else p.final_povm(x, tr))


def atom_dependent_protocol():
    """A depth-3 protocol whose two atoms differ where the stacked walk could mix them up.

    Atom 0's first coin is a point mass on message 0 and its instrument
    measures z, so on a z basis state one of its replies has trace 0; atom 1's
    first coin gives both messages mass and its instrument never gives a zero
    trace.
    """
    rng = np.random.default_rng(113)
    z = Instrument(kraus=(projector(qmath.KET0), projector(qmath.KET1)))
    haar = multiround.random_instrument(rng, 2, 2)
    finals = [multiround.random_povm(rng, 3, 2) for _ in range(2)]
    return OddRoundProtocol(
        randomness=SharedRandomness(probabilities=(0.375, 0.625)),
        sender_alphabets=((0, 1), (0, 1, 2)),
        receiver_alphabets=((0, 1),),
        outcomes=finals[0].labels,
        coins=(
            lambda psi, x, tr: np.array([1.0, 0.0]) if x == 0 else np.array([0.25, 0.75]),
            lambda psi, x, tr: np.array([0.5, 0.0, 0.5]) if tr[1] == x else np.array([0.2, 0.3, 0.5]),
        ),
        instruments=(lambda x, tr: z if x == 0 else haar,),
        final_povm=lambda x, tr: finals[(x + tr[2]) % 2],
    )


class TestStackedWalk:
    """Every atom of a check state advances as one stack, bit for bit the depth-first walk."""

    def test_a_message_one_atom_never_sends(self):
        p = atom_dependent_protocol()
        rng = np.random.default_rng(127)
        for _ in range(4):
            psi, phi = random_pair(rng)
            assert np.array_equal(run_odd_round(p, psi, phi), nested_sum_odd_round(p, psi, phi))

    def test_a_zero_trace_reply_of_one_atom_only(self):
        p = atom_dependent_protocol()
        psi = projector(haar_ket(2, np.random.default_rng(131)))
        for phi in map(projector, (qmath.KET0, qmath.KET1)):
            # Atom 0 drops one reply on a z basis state; atom 1 keeps both.
            traces = [[np.trace(k @ phi @ qmath.dagger(k)).real for k in p.instruments[0](x, (0,)).kraus]
                      for x in range(2)]
            assert min(traces[0]) <= 1e-15 < min(traces[1])
            assert np.array_equal(run_odd_round(p, psi, phi), nested_sum_odd_round(p, psi, phi))

    @pytest.mark.parametrize(
        "build, dim",
        [
            pytest.param(lambda: random_odd_round(17, 5, n_atoms=3), 2, id="3-atoms-depth5"),
            pytest.param(lambda: random_odd_round(19, 3, n_atoms=3, alphabet=3, n_outcomes=3), 2, id="ternary"),
            pytest.param(lambda: random_three_round(23, n_m1=3, n_m2=2, n_m3=3, dim=3), 3, id="qutrit"),
            pytest.param(interactive_twist_protocol, 2, id="interactive-twist"),
        ],
    )
    def test_equals_the_nested_sum(self, build, dim):
        p = build()
        rng = np.random.default_rng(137)
        for _ in range(3):
            psi, phi = projector(haar_ket(2, rng)), projector(haar_ket(dim, rng))
            assert np.array_equal(run_odd_round(p, psi, phi), nested_sum_odd_round(p, psi, phi))

    def test_one_stacked_coin_check_per_sender_round(self, monkeypatch):
        checks = []
        check = multiround.check_distributions

        def counting(dist, shape, what):
            checks.append(shape)
            return check(dist, shape, what)

        monkeypatch.setattr(multiround, "check_distributions", counting)
        p = random_odd_round(29, 5)
        run_odd_round(p, *random_pair(np.random.default_rng(139)))
        # Three sender rounds over both atoms: 2 first coins, then every live entry.
        assert len(checks) == 3
        assert checks[0] == (2, 2)

    @pytest.mark.parametrize("size", [1, 2, 3, 8])
    def test_coin_round_draw_equals_the_one_coin_oracle(self, size):
        keys = [(x, tr) for x in range(3) for tr in np.ndindex(4, 4)]
        rng, oracle_rng = np.random.default_rng(size), np.random.default_rng(size)
        drawn = multiround._CoinRound.draw(rng, keys, size)
        oracles = [oracle_state_coin(oracle_rng, size) for _ in keys]
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        for psi in oracle_states(size)[:4]:
            for (x, tr), oracle in zip(keys, oracles):
                assert np.array_equal(drawn(psi, x, tr), oracle(psi))


def state_pruned_protocol():
    """A depth-3 protocol whose first coin is a point mass on z basis states only.

    After message 1 the final measurement names one of the two outcomes, so
    the final measurements of one walk hold different numbers of effects.
    """
    rng = np.random.default_rng(151)
    instrument = multiround.random_instrument(rng, 2, 2)
    finals = (multiround.random_povm(rng, 2, 2), Povm(effects=(qmath.I2,), labels=(1,)))

    def first(psi, x, tr):
        p0 = float(np.clip(np.trace(projector(qmath.KET0) @ psi).real, 0.0, 1.0))
        return np.array([p0, 1.0 - p0])

    return OddRoundProtocol(
        randomness=SharedRandomness(probabilities=(0.4, 0.6)),
        sender_alphabets=((0, 1), (0, 1)),
        receiver_alphabets=((0, 1),),
        outcomes=(0, 1),
        coins=(first, lambda psi, x, tr: np.array([0.7, 0.3]) if x == tr[1] else np.array([0.2, 0.8])),
        instruments=(lambda x, tr: instrument,),
        final_povm=lambda x, tr: finals[tr[0]],
    )


def assert_rows_are_nested_sums(p, psis, phis):
    rows = run_odd_rounds(p, psis, phis)
    assert rows.shape == (len(psis), len(p.outcomes))
    for row, psi, phi in zip(rows, psis, phis, strict=True):
        assert np.array_equal(row, nested_sum_odd_round(p, psi, phi))


class TestBatchedWalk:
    """``run_odd_rounds`` against the depth-first nested sum of each pair, bit for bit."""

    @pytest.mark.parametrize(
        "build, dim",
        [
            pytest.param(lambda: random_odd_round(37, 3, n_atoms=3), 2, id="depth3"),
            pytest.param(lambda: random_odd_round(41, 5), 2, id="depth5"),
            pytest.param(lambda: random_odd_round(43, 7), 2, id="depth7"),
            pytest.param(lambda: random_three_round(47, n_m1=2, n_m2=3, n_m3=2), 2, id="three-round"),
            pytest.param(
                lambda: multiround._random_rounds(
                    np.random.default_rng(53), (2, 3, 2), 2, 2, 2, table_order=(0, 1, 2, 3), atom_major=True
                ),
                2,
                id="three-round-atom-major",
            ),
            pytest.param(lambda: random_odd_round(59, 3, n_atoms=3, alphabet=3, n_outcomes=3), 2, id="ternary"),
            pytest.param(lambda: random_odd_round(61, 3, dim=3), 3, id="qutrit"),
            pytest.param(lambda: random_three_round(67, n_m1=3, n_m2=2, n_m3=3, dim=3), 3, id="qutrit-three-round"),
        ],
    )
    def test_every_generator_shape(self, build, dim):
        p = build()
        rng = np.random.default_rng(157)
        psis = [projector(haar_ket(2, rng)) for _ in range(5)]
        phis = [projector(haar_ket(dim, rng)) for _ in range(5)]
        assert_rows_are_nested_sums(p, psis, phis)

    def test_interactive_twist_at_basis_and_haar_states(self):
        # Basis states prune coin messages and z replies in some pairs only.
        rng = np.random.default_rng(163)
        kets = [qmath.KET0, haar_ket(2, rng), qmath.KET1, qmath.KET_PLUS, haar_ket(2, rng)]
        pairs = list(itertools.product(map(projector, kets), repeat=2))
        assert_rows_are_nested_sums(interactive_twist_protocol(), *zip(*pairs))

    def test_a_coin_that_is_zero_for_some_states_only(self):
        rng = np.random.default_rng(167)
        psis = [projector(k) for k in (haar_ket(2, rng), qmath.KET0, haar_ket(2, rng), qmath.KET1)]
        phis = [projector(haar_ket(2, rng)) for _ in psis]
        assert_rows_are_nested_sums(state_pruned_protocol(), psis, phis)

    def test_pairs_of_unequal_lengths_are_a_protocol_error(self):
        psi, phi = random_pair(np.random.default_rng(173))
        with pytest.raises(ProtocolError, match="2 sender states for 1 receiver states"):
            run_odd_rounds(random_odd_round(3, 3), [psi, psi], [phi])


def odd_round_order(depth):
    """The table order of ``random_odd_round``: coins, then instruments, then the final measurement."""
    return (*range(0, depth, 2), *range(1, depth, 2), depth)


def oracle_states(seed):
    """Sender states in every form a coin takes: complex arrays, a real-dtype array and a nested list."""
    rng = np.random.default_rng(seed)
    complex_states = [projector(haar_ket(2, rng)) for _ in range(3)]
    real = np.array([[0.75, 0.25], [0.25, 0.25]])
    return [*complex_states, real, complex_states[0].tolist(), real.tolist()]


def assert_same_rounds(new, old, rounds, states):
    """Atom probabilities, every Kraus operator, final effect and coin equal bit for bit."""
    assert new.randomness.probabilities == old.randomness.probabilities
    assert (new.sender_alphabets, new.receiver_alphabets, new.outcomes) == (
        old.sender_alphabets, old.receiver_alphabets, old.outcomes
    )
    n_atoms = len(new.randomness)
    for length in range(len(rounds) + 1):
        for x, tr in itertools.product(range(n_atoms), np.ndindex(*rounds[:length])):
            if length == len(rounds):
                a, b = new.final_povm(x, tr), old.final_povm(x, tr)
                assert a.labels == b.labels
                assert all(np.array_equal(e, f) for e, f in zip(a.effects, b.effects, strict=True))
            elif length % 2:
                a, b = new.instruments[length // 2](x, tr), old.instruments[length // 2](x, tr)
                assert all(np.array_equal(k, q) for k, q in zip(a.kraus, b.kraus, strict=True))
            else:
                t = length // 2
                assert all(np.array_equal(new.coins[t](psi, x, tr), old.coins[t](psi, x, tr)) for psi in states)


#: (rounds, atoms, outcomes, receiver dimension, table order, atom-major keys) of every generator shape.
GENERATOR_SHAPES = [
    pytest.param((2, 2, 2), 2, 2, 2, odd_round_order(3), True, id="odd-depth3"),
    pytest.param((2,) * 5, 2, 2, 2, odd_round_order(5), True, id="odd-depth5"),
    pytest.param((2,) * 7, 2, 2, 2, odd_round_order(7), True, id="odd-depth7"),
    pytest.param((2, 3, 2), 2, 2, 2, (0, 1, 2, 3), False, id="three-round-transcript-major"),
    pytest.param((2, 3, 2), 2, 2, 2, (0, 1, 2, 3), True, id="three-round-atom-major"),
    pytest.param((3, 3, 3), 3, 3, 2, odd_round_order(3), True, id="ternary-3atoms-3outcomes"),
    pytest.param((2, 2, 2), 2, 2, 3, odd_round_order(3), True, id="receiver-dim3"),
]


class TestGeneratorAgainstOracle:
    """``_random_rounds`` against the generator that drew every table entry alone, bit for bit."""

    @pytest.mark.parametrize("rounds, n_atoms, n_outcomes, dim, order, atom_major", GENERATOR_SHAPES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_the_one_at_a_time_draws(self, seed, rounds, n_atoms, n_outcomes, dim, order, atom_major):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        new = multiround._random_rounds(
            rng, rounds, n_atoms, n_outcomes, dim, table_order=order, atom_major=atom_major
        )
        oracle_rng, old = oracle_random_rounds(
            seed, rounds, n_atoms, n_outcomes, dim, table_order=order, atom_major=atom_major
        )
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert_same_rounds(new, old, rounds, oracle_states(seed))

    def test_public_generators_draw_the_oracle_protocols(self):
        states = oracle_states(3)
        for depth in (3, 5):
            _, old = oracle_random_rounds(11, (3,) * depth, 3, 3, 2, table_order=odd_round_order(depth),
                                          atom_major=True)
            new = random_odd_round(11, depth, n_atoms=3, alphabet=3, n_outcomes=3)
            assert_same_rounds(new, old, (3,) * depth, states)
        _, old = oracle_random_rounds(13, (2, 3, 3), 3, 3, 3, table_order=(0, 1, 2, 3), atom_major=False)
        new = random_three_round(13, n_atoms=3, n_m1=2, n_m2=3, n_m3=3, n_outcomes=3, dim=3)
        assert_same_rounds(new, old, (2, 3, 3), states)

    def test_single_instruments_and_measurements_equal_the_stacked_draws(self):
        a, b = np.random.default_rng(17), np.random.default_rng(17)
        stacked = multiround._isometry_blocks(a, 5, 3, 2)
        singles = [multiround.random_instrument(b, 3, 2).kraus for _ in range(5)]
        assert np.array_equal(stacked, np.array(singles))
        povm = multiround.random_povm(a, 2, 3, labels="xy")
        blocks = multiround._isometry_blocks(b, 1, 2, 3)[0]
        assert povm.labels == ("x", "y")
        assert all(np.array_equal(e, qmath.dagger(k) @ k) for e, k in zip(povm.effects, blocks))
        assert a.bit_generator.state == b.bit_generator.state


class TestHandedTables:
    """The tables a generated protocol hands to ``tabulate`` equal the tabulation of its callables."""

    @pytest.mark.parametrize("rounds, n_atoms, n_outcomes, dim, order, atom_major", GENERATOR_SHAPES)
    def test_equal_the_callables_tabulation(self, rounds, n_atoms, n_outcomes, dim, order, atom_major):
        rng = np.random.default_rng(np.random.SeedSequence(31))
        p = multiround._random_rounds(rng, rounds, n_atoms, n_outcomes, dim, table_order=order, atom_major=atom_major)
        handed = multiround.tabulate(p)
        # dataclasses.replace drops the handed tables, so this one calls every instrument and measurement.
        called = multiround.tabulate(dataclasses.replace(p))
        assert handed is p.tables and called is not handed
        for a, b in zip(handed.kraus, called.kraus, strict=True):
            assert np.array_equal(a, b) and a.shape == b.shape and not a.flags.writeable
        assert np.array_equal(handed.final, called.final) and handed.final.shape == called.final.shape
        assert not handed.final.flags.writeable
        for psi in oracle_states(31):
            for a, b in zip(handed.coins(psi), called.coins(psi), strict=True):
                assert np.array_equal(a, b) and a.shape == b.shape

    def test_public_generators_hand_their_tables(self):
        for p in (random_odd_round(3, 5), random_three_round(21)):
            assert multiround.tabulate(p) is p.tables is not None
        assert interactive_twist_protocol().tables is None


class TestCoinMemo:
    """A coin round keeps the tables of the last ``COIN_STATES_KEPT`` sender states it evaluated."""

    @staticmethod
    def pair(seed=5, depth=5):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        new = multiround._random_rounds(
            rng, (2,) * depth, 2, 2, 2, table_order=odd_round_order(depth), atom_major=True
        )
        _, old = oracle_random_rounds(seed, (2,) * depth, 2, 2, 2, table_order=odd_round_order(depth),
                                      atom_major=True)
        return new, old

    def test_a_returned_coin_is_a_fresh_writable_copy(self):
        new, old = self.pair()
        psi = projector(haar_ket(2, np.random.default_rng(1)))
        coin = new.coins[1](psi, 1, (0, 1))
        assert coin.flags.writeable
        expected = old.coins[1](psi, 1, (0, 1))
        coin[:] = 7.0
        assert np.array_equal(new.coins[1](psi, 1, (0, 1)), expected)
        assert new.coins[1](psi, 1, (0, 1)) is not new.coins[1](psi, 1, (0, 1))

    def test_state_changed_in_place_gets_new_rows(self, monkeypatch):
        new, old = self.pair()
        seen = count_coin_evaluations(monkeypatch)
        rng = np.random.default_rng(2)
        psi = projector(haar_ket(2, rng))
        before = new.coins[2](psi, 0, (1, 0, 1, 1))
        psi[...] = projector(haar_ket(2, rng))  # same object, new bytes
        after = new.coins[2](psi, 0, (1, 0, 1, 1))
        assert not np.array_equal(before, after)
        assert np.array_equal(after, old.coins[2](psi, 0, (1, 0, 1, 1)))
        assert len(seen) == 2

    def test_alternating_states_give_their_own_rows(self, monkeypatch):
        new, old = self.pair()
        seen = count_coin_evaluations(monkeypatch)
        rng = np.random.default_rng(3)
        a, b = projector(haar_ket(2, rng)), projector(haar_ket(2, rng))
        for psi in (a, b, a, a, b):
            for x, tr in itertools.product(range(2), np.ndindex(2, 2)):
                assert np.array_equal(new.coins[1](psi, x, tr), old.coins[1](psi, x, tr))
        # Both tables stay kept, so a and b are evaluated once each.
        assert len(seen) == 2

    def test_the_state_past_the_limit_drops_the_oldest_table(self, monkeypatch):
        new, old = self.pair()
        seen = count_coin_evaluations(monkeypatch)
        rng = np.random.default_rng(8)
        states = [projector(haar_ket(2, rng)) for _ in range(multiround.COIN_STATES_KEPT + 1)]
        for psi in states:
            new.coins[1](psi, 0, (1, 0))
        assert len(seen) == 65 and len(new.coins[1]._memo) == 64
        # The 65th state dropped the first, which is evaluated again; the second is still kept.
        new.coins[1](states[1], 0, (1, 0))
        assert len(seen) == 65
        assert np.array_equal(new.coins[1](states[0], 0, (1, 0)), old.coins[1](states[0], 0, (1, 0)))
        assert len(seen) == 66

    def test_nan_state_raises_and_leaves_no_entry(self, monkeypatch):
        new, _ = self.pair(depth=3)
        seen = count_coin_evaluations(monkeypatch)
        rng = np.random.default_rng(4)
        psi, phi = random_pair(rng)
        nan = np.full((2, 2), np.nan, dtype=complex)
        for _ in range(2):
            with np.errstate(invalid="ignore"), pytest.raises(ProtocolError, match="non-finite"):
                run_odd_round(new, nan, phi)
        assert len(new.coins[0]._memo) == 0
        run_odd_round(new, psi, phi)
        assert len(new.coins[0]._memo) == 1
        # Both paths of tabulate refuse it: the handed coin tables, and the
        # callables of the same protocol without them.
        for protocol in (new, dataclasses.replace(new)):
            with np.errstate(invalid="ignore"), pytest.raises(ProtocolError, match="non-finite"):
                multiround.tabulate(protocol).coins(nan)
        assert len(new.coins[0]._memo) == 1
        # Nothing is kept for NaN, so each coin call on it evaluates again: once
        # per atom in each direct run (both atoms' coins are called before the
        # stacked check raises), once in the handed coin tables, and once per
        # atom in the callables' tabulation.
        nan_calls = [state for round_, state in seen if round_ is new.coins[0] and state is nan]
        assert len(nan_calls) == 2 * 2 + 1 + 2

    def test_tabulate_and_direct_run_share_one_evaluation_per_state(self, monkeypatch):
        new, old = self.pair()
        seen = count_coin_evaluations(monkeypatch)
        tables = multiround.tabulate(new)
        rng = np.random.default_rng(6)
        for _ in range(3):
            psi, phi = random_pair(rng)
            coins = tables.coins(psi)
            assert np.array_equal(run_odd_round(new, psi, phi), nested_sum_odd_round(old, psi, phi))
            assert all(np.array_equal(c, o) for c, o in zip(coins, multiround.tabulate(old).coins(psi)))
        assert len(seen) == 3 * len(new.coins)
