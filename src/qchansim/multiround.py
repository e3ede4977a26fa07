"""Finite back-and-forth protocols and their collapse to one-round protocols.

An odd-depth protocol alternates sender coins and receiver instruments (with
communicated outcomes) and ends with a receiver measurement.  Because the
receiver's mid-protocol measurement disturbs their state, instruments carry
Kraus operators, and at depth three the statistics are evaluated exactly from

    p(b) = sum over transcripts of
           p(x) q(m1|psi,x) r(m3|m1,m2,psi,x) tr[pi_b K_m2 phi K_m2^dag].

The collapse replaces the last exchange with a single message: the sender
draws m1 and, for every possible reply m2, the answer she would have given;
the receiver runs the instrument, looks up the planned answer, and measures.
The composed effect for outcome b is sum_m2 K_m2^dag pi_b K_m2, so the
collapsed protocol reproduces the original distribution exactly.  Repeating
the collapse on the trailing three rounds reduces any odd depth to one round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from . import qmath
from .protocols import OneRoundProtocol, ProtocolError, SharedRandomness, bit_cost
from .qmath import ATOL_SCALAR, Instrument, Povm, dagger


def _check_distribution(dist: np.ndarray, size: int, what: str) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (size,):
        raise ProtocolError(f"{what} has wrong length {dist.shape}")
    if abs(dist.sum() - 1.0) > ATOL_SCALAR or dist.min() < -ATOL_SCALAR:
        raise ProtocolError(f"{what} is not a probability distribution")
    return np.clip(dist, 0.0, None)


# ---------------------------------------------------------------------------
# Odd-depth protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OddRoundProtocol:
    """Alternating protocol of odd depth: rounds A, B, A, ..., B, A then a final measurement.

    With r receiver rounds there are r+1 sender coins.  Tables are callables
    of the running transcript: ``coins[t](psi, x, transcript)`` where the
    transcript holds all earlier messages, ``instruments[t](x, transcript)``
    for receiver rounds, and ``final_povm(x, transcript)`` closing the run.
    """

    randomness: SharedRandomness
    sender_alphabets: tuple[tuple, ...]
    receiver_alphabets: tuple[tuple, ...]
    outcomes: tuple[Hashable, ...]
    coins: tuple[Callable, ...]
    instruments: tuple[Callable, ...]
    final_povm: Callable[[int, tuple], Povm]

    def __post_init__(self):
        if len(self.coins) != len(self.sender_alphabets):
            raise ProtocolError("one coin per sender round is required")
        if len(self.instruments) != len(self.receiver_alphabets):
            raise ProtocolError("one instrument per receiver round is required")
        if len(self.sender_alphabets) != len(self.receiver_alphabets) + 1:
            raise ProtocolError("odd depth requires one more sender round than receiver rounds")

    @property
    def depth(self) -> int:
        return len(self.sender_alphabets) + len(self.receiver_alphabets)


def three_round_protocol(
    randomness: SharedRandomness,
    m1_alphabet: tuple,
    m2_alphabet: tuple,
    m3_alphabet: tuple,
    outcomes: tuple[Hashable, ...],
    coin1: Callable[[np.ndarray, int], np.ndarray],
    instrument: Callable[[int, int], Instrument],
    coin2: Callable[[int, int, np.ndarray, int], np.ndarray],
    final_povm: Callable[[int, int, int, int], Povm],
) -> OddRoundProtocol:
    """Depth-3 protocol: sender coin, receiver instrument, sender coin, receiver measurement.

    ``coin1(psi, x)`` and ``coin2(m1, m2, psi, x)`` return distributions over
    the first and second sender alphabets; ``instrument(m1, x)`` is the
    receiver's mid-protocol measurement; ``final_povm(m1, m2, m3, x)`` is the
    closing measurement, with labels drawn from ``outcomes``.
    """
    return OddRoundProtocol(
        randomness=randomness,
        sender_alphabets=(m1_alphabet, m3_alphabet),
        receiver_alphabets=(m2_alphabet,),
        outcomes=outcomes,
        coins=(
            lambda psi, x, tr: coin1(psi, x),
            lambda psi, x, tr: coin2(tr[0], tr[1], psi, x),
        ),
        instruments=(lambda x, tr: instrument(tr[0], x),),
        final_povm=lambda x, tr: final_povm(tr[0], tr[1], tr[2], x),
    )


def run_odd_round(p: OddRoundProtocol, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Direct nested-summation evaluation of an odd-depth protocol."""
    phi = qmath.assert_density_matrix(phi, "receiver state")
    index = {label: i for i, label in enumerate(p.outcomes)}
    out = np.zeros(len(p.outcomes))
    n_receiver = len(p.receiver_alphabets)

    def descend(x: int, t: int, transcript: tuple, state: np.ndarray, weight: float) -> None:
        coin = _check_distribution(
            p.coins[t](psi, x, transcript), len(p.sender_alphabets[t]), f"coin {t}"
        )
        for m_a in range(len(p.sender_alphabets[t])):
            if coin[m_a] <= 0.0:
                continue
            after_a = transcript + (m_a,)
            w_a = weight * coin[m_a]
            if t == n_receiver:
                povm = p.final_povm(x, after_a)
                for label, effect in zip(povm.labels, povm.effects):
                    out[index[label]] += w_a * np.trace(effect @ state).real
                continue
            inst = p.instruments[t](x, after_a)
            if len(inst) != len(p.receiver_alphabets[t]):
                raise ProtocolError("instrument outcome count does not match its alphabet")
            for m_b, kraus in enumerate(inst.kraus):
                updated = kraus @ state @ dagger(kraus)
                if np.trace(updated).real <= 1e-15:
                    continue  # zero-probability branch
                descend(x, t + 1, after_a + (m_b,), updated, w_a)

    for x, p_atom in enumerate(p.randomness.probabilities):
        descend(x, 0, (), phi, p_atom)
    return out


def collapse_trailing_rounds(p: OddRoundProtocol) -> OddRoundProtocol:
    """Collapse the last sender-receiver-sender exchange into one sender round.

    The new last message is (old last-but-one message, planned final answers),
    and the new final measurement composes the last instrument's Kraus
    sandwiches, conditioned on the surviving transcript prefix.
    """
    if p.depth < 3:
        raise ProtocolError("nothing to collapse below depth 3")
    last = len(p.sender_alphabets) - 1
    n_prev = len(p.sender_alphabets[last - 1])
    n_reply = len(p.receiver_alphabets[last - 1])
    n_last = len(p.sender_alphabets[last])
    merged_alphabet = tuple(
        (m_prev, table)
        for m_prev in range(n_prev)
        for table in itertools.product(range(n_last), repeat=n_reply)
    )

    def merged_coin(psi, x, transcript):
        old_coin = _check_distribution(
            p.coins[last - 1](psi, x, transcript), n_prev, "merged coin base"
        )
        replies = {}
        dist = np.empty(len(merged_alphabet))
        for k, (m_prev, table) in enumerate(merged_alphabet):
            if m_prev not in replies:
                replies[m_prev] = [
                    _check_distribution(
                        p.coins[last](psi, x, transcript + (m_prev, m_b)),
                        n_last,
                        "merged coin reply",
                    )
                    for m_b in range(n_reply)
                ]
            prob = old_coin[m_prev]
            for m_b, m_a in enumerate(table):
                prob *= replies[m_prev][m_b][m_a]
            dist[k] = prob
        return dist

    final_cache: dict[tuple, Povm] = {}

    def merged_final(x, transcript):
        key = (x, tuple(transcript))
        if key not in final_cache:
            prefix = transcript[:-1]
            m_prev, table = merged_alphabet[transcript[-1]]
            inst = p.instruments[last - 1](x, prefix + (m_prev,))
            dim = inst.dim
            effects = {label: np.zeros((dim, dim), dtype=complex) for label in p.outcomes}
            for m_b, kraus in enumerate(inst.kraus):
                povm = p.final_povm(x, prefix + (m_prev, m_b, table[m_b]))
                for label, effect in zip(povm.labels, povm.effects):
                    effects[label] += dagger(kraus) @ effect @ kraus
            final_cache[key] = Povm(
                effects=tuple(effects[label] for label in p.outcomes), labels=p.outcomes
            )
        return final_cache[key]

    return OddRoundProtocol(
        randomness=p.randomness,
        sender_alphabets=p.sender_alphabets[: last - 1] + (merged_alphabet,),
        receiver_alphabets=p.receiver_alphabets[: last - 1],
        outcomes=p.outcomes,
        coins=p.coins[: last - 1] + (merged_coin,),
        instruments=p.instruments[: last - 1],
        final_povm=merged_final,
    )


def collapse_odd_rounds(p: OddRoundProtocol) -> OneRoundProtocol:
    """Reduce any odd-depth protocol to one round by repeated trailing collapse.

    ``meta["stage_alphabet_sizes"]`` lists the sender alphabet sizes before
    each collapse step.
    """
    stages = []
    while p.depth > 1:
        stages.append(tuple(len(a) for a in p.sender_alphabets))
        p = collapse_trailing_rounds(p)
    alphabet = p.sender_alphabets[0]
    return OneRoundProtocol(
        randomness=p.randomness,
        messages=alphabet,
        encoder=lambda x, psi: p.coins[0](psi, x, ()),
        decoder=lambda m, x: p.final_povm(x, (m,)),
        outcomes=p.outcomes,
        cost_bits=bit_cost(len(alphabet)),
        meta={"construction": "collapsed_three_round", "stage_alphabet_sizes": stages},
    )


def pad_leading_sender_round(
    instrument0: Callable[[int], Instrument],
    receiver_alphabet: tuple,
    rest: OddRoundProtocol,
) -> OddRoundProtocol:
    """Normalize a receiver-first protocol by inserting a trivial opening message.

    ``instrument0(x)`` is the receiver's opening move.  ``rest`` describes the
    remainder of the protocol; its tables are called with transcripts that
    START with the opening reply, so later rounds can depend on it.  The
    returned protocol is odd-depth with a unit first alphabet and reproduces
    the receiver-first statistics unchanged.
    """
    return OddRoundProtocol(
        randomness=rest.randomness,
        sender_alphabets=(("wake",),) + rest.sender_alphabets,
        receiver_alphabets=(receiver_alphabet,) + rest.receiver_alphabets,
        outcomes=rest.outcomes,
        coins=(lambda psi, x, tr: np.array([1.0]),)
        + tuple(
            (lambda coin: lambda psi, x, tr: coin(psi, x, tr[1:]))(c) for c in rest.coins
        ),
        instruments=(lambda x, tr: instrument0(x),)
        + tuple(
            (lambda inst: lambda x, tr: inst(x, tr[1:]))(i) for i in rest.instruments
        ),
        final_povm=lambda x, tr: rest.final_povm(x, tr[1:]),
    )


# ---------------------------------------------------------------------------
# Random protocol generation (seeded, for property tests and the CLI)
# ---------------------------------------------------------------------------

def _random_simplex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


def _random_state_coin(rng: np.random.Generator, size: int):
    """A coin whose distribution depends smoothly on the known state.

    Mixes two flat-simplex draws with the overlap of the state on a random
    direction, so collapse tests exercise genuinely state-dependent coins.
    """
    base0 = _random_simplex(rng, size)
    base1 = _random_simplex(rng, size)
    axis = qmath.bloch_to_density(qmath.random_bloch(rng))

    def coin(psi: np.ndarray) -> np.ndarray:
        f = float(np.clip(np.trace(axis @ psi).real, 0.0, 1.0))
        return f * base0 + (1.0 - f) * base1

    return coin


def random_instrument(rng: np.random.Generator, n_outcomes: int, dim: int) -> Instrument:
    """Instrument built from the blocks of a Haar-random isometry."""
    z = rng.normal(size=(n_outcomes * dim, dim)) + 1j * rng.normal(size=(n_outcomes * dim, dim))
    q, _ = np.linalg.qr(z)
    blocks = tuple(q[i * dim : (i + 1) * dim, :] for i in range(n_outcomes))
    return Instrument(kraus=blocks)


def random_povm(rng: np.random.Generator, n_outcomes: int, dim: int, labels=None) -> Povm:
    inst = random_instrument(rng, n_outcomes, dim)
    return Povm(
        effects=tuple(dagger(k) @ k for k in inst.kraus),
        labels=tuple(labels) if labels is not None else tuple(range(n_outcomes)),
    )


def random_three_round(
    seed: int,
    *,
    n_atoms: int = 2,
    n_m1: int = 2,
    n_m2: int = 2,
    n_m3: int = 2,
    n_outcomes: int = 2,
    dim: int = 2,
) -> OddRoundProtocol:
    """Seeded random three-round protocol with state-dependent coins."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    atom_probs = _random_simplex(rng, n_atoms)
    atom_probs = atom_probs / atom_probs.sum()
    coin1_table = {x: _random_state_coin(rng, n_m1) for x in range(n_atoms)}
    instruments = {
        (m1, x): random_instrument(rng, n_m2, dim)
        for m1 in range(n_m1)
        for x in range(n_atoms)
    }
    coin2_table = {
        (m1, m2, x): _random_state_coin(rng, n_m3)
        for m1 in range(n_m1)
        for m2 in range(n_m2)
        for x in range(n_atoms)
    }
    final_table = {
        (m1, m2, m3, x): random_povm(rng, n_outcomes, dim)
        for m1 in range(n_m1)
        for m2 in range(n_m2)
        for m3 in range(n_m3)
        for x in range(n_atoms)
    }
    return three_round_protocol(
        randomness=SharedRandomness(probabilities=tuple(atom_probs)),
        m1_alphabet=tuple(range(n_m1)),
        m2_alphabet=tuple(range(n_m2)),
        m3_alphabet=tuple(range(n_m3)),
        outcomes=tuple(range(n_outcomes)),
        coin1=lambda psi, x: coin1_table[x](psi),
        instrument=lambda m1, x: instruments[(m1, x)],
        coin2=lambda m1, m2, psi, x: coin2_table[(m1, m2, x)](psi),
        final_povm=lambda m1, m2, m3, x: final_table[(m1, m2, m3, x)],
    )


def random_odd_round(
    seed: int,
    depth: int,
    *,
    n_atoms: int = 2,
    alphabet: int = 2,
    n_outcomes: int = 2,
    dim: int = 2,
) -> OddRoundProtocol:
    """Seeded random protocol of the given odd depth (binary alphabets by default)."""
    if depth < 3 or depth % 2 == 0:
        raise ProtocolError("depth must be an odd number >= 3")
    if depth > 7:
        raise ProtocolError("depths beyond 7 are outside the supported desk scale")
    n_receiver = (depth - 1) // 2
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    atom_probs = _random_simplex(rng, n_atoms)
    atom_probs = atom_probs / atom_probs.sum()

    coin_tables: list[dict] = []
    for t in range(n_receiver + 1):
        table: dict = {}
        for x in range(n_atoms):
            for transcript in itertools.product(range(alphabet), repeat=2 * t):
                table[(x, transcript)] = _random_state_coin(rng, alphabet)
        coin_tables.append(table)
    inst_tables: list[dict] = []
    for t in range(n_receiver):
        table = {}
        for x in range(n_atoms):
            for transcript in itertools.product(range(alphabet), repeat=2 * t + 1):
                table[(x, transcript)] = random_instrument(rng, alphabet, dim)
        inst_tables.append(table)
    final_table = {}
    for x in range(n_atoms):
        for transcript in itertools.product(range(alphabet), repeat=depth):
            final_table[(x, transcript)] = random_povm(rng, n_outcomes, dim)

    def make_coin(t):
        return lambda psi, x, tr: coin_tables[t][(x, tuple(tr))](psi)

    def make_instrument(t):
        return lambda x, tr: inst_tables[t][(x, tuple(tr))]

    return OddRoundProtocol(
        randomness=SharedRandomness(probabilities=tuple(atom_probs)),
        sender_alphabets=tuple(tuple(range(alphabet)) for _ in range(n_receiver + 1)),
        receiver_alphabets=tuple(tuple(range(alphabet)) for _ in range(n_receiver)),
        outcomes=tuple(range(n_outcomes)),
        coins=tuple(make_coin(t) for t in range(n_receiver + 1)),
        instruments=tuple(make_instrument(t) for t in range(n_receiver)),
        final_povm=lambda x, tr: final_table[(x, tuple(tr))],
    )


def interactive_twist_protocol() -> OddRoundProtocol:
    """Receiver-first simulator of the sender-tilted twisted measurement.

    The receiver measures z on their unknown qubit and reports the outcome;
    the sender then measures z or x on the known state and reports back; the
    pair of reports fixes the joint outcome.  The receiver-first opening is
    normalized into a trivial first sender message.
    """
    z_instrument = Instrument(
        kraus=(qmath.projector(qmath.KET0), qmath.projector(qmath.KET1))
    )
    labels = qmath.catalog_labels("twistA")
    outcome_of = {(0, 0): "z+ z+", (0, 1): "z- z+", (1, 0): "x+ z-", (1, 1): "x- z-"}

    def coin(psi, x, transcript):
        ket = qmath.KET0 if transcript[0] == 0 else qmath.KET_PLUS
        p0 = float(np.clip(np.trace(qmath.projector(ket) @ psi).real, 0.0, 1.0))
        return np.array([p0, 1.0 - p0])

    def final_povm(x, transcript):
        chosen = outcome_of[transcript]
        effects = tuple(
            qmath.I2 if label == chosen else np.zeros((2, 2), dtype=complex)
            for label in labels
        )
        return Povm(effects=effects, labels=labels)

    reply = OddRoundProtocol(
        randomness=SharedRandomness.trivial(),
        sender_alphabets=((0, 1),),
        receiver_alphabets=(),
        outcomes=labels,
        coins=(coin,),
        instruments=(),
        final_povm=final_povm,
    )
    return pad_leading_sender_round(lambda x: z_instrument, (0, 1), reply)
