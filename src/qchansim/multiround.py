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

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from . import qmath
from .protocols import (
    OneRoundProtocol,
    ProtocolError,
    SharedRandomness,
    bit_cost,
    check_distributions,
)
from .qmath import Instrument, Povm, dagger


#: The most sender states whose coin tables a generated coin round keeps.
COIN_STATES_KEPT = 64

#: The most messages a collapse may build.  Depth 5 over ternary alphabets
#: (1,594,323) and depth 7 over binary ones (32,768) stay below it.
MAX_COLLAPSED_MESSAGES = 2**21


def collapsed_message_count(sender_sizes: Sequence[int], receiver_sizes: Sequence[int]) -> int:
    """The size of the alphabet that ``collapse_odd_rounds`` builds, from the round sizes alone.

    Folded from the last round back, as the collapse folds: a sender round
    of a messages, L replies to it and a later alphabet of n messages become
    one round of a * n**L messages.  The count never falls as rounds are
    folded in, so the fold stops as soon as it passes
    ``MAX_COLLAPSED_MESSAGES`` and raises a ProtocolError, before any power
    can grow without bound.
    """
    count = sender_sizes[-1]
    for size, replies in zip(sender_sizes[-2::-1], receiver_sizes[::-1]):
        if count > MAX_COLLAPSED_MESSAGES:
            break
        # From 2 messages up, n**L is at least 2**L: past the limit once L reaches its bit length.
        if count > 1 and replies >= MAX_COLLAPSED_MESSAGES.bit_length():
            count = MAX_COLLAPSED_MESSAGES + 1
        else:
            count = size * count**replies
    if count > MAX_COLLAPSED_MESSAGES:
        raise ProtocolError(
            f"the collapsed protocol would have more than {MAX_COLLAPSED_MESSAGES} messages"
        )
    return count


def _instrument(p: "OddRoundProtocol", t: int, x: int, transcript: tuple) -> Instrument:
    inst = p.instruments[t](x, transcript)
    if len(inst) != len(p.receiver_alphabets[t]):
        raise ProtocolError("instrument outcome count does not match its alphabet")
    return inst


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
    The ``outcomes`` labels must be distinct.

    ``tables`` holds the arrays that ``tabulate`` returns, when a seeded
    generator has handed them over; it is never a constructor argument, so
    ``dataclasses.replace`` drops it and a protocol with replaced callables
    is tabulated from them.
    """

    randomness: SharedRandomness
    sender_alphabets: tuple[tuple, ...]
    receiver_alphabets: tuple[tuple, ...]
    outcomes: tuple[Hashable, ...]
    coins: tuple[Callable, ...]
    instruments: tuple[Callable, ...]
    final_povm: Callable[[int, tuple], Povm]
    tables: TabulatedRounds | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coins) != len(self.sender_alphabets):
            raise ProtocolError("one coin per sender round is required")
        if len(self.instruments) != len(self.receiver_alphabets):
            raise ProtocolError("one instrument per receiver round is required")
        if len(self.sender_alphabets) != len(self.receiver_alphabets) + 1:
            raise ProtocolError("odd depth requires one more sender round than receiver rounds")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ProtocolError(f"outcome labels repeat: {self.outcomes!r}")

    @property
    def depth(self) -> int:
        return len(self.sender_alphabets) + len(self.receiver_alphabets)


def _unknown_outcome(p: OddRoundProtocol, label) -> ProtocolError:
    return ProtocolError(f"a final measurement names {label!r}, which is not in outcomes {p.outcomes!r}")


def _extend(keys: list, parents: np.ndarray, symbols: np.ndarray, size: int) -> tuple[list, np.ndarray]:
    """The distinct (atom, transcript) keys that extend ``keys[parents]`` by ``symbols``, and each entry's index.

    The keys come out in walk order: by parent, then by symbol.
    """
    codes, index = np.unique(parents * size + symbols, return_inverse=True)
    parent, symbol = np.divmod(codes, size)
    return [(keys[i][0], keys[i][1] + (s,)) for i, s in zip(parent.tolist(), symbol.tolist())], index


def _stacked_coins(p: OddRoundProtocol, t: int, psis: Sequence, pair: np.ndarray, keys: list,
                   key: np.ndarray) -> np.ndarray:
    """The coin of round t on every (pair, atom, transcript) entry, as checked rows of one array."""
    size = len(p.sender_alphabets[t])
    coin = p.coins[t]
    coins = [coin(psis[i], *keys[k]) for i, k in zip(pair.tolist(), key.tolist())]
    for row in coins:
        if np.shape(row) != (size,):
            raise ProtocolError(f"coin {t} has shape {np.shape(row)}, expected {(size,)}")
    return check_distributions(coins, (len(coins), size), f"coin {t}")


def run_odd_rounds(p: OddRoundProtocol, psis: Sequence, phis: Sequence[np.ndarray]) -> np.ndarray:
    """Direct nested-summation evaluation of an odd-depth protocol on (psi, phi) pairs.

    Row i of the (pairs, outcomes) result is the distribution on
    ``(psis[i], phis[i])``.  The live (pair, atom, transcript) entries advance
    one round at a time, together, pair by pair and, within a pair, atom by
    atom in walk order.  Each sender round makes one coin call per entry, in
    that order, one check of the stacked coins and keeps the branches with
    positive probability.  Each receiver round calls each instrument once per
    distinct (atom, transcript) and gathers its Kraus operators by index for
    one stacked sandwich and one trace, dropping replies of trace at most
    1e-15.  At the end each distinct final measurement is called once, one
    stacked ``effect @ state`` with its trace gives every term, and one
    ``np.add.at`` adds them to the rows in the order of each pair's
    depth-first walk of the transcript tree.  Every product and trace is the
    one that walk takes, on the same matrices, so each row is bit for bit the
    nested sum.  Only the protocol's own callables are used, never the
    tables the collapse works from.  A final measurement that names a label
    outside ``outcomes`` raises a ProtocolError.
    """
    if len(psis) != len(phis):
        raise ProtocolError(f"{len(psis)} sender states for {len(phis)} receiver states")
    phis = [qmath.assert_density_matrix(phi, "receiver state") for phi in phis]
    index = {label: i for i, label in enumerate(p.outcomes)}
    out = np.zeros((len(phis), len(p.outcomes)))
    if not phis:
        return out
    n_atoms = len(p.randomness)
    n_receiver = len(p.receiver_alphabets)
    # Entry e is the pair pair[e] at the (atom, transcript) keys[key[e]].
    keys = [(x, ()) for x in range(n_atoms)]
    pair = np.repeat(np.arange(len(phis)), n_atoms)
    key = np.tile(np.arange(n_atoms), len(phis))
    weights = np.tile(np.array(p.randomness.probabilities, dtype=float), len(phis))
    states = np.array(phis)[pair]
    for t in range(n_receiver + 1):
        coin = _stacked_coins(p, t, psis, pair, keys, key)
        # The negated tests keep what the nested sum kept, NaN included.
        rows, messages = np.nonzero(~(coin <= 0.0))
        keys, key = _extend(keys, key[rows], messages, coin.shape[1])
        pair, states, weights = pair[rows], states[rows], weights[rows] * coin[rows, messages]
        if t == n_receiver:
            break
        kraus = np.array([_instrument(p, t, x, tr).kraus for x, tr in keys])[key]
        updated = kraus @ states[:, None] @ dagger(kraus)
        # Replies of trace at most 1e-15 are zero-probability branches.
        rows, replies = np.nonzero(~(np.trace(updated, axis1=-2, axis2=-1).real <= 1e-15))
        keys, key = _extend(keys, key[rows], replies, kraus.shape[1])
        pair, states, weights = pair[rows], updated[rows, replies], weights[rows]
    povms = [p.final_povm(x, tr) for x, tr in keys]
    try:
        slots = np.array([index[label] for povm in povms for label in povm.labels])
    except KeyError as missing:
        raise _unknown_outcome(p, missing.args[0]) from None
    effects = np.array([e for povm in povms for e in povm.effects])
    # Entry e's terms are the effects of its measurement, in order: the j-th is
    # effects[first[key[e]] + j], where first[k] is where measurement k starts.
    sizes = np.array([len(povm) for povm in povms])
    first = np.cumsum(sizes) - sizes
    counts = sizes[key]
    owner = np.repeat(np.arange(len(key)), counts)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    effect = first[key][owner] + j
    terms = weights[owner] * np.trace(effects[effect] @ states[owner], axis1=-2, axis2=-1).real
    np.add.at(out, (pair[owner], slots[effect]), terms)
    return out


def run_odd_round(p: OddRoundProtocol, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The distribution of an odd-depth protocol on one (psi, phi) pair: ``run_odd_rounds`` of that pair."""
    return run_odd_rounds(p, [psi], [phi])[0]


@dataclass(frozen=True, eq=False)
class TabulatedRounds:
    """An odd-depth protocol with its receiver side held as arrays over transcripts.

    Transcript axes follow the rounds (sender, receiver, ..., sender) after a
    leading atom axis.  ``kraus[t]`` has shape (atoms, transcript of length
    2t+1, reply, d, d); ``final`` has shape (atoms, full transcript,
    outcomes, d, d), zero for outcomes a final measurement does not name.
    ``coins(psi)`` returns one table per sender round t, of shape (atoms,
    transcript of length 2t, message).
    """

    randomness: SharedRandomness
    sender_alphabets: tuple[tuple, ...]
    receiver_alphabets: tuple[tuple, ...]
    outcomes: tuple[Hashable, ...]
    coins: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    kraus: tuple[np.ndarray, ...]
    final: np.ndarray


def tabulate(p: OddRoundProtocol) -> TabulatedRounds:
    """An odd-depth protocol's instruments, final measurements and coins as arrays over every transcript.

    A protocol that a seeded generator made carries its tables
    (``p.tables``), the checked stacks it drew, and gets them back with no
    call per transcript.  Any other protocol is evaluated through its
    callables: every instrument and final measurement once, here, and every
    coin on each state ``coins(psi)`` is given.  The two agree bit for bit.
    """
    if p.tables is not None:
        return p.tables
    rounds = [a for pair in itertools.zip_longest(p.sender_alphabets, p.receiver_alphabets)
              for a in pair if a is not None]
    n_atoms = len(p.randomness)

    def table(length: int, entry: Callable) -> np.ndarray:
        """entry(x, transcript) over every atom and transcript of the first ``length`` rounds."""
        sizes = tuple(len(a) for a in rounds[:length])
        rows = np.array([entry(x, tr) for x in range(n_atoms) for tr in np.ndindex(*sizes)])
        return rows.reshape((n_atoms,) + sizes + rows.shape[1:])

    def coin_table(t: int, psi) -> np.ndarray:
        coin = table(2 * t, lambda x, tr: p.coins[t](psi, x, tr))
        expected = coin.shape[: 2 * t + 1] + (len(p.sender_alphabets[t]),)
        return check_distributions(coin, expected, f"coin {t}")

    return TabulatedRounds(
        randomness=p.randomness,
        sender_alphabets=p.sender_alphabets,
        receiver_alphabets=p.receiver_alphabets,
        outcomes=p.outcomes,
        coins=lambda psi: tuple(coin_table(t, psi) for t in range(len(p.sender_alphabets))),
        kraus=tuple(
            table(2 * t + 1, lambda x, tr: _instrument(p, t, x, tr).kraus)
            for t in range(len(p.receiver_alphabets))
        ),
        final=table(p.depth, lambda x, tr: _padded_final(p, x, tr)),
    )


def _padded_final(p: OddRoundProtocol, x: int, transcript: tuple) -> np.ndarray:
    """The final measurement's effects in ``outcomes`` order (``Povm.padded``), its labels checked."""
    povm = p.final_povm(x, transcript)
    for label in povm.labels:
        if label not in p.outcomes:
            raise _unknown_outcome(p, label)
    return povm.padded(p.outcomes)


def _merge_coins(coins: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Fold the last two coins into one over (previous message, planned answers).

    The merged probability is old[m_prev] * r_0[a_0] * r_1[a_1] * ..., taken
    left to right, for the planned answer a_b to each reply b.
    """
    base, replies = coins[-2:]
    n_reply, n_last = replies.shape[-2:]
    merged = base.reshape(base.shape + (1,) * n_reply)
    for b in range(n_reply):
        axes = (1,) * b + (n_last,) + (1,) * (n_reply - b - 1)
        merged = merged * replies[..., b, :].reshape(base.shape + axes)
    return coins[:-2] + (merged.reshape(base.shape[:-1] + (-1,)),)


def _merge_final(kraus: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Compose the last instrument with the final measurement, per planned-answer table.

    For each reply b the effect for answer a_b is K_b^dag E[..., b, a_b] K_b;
    the merged effect adds these over the replies in order.
    """
    lead = final.shape[:-5]
    n_reply, n_last, n_out = final.shape[-5:-2]
    d = kraus.shape[-1]
    merged = np.zeros(lead + (n_last,) * n_reply + (n_out, d, d), dtype=complex)
    for b in range(n_reply):
        k = kraus[..., b, None, None, :, :]
        axes = (1,) * b + (n_last,) + (1,) * (n_reply - b - 1)
        merged += (dagger(k) @ final[..., b, :, :, :, :] @ k).reshape(lead + axes + (n_out, d, d))
    return merged.reshape(lead[:-1] + (-1, n_out, d, d))


def collapse_trailing_rounds(p: OddRoundProtocol | TabulatedRounds) -> TabulatedRounds:
    """Collapse the last sender-receiver-sender exchange into one sender round.

    The new last message is (old last-but-one message, planned final answers),
    and the new final measurement composes the last instrument's Kraus
    sandwiches, conditioned on the surviving transcript prefix.
    """
    if isinstance(p, OddRoundProtocol):
        p = tabulate(p)
    if not p.receiver_alphabets:
        raise ProtocolError("nothing to collapse below depth 3")
    n_prev, n_last = (len(a) for a in p.sender_alphabets[-2:])
    answers = itertools.product(range(n_last), repeat=len(p.receiver_alphabets[-1]))
    merged_alphabet = tuple(itertools.product(range(n_prev), answers))
    return dataclasses.replace(
        p,
        sender_alphabets=p.sender_alphabets[:-2] + (merged_alphabet,),
        receiver_alphabets=p.receiver_alphabets[:-1],
        coins=lambda psi: _merge_coins(p.coins(psi)),
        kraus=p.kraus[:-1],
        final=_merge_final(p.kraus[-1], p.final),
    )


def collapse_odd_rounds(p: OddRoundProtocol) -> OneRoundProtocol:
    """Reduce any odd-depth protocol to one round by repeated trailing collapse.

    The receiver side is tabulated once and collapsed as arrays; the coins
    are tabulated and merged for each sender state the encoder is given.
    ``meta["stage_alphabet_sizes"]`` lists the sender alphabet sizes before
    each collapse step.  A protocol whose collapse would pass
    ``MAX_COLLAPSED_MESSAGES`` raises a ProtocolError before anything is
    tabulated.
    """
    collapsed_message_count(
        [len(a) for a in p.sender_alphabets], [len(a) for a in p.receiver_alphabets]
    )
    tables = tabulate(p)
    stages = []
    while tables.receiver_alphabets:
        stages.append(tuple(len(a) for a in tables.sender_alphabets))
        tables = collapse_trailing_rounds(tables)
    alphabet = tables.sender_alphabets[0]
    return OneRoundProtocol(
        randomness=tables.randomness,
        messages=alphabet,
        encoder=lambda psi: tables.coins(psi)[0],
        effects=tables.final,
        outcomes=tables.outcomes,
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
        + tuple((lambda c: lambda psi, x, tr: c(psi, x, tr[1:]))(c) for c in rest.coins),
        instruments=(lambda x, tr: instrument0(x),)
        + tuple((lambda i: lambda x, tr: i(x, tr[1:]))(i) for i in rest.instruments),
        final_povm=lambda x, tr: rest.final_povm(x, tr[1:]),
    )


# ---------------------------------------------------------------------------
# Random protocol generation (seeded, for property tests and the CLI)
# ---------------------------------------------------------------------------

class _CoinRound:
    """The state coins of one sender round, held as one table over their keys.

    Row i of ``base0``, ``base1`` and ``axes`` belongs to the (atom,
    transcript) key whose ``rows`` entry is i.  On a sender state psi every
    row is evaluated at once: with f the overlap tr(axis psi) clipped to
    [0, 1], the coin is f base0 + (1 - f) base1, so the distribution depends
    smoothly on the known state.  The tables of the last
    ``COIN_STATES_KEPT`` states are kept in a ``qmath.StateMemo``, so the
    collapse's coin tables and the direct walk's coin calls on the same
    states share one evaluation per state.
    """

    def __init__(self, rows: dict, base0: np.ndarray, base1: np.ndarray, axes: np.ndarray):
        self.rows, self.base0, self.base1, self.axes = rows, base0, base1, axes
        self._memo = qmath.StateMemo(COIN_STATES_KEPT)

    @classmethod
    def draw(cls, rng: np.random.Generator, keys: list, size: int) -> "_CoinRound":
        """Per key in order: two flat-simplex draws of ``size`` entries and a random Bloch axis.

        A key's draws go straight into preallocated rows: ``2 * size``
        standard exponentials (the two simplex draws, which consume the
        stream as two calls of ``size`` do) and a normal 3-vector.  The rows
        are then normalised at once, as ``rng.dirichlet(np.ones(size))`` and
        ``qmath.random_bloch`` normalise one draw.  This relies on numpy's
        Dirichlet rule for α > 0.1: it draws ``standard_gamma(α)``, which is
        ``standard_exponential`` at α = 1, and multiplies each entry by 1/acc
        with acc summed left to right; so the sum is taken as column adds,
        since ``.sum(axis=-1)`` regroups from 8 entries up.  The test of the
        generator against its one-draw-at-a-time oracle pins this.  The
        Bloch norms come from ``np.vecdot``, as ``np.linalg.norm`` takes
        them, and ``qmath.bloch_stack_to_density`` checks and builds every
        axis at once.
        """
        n = len(keys)
        gammas = np.empty((n, 2, size))
        normals = np.empty((n, 3))
        for i in range(n):
            rng.standard_exponential(out=gammas[i])
            normals[i] = rng.normal(size=3)
        acc = gammas[..., 0]
        for j in range(1, size):
            acc = acc + gammas[..., j]
        simplex = gammas * (1.0 / acc)[..., None]
        axes = normals / np.sqrt(np.vecdot(normals, normals))[:, None]
        rows = {key: i for i, key in enumerate(keys)}
        return cls(rows, simplex[:, 0], simplex[:, 1], qmath.bloch_stack_to_density(axes))

    def table(self, psi) -> np.ndarray:
        """Every key's coin on ``psi``, one row per key."""
        return self._memo.get(psi, self._evaluate)

    def _evaluate(self, psi) -> np.ndarray:
        f = np.clip(np.trace(self.axes @ psi, axis1=-2, axis2=-1).real, 0.0, 1.0)[:, None]
        return f * self.base0 + (1.0 - f) * self.base1

    def __call__(self, psi, x: int, transcript) -> np.ndarray:
        row = self.rows[(x, tuple(transcript))]
        return self.table(psi)[row].copy()


def _isometry_blocks(rng: np.random.Generator, count: int, n_outcomes: int, dim: int) -> np.ndarray:
    """The square blocks of ``count`` Haar-random isometries from C^dim.

    The shape is (count, n_outcomes, dim, dim).  One normal draw holds the
    real and then the imaginary part of each isometry in turn, the stream
    that one draw per isometry takes, and one stacked QR factors them all.
    """
    normals = rng.normal(size=(count, 2, n_outcomes * dim, dim))
    q, _ = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    return q.reshape(count, n_outcomes, dim, dim)


def random_instrument(rng: np.random.Generator, n_outcomes: int, dim: int) -> Instrument:
    """Instrument built from the blocks of a Haar-random isometry."""
    return Instrument(kraus=tuple(_isometry_blocks(rng, 1, n_outcomes, dim)[0]))


def random_povm(rng: np.random.Generator, n_outcomes: int, dim: int, labels=None) -> Povm:
    """Measurement whose effects are K^dag K for the blocks K of a Haar-random isometry."""
    blocks = _isometry_blocks(rng, 1, n_outcomes, dim)
    return Povm(
        effects=tuple((dagger(blocks) @ blocks)[0]),
        labels=tuple(labels) if labels is not None else tuple(range(n_outcomes)),
    )


def _random_rounds(
    rng: np.random.Generator,
    rounds: tuple[int, ...],
    n_atoms: int,
    n_outcomes: int,
    dim: int,
    *,
    table_order: Sequence[int],
    atom_major: bool,
) -> OddRoundProtocol:
    """Random protocol over round alphabets of the given sizes, drawn from ``rng``.

    Each round is one table keyed by (atom, transcript): the round for
    transcripts of length L holds coins (L even), instruments (L odd) or the
    final measurements (L the depth).  Tables are drawn in ``table_order``,
    and within a table atom by atom (``atom_major``) or transcript by
    transcript.  A coin round is a ``_CoinRound``: per key in order it draws
    the exponentials of two flat Dirichlet draws and a normal 3-vector into
    preallocated rows, then normalises every simplex row and Bloch axis of
    the round at once, as numpy's ``dirichlet`` and ``qmath.random_bloch``
    would one key at a time; it evaluates every key's coin at once and keeps
    the tables of the last sender states.  An instrument or measurement round
    draws the normals of all its isometries in one call and factors them in
    one stacked QR, and its instruments or measurements are checked once, as
    one stack (``qmath.checked_kraus``, ``qmath.checked_effects``).  The
    stream is consumed as drawing each entry alone consumed it, so a seed
    gives the protocol it always gave.  Rounds whose collapse would pass
    ``MAX_COLLAPSED_MESSAGES`` raise a ProtocolError before any table is
    drawn.

    The protocol carries its checked, read-only stacks as its ``tables``:
    each is a reshape of a round's stack, or for transcript-major keys a
    ``moveaxis`` of one, to the (atom, transcript, ...) axes ``tabulate``
    gives; the coin tables are those of the coin rounds' memos.
    """
    collapsed_message_count(rounds[0::2], rounds[1::2])
    atom_probs = rng.dirichlet(np.ones(n_atoms))
    atom_probs = atom_probs / atom_probs.sum()
    depth = len(rounds)
    tables, stacks = {}, {}
    for length in table_order:
        transcripts = list(np.ndindex(*rounds[:length]))
        keys = list(itertools.product(range(n_atoms), transcripts)) if atom_major else [
            (x, tr) for tr in transcripts for x in range(n_atoms)
        ]
        if length % 2 == 0 and length < depth:
            tables[length] = _CoinRound.draw(rng, keys, rounds[length])
            continue
        n = n_outcomes if length == depth else rounds[length]
        blocks = _isometry_blocks(rng, len(keys), n, dim)
        if length == depth:
            stacks[length] = qmath.checked_effects(dagger(blocks) @ blocks, range(n_outcomes))
            made = Povm._rows(stacks[length], tuple(range(n_outcomes)))
        else:
            stacks[length] = qmath.checked_kraus(blocks)
            made = Instrument._rows(stacks[length])
        tables[length] = dict(zip(keys, made))

    def instrument(table):
        return lambda x, tr: table[(x, tuple(tr))]

    def arranged(stack: np.ndarray, length: int) -> np.ndarray:
        """A stack over the keys of transcripts of ``length`` rounds, on (atom, transcript, ...) axes."""
        sizes = rounds[:length]
        if atom_major:
            return stack.reshape((n_atoms, *sizes) + stack.shape[1:])
        return np.moveaxis(stack.reshape((*sizes, n_atoms) + stack.shape[1:]), length, 0)

    coin_rounds = [tables[length] for length in range(0, depth, 2)]

    def coins(psi) -> tuple[np.ndarray, ...]:
        return tuple(
            check_distributions(arranged(c.table(psi), 2 * t), (n_atoms, *rounds[: 2 * t + 1]), f"coin {t}")
            for t, c in enumerate(coin_rounds)
        )

    protocol = OddRoundProtocol(
        randomness=SharedRandomness(probabilities=tuple(atom_probs)),
        sender_alphabets=tuple(tuple(range(n)) for n in rounds[0::2]),
        receiver_alphabets=tuple(tuple(range(n)) for n in rounds[1::2]),
        outcomes=tuple(range(n_outcomes)),
        coins=tuple(coin_rounds),
        instruments=tuple(instrument(tables[length]) for length in range(1, depth, 2)),
        final_povm=lambda x, tr: tables[depth][(x, tuple(tr))],
    )
    handed = TabulatedRounds(
        randomness=protocol.randomness,
        sender_alphabets=protocol.sender_alphabets,
        receiver_alphabets=protocol.receiver_alphabets,
        outcomes=protocol.outcomes,
        coins=coins,
        kraus=tuple(arranged(stacks[length], length) for length in range(1, depth, 2)),
        final=arranged(stacks[depth], depth),
    )
    object.__setattr__(protocol, "tables", handed)
    return protocol


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
    rounds = (n_m1, n_m2, n_m3)
    return _random_rounds(rng, rounds, n_atoms, n_outcomes, dim, table_order=(0, 1, 2, 3), atom_major=False)


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
    order = (*range(0, depth, 2), *range(1, depth, 2), depth)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _random_rounds(
        rng, (alphabet,) * depth, n_atoms, n_outcomes, dim, table_order=order, atom_major=True
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

    finals = {tr: Povm(effects=(qmath.I2,), labels=(label,)) for tr, label in outcome_of.items()}

    reply = OddRoundProtocol(
        randomness=SharedRandomness.trivial(),
        sender_alphabets=((0, 1),),
        receiver_alphabets=(),
        outcomes=labels,
        coins=(coin,),
        instruments=(),
        final_povm=lambda x, tr: finals[tr],
    )
    return pad_leading_sender_round(lambda x: z_instrument, (0, 1), reply)
