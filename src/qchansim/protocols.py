"""One-round shared-randomness protocols and the constructive channel simulators.

A one-round protocol is: a shared random variable, an encoder that maps
(shared atom, known sender state) to a distribution over a finite message
alphabet, and a decoder that maps (message, atom) to a measurement on the
receiver side.  Encoders see the sender state as a value; protocol objects
never see the receiver's state, so the information constraints of the setting
hold by construction.

Constructors provided here:

* ``rank1_product_protocol`` simulates any rank-1 product measurement on a
  known state times an unknown state, by decomposing the induced receiver-side
  measurement into extremal rank-1 measurements and sending the sampled label;
  ``decompose.message_system`` picks the alphabet.  Terms that share a label
  are one outcome, so a separable measurement runs as its product terms.
* ``block_basis_protocol`` simulates a product von Neumann measurement on
  C^2 x C^d given in block form, using one classical bit per block.
* ``multi_sender_protocol`` extends the product construction to two senders
  holding local known states, in both a broadcast configuration (A) and a
  strictly one-way configuration (B).  It is a one-round protocol whose
  sender state is the list of the senders' states.
* The ``rac_*`` functions implement the 2->1 random access code bounds and the
  reduction that turns any claimed simulator of the sender-tilted twisted
  measurement into a random access code strategy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Sequence

import numpy as np

from . import decompose, qmath
from .qmath import (
    ATOL_SCALAR,
    DimensionError,
    Povm,
    ProductRank1Effect,
    bloch_to_density,
    born,
    catalog_labels,
    catalog_product_effects,
    ket,
    projector,
    tensor,
)


class ProtocolError(ValueError):
    """Structural problem with a protocol or its inputs."""


@dataclass(frozen=True)
class SharedRandomness:
    """A finite shared random variable: the probabilities of its atoms."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        if min(probs) <= 0.0:
            raise ProtocolError("shared-randomness atoms must have positive probability")
        if abs(sum(probs) - 1.0) > ATOL_SCALAR:
            raise ProtocolError(f"atom probabilities sum to {sum(probs)!r}")
        object.__setattr__(self, "probabilities", probs)

    def __len__(self) -> int:
        return len(self.probabilities)

    @classmethod
    def trivial(cls) -> "SharedRandomness":
        return cls(probabilities=(1.0,))


@dataclass(frozen=True, eq=False)
class OneRoundProtocol:
    """Sender-to-receiver protocol: sample a message from the encoder, measure per the decoder.

    ``encoder(psi)`` returns the (atoms, messages) matrix whose row x is the
    message distribution under shared atom x.  ``effects`` stacks every
    decoder, shape (atoms, messages, outcomes, d, d): ``effects[x, m, o]`` is
    the receiver's effect for ``outcomes[o]`` after message m under atom x.
    It is checked once, at construction, and stored read-only; ``outcomes``
    must be distinct.  A decoder that names only some outcomes has zero
    effects for the rest, and ``named[x, m, o]`` records which outcomes it
    names (default: all).

    ``encoder_matrix`` keeps the checked table of the last sender state it
    evaluated, read-only, in a one-state ``qmath.StateMemo``, so the runners
    called one after the other on the same state run the encoder once.  An
    encoder that raises leaves nothing kept.
    """

    randomness: SharedRandomness
    messages: tuple
    encoder: Callable[[np.ndarray], np.ndarray]
    effects: np.ndarray
    outcomes: tuple[Hashable, ...]
    cost_bits: int
    meta: dict = field(default_factory=dict)
    named: np.ndarray | None = None
    _memo: qmath.StateMemo = field(default_factory=lambda: qmath.StateMemo(1), init=False, repr=False, compare=False)

    def __post_init__(self):
        effects = np.array(self.effects, dtype=complex)
        if effects.ndim != 5 or effects.shape[:3] != self.shape:
            raise ProtocolError(f"decoder effects have shape {effects.shape}, not {self.shape}")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ProtocolError(f"outcome labels repeat: {self.outcomes!r}")
        qmath.assert_measurements(effects)
        named = np.array(np.ones(self.shape) if self.named is None else self.named, dtype=bool)
        if named.shape != self.shape:
            raise ProtocolError(f"named outcomes have shape {named.shape}, expected {self.shape}")
        for name, value in (("effects", effects), ("named", named)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_messages(self) -> int:
        return len(self.messages)

    @property
    def shape(self) -> tuple[int, int, int]:
        """(atoms, messages, outcomes)."""
        return len(self.randomness), self.n_messages, len(self.outcomes)

    def encoder_matrix(self, psi) -> np.ndarray:
        """The checked (atoms, messages) matrix of message distributions, negatives clipped.

        The table of the last sender state is kept and returned, read-only,
        when the same state comes again: an array with the same dtype, shape
        and bytes, or a list or tuple of such arrays.  Any other ``psi`` runs
        the encoder on every call.  An encoder that raises keeps nothing.
        """
        return self._memo.get(psi, self._checked_encoder)

    def _checked_encoder(self, psi) -> np.ndarray:
        return check_distributions(self.encoder(psi), self.shape[:2], "encoder output")


def check_distributions(dist, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``dist`` as floats of the given shape, distributions on its last axis, negatives clipped."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != shape:
        raise ProtocolError(f"{what} has shape {dist.shape}, expected {shape}")
    # Every comparison with NaN is false, so NaN and +-inf entries fail this test too.
    if not (np.max(np.abs(dist.sum(axis=-1) - 1.0)) <= ATOL_SCALAR and dist.min() >= -ATOL_SCALAR):
        if not np.isfinite(dist).all():
            raise ProtocolError(f"{what} holds a non-finite entry")
        raise ProtocolError(f"{what} is not a probability distribution")
    return np.clip(dist, 0.0, None)


def bit_cost(alphabet_size: int) -> int:
    return 0 if alphabet_size <= 1 else math.ceil(math.log2(alphabet_size))


def label_groups(labels: Sequence[Hashable], n_slots: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The distinct labels in first-seen order, with the slot ``order`` and segment ``starts``.

    ``np.add.reduceat(values[order], starts)`` sums per-slot values per label, in slot order.
    """
    if len(labels) != n_slots:
        raise ProtocolError(f"{len(labels)} labels for {n_slots} product terms")
    index: dict = {}
    outcome_of_slot = np.array([index.setdefault(label, len(index)) for label in labels], dtype=int)
    order = np.argsort(outcome_of_slot, kind="stable")
    return tuple(index), order, np.searchsorted(outcome_of_slot[order], np.arange(len(index)))


def constant_protocol(povm: Povm) -> OneRoundProtocol:
    """Single-atom, single-message protocol: the receiver just measures ``povm``."""
    return OneRoundProtocol(
        randomness=SharedRandomness.trivial(),
        messages=("go",),
        encoder=lambda psi: np.ones((1, 1)),
        effects=np.array(povm.effects)[None, None],
        outcomes=povm.labels,
        cost_bits=0,
        meta={"construction": "constant"},
    )


def _weights_and_state(protocol: OneRoundProtocol, encoder_matrix: np.ndarray, phi: np.ndarray):
    """p(x) p(m | x, psi) as an (atoms, messages) matrix, and the checked receiver state."""
    phi = qmath.assert_density_matrix(phi, "receiver state")
    if phi.shape != protocol.effects.shape[-2:]:
        raise DimensionError(f"receiver state {phi.shape} for effects {protocol.effects.shape}")
    atoms = np.asarray(protocol.randomness.probabilities)
    return atoms[:, None] * encoder_matrix, phi


def run_analytic(protocol: OneRoundProtocol, psi, phi: np.ndarray) -> np.ndarray:
    """Exact outcome distribution sum_x sum_m p(x) p(m|x,psi) tr(phi effects[x, m, o])."""
    weights, phi = _weights_and_state(protocol, protocol.encoder_matrix(psi), phi)
    return np.einsum("xm,xmoij,ji->o", weights, protocol.effects, phi).real


def run_sampled(
    protocol: OneRoundProtocol,
    psi,
    phi: np.ndarray,
    n: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the protocol statistics with standard errors.

    Deterministic given the seed.  Sampling is two-stage: multinomial counts
    over the (atom, message) pairs of positive weight, then, for each drawn
    pair, multinomial counts over the outcomes its decoder names, from their
    Born probabilities.  This is distributionally identical to per-shot
    simulation.
    """
    if n < 1:
        raise ProtocolError("sample count must be at least 1")
    weights, phi = _weights_and_state(protocol, protocol.encoder_matrix(psi), phi)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    atoms, messages = np.nonzero(weights > 0.0)
    pair_probs = weights[atoms, messages]
    pair_counts = rng.multinomial(n, pair_probs / pair_probs.sum())
    drawn = np.flatnonzero(pair_counts)
    atoms, messages, pair_counts = atoms[drawn], messages[drawn], pair_counts[drawn]
    born_probs = np.trace(phi @ protocol.effects[atoms, messages], axis1=-2, axis2=-1).real
    counts = np.zeros(len(protocol.outcomes))
    for x, m, count, probs in zip(atoms, messages, pair_counts, born_probs):
        named = protocol.named[x, m]
        probs = np.clip(probs[named], 0.0, None)
        counts[named] += rng.multinomial(count, probs / probs.sum())
    freqs = counts / n
    stderr = np.sqrt(np.clip(freqs * (1.0 - freqs), 0.0, None) / n)
    return freqs, stderr


# ---------------------------------------------------------------------------
# Rank-1 product measurements (single sender)
# ---------------------------------------------------------------------------

def rank1_product_protocol(
    joint: Sequence[ProductRank1Effect],
    labels: Sequence[Hashable] | None = None,
) -> OneRoundProtocol:
    """One-round simulator for a two-party rank-1 product measurement.

    The sender decomposes the receiver-side effective measurement into a
    mixture of extremal rank-1 measurements and transmits the sampled label;
    the receiver performs the corresponding extremal measurement.  The message
    alphabet is the extremal family, pruned by ``decompose.message_system``
    to the smallest subfamily that decomposes every sender state.  The
    slot-weight map and that mixture system are built here, once, so the
    encoder does only the per-state work.

    ``labels`` names each product term (default: its index); terms that
    share a label are one outcome, whose effect is their sum.  ``outcomes``
    are the distinct labels in first-seen order.
    """
    joint = tuple(joint)
    if any(e.n_parties != 2 for e in joint):
        raise ProtocolError("rank1_product_protocol expects two-party effects")
    labels = tuple(range(len(joint)) if labels is None else labels)
    outcomes, order, starts = label_groups(labels, len(joint))
    slot_map = decompose.slot_weight_map(joint)
    system = decompose.message_system(slot_map)
    family = system.extremals
    slot_effects = system.matrix[:-1].T[None, :, :, None, None] * slot_map.receiver
    # The runners' einsum sums in stride order, so the summed effects keep the slot effects' layout.
    effects = np.empty_like(slot_effects[:, :, : len(outcomes)])
    np.add.reduceat(slot_effects[:, :, order], starts, axis=2, out=effects)

    def encoder(psi: np.ndarray) -> np.ndarray:
        return decompose.solve_mixture(system, decompose.slot_weights(slot_map, psi))[None, :]

    return OneRoundProtocol(
        randomness=SharedRandomness.trivial(),
        messages=tuple(ext.support for ext in family),
        encoder=encoder,
        effects=effects,
        outcomes=outcomes,
        cost_bits=bit_cost(len(family)),
        meta={
            "construction": "rank1_product",
            "family_supports": tuple(ext.support for ext in family),
        },
    )


def catalog_protocol(name: str) -> OneRoundProtocol:
    """One-round simulator for a product-form catalog measurement."""
    return rank1_product_protocol(
        catalog_product_effects(name), labels=catalog_labels(name)
    )


# ---------------------------------------------------------------------------
# Product von Neumann measurements on C^2 x C^d (block form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisBlock:
    """One block of a product orthonormal basis of C^2 x C^d.

    The block pairs a sender basis {alpha, alpha_perp} with two receiver
    families spanning the same subspace: ``bob_bit0`` goes with alpha and
    ``bob_bit1`` with alpha_perp.
    """

    alice: np.ndarray
    bob_bit0: tuple[np.ndarray, ...]
    bob_bit1: tuple[np.ndarray, ...]

    def __post_init__(self):
        alice = ket(*np.asarray(self.alice, dtype=complex).reshape(-1))
        if alice.shape != (2,):
            raise ProtocolError("block sender states must be qubits")
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob_bit0", tuple(ket(*v) for v in self.bob_bit0))
        object.__setattr__(self, "bob_bit1", tuple(ket(*v) for v in self.bob_bit1))
        if len(self.bob_bit0) != len(self.bob_bit1) or not self.bob_bit0:
            raise ProtocolError("block receiver families must be non-empty and equal-sized")

    @property
    def alice_perp(self) -> np.ndarray:
        return qmath.orthogonal_ket(self.alice)

    @property
    def size(self) -> int:
        return len(self.bob_bit0)

    def subspace_projector(self) -> np.ndarray:
        return sum(projector(v) for v in self.bob_bit0)


def block_basis_vectors(blocks: Sequence[BasisBlock]) -> list[np.ndarray]:
    """The product kets of a block basis in outcome order, checked orthonormal and in block form."""
    dims = {v.shape[0] for b in blocks for v in b.bob_bit0 + b.bob_bit1}
    if len(dims) != 1:
        raise ProtocolError("receiver states have mixed dimensions")
    d = dims.pop()
    if sum(b.size for b in blocks) != d:
        raise ProtocolError("block sizes do not fill the receiver space")
    vectors = []
    for b in blocks:
        vectors.extend(tensor(b.alice, v) for v in b.bob_bit0)
        vectors.extend(tensor(b.alice_perp, v) for v in b.bob_bit1)
    gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
    if np.max(np.abs(gram - np.eye(2 * d))) > 1e-10:
        raise ProtocolError("block states do not form an orthonormal product basis")
    for b in blocks:
        alt = sum(projector(v) for v in b.bob_bit1)
        if np.max(np.abs(alt - b.subspace_projector())) > 1e-10:
            raise ProtocolError("basis is not in block form: receiver families span different subspaces")
    return vectors


def block_basis_protocol(blocks: Sequence[BasisBlock]) -> OneRoundProtocol:
    """One-round simulator for a product von Neumann measurement given in blocks.

    The sender measures each block's {alpha, alpha_perp} basis on an
    independent copy of the known state and transmits one bit per block.  The
    receiver first distinguishes the block subspaces, then measures the family
    selected by the bit of the block that fired.  Outcome labels are
    (block index, bit, within-block index).
    """
    blocks = tuple(blocks)
    block_basis_vectors(blocks)
    n_blocks = len(blocks)
    outcomes = tuple(
        (i, a, j) for i, b in enumerate(blocks) for a in (0, 1) for j in range(b.size)
    )
    messages = tuple(itertools.product((0, 1), repeat=n_blocks))
    d = blocks[0].bob_bit0[0].shape[0]
    effects = np.zeros((1, len(messages), len(outcomes), d, d), dtype=complex)
    for k, message in enumerate(messages):
        for o, (i, a, j) in enumerate(outcomes):
            if message[i] == a:
                family = blocks[i].bob_bit0 if a == 0 else blocks[i].bob_bit1
                effects[0, k, o] = projector(family[j])

    alice = [projector(b.alice) for b in blocks]

    def encoder(psi: np.ndarray) -> np.ndarray:
        psi = qmath.assert_density_matrix(psi, "sender state")
        p0 = np.array([np.trace(a @ psi).real for a in alice])
        bit_probs = np.maximum(np.stack([p0, 1.0 - p0], axis=1), 0.0)
        # Row k multiplies block i's probability of the bit message k sends, block by block.
        return np.prod(bit_probs[np.arange(n_blocks), np.array(messages)], axis=1)[None, :]

    return OneRoundProtocol(
        randomness=SharedRandomness.trivial(),
        messages=messages,
        encoder=encoder,
        effects=effects,
        outcomes=outcomes,
        cost_bits=n_blocks,
        meta={"construction": "block_basis", "n_blocks": n_blocks},
    )


def block_branch_table(blocks: Sequence[BasisBlock]) -> list[dict]:
    """Receiver-side branch structure: subspace selector plus per-bit measurements."""
    table = []
    for i, b in enumerate(blocks):
        table.append(
            {
                "block": i,
                "subspace_projector": b.subspace_projector(),
                "alice_basis": (b.alice, b.alice_perp),
                "bit0_measurement": b.bob_bit0,
                "bit1_measurement": b.bob_bit1,
            }
        )
    return table


def blocks_from_product_basis(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list[BasisBlock]:
    """Recover block structure from a flat list of (sender ket, receiver ket) pairs.

    Groups entries by the sender-side projector (within 1e-10) and pairs up
    groups whose projectors are orthogonal complements.
    """
    groups: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for a, v in pairs:
        a = ket(*np.asarray(a, dtype=complex).reshape(-1))
        p = projector(a)
        for rep, members in groups:
            if np.max(np.abs(projector(rep) - p)) <= 1e-10:
                members.append(ket(*v))
                break
        else:
            groups.append((a, [ket(*v)]))
    used = [False] * len(groups)
    blocks = []
    for i, (rep, members) in enumerate(groups):
        if used[i]:
            continue
        partner = None
        for j in range(i + 1, len(groups)):
            if used[j]:
                continue
            if np.max(np.abs(projector(groups[j][0]) + projector(rep) - np.eye(2))) <= 1e-10:
                partner = j
                break
        if partner is None:
            raise ProtocolError("basis is not in block form: unpaired sender direction")
        used[i] = used[partner] = True
        blocks.append(
            BasisBlock(alice=rep, bob_bit0=tuple(members), bob_bit1=tuple(groups[partner][1]))
        )
    return blocks


def demo_block_basis() -> list[BasisBlock]:
    """Three-block orthonormal product basis of C^2 x C^6.

    The sender bases of the three blocks are the z, x and y eigenbases; the
    receiver subspaces are spanned by basis pairs (0,1), (2,3), (4,5), with
    the bit-1 families given by the +- superpositions within each pair.
    """
    e = np.eye(6, dtype=complex)

    def plus(i, j):
        return ket(*(e[i] + e[j]))

    def minus(i, j):
        return ket(*(e[i] - e[j]))

    return [
        BasisBlock(alice=ket(1, 0), bob_bit0=(ket(*e[0]), ket(*e[1])),
                   bob_bit1=(plus(0, 1), minus(0, 1))),
        BasisBlock(alice=ket(1, 1), bob_bit0=(ket(*e[2]), ket(*e[3])),
                   bob_bit1=(plus(2, 3), minus(2, 3))),
        BasisBlock(alice=ket(1, 1j), bob_bit0=(ket(*e[4]), ket(*e[5])),
                   bob_bit1=(plus(4, 5), minus(4, 5))),
    ]


# ---------------------------------------------------------------------------
# Several senders (fully product measurements)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, kw_only=True)
class MultiSenderProtocol(OneRoundProtocol):
    """Simulator for a fully product measurement with two senders.

    A one-round protocol whose sender state is the list ``[psi1, psi2]`` of
    the senders' known states.  The first sender samples an extremal label l
    for the measurement induced on everyone else, with weight mu_l(psi1); the
    second sender runs branch l's two-party protocol on psi2.  Messages are
    (label, branch message) pairs and the decoder is the branch decoder.  In
    configuration A the label is broadcast, so only the selected branch
    transmits; in configuration B the second sender transmits its branch
    message for every possible label and the receiver selects, which
    multiplies the downstream cost by the alphabet size.  ``cost_bits``
    counts what the configuration transmits; the statistics are the same.
    """

    config: str
    first_bits: int
    branch_bits: tuple[int, ...]

    def run_analytic(self, states: Sequence[np.ndarray], phi: np.ndarray) -> np.ndarray:
        """Exact statistics given the senders' known states and the receiver state."""
        return run_analytic(self, states, phi)

    def run_sampled(
        self, states: Sequence[np.ndarray], phi: np.ndarray, n: int, seed: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Monte Carlo statistics given the senders' known states and the receiver state."""
        return run_sampled(self, states, phi, n, seed)


def _peel_pairs(joint: Sequence[ProductRank1Effect]) -> list[ProductRank1Effect]:
    """View a fully product measurement as (first party) x (everyone else)."""
    return [
        ProductRank1Effect(weight=e.weight, factors=(e.factors[0], tensor(*e.factors[1:])))
        for e in joint
    ]


def multi_sender_protocol(
    joint: Sequence[ProductRank1Effect],
    config: str,
    labels: Sequence[Hashable] | None = None,
) -> OneRoundProtocol:
    """Build the multi-sender simulator for a fully product rank-1 measurement.

    With two parties this reduces to ``rank1_product_protocol``.  With three,
    it peels the first sender: enumerate extremal measurements of the induced
    measurement on the remaining parties, and build one two-party branch
    protocol per label.  More parties leave a residual of dimension above
    ``enumerate_extremals``' maximum, which rejects them.  As there, terms
    that share a label are one outcome, and branches map outcomes by label.
    """
    if config not in ("A", "B"):
        raise ProtocolError(f"config must be 'A' or 'B', got {config!r}")
    joint = tuple(joint)
    parties = {e.n_parties for e in joint}
    if len(parties) != 1:
        raise ProtocolError("effects disagree on the number of parties")
    n_parties = parties.pop()
    if n_parties < 2:
        raise ProtocolError("need at least one sender and one receiver")
    if n_parties == 2:
        return rank1_product_protocol(joint, labels)
    labels = tuple(range(len(joint)) if labels is None else labels)
    outcomes = label_groups(labels, len(joint))[0]

    slot_map = decompose.slot_weight_map(_peel_pairs(joint))
    system = decompose.message_system(slot_map)
    family = system.extremals

    branches = tuple(
        rank1_product_protocol(
            [ProductRank1Effect(weight=w, factors=joint[i].factors[1:])
             for i, w in zip(ext.support, ext.weights)],
            [labels[i] for i in ext.support],
        )
        for ext in family
    )
    messages = tuple((ext.support, m) for ext, b in zip(family, branches) for m in b.messages)
    offsets = np.cumsum([0] + [b.n_messages for b in branches])
    d = branches[0].effects.shape[-1]
    effects = np.zeros((1, len(messages), len(outcomes), d, d), dtype=complex)
    named = np.zeros(effects.shape[:3], dtype=bool)
    for branch, lo, hi in zip(branches, offsets, offsets[1:]):
        columns = [outcomes.index(label) for label in branch.outcomes]
        effects[0][lo:hi, columns] = branch.effects[0]
        named[0][lo:hi, columns] = True

    def encoder(states: Sequence[np.ndarray]) -> np.ndarray:
        if len(states) != 2:
            raise ProtocolError(f"expected 2 sender states, got {len(states)}")
        mu = decompose.solve_mixture(system, decompose.slot_weights(slot_map, states[0]))
        dist = np.zeros(len(messages))
        for coefficient, branch, lo, hi in zip(mu, branches, offsets, offsets[1:]):
            if coefficient > 0.0:
                dist[lo:hi] = coefficient * branch.encoder_matrix(states[1])[0]
        return dist[None, :]

    branch_bits = tuple(b.cost_bits for b in branches)
    first_bits = bit_cost(len(family))
    return MultiSenderProtocol(
        randomness=SharedRandomness.trivial(),
        messages=messages,
        encoder=encoder,
        effects=effects,
        outcomes=outcomes,
        cost_bits=first_bits + (max(branch_bits) if config == "A" else sum(branch_bits)),
        meta={"construction": "multi_sender"},
        named=named,
        config=config,
        first_bits=first_bits,
        branch_bits=branch_bits,
    )


# ---------------------------------------------------------------------------
# 2 -> 1 random access code
# ---------------------------------------------------------------------------

RAC_GUESS_ZERO = ("z+ z+", "x+ z-")
RAC_GUESS_ONE = ("z- z+", "x- z-")


def rac_preparation(x0: int, x1: int, theta: float = math.pi / 4) -> np.ndarray:
    """Sender state encoding the bit pair; theta balances the z and x components."""
    return bloch_to_density(
        (math.sin(theta) * (-1.0) ** x1, 0.0, math.cos(theta) * (-1.0) ** x0)
    )


def rac_query_state(y: int) -> np.ndarray:
    """Receiver state selecting which bit is being asked for."""
    return bloch_to_density((0.0, 0.0, (-1.0) ** y))


def rac_classical_best() -> tuple[Fraction, list[tuple[tuple, tuple]]]:
    """Exhaustive deterministic 1-bit strategies: exact maximum and its achievers.

    All 16 encodings {0,1}^2 -> {0,1} against all 16 decodings
    {0,1} x {0,1} -> {0,1}, scored over uniform inputs in exact rational
    arithmetic.
    """
    inputs = list(itertools.product((0, 1), repeat=2))
    best = Fraction(0)
    argmax = []
    for encoder in itertools.product((0, 1), repeat=4):
        enc = dict(zip(inputs, encoder))
        for decoder in itertools.product((0, 1), repeat=4):
            dec = dict(zip(itertools.product((0, 1), repeat=2), decoder))
            hits = sum(
                dec[(enc[(x0, x1)], y)] == (x0, x1)[y]
                for x0, x1 in inputs
                for y in (0, 1)
            )
            score = Fraction(hits, 8)
            if score > best:
                best, argmax = score, [(encoder, decoder)]
            elif score == best:
                argmax.append((encoder, decoder))
    return best, argmax


def rac_qubit_table(theta: float = math.pi / 4) -> dict[tuple[int, int, int], float]:
    """Per-instance success of the qubit strategy: measure z for y=0, x for y=1."""
    table = {}
    for x0, x1 in itertools.product((0, 1), repeat=2):
        psi = rac_preparation(x0, x1, theta)
        for y in (0, 1):
            axis = (0.0, 0.0, 1.0) if y == 0 else (1.0, 0.0, 0.0)
            correct_bit = (x0, x1)[y]
            sign = (-1.0) ** correct_bit
            target = bloch_to_density(tuple(sign * c for c in axis))
            table[(x0, x1, y)] = np.trace(target @ psi).real
    return table


def rac_qubit_success(theta: float = math.pi / 4) -> float:
    """Average success of the qubit strategy; (2 + sqrt 2)/4 at the balanced tilt."""
    table = rac_qubit_table(theta)
    return sum(table.values()) / len(table)


def rac_success(stats_fn: Callable[[np.ndarray, np.ndarray], dict]) -> float:
    """Random-access-code success of a claimed simulator of the tilted measurement.

    ``stats_fn(psi, phi)`` must return outcome probabilities keyed by the
    twistA outcome labels.  The receiver guesses 0 on the outcomes whose
    receiver-side projector matches their query state and whose sender-side
    projector points along the positive axis, and 1 otherwise.
    """
    total = 0.0
    count = 0
    for x0, x1 in itertools.product((0, 1), repeat=2):
        psi = rac_preparation(x0, x1)
        for y in (0, 1):
            stats = stats_fn(psi, rac_query_state(y))
            guess0 = sum(stats.get(label, 0.0) for label in RAC_GUESS_ZERO)
            guess1 = sum(stats.get(label, 0.0) for label in RAC_GUESS_ONE)
            correct = (x0, x1)[y]
            total += guess0 if correct == 0 else guess1
            count += 1
    return total / count


def rac_success_via_protocol(protocol: OneRoundProtocol) -> float:
    """RAC success achieved by feeding a one-round simulator through the reduction."""
    expected = set(RAC_GUESS_ZERO + RAC_GUESS_ONE)
    if set(protocol.outcomes) != expected:
        raise ProtocolError("protocol outcomes do not match the tilted measurement")

    def stats_fn(psi, phi):
        probs = run_analytic(protocol, psi, phi)
        return dict(zip(protocol.outcomes, probs))

    return rac_success(stats_fn)


def rac_born_oracle_success() -> float:
    """RAC success of an oracle that outputs the exact joint statistics."""
    povm = qmath.catalog_measurement("twistA")

    def stats_fn(psi, phi):
        return dict(zip(povm.labels, born(tensor(psi, phi), povm)))

    return rac_success(stats_fn)


def rac_one_bit_bound(n_atoms: int = 8) -> tuple[Fraction, dict]:
    """Exact ceiling on RAC success for any 1-bit protocol with shared randomness.

    For each deterministic encoding of the bit pair into one message, the
    receiver's optimal effects solve a linear program whose exact optimum is
    the positive part of an integer diagonal operator, so the per-encoding
    value is exact.  Success is linear in the strategy conditioned on the
    shared atom, so randomizing over up to ``n_atoms`` deterministic choices
    cannot beat the best single encoding.
    """
    if n_atoms < 1:
        raise ProtocolError("need at least one shared-randomness atom")
    inputs = list(itertools.product((0, 1), repeat=2))
    per_encoder = {}
    for encoder in itertools.product((0, 1), repeat=4):
        enc = dict(zip(inputs, encoder))
        gain = 0
        for m in (0, 1):
            chosen = [x for x in inputs if enc[x] == m]
            for y in (0, 1):
                b = sum((-1) ** x[y] for x in chosen)
                gain += max(b, 0)
        per_encoder[encoder] = Fraction(4 + gain, 8)
    best = max(per_encoder.values())
    return best, {"per_encoder": per_encoder, "n_atoms": n_atoms}


def twist_simulator_protocol() -> OneRoundProtocol:
    """Two-bit one-round simulator of the sender-tilted twisted measurement."""
    return catalog_protocol("twistA")
