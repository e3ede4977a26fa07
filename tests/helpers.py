"""Shared test utilities: random measurement generators and Born-rule oracles."""

import math
from itertools import compress

import numpy as np

from qchansim import decompose, qmath, serialize
from qchansim.protocols import check_distributions
from qchansim.qmath import (
    Povm,
    ProductRank1Effect,
    bloch_to_ket,
    dagger,
    haar_ket,
    orthogonal_ket,
    tensor,
)

TRINE_BLOCH = [
    (0.0, 0.0, 1.0),
    (math.sqrt(3) / 2, 0.0, -0.5),
    (-math.sqrt(3) / 2, 0.0, -0.5),
]
TETRA_BLOCH = [
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
]


def random_rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_local_rank1_povm(rng: np.random.Generator, kind: str) -> list[tuple[float, np.ndarray]]:
    """A random single-qubit rank-1 measurement as (weight, ket) pairs."""
    if kind == "basis":
        v = haar_ket(2, rng)
        return [(1.0, v), (1.0, orthogonal_ket(v))]
    rot = random_rotation_matrix(rng)
    if kind == "trine":
        vecs = [rot @ np.asarray(b) for b in TRINE_BLOCH]
        return [(2.0 / 3.0, bloch_to_ket(v)) for v in vecs]
    if kind == "tetra":
        vecs = [rot @ (np.asarray(b) / math.sqrt(3.0)) for b in TETRA_BLOCH]
        return [(0.5, bloch_to_ket(v)) for v in vecs]
    raise ValueError(f"unknown kind {kind!r}")


def random_product_povm(rng: np.random.Generator, kinds=("basis", "basis")) -> list[ProductRank1Effect]:
    """Product of two random local rank-1 measurements on C^2 x C^2."""
    left = random_local_rank1_povm(rng, kinds[0])
    right = random_local_rank1_povm(rng, kinds[1])
    return [
        ProductRank1Effect(weight=wa * wb, factors=(a, b))
        for wa, a in left
        for wb, b in right
    ]


def mixed_product_povm(rng: np.random.Generator) -> list[ProductRank1Effect]:
    """Convex mixture of two random product-basis measurements (8 outcomes)."""
    w = float(rng.uniform(0.2, 0.8))
    first = random_product_povm(rng, ("basis", "basis"))
    second = random_product_povm(rng, ("basis", "basis"))
    out = []
    for weight, e in [(w, t) for t in first] + [(1.0 - w, t) for t in second]:
        out.append(ProductRank1Effect(weight=weight * e.weight, factors=e.factors))
    return out


def product_povm_matrix(effects) -> Povm:
    return Povm.from_effects([e.matrix() for e in effects], labels=range(len(effects)))


def born_product_oracle(effects, psi, phi) -> np.ndarray:
    """Direct Born probabilities of a two-party product measurement on psi x phi."""
    joint_state = tensor(psi, phi)
    return np.array([np.trace(joint_state @ e.matrix()).real for e in effects])


def nested_sum_odd_round(p, psi, phi) -> np.ndarray:
    """Odd-depth statistics by a depth-first walk of the transcript tree.

    The oracle that the level-wise ``multiround.run_odd_round`` must equal
    bit for bit: one coin check, product and trace per branch, and each
    final contribution added as the walk reaches it.
    """
    phi = qmath.assert_density_matrix(phi, "receiver state")
    index = {label: i for i, label in enumerate(p.outcomes)}
    out = np.zeros(len(p.outcomes))
    n_receiver = len(p.receiver_alphabets)

    def descend(x, t, transcript, state, weight):
        size = len(p.sender_alphabets[t])
        coin = check_distributions(p.coins[t](psi, x, transcript), (size,), f"coin {t}")
        for m_a in range(size):
            if coin[m_a] <= 0.0:
                continue
            after_a = transcript + (m_a,)
            w_a = weight * coin[m_a]
            if t == n_receiver:
                povm = p.final_povm(x, after_a)
                for label, effect in zip(povm.labels, povm.effects):
                    out[index[label]] += w_a * np.trace(effect @ state).real
                continue
            for m_b, kraus in enumerate(p.instruments[t](x, after_a).kraus):
                updated = kraus @ state @ dagger(kraus)
                if np.trace(updated).real <= 1e-15:
                    continue  # zero-probability branch
                descend(x, t + 1, after_a + (m_b,), updated, w_a)

    for x, p_atom in enumerate(p.randomness.probabilities):
        descend(x, 0, (), phi, p_atom)
    return out


def one_round_protocol_to_obj(p, psi_grid, tables=None) -> dict:
    """A one-round protocol on a grid of sender states, built as one tree of lists and dicts.

    The oracle that ``serialize.one_round_protocol_chunks`` must equal: its
    text is byte for byte ``json.dumps`` of this object with sorted keys and
    an indent of 2.  Complex entries are [re, im] pairs.
    """
    if tables is None:
        tables = [p.encoder_matrix(psi) for psi in psi_grid]
    if len(tables) != len(psi_grid):
        raise serialize.SerializationError(f"{len(tables)} encoder tables for {len(psi_grid)} grid states")
    encoder_table = np.stack(tables, axis=1).tolist()
    outcome_objs = [serialize._label_to_obj(o) for o in p.outcomes]
    decoders = [
        [
            serialize._measurement_to_obj(list(compress(outcome_objs, named)), list(compress(effects, named)))
            for effects, named in zip(effects_x, p.named[x])
        ]
        for x, effects_x in enumerate(serialize._matrix_objs(p.effects))
    ]
    return {
        "kind": "one_round_protocol",
        "atoms": [float(q) for q in p.randomness.probabilities],
        "messages": [serialize._label_to_obj(m) for m in p.messages],
        "outcomes": outcome_objs,
        "cost_bits": int(p.cost_bits),
        "construction": str(p.meta.get("construction", "table")),
        "encoder": {
            "kind": "table",
            "psi_grid": serialize._bloch_list(psi_grid),
            "table": encoder_table,
        },
        "decoders": decoders,
    }


def count_solves(monkeypatch) -> list:
    """Record every ``decompose.solve_mixture`` call from here on; returns the list of calls."""
    calls = []
    solve = decompose.solve_mixture

    def counting(system, weights):
        calls.append(weights)
        return solve(system, weights)

    monkeypatch.setattr(decompose, "solve_mixture", counting)
    return calls
