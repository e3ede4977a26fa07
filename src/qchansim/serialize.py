"""Structured text (JSON) serialization for states, measurements and protocols.

Conventions, shared by every schema here:

* complex scalars are two-element arrays ``[re, im]``;
* matrices are row-major flat lists of complex scalars with an explicit
  ``dim`` field;
* kets are flat lists of complex scalars;
* outcome labels and message labels round-trip with tuples encoded as lists
  (and decoded back to tuples);
* encoders, which are functions of the sender state, serialize either as
  tables over a declared grid of Bloch vectors or as a named construction tag.
"""

from __future__ import annotations

import contextlib
import json
from typing import Sequence

import numpy as np

from . import qmath
from .decompose import ExtremalDecomposition, ExtremalPovm
from .multiround import OddRoundProtocol, three_round_protocol
from .protocols import OneRoundProtocol, ProtocolError, SharedRandomness
from .qmath import Instrument, Povm, ProductRank1Effect


class SerializationError(ValueError):
    """Malformed or unsupported serialized object."""


@contextlib.contextmanager
def _reading(kind: str):
    """Report a missing key or a value of the wrong type as a SerializationError."""
    try:
        yield
    except (qmath.QmathError, ProtocolError, SerializationError):
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {kind}: {exc!r}") from exc


def _complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SerializationError(f"complex entries must be [re, im], got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SerializationError(f"expected square matrix, got shape {m.shape}")
    return {
        "kind": "matrix",
        "dim": int(m.shape[0]),
        "entries": [_complex_to_pair(z) for z in m.reshape(-1)],
    }


def matrix_from_obj(obj: dict) -> np.ndarray:
    if obj.get("kind") != "matrix":
        raise SerializationError(f"expected matrix object, got {obj.get('kind')!r}")
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise SerializationError("matrix entry count does not match dim")
    return np.array([_pair_to_complex(p) for p in entries], dtype=complex).reshape(dim, dim)


def ket_to_obj(v: np.ndarray) -> list:
    return [_complex_to_pair(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def ket_from_obj(obj) -> np.ndarray:
    return np.array([_pair_to_complex(p) for p in obj], dtype=complex)


def _label_to_obj(label):
    if isinstance(label, tuple):
        return {"tuple": [_label_to_obj(x) for x in label]}
    if isinstance(label, (str, int, float, bool)) or label is None:
        return label
    raise SerializationError(f"label {label!r} is not serializable")


def _label_from_obj(obj):
    if isinstance(obj, dict) and set(obj) == {"tuple"}:
        return tuple(_label_from_obj(x) for x in obj["tuple"])
    return obj


def povm_to_obj(p: Povm) -> dict:
    return {
        "kind": "povm",
        "dim": p.dim,
        "labels": [_label_to_obj(label) for label in p.labels],
        "effects": [matrix_to_obj(e) for e in p.effects],
    }


def povm_from_obj(obj: dict) -> Povm:
    if obj.get("kind") != "povm":
        raise SerializationError(f"expected povm object, got {obj.get('kind')!r}")
    return Povm(
        effects=tuple(matrix_from_obj(e) for e in obj["effects"]),
        labels=tuple(_label_from_obj(label) for label in obj["labels"]),
    )


def product_effect_to_obj(e: ProductRank1Effect) -> dict:
    return {
        "kind": "product_effect",
        "weight": float(e.weight),
        "factors": [ket_to_obj(f) for f in e.factors],
    }


def product_effect_from_obj(obj: dict) -> ProductRank1Effect:
    if obj.get("kind") != "product_effect":
        raise SerializationError(f"expected product_effect, got {obj.get('kind')!r}")
    return ProductRank1Effect(
        weight=float(obj["weight"]),
        factors=tuple(ket_from_obj(f) for f in obj["factors"]),
    )


def product_povm_to_obj(effects: Sequence[ProductRank1Effect], labels=None) -> dict:
    return {
        "kind": "product_povm",
        "labels": [_label_to_obj(l) for l in (labels or range(len(effects)))],
        "effects": [product_effect_to_obj(e) for e in effects],
    }


def product_povm_from_obj(obj: dict) -> tuple[tuple[ProductRank1Effect, ...], tuple]:
    with _reading("product_povm"):
        if obj.get("kind") != "product_povm":
            raise SerializationError(f"expected product_povm, got {obj.get('kind')!r}")
        effects = tuple(product_effect_from_obj(e) for e in obj["effects"])
        labels = tuple(_label_from_obj(l) for l in obj["labels"])
    return effects, labels


def decomposition_to_obj(d: ExtremalDecomposition) -> dict:
    return {
        "kind": "extremal_decomposition",
        "mixture": [
            {
                "mu": float(mu),
                "support": [int(i) for i in ext.support],
                "weights": [float(w) for w in ext.weights],
            }
            for mu, ext in d.mixture
        ],
    }


def decomposition_from_obj(obj: dict) -> ExtremalDecomposition:
    if obj.get("kind") != "extremal_decomposition":
        raise SerializationError("expected extremal_decomposition")
    return ExtremalDecomposition(
        mixture=tuple(
            (
                float(entry["mu"]),
                ExtremalPovm(
                    support=tuple(entry["support"]), weights=tuple(entry["weights"])
                ),
            )
            for entry in obj["mixture"]
        )
    )


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

def _bloch_list(psi_grid: Sequence[np.ndarray]) -> list[list[float]]:
    return [[float(c) for c in qmath.density_to_bloch(rho)] for rho in psi_grid]


def _grid_lookup(grid_bloch: np.ndarray, psi: np.ndarray) -> int:
    target = qmath.density_to_bloch(psi)
    gaps = np.linalg.norm(grid_bloch - target[None, :], axis=1)
    idx = int(np.argmin(gaps))
    if gaps[idx] > 1e-9:
        raise ProtocolError("sender state is not on the protocol's declared grid")
    return idx


def one_round_protocol_to_obj(
    p: OneRoundProtocol, psi_grid: Sequence[np.ndarray]
) -> dict:
    """Tabulate a one-round protocol on a declared grid of sender states.

    Decoder measurements are state-independent and serialize exactly; the
    encoder serializes as its table of distributions over the grid.
    """
    encoder_table = [
        [[float(v) for v in p.encoder_distribution(x, psi)] for psi in psi_grid]
        for x in range(len(p.randomness))
    ]
    decoders = [
        [povm_to_obj(p.decoder(m, x)) for m in range(p.n_messages)]
        for x in range(len(p.randomness))
    ]
    return {
        "kind": "one_round_protocol",
        "atoms": [float(q) for q in p.randomness.probabilities],
        "messages": [_label_to_obj(m) for m in p.messages],
        "outcomes": [_label_to_obj(o) for o in p.outcomes],
        "cost_bits": int(p.cost_bits),
        "construction": str(p.meta.get("construction", "table")),
        "encoder": {
            "kind": "table",
            "psi_grid": _bloch_list(psi_grid),
            "table": encoder_table,
        },
        "decoders": decoders,
    }


def one_round_protocol_from_obj(obj: dict) -> OneRoundProtocol:
    with _reading("one_round_protocol"):
        if obj.get("kind") != "one_round_protocol":
            raise SerializationError("expected one_round_protocol")
        enc = obj["encoder"]
        if enc.get("kind") != "table":
            raise SerializationError(f"unsupported encoder kind {enc.get('kind')!r}")
        grid_bloch = np.asarray(enc["psi_grid"], dtype=float)
        table = [np.asarray(rows, dtype=float) for rows in enc["table"]]
        decoders = [
            [povm_from_obj(d) for d in per_atom] for per_atom in obj["decoders"]
        ]
        randomness = SharedRandomness(probabilities=tuple(obj["atoms"]))
        messages = tuple(_label_from_obj(m) for m in obj["messages"])
        outcomes = tuple(_label_from_obj(o) for o in obj["outcomes"])
        cost_bits = int(obj["cost_bits"])
        if (
            grid_bloch.shape[1:] != (3,)
            or [t.shape for t in table] != [(len(grid_bloch), len(messages))] * len(randomness)
            or [len(d) for d in decoders] != [len(messages)] * len(randomness)
            or not {o for row in decoders for d in row for o in d.labels} <= set(outcomes)
        ):
            raise SerializationError("one_round_protocol tables do not match its grid and alphabets")

    def encoder(x: int, psi: np.ndarray) -> np.ndarray:
        return table[x][_grid_lookup(grid_bloch, psi)]

    return OneRoundProtocol(
        randomness=randomness,
        messages=messages,
        encoder=encoder,
        decoder=lambda m, x: decoders[x][m],
        outcomes=outcomes,
        cost_bits=cost_bits,
        meta={"construction": obj.get("construction", "table")},
    )


def three_round_protocol_to_obj(
    p: OddRoundProtocol, psi_grid: Sequence[np.ndarray]
) -> dict:
    """Explicit tables of a depth-3 protocol over a declared sender grid."""
    (m1_alphabet, m3_alphabet), (m2_alphabet,) = p.sender_alphabets, p.receiver_alphabets
    n1, n2, n3 = len(m1_alphabet), len(m2_alphabet), len(m3_alphabet)
    n_atoms = len(p.randomness)
    coin1 = [
        [[float(v) for v in p.coins[0](psi, x, ())] for psi in psi_grid]
        for x in range(n_atoms)
    ]
    instruments = [
        [[matrix_to_obj(k) for k in p.instruments[0](x, (m1,)).kraus] for x in range(n_atoms)]
        for m1 in range(n1)
    ]
    coin2 = [
        [
            [
                [[float(v) for v in p.coins[1](psi, x, (m1, m2))] for psi in psi_grid]
                for x in range(n_atoms)
            ]
            for m2 in range(n2)
        ]
        for m1 in range(n1)
    ]
    finals = [
        [
            [
                [povm_to_obj(p.final_povm(x, (m1, m2, m3))) for x in range(n_atoms)]
                for m3 in range(n3)
            ]
            for m2 in range(n2)
        ]
        for m1 in range(n1)
    ]
    return {
        "kind": "three_round_protocol",
        "atoms": [float(q) for q in p.randomness.probabilities],
        "m1": [_label_to_obj(m) for m in m1_alphabet],
        "m2": [_label_to_obj(m) for m in m2_alphabet],
        "m3": [_label_to_obj(m) for m in m3_alphabet],
        "outcomes": [_label_to_obj(o) for o in p.outcomes],
        "psi_grid": _bloch_list(psi_grid),
        "coin1": coin1,
        "instruments": instruments,
        "coin2": coin2,
        "finals": finals,
    }


def three_round_protocol_from_obj(obj: dict) -> OddRoundProtocol:
    if obj.get("kind") != "three_round_protocol":
        raise SerializationError("expected three_round_protocol")
    grid_bloch = np.asarray(obj["psi_grid"], dtype=float)
    coin1 = obj["coin1"]
    coin2 = obj["coin2"]
    instruments = [
        [Instrument(kraus=tuple(matrix_from_obj(k) for k in per_atom)) for per_atom in row]
        for row in obj["instruments"]
    ]
    finals = [
        [
            [[povm_from_obj(d) for d in per_m3] for per_m3 in per_m2]
            for per_m2 in per_m1
        ]
        for per_m1 in obj["finals"]
    ]
    return three_round_protocol(
        randomness=SharedRandomness(probabilities=tuple(obj["atoms"])),
        m1_alphabet=tuple(_label_from_obj(m) for m in obj["m1"]),
        m2_alphabet=tuple(_label_from_obj(m) for m in obj["m2"]),
        m3_alphabet=tuple(_label_from_obj(m) for m in obj["m3"]),
        outcomes=tuple(_label_from_obj(o) for o in obj["outcomes"]),
        coin1=lambda psi, x: np.asarray(coin1[x][_grid_lookup(grid_bloch, psi)]),
        instrument=lambda m1, x: instruments[m1][x],
        coin2=lambda m1, m2, psi, x: np.asarray(
            coin2[m1][m2][x][_grid_lookup(grid_bloch, psi)]
        ),
        final_povm=lambda m1, m2, m3, x: finals[m1][m2][m3][x],
    )


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def loads(text: str) -> dict:
    return json.loads(text)
