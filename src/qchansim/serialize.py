"""Structured text (JSON) serialization for states, measurements and protocols.

Conventions, shared by every schema here:

* complex scalars are two-element arrays ``[re, im]``;
* matrices are row-major flat lists of complex scalars with an explicit
  ``dim`` field;
* kets are flat lists of complex scalars;
* outcome labels and message labels round-trip with a tuple encoded as
  ``{"tuple": [...]}`` (and decoded back to a tuple);
* encoders, which are functions of the sender state, serialize as tables
  over a declared grid of Bloch vectors, next to the protocol's
  construction tag.

All text is written by one chunk generator, ``_chunks``, byte for byte as
``json.dumps(obj, sort_keys=True, indent=2)`` writes it: ``dumps`` joins its
chunks, and ``one_round_protocol_chunks`` streams them, with the encoder
table and the decoder effects written from their arrays in blocks and passed
in as text already written for their place (``_Written``).
"""

from __future__ import annotations

import contextlib
import json
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import qmath
from .decompose import ExtremalPovm
from .multiround import OddRoundProtocol, tabulate
from .protocols import OneRoundProtocol, ProtocolError, SharedRandomness, bit_cost
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


def _nested(fn, tables, depth: int):
    """fn applied to every entry ``depth`` levels down in nested lists or array axes."""
    return fn(tables) if depth == 0 else [_nested(fn, t, depth - 1) for t in tables]


def _complex_pairs(values: np.ndarray) -> list:
    """A complex array as nested lists with an [re, im] pair in place of each entry."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], -1).tolist()


def _matrix_objs(matrices: np.ndarray):
    """``matrix_to_obj`` of every square matrix in an array of shape (..., d, d), as nested lists.

    The whole array is converted in one pass, which is much faster than one
    call per matrix when there are many small ones.
    """
    matrices = np.asarray(matrices, dtype=complex)
    d = matrices.shape[-1]
    entries = _complex_pairs(matrices.reshape(matrices.shape[:-2] + (d * d,)))
    return _nested(lambda e: {"kind": "matrix", "dim": d, "entries": e}, entries, matrices.ndim - 2)


def _pair_to_complex(pair) -> complex:
    # A JSON string such as "0.5" is not a number, and a bool is not one either.
    if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(_is_real, pair)):
        raise SerializationError(f"complex entries must be [re, im] numbers, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SerializationError(f"expected square matrix, got shape {m.shape}")
    return _matrix_objs(m)


def matrix_from_obj(obj: dict) -> np.ndarray:
    if obj.get("kind") != "matrix":
        raise SerializationError(f"expected matrix object, got {obj.get('kind')!r}")
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise SerializationError("matrix entry count does not match dim")
    return np.array([_pair_to_complex(p) for p in entries], dtype=complex).reshape(dim, dim)


def ket_to_obj(v: np.ndarray) -> list:
    return _complex_pairs(np.reshape(v, -1))


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


def _measurement_to_obj(label_objs: list, effect_objs: list[dict]) -> dict:
    """A measurement from its serialized labels and effects (``_label_to_obj``, ``_matrix_objs``)."""
    return {
        "kind": "povm",
        "dim": effect_objs[0]["dim"],
        "labels": label_objs,
        "effects": effect_objs,
    }


def povm_to_obj(p: Povm) -> dict:
    return _measurement_to_obj([_label_to_obj(l) for l in p.labels], _matrix_objs(p.effects))


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
        if len(labels) != len(effects):
            raise SerializationError(f"{len(labels)} labels for {len(effects)} effects")
        hash(labels)  # a label keys its outcome, so every label must be hashable
    return effects, labels


def decomposition_to_obj(coefficients: np.ndarray, extremals: Sequence[ExtremalPovm]) -> dict:
    """The mixture coefficients over a family, each with its extremal pattern."""
    return {
        "kind": "extremal_decomposition",
        "mixture": [
            {
                "mu": float(mu),
                "support": [int(i) for i in ext.support],
                "weights": [float(w) for w in ext.weights],
            }
            for mu, ext in zip(coefficients, extremals, strict=True)
        ],
    }


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


def one_round_protocol_chunks(
    p: OneRoundProtocol, psi_grid: Sequence[np.ndarray], tables: Sequence[np.ndarray]
) -> Iterable[str]:
    """A one-round protocol tabulated on a declared grid of sender states, as JSON text in chunks.

    ``tables`` holds ``p.encoder_matrix`` of every grid state; the encoder
    serializes as that table, nested as [atom][grid state][message].
    Decoder measurements serialize exactly, one per atom and message, naming
    the outcomes of ``p.named``.  The table and the decoder effects are
    written from their arrays, one block of at most ``_BLOCK_FLOATS`` floats
    at a time, so no block's text grows with the alphabet.
    """
    if len(tables) != len(psi_grid):
        raise SerializationError(f"{len(tables)} encoder tables for {len(psi_grid)} grid states")
    outcome_objs = [_label_to_obj(o) for o in p.outcomes]
    obj = {
        "atoms": [float(q) for q in p.randomness.probabilities],
        "construction": str(p.meta.get("construction", "table")),
        "cost_bits": int(p.cost_bits),
        "decoders": _decoders(p, outcome_objs),
        "encoder": {
            "kind": "table",
            "psi_grid": _bloch_list(psi_grid),
            "table": _Written(_array_chunks(np.stack(tables, axis=1), 2)),
        },
        "kind": "one_round_protocol",
        "messages": [_label_to_obj(m) for m in p.messages],
        "outcomes": outcome_objs,
    }
    return _chunks(obj, 0)


def _decoders(p: OneRoundProtocol, outcome_objs: list) -> list[list[_Written]]:
    """The ``decoders`` field at depth 1: per atom, one measurement per message, in blocks of messages.

    Each block is one template, with a ``%s`` per float, filled from the
    effects of the outcomes that ``p.named`` keeps, in (message, outcome,
    row, column, real/imaginary) order, when its turn comes.
    """
    d = p.effects.shape[-1]
    pair = [_Written(["%s"])] * 2
    matrix = _Written(["".join(_chunks({"dim": d, "entries": [pair] * (d * d), "kind": "matrix"}, 5))])
    povms: dict[bytes, str] = {}   # per named mask: the template of one measurement

    def povm(named: np.ndarray) -> str:
        key = named.tobytes()
        if key not in povms:
            labels = "".join(_chunks(list(compress(outcome_objs, named)), 4)).replace("%", "%%")
            effects = [matrix] * int(np.count_nonzero(named))
            fields = {"dim": d, "effects": effects, "kind": "povm", "labels": _Written([labels])}
            povms[key] = "".join(_chunks(fields, 3))
        return povms[key]

    separator = _marks(2)[1]
    step = max(1, _BLOCK_FLOATS // (2 * int(np.prod(p.effects.shape[2:]))))   # messages per block

    def block(x: int, start: int) -> Iterator[str]:
        named = p.named[x, start : start + step]
        template = separator.join([povm(row) for row in named])
        yield template % _float_texts(p.effects[x, start : start + step][named].view(float))

    starts = range(0, p.n_messages, step)
    return [[_Written(block(x, start)) for start in starts] for x in range(len(p.effects))]


def one_round_protocol_from_obj(obj: dict) -> OneRoundProtocol:
    with _reading("one_round_protocol"):
        if obj.get("kind") != "one_round_protocol":
            raise SerializationError("expected one_round_protocol")
        enc = obj["encoder"]
        if enc.get("kind") != "table":
            raise SerializationError(f"unsupported encoder kind {enc.get('kind')!r}")
        grid_bloch = np.asarray(enc["psi_grid"], dtype=float)
        table = np.asarray(enc["table"], dtype=float)
        decoders = [
            [povm_from_obj(d) for d in per_atom] for per_atom in obj["decoders"]
        ]
        randomness = SharedRandomness(probabilities=tuple(obj["atoms"]))
        messages = tuple(_label_from_obj(m) for m in obj["messages"])
        outcomes = tuple(_label_from_obj(o) for o in obj["outcomes"])
        if len(set(outcomes)) != len(outcomes):
            raise SerializationError("one_round_protocol outcomes repeat a label")
        cost_bits = obj["cost_bits"]
        if type(cost_bits) is not int or cost_bits != bit_cost(len(messages)):
            raise SerializationError(
                f"one_round_protocol cost_bits is {cost_bits!r}, not ceil(log2(|messages|))"
                f" = {bit_cost(len(messages))}"
            )
        if (
            grid_bloch.shape[1:] != (3,)
            or table.shape != (len(randomness), len(grid_bloch), len(messages))
            or [len(d) for d in decoders] != [len(messages)] * len(randomness)
            or not {o for row in decoders for d in row for o in d.labels} <= set(outcomes)
            or len({d.dim for row in decoders for d in row}) != 1
        ):
            raise SerializationError("one_round_protocol tables do not match its grid and alphabets")
    return OneRoundProtocol(
        randomness=randomness,
        messages=messages,
        encoder=lambda psi: table[:, _grid_lookup(grid_bloch, psi)],
        effects=[[povm.padded(outcomes) for povm in row] for row in decoders],
        outcomes=outcomes,
        cost_bits=cost_bits,
        meta={"construction": obj.get("construction", "table"), "psi_grid": grid_bloch},
        named=[[[o in povm.labels for o in outcomes] for povm in row] for row in decoders],
    )


def three_round_protocol_to_obj(
    p: OddRoundProtocol, psi_grid: Sequence[np.ndarray]
) -> dict:
    """Explicit tables of a depth-3 protocol over a declared sender grid."""
    (m1_alphabet, m3_alphabet), (m2_alphabet,) = p.sender_alphabets, p.receiver_alphabets
    tables = tabulate(p)
    coins = [tables.coins(psi) for psi in psi_grid]
    return {
        "kind": "three_round_protocol",
        "atoms": [float(q) for q in p.randomness.probabilities],
        "m1": [_label_to_obj(m) for m in m1_alphabet],
        "m2": [_label_to_obj(m) for m in m2_alphabet],
        "m3": [_label_to_obj(m) for m in m3_alphabet],
        "outcomes": [_label_to_obj(o) for o in p.outcomes],
        "psi_grid": _bloch_list(psi_grid),
        # Nested as [x][grid], [m1][x][kraus], [m1][m2][x][grid] and [m1][m2][m3][x].
        "coin1": np.transpose([c[0] for c in coins], (1, 0, 2)).tolist(),
        "instruments": _matrix_objs(np.swapaxes(tables.kraus[0], 0, 1)),
        "coin2": np.transpose([c[1] for c in coins], (2, 3, 1, 0, 4)).tolist(),
        "finals": _nested(
            lambda effects: _measurement_to_obj([_label_to_obj(o) for o in p.outcomes], effects),
            _matrix_objs(np.moveaxis(tables.final, 0, 3)),
            4,
        ),
    }


def _has_lengths(tables, lengths: Sequence[int]) -> bool:
    """Whether ``tables`` are nested lists with the given length at each level."""
    return not lengths or (
        isinstance(tables, list)
        and len(tables) == lengths[0]
        and all(_has_lengths(t, lengths[1:]) for t in tables)
    )


def three_round_protocol_from_obj(obj: dict) -> OddRoundProtocol:
    with _reading("three_round_protocol"):
        if obj.get("kind") != "three_round_protocol":
            raise SerializationError("expected three_round_protocol")
        randomness = SharedRandomness(probabilities=tuple(obj["atoms"]))
        alphabets = [tuple(_label_from_obj(m) for m in obj[key]) for key in ("m1", "m2", "m3")]
        n1, n2, n3 = map(len, alphabets)
        k = len(randomness)
        outcomes = tuple(_label_from_obj(o) for o in obj["outcomes"])
        if len(set(outcomes)) != len(outcomes):
            raise SerializationError("three_round_protocol outcomes repeat a label")
        grid_bloch = np.asarray(obj["psi_grid"], dtype=float)
        coin1 = np.asarray(obj["coin1"], dtype=float)
        coin2 = np.asarray(obj["coin2"], dtype=float)
        if not (
            _has_lengths(obj["instruments"], (n1, k))
            and _has_lengths(obj["finals"], (n1, n2, n3, k))
        ):
            raise SerializationError("three_round_protocol tables do not match its alphabets")
        instruments = _nested(
            lambda kraus: Instrument(kraus=tuple(map(matrix_from_obj, kraus))),
            obj["instruments"],
            2,
        )
        finals = _nested(povm_from_obj, obj["finals"], 4)
        flat_instruments = [i for row in instruments for i in row]
        flat_finals = [f for a in finals for b in a for c in b for f in c]
        if (
            grid_bloch.shape[1:] != (3,)
            or coin1.shape != (k, len(grid_bloch), n1)
            or coin2.shape != (n1, n2, k, len(grid_bloch), n3)
            or {len(i) for i in flat_instruments} != {n2}
            or not {o for f in flat_finals for o in f.labels} <= set(outcomes)
            or len({i.dim for i in flat_instruments} | {f.dim for f in flat_finals}) != 1
        ):
            raise SerializationError(
                "three_round_protocol tables do not match its grid and alphabets"
            )
    return OddRoundProtocol(
        randomness=randomness,
        sender_alphabets=(alphabets[0], alphabets[2]),
        receiver_alphabets=(alphabets[1],),
        outcomes=outcomes,
        coins=(
            lambda psi, x, tr: coin1[x, _grid_lookup(grid_bloch, psi)],
            lambda psi, x, tr: coin2[tr[0], tr[1], x, _grid_lookup(grid_bloch, psi)],
        ),
        instruments=(lambda x, tr: instruments[tr[0]][x],),
        final_povm=lambda x, tr: finals[tr[0]][tr[1]][tr[2]][x],
    )


_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_encode_str = json.encoder.encode_basestring_ascii

#: The most floats that the array writers format in one block.
_BLOCK_FLOATS = 2**14
#: About the most chunks that ``_chunks`` holds before it joins them.
_RUN_CHUNKS = 2**12
#: ``_marks`` of each depth and pair of brackets asked for so far.
_MARKS: dict[tuple[int, str], tuple[str, str, str]] = {}


def _marks(depth: int, brackets: str = "[]") -> tuple[str, str, str]:
    """The opening, separator and closing text of a list ("[]") or dict ("{}") ``depth`` levels in."""
    marks = _MARKS.get((depth, brackets))
    if marks is None:
        inner = "\n" + "  " * (depth + 1)
        outer = "\n" + "  " * depth
        marks = _MARKS[depth, brackets] = brackets[0] + inner, "," + inner, outer + brackets[1]
    return marks


class _Written:
    """Chunks of text already written for their place in ``_chunks``'s output."""

    def __init__(self, chunks: Iterable[str]):
        self.chunks = chunks


def _key_text(key) -> str:
    """A dict key and its separator; json writes a number, bool or None key as a string of its text."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _encode_str(key if isinstance(key, str) else "".join(_chunks(key, 0))) + ": "


def _chunks(value, depth: int) -> Iterator[str]:
    """``value`` as json writes it ``depth`` containers deep (lines below the first indented more), in chunks.

    The rules are those of ``json.dumps(value, sort_keys=True, indent=2)``.
    Values are tested with ``isinstance`` in json's order (str, None, True,
    False, int, float, list or tuple, dict); tuples are written as lists,
    floats by ``float.__repr__`` with NaN and +-Infinity, strings by
    ``json.encoder.encode_basestring_ascii``, dict keys sorted and converted
    as json converts them, and empty containers as ``[]`` and ``{}``.  Any
    other type (``np.int64``, say) raises ``TypeError``, except ``_Written``,
    whose chunks (one item's text, or a run of items joined by the list's
    separator) are made only when their turn comes.  The text between them
    is written in one recursive pass and joined every ``_RUN_CHUNKS`` chunks.
    """
    texts: list = []   # joined runs of chunks, with each _Written value in its place
    run: list[str] = []
    append = run.append

    def flush() -> None:
        texts.append("".join(run))
        run.clear()

    def write(value, depth: int) -> None:
        if isinstance(value, str):
            append(_encode_str(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, float):
            text = float.__repr__(value)
            append(_FLOAT_SPECIALS.get(text, text))
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            lead, separator, close = _marks(depth, "[]")
            for item in value:
                append(lead)
                lead = separator
                write(item, depth + 1)
            append(close)
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            lead, separator, close = _marks(depth, "{}")
            for key, item in sorted(value.items()):
                append(lead)
                lead = separator
                append(_key_text(key))
                write(item, depth + 1)
            append(close)
        elif isinstance(value, _Written):
            flush()
            texts.append(value)
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        if len(run) >= _RUN_CHUNKS:
            flush()

    write(value, depth)
    flush()
    for text in texts:
        if type(text) is str:
            yield text
        else:
            yield from text.chunks


def dumps(obj) -> str:
    """``obj`` as JSON text, byte for byte ``json.dumps(obj, sort_keys=True, indent=2)``."""
    return "".join(_chunks(obj, 0))


def _float_texts(values: np.ndarray) -> tuple[str, ...]:
    """Every entry of a float array, in C order, as json writes a float."""
    texts = tuple(map(float.__repr__, values.ravel().tolist()))
    if not np.isfinite(values).all():
        texts = tuple(_FLOAT_SPECIALS.get(text, text) for text in texts)
    return texts


def _array_chunks(values: np.ndarray, depth: int) -> Iterator[str]:
    """A float array as nested lists ``depth`` levels in, as ``_chunks(values.tolist(), depth)``.

    Each row along the last axis is written in blocks of at most
    ``_BLOCK_FLOATS`` entries, each formatted by one ``_float_texts`` call
    when its turn comes.
    """
    values = np.asarray(values, dtype=float)
    separator = _marks(depth + values.ndim - 1)[1]

    def block(run: np.ndarray) -> Iterator[str]:
        yield separator.join(_float_texts(run))

    def row(values: np.ndarray) -> list[_Written]:
        starts = range(0, len(values), _BLOCK_FLOATS)
        return [_Written(block(values[start : start + _BLOCK_FLOATS])) for start in starts]

    return _chunks(_nested(row, values, values.ndim - 1), depth)


def loads(text: str) -> dict:
    return json.loads(text)
