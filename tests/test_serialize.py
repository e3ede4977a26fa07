import json
import math
import tracemalloc

import helpers
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchansim import cli, decompose, multiround, protocols, qmath, serialize
from qchansim.protocols import run_analytic
from qchansim.qmath import haar_ket, projector


class TestMatrixRoundTrip:
    def test_complex_entries_as_pairs(self):
        obj = serialize.matrix_to_obj(qmath.SIGMA_Y)
        assert obj["dim"] == 2
        assert obj["entries"][1] == [0.0, -1.0]
        np.testing.assert_array_equal(serialize.matrix_from_obj(obj), qmath.SIGMA_Y)

    def test_row_major_layout(self):
        m = np.arange(4, dtype=complex).reshape(2, 2)
        obj = serialize.matrix_to_obj(m)
        assert [p[0] for p in obj["entries"]] == [0.0, 1.0, 2.0, 3.0]

    def test_json_round_trip(self):
        rng = np.random.default_rng(1)
        m = projector(haar_ket(4, rng))
        text = serialize.dumps(serialize.matrix_to_obj(m))
        np.testing.assert_allclose(
            serialize.matrix_from_obj(serialize.loads(text)), m, atol=0
        )


class TestPovmRoundTrip:
    def test_catalog_povm(self):
        p = qmath.catalog_measurement("tb")
        again = serialize.povm_from_obj(serialize.loads(serialize.dumps(serialize.povm_to_obj(p))))
        assert again.labels == p.labels
        for a, b in zip(again.effects, p.effects):
            np.testing.assert_allclose(a, b, atol=0)

    def test_tuple_labels_survive(self):
        p = qmath.Povm(
            effects=(projector(qmath.KET0), projector(qmath.KET1)),
            labels=((0, 1, 0), "other"),
        )
        again = serialize.povm_from_obj(serialize.loads(serialize.dumps(serialize.povm_to_obj(p))))
        assert again.labels == ((0, 1, 0), "other")


class TestDecompositionRoundTrip:
    def test_mixture(self):
        joint = qmath.catalog_product_effects("tb")
        slots = [projector(e.factors[1]) for e in joint]
        family = decompose.enumerate_extremals(slots)
        mu = decompose.solve_mixture(
            decompose.mixture_system(len(joint), family),
            decompose.slot_weights(decompose.slot_weight_map(joint), projector(qmath.KET0)),
        )
        obj = serialize.loads(serialize.dumps(serialize.decomposition_to_obj(mu, family)))
        assert obj["kind"] == "extremal_decomposition"
        np.testing.assert_allclose([entry["mu"] for entry in obj["mixture"]], mu, atol=0)
        assert [tuple(entry["support"]) for entry in obj["mixture"]] == [e.support for e in family]
        assert [tuple(entry["weights"]) for entry in obj["mixture"]] == [e.weights for e in family]
        with pytest.raises(ValueError):
            serialize.decomposition_to_obj(mu[:-1], family)


class TestProductPovmRoundTrip:
    def test_catalog_entries(self):
        effects = qmath.catalog_product_effects("shift")
        obj = serialize.product_povm_to_obj(effects, qmath.catalog_labels("shift"))
        again, labels = serialize.product_povm_from_obj(serialize.loads(serialize.dumps(obj)))
        assert labels == qmath.catalog_labels("shift")
        for a, b in zip(again, effects):
            assert a.weight == b.weight
            for fa, fb in zip(a.factors, b.factors):
                np.testing.assert_allclose(fa, fb, atol=0)


def one_round_text(protocol, grid, tables=None) -> str:
    """The streamed file, with the encoder evaluated on every grid state unless ``tables`` are given."""
    if tables is None:
        tables = [protocol.encoder_matrix(psi) for psi in grid]
    return "".join(serialize.one_round_protocol_chunks(protocol, grid, tables))


class TestOneRoundProtocolRoundTrip:
    def test_tabulated_protocol_reproduces_statistics(self):
        rng = np.random.default_rng(5)
        protocol = protocols.catalog_protocol("tb")
        grid = [projector(haar_ket(2, rng)) for _ in range(6)]
        loaded = serialize.one_round_protocol_from_obj(serialize.loads(one_round_text(protocol, grid)))
        assert loaded.cost_bits == protocol.cost_bits
        assert loaded.outcomes == protocol.outcomes
        for psi in grid:
            phi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                run_analytic(loaded, psi, phi), run_analytic(protocol, psi, phi), atol=1e-12
            )

    def test_off_grid_state_is_rejected(self):
        rng = np.random.default_rng(7)
        protocol = protocols.catalog_protocol("comp")
        grid = [projector(haar_ket(2, rng))]
        loaded = serialize.one_round_protocol_from_obj(serialize.loads(one_round_text(protocol, grid)))
        with pytest.raises(protocols.ProtocolError):
            run_analytic(loaded, projector(haar_ket(2, rng)), projector(haar_ket(2, rng)))

    @pytest.mark.parametrize("kind", ["partial-decoders", "collapsed"])
    def test_matches_per_entry_reference(self, kind):
        """Encoder table and decoders agree, byte for byte, with a per-entry conversion."""
        if kind == "collapsed":
            protocol = multiround.collapse_odd_rounds(multiround.random_three_round(seed=31))
        else:
            z, x = qmath.I2 * 0, [projector(qmath.KET_PLUS), projector(qmath.KET_MINUS)]
            decoders = [[projector(qmath.KET0), projector(qmath.KET1), z], [z, *x]]
            protocol = protocols.OneRoundProtocol(
                randomness=protocols.SharedRandomness.trivial(),
                messages=("z", ("x", 1)),
                encoder=lambda psi: np.array([[psi[0, 0].real, psi[1, 1].real]]),
                effects=[decoders],
                outcomes=(0, 1, ("minus",)),
                cost_bits=1,
                named=[[[True, True, False], [False, True, True]]],
            )
        grid = [projector(haar_ket(2, np.random.default_rng(s))) for s in range(3)]
        obj = serialize.loads(one_round_text(protocol, grid))

        def matrix(m):
            entries = [[float(np.real(v)), float(np.imag(v))] for v in m.reshape(-1)]
            return {"kind": "matrix", "dim": int(m.shape[0]), "entries": entries}

        tables = [protocol.encoder_matrix(psi) for psi in grid]
        expected_table = [[[float(v) for v in t[x]] for t in tables] for x in range(len(tables[0]))]
        expected_decoders = [
            [
                {
                    "kind": "povm",
                    "dim": 2,
                    "labels": [serialize._label_to_obj(o) for o, k in zip(protocol.outcomes, keep) if k],
                    "effects": [matrix(e) for e in effects[keep]],
                }
                for effects, keep in zip(protocol.effects[x], protocol.named[x])
            ]
            for x in range(len(protocol.randomness))
        ]
        assert serialize.dumps(obj["encoder"]["table"]) == serialize.dumps(expected_table)
        assert serialize.dumps(obj["decoders"]) == serialize.dumps(expected_decoders)

    def test_table_count_must_match_the_grid(self):
        rng = np.random.default_rng(3)
        protocol = protocols.catalog_protocol("tb")
        grid = [projector(haar_ket(2, rng)) for _ in range(3)]
        tables = [protocol.encoder_matrix(psi) for psi in grid]
        with pytest.raises(serialize.SerializationError):
            serialize.one_round_protocol_chunks(protocol, grid, tables[:2])

    @pytest.mark.parametrize(
        "damage",
        [
            lambda obj: obj["encoder"]["table"][0].pop(),
            lambda obj: obj["encoder"].update(psi_grid=[[0.0, 0.0]]),
            lambda obj: obj["decoders"][0].pop(),
            lambda obj: obj["outcomes"].pop(),
            lambda obj: obj.pop("cost_bits"),
            lambda obj: obj.update(messages=7),
            *(lambda obj, cost=cost: obj.update(cost_bits=cost) for cost in (-3, 0, 2.7, True, 99, 2.0)),
            # A JSON string that spells a number is not one, and neither is a bool.
            lambda obj: obj["decoders"][0][0]["effects"][0]["entries"].__setitem__(0, ["0.5", "0"]),
            lambda obj: obj["decoders"][0][0]["effects"][0]["entries"].__setitem__(3, [True, 0.0]),
        ],
        ids=[
            "short-table", "flat-grid", "missing-decoder", "unknown-label", "no-cost", "bad-messages",
            "cost-negative", "cost-zero", "cost-fraction", "cost-bool", "cost-too-high", "cost-float",
            "decoder-entry-string", "decoder-entry-bool",
        ],
    )
    def test_inconsistent_file_is_rejected(self, damage):
        rng = np.random.default_rng(9)
        grid = [projector(haar_ket(2, rng)) for _ in range(2)]
        obj = helpers.one_round_protocol_to_obj(protocols.catalog_protocol("tb"), grid)
        assert obj["cost_bits"] == 2 and len(obj["messages"]) == 4
        serialize.one_round_protocol_from_obj(obj)
        damage(obj)
        with pytest.raises(serialize.SerializationError):
            serialize.one_round_protocol_from_obj(obj)

    def test_cost_bits_must_be_an_integer_not_a_bool(self):
        """``true`` equals 1 in Python, the cost of a two-message protocol, and is still refused."""
        grid = [projector(qmath.KET0)]
        obj = serialize.loads(one_round_text(protocols.catalog_protocol("comp"), grid))
        assert obj["cost_bits"] == 1
        obj["cost_bits"] = True
        with pytest.raises(serialize.SerializationError, match="cost_bits"):
            serialize.one_round_protocol_from_obj(obj)


class TestThreeRoundProtocolRoundTrip:
    def test_statistics_match_on_grid(self):
        rng = np.random.default_rng(9)
        p = multiround.random_three_round(seed=31, n_m1=2, n_m2=2, n_m3=2)
        grid = [projector(haar_ket(2, rng)) for _ in range(4)]
        obj = serialize.three_round_protocol_to_obj(p, grid)
        loaded = serialize.three_round_protocol_from_obj(serialize.loads(serialize.dumps(obj)))
        for psi in grid:
            phi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                multiround.run_odd_round(loaded, psi, phi),
                multiround.run_odd_round(p, psi, phi),
                atol=1e-12,
            )

    def test_collapse_commutes_with_serialization(self):
        rng = np.random.default_rng(11)
        p = multiround.random_three_round(seed=37)
        grid = [projector(haar_ket(2, rng)) for _ in range(3)]
        loaded = serialize.three_round_protocol_from_obj(
            serialize.three_round_protocol_to_obj(p, grid)
        )
        collapsed = multiround.collapse_odd_rounds(loaded)
        for psi in grid:
            phi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                run_analytic(collapsed, psi, phi),
                multiround.run_odd_round(p, psi, phi),
                atol=1e-12,
            )


class TestErrors:
    def test_wrong_kind(self):
        with pytest.raises(serialize.SerializationError):
            serialize.matrix_from_obj({"kind": "povm"})

    def test_malformed_complex_pair(self):
        with pytest.raises(serialize.SerializationError):
            serialize.matrix_from_obj({"kind": "matrix", "dim": 1, "entries": [[1.0]]})

    @pytest.mark.parametrize("pair", [["0.5", "0"], ["1", 0.0], [True, 0.0], [1.0, False], [None, 0.0]])
    def test_complex_entries_must_be_numbers(self, pair):
        with pytest.raises(serialize.SerializationError, match="numbers"):
            serialize.matrix_from_obj({"kind": "matrix", "dim": 1, "entries": [pair]})
        with pytest.raises(serialize.SerializationError, match="numbers"):
            serialize.ket_from_obj([pair, [0.0, 0.0]])

    def test_integer_and_float_entries_are_numbers(self):
        m = serialize.matrix_from_obj({"kind": "matrix", "dim": 1, "entries": [[1, -0.5]]})
        np.testing.assert_array_equal(m, [[1.0 - 0.5j]])


def json_reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.nan, -math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "tab\tline\n\"quoted\" \\", "é ü ∑ \u2028 \U0001f600", "\ud800"]),
)
# Number keys are written as their JSON text; one dict never mixes them with strings,
# since sorting would then fail for both writers alike.
_NUMBER_KEYS = st.one_of(st.integers(), st.floats(), st.booleans())
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(_NUMBER_KEYS, children, max_size=3),
    ),
    max_leaves=40,
)


class TestDumps:
    @settings(max_examples=150, deadline=None)
    @given(obj=_TREES)
    def test_matches_json_dumps(self, obj):
        assert serialize.dumps(obj) == json_reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [[], {}, (), [[], {}, ()], {"a": {}, "b": []}, {None: 1}, {True: 0, 2.5: 1}, "x", 3, None],
        ids=repr,
    )
    def test_edge_cases_match_json_dumps(self, obj):
        assert serialize.dumps(obj) == json_reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [np.int64(3), [1, np.int64(3)], {"k": np.int64(3)}, {np.int64(3): 1}, {(1, 2): 0}, {1, 2}],
        ids=["int64", "int64-in-list", "int64-value", "int64-key", "tuple-key", "set"],
    )
    def test_unsupported_types_raise_type_error_like_json(self, obj):
        with pytest.raises(TypeError):
            json_reference(obj)
        with pytest.raises(TypeError):
            serialize.dumps(obj)

    def test_collapsed_file_peak_memory_is_at_most_json_dumps(self):
        rng = np.random.default_rng(3)
        collapsed = multiround.collapse_odd_rounds(multiround.random_odd_round(seed=5, depth=5))
        grid = [projector(haar_ket(2, rng)) for _ in range(10)]
        obj = helpers.one_round_protocol_to_obj(collapsed, grid)
        peaks = {}
        for name, write in (("json", json_reference), ("writer", serialize.dumps)):
            tracemalloc.start()
            try:
                text = write(obj)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert text == json_reference(obj)
        assert peaks["writer"] <= peaks["json"]


def nested_text(value, depth: int) -> str:
    """``json_reference`` of ``value`` wrapped in ``depth`` one-item lists, with the wrapping cut off.

    What is left is the text json writes for ``value`` ``depth`` containers deep.
    """
    prefix = "".join("[\n" + "  " * (level + 1) for level in range(depth))
    suffix = "".join("\n" + "  " * level + "]" for level in reversed(range(depth)))
    for _ in range(depth):
        value = [value]
    text = json_reference(value)
    assert text.startswith(prefix) and text.endswith(suffix)
    return text[len(prefix) : len(text) - len(suffix)]


class TestChunks:
    """``serialize._chunks``, the one writer behind ``dumps`` and the streamed file."""

    @settings(max_examples=150, deadline=None)
    @given(value=_TREES, other=_TREES, depth=st.integers(0, 3), cut=st.integers(0, 8))
    def test_equals_json_at_each_depth_with_pre_written_text(self, value, other, depth, cut):
        assert "".join(serialize._chunks(value, depth)) == nested_text(value, depth)
        text = nested_text(other, depth + 1)

        def written():
            return serialize._Written(iter([text[:cut], text[cut:]]))

        assert "".join(serialize._chunks([value, written()], depth)) == nested_text([value, other], depth)
        assert "".join(serialize._chunks({"a": value, "b": written()}, depth)) == nested_text(
            {"a": value, "b": other}, depth
        )


_TABLE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 0.1]),
)
_LABELS = st.recursive(
    st.one_of(st.none(), st.integers(-5, 300), st.text(max_size=3), st.sampled_from(["%s", "%%", "%"])),
    lambda children: st.lists(children, min_size=1, max_size=3).map(tuple),
    max_leaves=5,
)


@st.composite
def tabulated_protocols(draw):
    """A one-round protocol with partial ``named`` masks, its grid and drawn encoder tables."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_atoms, n_messages = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    outcomes = tuple(draw(st.lists(_LABELS, min_size=1, max_size=3, unique=True)))
    messages = tuple(draw(st.lists(_LABELS, min_size=n_messages, max_size=n_messages)))
    shape = (n_atoms, n_messages, len(outcomes))
    named = np.zeros(shape, dtype=bool)
    # Unnamed effects are zeros of either sign; named ones split a random measurement.
    effects = np.full(shape + (2, 2), draw(st.sampled_from([0j, complex(-0.0, -0.0)])))
    for index in np.ndindex(shape[:2]):
        keep = draw(st.lists(st.booleans(), min_size=len(outcomes), max_size=len(outcomes)))
        keep[draw(st.integers(0, len(outcomes) - 1))] = True
        named[index] = keep
        effects[index][named[index]] = multiround.random_povm(rng, sum(keep), 2).effects
    effects[..., 0, 0] += draw(st.sampled_from([0.0, 5e-324, -5e-324]))
    n_grid = draw(st.integers(1, 3))
    grid = [projector(haar_ket(2, rng)) for _ in range(n_grid)]
    tables = [
        np.array(draw(st.lists(_TABLE_FLOATS, min_size=n_atoms * n_messages, max_size=n_atoms * n_messages)))
        .reshape(n_atoms, n_messages)
        for _ in range(n_grid)
    ]
    protocol = protocols.OneRoundProtocol(
        randomness=protocols.SharedRandomness(probabilities=tuple(rng.dirichlet(np.ones(n_atoms)))),
        messages=messages,
        encoder=lambda psi: np.full((n_atoms, n_messages), 1.0 / n_messages),
        effects=effects,
        outcomes=outcomes,
        cost_bits=protocols.bit_cost(n_messages),
        meta=draw(st.sampled_from([{}, {"construction": "drawn %s"}])),
        named=named,
    )
    return protocol, grid, tables


class TestStreamedOneRoundProtocol:
    """``one_round_protocol_chunks`` against ``json.dumps`` of the list-built object."""

    @settings(max_examples=120, deadline=None)
    @given(drawn=tabulated_protocols())
    def test_equals_json_dumps_of_the_list_built_object(self, drawn):
        protocol, grid, tables = drawn
        expected = json_reference(helpers.one_round_protocol_to_obj(protocol, grid, tables))
        assert one_round_text(protocol, grid, tables) == expected

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 1, 3), (1, 2, 2, 2), (2, 0)])
    def test_array_chunks_equal_json_dumps_of_the_list(self, shape, depth):
        rng = np.random.default_rng(depth)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
        values.reshape(-1)[: len(specials)] = specials[: values.size]
        text = "".join(serialize._array_chunks(values, depth))
        assert text == nested_text(values.tolist(), depth)
        assert "".join(serialize._chunks(values.tolist(), depth)) == text

    def test_writing_a_depth5_file_peaks_well_below_the_list_built_path(self, tmp_path):
        rng = np.random.default_rng(3)
        collapsed = multiround.collapse_odd_rounds(multiround.random_odd_round(seed=5, depth=5))
        grid = [projector(haar_ket(2, rng)) for _ in range(10)]
        tables = [collapsed.encoder_matrix(psi) for psi in grid]
        writers = {
            "list": lambda: [serialize.dumps(helpers.one_round_protocol_to_obj(collapsed, grid, tables))],
            "streamed": lambda: serialize.one_round_protocol_chunks(collapsed, grid, tables),
        }
        peaks, texts = {}, {}
        for name, chunks in writers.items():
            path = tmp_path / f"{name}.json"
            tracemalloc.start()
            try:
                cli._write_text(str(path), chunks())
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            texts[name] = path.read_text()
        assert texts["streamed"] == texts["list"]
        assert peaks["streamed"] < peaks["list"] / 2
