"""Tests of the benchmark's own reference code, on cases worked out by hand.

    python3 -m pytest perfbench/tests
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


class TestQuadrature:
    def test_antipodal_pair(self):
        mean, variance = reference.eta_moments([[0, 0, 1], [0, 0, -1]])
        # max_i u . omega_i = |u_z|, uniform on [0, 1].
        assert mean == pytest.approx(0.5, abs=1e-9)
        assert variance == pytest.approx(1.0 / 12.0, abs=1e-9)

    def test_cube(self):
        cube = [[S3 * x, S3 * y, S3 * z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        mean, _ = reference.eta_moments(cube)
        # (|x| + |y| + |z|) / sqrt(3), and E|x| = 1/2.
        assert mean == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)

    def test_tetrahedron(self):
        tetra = S3 * np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        mean, _ = reference.eta_moments(tetra, n_theta=512)
        assert mean == pytest.approx(0.7448573, abs=5e-8)

    def test_rotation_leaves_the_moments_unchanged(self):
        tetra = S3 * np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        c, s = math.cos(0.3), math.sin(0.3)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        plain = reference.eta_moments(tetra)
        turned = reference.eta_moments(tetra @ rotation.T)
        # The default grid is good to about 1e-6 in a generic orientation.
        assert turned == pytest.approx(plain, abs=2e-6)


class TestBornOracle:
    def test_two_party_product_terms(self):
        psi = reference.density(KET0)
        phi = reference.density(PLUS)
        terms = [
            (1.0, (KET0, KET0)),    # 1 * 1 * 1/2
            (0.75, (PLUS, KET0)),   # 0.75 * 1/2 * 1/2
            (1.0, (KET1, PLUS)),    # 1 * 0 * 1
            (0.5, (KET0, MINUS)),   # 0.5 * 1 * 0
        ]
        assert reference.product_born(terms, [psi, phi]) == pytest.approx([0.5, 0.1875, 0.0, 0.0], abs=1e-15)

    def test_three_party_mixed_state(self):
        rho = np.array([[0.8, 0.1], [0.1, 0.2]])   # <0|rho|0> = 0.8, <+|rho|+> = 0.6
        terms = [(1.0, (KET0, KET1, PLUS)), (0.5, (PLUS, PLUS, KET1))]
        states = [rho, reference.density(KET1), rho]
        # 0.8 * 1 * 0.6 and 0.5 * 0.6 * 1/2 * 0.2
        assert reference.product_born(terms, states) == pytest.approx([0.48, 0.03], abs=1e-15)

    def test_bloch_ket_matches_bloch_density(self):
        for n in ([0, 0, 1], [0, 0, -1], [S3, -S3, S3], [1, 0, 0]):
            assert reference.density(reference.bloch_ket(n)) == pytest.approx(reference.bloch_density(n), abs=1e-15)


def _depth3_protocol():
    """Atom x = 0 (prob 1/4) always sends 0; atom 1 sends 0 with prob <0|psi|0>.

    The receiver measures Z and reports m_b.  The sender answers 0 when
    m_b equals the first message, and the receiver then measures X
    (outcome a on +); otherwise she answers 1 and the receiver measures Z
    (outcome a on 0).
    """
    z_instrument = SimpleNamespace(kraus=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    x_povm = SimpleNamespace(labels=("a", "b"), effects=(reference.density(PLUS), reference.density(MINUS)))
    z_povm = SimpleNamespace(labels=("a", "b"), effects=(reference.density(KET0), reference.density(KET1)))

    def coin0(psi, x, transcript):
        p0 = 1.0 if x == 0 else float(np.real(psi[0, 0]))
        return [p0, 1.0 - p0]

    def coin1(psi, x, transcript):
        m_a, m_b = transcript
        return [1.0, 0.0] if m_a == m_b else [0.0, 1.0]

    return SimpleNamespace(
        randomness=SimpleNamespace(probabilities=(0.25, 0.75)),
        sender_alphabets=((0, 1), (0, 1)),
        receiver_alphabets=((0, 1),),
        outcomes=("a", "b"),
        coins=(coin0, coin1),
        instruments=(lambda x, transcript: z_instrument,),
        final_povm=lambda x, transcript: x_povm if transcript[2] == 0 else z_povm,
    )


class TestNestedSum:
    def test_hand_built_depth3_case(self):
        psi = np.array([[0.8, 0.1], [0.1, 0.2]])
        phi = np.array([[0.3, 0.2], [0.2, 0.7]])   # Z outcome 0 with prob 0.3
        stats = reference.odd_round_direct(_depth3_protocol(), psi, phi)
        # x=0: 0.3 * 1/2 = 0.15.  x=1: 0.8 * 0.15 + 0.2 * (0.3 + 0.7 * 1/2) = 0.25.
        assert stats["a"] == pytest.approx(0.25 * 0.15 + 0.75 * 0.25, abs=1e-15)
        assert stats["b"] == pytest.approx(1.0 - stats["a"], abs=1e-15)

    def test_collapsed_message_counts(self):
        assert reference.collapsed_message_count([2, 2], [2]) == 8
        assert reference.collapsed_message_count([2, 2, 2], [2, 2]) == 128
        assert reference.collapsed_message_count([2, 2, 2, 2], [2, 2, 2]) == 32768


def _matrix_json(m):
    m = np.asarray(m, dtype=complex)
    return {"kind": "matrix", "dim": m.shape[0], "entries": [[z.real, z.imag] for z in m.reshape(-1)]}


def test_tabulated_stats_of_a_hand_written_document():
    doc = {
        "atoms": [1.0],
        "outcomes": ["a", {"tuple": [1, 2]}],
        "encoder": {"psi_grid": [[0, 0, 1], [1, 0, 0]], "table": [[[0.25, 0.75], [1.0, 0.0]]]},
        "decoders": [[
            {"labels": ["a", {"tuple": [1, 2]}], "effects": [_matrix_json(np.eye(2)), _matrix_json(np.zeros((2, 2)))]},
            {"labels": [{"tuple": [1, 2]}, "a"], "effects": [_matrix_json(np.diag([1, 0])), _matrix_json(np.diag([0, 1]))]},
        ]],
    }
    stats = reference.tabulated_stats(doc, np.diag([0.3, 0.7]))
    # grid 0: a = 0.25 + 0.75 * 0.7; grid 1: message 0 only.
    assert stats == pytest.approx(np.array([[0.775, 0.225], [1.0, 0.0]]), abs=1e-15)


class TestStrategyErrors:
    def test_exact_strategy_has_zero_error(self):
        grid = [[0, 0, 1], [1, 0, 0]]
        strategy = {
            "atom_probs": [1.0],
            "encoder": [[[1.0, 0.0]], [[0.0, 1.0]]],
            "effect_weights": [[0.5], [0.5]],
            "effect_axes": [[[0, 0, -1]], [[-1, 0, 0]]],
        }
        assert reference.strategy_errors(strategy, grid) == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_empty_effects_miss_by_one_half(self):
        strategy = {
            "atom_probs": [0.5, 0.5],
            "encoder": [[[1.0], [1.0]]],
            "effect_weights": [[0.0, 0.0]],
            "effect_axes": [[[0, 0, 1], [0, 0, 1]]],
        }
        assert reference.strategy_errors(strategy, [[0, 1, 0]]) == pytest.approx([0.5], abs=1e-15)
