import math
from itertools import combinations

import numpy as np
import pytest
from helpers import random_local_rank1_povm, random_product_povm
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from qchansim import decompose, protocols, qmath
from qchansim.decompose import (
    DecompositionInfeasibleError,
    enumerate_extremals,
    mixture_system,
    slot_weight_map,
    slot_weights,
    solve_mixture,
)
from qchansim.qmath import (
    KET0,
    KET1,
    Povm,
    bloch_to_density,
    born,
    catalog_product_effects,
    density_to_bloch,
    haar_ket,
    projector,
    tensor,
)

RT2 = math.sqrt(2.0)


def tb_bob_slots():
    """Slot projectors of the receiver side of the twisted-butterfly measurement."""
    return [projector(f.factors[1]) for f in catalog_product_effects("tb")]


def tb_mixture_oracle(psi):
    """Closed-form mixture coefficients for the twisted-butterfly family.

    Independent oracle used to freeze expectations: expressed directly in the
    x and z Bloch components of the known state.
    """
    n = density_to_bloch(psi)
    x, z = n[0], n[2]
    mu1 = max(0.0, (1.0 - 2.0 * RT2 * x + 3.0 * z) / 8.0)
    mu2 = 0.5 * (1.0 + z) - mu1
    mu3 = 0.75 * (1.0 - (2.0 * RT2 / 3.0) * x + z / 3.0) - 2.0 * mu1
    mu4 = 0.75 * (1.0 + (2.0 * RT2 / 3.0) * x + z / 3.0) - 2.0 * mu2
    return np.array([mu1, mu2, mu3, mu4])


class TestEnumerateExtremals:
    def test_orthonormal_basis_has_one_extremal(self):
        exts = enumerate_extremals([projector(KET0), projector(KET1)])
        assert len(exts) == 1
        assert exts[0].support == (0, 1)
        np.testing.assert_allclose(exts[0].weights, [1.0, 1.0], atol=1e-12)

    def test_trine_weights_two_thirds(self):
        # Three projectors at 120 degrees on a great circle; brute-force linear
        # solve gives weight 2/3 on each.
        vecs = [(0, 0, 1), (math.sqrt(3) / 2, 0, -0.5), (-math.sqrt(3) / 2, 0, -0.5)]
        exts = enumerate_extremals([bloch_to_density(v) for v in vecs])
        assert len(exts) == 1
        assert exts[0].support == (0, 1, 2)
        np.testing.assert_allclose(exts[0].weights, [2 / 3] * 3, atol=1e-12)

    def test_twisted_butterfly_family(self):
        exts = enumerate_extremals(tb_bob_slots())
        assert [e.support for e in exts] == [(0, 1), (0, 3), (1, 2, 4), (2, 3, 4)]
        np.testing.assert_allclose(exts[0].weights, [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(exts[1].weights, [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(exts[2].weights, [0.5, 0.75, 0.75], atol=1e-10)
        np.testing.assert_allclose(exts[3].weights, [0.75, 0.5, 0.75], atol=1e-10)

    def test_every_extremal_is_complete_and_positive(self):
        rng = np.random.default_rng(21)
        slots = [projector(haar_ket(2, rng)) for _ in range(6)]
        exts = enumerate_extremals(slots)
        supports = [e.support for e in exts]
        assert len(set(supports)) == len(supports)
        for ext in exts:
            total = sum(w * slots[i] for i, w in zip(ext.support, ext.weights))
            np.testing.assert_allclose(total, np.eye(2), atol=1e-10)
            assert min(ext.weights) > 1e-10

    def test_rejects_non_rank1(self):
        with pytest.raises(ValueError):
            enumerate_extremals([np.eye(2, dtype=complex)])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(qmath.DimensionError):
            enumerate_extremals([projector(KET0), projector(qmath.ket(1, 0, 0, 0))])


def _real_vectorize(matrices):
    """Stack Hermitian matrices as real row vectors (real and imaginary parts)."""
    rows = []
    for m in matrices:
        flat = np.asarray(m, dtype=complex).reshape(-1)
        rows.append(np.concatenate([flat.real, flat.imag]))
    return np.array(rows)


def depth_first_extremals(projectors):
    """Reference enumeration: subsets visited depth-first, one ``svd`` and one ``lstsq`` each."""
    projs = [np.asarray(p, dtype=complex) for p in projectors]
    dim = projs[0].shape[0]

    vectors = _real_vectorize(projs)
    identity_vec = np.concatenate([np.eye(dim, dtype=complex).reshape(-1).real, np.zeros(dim * dim)])
    max_support = dim * dim
    found = []

    def independent(indices):
        sv = np.linalg.svd(vectors[indices], compute_uv=False)
        return sv[-1] > decompose.INDEPENDENCE_TOL

    def visit(indices, next_start):
        if indices:
            if not independent(indices):
                return  # supersets stay dependent
            a = vectors[indices].T
            w, *_ = np.linalg.lstsq(a, identity_vec, rcond=None)
            residual = np.max(np.abs(a @ w - identity_vec))
            if residual <= qmath.ATOL_MATRIX and np.min(w) > decompose.MIN_WEIGHT:
                found.append(decompose.ExtremalPovm(support=tuple(indices), weights=tuple(w)))
        if len(indices) >= max_support:
            return
        for nxt in range(next_start, len(projs)):
            visit(indices + [nxt], nxt + 1)

    visit([], 0)
    found.sort(key=lambda e: e.support)
    return found


def patterns(extremals):
    return [(e.support, e.weights) for e in extremals]


# Most slots per dimension: the reference visits up to 2^n subsets, so dimension 4 stays at 10.
_MAX_SLOTS = {2: 16, 3: 11, 4: 10}
_BLOCKS = {
    2: ["haar", "standard", "basis", "trine", "tetra"],
    3: ["haar", "standard", "basis"],
    4: ["haar", "standard", "basis", "product"],
}


def _local_kets(rng, kind):
    return [ket for _, ket in random_local_rank1_povm(rng, kind)]


@st.composite
def slot_lists(draw):
    """Rank-1 projectors in dimension 2-4: whole bases and qubit measurements, repeats, shuffled."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kets = []
    for block in draw(st.lists(st.sampled_from(_BLOCKS[dim]), min_size=1, max_size=3)):
        if block == "haar":
            kets.append(haar_ket(dim, rng))
        elif block == "standard":
            kets += list(np.eye(dim, dtype=complex))
        elif block == "basis":
            gaussian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            kets += list(np.linalg.qr(gaussian)[0].T)
        elif block == "product":
            left = _local_kets(rng, draw(st.sampled_from(["basis", "trine", "tetra"])))
            right = _local_kets(rng, draw(st.sampled_from(["basis", "trine"])))
            kets += [np.kron(a, b) for a in left for b in right]
        else:
            kets += _local_kets(rng, block)
    kets += [kets[i] for i in draw(st.lists(st.integers(0, len(kets) - 1), max_size=4))]
    return [projector(k) for k in draw(st.permutations(kets))[: _MAX_SLOTS[dim]]]


class TestLevelWiseScan:
    @settings(max_examples=60, deadline=None)
    @given(slot_lists())
    def test_matches_depth_first_search_exactly(self, slots):
        assert patterns(enumerate_extremals(slots)) == patterns(depth_first_extremals(slots))

    def test_repeated_basis_in_dimension_four(self):
        slots = [projector(np.eye(4, dtype=complex)[i]) for i in range(4) for _ in range(4)]
        extremals = enumerate_extremals(slots)
        assert len(extremals) == 4**4
        assert patterns(extremals) == patterns(depth_first_extremals(slots))


def reconstructed_weights(mu, extremals, n_slots):
    """Slot weights of the mixture sum_l mu_l (pattern l), summed pattern by pattern."""
    return sum(m * ext.full_weights(n_slots) for m, ext in zip(mu, extremals))


class TestSlotWeights:
    def test_twisted_butterfly_at_ground_state(self):
        # Trace oracle: weights w_i tr(P_{u_i} |0><0|) on the receiver projectors.
        weights = slot_weights(slot_weight_map(catalog_product_effects("tb")), projector(KET0))
        np.testing.assert_allclose(weights, [1.0, 0.5, 0.0, 0.5, 0.0], atol=1e-12)

    def test_maximally_mixed_gives_half_marginals(self):
        joint = catalog_product_effects("tb")
        weights = slot_weights(slot_weight_map(joint), qmath.I2 / 2)
        expected = [e.weight * 0.5 for e in joint]
        np.testing.assert_allclose(weights, expected, atol=1e-12)

    def test_completeness_for_random_states(self):
        rng = np.random.default_rng(5)
        slot_map = slot_weight_map(catalog_product_effects("tb"))
        for _ in range(100):
            weights = slot_weights(slot_map, projector(haar_ket(2, rng)))
            total = sum(w * p for w, p in zip(weights, slot_map.receiver))
            np.testing.assert_allclose(total, np.eye(2), atol=1e-10)

    def test_rejects_incomplete_joint(self):
        joint = list(catalog_product_effects("tb"))[:-1]
        with pytest.raises(qmath.QmathError):
            slot_weight_map(joint)


class TestSolveMixture:
    def setup_method(self):
        self.joint = catalog_product_effects("tb")
        self.extremals = enumerate_extremals(tb_bob_slots())
        self.slot_map = slot_weight_map(self.joint)
        self.system = mixture_system(5, self.extremals)

    def mixture(self, psi):
        return solve_mixture(self.system, slot_weights(self.slot_map, psi))

    def test_ground_state_mixture(self):
        mu = self.mixture(projector(KET0))
        np.testing.assert_allclose(mu, [0.5, 0.5, 0.0, 0.0], atol=1e-10)

    def test_single_extremal_target(self):
        mu = solve_mixture(self.system, self.extremals[2].full_weights(5))
        np.testing.assert_allclose(mu, [0.0, 0.0, 1.0, 0.0], atol=1e-10)

    def test_matches_closed_form_for_100_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            psi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(self.mixture(psi), tb_mixture_oracle(psi), atol=1e-9)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            weights = slot_weights(self.slot_map, projector(haar_ket(2, rng)))
            mu = solve_mixture(self.system, weights)
            np.testing.assert_allclose(
                reconstructed_weights(mu, self.extremals, 5), weights, atol=1e-9
            )

    def test_end_to_end_statistics(self):
        # Mixture statistics sum_l mu_l born(phi, M^l) must equal the joint
        # Born rule on psi x phi.
        rng = np.random.default_rng(17)
        joint_povm = Povm.from_effects([e.matrix() for e in self.joint])
        slots = tb_bob_slots()
        for _ in range(100):
            psi = projector(haar_ket(2, rng))
            phi = projector(haar_ket(2, rng))
            simulated = np.zeros(5)
            for mu, ext in zip(self.mixture(psi), self.extremals):
                for idx, w in zip(ext.support, ext.weights):
                    simulated[idx] += mu * w * np.trace(slots[idx] @ phi).real
            np.testing.assert_allclose(
                simulated, born(tensor(psi, phi), joint_povm), atol=1e-10
            )

    def test_random_families_reconstruct(self):
        # Full pipeline on random product measurements: enumerate, condition,
        # decompose, reconstruct, for a family that is complete by
        # construction.
        rng = np.random.default_rng(101)
        from helpers import random_product_povm

        for kinds in [("basis", "basis"), ("trine", "basis"), ("basis", "trine")]:
            joint = random_product_povm(rng, kinds)
            slots = [projector(e.factors[1]) for e in joint]
            family = enumerate_extremals(slots)
            slot_map, system = slot_weight_map(joint), mixture_system(len(joint), family)
            for _ in range(10):
                weights = slot_weights(slot_map, projector(haar_ket(2, rng)))
                mu = solve_mixture(system, weights)
                np.testing.assert_allclose(
                    reconstructed_weights(mu, family, len(joint)), weights, atol=1e-9
                )

    def test_infeasible_family_raises(self):
        # Dropping the last extremal makes states on the +x side undecomposable.
        weights = slot_weights(self.slot_map, bloch_to_density((1.0, 0.0, 0.0)))
        with pytest.raises(DecompositionInfeasibleError):
            solve_mixture(mixture_system(5, self.extremals[:3]), weights)


def _vertex_lex_min(a, b, rank):
    """Reference vertex search: one ``lstsq`` per candidate support, scanned with ``_lex_less``."""
    n_cols = a.shape[1]
    best = None
    for size in range(1, rank + 1):
        for support in combinations(range(n_cols), size):
            sub = a[:, support]
            w, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if np.min(w) < -1e-11:
                continue
            if np.max(np.abs(sub @ w - b)) > decompose.RESIDUAL_TOL:
                continue
            mu = np.zeros(n_cols)
            mu[list(support)] = np.clip(w, 0.0, None)
            if best is None or decompose._lex_less(mu, best):
                best = mu
    return best


def reference_coefficients(weights, extremals):
    """Mixture coefficients with every candidate support solved on its own, or None if infeasible."""
    a = decompose._constraint_system(len(weights), extremals)
    b = np.concatenate([np.asarray(weights, dtype=float), [1.0]])
    mu, residual = nnls(a, b)
    if residual > decompose.RESIDUAL_TOL:
        return None
    rank = int(np.linalg.matrix_rank(a, tol=1e-10))
    if sum(math.comb(len(extremals), s) for s in range(1, rank + 1)) <= decompose._VERTEX_ENUM_LIMIT:
        vertex = _vertex_lex_min(a, b, rank)
        if vertex is not None:
            mu = vertex
    mu = np.where(mu < decompose.MIN_WEIGHT, 0.0, mu)
    return mu / mu.sum()


# Local measurement pairs of helpers.random_product_povm; ("tetra", "tetra") is left out for
# time.  These strategies build whole families (or subsets of them), not message_system's
# pruned alphabets, so the NNLS path still runs here: the whole families of ("basis", "tetra"),
# ("trine", "tetra") and ("tetra", "trine") have too many candidate supports for the vertex
# search, as the 256-member one does.
_KINDS = [
    (left, right)
    for left in ("basis", "trine", "tetra")
    for right in ("basis", "trine", "tetra")
    if (left, right) != ("tetra", "tetra")
]


@st.composite
def measurements_and_states(draw):
    """A two-party product measurement, a family over its receiver slots and a sender state."""
    source = draw(st.sampled_from(["comp", "twistA", "twistB", "tb"] + _KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if isinstance(source, str):
        joint = catalog_product_effects(source)
    else:
        joint = random_product_povm(rng, source)
    family = enumerate_extremals([projector(e.factors[1]) for e in joint])
    if draw(st.booleans()):
        keep = draw(st.lists(st.integers(0, len(family) - 1), min_size=1, unique=True))
        family = [family[i] for i in sorted(keep)]
    kind = draw(st.sampled_from(["pure", "mixed", "axis"]))
    if kind == "axis":
        psi = bloch_to_density(draw(st.sampled_from(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )))
    else:
        psi = projector(haar_ket(2, rng))
        if kind == "mixed":
            p = draw(st.floats(0.0, 1.0))
            psi = p * psi + (1.0 - p) * qmath.I2 / 2
    return joint, family, psi


class TestBatchedSolve:
    @settings(max_examples=80, deadline=None)
    @given(measurements_and_states())
    def test_matches_per_support_lstsq_scan_below_1e_15(self, case):
        # The winner's mu is its stored pseudo-inverse solve, whose last bits may differ
        # from lstsq's; feasibility and the zero pattern may not.
        joint, family, psi = case
        weights = slot_weights(slot_weight_map(joint), psi)
        expected = reference_coefficients(weights, family)
        system = mixture_system(len(joint), family)
        if expected is None:
            with pytest.raises(DecompositionInfeasibleError):
                solve_mixture(system, weights)
        else:
            mu = solve_mixture(system, weights)
            np.testing.assert_array_equal(mu == 0.0, expected == 0.0)
            assert np.max(np.abs(mu - expected)) <= 1e-15

    def test_weights_of_the_wrong_length_are_rejected(self):
        system = decompose.mixture_system(5, enumerate_extremals(tb_bob_slots()))
        with pytest.raises(ValueError):
            decompose.solve_mixture(system, [1.0, 0.5, 0.0, 0.5])


class TestOneFeasibilityRule:
    @settings(max_examples=80, deadline=None)
    @given(measurements_and_states())
    def test_solve_mixture_returns_a_mixture_or_raises(self, case):
        joint, family, psi = case
        weights = decompose.slot_weights(decompose.slot_weight_map(joint), psi)
        system = decompose.mixture_system(len(joint), family)
        try:
            mu = decompose.solve_mixture(system, weights)
        except DecompositionInfeasibleError:
            return
        assert isinstance(mu, np.ndarray) and mu.shape == (len(family),)
        assert np.min(mu) >= 0.0
        assert abs(np.sum(mu) - 1.0) <= 1e-12
        assert np.max(np.abs(system.matrix[:-1] @ mu - weights)) <= decompose.RESIDUAL_TOL

    def test_families_with_candidate_supports_never_run_nnls(self, monkeypatch):
        def nnls_forbidden(a, b):
            raise AssertionError("NNLS ran on a family that holds candidate supports")

        monkeypatch.setattr(decompose, "_nnls", nnls_forbidden)
        rng = np.random.default_rng(17)
        for name in ("comp", "twistA", "twistB", "tb"):
            joint = catalog_product_effects(name)
            protocol = protocols.catalog_protocol(name)
            family = enumerate_extremals([projector(e.factors[1]) for e in joint])
            slot_map, system = slot_weight_map(joint), mixture_system(len(joint), family)
            for _ in range(8):
                psi = projector(haar_ket(2, rng))
                protocol.encoder_matrix(psi)
                solve_mixture(system, slot_weights(slot_map, psi))
        shift, labels = catalog_product_effects("shift"), qmath.catalog_labels("shift")
        for config in ("A", "B"):
            protocol = protocols.multi_sender_protocol(shift, config, labels)
            for _ in range(8):
                protocol.encoder_matrix([projector(haar_ket(2, rng)) for _ in range(2)])

