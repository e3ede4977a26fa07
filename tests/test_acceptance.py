"""Acceptance gate: one test group per shipped criterion, at the stated tolerances.

Each criterion also asserts its stated wall-clock budget.  A per-criterion
PASS/FAIL summary is printed at the end of the run (see conftest).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from helpers import born_product_oracle, mixed_product_povm, random_product_povm

from qchansim import depolarize, multiround, nogo, protocols, qmath
from qchansim.decompose import (
    enumerate_extremals,
    mixture_system,
    slot_weight_map,
    slot_weights,
    solve_mixture,
)
from qchansim.protocols import (
    block_basis_protocol,
    block_branch_table,
    demo_block_basis,
    multi_sender_protocol,
    rac_classical_best,
    rac_one_bit_bound,
    rac_qubit_success,
    rac_success_via_protocol,
    rank1_product_protocol,
    run_analytic,
    twist_simulator_protocol,
)
from qchansim.qmath import (
    born,
    catalog_labels,
    catalog_measurement,
    catalog_product_effects,
    haar_ket,
    ket,
    projector,
    tensor,
)

RT2 = math.sqrt(2.0)


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.seconds:.0f}s budget"
            )
        return False


def tb_closed_form_mixture(psi):
    n = qmath.density_to_bloch(psi)
    x, z = n[0], n[2]
    mu1 = max(0.0, (1.0 - 2.0 * RT2 * x + 3.0 * z) / 8.0)
    mu2 = 0.5 * (1.0 + z) - mu1
    mu3 = 0.75 * (1.0 - (2.0 * RT2 / 3.0) * x + z / 3.0) - 2.0 * mu1
    mu4 = 0.75 * (1.0 + (2.0 * RT2 / 3.0) * x + z / 3.0) - 2.0 * mu2
    return np.array([mu1, mu2, mu3, mu4])


def test_criterion_1_twisted_butterfly_decomposition():
    with Budget(1.0):
        joint = catalog_product_effects("tb")
        slots = [projector(e.factors[1]) for e in joint]
        family = enumerate_extremals(slots)
        slot_map, system = slot_weight_map(joint), mixture_system(len(joint), family)
        rng = np.random.default_rng(0xC1)
        for _ in range(100):
            psi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                solve_mixture(system, slot_weights(slot_map, psi)),
                tb_closed_form_mixture(psi),
                atol=1e-9,
            )
        assert protocols.catalog_protocol("tb").cost_bits == 2


def test_criterion_2_product_povm_simulation():
    with Budget(10.0):
        rng = np.random.default_rng(0xC2)
        cases = [(catalog_product_effects("tb"), catalog_labels("tb"))]
        kinds = (
            [("basis", "basis")] * 10
            + [("trine", "basis")] * 4
            + [("basis", "trine")] * 4
            + [("trine", "trine")]
        )
        for k in kinds:
            cases.append((tuple(random_product_povm(rng, k)), None))
        cases.append((tuple(mixed_product_povm(rng)), None))
        assert len(cases) == 21  # the named measurement plus 20 random ones
        for joint, labels in cases:
            protocol = rank1_product_protocol(joint, labels)
            for _ in range(50):
                psi = projector(haar_ket(2, rng))
                phi = projector(haar_ket(2, rng))
                np.testing.assert_allclose(
                    run_analytic(protocol, psi, phi),
                    born_product_oracle(joint, psi, phi),
                    atol=1e-10,
                )


def test_criterion_3_block_basis_protocol():
    with Budget(5.0):
        blocks = demo_block_basis()
        protocol = block_basis_protocol(blocks)
        assert protocol.cost_bits == 3

        effects, labels = [], []
        for i, b in enumerate(blocks):
            for j, v in enumerate(b.bob_bit0):
                effects.append(projector(tensor(b.alice, v)))
                labels.append((i, 0, j))
            for j, v in enumerate(b.bob_bit1):
                effects.append(projector(tensor(b.alice_perp, v)))
                labels.append((i, 1, j))
        povm = qmath.Povm(effects=tuple(effects), labels=tuple(labels))
        order = [povm.labels.index(label) for label in protocol.outcomes]

        rng = np.random.default_rng(0xC3)
        for _ in range(50):
            psi = projector(haar_ket(2, rng))
            phi = projector(haar_ket(6, rng))
            np.testing.assert_allclose(
                run_analytic(protocol, psi, phi),
                born(tensor(psi, phi), povm)[order],
                atol=1e-12,
            )

        # Branch-structure inspection: the receiver's first measurement
        # selects coordinate-pair subspaces; the communicated bit then picks
        # the plain or superposed family, with sender bases z, x, y.
        table = block_branch_table(blocks)
        assert [row["block"] for row in table] == [0, 1, 2]
        for i, row in enumerate(table):
            expected = np.zeros((6, 6))
            expected[2 * i, 2 * i] = expected[2 * i + 1, 2 * i + 1] = 1.0
            np.testing.assert_allclose(row["subspace_projector"], expected, atol=1e-12)
            e = np.eye(6, dtype=complex)
            np.testing.assert_allclose(row["bit0_measurement"][0], ket(*e[2 * i]), atol=1e-12)
            np.testing.assert_allclose(
                row["bit1_measurement"][0], ket(*(e[2 * i] + e[2 * i + 1])), atol=1e-12
            )
        np.testing.assert_allclose(table[0]["alice_basis"][0], ket(1, 0), atol=1e-12)
        np.testing.assert_allclose(table[1]["alice_basis"][0], ket(1, 1), atol=1e-12)
        np.testing.assert_allclose(table[2]["alice_basis"][0], ket(1, 1j), atol=1e-12)


def test_criterion_4_collapse():
    with Budget(30.0):
        rng = np.random.default_rng(0xC4)
        sizes = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 3, 3)]
        for index in range(100):
            n1, n2, n3 = sizes[index % len(sizes)]
            p = multiround.random_three_round(
                seed=5000 + index, n_m1=n1, n_m2=n2, n_m3=n3,
                n_outcomes=2 + index % 2,
            )
            collapsed = multiround.collapse_odd_rounds(p)
            for _ in range(10):
                psi = projector(haar_ket(2, rng))
                phi = projector(haar_ket(2, rng))
                np.testing.assert_allclose(
                    run_analytic(collapsed, psi, phi),
                    multiround.run_odd_round(p, psi, phi),
                    atol=1e-12,
                )
        five = multiround.random_odd_round(seed=0xC45, depth=5)
        collapsed = multiround.collapse_odd_rounds(five)
        for _ in range(10):
            psi = projector(haar_ket(2, rng))
            phi = projector(haar_ket(2, rng))
            np.testing.assert_allclose(
                run_analytic(collapsed, psi, phi),
                multiround.run_odd_round(five, psi, phi),
                atol=1e-10,
            )


@pytest.mark.parametrize(
    "m,reference",
    [
        (1, 0.5),
        (2, (3.0 + math.sqrt(3.0)) / 6.0),
        (3, (3.0 + math.sqrt(6.0)) / 6.0),
    ],
)
def test_criterion_5_depolarizing_values(m, reference):
    # The m=2 and m=3 reference values are the cap-model idealization at half
    # the minimum pairwise codebook angle; the sampled expectation of the
    # specified argmax protocol is 0.74486 (tetrahedron) and sqrt(3)/2 (cube),
    # so those two assertions fail and are reported honestly (see the ledger
    # in the repository notes and depolarize.reference_discrepancy).
    with Budget(60.0):
        c = depolarize.codebook(depolarize.REFERENCE_CODEBOOKS[m])
        eta, _ = depolarize.estimate_eta(c, 10**6, seed=0xC50 + m)
        assert abs(eta - reference) < 0.005


def test_criterion_5_cap_formula_value():
    with Budget(1.0):
        assert abs(depolarize.eta_cap(math.pi / 2) - 0.5) <= 1e-14


def test_criterion_6_random_access_code():
    with Budget(120.0):
        best, _ = rac_classical_best()
        assert best == Fraction(3, 4)
        assert abs(rac_qubit_success() - (2.0 + RT2) / 4.0) <= 1e-12
        one_bit, _ = rac_one_bit_bound(n_atoms=8)
        assert float(one_bit) <= 0.75 + 1e-9
        simulator = twist_simulator_protocol()
        assert simulator.cost_bits == 2
        assert abs(rac_success_via_protocol(simulator) - (2.0 + RT2) / 4.0) <= 1e-10


def test_criterion_7_nogo_witness():
    with Budget(600.0):
        budget, starts = 320, 8
        # Exactness region: the alphabet covers the grid.
        for m, n in [(2, 2), (4, 3), (4, 4)]:
            fam = nogo.nested_grid(n)
            report = nogo.optimize(
                fam, n_messages=m, n_atoms=1, seed=0xC70, budget=32, starts=2
            )
            assert report.best_error < 1e-9
            verdict = nogo.counting_bound(report.strategy, fam)
            assert verdict.consistent
            assert verdict.n_states <= 2 * verdict.n_messages

        # Error floors beyond the counting bound, at the recorded budget.
        for m, n in [(1, 3), (2, 5), (4, 9)]:
            fam = nogo.nested_grid(n)
            report = nogo.optimize(
                fam,
                n_messages=m,
                n_atoms=4 * m,
                seed=0xC71,
                budget=budget,
                starts=starts,
            )
            assert report.best_error > 1e-8, (m, n, report.best_error)
            # Inexact strategies are rejected by the counting checker, so an
            # exact claim beyond the bound can never be validated.
            with pytest.raises(nogo.NogoError):
                nogo.counting_bound(report.strategy, fam)


def test_criterion_8_marker_state_identities():
    with Budget(1.0):
        report = qmath.verify_s3_identities()
        assert report["max_deviation"] <= 1e-12
        assert report["passed"]


def test_criterion_9_multi_sender_shift():
    with Budget(10.0):
        joint = catalog_product_effects("shift")
        labels = catalog_labels("shift")
        povm = catalog_measurement("shift")
        rng = np.random.default_rng(0xC9)
        protocol_a = multi_sender_protocol(joint, "A", labels)
        protocol_b = multi_sender_protocol(joint, "B", labels)
        for _ in range(50):
            psi1 = projector(haar_ket(2, rng))
            psi2 = projector(haar_ket(2, rng))
            phi = projector(haar_ket(2, rng))
            reference = born(tensor(psi1, psi2, phi), povm)
            np.testing.assert_allclose(
                protocol_a.run_analytic([psi1, psi2], phi), reference, atol=1e-10
            )
            np.testing.assert_allclose(
                protocol_b.run_analytic([psi1, psi2], phi), reference, atol=1e-10
            )
        assert protocol_b.cost_bits >= protocol_a.cost_bits
