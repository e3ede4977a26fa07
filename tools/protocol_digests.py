"""Write one SHA-256 digest per simulation protocol into OUTDIR/protocol_digests.txt.

Usage (from the repository root, or with any qchansim tree on PYTHONPATH):

    PYTHONPATH=src python tools/protocol_digests.py OUTDIR

Each digest covers a protocol's messages, the bytes of its effect tensor and
``named`` mask, its ``cost_bits``, and its encoder matrix on 10 fixed Haar
states (pairs of them for the two-sender shift protocols).  It then covers
the runners as ``simulate`` calls them: ``run_analytic`` and then
``run_sampled`` (seed 11, 2,000 samples) on each of the 10 states with a
fixed Haar receiver state, and once more on the first state.  Since
``encoder_matrix`` keeps the last state's table, a table kept for the wrong
state, or kept too long, changes the digest.  The protocols are
the catalog measurements, ``blockbasis6``, shift A and B, every
``tests/helpers.random_product_povm`` kind pair and ``mixed_product_povm`` at
seeds 0-5, and the 256-member tetrahedral family.

The seeded multi-round generators are covered too: ``random_three_round``
(two alphabet shapes) and ``random_odd_round`` at depths 3, 5 and 7, at
seeds 0-2.  Their digests cover the tabulated protocol (``tabulate``): the
atom probabilities, the bytes of every Kraus table and of the final
measurements, and the coins on the same 10 states.

Three separable measurements follow, digested like the first group:
``tb`` with its terms grouped as {0}, {1, 2}, {3, 4} and shift, through
configurations A and B, with its eight terms grouped in three outcomes.
After them comes one line for the non-negative least-squares path, which no
protocol above takes since the sender-first alphabet prunes the 256-member
tetrahedral family: the bytes of ``solve_mixture`` over that family, unpruned,
on each of the 10 states.  The last line covers the runners as the
``simulate-protocols`` benchmark calls them: state by state, every protocol
of the first and third groups in turn runs ``run_analytic`` and then
``run_sampled`` on the same shared states, so a check or a table that one
protocol's call remembers is reused by the next.  The four lines after it
cover the serialized collapse: each is the SHA-256 of the ``.collapsed.json``
text that ``qchansim collapse --out`` writes, with 10 check states and the
default seed, for ``random_odd_round`` at depths 3, 5 and 7 (protocol seed
3) and for ``random_three_round`` (protocol seed 21).  New lines go at the end,
so the lines above them compare with files written before they were added.
Two trees build the same protocols exactly when ``diff`` of their digest
files prints nothing.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from helpers import TETRA_BLOCH, mixed_product_povm, random_product_povm  # noqa: E402

from qchansim import cli, decompose, multiround, protocols, qmath  # noqa: E402

KINDS = [(left, right) for left in ("basis", "trine", "tetra") for right in ("basis", "trine", "tetra")]
SEEDS = range(6)
ROUND_SEEDS = range(3)
SAMPLE_SEED = 11
SAMPLES = 2000


def build_protocols():
    """(name, protocol, sender count) for every covered protocol, in a fixed order."""
    for name in ("comp", "twistA", "twistB", "tb"):
        yield name, protocols.catalog_protocol(name), 1
    yield "blockbasis6", protocols.block_basis_protocol(protocols.demo_block_basis()), 1
    shift, labels = qmath.catalog_product_effects("shift"), qmath.catalog_labels("shift")
    for config in ("A", "B"):
        yield f"shift{config}", protocols.multi_sender_protocol(shift, config, labels), 2
    for seed in SEEDS:
        for kinds in KINDS:
            joint = random_product_povm(np.random.default_rng(seed), kinds)
            yield f"{kinds[0]}-{kinds[1]}-seed{seed}", protocols.rank1_product_protocol(joint), 1
        joint = mixed_product_povm(np.random.default_rng(seed))
        yield f"mixed-seed{seed}", protocols.rank1_product_protocol(joint), 1
    yield "tetra-tetra-256", protocols.rank1_product_protocol(tetra_tetra()), 1


def tetra_tetra() -> list[qmath.ProductRank1Effect]:
    """The tetrahedral measurement on both qubits, whose receiver family has 256 members."""
    tetra = [qmath.bloch_to_ket(np.asarray(b) / np.sqrt(3.0)) for b in TETRA_BLOCH]
    return [qmath.ProductRank1Effect(weight=0.25, factors=(a, b)) for a in tetra for b in tetra]


TB_GROUPS = ("1", "2", "2", "3", "3")
SHIFT_GROUPS = (0, 1, 2, 0, 1, 2, 0, 2)


def build_grouped_protocols():
    """(name, protocol, sender count) for the separable measurements, terms grouped by label."""
    yield "tb-grouped", protocols.rank1_product_protocol(qmath.catalog_product_effects("tb"), TB_GROUPS), 1
    shift = qmath.catalog_product_effects("shift")
    for config in ("A", "B"):
        yield f"shift{config}-grouped", protocols.multi_sender_protocol(shift, config, SHIFT_GROUPS), 2


def build_round_protocols():
    """(name, protocol) for every covered multi-round protocol, in a fixed order."""
    for seed in ROUND_SEEDS:
        yield f"three-round-seed{seed}", multiround.random_three_round(seed)
        yield f"three-round-2x3x3-3atoms-seed{seed}", multiround.random_three_round(
            seed, n_atoms=3, n_m1=2, n_m2=3, n_m3=3, n_outcomes=3
        )
        for depth in (3, 5, 7):
            yield f"odd-round-depth{depth}-seed{seed}", multiround.random_odd_round(seed, depth)


def _update_array(h, array) -> None:
    array = np.asarray(array)
    h.update(repr((array.dtype.str, array.shape)).encode())
    h.update(np.ascontiguousarray(array).tobytes())


def round_digest(protocol, states) -> str:
    tables = multiround.tabulate(protocol)
    h = hashlib.sha256()
    _update_array(h, np.asarray(tables.randomness.probabilities, dtype=float))
    for array in (*tables.kraus, tables.final):
        _update_array(h, array)
    for psi in states:
        for coin in tables.coins(psi):
            _update_array(h, coin)
    return h.hexdigest()


def receiver_states(dim: int) -> list[np.ndarray]:
    """10 fixed Haar receiver states of the given dimension."""
    rng = np.random.default_rng([2024, dim])
    return [qmath.projector(qmath.haar_ket(dim, rng)) for _ in range(10)]


def digest(protocol, states) -> str:
    h = hashlib.sha256()
    h.update(repr(protocol.messages).encode())
    for array in (protocol.effects, protocol.named):
        _update_array(h, array)
    h.update(str(protocol.cost_bits).encode())
    for psi in states:
        h.update(np.ascontiguousarray(protocol.encoder_matrix(psi), dtype=float).tobytes())
    phis = receiver_states(protocol.effects.shape[-1])
    for psi, phi in [*zip(states, phis), (states[0], phis[0])]:
        _update_array(h, protocols.run_analytic(protocol, psi, phi))
        for array in protocols.run_sampled(protocol, psi, phi, SAMPLES, SAMPLE_SEED):
            _update_array(h, array)
    return h.hexdigest()


def nnls_digest(states) -> str:
    """``solve_mixture`` over the unpruned 256-member family, which has no candidate supports."""
    slot_map = decompose.slot_weight_map(tetra_tetra())
    family = decompose.enumerate_extremals(slot_map.receiver)
    system = decompose.mixture_system(len(slot_map.weights), family)
    assert system.supports is None
    h = hashlib.sha256()
    for psi in states:
        _update_array(h, decompose.solve_mixture(system, decompose.slot_weights(slot_map, psi)))
    return h.hexdigest()


def interleaved_digest(built, states) -> str:
    """``digest``'s runner calls, state by state, every protocol of ``built`` in turn on shared states."""
    phis = {dim: receiver_states(dim) for dim in {protocol.effects.shape[-1] for _, protocol, _ in built}}
    h = hashlib.sha256()
    for i in range(len(states[1])):
        for _, protocol, n in built:
            phi = phis[protocol.effects.shape[-1]][i]
            _update_array(h, protocols.run_analytic(protocol, states[n][i], phi))
            for array in protocols.run_sampled(protocol, states[n][i], phi, SAMPLES, SAMPLE_SEED):
                _update_array(h, array)
    return h.hexdigest()


COLLAPSE_SPECS = (
    *((f"collapsed-odd-round-depth{depth}-seed3", {"kind": "random_odd_round", "depth": depth, "seed": 3})
      for depth in (3, 5, 7)),
    ("collapsed-three-round-seed21", {"kind": "random_three_round", "seed": 21}),
)


def collapsed_file_digest(spec: dict) -> str:
    """SHA-256 of the ``.collapsed.json`` that ``collapse --out`` writes for a generator spec."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "collapse.json", Path(tmp) / "run.json"
        config.write_text(json.dumps({"protocol": spec, "check_states": 10}))
        code = cli.main(["collapse", "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"collapse of {spec} exited {code}")
        with open(out.with_suffix(".collapsed.json"), "rb") as handle:
            return hashlib.file_digest(handle, "sha256").hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rng = np.random.default_rng(2024)
    haar = [qmath.projector(qmath.haar_ket(2, rng)) for _ in range(20)]
    states = {1: haar[:10], 2: [[a, b] for a, b in zip(haar[:10], haar[10:])]}
    built, grouped = list(build_protocols()), list(build_grouped_protocols())
    lines = [f"{name} {digest(protocol, states[n])}" for name, protocol, n in built]
    lines += [f"{name} {round_digest(protocol, states[1])}" for name, protocol in build_round_protocols()]
    lines += [f"{name} {digest(protocol, states[n])}" for name, protocol, n in grouped]
    lines.append(f"tetra-tetra-256-nnls {nnls_digest(states[1])}")
    lines.append(f"interleaved-runners {interleaved_digest(built + grouped, states)}")
    lines += [f"{name} {collapsed_file_digest(spec)}" for name, spec in COLLAPSE_SPECS]
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "protocol_digests.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
