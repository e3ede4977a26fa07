"""Write the identity cases of a qchansim tree into OUTDIR, and compare two such directories.

Usage (from the repository root, or with any qchansim tree on PYTHONPATH):

    PYTHONPATH=src python tools/identity.py OUTDIR [--against DIR]

OUTDIR must be new or empty.  New cases go at the end of their group, so older
cases compare with directories written before the new ones were added.

Protocols: one SHA-256 line each in ``protocol_digests.txt``, over the values
that ``protocols/NAME.npz`` holds.  A digest covers a protocol's messages, the
bytes of its effect tensor and ``named`` mask, its ``cost_bits``, and its
encoder matrix on 10 fixed Haar states (pairs of them for the two-sender shift
protocols).  It then covers the runners as ``simulate`` calls them:
``run_analytic`` and then ``run_sampled`` (seed 11, 2,000 samples) on each of
the 10 states with a fixed Haar receiver state, and once more on the first
state.  Since ``encoder_matrix`` keeps the last state's table, a table kept for
the wrong state, or kept too long, changes the digest.  The protocols are the
catalog measurements, ``blockbasis6``, shift A and B, every
``tests/helpers.random_product_povm`` kind pair and ``mixed_product_povm`` at
seeds 0-5, and the 256-member tetrahedral family.  The seeded multi-round
generators follow: ``random_three_round`` (two alphabet shapes),
``random_odd_round`` at depths 3, 5 and 7, and at depth 3 over ternary
alphabets with 3 atoms and 3 outcomes and over a qutrit receiver (``dim=3``),
at seeds 0-2, and then ``interactive_twist_protocol``, each over its tabulated
protocol (``tabulate``): the atom probabilities, the bytes of every Kraus table
and of the final measurements, and the coins on the same 10 states.  Each of
them then has a ``-direct`` case: the statistics on the 10 states, each with
the fixed Haar receiver state of its index, as the 10 rows of one
``run_odd_rounds`` call, the direct walk the collapse check compares against.
Then three separable measurements, digested like the first group: ``tb`` with
its terms grouped as {0}, {1, 2}, {3, 4} and shift, through configurations A
and B, with its eight terms grouped in three outcomes.  One line covers the non-negative
least-squares path, which no protocol above takes since the sender-first
alphabet prunes the 256-member tetrahedral family: ``solve_mixture`` over that
family, unpruned, on each of the 10 states.  The next covers the runners as the
``simulate-protocols`` benchmark calls them: state by state, every protocol of
the first and third groups in turn runs ``run_analytic`` and then
``run_sampled`` on the same shared states, so a check or a table that one
protocol's call remembers is reused by the next.  The last four are the SHA-256
of the ``.collapsed.json`` text that ``qchansim collapse --out`` writes with 10
check states and the default seed, for ``random_odd_round`` at depths 3, 5 and
7 (protocol seed 3) and for ``random_three_round`` (protocol seed 21); their
npz holds the atom probabilities, effects, ``named`` mask and encoder tables on
the check states that the text serializes.

No-go reports: one line each in ``nogo_reports.txt`` with a case name,
``repr(best_error)``, ``iterations``, the status (``exact`` below
``nogo.EXACTNESS_TOL``, else ``floor``) and a SHA-256 of the chosen strategy's
arrays, which ``nogo/NAME.npz`` holds.  Cases are (M messages, K atoms, N states)
on the nested grid of seed 0xF00D:

- criterion 7: (2, 1, 2), (4, 1, 3), (4, 1, 4) at seed 0xC70, budget 32,
  2 starts, and (1, 4, 3), (2, 8, 5), (4, 16, 9) at seed 0xC71, budget 320,
  8 starts;
- the ``nogo-floor`` benchmark cases (1, 4, 3), (2, 8, 5), (3, 6, 7) at seeds
  0-4, budget 32, 2 starts;
- the README ``nogo`` config, with the case seeds ``qchansim nogo`` derives
  from its seed 5;
- (4, 16, 9) and (8, 32, 17) at seed 0, budget 64, 8 starts;
- (3, 2, 2) at seed 0, budget 32, 2 starts: an exact case with two atoms,
  whose encoder steps are full of exact ties;
- (5, 3, 11) at seed 0, budget 40, 4 starts: a floor case with 31 candidate
  supports per encoder row.

Eta lines, in ``eta_digests.txt``: an ``estimate_eta`` line holds a case name,
``repr(float(eta))`` and ``repr(float(stderr))`` of ``depolarize.estimate_eta``
for the named codebooks (antipodal, tetrahedron, cube) and the golden-angle
spirals of 2^m words for m = 1..12; sample counts 1, 2, 4095, 4096, 4097, 8193,
25005 and 200000 (a one-row tail, one block, a block and one sample, two blocks
and one sample, and tails of every width class); the default batch (200000) and
a batch of 10007, which is not a multiple of any block; and seeds 0-2.  These
lines pin the directions ``estimate_eta`` draws from two uniforms per sample
(the equal-area map) and its blocked scoring.  An ``average`` line holds a
case name, the realized eta (the Bloch vector of
``depolarize.simulate_average_state`` along the input) and ``repr`` of the real
parameters rho00, Re rho01, Im rho01 and rho11 of the returned state, for the
pure input along (1, 2, 2)/3 through the spirals of m = 1..8 bits, sample
counts 1, 4097 and 25005, the default batch (100000) and a batch of 10007, and
seeds 0-2; these pin the whole rotations drawn as unit quaternions.

README examples: each runs through ``qchansim.cli.main`` with ``--out`` under a
fixed name in ``readme/``, and ``readme/exit_codes.json`` records every exit
code.  The artifacts are deterministic, so two trees produce the same CLI output
exactly when ``diff -r`` of their ``readme/`` directories prints nothing.

With ``--against DIR``, an OUTDIR this tool wrote from another tree, the tool
prints one line per case: ``identical``, or the largest |delta| and its field
(an npz array, a value of the case's line, a numeric leaf of a JSON artifact or
a CSV column), the fields that changed in another way, and the fields or
columns added or removed.  It exits 1 when a case is in only one directory,
when a no-go case's ``best_error`` moved by more than 1e-12 or its
``iterations`` or status changed, or when any other case differs at all; the
|delta| is evidence, not a gate.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from helpers import TETRA_BLOCH, mixed_product_povm, random_product_povm  # noqa: E402

from qchansim import cli, decompose, depolarize, multiround, nogo, protocols, qmath  # noqa: E402


class Digest:
    """A SHA-256 that keeps each value it digests under a field name."""

    def __init__(self):
        self.sha, self.fields = hashlib.sha256(), {}

    def text(self, field: str, text: str) -> None:
        self.sha.update(text.encode())
        self.fields[field] = np.array(text)

    def add(self, field: str, array, header: str | None = None) -> None:
        """Digest ``header``, by default the array's dtype and shape, and then its C-order bytes."""
        array = np.array(array)
        self.sha.update((repr((array.dtype.str, array.shape)) if header is None else header).encode())
        self.sha.update(array.tobytes())
        self.fields[field] = array

    def save(self, path: Path) -> str:
        """Write the fields to ``path`` (an ``.npz``) and return the hex digest."""
        np.savez(path, **self.fields)
        return self.sha.hexdigest()


def run_cli(command: str, config: dict, out: Path) -> int:
    """``qchansim COMMAND --config FILE --out OUT``, with ``config`` written to FILE."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        return cli.main([command, "--config", str(path), "--out", str(out)])


# Protocols: protocol_digests.txt, and protocols/NAME.npz.

KINDS = [(left, right) for left in ("basis", "trine", "tetra") for right in ("basis", "trine", "tetra")]
SEEDS = range(6)
ROUND_SEEDS = range(3)
SAMPLE_SEED = 11
SAMPLES = 2000
TB_GROUPS = ("1", "2", "2", "3", "3")
SHIFT_GROUPS = (0, 1, 2, 0, 1, 2, 0, 2)
COLLAPSE_SPECS = (
    *((f"collapsed-odd-round-depth{depth}-seed3", {"kind": "random_odd_round", "depth": depth, "seed": 3})
      for depth in (3, 5, 7)),
    ("collapsed-three-round-seed21", {"kind": "random_three_round", "seed": 21}),
)


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
    # Blocks of n·d × d isometries with n or d other than 2.
    for seed in ROUND_SEEDS:
        yield f"odd-round-depth3-ternary-3atoms-seed{seed}", multiround.random_odd_round(
            seed, 3, n_atoms=3, alphabet=3, n_outcomes=3
        )
        yield f"odd-round-depth3-dim3-seed{seed}", multiround.random_odd_round(seed, 3, dim=3)
    yield "interactive-twist", multiround.interactive_twist_protocol()


def direct_round_digest(d: Digest, protocol, states) -> None:
    """One ``run_odd_rounds`` call on the 10 states, each with the fixed receiver state of the same index."""
    phis = receiver_states(protocol.final_povm(0, (0,) * protocol.depth).dim)
    for i, row in enumerate(multiround.run_odd_rounds(protocol, states, phis)):
        d.add(f"direct{i}", row)


def round_digest(d: Digest, protocol, states) -> None:
    tables = multiround.tabulate(protocol)
    d.add("probabilities", np.asarray(tables.randomness.probabilities, dtype=float))
    for i, array in enumerate(tables.kraus):
        d.add(f"kraus{i}", array)
    d.add("final", tables.final)
    for i, psi in enumerate(states):
        for j, coin in enumerate(tables.coins(psi)):
            d.add(f"coin{i}.{j}", coin)


def receiver_states(dim: int) -> list[np.ndarray]:
    """10 fixed Haar receiver states of the given dimension."""
    rng = np.random.default_rng([2024, dim])
    return [qmath.projector(qmath.haar_ket(dim, rng)) for _ in range(10)]


def run_digest(d: Digest, prefix: str, protocol, psi, phi) -> None:
    """``run_analytic`` and then ``run_sampled``, as ``simulate`` calls them."""
    d.add(f"{prefix}.analytic", protocols.run_analytic(protocol, psi, phi))
    for j, array in enumerate(protocols.run_sampled(protocol, psi, phi, SAMPLES, SAMPLE_SEED)):
        d.add(f"{prefix}.sampled{j}", array)


def protocol_digest(d: Digest, protocol, states) -> None:
    d.text("messages", repr(protocol.messages))
    d.add("effects", protocol.effects)
    d.add("named", protocol.named)
    d.text("cost_bits", str(protocol.cost_bits))
    for i, psi in enumerate(states):
        d.add(f"encoder{i}", np.asarray(protocol.encoder_matrix(psi), dtype=float), header="")
    phis = receiver_states(protocol.effects.shape[-1])
    for i, (psi, phi) in enumerate([*zip(states, phis), (states[0], phis[0])]):
        run_digest(d, f"run{i}", protocol, psi, phi)


def nnls_digest(d: Digest, states) -> None:
    """``solve_mixture`` over the unpruned 256-member family, which has no candidate supports."""
    slot_map = decompose.slot_weight_map(tetra_tetra())
    family = decompose.enumerate_extremals(slot_map.receiver)
    system = decompose.mixture_system(len(slot_map.weights), family)
    assert system.supports is None
    for i, psi in enumerate(states):
        d.add(f"mixture{i}", decompose.solve_mixture(system, decompose.slot_weights(slot_map, psi)))


def interleaved_digest(d: Digest, built, states) -> None:
    """``protocol_digest``'s runner calls, state by state, every protocol of ``built`` in turn."""
    phis = {dim: receiver_states(dim) for dim in {protocol.effects.shape[-1] for _, protocol, _ in built}}
    for i in range(len(states[1])):
        for name, protocol, n in built:
            run_digest(d, f"{i}.{name}", protocol, states[n][i], phis[protocol.effects.shape[-1]][i])


def collapsed_file_digest(spec: dict, path: Path) -> str:
    """SHA-256 of the ``.collapsed.json`` that ``collapse --out`` writes; ``path`` keeps the arrays it holds."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        code = run_cli("collapse", {"protocol": spec, "check_states": 10}, out)
        if code != 0:
            raise RuntimeError(f"collapse of {spec} exited {code}")
        with open(out.with_suffix(".collapsed.json"), "rb") as handle:
            digest = hashlib.file_digest(handle, "sha256").hexdigest()
    # The text is too large to keep (107 MB at depth 7): build its arrays as ``collapse`` does.
    collapsed = multiround.collapse_odd_rounds(cli._build_protocol(spec)[0])
    rng = np.random.default_rng(np.random.SeedSequence(0))
    grid = [qmath.projector(qmath.haar_ket(2, rng)) for _ in range(10)]
    table = np.stack([collapsed.encoder_matrix(psi) for psi in grid], axis=1)
    np.savez(path, atoms=collapsed.randomness.probabilities, effects=collapsed.effects,
             named=collapsed.named, encoder=table)
    return digest


def protocol_cases(out: Path):
    """(name, digest) for every protocol case, with its values saved in ``out``."""
    out.mkdir()
    rng = np.random.default_rng(2024)
    haar = [qmath.projector(qmath.haar_ket(2, rng)) for _ in range(20)]
    states = {1: haar[:10], 2: [[a, b] for a, b in zip(haar[:10], haar[10:])]}
    built, grouped = list(build_protocols()), list(build_grouped_protocols())

    def case(name, fill, *args):
        d = Digest()
        fill(d, *args)
        return name, d.save(out / f"{name}.npz")

    for name, protocol, n in built:
        yield case(name, protocol_digest, protocol, states[n])
    rounds = list(build_round_protocols())
    for name, protocol in rounds:
        yield case(name, round_digest, protocol, states[1])
    for name, protocol in rounds:
        yield case(f"{name}-direct", direct_round_digest, protocol, states[1])
    for name, protocol, n in grouped:
        yield case(name, protocol_digest, protocol, states[n])
    yield case("tetra-tetra-256-nnls", nnls_digest, states[1])
    yield case("interleaved-runners", interleaved_digest, built + grouped, states)
    for name, spec in COLLAPSE_SPECS:
        yield name, collapsed_file_digest(spec, out / f"{name}.npz")


# No-go reports: nogo_reports.txt, and nogo/NAME.npz.

def nogo_specs():
    """(name, (M, K, N), optimizer seed, budget, starts), in a fixed order."""
    for m, n in [(2, 2), (4, 3), (4, 4)]:
        yield f"criterion7-exact-m{m}-n{n}", (m, 1, n), 0xC70, 32, 2
    for m, n in [(1, 3), (2, 5), (4, 9)]:
        yield f"criterion7-floor-m{m}-n{n}", (m, 4 * m, n), 0xC71, 320, 8
    for seed in range(5):
        for m, k, n in [(1, 4, 3), (2, 8, 5), (3, 6, 7)]:
            yield f"bench-m{m}-k{k}-n{n}-seed{seed}", (m, k, n), seed, 32, 2
    # The README config's case seeds, as ``qchansim nogo`` derives them from its seed 5.
    readme_seeds = [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(5).spawn(2)]
    for (m, k, n), seed in zip([(4, 1, 4), (1, 4, 3)], readme_seeds):
        yield f"readme-m{m}-k{k}-n{n}", (m, k, n), seed, 320, 8
    for m, k, n in [(4, 16, 9), (8, 32, 17)]:
        yield f"large-m{m}-k{k}-n{n}", (m, k, n), 0, 64, 8
    yield "exact-ties-m3-k2-n2", (3, 2, 2), 0, 32, 2
    yield "floor-m5-k3-n11", (5, 3, 11), 0, 40, 4


def nogo_cases(out: Path):
    """(name, best_error, iterations, status, digest) per no-go case, its strategy saved in ``out``."""
    out.mkdir()
    for name, (m, k, n), seed, budget, starts in nogo_specs():
        report = nogo.optimize(
            nogo.nested_grid(n, seed=0xF00D), n_messages=m, n_atoms=k,
            seed=seed, budget=budget, starts=starts,
        )
        status = "exact" if report.best_error < nogo.EXACTNESS_TOL else "floor"
        d = Digest()
        for field in ("atom_probs", "encoder", "effect_weights", "effect_axes"):
            array = getattr(report.strategy, field)
            d.add(field, np.asarray(array, dtype=float), repr(array.shape))
        yield name, repr(report.best_error), str(report.iterations), status, d.save(out / f"{name}.npz")


# Eta lines: eta_digests.txt.

CODEBOOKS = ["antipodal", "tetrahedron", "cube", *range(1, 13)]
ETA_SAMPLES = [1, 2, 4095, 4096, 4097, 8193, 25_005, 200_000]
BATCHES = [200_000, 10_007]
ETA_SEEDS = [0, 1, 2]
AVERAGE_BITS = range(1, 9)
AVERAGE_SAMPLES = [1, 4097, 25_005]
AVERAGE_BATCHES = [100_000, 10_007]
AVERAGE_INPUT = np.array([1.0, 2.0, 2.0]) / 3.0


def eta_cases(out: Path):
    """(name, values...) for every eta case; they keep no file in ``out``."""
    for spec in CODEBOOKS:
        c = depolarize.codebook(spec)
        for n, batch, seed in itertools.product(ETA_SAMPLES, BATCHES, ETA_SEEDS):
            eta, stderr = depolarize.estimate_eta(c, n, seed, batch=batch)
            yield f"{c.name}-n{n}-batch{batch}-seed{seed}", repr(float(eta)), repr(float(stderr))
    psi = qmath.bloch_to_density(AVERAGE_INPUT)
    for m in AVERAGE_BITS:
        c = depolarize.codebook(m)
        for n, batch, seed in itertools.product(AVERAGE_SAMPLES, AVERAGE_BATCHES, ETA_SEEDS):
            rho = depolarize.simulate_average_state(psi, c, n, seed, batch=batch)
            eta = qmath.density_to_bloch(rho) @ AVERAGE_INPUT
            entries = (rho[0, 0].real, rho[0, 1].real, rho[0, 1].imag, rho[1, 1].real)
            yield f"average-{c.name}-n{n}-batch{batch}-seed{seed}", *(repr(float(v)) for v in (eta, *entries))


# README examples, in readme/: (artifact name, command, config), configs as given in the README's list.
EXAMPLES = [
    ("simulate-tb.json", "simulate",
     {"measurement": "tb", "psi": "haar", "phi": "haar", "samples": 1000000, "seed": 7}),
    ("simulate-shift-B.json", "simulate", {"measurement": "shift", "sender_config": "B", "seed": 3}),
    ("depolarize-bit-counts.csv", "depolarize", {"bit_counts": [1, 2, 3], "samples": 1000000, "seed": 9}),
    ("depolarize-sweep.csv", "depolarize", {"sweep_max_bits": 7, "samples": 200000, "seed": 9}),
    ("collapse-three-round.json", "collapse",
     {"protocol": {"kind": "random_three_round", "seed": 21}, "check_states": 10}),
    ("collapse-odd-round.json", "collapse", {"protocol": {"kind": "random_odd_round", "depth": 5, "seed": 23}}),
    ("nogo.csv", "nogo",
     {"cases": [{"messages": 4, "atoms": 1, "states": 4}, {"messages": 1, "atoms": 4, "states": 3}],
      "budget": 320, "starts": 8, "seed": 5}),
    ("rac.json", "rac", {}),
    ("decompose-tb.json", "decompose", {"measurement": "tb", "psi": [0, 0, 1]}),
]


def readme_artifacts(out: Path) -> None:
    out.mkdir()
    codes = {name: run_cli(command, config, out / name) for name, command, config in EXAMPLES}
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


# --against: read two OUTDIRs and compare them case by case.

#: Each group's line file, the fields after a line's case name, and the cases' writer.
LINE_FILES = {
    "protocols": ("protocol_digests.txt", ("sha256",), protocol_cases),
    "nogo": ("nogo_reports.txt", ("best_error", "iterations", "status", "sha256"), nogo_cases),
    "eta": ("eta_digests.txt", ("eta", "stderr"), eta_cases),
}
AVERAGE_FIELDS = ("eta", "rho00", "re_rho01", "im_rho01", "rho11")
#: A no-go case fails only when one of these fields moves by more than its bound.
NOGO_BOUNDS = {"best_error": 1e-12, "iterations": 0.0, "status": 0.0}


def _json_fields(value, path: str, fields: dict) -> None:
    """The leaves of a JSON value, each under its path."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _json_fields(item, f"{path}.{key}" if path else str(key), fields)
    else:
        fields[path] = np.array(json.dumps(value) if value is None or isinstance(value, bool) else value)


def _csv_fields(text: str) -> dict:
    """The comment line of a qchansim CSV document, and each column under its header name."""
    comment, header, *rows = text.splitlines()
    fields = {"comment": np.array(comment)}
    for name, *column in zip(header.split(","), *(row.split(",") for row in rows)):
        try:
            fields[name] = np.array([float(c) if c else np.nan for c in column])
        except ValueError:
            fields[name] = np.array(column)
    return fields


def read_cases(root: Path) -> dict[str, tuple[list, dict]]:
    """Each case of an OUTDIR, as GROUP/NAME: (its line and file bytes, its fields)."""
    cases = {}
    for group, (line_file, names, _) in LINE_FILES.items():
        path = root / line_file
        for line in path.read_text().splitlines() if path.exists() else []:
            name, *tokens = line.split()
            fields = zip(AVERAGE_FIELDS if name.startswith("average-") else names, tokens, strict=True)
            cases[f"{group}/{name}"] = ([line], {
                field: np.array(token if field in ("sha256", "status") else float(token))
                for field, token in fields
            })
    for path in sorted(root.glob("*/*")):
        raw, fields = cases.setdefault(f"{path.parent.name}/{path.stem}", ([], {}))
        raw.append(path.read_bytes())
        if path.suffix == ".npz":
            with np.load(path) as npz:
                fields.update(npz)
        elif path.suffix == ".csv":
            fields.update(_csv_fields(raw[-1].decode()))
        else:
            _json_fields(json.loads(raw[-1]), "", fields)
    return cases


def field_delta(a: np.ndarray, b: np.ndarray) -> float | None:
    """The largest |a - b| of numeric fields of one shape, 0 for equal fields, else None."""
    if a.shape == b.shape and a.dtype.kind in "biufc" and b.dtype.kind in "biufc":
        common = np.result_type(a.dtype, b.dtype, np.float64)
        a, b = np.atleast_1d(a.astype(common), b.astype(common))
        with np.errstate(invalid="ignore"):
            gap = np.abs(a - b)
        # Equal infinities and NaN pairs are equal; NaN against a number is an infinite gap.
        gap[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        return float(np.nan_to_num(gap, nan=np.inf).max(initial=0.0))
    return 0.0 if a.shape == b.shape and np.array_equal(a, b) else None


def case_evidence(key: str, ours: dict, theirs: dict):
    """What a changed case prints, whether it fails, and its largest (|delta|, field)."""
    deltas = {field: field_delta(ours[field], theirs[field]) for field in ours if field in theirs}
    worst = max(((d, field) for field, d in deltas.items() if d), default=(0.0, ""))
    notes = [f"largest |delta| {worst[0]:.3g} ({worst[1]})"] if worst[0] else []
    for label, names in (
        ("changed", [field for field, d in deltas.items() if d is None]),
        ("added", [field for field in ours if field not in theirs]),
        ("removed", [field for field in theirs if field not in ours]),
    ):
        if names:
            more = f" and {len(names) - 6} more" if len(names) > 6 else ""
            notes.append(f"{label} {', '.join(names[:6])}{more}")
    fails = not key.startswith("nogo/") or not all(
        deltas.get(field) is not None and deltas[field] <= bound for field, bound in NOGO_BOUNDS.items()
    )
    return "; ".join(notes) or "differs only in formatting", fails, worst


def compare(ours_dir: Path, theirs_dir: Path) -> int:
    """Print one line per case of two OUTDIRs, then a summary; 1 when any case fails."""
    ours, theirs = read_cases(ours_dir), read_cases(theirs_dir)
    failed, identical, overall = 0, 0, (0.0, "")
    for key in [*ours, *(key for key in theirs if key not in ours)]:
        if key not in ours or key not in theirs:
            note, fails = f"missing from {theirs_dir if key in ours else ours_dir}", True
        elif ours[key][0] == theirs[key][0]:
            note, fails, identical = "identical", False, identical + 1
        else:
            note, fails, (delta, field) = case_evidence(key, ours[key][1], theirs[key][1])
            overall = max(overall, (delta, f"{key} {field}"))
        print(f"{'FAIL ' if fails else ''}{key}: {note}")
        failed += fails
    print(f"{identical} of {len(ours)} cases identical, {failed} failed; largest |delta| {overall[0]:.3g}"
          + (f" ({overall[1]})" if overall[0] else ""))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("outdir", type=Path, metavar="OUTDIR", help="a new or empty directory")
    parser.add_argument("--against", type=Path, metavar="DIR", help="an OUTDIR written from another tree")
    args = parser.parse_args(argv)
    out = args.outdir
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    readme_artifacts(out / "readme")
    for group, (line_file, _, cases) in LINE_FILES.items():
        (out / line_file).write_text("\n".join(" ".join(case) for case in cases(out / group)) + "\n")
    return 0 if args.against is None else compare(out, args.against)


if __name__ == "__main__":
    sys.exit(main())
