"""Write one line per Monte Carlo result of ``depolarize`` into OUTDIR/eta_digests.txt.

Usage (from the repository root, or with any qchansim tree on PYTHONPATH):

    PYTHONPATH=src python tools/eta_digests.py OUTDIR [--against DIR]

An ``estimate_eta`` line holds a case name, ``repr(float(eta))`` and
``repr(float(stderr))`` of ``depolarize.estimate_eta``.  Its cases cover:

- the named codebooks (antipodal, tetrahedron, cube) and the golden-angle
  spirals of 2^m words for m = 1..12;
- sample counts 1, 2, 4095, 4096, 4097, 8193, 25005 and 200000 (a one-row
  tail, one block, a block and one sample, two blocks and one sample, and
  tails of every width class);
- the default batch (200000) and a batch of 10007, which is not a multiple
  of any block;
- seeds 0-2.

An ``average`` line holds a case name, the realized eta (the Bloch vector of
``depolarize.simulate_average_state`` along the input) and ``repr`` of the
real parameters rho00, Re rho01, Im rho01 and rho11 of the returned state.  Its
cases take the pure input along (1, 2, 2)/3 through the golden-angle spirals
of m = 1..8 bits, sample counts 1, 4097 and 25005, the default batch
(100000) and a batch of 10007, and seeds 0-2.

With ``--against DIR`` the tool also reads DIR/eta_digests.txt, prints every
case that differs and the largest |delta eta|, and exits 1 when a case is
missing or any line differs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from qchansim import depolarize, qmath

DIGEST_FILE = "eta_digests.txt"
CODEBOOKS = ["antipodal", "tetrahedron", "cube", *range(1, 13)]
SAMPLES = [1, 2, 4095, 4096, 4097, 8193, 25_005, 200_000]
BATCHES = [200_000, 10_007]
SEEDS = [0, 1, 2]
AVERAGE_BITS = range(1, 9)
AVERAGE_SAMPLES = [1, 4097, 25_005]
AVERAGE_BATCHES = [100_000, 10_007]
AVERAGE_INPUT = np.array([1.0, 2.0, 2.0]) / 3.0


def digest_lines() -> list[str]:
    lines = []
    for spec in CODEBOOKS:
        c = depolarize.codebook(spec)
        for n in SAMPLES:
            for batch in BATCHES:
                for seed in SEEDS:
                    eta, stderr = depolarize.estimate_eta(c, n, seed, batch=batch)
                    lines.append(f"{c.name}-n{n}-batch{batch}-seed{seed} {float(eta)!r} {float(stderr)!r}")
    psi = qmath.bloch_to_density(AVERAGE_INPUT)
    for m in AVERAGE_BITS:
        c = depolarize.codebook(m)
        for n in AVERAGE_SAMPLES:
            for batch in AVERAGE_BATCHES:
                for seed in SEEDS:
                    rho = depolarize.simulate_average_state(psi, c, n, seed, batch=batch)
                    eta = qmath.density_to_bloch(rho) @ AVERAGE_INPUT
                    entries = (rho[0, 0].real, rho[0, 1].real, rho[0, 1].imag, rho[1, 1].real)
                    values = " ".join(repr(float(v)) for v in (eta, *entries))
                    lines.append(f"average-{c.name}-n{n}-batch{batch}-seed{seed} {values}")
    return lines


def read_digests(path: Path) -> dict[str, list[str]]:
    rows = (line.split() for line in path.read_text().splitlines() if line.strip())
    return {row[0]: row[1:] for row in rows}


def compare(ours: dict[str, list[str]], theirs: dict[str, list[str]]) -> int:
    """Print how two digest sets differ; 1 when any case is missing or differs."""
    failed = False
    deltas = {}
    for name, values in ours.items():
        if name not in theirs:
            print(f"{name}: missing from the reference")
            failed = True
            continue
        deltas[name] = abs(float(values[0]) - float(theirs[name][0]))
        if values != theirs[name]:
            print(f"{name}: {' '.join(theirs[name])} -> {' '.join(values)}")
            failed = True
    worst = max(deltas, key=deltas.get, default=None)
    if worst is not None:
        print(f"{len(deltas)} cases compared; largest |delta eta| = {deltas[worst]:.3g} ({worst})")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 3) or (len(argv) == 3 and argv[1] != "--against"):
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / DIGEST_FILE).write_text("\n".join(digest_lines()) + "\n")
    if len(argv) == 1:
        return 0
    return compare(read_digests(out_dir / DIGEST_FILE), read_digests(Path(argv[2]) / DIGEST_FILE))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
