"""Write one line per no-go optimizer report into OUTDIR/nogo_reports.txt.

Usage (from the repository root, or with any qchansim tree on PYTHONPATH):

    PYTHONPATH=src python tools/nogo_reports.py OUTDIR [--against DIR]

Each line holds a case name, ``repr(best_error)``, ``iterations``, the status
(``exact`` below ``nogo.EXACTNESS_TOL``, else ``floor``) and a SHA-256 of the
chosen strategy's arrays.  Cases are written as (M messages, K atoms, N states):

- criterion 7: (2, 1, 2), (4, 1, 3), (4, 1, 4) at seed 0xC70, budget 32,
  2 starts, and (1, 4, 3), (2, 8, 5), (4, 16, 9) at seed 0xC71, budget 320,
  8 starts;
- the ``nogo-floor`` benchmark cases (1, 4, 3), (2, 8, 5), (3, 6, 7) on grid
  seed 0xF00D at seeds 0-4, budget 32, 2 starts;
- the README ``nogo`` config, with the case seeds ``qchansim nogo`` derives
  from its seed 5;
- (4, 16, 9) and (8, 32, 17) at seed 0, budget 64, 8 starts.

With ``--against DIR`` the tool also reads DIR/nogo_reports.txt, prints the
largest |delta best_error| and every case whose ``iterations`` or status
differ, and exits 1 when a case is missing, such a mismatch exists or a
best_error moved by more than 1e-12.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from qchansim import nogo

TOLERANCE = 1e-12
REPORT_FILE = "nogo_reports.txt"


def readme_case_seeds(seed: int, count: int) -> list[int]:
    """The per-case seeds ``qchansim nogo`` derives from its config seed."""
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(count)]


def cases():
    """(name, (M, K, N), grid seed, optimizer seed, budget, starts), in a fixed order."""
    for m, n in [(2, 2), (4, 3), (4, 4)]:
        yield f"criterion7-exact-m{m}-n{n}", (m, 1, n), 0xF00D, 0xC70, 32, 2
    for m, n in [(1, 3), (2, 5), (4, 9)]:
        yield f"criterion7-floor-m{m}-n{n}", (m, 4 * m, n), 0xF00D, 0xC71, 320, 8
    for seed in range(5):
        for m, k, n in [(1, 4, 3), (2, 8, 5), (3, 6, 7)]:
            yield f"bench-m{m}-k{k}-n{n}-seed{seed}", (m, k, n), 0xF00D, seed, 32, 2
    readme = [(4, 1, 4), (1, 4, 3)]
    for (m, k, n), seed in zip(readme, readme_case_seeds(5, len(readme))):
        yield f"readme-m{m}-k{k}-n{n}", (m, k, n), 0xF00D, seed, 320, 8
    for m, k, n in [(4, 16, 9), (8, 32, 17)]:
        yield f"large-m{m}-k{k}-n{n}", (m, k, n), 0xF00D, 0, 64, 8


def strategy_digest(s: nogo.FiniteStrategy) -> str:
    h = hashlib.sha256()
    for arr in (s.atom_probs, s.encoder, s.effect_weights, s.effect_axes):
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def report_lines() -> list[str]:
    lines = []
    for name, (m, k, n), grid_seed, seed, budget, starts in cases():
        report = nogo.optimize(
            nogo.nested_grid(n, seed=grid_seed), n_messages=m, n_atoms=k,
            seed=seed, budget=budget, starts=starts,
        )
        status = "exact" if report.best_error < nogo.EXACTNESS_TOL else "floor"
        digest = strategy_digest(report.strategy)
        lines.append(" ".join([name, repr(report.best_error), str(report.iterations), status, digest]))
    return lines


def read_reports(path: Path) -> dict[str, list[str]]:
    rows = (line.split() for line in path.read_text().splitlines() if line.strip())
    return {row[0]: row[1:] for row in rows}


def compare(ours: dict[str, list[str]], theirs: dict[str, list[str]]) -> int:
    """Print how two report sets differ; 1 when they disagree beyond the tolerance."""
    failed = False
    deltas = {}
    for name, (error, iterations, status, digest) in ours.items():
        if name not in theirs:
            print(f"{name}: missing from the reference")
            failed = True
            continue
        ref_error, ref_iterations, ref_status, ref_digest = theirs[name]
        deltas[name] = abs(float(error) - float(ref_error))
        if iterations != ref_iterations or status != ref_status:
            print(f"{name}: iterations {ref_iterations} -> {iterations}, status {ref_status} -> {status}")
            failed = True
        elif digest != ref_digest:
            print(f"{name}: strategy digest differs (|delta best_error| = {deltas[name]:.3g})")
    worst = max(deltas, key=deltas.get, default=None)
    if worst is not None:
        print(f"largest |delta best_error| = {deltas[worst]:.3g} ({worst})")
    return 1 if failed or (worst is not None and deltas[worst] > TOLERANCE) else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 3) or (len(argv) == 3 and argv[1] != "--against"):
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = report_lines()
    (out_dir / REPORT_FILE).write_text("\n".join(lines) + "\n")
    if len(argv) == 1:
        return 0
    return compare(read_reports(out_dir / REPORT_FILE), read_reports(Path(argv[2]) / REPORT_FILE))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
