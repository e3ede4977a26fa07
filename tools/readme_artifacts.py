"""Write every artifact of the README's example configs into one directory.

Usage (from the repository root, or with any qchansim tree on PYTHONPATH):

    PYTHONPATH=src python tools/readme_artifacts.py OUTDIR

Each example runs through ``qchansim.cli.main`` with ``--out`` under a fixed
name, and ``exit_codes.json`` records every command's exit code.  The
artifacts are deterministic, so two trees produce the same CLI output exactly
when ``diff -r OUTDIR_A OUTDIR_B`` prints nothing.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from qchansim import cli

# (artifact name, command, config); configs as given in the README's example list.
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as configs:
        for name, command, config in EXAMPLES:
            path = Path(configs) / f"{name}.config.json"
            path.write_text(json.dumps(config))
            codes[name] = cli.main([command, "--config", str(path), "--out", str(out_dir / name)])
    (out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
