"""The four workloads: inputs built through the program, one op, and its checks.

A workload object is built once per process; building it is the set-up
that ``setup_s`` measures.  ``prepare`` makes the benchmark's own reference
values, which set-up does not count.  ``op_input(index)`` makes the inputs
of one op from the workload seed and the op index, ``run`` is the timed op,
and ``check`` returns a list of problems with the op's output (empty when
the output is correct).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

#: Exit code of ``qchansim nogo`` when a row shows an error floor.
EXIT_FLOOR = 1


def op_seed(seed: int, index: int, stream: int = 0) -> int:
    """A 32-bit seed for op ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index, stream]).generate_state(1)[0])


def _read_csv(path: Path) -> list[dict]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


class Workload:
    def prepare(self):
        """Make the benchmark's own reference values (not part of set-up)."""


class NogoFloor(Workload):
    """``qchansim nogo`` on cases just beyond the counting bound, N = 2M + 1."""

    CASES = ((1, 4, 3), (2, 8, 5), (3, 6, 7))  # (messages, atoms, states)
    BUDGET = 32
    STARTS = 2
    GRID_SEED = 0xF00D

    def __init__(self, seed: int, workdir: Path, qchansim):
        self.seed = seed
        self.cli = qchansim.cli
        self.grids = {n: qchansim.nogo.nested_grid(n, seed=self.GRID_SEED).grid for _, _, n in self.CASES}
        self.config = workdir / "nogo.json"
        self.config.write_text(json.dumps({
            "cases": [{"messages": m, "atoms": k, "states": n} for m, k, n in self.CASES],
            "budget": self.BUDGET,
            "starts": self.STARTS,
            "grid_seed": self.GRID_SEED,
        }))
        self.out = workdir / "nogo.csv"

    def op_input(self, index: int) -> int:
        return op_seed(self.seed, index)

    def run(self, cli_seed: int) -> int:
        return self.cli.main(["nogo", "--config", str(self.config), "--seed", str(cli_seed), "--out", str(self.out)])

    def check(self, cli_seed: int, code: int) -> list[str]:
        if code != EXIT_FLOOR:
            return [f"exit code {code}, expected {EXIT_FLOOR} (floor)"]
        rows = _read_csv(self.out)
        doc = json.loads(self.out.with_suffix(".strategies.json").read_text())
        strategies = doc["strategies"]
        if len(rows) != len(self.CASES) or len(strategies) != len(self.CASES):
            return [f"{len(rows)} rows and {len(strategies)} strategies for {len(self.CASES)} cases"]
        problems = []
        for (m, k, n), row, strategy in zip(self.CASES, rows, strategies):
            case = f"case (M={m}, K={k}, N={n})"
            shape = (int(row["messages"]), int(row["atoms"]), int(row["states"]))
            if shape != (m, k, n) or (strategy["messages"], strategy["atoms"], strategy["states"]) != (m, k, n):
                problems.append(f"{case}: rows out of order")
                continue
            best = float(row["best_error"])
            if row["status"] != "floor" or not best > 1e-8:
                problems.append(f"{case}: status {row['status']} with best_error {best!r}")
            if strategy["best_error"] != best:
                problems.append(f"{case}: CSV and strategies file disagree on best_error")
            enc = np.asarray(strategy["encoder"], dtype=float)
            weights = np.asarray(strategy["effect_weights"], dtype=float)
            if enc.min() < 0.0 or np.max(np.abs(enc.sum(axis=2) - 1.0)) > 1e-12:
                problems.append(f"{case}: encoder rows are not distributions")
            if weights.min() < 0.0 or weights.max() > 1.0:
                problems.append(f"{case}: effect weights outside [0, 1]")
            recomputed = float(np.max(reference.strategy_errors(strategy, self.grids[n])))
            if abs(recomputed - best) > 1e-12:
                problems.append(f"{case}: recomputed error {recomputed!r} != best_error {best!r}")
        return problems


class DepolarizeCodebooks(Workload):
    """``qchansim depolarize`` over small named codebooks and large spirals."""

    BIT_COUNTS = (1, 2, 3, 6, 8)
    SAMPLES = 200_000
    SIGMAS = 6.0            # allowed distance of eta_hat from the reference, in standard errors
    STDERR_REL_TOL = 0.05   # allowed relative gap between reported and reference standard errors

    def __init__(self, seed: int, workdir: Path, qchansim):
        self.seed = seed
        self.cli = qchansim.cli
        depolarize = qchansim.depolarize
        self.codebooks = {
            m: depolarize.codebook(depolarize.REFERENCE_CODEBOOKS.get(m, m)) for m in self.BIT_COUNTS
        }
        self.config = workdir / "depolarize.json"
        self.config.write_text(json.dumps({"bit_counts": list(self.BIT_COUNTS), "samples": self.SAMPLES}))
        self.out = workdir / "eta.csv"
        self.moments = None

    def prepare(self):
        self.moments = {m: reference.eta_moments(c.vectors) for m, c in self.codebooks.items()}

    def op_input(self, index: int) -> int:
        return op_seed(self.seed, index)

    def run(self, cli_seed: int) -> int:
        return self.cli.main(
            ["depolarize", "--config", str(self.config), "--seed", str(cli_seed), "--out", str(self.out)]
        )

    def check(self, cli_seed: int, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        rows = _read_csv(self.out)
        if [int(r["bits"]) for r in rows] != list(self.BIT_COUNTS):
            return [f"rows for bit counts {[r['bits'] for r in rows]}"]
        problems = []
        for row in rows:
            m = int(row["bits"])
            mean, variance = self.moments[m]
            n = int(row["n"])
            se = math.sqrt(variance / n)
            eta, stderr = float(row["eta_hat"]), float(row["stderr"])
            if row["codebook"] != self.codebooks[m].name or n != self.SAMPLES:
                problems.append(f"m={m}: codebook {row['codebook']} with n={n}")
            if abs(eta - mean) > self.SIGMAS * se:
                problems.append(f"m={m}: eta_hat {eta!r} is {abs(eta - mean) / se:.1f} se from {mean!r}")
            if abs(stderr - se) > self.STDERR_REL_TOL * se:
                problems.append(f"m={m}: stderr {stderr!r} against reference {se!r}")
        return problems


class SimulateProtocols(Workload):
    """``run_analytic`` and ``run_sampled`` of eight protocols on fresh Haar state pairs."""

    PAIRS = 8
    SAMPLES = 20_000
    SIGMAS = 7.0     # allowed distance of a sampled frequency from its Born probability, in se
    SLACK = 8        # plus this many counts, for the skewed tails of rare outcomes
    TOL = 1e-10      # analytic statistics against the Born oracle

    def __init__(self, seed: int, workdir: Path, qchansim):
        self.seed = seed
        protocols, qmath = qchansim.protocols, qchansim.qmath
        self.protocols = protocols
        # (name, protocol, kind of states it takes, [(label, weight, factors)])
        self.cases = []
        for name in ("comp", "twistA", "twistB", "tb"):
            terms = [
                (label, e.weight, e.factors)
                for label, e in zip(qmath.catalog_labels(name), qmath.catalog_product_effects(name))
            ]
            self.cases.append((name, protocols.catalog_protocol(name), "two", terms))

        blocks = protocols.demo_block_basis()
        terms = []
        for i, b in enumerate(blocks):
            perp = np.array([-np.conj(b.alice[1]), np.conj(b.alice[0])])
            terms += [((i, 0, j), 1.0, (b.alice, v)) for j, v in enumerate(b.bob_bit0)]
            terms += [((i, 1, j), 1.0, (perp, v)) for j, v in enumerate(b.bob_bit1)]
        self.cases.append(("blockbasis6", protocols.block_basis_protocol(blocks), "block", terms))

        shift = qmath.catalog_product_effects("shift")
        shift_labels = qmath.catalog_labels("shift")
        terms = [(label, e.weight, e.factors) for label, e in zip(shift_labels, shift)]
        for config in ("A", "B"):
            protocol = protocols.multi_sender_protocol(shift, config, shift_labels)
            self.cases.append((f"shift{config}", protocol, "three", terms))

        s = 1.0 / math.sqrt(3.0)
        tetra = [reference.bloch_ket(s * np.array(v)) for v in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]
        terms = [(f"{i}{j}", 0.25, (a, b)) for i, a in enumerate(tetra) for j, b in enumerate(tetra)]
        effects = [qmath.ProductRank1Effect(weight=w, factors=f) for _, w, f in terms]
        product = protocols.rank1_product_protocol(effects, [label for label, _, _ in terms])
        self.cases.append(("tetra2", product, "two", terms))

    def op_input(self, index: int) -> list[dict]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index]))
        return [
            {
                "psi": reference.haar_density(2, rng),
                "psi2": reference.haar_density(2, rng),
                "phi": reference.haar_density(2, rng),
                "phi6": reference.haar_density(6, rng),
                "seed": int(rng.integers(2**32)),
            }
            for _ in range(self.PAIRS)
        ]

    def _states(self, kind: str, pair: dict):
        if kind == "block":
            return [pair["psi"], pair["phi6"]]
        if kind == "three":
            return [pair["psi"], pair["psi2"], pair["phi"]]
        return [pair["psi"], pair["phi"]]

    def run(self, pairs: list[dict]) -> list:
        results = []
        for pair in pairs:
            for name, protocol, kind, _ in self.cases:
                states = self._states(kind, pair)
                if kind == "three":
                    analytic = protocol.run_analytic(states[:2], states[2])
                    sampled, _ = protocol.run_sampled(states[:2], states[2], self.SAMPLES, pair["seed"])
                else:
                    analytic = self.protocols.run_analytic(protocol, states[0], states[1])
                    sampled, _ = self.protocols.run_sampled(
                        protocol, states[0], states[1], self.SAMPLES, pair["seed"]
                    )
                results.append((analytic, sampled))
        return results

    def check(self, pairs: list[dict], results: list) -> list[str]:
        problems = []
        outcomes = iter(results)
        for p_index, pair in enumerate(pairs):
            for name, protocol, kind, terms in self.cases:
                analytic, sampled = next(outcomes)
                born = dict(zip(
                    [label for label, _, _ in terms],
                    reference.product_born([(w, f) for _, w, f in terms], self._states(kind, pair)),
                ))
                expected = np.array([born[label] for label in protocol.outcomes])
                gap = float(np.max(np.abs(np.asarray(analytic) - expected)))
                if gap > self.TOL:
                    problems.append(f"{name} pair {p_index}: analytic differs from Born by {gap:.2e}")
                n = self.SAMPLES
                allowed = self.SIGMAS * np.sqrt(expected * (1.0 - expected) / n) + self.SLACK / n
                if np.any(np.abs(np.asarray(sampled) - expected) > allowed):
                    problems.append(f"{name} pair {p_index}: sampled frequencies outside {self.SIGMAS} se")
        return problems


class CollapseOddRounds(Workload):
    """``qchansim collapse --out`` on a freshly seeded depth-5 odd-round protocol."""

    DEPTH = 5
    ALPHABET = 2
    CHECK_STATES = 10
    TOL = 1e-10

    def __init__(self, seed: int, workdir: Path, qchansim):
        self.seed = seed
        self.cli = qchansim.cli
        self.multiround = qchansim.multiround
        self.config = workdir / "collapse.json"
        self.out = workdir / "run.json"

    def op_input(self, index: int) -> dict:
        spec = {"kind": "random_odd_round", "depth": self.DEPTH, "alphabet": self.ALPHABET,
                "seed": op_seed(self.seed, index, 1)}
        self.config.write_text(json.dumps({"protocol": spec, "check_states": self.CHECK_STATES}))
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index, 2]))
        return {"spec": spec, "cli_seed": op_seed(self.seed, index), "phi": reference.haar_density(2, rng)}

    def run(self, inp: dict) -> int:
        return self.cli.main(
            ["collapse", "--config", str(self.config), "--seed", str(inp["cli_seed"]), "--out", str(self.out)]
        )

    def check(self, inp: dict, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        report = json.loads(self.out.read_text())
        collapsed = json.loads(self.out.with_suffix(".collapsed.json").read_text())
        rounds = (self.DEPTH + 1) // 2
        expected_messages = reference.collapsed_message_count([self.ALPHABET] * rounds, [self.ALPHABET] * (rounds - 1))
        expected_bits = math.ceil(math.log2(expected_messages))
        problems = []
        counts = (report["collapsed_messages"], len(collapsed["messages"]))
        if counts != (expected_messages, expected_messages):
            problems.append(f"message counts {counts}, expected {expected_messages}")
        bits = (report["collapsed_cost_bits"], collapsed["cost_bits"])
        if bits != (expected_bits, expected_bits):
            problems.append(f"cost bits {bits}, expected {expected_bits}")
        if not report["max_deviation"] < self.TOL:
            problems.append(f"reported max_deviation {report['max_deviation']!r}")
        original = self.multiround.random_odd_round(
            seed=inp["spec"]["seed"], depth=self.DEPTH, alphabet=self.ALPHABET
        )
        grid = collapsed["encoder"]["psi_grid"]
        if len(grid) != self.CHECK_STATES:
            problems.append(f"{len(grid)} grid states, expected {self.CHECK_STATES}")
        outcomes = [reference.json_label(o) for o in collapsed["outcomes"]]
        stats = reference.tabulated_stats(collapsed, inp["phi"])
        for g, bloch in enumerate(grid):
            direct = reference.odd_round_direct(original, reference.bloch_density(bloch), inp["phi"])
            gap = max(abs(p - direct[label]) for label, p in zip(outcomes, stats[g]))
            if gap > self.TOL:
                problems.append(f"grid state {g}: collapsed file differs from direct sum by {gap:.2e}")
        return problems


WORKLOADS = {
    "nogo-floor": NogoFloor,
    "depolarize-codebooks": DepolarizeCodebooks,
    "simulate-protocols": SimulateProtocols,
    "collapse-odd-rounds": CollapseOddRounds,
}
