"""Command-line scenario runner with reproducible, machine-readable outputs.

Every command reads one JSON config document, resolves defaults (recording
the seed actually used), runs the scenario, and writes either a JSON report
or a CSV sweep.  Outputs embed the resolved config and the package version,
contain no timestamps, and are byte-identical across reruns of the same
config.  Exit codes: 0 success, 1 witness sweep observed an error floor,
2 invariant violation, 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, decompose, depolarize, multiround, nogo, protocols, qmath, serialize

EXIT_OK = 0
EXIT_FLOOR = 1
EXIT_INVARIANT = 2
EXIT_MALFORMED = 3

SIMULATION_TOL = 1e-10


class ConfigError(ValueError):
    """Missing, malformed or unsupported configuration."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config document must be a JSON object")
    return obj


def _write_text(path: str, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    # mkstemp creates the file with mode 0600; give it the mode a plain open would.
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit(path: str | None, text: str) -> None:
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_report(command: str, config: dict, body: dict) -> str:
    return serialize.dumps(
        {"artifact_version": __version__, "command": command, "config": config, **body}
    )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_document(command: str, config: dict, header: list[str], rows: list[list]) -> str:
    lines = [
        "# qchansim "
        + __version__
        + " "
        + command
        + " config="
        + json.dumps(config, sort_keys=True, separators=(",", ":")),
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _resolve_state(spec, dim: int, rng: np.random.Generator, what: str) -> np.ndarray:
    """A density matrix from 'haar', a Bloch triple (qubits), or an amplitude list."""
    if spec == "haar" or spec is None:
        return qmath.projector(qmath.haar_ket(dim, rng))
    if isinstance(spec, (list, tuple)):
        arr = np.asarray(spec, dtype=float) if not _is_amplitude_list(spec) else None
        if arr is not None and arr.shape == (3,) and dim == 2:
            return qmath.bloch_to_density(arr)
        if _is_amplitude_list(spec):
            ket = serialize.ket_from_obj(spec)
            if ket.shape != (dim,):
                raise ConfigError(f"{what} has dimension {ket.shape[0]}, expected {dim}")
            return qmath.projector(qmath.ket(*ket))
    raise ConfigError(f"{what} must be 'haar', a Bloch triple, or [re, im] amplitudes")


def _is_amplitude_list(spec) -> bool:
    return (
        isinstance(spec, (list, tuple))
        and len(spec) > 0
        and all(isinstance(x, (list, tuple)) and len(x) == 2 for x in spec)
    )


def _state_obj(rho: np.ndarray) -> dict:
    return serialize.matrix_to_obj(rho)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_TWO_PARTY_CATALOG = ("comp", "twistA", "twistB", "tb")


def _load_measurement(spec: str):
    """Product effects and labels for a catalog name or a product_povm file."""
    if spec in _TWO_PARTY_CATALOG or spec == "shift":
        return qmath.catalog_product_effects(spec), qmath.catalog_labels(spec)
    if spec == "singlet":
        raise ConfigError(
            "the singlet measurement has entangled effects and no product-form simulator"
        )
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"unknown measurement {spec!r}")
    effects, labels = serialize.product_povm_from_obj(serialize.loads(path.read_text()))
    return effects, labels


def _block_basis_povm(blocks):
    effects, labels = [], []
    for i, b in enumerate(blocks):
        for j, v in enumerate(b.bob_bit0):
            effects.append(qmath.projector(qmath.tensor(b.alice, v)))
            labels.append((i, 0, j))
        for j, v in enumerate(b.bob_bit1):
            effects.append(qmath.projector(qmath.tensor(b.alice_perp, v)))
            labels.append((i, 1, j))
    return qmath.Povm(effects=tuple(effects), labels=tuple(labels))


def _simulate_protocol_file(config: dict, out: str | None, obj: dict) -> int:
    """Run a serialized one-round protocol (e.g. a collapsed multi-round file).

    The sender state must lie on the protocol's declared grid; the default is
    the first grid point.  No Born reference exists for a bare protocol file,
    so only the analytic and sampled statistics are reported.
    """
    seed = int(config.get("seed", 0))
    samples = int(config.get("samples", 0))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    protocol = serialize.one_round_protocol_from_obj(obj)
    grid = obj["encoder"]["psi_grid"]
    psi_spec = config.get("psi")
    if psi_spec is None or psi_spec == "haar":
        psi = qmath.bloch_to_density(grid[0])
    else:
        psi = _resolve_state(psi_spec, 2, rng, "psi")
    dim_b = protocol.decoder(0, 0).dim
    phi = _resolve_state(config.get("phi", "haar"), dim_b, rng, "phi")
    analytic = protocols.run_analytic(protocol, psi, phi)
    body = {
        "states": {"psi": _state_obj(psi), "phi": _state_obj(phi)},
        "outcomes": [serialize._label_to_obj(o) for o in protocol.outcomes],
        "analytic": [float(p) for p in analytic],
        "born": None,
        "max_abs_deviation": None,
        "cost_bits": int(protocol.cost_bits),
    }
    if samples > 0:
        sampled, stderr = protocols.run_sampled(protocol, psi, phi, samples, seed)
        body["sampled"] = [float(p) for p in sampled]
        body["stderr"] = [float(s) for s in stderr]
    resolved = {
        "measurement": config.get("measurement"),
        "seed": seed,
        "samples": samples,
    }
    _emit(out, _json_report("simulate", resolved, body))
    return EXIT_OK


def cmd_simulate(config: dict, out: str | None) -> int:
    name = config.get("measurement")
    if not name:
        raise ConfigError("simulate needs a 'measurement' entry")
    seed = int(config.get("seed", 0))
    samples = int(config.get("samples", 0))
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    if isinstance(name, str) and name not in _TWO_PARTY_CATALOG and name not in (
        "shift", "singlet", "blockbasis6"
    ):
        path = Path(name)
        if path.exists():
            obj = serialize.loads(path.read_text())
            if obj.get("kind") == "one_round_protocol":
                return _simulate_protocol_file(config, out, obj)

    if name == "blockbasis6":
        blocks = protocols.demo_block_basis()
        protocol = protocols.block_basis_protocol(blocks)
        povm = _block_basis_povm(blocks)
        psi = _resolve_state(config.get("psi", "haar"), 2, rng, "psi")
        phi = _resolve_state(config.get("phi", "haar"), 6, rng, "phi")
        analytic = protocols.run_analytic(protocol, psi, phi)
        order = [povm.labels.index(label) for label in protocol.outcomes]
        born_ref = qmath.born(qmath.tensor(psi, phi), povm)[order]
        sampled = stderr = None
        if samples > 0:
            sampled, stderr = protocols.run_sampled(protocol, psi, phi, samples, seed)
        resolved = {"measurement": name, "seed": seed, "samples": samples}
        states = {"psi": _state_obj(psi), "phi": _state_obj(phi)}
        cost = protocol.cost_bits
        outcomes = protocol.outcomes
    elif name == "shift":
        effects, labels = _load_measurement(name)
        sender_config = config.get("sender_config", "A")
        protocol = protocols.multi_sender_protocol(effects, sender_config, labels)
        povm = qmath.catalog_measurement("shift")
        psi1 = _resolve_state(config.get("psi", "haar"), 2, rng, "psi")
        psi2 = _resolve_state(config.get("psi2", "haar"), 2, rng, "psi2")
        phi = _resolve_state(config.get("phi", "haar"), 2, rng, "phi")
        analytic = protocol.run_analytic([psi1, psi2], phi)
        born_ref = qmath.born(qmath.tensor(psi1, psi2, phi), povm)
        sampled = stderr = None
        if samples > 0:
            sampled, stderr = protocol.run_sampled([psi1, psi2], phi, samples, seed)
        resolved = {
            "measurement": name,
            "sender_config": sender_config,
            "seed": seed,
            "samples": samples,
        }
        states = {"psi": _state_obj(psi1), "psi2": _state_obj(psi2), "phi": _state_obj(phi)}
        cost = protocol.cost_bits
        outcomes = protocol.outcomes
    else:
        effects, labels = _load_measurement(name)
        protocol = protocols.rank1_product_protocol(effects, labels)
        povm = qmath.Povm.from_effects([e.matrix() for e in effects], labels)
        dim_b = effects[0].factors[1].shape[0]
        psi = _resolve_state(config.get("psi", "haar"), effects[0].factors[0].shape[0], rng, "psi")
        phi = _resolve_state(config.get("phi", "haar"), dim_b, rng, "phi")
        analytic = protocols.run_analytic(protocol, psi, phi)
        born_ref = np.array(
            [np.trace(qmath.tensor(psi, phi) @ e.matrix()).real for e in effects]
        )
        sampled = stderr = None
        if samples > 0:
            sampled, stderr = protocols.run_sampled(protocol, psi, phi, samples, seed)
        resolved = {"measurement": name, "seed": seed, "samples": samples}
        states = {"psi": _state_obj(psi), "phi": _state_obj(phi)}
        cost = protocol.cost_bits
        outcomes = protocol.outcomes

    deviation = float(np.max(np.abs(analytic - born_ref)))
    body = {
        "states": states,
        "outcomes": [serialize._label_to_obj(o) for o in outcomes],
        "analytic": [float(p) for p in analytic],
        "born": [float(p) for p in born_ref],
        "max_abs_deviation": deviation,
        "cost_bits": int(cost),
    }
    if sampled is not None:
        body["sampled"] = [float(p) for p in sampled]
        body["stderr"] = [float(s) for s in stderr]
        sigma = [
            abs(f - a) / max(math.sqrt(a * (1 - a) / samples), 1e-12)
            for f, a in zip(sampled, analytic)
        ]
        body["max_sigma_deviation"] = float(max(sigma))
    _emit(out, _json_report("simulate", resolved, body))
    return EXIT_OK if deviation < SIMULATION_TOL else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(config: dict, out: str | None) -> int:
    name = config.get("measurement")
    if not name:
        raise ConfigError("decompose needs a 'measurement' entry")
    if name == "shift":
        raise ConfigError("decompose works on two-party measurements")
    seed = int(config.get("seed", 0))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    effects, labels = _load_measurement(name)
    psi = _resolve_state(config.get("psi", "haar"), effects[0].factors[0].shape[0], rng, "psi")
    slots = [qmath.projector(e.factors[1]) for e in effects]
    family = decompose.enumerate_extremals(slots)
    target = decompose.effective_povm(effects, psi)
    mixture = decompose.mixture_weights(target, family)
    residual = float(
        np.max(np.abs(mixture.reconstructed_weights(len(effects)) - np.asarray(target.weights)))
    )
    resolved = {"measurement": name, "seed": seed}
    body = {
        "psi": _state_obj(psi),
        "labels": [serialize._label_to_obj(l) for l in labels],
        "target_weights": [float(w) for w in target.weights],
        "family": [
            {"support": list(e.support), "weights": [float(w) for w in e.weights]}
            for e in family
        ],
        "decomposition": serialize.decomposition_to_obj(mixture),
        "residual": residual,
        "cost_bits": protocols.bit_cost(len(family)),
    }
    _emit(out, _json_report("decompose", resolved, body))
    return EXIT_OK if residual < 1e-9 else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# depolarize
# ---------------------------------------------------------------------------

def cmd_depolarize(config: dict, out: str | None) -> int:
    seed = int(config.get("seed", 0))
    samples = int(config.get("samples", 10**6))
    if "sweep_max_bits" in config:
        bit_counts = list(range(1, int(config["sweep_max_bits"]) + 1))
    else:
        bit_counts = [int(m) for m in config.get("bit_counts", [1, 2, 3])]
    if not bit_counts or min(bit_counts) < 1:
        raise ConfigError("bit counts must be positive")
    resolved = {"seed": seed, "samples": samples, "bit_counts": bit_counts}
    rows = []
    child_seeds = np.random.SeedSequence(seed).spawn(len(bit_counts))
    for child, m in zip(child_seeds, bit_counts):
        row_seed = int(child.generate_state(1)[0])
        name = depolarize.REFERENCE_CODEBOOKS.get(m)
        c = depolarize.codebook(name) if name else depolarize.codebook(m)
        eta, se = depolarize.estimate_eta(c, samples, row_seed)
        reference = depolarize.ETA_REFERENCE.get(m, "")
        sigma = (
            abs(eta - reference) / se if isinstance(reference, float) and se > 0 else ""
        )
        rows.append([m, c.name, eta, se, samples, row_seed, reference, sigma])
    header = ["bits", "codebook", "eta_hat", "stderr", "n", "seed", "reference_eta", "sigma_from_reference"]
    _emit(out, _csv_document("depolarize", resolved, header, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

def _build_protocol(spec: dict):
    """The protocol, its flavor, and the spec that regenerates it."""
    kind = spec.get("kind")
    if kind == "random_three_round":
        return (
            multiround.random_three_round(
                seed=int(spec.get("seed", 0)),
                n_atoms=int(spec.get("n_atoms", 2)),
                n_m1=int(spec.get("n_m1", 2)),
                n_m2=int(spec.get("n_m2", 2)),
                n_m3=int(spec.get("n_m3", 2)),
                n_outcomes=int(spec.get("n_outcomes", 2)),
            ),
            "three_round",
            spec,
        )
    if kind == "random_odd_round":
        return (
            multiround.random_odd_round(
                seed=int(spec.get("seed", 0)),
                depth=int(spec.get("depth", 5)),
                n_atoms=int(spec.get("n_atoms", 2)),
                alphabet=int(spec.get("alphabet", 2)),
                n_outcomes=int(spec.get("n_outcomes", 2)),
            ),
            "odd_round",
            spec,
        )
    if kind == "file":
        obj = _load_config(str(spec.get("path")))
        loaded = obj.get("kind")
        if loaded == "three_round_protocol":
            return serialize.three_round_protocol_from_obj(obj), "three_round", obj
        if loaded in ("random_three_round", "random_odd_round"):
            return _build_protocol(obj)
        raise ConfigError(f"protocol file {spec['path']} holds kind {loaded!r}, not a protocol")
    raise ConfigError(f"unknown protocol kind {kind!r}")


def cmd_collapse(config: dict, out: str | None) -> int:
    spec = config.get("protocol")
    if not isinstance(spec, dict):
        raise ConfigError("collapse needs a 'protocol' object")
    seed = int(config.get("seed", 0))
    n_checks = int(config.get("check_states", 10))
    protocol, flavor, source = _build_protocol(spec)
    tolerance = float(config.get("check_tolerance", 1e-12 if flavor == "three_round" else 1e-10))

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    grid = [qmath.projector(qmath.haar_ket(2, rng)) for _ in range(n_checks)]
    probes = [qmath.projector(qmath.haar_ket(2, rng)) for _ in range(n_checks)]

    collapsed = multiround.collapse_odd_rounds(protocol)
    if flavor == "three_round":
        (m1, m3), (m2,) = protocol.sender_alphabets, protocol.receiver_alphabets
        sizes = {"alphabets": [len(m1), len(m2), len(m3)]}
    else:
        sizes = {
            "stage_alphabet_sizes": [list(s) for s in collapsed.meta["stage_alphabet_sizes"]]
        }

    deviation = 0.0
    for psi, phi in zip(grid, probes):
        direct = multiround.run_odd_round(protocol, psi, phi)
        gap = np.max(np.abs(protocols.run_analytic(collapsed, psi, phi) - direct))
        deviation = max(deviation, float(gap))

    resolved = {
        "protocol": spec,
        "seed": seed,
        "check_states": n_checks,
        "check_tolerance": tolerance,
    }
    body = {
        "flavor": flavor,
        "collapsed_messages": collapsed.n_messages,
        "collapsed_cost_bits": collapsed.cost_bits,
        "max_deviation": deviation,
        **sizes,
    }
    if out:
        stem = Path(out)
        collapsed_path = stem.with_suffix(".collapsed.json")
        serializable = serialize.one_round_protocol_to_obj(collapsed, grid)
        _write_text(str(collapsed_path), serialize.dumps(serializable))
        body["collapsed_file"] = collapsed_path.name
        original_path = stem.with_suffix(".original.json")
        if flavor == "three_round":
            _write_text(
                str(original_path),
                serialize.dumps(serialize.three_round_protocol_to_obj(protocol, grid)),
            )
        else:
            # Deep protocols are regenerated from their descriptor.
            _write_text(str(original_path), serialize.dumps(source))
        body["original_file"] = original_path.name
    _emit(out, _json_report("collapse", resolved, body))
    return EXIT_OK if deviation < tolerance else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# nogo
# ---------------------------------------------------------------------------

def cmd_nogo(config: dict, out: str | None) -> int:
    cases = config.get("cases")
    if not cases:
        raise ConfigError("nogo needs a non-empty 'cases' list")
    seed = int(config.get("seed", 0))
    budget = int(config.get("budget", 320))
    starts = int(config.get("starts", 8))
    grid_seed = int(config.get("grid_seed", 0xF00D))
    resolved = {
        "cases": cases,
        "seed": seed,
        "budget": budget,
        "starts": starts,
        "grid_seed": grid_seed,
    }
    rows = []
    strategies = []
    all_exact = True
    child_seeds = np.random.SeedSequence(seed).spawn(len(cases))
    for child, case in zip(child_seeds, cases):
        try:
            m = int(case["messages"])
            k = int(case["atoms"])
            n = int(case["states"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad nogo case {case!r}") from exc
        case_seed = int(child.generate_state(1)[0])
        family = nogo.nested_grid(n, seed=grid_seed)
        report = nogo.optimize(
            family, n_messages=m, n_atoms=k, seed=case_seed, budget=budget, starts=starts
        )
        exact = report.best_error < nogo.EXACTNESS_TOL
        all_exact = all_exact and exact
        verdict = None
        if exact:
            verdict = nogo.counting_bound(report.strategy, family)
        rows.append(
            [m, k, n, report.best_error, case_seed, budget,
             "exact" if exact else "floor",
             "" if verdict is None else str(verdict.consistent)]
        )
        strategies.append(
            {
                "messages": m,
                "atoms": k,
                "states": n,
                "best_error": report.best_error,
                "atom_probs": [float(v) for v in report.strategy.atom_probs],
                "encoder": report.strategy.encoder.tolist(),
                "effect_weights": report.strategy.effect_weights.tolist(),
                "effect_axes": report.strategy.effect_axes.tolist(),
            }
        )
    header = ["messages", "atoms", "states", "best_error", "seed", "budget", "status", "counting_consistent"]
    _emit(out, _csv_document("nogo", resolved, header, rows))
    if out:
        strategy_path = Path(out).with_suffix(".strategies.json")
        _write_text(
            str(strategy_path),
            _json_report("nogo-strategies", resolved, {"strategies": strategies}),
        )
    return EXIT_OK if all_exact else EXIT_FLOOR


# ---------------------------------------------------------------------------
# rac
# ---------------------------------------------------------------------------

def cmd_rac(config: dict, out: str | None) -> int:
    seed = int(config.get("seed", 0))
    n_atoms = int(config.get("one_bit_atoms", 8))
    resolved = {"seed": seed, "one_bit_atoms": n_atoms}
    classical_best, achievers = protocols.rac_classical_best()
    one_bit, detail = protocols.rac_one_bit_bound(n_atoms)
    simulator = protocols.twist_simulator_protocol()
    body = {
        "classical_best": {
            "fraction": str(classical_best),
            "value": float(classical_best),
            "achievers": len(achievers),
        },
        "qubit_success": protocols.rac_qubit_success(),
        "born_oracle_success": protocols.rac_born_oracle_success(),
        "one_bit_bound": {"fraction": str(one_bit), "value": float(one_bit)},
        "two_bit_simulator": {
            "cost_bits": simulator.cost_bits,
            "success": protocols.rac_success_via_protocol(simulator),
        },
    }
    _emit(out, _json_report("rac", resolved, body))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "decompose": cmd_decompose,
    "depolarize": cmd_depolarize,
    "collapse": cmd_collapse,
    "nogo": cmd_nogo,
    "rac": cmd_rac,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchansim",
        description="Classical simulation protocols for qubit channels",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--samples", type=int, help="override the config sample count")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.samples is not None:
            config["samples"] = args.samples
        return _COMMANDS[args.command](config, args.out)
    except (ConfigError, serialize.SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (
        qmath.QmathError,
        protocols.ProtocolError,
        decompose.DecompositionInfeasibleError,
        depolarize.DepolarizeError,
        nogo.NogoError,
        ValueError,
    ) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
