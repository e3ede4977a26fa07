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

    def reject_constant(name: str):
        raise ConfigError(f"config {path} holds {name}, which is not a JSON number")

    try:
        obj = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config document must be a JSON object")
    return obj


def _write_text(path: str, chunks) -> None:
    """Write an iterable of strings, in turn, to a temporary file and then move it onto ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    # mkstemp creates the file with mode 0600; give it the mode a plain open would.
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(chunks)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit(path: str | None, text: str) -> None:
    if path:
        _write_text(path, [text])
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


def _number(value, kind: type, what: str):
    # A JSON string such as "7" is not a number, and a bool is not one either.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        article = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {article}, got {value!r}")
    return kind(value)


def _integer(value, what: str, minimum: int | None = None) -> int:
    value = _number(value, int, what)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {value}")
    return value


def _int_entry(config: dict, key: str, default: int | None, minimum: int | None = None) -> int:
    return _integer(config.get(key, default), key, minimum)


def _resolve_state(spec, dim: int, rng: np.random.Generator, what: str) -> np.ndarray:
    """A density matrix from 'haar', a Bloch triple (qubits), or an amplitude list."""
    if spec == "haar" or spec is None:
        return qmath.projector(qmath.haar_ket(dim, rng))
    if _is_amplitude_list(spec) and len(spec) != dim:
        raise ConfigError(f"{what} has dimension {len(spec)}, expected {dim}")
    try:
        if _is_amplitude_list(spec):
            return qmath.projector(qmath.ket(*serialize.ket_from_obj(spec)))
        if dim == 2 and np.shape(spec) == (3,):
            return qmath.bloch_to_density([_number(v, float, f"{what} entry") for v in spec])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} is not a valid state: {exc}") from exc
    raise ConfigError(f"{what} must be 'haar', a Bloch triple, or [re, im] amplitudes")


def _is_amplitude_list(spec) -> bool:
    return (
        isinstance(spec, (list, tuple))
        and len(spec) > 0
        and all(isinstance(x, (list, tuple)) and len(x) == 2 for x in spec)
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_TWO_PARTY_CATALOG = ("comp", "twistA", "twistB", "tb")


def _measurement_name(config: dict, command: str) -> str:
    name = config.get("measurement")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{command} needs a 'measurement' name or file path")
    return name


def _measurement_file(spec: str) -> dict:
    if not Path(spec).exists():
        raise ConfigError(f"unknown measurement {spec!r}")
    return _load_config(spec)


def _load_measurement(spec: str, obj: dict | None = None):
    """Product effects and labels for a catalog name or a product_povm file, read as ``obj`` if given."""
    if spec in _TWO_PARTY_CATALOG or spec == "shift":
        return qmath.catalog_product_effects(spec), qmath.catalog_labels(spec)
    if spec == "singlet":
        raise ConfigError(
            "the singlet measurement has entangled effects and no product-form simulator"
        )
    effects, labels = serialize.product_povm_from_obj(_measurement_file(spec) if obj is None else obj)
    if not effects or any(e.n_parties != 2 for e in effects):
        raise ConfigError(f"measurement {spec} needs two-party product effects")
    dim = max(e.factors[1].shape[0] for e in effects)
    if len(effects) > decompose._MAX_PROJECTORS or dim > decompose._MAX_DIM:
        raise ConfigError(
            f"measurement {spec} has {len(effects)} effects on a receiver of dimension {dim}; at most"
            f" {decompose._MAX_PROJECTORS} effects and dimension {decompose._MAX_DIM} are supported"
        )
    return effects, labels


def _simulation(name: str, config: dict):
    """What ``simulate`` runs for one measurement.

    Returns the protocol; the sender states as {config key: (dimension,
    default spec)}, in the order they are drawn; the receiver dimension; the
    joint effects with their labels, which ``cmd_simulate`` sums per label
    for the Born reference, or None for a protocol file, which has none; and
    the resolved config keys the measurement adds.  A
    protocol file runs only on its declared grid: its sender state defaults
    to the first grid point, and ``cmd_simulate`` rejects one off the grid.
    """
    if name == "blockbasis6":
        blocks = protocols.demo_block_basis()
        protocol = protocols.block_basis_protocol(blocks)
        effects = [qmath.projector(v) for v in protocols.block_basis_vectors(blocks)]
        return protocol, {"psi": (2, "haar")}, 6, (effects, protocol.outcomes), {}
    obj = None
    if name not in _TWO_PARTY_CATALOG and name not in ("shift", "singlet"):
        obj = _measurement_file(name)
        if obj.get("kind") == "one_round_protocol":
            protocol = serialize.one_round_protocol_from_obj(obj)
            grid = obj["encoder"]["psi_grid"]
            return protocol, {"psi": (2, grid[0])}, protocol.effects.shape[-1], None, {}
    effects, labels = _load_measurement(name, obj)
    reference = ([e.matrix() for e in effects], labels)
    if name == "shift":
        sender_config = config.get("sender_config", "A")
        if sender_config not in ("A", "B"):
            raise ConfigError(f"sender_config must be 'A' or 'B', got {sender_config!r}")
        protocol = protocols.multi_sender_protocol(effects, sender_config, labels)
        senders = {"psi": (2, "haar"), "psi2": (2, "haar")}
        return protocol, senders, 2, reference, {"sender_config": sender_config}
    protocol = protocols.rank1_product_protocol(effects, labels)
    senders = {"psi": (effects[0].factors[0].shape[0], "haar")}
    return protocol, senders, effects[0].factors[1].shape[0], reference, {}


def _check_on_grid(grid_bloch, states, path: str) -> None:
    """Reject sender states off a protocol file's grid, by the lookup rule ``serialize`` applies."""
    for psi in states:
        try:
            serialize._grid_lookup(np.asarray(grid_bloch, dtype=float), psi)
        except protocols.ProtocolError as exc:
            raise ConfigError(f"{exc}: protocol file {path} runs only on its own grid") from exc


def cmd_simulate(config: dict, out: str | None) -> int:
    name = _measurement_name(config, "simulate")
    seed = _int_entry(config, "seed", 0, minimum=0)
    samples = _int_entry(config, "samples", 0, minimum=0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    protocol, senders, dim_b, reference, extra = _simulation(name, config)
    states = {}
    for key, (dim, default) in senders.items():
        spec = config.get(key)
        states[key] = _resolve_state(default if spec in (None, "haar") else spec, dim, rng, key)
    phi = states["phi"] = _resolve_state(config.get("phi", "haar"), dim_b, rng, "phi")
    sender_states = [states[key] for key in senders]
    psi = sender_states[0] if len(sender_states) == 1 else sender_states
    if "psi_grid" in protocol.meta:
        _check_on_grid(protocol.meta["psi_grid"], sender_states, name)

    analytic = protocols.run_analytic(protocol, psi, phi)
    body = {
        "states": {key: serialize.matrix_to_obj(rho) for key, rho in states.items()},
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
    if reference is not None:
        effects, labels = reference
        joint_state = qmath.tensor(*states.values())
        slot_born = np.array([np.trace(joint_state @ e).real for e in effects])
        _, order, starts = protocols.label_groups(labels, len(effects))
        born_ref = np.add.reduceat(slot_born[order], starts)
        body["born"] = [float(p) for p in born_ref]
        body["max_abs_deviation"] = float(np.max(np.abs(analytic - born_ref)))
        if samples > 0:
            sigma = [
                abs(f - a) / max(math.sqrt(a * (1 - a) / samples), 1e-12)
                for f, a in zip(sampled, analytic)
            ]
            body["max_sigma_deviation"] = float(max(sigma))
    resolved = {"measurement": name, **extra, "seed": seed, "samples": samples}
    _emit(out, _json_report("simulate", resolved, body))
    deviation = body["max_abs_deviation"]
    return EXIT_OK if deviation is None or deviation < SIMULATION_TOL else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(config: dict, out: str | None) -> int:
    name = _measurement_name(config, "decompose")
    if name == "shift":
        raise ConfigError("decompose works on two-party measurements")
    seed = _int_entry(config, "seed", 0, minimum=0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    effects, labels = _load_measurement(name)
    psi = _resolve_state(config.get("psi", "haar"), effects[0].factors[0].shape[0], rng, "psi")
    slot_map = decompose.slot_weight_map(effects)
    system = decompose.message_system(slot_map)
    family = system.extremals
    weights = decompose.slot_weights(slot_map, psi)
    mu = decompose.solve_mixture(system, weights)
    # Summed pattern by pattern: a matrix product rounds differently and changes the reported bits.
    reconstructed = sum(m * ext.full_weights(len(effects)) for m, ext in zip(mu, family))
    residual = float(np.max(np.abs(reconstructed - weights)))
    resolved = {"measurement": name, "seed": seed}
    body = {
        "psi": serialize.matrix_to_obj(psi),
        "labels": [serialize._label_to_obj(l) for l in labels],
        "target_weights": [float(w) for w in weights],
        "family": [
            {"support": list(e.support), "weights": [float(w) for w in e.weights]}
            for e in family
        ],
        "decomposition": serialize.decomposition_to_obj(mu, family),
        "residual": residual,
        "cost_bits": protocols.bit_cost(len(family)),
    }
    _emit(out, _json_report("decompose", resolved, body))
    return EXIT_OK if residual < decompose.RESIDUAL_TOL else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# depolarize
# ---------------------------------------------------------------------------

def cmd_depolarize(config: dict, out: str | None) -> int:
    seed = _int_entry(config, "seed", 0, minimum=0)
    samples = _int_entry(config, "samples", 10**6, minimum=1)
    if "sweep_max_bits" in config:
        top = _int_entry(config, "sweep_max_bits", 0)
        # A top above MAX_BITS is refused below, before a list of its length is built.
        bit_counts = list(range(1, top + 1)) if top <= depolarize.MAX_BITS else [top]
    else:
        bit_counts = config.get("bit_counts", [1, 2, 3])
        if not isinstance(bit_counts, list):
            raise ConfigError(f"bit_counts must be a list, got {bit_counts!r}")
        bit_counts = [_integer(m, "bit_counts entry") for m in bit_counts]
    if not bit_counts or min(bit_counts) < 1:
        raise ConfigError("bit counts must be positive")
    if max(bit_counts) > depolarize.MAX_BITS:
        raise ConfigError(f"bit counts above {depolarize.MAX_BITS} are not supported, got {max(bit_counts)}")
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

#: The most encoder-table entries a collapse with ``--out`` keeps for the
#: collapsed file: atoms x check states x collapsed messages floats, 512 KiB
#: per check state at depth 7 (2 x 32,768).  Without ``--out`` no table is kept.
MAX_CHECK_TABLE_ENTRIES = 2**24

#: The integer entries of each generator spec, with their defaults; the kind
#: names the ``multiround`` function that builds the protocol.  Sizes are at
#: least 1 and the seed at least 0; the generator itself checks the depth.
_GENERATORS = {
    "random_three_round": {
        "seed": 0, "n_atoms": 2, "n_m1": 2, "n_m2": 2, "n_m3": 2, "n_outcomes": 2,
    },
    "random_odd_round": {"seed": 0, "depth": 5, "n_atoms": 2, "alphabet": 2, "n_outcomes": 2},
}


def _build_protocol(spec: dict):
    """The protocol, its flavor, and the spec that regenerates it."""
    kind = spec.get("kind")
    if kind in _GENERATORS:
        entries = {
            key: _int_entry(spec, key, value, minimum=0 if key == "seed" else 1)
            for key, value in _GENERATORS[kind].items()
        }
        try:
            protocol = getattr(multiround, kind)(**entries)
        except protocols.ProtocolError as exc:
            raise ConfigError(f"{kind} spec: {exc}") from exc
        return protocol, kind.removeprefix("random_"), spec
    if kind == "file":
        obj = _load_config(str(spec.get("path")))
        loaded = obj.get("kind")
        if loaded == "three_round_protocol":
            protocol = serialize.three_round_protocol_from_obj(obj)
            try:
                multiround.collapsed_message_count(
                    [len(a) for a in protocol.sender_alphabets], [len(a) for a in protocol.receiver_alphabets]
                )
            except protocols.ProtocolError as exc:
                raise ConfigError(str(exc)) from exc
            return protocol, "three_round", obj
        if loaded in _GENERATORS:
            return _build_protocol(obj)
        raise ConfigError(f"protocol file {spec['path']} holds kind {loaded!r}, not a protocol")
    raise ConfigError(f"unknown protocol kind {kind!r}")


def cmd_collapse(config: dict, out: str | None) -> int:
    spec = config.get("protocol")
    if not isinstance(spec, dict):
        raise ConfigError("collapse needs a 'protocol' object")
    seed = _int_entry(config, "seed", 0, minimum=0)
    n_checks = _int_entry(config, "check_states", 10, minimum=1)
    protocol, flavor, source = _build_protocol(spec)
    messages = multiround.collapsed_message_count(
        [len(a) for a in protocol.sender_alphabets], [len(a) for a in protocol.receiver_alphabets]
    )
    if out and len(protocol.randomness) * n_checks * messages > MAX_CHECK_TABLE_ENTRIES:
        raise ConfigError(
            f"{n_checks} check states of {len(protocol.randomness)} atoms x {messages} collapsed messages "
            f"exceed {MAX_CHECK_TABLE_ENTRIES} encoder-table entries kept for --out"
        )
    default_tolerance = 1e-12 if flavor == "three_round" else 1e-10
    raw_tolerance = config.get("check_tolerance", default_tolerance)
    tolerance = _number(raw_tolerance, float, "check_tolerance")
    if not 0.0 < tolerance < math.inf:
        raise ConfigError(f"check_tolerance must be a finite number above 0, got {raw_tolerance!r}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    grid = [qmath.projector(qmath.haar_ket(2, rng)) for _ in range(n_checks)]
    probes = [qmath.projector(qmath.haar_ket(2, rng)) for _ in range(n_checks)]
    if source.get("kind") == "three_round_protocol":
        _check_on_grid(source["psi_grid"], grid, spec["path"])

    collapsed = multiround.collapse_odd_rounds(protocol)
    if flavor == "three_round":
        (m1, m3), (m2,) = protocol.sender_alphabets, protocol.receiver_alphabets
        sizes = {"alphabets": [len(m1), len(m2), len(m3)]}
    else:
        sizes = {
            "stage_alphabet_sizes": [list(s) for s in collapsed.meta["stage_alphabet_sizes"]]
        }

    # One encoder evaluation per grid state serves both the file and the check:
    # run_analytic reuses the table that encoder_matrix keeps for the last state,
    # and the tables are kept only when --out writes them.
    # A seeded protocol's coin rounds keep the tables of a whole chunk of states,
    # so the direct walk over the chunk reads the coins the encoders evaluated.
    tables, gaps = [], []
    for start in range(0, n_checks, multiround.COIN_STATES_KEPT):
        chunk = slice(start, start + multiround.COIN_STATES_KEPT)
        analytic = []
        for psi, phi in zip(grid[chunk], probes[chunk]):
            table = collapsed.encoder_matrix(psi)
            if out:
                tables.append(table)
            analytic.append(protocols.run_analytic(collapsed, psi, phi))
        direct = multiround.run_odd_rounds(protocol, grid[chunk], probes[chunk])
        gaps.extend(np.max(np.abs(np.array(analytic) - direct), axis=1))
    # np.max keeps a NaN gap, where max() would drop it, and a NaN fails the check below.
    deviation = float(np.max(gaps))

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
        # JSON has no NaN or Infinity: a non-finite deviation is written as null (and fails the check).
        "max_deviation": deviation if math.isfinite(deviation) else None,
        **sizes,
    }
    if out:
        stem = Path(out)
        collapsed_path = stem.with_suffix(".collapsed.json")
        _write_text(str(collapsed_path), serialize.one_round_protocol_chunks(collapsed, grid, tables))
        body["collapsed_file"] = collapsed_path.name
        original_path = stem.with_suffix(".original.json")
        if flavor == "three_round":
            _write_text(
                str(original_path),
                [serialize.dumps(serialize.three_round_protocol_to_obj(protocol, grid))],
            )
        else:
            # Deep protocols are regenerated from their descriptor.
            _write_text(str(original_path), [serialize.dumps(source)])
        body["original_file"] = original_path.name
    _emit(out, _json_report("collapse", resolved, body))
    return EXIT_OK if deviation < tolerance else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# nogo
# ---------------------------------------------------------------------------

def cmd_nogo(config: dict, out: str | None) -> int:
    cases = config.get("cases")
    if not isinstance(cases, list) or not cases or not all(isinstance(c, dict) for c in cases):
        raise ConfigError(f"nogo needs a non-empty 'cases' list of objects, got {cases!r}")
    sizes = [
        [_int_entry(case, key, None, minimum=1) for key in ("messages", "atoms", "states")]
        for case in cases
    ]
    for m, k, n in sizes:
        try:
            nogo.check_sizes(m, k, n)
        except nogo.NogoError as exc:
            raise ConfigError(f"nogo case (messages {m}, atoms {k}, states {n}): {exc}") from exc
    seed = _int_entry(config, "seed", 0, minimum=0)
    budget = _int_entry(config, "budget", 320, minimum=1)
    starts = _int_entry(config, "starts", 8, minimum=1)
    grid_seed = _int_entry(config, "grid_seed", 0xF00D, minimum=0)
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
    for child, (m, k, n) in zip(child_seeds, sizes):
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
            [_json_report("nogo-strategies", resolved, {"strategies": strategies})],
        )
    return EXIT_OK if all_exact else EXIT_FLOOR


# ---------------------------------------------------------------------------
# rac
# ---------------------------------------------------------------------------

def cmd_rac(config: dict, out: str | None) -> int:
    seed = _int_entry(config, "seed", 0, minimum=0)
    n_atoms = _int_entry(config, "one_bit_atoms", 8, minimum=1)
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
    except ValueError as exc:  # every qchansim invariant error subclasses ValueError
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
