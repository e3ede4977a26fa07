import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import count_coin_evaluations, count_solves, random_product_povm

import qchansim
from qchansim import cli, multiround, protocols, qmath, serialize


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def tb_product_povm(labels):
    """The twisted-butterfly measurement as a product_povm file text, with the given labels."""
    obj = serialize.product_povm_to_obj(qmath.catalog_product_effects("tb"))
    obj["labels"] = labels
    return json.dumps(obj)


# Twisted butterfly as a separable measurement: terms {0}, {1, 2} and {3, 4} are three outcomes.
TB_GROUPED_POVM = tb_product_povm(["1", "2", "2", "3", "3"])
SHIFT_PRODUCT_POVM = json.dumps(
    serialize.product_povm_to_obj(
        qmath.catalog_product_effects("shift"), qmath.catalog_labels("shift")
    )
)


def poison_first_number(nested: list, value: float) -> None:
    """Replace the first number of a nested list with ``value``."""
    while isinstance(nested[0], list):
        nested = nested[0]
    nested[0] = value


def product_povm_file(tmp_path, joint):
    """Write a two-party product measurement as a product_povm file and return its path."""
    path = tmp_path / "povm.json"
    path.write_text(serialize.dumps(serialize.product_povm_to_obj(joint)))
    return str(path)


# Well-formed measurements beyond what the extremal enumeration takes: 18 effects
# (each (trine, trine) term split in two halves), and a receiver of dimension 5.
EIGHTEEN_EFFECTS = serialize.dumps(serialize.product_povm_to_obj([
    qmath.ProductRank1Effect(weight=e.weight / 2, factors=e.factors)
    for e in random_product_povm(np.random.default_rng(0), ("trine", "trine"))
    for _ in range(2)
]))
QUBIT_BY_DIM5 = serialize.dumps(serialize.product_povm_to_obj([
    qmath.ProductRank1Effect(weight=1.0, factors=(a, b))
    for a in np.eye(2, dtype=complex)
    for b in np.eye(5, dtype=complex)
]))


class TestSimulate:
    def test_twisted_butterfly_report(self, tmp_path):
        config = write_config(
            tmp_path, "sim.json", {"measurement": "tb", "seed": 7, "samples": 20000}
        )
        out = tmp_path / "report.json"
        assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["artifact_version"]
        assert report["config"]["seed"] == 7
        assert report["cost_bits"] == 2
        assert report["max_abs_deviation"] < 1e-10
        assert len(report["sampled"]) == 5
        assert report["max_sigma_deviation"] < 6.0

    def test_comp_costs_one_bit(self, tmp_path):
        config = write_config(tmp_path, "sim.json", {"measurement": "comp", "seed": 1})
        out = tmp_path / "report.json"
        assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["cost_bits"] == 1

    def test_block_basis_costs_three_bits(self, tmp_path):
        config = write_config(tmp_path, "sim.json", {"measurement": "blockbasis6", "seed": 3})
        out = tmp_path / "report.json"
        assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["cost_bits"] == 3
        assert report["max_abs_deviation"] < 1e-10

    def test_shift_configs(self, tmp_path):
        costs = {}
        for sender_config in ("A", "B"):
            config = write_config(
                tmp_path,
                f"shift{sender_config}.json",
                {"measurement": "shift", "sender_config": sender_config, "seed": 5},
            )
            out = tmp_path / f"report{sender_config}.json"
            assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["max_abs_deviation"] < 1e-10
            costs[sender_config] = report["cost_bits"]
        assert costs["B"] >= costs["A"]

    def test_separable_measurement_sums_its_terms_per_label(self, tmp_path):
        measurement = tmp_path / "tb-grouped.json"
        measurement.write_text(TB_GROUPED_POVM)
        config = write_config(tmp_path, "sim.json", {"measurement": str(measurement), "samples": 1000})
        out = tmp_path / "report.json"
        assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["outcomes"] == ["1", "2", "3"]
        assert len(report["analytic"]) == len(report["sampled"]) == 3
        state = qmath.tensor(*(serialize.matrix_from_obj(report["states"][k]) for k in ("psi", "phi")))
        terms = [np.trace(state @ e.matrix()).real for e in qmath.catalog_product_effects("tb")]
        per_label = [terms[0], terms[1] + terms[2], terms[3] + terms[4]]
        np.testing.assert_allclose(report["born"], per_label, rtol=0, atol=1e-12)
        assert report["max_abs_deviation"] < cli.SIMULATION_TOL

    def test_unknown_measurement_is_malformed_input(self, tmp_path):
        config = write_config(tmp_path, "sim.json", {"measurement": "nope"})
        assert run_cli(["simulate", "--config", config]) == 3

    def test_singlet_is_rejected(self, tmp_path):
        config = write_config(tmp_path, "sim.json", {"measurement": "singlet"})
        assert run_cli(["simulate", "--config", config]) == 3

    def test_analytic_and_sampled_runs_share_one_mixture_solve(self, tmp_path, monkeypatch):
        calls = count_solves(monkeypatch)
        config = write_config(tmp_path, "sim.json", {"measurement": "tb", "seed": 2, "samples": 1000})
        assert run_cli(["simulate", "--config", config, "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path, "sim.json", {"measurement": "tb", "seed": 11, "samples": 5000}
        )
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(["simulate", "--config", config, "--out", str(out1)]) == 0
        assert run_cli(["simulate", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestDecompose:
    def test_twisted_butterfly_family(self, tmp_path):
        config = write_config(tmp_path, "dec.json", {"measurement": "tb", "psi": [0, 0, 1]})
        out = tmp_path / "dec_report.json"
        assert run_cli(["decompose", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["family"]) == 4
        assert report["residual"] < 1e-9
        assert report["cost_bits"] == 2
        mus = [entry["mu"] for entry in report["decomposition"]["mixture"]]
        np.testing.assert_allclose(mus, [0.5, 0.5, 0.0, 0.0], atol=1e-9)

    def test_separable_measurement_reports_one_label_per_term(self, tmp_path):
        measurement = tmp_path / "tb-grouped.json"
        measurement.write_text(TB_GROUPED_POVM)
        config = write_config(tmp_path, "dec.json", {"measurement": str(measurement), "psi": [0, 0, 1]})
        out = tmp_path / "dec_report.json"
        assert run_cli(["decompose", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["labels"] == ["1", "2", "2", "3", "3"]
        assert len(report["target_weights"]) == 5

    @pytest.mark.parametrize("measurement", ["comp", ("trine", "trine")], ids=["comp", "trine-trine"])
    def test_decompose_reports_the_alphabet_simulate_sends(self, tmp_path, measurement):
        if not isinstance(measurement, str):
            joint = random_product_povm(np.random.default_rng(1), measurement)
            measurement = product_povm_file(tmp_path, joint)
        costs = {}
        for command in ("decompose", "simulate"):
            config = write_config(tmp_path, f"{command}.json", {"measurement": measurement})
            out = tmp_path / f"{command}_report.json"
            assert run_cli([command, "--config", config, "--out", str(out)]) == 0
            costs[command] = json.loads(out.read_text())["cost_bits"]
        assert costs["decompose"] == costs["simulate"]


class TestDepolarize:
    def test_reference_rows(self, tmp_path):
        config = write_config(
            tmp_path, "dep.json", {"bit_counts": [1, 2, 3], "samples": 200000, "seed": 9}
        )
        out = tmp_path / "dep.csv"
        assert run_cli(["depolarize", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# qchansim")
        header = lines[1].split(",")
        assert header == [
            "bits", "codebook", "eta_hat", "stderr", "n", "seed",
            "reference_eta", "sigma_from_reference",
        ]
        rows = [line.split(",") for line in lines[2:]]
        assert [r[1] for r in rows] == ["antipodal", "tetrahedron", "cube"]
        eta_1 = float(rows[0][2])
        assert abs(eta_1 - 0.5) < 0.01

    def test_sweep_and_determinism(self, tmp_path):
        config = write_config(
            tmp_path, "dep.json", {"sweep_max_bits": 4, "samples": 50000, "seed": 2}
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(["depolarize", "--config", config, "--out", str(out1)]) == 0
        assert run_cli(["depolarize", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().strip().splitlines()) == 2 + 4


class TestCollapse:
    def test_random_three_round(self, tmp_path):
        config = write_config(
            tmp_path,
            "col.json",
            {"protocol": {"kind": "random_three_round", "seed": 21}, "seed": 4},
        )
        out = tmp_path / "collapse.json"
        assert run_cli(["collapse", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_deviation"] < 1e-12
        assert (tmp_path / "collapse.collapsed.json").exists()
        assert (tmp_path / "collapse.original.json").exists()

    def test_five_round_recursion_report(self, tmp_path):
        config = write_config(
            tmp_path,
            "col.json",
            {"protocol": {"kind": "random_odd_round", "seed": 23, "depth": 5},
             "check_states": 4, "seed": 6},
        )
        out = tmp_path / "collapse5.json"
        assert run_cli(["collapse", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_deviation"] < 1e-10
        assert report["stage_alphabet_sizes"] == [[2, 2, 2], [2, 8]]

    def test_each_coin_table_is_evaluated_once_per_check_state(self, tmp_path, monkeypatch):
        # The collapsed encoder tabulates every coin on a check state, and the
        # direct run that follows reads the tables each coin round kept.
        calls = count_coin_evaluations(monkeypatch)
        config = write_config(
            tmp_path,
            "col.json",
            {"protocol": {"kind": "random_odd_round", "seed": 23, "depth": 5}, "check_states": 4},
        )
        assert run_cli(["collapse", "--config", config, "--out", str(tmp_path / "c.json")]) == 0
        assert len(calls) == 3 * 4
        assert len({(id(coin_round), psi.tobytes()) for coin_round, psi in calls}) == len(calls)

    def test_check_states_past_one_chunk_are_evaluated_once_each(self, tmp_path, monkeypatch):
        # 70 states run as chunks of 64 and 6; each coin round keeps the tables of 64 states.
        calls = count_coin_evaluations(monkeypatch)
        direct = multiround.run_odd_rounds
        chunks = []

        def counting(protocol, psis, phis):
            chunks.append(len(psis))
            return direct(protocol, psis, phis)

        monkeypatch.setattr(multiround, "run_odd_rounds", counting)
        config = write_config(
            tmp_path,
            "col.json",
            {"protocol": {"kind": "random_odd_round", "seed": 23, "depth": 5}, "check_states": 70},
        )
        assert run_cli(["collapse", "--config", config]) == 0
        assert chunks == [64, 6]
        assert len(calls) == 3 * 70
        assert len({(id(coin_round), psi.tobytes()) for coin_round, psi in calls}) == len(calls)

    def test_an_altered_handed_kraus_table_fails_the_check(self, tmp_path, capsys, monkeypatch):
        # The collapse reads the tables the generator hands over; the direct walk calls the instruments.
        generate = multiround.random_three_round

        def altered(*args, **kwargs):
            protocol = generate(*args, **kwargs)
            kraus = protocol.tables.kraus[0].copy()
            kraus[0, 0] = kraus[0, 0, ::-1]  # atom 0 after message 0 swaps its two replies
            object.__setattr__(protocol, "tables", dataclasses.replace(protocol.tables, kraus=(kraus,)))
            return protocol

        monkeypatch.setattr(multiround, "random_three_round", altered)
        config = write_config(tmp_path, "col.json", {"protocol": {"kind": "random_three_round", "seed": 21}})
        assert run_cli(["collapse", "--config", config]) == 2
        assert json.loads(capsys.readouterr().out)["max_deviation"] > 1e-6

    def test_seven_round_report_on_stdout(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "col.json",
            {"protocol": {"kind": "random_odd_round", "depth": 7}, "check_states": 3},
        )
        assert run_cli(["collapse", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["collapsed_messages"] == 32768
        assert report["collapsed_cost_bits"] == 15
        assert report["max_deviation"] < 1e-10

    def test_round_trip_through_protocol_file(self, tmp_path):
        config = write_config(
            tmp_path,
            "col.json",
            {"protocol": {"kind": "random_three_round", "seed": 29}, "seed": 8},
        )
        out = tmp_path / "first.json"
        assert run_cli(["collapse", "--config", config, "--out", str(out)]) == 0
        config2 = write_config(
            tmp_path,
            "col2.json",
            {"protocol": {"kind": "file", "path": str(tmp_path / "first.original.json")},
             "seed": 8},
        )
        out2 = tmp_path / "second.json"
        assert run_cli(["collapse", "--config", config2, "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["max_deviation"] < 1e-12

    def test_recollapse_of_odd_round_original_file(self, tmp_path):
        readme = {"protocol": {"kind": "random_odd_round", "depth": 5, "seed": 23}}
        config = write_config(tmp_path, "col.json", readme)
        out = tmp_path / "first.json"
        assert run_cli(["collapse", "--config", config, "--out", str(out)]) == 0
        config2 = write_config(
            tmp_path,
            "col2.json",
            {"protocol": {"kind": "file", "path": str(tmp_path / "first.original.json")}},
        )
        out2 = tmp_path / "second.json"
        assert run_cli(["collapse", "--config", config2, "--out", str(out2)]) == 0
        first, second = json.loads(out.read_text()), json.loads(out2.read_text())
        assert second["collapsed_messages"] == first["collapsed_messages"]
        assert (tmp_path / "second.collapsed.json").read_bytes() == (
            tmp_path / "first.collapsed.json"
        ).read_bytes()
        assert (tmp_path / "second.original.json").read_bytes() == (
            tmp_path / "first.original.json"
        ).read_bytes()

    def test_protocol_file_must_hold_a_protocol(self, tmp_path):
        nested = write_config(tmp_path, "nested.json", {"kind": "file", "path": "elsewhere.json"})
        config = write_config(tmp_path, "col.json", {"protocol": {"kind": "file", "path": nested}})
        assert run_cli(["collapse", "--config", config]) == 3

    def test_malformed_protocol_spec(self, tmp_path):
        config = write_config(tmp_path, "col.json", {"protocol": {"kind": "spaghetti"}})
        assert run_cli(["collapse", "--config", config]) == 3

    def test_simulate_consumes_collapsed_protocol_file(self, tmp_path):
        config = write_config(
            tmp_path,
            "col.json",
            {"protocol": {"kind": "random_three_round", "seed": 41}, "seed": 12},
        )
        out = tmp_path / "run.json"
        assert run_cli(["collapse", "--config", config, "--out", str(out)]) == 0
        sim_config = write_config(
            tmp_path,
            "sim.json",
            {"measurement": str(tmp_path / "run.collapsed.json"), "samples": 2000, "seed": 1},
        )
        sim_out = tmp_path / "sim_report.json"
        assert run_cli(["simulate", "--config", sim_config, "--out", str(sim_out)]) == 0
        report = json.loads(sim_out.read_text())
        assert report["born"] is None
        assert abs(sum(report["analytic"]) - 1.0) < 1e-9
        assert len(report["sampled"]) == len(report["analytic"])

    @pytest.mark.parametrize(
        "damage",
        [
            lambda obj: obj.pop("psi_grid"),
            lambda obj: obj["coin1"].pop(),
            lambda obj: obj["coin2"][0][0][0][0].pop(),
            lambda obj: obj["instruments"][0].pop(),
            lambda obj: obj["finals"][1][0][1].pop(),
        ],
        ids=["no-psi-grid", "coin1-atom-short", "coin2-wrong-length", "instrument-atom-short",
             "final-atom-short"],
    )
    def test_malformed_three_round_file_is_malformed_input(self, tmp_path, damage):
        config = write_config(
            tmp_path,
            "col.json",
            {"protocol": {"kind": "random_three_round", "seed": 29}, "check_states": 2},
        )
        assert run_cli(["collapse", "--config", config, "--out", str(tmp_path / "first.json")]) == 0
        original = tmp_path / "first.original.json"
        obj = json.loads(original.read_text())
        damage(obj)
        original.write_text(json.dumps(obj))
        config2 = write_config(
            tmp_path, "col2.json", {"protocol": {"kind": "file", "path": str(original)}}
        )
        assert run_cli(["collapse", "--config", config2]) == 3

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "random_three_round", "n_m2": 40},
            {"kind": "random_odd_round", "depth": 3, "alphabet": 1000},
            {"kind": "file"},
        ],
        ids=["three-round-40-replies", "odd-round-alphabet-1000", "three-round-file-40-replies"],
    )
    def test_oversized_collapse_is_malformed_input_before_any_table(self, tmp_path, capsys, spec):
        if spec["kind"] == "file":
            rng = np.random.default_rng(0)
            instrument = multiround.random_instrument(rng, 40, 2)
            povm = multiround.random_povm(rng, 2, 2)
            wide = multiround.OddRoundProtocol(
                randomness=protocols.SharedRandomness.trivial(),
                sender_alphabets=((0, 1), (0, 1)),
                receiver_alphabets=(tuple(range(40)),),
                outcomes=(0, 1),
                coins=(lambda psi, x, tr: np.array([0.5, 0.5]),) * 2,
                instruments=(lambda x, tr: instrument,),
                final_povm=lambda x, tr: povm,
            )
            path = tmp_path / "wide.json"
            path.write_text(serialize.dumps(serialize.three_round_protocol_to_obj(wide, [qmath.I2 / 2])))
            spec = {"kind": "file", "path": str(path)}
        config = write_config(tmp_path, "col.json", {"protocol": spec})
        tracemalloc.start()
        try:
            code = run_cli(["collapse", "--config", config, "--out", str(tmp_path / "r.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 16 * 2**20
        assert f"more than {multiround.MAX_COLLAPSED_MESSAGES} messages" in capsys.readouterr().err
        assert not (tmp_path / "r.collapsed.json").exists()

    def test_check_states_past_the_table_bound_are_malformed_input(self, tmp_path, capsys, monkeypatch):
        # random_three_round keeps 2 atoms x 8 collapsed messages per check state.
        config = {"protocol": {"kind": "random_three_round", "seed": 21}}
        out = ["--out", str(tmp_path / "r.json")]
        allowed = cli.MAX_CHECK_TABLE_ENTRIES // 16
        path = write_config(tmp_path, "col.json", {**config, "check_states": allowed + 1})
        monkeypatch.setattr(qmath, "haar_ket", lambda *args: pytest.fail("a check state was drawn"))
        assert run_cli(["collapse", "--config", path, *out]) == 3
        assert f"exceed {cli.MAX_CHECK_TABLE_ENTRIES} encoder-table entries" in capsys.readouterr().err
        assert not (tmp_path / "r.collapsed.json").exists()
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_CHECK_TABLE_ENTRIES", 16 * 3)
        for n_checks, code in ((3, 0), (4, 3)):
            path = write_config(tmp_path, "col.json", {**config, "check_states": n_checks})
            assert run_cli(["collapse", "--config", path, *out]) == code
        # Without --out no table is kept, so the bound does not apply.
        assert run_cli(["collapse", "--config", path]) == 0

    def test_a_run_without_out_keeps_no_tables_past_the_bound(self, tmp_path):
        # A depth-7 check state keeps 2 atoms x 32,768 collapsed messages, so
        # 257 of them pass the bound; kept, their tables would take 128.5 MiB.
        spec = {"kind": "random_odd_round", "seed": 0, "depth": 7}
        n_checks = cli.MAX_CHECK_TABLE_ENTRIES // (2 * 2**15) + 1
        path = write_config(tmp_path, "col.json", {"protocol": spec, "check_states": n_checks})
        tracemalloc.start()
        try:
            code = run_cli(["collapse", "--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * 2**20
        assert run_cli(["collapse", "--config", path, "--out", str(tmp_path / "r.json")]) == 3

    @pytest.mark.parametrize("cost", [-3, 0, 2.7, True, 99])
    def test_wrong_cost_bits_in_a_collapsed_file_is_malformed_input(self, tmp_path, capsys, cost):
        config = write_config(tmp_path, "col.json", {"protocol": {"kind": "random_three_round", "seed": 21}})
        assert run_cli(["collapse", "--config", config, "--out", str(tmp_path / "r.json")]) == 0
        path = tmp_path / "r.collapsed.json"
        obj = json.loads(path.read_text())
        assert (len(obj["messages"]), obj["cost_bits"]) == (8, 3)
        obj["cost_bits"] = cost
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        entries = {"measurement": str(path), "samples": 1000}
        assert run_cli(["simulate", "--config", write_config(tmp_path, "run.json", entries)]) == 3
        assert "cost_bits" in capsys.readouterr().err

    def test_nan_gap_fails_the_check(self, tmp_path, monkeypatch, capsys):
        direct = multiround.run_odd_rounds

        def first_pair_nan(protocol, psis, phis):
            out = direct(protocol, psis, phis)
            out[0] = np.nan
            return out

        monkeypatch.setattr(multiround, "run_odd_rounds", first_pair_nan)
        config = write_config(
            tmp_path, "col.json", {"protocol": {"kind": "random_three_round", "seed": 21}}
        )
        assert run_cli(["collapse", "--config", config]) == 2
        report = json.loads(
            capsys.readouterr().out, parse_constant=lambda name: pytest.fail(f"{name} is not JSON")
        )
        assert report["max_deviation"] is None

    def test_nan_encoder_output_is_an_invariant_violation(self, tmp_path, monkeypatch, capsys):
        collapse = multiround.collapse_odd_rounds

        def nan_encoder(protocol):
            collapsed = collapse(protocol)
            return dataclasses.replace(
                collapsed, encoder=lambda psi: np.full(collapsed.shape[:2], np.nan)
            )

        monkeypatch.setattr(multiround, "collapse_odd_rounds", nan_encoder)
        config = write_config(
            tmp_path, "col.json", {"protocol": {"kind": "random_odd_round", "depth": 3}}
        )
        assert run_cli(["collapse", "--config", config]) == 2
        assert "non-finite" in capsys.readouterr().err


class TestNogo:
    def test_exactness_exit_code(self, tmp_path):
        config = write_config(
            tmp_path,
            "nogo.json",
            {"cases": [{"messages": 4, "atoms": 1, "states": 4}],
             "budget": 16, "starts": 2, "seed": 5},
        )
        out = tmp_path / "nogo.csv"
        assert run_cli(["nogo", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        row = lines[2].split(",")
        assert float(row[3]) < 1e-9
        assert row[6] == "exact"
        assert row[7] == "True"
        assert (tmp_path / "nogo.strategies.json").exists()

    def test_floor_exit_code(self, tmp_path):
        config = write_config(
            tmp_path,
            "nogo.json",
            {"cases": [{"messages": 1, "atoms": 2, "states": 3}],
             "budget": 24, "starts": 2, "seed": 5},
        )
        out = tmp_path / "nogo.csv"
        assert run_cli(["nogo", "--config", config, "--out", str(out)]) == 1
        row = out.read_text().strip().splitlines()[2].split(",")
        assert float(row[3]) > 1e-8
        assert row[6] == "floor"

    def test_effects_columns_over_the_limit_exit_3_before_allocating(self, tmp_path, capsys):
        # The encoder table (16,000,000 entries) and candidate rows fit, but the
        # effects step's columns would hold 8e9 entries (64 GB) per array.
        cases = [{"messages": 1, "atoms": 1, "states": 3},
                 {"messages": 1, "atoms": 8_000_000, "states": 1000}]
        config = write_config(tmp_path, "nogo.json", {"cases": cases, "budget": 8, "starts": 2})
        tracemalloc.start()
        try:
            code = run_cli(["nogo", "--config", config, "--out", str(tmp_path / "nogo.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 2**20
        assert "effects-step columns" in capsys.readouterr().err
        assert not (tmp_path / "nogo.csv").exists()


class TestRac:
    def test_report_values(self, tmp_path):
        out = tmp_path / "rac.json"
        assert run_cli(["rac", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["classical_best"]["fraction"] == "3/4"
        assert abs(report["qubit_success"] - (2 + 2**0.5) / 4) < 1e-12
        assert report["one_bit_bound"]["fraction"] == "3/4"
        assert report["two_bit_simulator"]["cost_bits"] == 2
        assert abs(report["two_bit_simulator"]["success"] - (2 + 2**0.5) / 4) < 1e-10

    def test_one_mixture_solve_per_preparation(self, tmp_path, monkeypatch):
        calls = count_solves(monkeypatch)
        assert run_cli(["rac", "--out", str(tmp_path / "rac.json")]) == 0
        assert len(calls) == 4

    def test_artifact_mode_follows_umask(self, tmp_path):
        out = tmp_path / "rac.json"
        previous = os.umask(0o022)
        try:
            assert run_cli(["rac", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, measurement_file",
        [
            pytest.param("simulate", None, id="simulate-measurement-list"),
            pytest.param("simulate", "not json {", id="simulate-not-json"),
            pytest.param("simulate", "[1, 2]", id="simulate-json-list"),
            pytest.param("simulate", '{"kind": "product_povm"}', id="simulate-no-effects"),
            pytest.param("decompose", '{"kind": "product_povm"}', id="decompose-no-effects"),
            pytest.param(
                "simulate", '{"kind": "one_round_protocol", "atoms": [1.0]}',
                id="simulate-protocol-kind",
            ),
            pytest.param("simulate", tb_product_povm(["a", "b", "c", "d"]), id="simulate-too-few-labels"),
            pytest.param("decompose", tb_product_povm(["a", "b", "c", "d"]), id="decompose-too-few-labels"),
            pytest.param(
                "simulate", tb_product_povm([[1], "b", "c", "d", "e"]), id="simulate-unhashable-label"
            ),
            pytest.param(
                "decompose", tb_product_povm([[1], "b", "c", "d", "e"]), id="decompose-unhashable-label"
            ),
            pytest.param("simulate", SHIFT_PRODUCT_POVM, id="simulate-three-party"),
            pytest.param("decompose", SHIFT_PRODUCT_POVM, id="decompose-three-party"),
            pytest.param(
                "simulate", '{"kind": "product_povm", "effects": [], "labels": []}',
                id="simulate-empty-povm",
            ),
            pytest.param(
                "decompose", '{"kind": "product_povm", "effects": [], "labels": []}',
                id="decompose-empty-povm",
            ),
            pytest.param("simulate", EIGHTEEN_EFFECTS, id="simulate-18-effects"),
            pytest.param("decompose", EIGHTEEN_EFFECTS, id="decompose-18-effects"),
            pytest.param("simulate", QUBIT_BY_DIM5, id="simulate-receiver-dim-5"),
            pytest.param("decompose", QUBIT_BY_DIM5, id="decompose-receiver-dim-5"),
        ],
    )
    def test_malformed_measurement_is_malformed_input(self, tmp_path, command, measurement_file):
        if measurement_file is None:
            measurement = ["tb"]
        else:
            measurement = str(tmp_path / "measurement.json")
            Path(measurement).write_text(measurement_file)
        config = write_config(tmp_path, "sim.json", {"measurement": measurement})
        assert run_cli([command, "--config", config]) == 3

    @pytest.mark.parametrize(
        "command, entries",
        [
            ("simulate", {"measurement": "tb", "seed": "abc"}),
            ("decompose", {"measurement": "tb", "seed": "abc"}),
            ("depolarize", {"seed": "abc"}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "seed": "abc"}),
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": 1}], "seed": "abc"}),
            ("rac", {"seed": "abc"}),
            ("simulate", {"measurement": "tb", "psi": ["a", 1, 2]}),
            ("simulate", {"measurement": "tb", "psi": [2, 0, 0]}),
            # A Bloch triple or an amplitude of JSON strings or bools is not a state.
            ("simulate", {"measurement": "tb", "psi": ["0", "0", "1"]}),
            ("simulate", {"measurement": "tb", "psi": [True, False, False]}),
            ("simulate", {"measurement": "tb", "phi": [0, 0, True]}),
            ("simulate", {"measurement": "tb", "psi": [["1", "0"], ["0", "0"]]}),
            ("decompose", {"measurement": "tb", "psi": ["0", "0", "1"]}),
            ("decompose", {"measurement": "tb", "psi": [["1", "0"], ["0", "0"]]}),
            ("decompose", {"measurement": "tb", "psi": [[True, 0], [0, 0]]}),
            ("simulate", {"measurement": "shift", "sender_config": "C"}),
            ("simulate", {"measurement": "tb", "samples": -3}),
            ("depolarize", {"bit_counts": 3}),
            ("depolarize", {"sweep_max_bits": "x"}),
            ("depolarize", {"bit_counts": ["x"]}),
            ("depolarize", {"bit_counts": [1.5]}),
            ("depolarize", {"bit_counts": [True]}),
            ("depolarize", {"bit_counts": [17]}),
            ("depolarize", {"sweep_max_bits": 17}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "check_tolerance": "x"}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "check_tolerance": True}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "check_tolerance": math.nan}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "check_tolerance": math.inf}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "check_tolerance": -1}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "check_tolerance": 0}),
            # JSON strings are not numbers, even when they spell one.
            ("depolarize", {"seed": "7", "samples": "1000", "bit_counts": ["1"]}),
            ("depolarize", {"bit_counts": ["1"]}),
            ("collapse", {"protocol": {"kind": "random_three_round", "seed": "3"}, "check_tolerance": "1e-3"}),
            ("collapse", {"protocol": {"kind": "random_three_round", "seed": "3"}}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "check_tolerance": "1e-3"}),
            ("nogo", {"cases": [{"messages": "2", "atoms": 1, "states": 1}], "budget": 8, "starts": 1}),
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": 1}], "starts": 0}),
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": 1}], "starts": -1}),
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": 1}], "budget": 0}),
            ("depolarize", {"samples": 0}),
            ("depolarize", {"samples": -5}),
            ("rac", {"one_bit_atoms": 0}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "check_states": 0}),
            ("simulate", {"measurement": "tb", "seed": 1.9}),
            ("simulate", {"measurement": "tb", "samples": 2.7}),
            ("simulate", {"measurement": "tb", "seed": True}),
            ("rac", {"one_bit_atoms": False}),
            ("nogo", {"cases": 5}),
            ("nogo", {"cases": [{"messages": 1.9, "atoms": 1, "states": 1}],
                      "budget": 8, "starts": 1}),
            ("nogo", {"cases": [{"messages": 1, "atoms": True, "states": 1}],
                      "budget": 8, "starts": 1}),
            ("nogo", {"cases": [{"messages": 0, "atoms": 1, "states": 1}]}),
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": -2}]}),
            ("simulate", {"measurement": "tb", "seed": -1}),
            ("decompose", {"measurement": "tb", "seed": -1}),
            ("depolarize", {"seed": -1}),
            ("collapse", {"protocol": {"kind": "random_three_round"}, "seed": -1}),
            ("collapse", {"protocol": {"kind": "random_three_round", "seed": -4}}),
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": 1}], "seed": -1}),
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": 1}], "grid_seed": -1}),
            ("rac", {"seed": -1}),
            ("collapse", {"protocol": {"kind": "random_three_round", "n_atoms": 0}}),
            ("collapse", {"protocol": {"kind": "random_three_round", "n_m2": -1}}),
            ("collapse", {"protocol": {"kind": "random_three_round", "n_outcomes": 0}}),
            ("collapse", {"protocol": {"kind": "random_odd_round", "alphabet": 0}}),
            ("collapse", {"protocol": {"kind": "random_odd_round", "depth": 2}}),
            ("collapse", {"protocol": {"kind": "random_odd_round", "depth": 9}}),
            # One atom past the encoder-table limit at M = 8, after a case that would run.
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": 3},
                                {"messages": 8, "atoms": 914, "states": 3}]}),
            # More states than the nested grid can place: its sampler would never return.
            ("nogo", {"cases": [{"messages": 1, "atoms": 1, "states": 3},
                                {"messages": 1, "atoms": 1, "states": 5000}]}),
            # The table fits, but the candidate rows would hold 491,505,000 entries (3.9 GB).
            ("nogo", {"cases": [{"messages": 15, "atoms": 1, "states": 1000}]}),
        ],
    )
    def test_malformed_config_value_is_malformed_input(self, tmp_path, command, entries):
        config = write_config(tmp_path, "config.json", entries)
        assert run_cli([command, "--config", config]) == 3

    @pytest.mark.parametrize("entry", [["0.5", "0"], [0.5, "0"], [False, 0.0]])
    def test_string_or_bool_entry_in_a_protocol_file_is_malformed_input(self, tmp_path, capsys, entry):
        config = write_config(tmp_path, "col.json", {"protocol": {"kind": "random_three_round", "seed": 21}})
        assert run_cli(["collapse", "--config", config, "--seed", "1", "--out", str(tmp_path / "r.json")]) == 0
        path = tmp_path / "r.collapsed.json"
        obj = json.loads(path.read_text())
        entries = {"measurement": str(path), "psi": obj["encoder"]["psi_grid"][0]}
        run = write_config(tmp_path, "run.json", entries)
        assert run_cli(["simulate", "--config", run]) == 0
        obj["decoders"][0][0]["effects"][0]["entries"][0] = entry
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run_cli(["simulate", "--config", run]) == 3
        assert "numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["collapse", "simulate"])
    def test_sender_state_off_a_protocol_files_grid_is_malformed_input(self, tmp_path, capsys, command):
        config = write_config(tmp_path, "col.json", {"protocol": {"kind": "random_three_round", "seed": 21}})
        out = str(tmp_path / "r.json")
        assert run_cli(["collapse", "--config", config, "--seed", "1", "--out", out]) == 0
        if command == "collapse":
            entries = {"protocol": {"kind": "file", "path": str(tmp_path / "r.original.json")}, "seed": 2}
        else:
            entries = {"measurement": str(tmp_path / "r.collapsed.json"), "psi": [0, 0, 1]}
        capsys.readouterr()
        assert run_cli([command, "--config", write_config(tmp_path, "run.json", entries)]) == 3
        assert "runs only on its own grid" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("command", ["simulate", "collapse"])
    def test_non_finite_number_in_a_protocol_file_is_malformed_input(self, tmp_path, capsys, command, value):
        config = write_config(tmp_path, "col.json", {"protocol": {"kind": "random_three_round", "seed": 29}})
        assert run_cli(["collapse", "--config", config, "--out", str(tmp_path / "r.json")]) == 0
        if command == "simulate":
            path = tmp_path / "r.collapsed.json"
            entries = {"measurement": str(path), "samples": 1000}
        else:
            path = tmp_path / "r.original.json"
            entries = {"protocol": {"kind": "file", "path": str(path)}}
        obj = json.loads(path.read_text())
        poison_first_number(obj["encoder"]["table"] if command == "simulate" else obj["coin1"], value)
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run_cli([command, "--config", write_config(tmp_path, "run.json", entries)]) == 3
        assert "not a JSON number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "collapse"])
    def test_repeated_outcome_in_a_protocol_file_is_malformed_input(self, tmp_path, capsys, command):
        config = write_config(tmp_path, "col.json", {"protocol": {"kind": "random_three_round", "seed": 21}})
        assert run_cli(["collapse", "--config", config, "--out", str(tmp_path / "r.json")]) == 0
        if command == "simulate":
            path = tmp_path / "r.collapsed.json"
            entries = {"measurement": str(path)}
        else:
            path = tmp_path / "r.original.json"
            entries = {"protocol": {"kind": "file", "path": str(path)}}
        obj = json.loads(path.read_text())
        obj["outcomes"].append(obj["outcomes"][0])
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run_cli([command, "--config", write_config(tmp_path, "run.json", entries)]) == 3
        assert "outcomes repeat a label" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "rac"])
    def test_negative_seed_override_is_malformed_input(self, tmp_path, command):
        config = write_config(tmp_path, "config.json", {"measurement": "tb"})
        assert run_cli([command, "--config", config, "--seed", "-2"]) == 3

    def test_integral_float_entries_are_accepted(self, tmp_path):
        reports = []
        for seed, samples in ((3, 1000), (3.0, 1e3)):
            entries = {"measurement": "tb", "seed": seed, "samples": samples}
            config = write_config(tmp_path, "config.json", entries)
            out = tmp_path / "report.json"
            assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]


def subprocess_env():
    """The environment with this checkout's qchansim first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(qchansim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestModuleEntryPoint:
    def test_python_dash_m_starts_without_warnings(self):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qchansim", "rac"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["command"] == "rac"

    def test_python_dash_m_qchansim_cli_starts_without_runtime_warning(self):
        # The package loads ``cli`` lazily, so runpy does not find it imported already.
        result = subprocess.run(
            [sys.executable, "-m", "qchansim.cli", "--help"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert result.stdout.startswith("usage: qchansim")

    def test_cli_loads_on_first_attribute_access(self):
        code = (
            "import sys, qchansim\n"
            "assert 'qchansim.cli' not in sys.modules\n"
            "print(qchansim.cli.main.__module__, getattr(qchansim, 'cli') is sys.modules['qchansim.cli'])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["qchansim.cli", "True"]


# Runs one CLI command in a fresh interpreter and reports its exit code and
# whether scipy was imported along the way.
_FRESH_RUN = """
import json, sys
from qchansim import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules}))
"""

# Builds the unpruned mixture system of a product_povm file in a fresh interpreter,
# solves it at |0><0|, and reports whether scipy was imported before and after.
_FRESH_NNLS = """
import json, sys
import numpy as np
from qchansim import decompose, serialize
effects, _ = serialize.product_povm_from_obj(serialize.loads(open(sys.argv[1]).read()))
slot_map = decompose.slot_weight_map(effects)
system = decompose.mixture_system(len(effects), decompose.enumerate_extremals(slot_map.receiver))
before = "scipy" in sys.modules
decompose.solve_mixture(system, decompose.slot_weights(slot_map, np.diag([1.0, 0.0])))
print(json.dumps({"family": len(system.extremals), "before": before, "after": "scipy" in sys.modules}))
"""


def run_fresh(args):
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, json.dumps(args)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestColdStart:
    """Only NNLS solves, on families too large for the vertex search, import scipy, on the first one."""

    @pytest.mark.parametrize(
        "command, config, expected",
        [
            ("nogo", {"cases": [{"messages": 1, "atoms": 2, "states": 3}],
                      "budget": 8, "starts": 1, "seed": 5}, 1),
            ("depolarize", {"bit_counts": [1, 2], "samples": 1000, "seed": 9}, 0),
            ("collapse", {"protocol": {"kind": "random_odd_round", "depth": 3, "seed": 23},
                          "check_states": 2}, 0),
            ("simulate", {"measurement": "tb", "samples": 1000, "seed": 3}, 0),
            ("simulate", {"measurement": "shift", "sender_config": "B", "seed": 3}, 0),
            ("rac", {}, 0),
        ],
        ids=["nogo", "depolarize", "collapse", "simulate-tb", "simulate-shift-B", "rac"],
    )
    def test_command_runs_without_scipy(self, tmp_path, command, config, expected):
        args = [command, "--config", write_config(tmp_path, "config.json", config),
                "--out", str(tmp_path / "out")]
        assert run_fresh(args) == {"code": expected, "scipy": False}

    def test_decompose_on_a_vertex_search_family_runs_without_scipy(self, tmp_path):
        config = write_config(tmp_path, "dec.json", {"measurement": "tb", "psi": [0, 0, 1]})
        out = tmp_path / "out.json"
        assert run_fresh(["decompose", "--config", config, "--out", str(out)]) == {
            "code": 0, "scipy": False,
        }
        mus = [entry["mu"] for entry in json.loads(out.read_text())["decomposition"]["mixture"]]
        np.testing.assert_allclose(mus, [0.5, 0.5, 0.0, 0.0], atol=1e-9)

    def test_decompose_on_a_pruned_family_runs_without_scipy(self, tmp_path):
        # The 16-member family of a (basis, tetra) measurement prunes to an alphabet
        # small enough for the vertex search.
        joint = random_product_povm(np.random.default_rng(11), ("basis", "tetra"))
        config = write_config(tmp_path, "dec.json", {"measurement": product_povm_file(tmp_path, joint)})
        args = ["decompose", "--config", config, "--out", str(tmp_path / "out.json")]
        assert run_fresh(args) == {"code": 0, "scipy": False}

    def test_decompose_on_a_sender_first_family_runs_without_scipy(self, tmp_path):
        # The 81-member family of a (trine, tetra) measurement has no certified subfamily
        # among the first 3,000 the scan tries, but its 3 sender-first members certify.
        joint = random_product_povm(np.random.default_rng(11), ("trine", "tetra"))
        config = write_config(tmp_path, "dec.json", {"measurement": product_povm_file(tmp_path, joint)})
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert run_fresh(["decompose", "--config", config, "--out", str(cold)]) == {
            "code": 0, "scipy": False,
        }
        assert run_cli(["decompose", "--config", config, "--out", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()
        report = json.loads(cold.read_text())
        assert len(report["family"]) == 3
        assert report["cost_bits"] == 2

    def test_nnls_loads_scipy_on_its_first_solve(self, tmp_path):
        # The unpruned 256-member (tetra, tetra) family has more candidate supports
        # than the vertex search takes, so it is decided by NNLS.
        joint = random_product_povm(np.random.default_rng(11), ("tetra", "tetra"))
        result = subprocess.run(
            [sys.executable, "-c", _FRESH_NNLS, product_povm_file(tmp_path, joint)],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.strip().splitlines()[-1]) == {
            "family": 256, "before": False, "after": True,
        }
