import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np

import qchansim
from qchansim import cli


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


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

    def test_unknown_measurement_is_malformed_input(self, tmp_path):
        config = write_config(tmp_path, "sim.json", {"measurement": "nope"})
        assert run_cli(["simulate", "--config", config]) == 3

    def test_singlet_is_rejected(self, tmp_path):
        config = write_config(tmp_path, "sim.json", {"measurement": "singlet"})
        assert run_cli(["simulate", "--config", config]) == 3

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

    def test_artifact_mode_follows_umask(self, tmp_path):
        out = tmp_path / "rac.json"
        previous = os.umask(0o022)
        try:
            assert run_cli(["rac", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644


class TestModuleEntryPoint:
    def test_python_dash_m_starts_without_warnings(self):
        env = dict(os.environ)
        src = str(Path(qchansim.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qchansim", "rac"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["command"] == "rac"
