"""``tools/identity.py --against`` on small hand-made OUTDIRs."""

import hashlib
import importlib.util
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity_tool", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

SHA = "ab" * 32
CSV = "# qchansim 0.1.0 depolarize config={}\nbits,codebook,eta_hat\n1,antipodal,0.5\n2,tetrahedron,0.74\n"


def nogo_line(best_error=0.125, iterations=16, status="floor") -> str:
    return f"case {best_error!r} {iterations} {status} {SHA}\n"


@pytest.fixture
def dirs(tmp_path):
    """Two copies of one OUTDIR with a case of every group and a CSV and a JSON artifact."""
    ours = tmp_path / "ours"
    for group in ("protocols", "nogo", "readme"):
        (ours / group).mkdir(parents=True)
    (ours / "protocol_digests.txt").write_text(f"proto {SHA}\n")
    np.savez(ours / "protocols" / "proto.npz", encoder0=np.array([[0.5, 0.25, 0.25]]),
             named=np.array([True, False]), messages=np.array("(0, 1)"))
    (ours / "nogo_reports.txt").write_text(nogo_line())
    np.savez(ours / "nogo" / "case.npz", encoder=np.full((2, 1, 2), 0.5))
    (ours / "eta_digests.txt").write_text(
        "antipodal-n1-batch10-seed0 0.5 0.0\naverage-antipodal-n1-batch10-seed0 0.3 0.6 0.1 0.2 0.4\n"
    )
    (ours / "readme" / "depolarize.csv").write_text(CSV)
    (ours / "readme" / "simulate.json").write_text(
        json.dumps({"analytic": [0.25, 0.75], "config": {"seed": 7}})
    )
    theirs = tmp_path / "theirs"
    shutil.copytree(ours, theirs)
    return ours, theirs


def lines(capsys) -> dict[str, str]:
    """The printed evidence per case, with 'FAIL ' kept at the front of a failing case's key."""
    out = capsys.readouterr().out.splitlines()
    return dict(line.split(": ", 1) for line in out[:-1]) | {"summary": out[-1]}


def test_identical_directories_pass(dirs, capsys):
    assert identity.compare(*dirs) == 0
    printed = lines(capsys)
    assert printed.pop("summary") == "6 of 6 cases identical, 0 failed; largest |delta| 0"
    assert printed == dict.fromkeys([
        "protocols/proto", "nogo/case", "eta/antipodal-n1-batch10-seed0",
        "eta/average-antipodal-n1-batch10-seed0", "readme/depolarize", "readme/simulate",
    ], "identical")


def test_one_ulp_in_an_npz_array_shows_its_size_and_field(dirs, capsys):
    ours, theirs = dirs
    path = ours / "protocols" / "proto.npz"
    with np.load(path) as saved:
        fields = dict(saved)
    fields["encoder0"][0, 0] = np.nextafter(0.5, 1.0)
    np.savez(path, **fields)
    assert identity.compare(ours, theirs) == 1
    printed = lines(capsys)
    match = re.fullmatch(r"largest \|delta\| (\S+) \(encoder0\)", printed["FAIL protocols/proto"])
    assert match and float(match.group(1)) == pytest.approx(2.0**-53, rel=0.01)
    assert printed["summary"] == (
        "5 of 6 cases identical, 1 failed; largest |delta| 1.11e-16 (protocols/proto encoder0)"
    )


@pytest.mark.parametrize(
    "line, key, evidence",
    [
        (nogo_line(best_error=0.125 + 5e-13), "nogo/case", "largest |delta| 5e-13 (best_error)"),
        (nogo_line(best_error=0.125 + 2e-12), "FAIL nogo/case", "largest |delta| 2e-12 (best_error)"),
        (nogo_line(iterations=17), "FAIL nogo/case", "largest |delta| 1 (iterations)"),
        (nogo_line(status="exact"), "FAIL nogo/case", "changed status"),
    ],
)
def test_nogo_case_fails_on_best_error_beyond_bound_or_changed_iterations_or_status(
    dirs, capsys, line, key, evidence
):
    ours, theirs = dirs
    (ours / "nogo_reports.txt").write_text(line)
    assert identity.compare(ours, theirs) == key.startswith("FAIL")
    assert lines(capsys)[key] == evidence


def test_added_csv_column_and_json_key_are_reported(dirs, capsys):
    ours, theirs = dirs
    columns = CSV.replace("eta_hat\n", "eta_hat,stderr\n").replace("0.5\n", "0.5,0.01\n")
    (ours / "readme" / "depolarize.csv").write_text(columns.replace("0.74\n", "0.74,0.02\n"))
    (ours / "readme" / "simulate.json").write_text(
        json.dumps({"analytic": [0.25, 0.75], "config": {"seed": 7}, "max_deviation": 0.0})
    )
    assert identity.compare(ours, theirs) == 1
    printed = lines(capsys)
    assert printed["FAIL readme/depolarize"] == "added stderr"
    assert printed["FAIL readme/simulate"] == "added max_deviation"


def test_removed_and_changed_fields_are_reported(dirs, capsys):
    ours, theirs = dirs
    (ours / "readme" / "depolarize.csv").write_text(
        CSV.replace(",eta_hat", "").replace(",0.5", "").replace(",0.74", "").replace("tetrahedron", "cube")
    )
    assert identity.compare(ours, theirs) == 1
    assert lines(capsys)["FAIL readme/depolarize"] == "changed codebook; removed eta_hat"


@pytest.mark.parametrize("side", ["ours", "theirs"])
def test_a_case_in_one_directory_only_fails(dirs, capsys, side):
    ours, theirs = dirs
    (ours if side == "ours" else theirs).joinpath("nogo", "case.npz").unlink()
    (ours if side == "ours" else theirs).joinpath("nogo_reports.txt").write_text("")
    assert identity.compare(ours, theirs) == 1
    assert lines(capsys)["FAIL nogo/case"] == f"missing from {ours if side == 'ours' else theirs}"


def test_digest_keeps_what_it_hashes(tmp_path):
    d = identity.Digest()
    d.text("messages", "(0, 1)")
    d.add("typed", np.arange(3.0))
    d.add("bare", np.arange(4.0).reshape(2, 2).T, header="")
    expected = hashlib.sha256(b"(0, 1)" + repr(("<f8", (3,))).encode() + np.arange(3.0).tobytes())
    expected.update(np.array([0.0, 2.0, 1.0, 3.0]).tobytes())
    assert d.save(tmp_path / "case.npz") == expected.hexdigest()
    with np.load(tmp_path / "case.npz") as saved:
        assert str(saved["messages"]) == "(0, 1)"
        np.testing.assert_array_equal(saved["typed"], np.arange(3.0))
