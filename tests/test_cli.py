import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from latinhadamard import canonical_signed_square_8
from latinhadamard.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_json_schema(capsys):
    code, out, _ = invoke(capsys, "construct", "--w", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == 2
    assert payload["entries"] == [[1, 2, 3, 4], [2, 1, 4, 3],
                                  [3, 4, 1, 2], [4, 3, 2, 1]]


def test_construct_size_guard(capsys):
    code, out, err = invoke(capsys, "construct", "--w", "9")
    assert code == 1
    assert not out
    assert "limited" in err


def test_unknown_flag_rejected(capsys):
    code, _, err = invoke(capsys, "construct", "--w", "2", "--bogus")
    assert code == 1
    assert "error" in err


def test_unsupported_format(capsys):
    code, _, err = invoke(capsys, "decompose", "--p", "a",
                          "--counts", "25,25,25,25,25,25,25,25",
                          "--format", "csv")
    assert code == 1
    assert "format" in err


def test_enumerate_valid_only_counts(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--w", "3", "--valid-only",
                          "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 16
    assert all(r["latin_hadamard"] for r in records)
    assert len({r["choices"] for r in records}) == 16


def test_enumerate_roundtrip_through_decompose(capsys, tmp_path):
    code, out, _ = invoke(capsys, "enumerate", "--w", "3", "--valid-only",
                          "--format", "json")
    record = json.loads(out)[0]
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(record))
    code, out, _ = invoke(capsys, "decompose", "--p", "a",
                          "--counts", "30,20,25,25,25,25,25,25",
                          "--matrix", str(matrix_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["X2"] == pytest.approx(2.0)
    assert abs(payload["sum_check"]) < 1e-10
    assert len(payload["components"]) == 7


def test_decompose_builtin_and_sum(capsys):
    code, out, _ = invoke(capsys, "decompose", "--p", "b",
                          "--counts", "10,20,30,40,40,30,20,10",
                          "--matrix", "builtin:13")
    assert code == 0
    payload = json.loads(out)
    assert payload["X2"] == pytest.approx(
        sum(t * t for t in payload["components"]), rel=1e-10)


def test_algebra_zero_divisor_listing(capsys):
    code, out, _ = invoke(capsys, "algebra", "--dim", "16",
                          "--report", "zero-divisors", "--format", "pretty")
    assert code == 0
    assert "(e_" in out and ") = 0" in out

    code, out, _ = invoke(capsys, "algebra", "--dim", "8",
                          "--report", "zero-divisors", "--format", "json")
    assert code == 0
    assert json.loads(out)["zero_divisors"] == []


def test_algebra_table_from_coloring(capsys):
    code, out, _ = invoke(capsys, "algebra", "--from-coloring", "builtin:13",
                          "--report", "table", "--format", "json")
    assert code == 0
    table = np.array(json.loads(out)["table"])
    assert table.shape == (8, 8)
    assert (table[0] == np.arange(1, 9)).all()


def test_design_commands(capsys):
    code, out, _ = invoke(capsys, "design", "--verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"valid": True, "order": 16, "num_vars": 9,
                       "type": [1, 2, 2, 2, 2, 2, 2, 2, 1]}

    code, out, _ = invoke(capsys, "design", "--show")
    assert code == 0
    first = out.splitlines()[0].split()
    assert first[0] == "+x1" and first[8] == "+x9"

    pvars = ",".join(["0.0625"] * 9)
    code, out, _ = invoke(capsys, "design", "--eigenbasis", "--pvars", pvars,
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    matrix = np.array(payload["matrix"])
    assert np.abs(matrix.T @ matrix - np.eye(16)).max() < 1e-12
    assert payload["cell_probabilities"] == [0.0625] * 16


def test_power_csv_schema_and_determinism(capsys, tmp_path):
    argv = ["power", "--alt", "normal:0,1.3", "--preset", "a",
            "--reps", "300", "--seed", "11", "--format", "csv"]
    outputs = []
    for threads in ("1", "4"):
        out_file = tmp_path / f"t{threads}.csv"
        code, _, _ = invoke(capsys, *argv, "--threads", threads,
                            "--out", str(out_file))
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    assert lines[0] == "statistic,rate,se"
    assert lines[1].startswith("X2,")
    assert len(lines) == 9


@pytest.mark.parametrize("alt", ["normal:0,nan", "normal:0,inf", "gamma:nan,1"])
def test_power_rejects_non_finite_parameters(capsys, alt):
    code, out, err = invoke(capsys, "power", "--alt", alt, "--preset", "a",
                            "--reps", "50", "--threads", "1")
    assert (code, out) == (1, "")
    assert err.startswith("latinhadamard: error:") and err.count("\n") == 1


def test_power_requires_probabilities(capsys):
    code, _, err = invoke(capsys, "power", "--alt", "t:2")
    assert code == 1
    assert "--preset" in err


def test_mutually_exclusive_flags_diagnosed(capsys):
    code, _, err = invoke(capsys, "power", "--alt", "t:2", "--preset", "a",
                          "--p", "0.5,0.5")
    assert code == 1
    assert "mutually exclusive" in err
    code, _, err = invoke(capsys, "design", "--show", "--verify")
    assert code == 1
    assert "mutually exclusive" in err
    code, _, err = invoke(capsys, "design", "--eigenbasis")
    assert code == 1
    assert "--pvars" in err


def test_env_seed_override(capsys, monkeypatch):
    argv = ["power", "--alt", "t:2", "--preset", "a", "--reps", "200",
            "--seed", "1", "--format", "json"]
    code, baseline, _ = invoke(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("LH_SEED", "999")
    code, overridden, _ = invoke(capsys, *argv)
    assert code == 0
    assert json.loads(overridden)["config"]["seed"] == 999
    assert json.loads(baseline)["config"]["seed"] == 1
    monkeypatch.setenv("LH_SEED", "not-an-int")
    code, _, err = invoke(capsys, *argv)
    assert code == 1
    assert "LH_SEED" in err


def test_matrix_file_errors(capsys, tmp_path):
    code, _, err = invoke(capsys, "decompose", "--p", "a",
                          "--counts", "25,25,25,25,25,25,25,25",
                          "--matrix", str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = invoke(capsys, "decompose", "--p", "a",
                          "--counts", "25,25,25,25,25,25,25,25",
                          "--matrix", str(bad))
    assert code == 1
    assert "valid JSON" in err


def _malformed_matrix_rejected(capsys, tmp_path, entries):
    """Both matrix-file readers must answer exit 1 with one stderr line."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(entries))
    for argv in (["decompose", "--p", "a", "--counts", "25,25,25,25,25,25,25,25",
                  "--matrix", str(path)],
                 ["algebra", "--from-coloring", str(path), "--report", "zero-divisors"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("latinhadamard: error:") and err.count("\n") == 1


def _canonical_entries():
    return canonical_signed_square_8().signed_entries().tolist()


def test_ragged_or_non_numeric_matrix_file_rejected(capsys, tmp_path):
    ragged = _canonical_entries()
    ragged[3].pop()
    _malformed_matrix_rejected(capsys, tmp_path, ragged)
    text = _canonical_entries()
    text[2][5] = "x"
    _malformed_matrix_rejected(capsys, tmp_path, text)


def test_non_integer_matrix_file_rejected(capsys, tmp_path):
    entries = _canonical_entries()
    entries[4][2] += 0.7 if entries[4][2] > 0 else -0.7
    _malformed_matrix_rejected(capsys, tmp_path, entries)


def test_non_latin_matrix_file_rejected(capsys, tmp_path):
    entries = _canonical_entries()
    entries[5][6] = 9 if entries[5][6] > 0 else -9
    _malformed_matrix_rejected(capsys, tmp_path, entries)
    entries = _canonical_entries()
    entries[5][6] = entries[5][7]
    _malformed_matrix_rejected(capsys, tmp_path, entries)


# SHA-256 of the JSON output recorded before the zero-divisor scan and the
# orthogonality check moved onto the AB-BA quad kernel; pins the order.
PINNED_OUTPUTS = {
    "algebra-dim16": ("algebra --dim 16 --report zero-divisors --format json",
                      "1653c12325794eaf3e2f7bc4ebe32a0b8d3462bfe5e23d92f340ceeddf252e20"),
    "algebra-dim32": ("algebra --dim 32 --report zero-divisors --format json",
                      "3e964ebf6b0ae62cd2afe8886b37b89bd37d7354e6f26ca944ec431ff1fe0816"),
    "enumerate-w3": ("enumerate --w 3 --format json",
                     "a16090c692847cd2fac51c616d8efdd6ddcad1f0acd5adf52e211102cab679cc"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_bytes_pinned(capsys, name):
    argv, digest = PINNED_OUTPUTS[name]
    code, out, _ = invoke(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "latinhadamard.cli",
                           "construct", "--w", "1", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"] == [[1, 2], [2, 1]]
