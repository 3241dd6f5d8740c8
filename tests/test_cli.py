import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import contextlib
import io
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latinhadamard
from latinhadamard import (ValidationError, alternate_signed_square_8,
                           canonical_signed_square_8, chisq, cli, coloring,
                           construct_latin_square, enumerate_colorings, power)
from latinhadamard.cli import run
from latinhadamard.power import MAX_N, MAX_REPS

from gram_oracle import gram_is_latin_hadamard
from reference_tables import SIGNED_SQUARE_8


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


@pytest.mark.parametrize("flag,value", [("--n", 10 ** 12), ("--n", MAX_N + 1),
                                        ("--reps", MAX_REPS + 1)])
def test_power_size_guard(capsys, monkeypatch, flag, value):
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard must fire before the simulation")

    monkeypatch.setattr(cli, "simulate_power", unreachable)
    code, out, err = invoke(capsys, "power", "--alt", "normal:0,1.3", "--preset", "a",
                            flag, str(value), "--threads", "1")
    assert (code, out) == (1, "")
    assert err.startswith("latinhadamard: error:") and err.count("\n") == 1
    assert "limited" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_power_rejects_threads_below_one(capsys, threads):
    code, out, err = invoke(capsys, "power", "--alt", "normal:0,1.3", "--preset", "a",
                            "--reps", "100", "--threads", threads)
    assert (code, out) == (1, "")
    assert err.startswith("latinhadamard: error:") and err.count("\n") == 1


def test_power_threads_default_to_one(capsys, monkeypatch):
    seen = []
    simulate = cli.simulate_power

    def recording_simulate(cfg, threads):
        seen.append(threads)
        return simulate(cfg, threads)

    monkeypatch.setattr(cli, "simulate_power", recording_simulate)
    code, _, _ = invoke(capsys, "power", "--alt", "t:2", "--preset", "a", "--reps", "50")
    assert code == 0
    assert seen == [1]


def test_power_csv_bytes_equal_across_worker_counts(capsys, monkeypatch):
    # Eight usable CPUs, so that 2, 4 and 8 really are the worker counts.
    monkeypatch.setattr(power.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    outputs = set()
    for threads in ("1", "2", "4", "8"):
        code, out, err = invoke(capsys, "power", "--alt", "gamma:2,0.5", "--preset", "c",
                                "--reps", "203", "--seed", "5", "--format", "csv",
                                "--threads", threads)
        assert (code, err) == (0, "")
        outputs.add(out)
    assert len(outputs) == 1


_NORMAL_A = ["--alt", "normal:0,1.3", "--preset", "a"]
# SHA-256 of ``power ... --seed 20260811 --format csv``, recorded with the
# engine of 2**21-draw blocks.  Block shape and worker count change no byte.
_POWER_CSV_SHA256 = [
    (_NORMAL_A, 200, 2000,
     "3cac96787c588e2df8108d1686f3affc9218e0dc70e2576bf654da09f5be7b01"),
    (["--alt", "normal:0.4,1", "--preset", "a"], 200, 2000,
     "1aa2e522ba1407e00923f7a1f815b8f24e9cdce81be818d1f55f5c8b86e35994"),
    (["--alt", "t:1", "--preset", "b"], 200, 2000,
     "9608a9eb56cf7f56a7aa98771258725a03cd30a5dc105d32803c02d8b9c4d5ce"),
    (["--null", "normal:1.0,0.4472135954999579", "--alt", "gamma:5,0.2",
      "--preset", "b", "--matrix", "builtin:15"], 200, 2000,
     "572da6f98fa4cb0c169a9cbffe1b4594e96568475a089614f95239cc81468888"),
    (["--alt", "normal:0,1.3", "--preset", "c"], 200, 2000,
     "8efa078153fe2e35c8c7fb77d6b39a9c042febcd1a4399f503b702e71099f74f"),
    # A sample larger than one block, and many blocks sized by k that end
    # in a partial one.
    (_NORMAL_A, 70000, 3,
     "48b242ee9b175450a44bb0038fd8f2e4109e02e0175a02fefb31fc41ca3392ae"),
    (_NORMAL_A, 1, 70000,
     "ce64cc12c0cd276ae7e68a444b0def8f9dbaac299e68dcfa721f5a3dd5ef151f"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("args,n,reps,sha256", _POWER_CSV_SHA256,
                         ids=["N(0,1.3)/(a)", "N(0.4,1)/(a)", "t(1)/(b)", "gamma(5,1/5)/(b)",
                              "N(0,1.3)/(c)", "N(0,1.3)/(a)-n70000", "N(0,1.3)/(a)-n1"])
def test_power_csv_bytes_are_pinned(capsys, monkeypatch, args, n, reps, sha256, threads):
    monkeypatch.setattr(power.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, out, err = invoke(capsys, "power", *args, "--seed", "20260811", "--n", str(n),
                            "--reps", str(reps), "--threads", threads, "--format", "csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_failed_power_worker_is_exit_two_in_one_line(capsys, monkeypatch):
    run_block = power._run_block

    def failing_away_from_zero(*args):
        if args[-1].start != 0:
            raise RuntimeError("worker failed")
        return run_block(*args)

    monkeypatch.setattr(power, "_run_block", failing_away_from_zero)
    monkeypatch.setattr(power.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, out, err = invoke(capsys, "power", "--alt", "t:2", "--preset", "a",
                            "--reps", "50", "--threads", "2")
    assert (code, out) == (2, "")
    assert err == ("latinhadamard: internal consistency failure: worker for "
                   "replications 25..49 failed: RuntimeError: worker failed\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_power_rejects_p_whose_x2_can_overflow_before_any_fork(capsys, monkeypatch, threads):
    # 200 / 1e-320 is infinite: X2 would be infinite for any replication
    # with a draw in the first cell, as decompose reports for such counts.
    forks = []

    def no_fork():
        forks.append(threads)
        raise OSError("no fork in this test")

    monkeypatch.setattr(power.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(power.os, "fork", no_fork)
    p = "1e-320,0.125,0.125,0.125,0.125,0.125,0.125,0.25"
    message = ("latinhadamard: error: the Pearson statistic overflows: "
               "some expected cell counts are too small\n")
    assert invoke(capsys, "power", "--alt", "cauchy", "--p", p, "--reps", "200",
                  "--format", "csv", "--threads", threads) == (1, "", message)
    assert invoke(capsys, "decompose", "--p", p,
                  "--counts", "1,25,25,25,25,25,25,49") == (1, "", message)
    assert forks == []


@pytest.mark.parametrize("argv,message", [
    (["decompose", "--p", "a", "--counts", "-1,2,3,4,5,6,7,8"], "counts must be non-negative"),
    (["decompose", "--counts", "-1", "--p", "a"], "counts must be non-negative"),
    (["decompose", "--p", "-0.5,1.5", "--counts", "1,2"], "cell probabilities must lie in (0, 1]"),
    (["decompose", "--p", "-.5,1.5", "--counts", "1,2"], "cell probabilities must lie in (0, 1]"),
    (["power", "--alt", "t:2", "--p", "-0.5,1.5"], "cell probabilities must lie in (0, 1]"),
], ids=["counts", "single-count", "p", "p-leading-dot", "power-p"])
def test_values_starting_with_a_minus_are_values(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"latinhadamard: error: {message}\n"


@pytest.mark.parametrize("command", [["construct", "--w", "1"], ["enumerate", "--w", "2"],
                                     ["algebra", "--dim", "4"], ["design", "--verify"],
                                     ["decompose", "--p", "a",
                                      "--counts", "25,25,25,25,25,25,25,25"]])
@pytest.mark.parametrize("flag", [["--seed", "3"], ["--threads", "2"]])
def test_seed_and_threads_belong_to_power_only(capsys, command, flag):
    code, out, err = invoke(capsys, *command, *flag)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


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


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"],
                         ids=["seed-2**64", "seed-minus-one"])
def test_seed_outside_one_philox_key_word_exits_1(capsys, seed):
    # a wrapped seed would print another seed's output
    code, out, err = invoke(capsys, "power", "--alt", "t:2", "--preset", "a", "--reps", "20",
                            "--seed", seed, "--format", "csv")
    assert (code, out) == (1, "")
    assert err.startswith("latinhadamard: error: master_seed ") and err.count("\n") == 1


def test_output_does_not_read_the_environment_seed(capsys, monkeypatch):
    # output is a function of argv alone: an LH_SEED in the environment
    # changes neither the seed nor the bytes
    argv = ["power", "--alt", "t:2", "--preset", "a", "--reps", "200",
            "--seed", "1", "--format", "json"]
    monkeypatch.delenv("LH_SEED", raising=False)
    code, baseline, _ = invoke(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("LH_SEED", "999")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 1
    assert out == baseline


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
    """Every matrix-file reader must answer exit 1 with one stderr line."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(entries))
    for argv in (["decompose", "--p", "a", "--counts", "25,25,25,25,25,25,25,25",
                  "--matrix", str(path)],
                 ["algebra", "--from-coloring", str(path), "--report", "zero-divisors"],
                 ["power", "--alt", "t:2", "--preset", "a", "--reps", "10",
                  "--matrix", str(path)]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("latinhadamard: error:") and err.count("\n") == 1


def test_unreadable_matrix_sources_rejected(capsys, tmp_path):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"[[1, 2], [2, \xe9]]")
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 100000 + "]" * 100000)
    for source in ("a\x00b", str(not_utf8), str(too_deep)):
        for argv in (["decompose", "--p", "a", "--counts", "25,25,25,25,25,25,25,25",
                      "--matrix", source],
                     ["algebra", "--from-coloring", source]):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("latinhadamard: error: cannot read matrix file")
            assert err.count("\n") == 1


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


def test_sign_flipped_matrix_file_rejected(capsys, tmp_path):
    # A Latin square whose signs are no longer Latin-Hadamard: only the
    # basis builder, shared by decompose and power, can catch it.
    entries = _canonical_entries()
    entries[1][2] = -entries[1][2]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(entries))
    for argv in (["decompose", "--p", "a", "--counts", "25,25,25,25,25,25,25,25",
                  "--matrix", str(path)],
                 ["power", "--alt", "t:2", "--preset", "a", "--reps", "10",
                  "--matrix", str(path)]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (
            1, "", "latinhadamard: error: signed square is not a Latin-Hadamard matrix\n")


def test_algebra_from_large_coloring_hits_size_guard(capsys, tmp_path):
    # a valid 256x256 table, but its zero-divisor scan is above the kernel's guard
    H = latinhadamard.color(construct_latin_square(8),
                            (1,) * latinhadamard.num_free_choices(8))
    path = tmp_path / "all_plus_256.json"
    path.write_text(json.dumps(H.signed_entries().tolist()))
    code, out, err = invoke(capsys, "algebra", "--from-coloring", str(path),
                            "--report", "zero-divisors")
    assert (code, out) == (1, "")
    assert err.startswith("latinhadamard: error:") and "n <= 128" in err
    assert err.count("\n") == 1


def test_relabelled_tables_rejected_by_algebra(capsys, tmp_path):
    # admissible signs, so only the table's own symbol checks catch these
    swap = np.array([0, 1, 3, 2, 4, 5, 6, 7, 8])
    relabelled = np.sign(SIGNED_SQUARE_8) * swap[np.abs(SIGNED_SQUARE_8)]
    cyclic = [[1, 2, 3, 4], [2, -3, 4, 1], [3, 4, -1, 2], [4, 1, 2, -3]]
    for entries, message in ((relabelled.tolist(), "e_1 must act as a two-sided unit"),
                             (cyclic, "must square to -e_1")):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(entries))
        code, out, err = invoke(capsys, "algebra", "--from-coloring", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("latinhadamard: error:") and message in err
        assert err.count("\n") == 1


# SHA-256 of the JSON output recorded before the zero-divisor scan and the
# orthogonality check moved onto the AB-BA quad kernel; pins the order.
PINNED_OUTPUTS = {
    "algebra-dim16": ("algebra --dim 16 --report zero-divisors --format json",
                      "1653c12325794eaf3e2f7bc4ebe32a0b8d3462bfe5e23d92f340ceeddf252e20"),
    "algebra-dim32": ("algebra --dim 32 --report zero-divisors --format json",
                      "3e964ebf6b0ae62cd2afe8886b37b89bd37d7354e6f26ca944ec431ff1fe0816"),
    "enumerate-w3": ("enumerate --w 3 --format json",
                     "a16090c692847cd2fac51c616d8efdd6ddcad1f0acd5adf52e211102cab679cc"),
    "enumerate-w4-json": ("enumerate --w 4 --format json",
                          "73528b6c65d02f9a255e5ac4f22d797e6808faa267464a2a0c8b9bb3e51e0888"),
    "enumerate-w4-csv": ("enumerate --w 4 --format csv",
                         "781d437aeae1cd5bb0532498298baf4b91ba3310475529d764e252af25e8882c"),
    # Recorded while the order-16 design was still a transcribed table.
    "design-show-json": ("design --show --format json",
                         "ea36e76240ccbf7ca5657a7dbf67bf4eac80561f56af1abf64bf67f4c5c8d3c4"),
    "design-show": ("design --show",
                    "ce2a661ee0494b739943bda74c34ed2e39b911177b3a3bdbdd151092cb48aef1"),
    "design-verify": ("design --verify",
                      "185cb0ca998dd930fb2a2b26092ec80b952f3c6122f58d968ea5a78288638f57"),
    "design-eigenbasis-equal": ("design --eigenbasis --pvars " + ",".join(["0.0625"] * 9),
                                "a8f7466a7b88e0bd24e39b03defdf6c6174b7e5971b2b2a673a991e453d80c04"),
    "design-eigenbasis-mixed": ("design --eigenbasis --pvars "
                                "0.1,0.05,0.06,0.07,0.05,0.04,0.06,0.07,0.1",
                                "5727dabc645e5c320f4a4e72a70f6d8623652d4cb974f9cafdfb546fd84cb9db"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_bytes_pinned(capsys, name):
    argv, digest = PINNED_OUTPUTS[name]
    code, out, _ = invoke(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the 16 outputs for builtin:0..15, concatenated, recorded
# while builtin:<i> still enumerated and checked all 16 colorings.
BUILTIN_PINS = {
    "decompose": ("decompose --p b --counts 10,20,30,40,40,30,20,10 --matrix builtin:{}",
                  "618b0c306239f813f4eca0d59dc3b242cdf2235fe80f4bc0de86b9962ab00098"),
    "algebra": ("algebra --from-coloring builtin:{} --report table --format json",
                "e765cb2117145ebbf1dfe9a857dee3b41620e71452bf6466646c0e62498af510"),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_PINS))
def test_builtin_outputs_pinned(capsys, name):
    argv, digest = BUILTIN_PINS[name]
    outputs = []
    for i in range(16):
        code, out, _ = invoke(capsys, *argv.format(i).split())
        assert code == 0
        outputs.append(out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == digest


def test_builtin_index_is_the_oracle_survivor_with_that_index():
    survivors = [H for H in enumerate_colorings(construct_latin_square(3))
                 if gram_is_latin_hadamard(H)]
    assert len(survivors) == 16
    for i, H in enumerate(survivors):
        assert cli._load_matrix(f"builtin:{i}") == H


@pytest.mark.parametrize("spec,message", [
    ("builtin:16", "builtin index must be 0..15, got 16"),
    ("builtin:-1", "builtin index must be 0..15, got -1"),
    ("builtin:x", "bad builtin matrix index 'x'"),
    # int() alone reads each of these as an index
    ("builtin:1_0", "bad builtin matrix index '1_0'"),
    ("builtin:\u0663", "bad builtin matrix index '\u0663'"),
    ("builtin: 7", "bad builtin matrix index ' 7'"),
    ("builtin:+3", "bad builtin matrix index '+3'"),
    ("builtin:" + "1" * 5000, f"bad builtin matrix index '{'1' * 5000}'"),
], ids=lambda v: v if len(v) < 40 else f"{v[:20]}...")
def test_builtin_index_errors(capsys, spec, message):
    for argv in (["decompose", "--p", "a", "--counts", "25,25,25,25,25,25,25,25",
                  "--matrix", spec],
                 ["algebra", "--from-coloring", spec],
                 ["power", "--alt", "t:2", "--preset", "a", "--reps", "10",
                  "--matrix", spec]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (1, "", f"latinhadamard: error: {message}\n")


def test_builtin_squares_are_built_once_and_read_only():
    square = construct_latin_square(3)
    for i in range(16):
        H = cli._load_matrix(f"builtin:{i}")
        assert cli._load_matrix(f"builtin:{i}") is H
        assert H == coloring.color(square, coloring.choices_from_bitstring(format(i, "04b")))
        for arr in (H.signs, H.square.entries):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = arr[0, 0]
    assert cli._load_matrix(None) is cli._load_matrix("builtin:13")
    assert cli._load_matrix(None) is canonical_signed_square_8()
    assert cli._load_matrix("builtin:15") is alternate_signed_square_8()
    for spec, message in (("builtin:16", "builtin index must be 0..15, got 16"),
                          ("builtin:-1", "builtin index must be 0..15, got -1"),
                          ("builtin:x", "bad builtin matrix index 'x'")):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            cli._load_matrix(spec)
    assert chisq._builtin_square.cache_info().currsize <= 16


def _mixed_session(tmp_path):
    """One call of every subcommand, help, usage errors, --out, a --seed
    and a malformed matrix file, each as (exit code, stdout, stderr,
    --out file text)."""
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps([[1, 2], [2]]))
    out_file = tmp_path / "out.txt"
    power_argv = ["power", "--alt", "t:2", "--preset", "a", "--reps", "50", "--format", "json"]
    calls = [
        ["construct", "--w", "2", "--format", "csv"],
        ["construct", "--w", "1", "--format", "json", "--out", str(out_file)],
        ["enumerate", "--w", "2", "--valid-only"],
        ["algebra", "--dim", "8", "--report", "zero-divisors", "--format", "csv"],
        ["algebra", "--from-coloring", "builtin:5"],
        ["design", "--verify"],
        ["decompose", "--p", "b", "--counts", "10,20,30,40,40,30,20,10"],
        ["decompose", "--p", "a", "--counts", "25,25,25,25,25,25,25,25",
         "--matrix", "builtin:2", "--out", str(out_file)],
        ["decompose", "--p", "a", "--counts", "25,25,25,25,25,25,25,25",
         "--matrix", str(ragged)],
        power_argv + ["--seed", "999"],
        power_argv,
        ["--help"],
        ["power", "-h"],
        ["construct", "--w", "2", "--bogus"],
        ["decompose", "--p", "a"],
        [],
        ["construct", "--w", "2"],
    ]
    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        results.append((code, out.getvalue(), err.getvalue(), written))
    return results


def test_cached_parser_carries_nothing_between_calls(tmp_path, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    first = _mixed_session(tmp_path)
    assert _mixed_session(tmp_path) == first
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert _mixed_session(tmp_path) == first
    codes = [code for code, *_ in first]
    assert codes == [0] * 8 + [1] + [0] * 4 + [1] * 3 + [0]
    assert json.loads(first[9][1])["config"]["seed"] == 999
    assert json.loads(first[10][1])["config"]["seed"] == 0
    assert first[1][3] is not None and first[7][3] is not None


def _assert_decompose_answers(spec):
    """decompose --matrix <spec> exits 0 with a partition, or 1 with one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # --matrix=<spec>, so that a spec starting with "-" is not read as a flag
        code = run(["decompose", "--p", "b", "--counts", "10,20,30,40,40,30,20,10",
                    f"--matrix={spec}"])
    if code == 0:
        assert json.loads(out.getvalue())["sum_check"] == pytest.approx(0, abs=1e-9)
    else:
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("latinhadamard: error:")
        assert err.getvalue().count("\n") == 1


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=9) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=30)
_MATRIX_LIKE = st.lists(st.lists(st.integers(-9, 9) | st.floats(-9, 9), min_size=1,
                                 max_size=9), min_size=1, max_size=9)


def _edited_builtin(index_and_edits):
    """A builtin matrix's entries with a few cells overwritten."""
    index, edits = index_and_edits
    entries = cli._load_matrix(f"builtin:{index}").signed_entries().tolist()
    for i, j, value in edits:
        entries[i][j] = value
    return entries


_NEAR_VALID = st.tuples(st.integers(0, 15),
                        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                           st.integers(-9, 9)), max_size=3)
                        ).map(_edited_builtin)


@_PROPERTY
@given(spec=st.one_of(st.text(), st.integers().map(lambda i: f"builtin:{i}"),
                      st.text().map(lambda t: f"builtin:{t}")))
def test_decompose_matrix_spec_text_never_raises(spec):
    _assert_decompose_answers(spec)


@_PROPERTY
@given(payload=st.one_of(_JSON, _MATRIX_LIKE, _NEAR_VALID, _NEAR_VALID.map(lambda m: {"H": m})))
def test_decompose_matrix_file_never_raises(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        _assert_decompose_answers(str(path))


def test_installed_entry_point_runs():
    # The child imports the package under test, installed or not.
    src = str(Path(latinhadamard.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "latinhadamard.cli",
                           "construct", "--w", "1", "--format", "json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"] == [[1, 2], [2, 1]]


def test_single_worker_power_run_imports_no_scipy_and_no_pools():
    # At alpha 0.05 with a normal null the critical values and quantiles
    # are embedded or come from the standard library, and one worker
    # forks nothing: scipy and the process-pool modules stay unloaded.
    src = str(Path(latinhadamard.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\n"
              "import latinhadamard.cli as cli\n"
              "assert cli.run(['power', '--alt', 't:2', '--preset', 'a', '--reps', '50']) == 0\n"
              "print(sorted({'scipy', 'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _one_error_line(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("latinhadamard: error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", ["", "construct --w 2 --bogus", "algebra --dim 7",
                                  "power", "decompose --p a", "construct --w x"])
def test_usage_errors_are_one_line(capsys, argv):
    _one_error_line(*invoke(capsys, *argv.split()))


@pytest.mark.parametrize("argv", [["--help"], ["power", "-h"], ["design", "--help"]])
def test_help_exits_zero_on_stdout(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: latinhadamard")


def test_unwritable_output_file_is_one_line(capsys, tmp_path):
    for target in (tmp_path / "missing" / "out.json", tmp_path, "a\x00b"):
        code, out, err = invoke(capsys, "construct", "--w", "1", "--out", str(target))
        _one_error_line(code, out, err)
        assert "cannot write output file" in err


@pytest.mark.parametrize("argv", [["algebra", "--dim", "16", "--from-coloring", "builtin:3"],
                                  ["algebra", "--report", "table"]])
def test_algebra_takes_exactly_one_source(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    _one_error_line(code, out, err)
    assert "exactly one of --dim and --from-coloring" in err


@pytest.mark.parametrize("counts", ["100000000000000000000000,1,1,1,1,1,1,1",
                                    "9223372036854775807,9223372036854775807,1,1,1,1,1,1"])
def test_counts_beyond_int64_are_one_line(capsys, counts):
    code, out, err = invoke(capsys, "decompose", "--p", "a", "--counts", counts)
    _one_error_line(code, out, err)
    assert "2**63 - 1" in err


@pytest.mark.parametrize("argv", [
    ["decompose", "--p", "1e308,1e308", "--counts", "1,1"],
    ["design", "--eigenbasis", "--pvars", ",".join(["1e308"] * 9)],
    ["decompose", "--p", ",".join(["1"] + ["1e-320"] * 7), "--counts", "1,1,1,1,1,1,1,1"],
])
def test_extreme_probabilities_are_one_line_without_warnings(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, *argv)
    _one_error_line(code, out, err)
    assert [str(w.message) for w in caught] == []


def test_probability_sum_message_shows_a_plain_float(capsys):
    code, out, err = invoke(capsys, "decompose", "--p", "0.5,0.1", "--counts", "1,1")
    assert (code, out, err) == (1, "", "latinhadamard: error: probabilities must sum to 1 "
                                       "(got 0.6)\n")


@pytest.mark.parametrize("command,w", [("enumerate", 5), ("enumerate", 11),
                                       ("construct", 7), ("construct", 20000)])
def test_w_guard_fires_before_any_square_is_built(capsys, monkeypatch, command, w):
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard must fire before the square is built")

    monkeypatch.setattr(cli, "construct_latin_square", unreachable)
    code, out, err = invoke(capsys, command, "--w", str(w))
    _one_error_line(code, out, err)
    assert "limited" in err


# A bounded argv grammar over all six subcommands.  Each value is valid
# three times in four and otherwise malformed or extreme; "{tmp}" is a
# fresh directory per example that holds a valid 8x8 matrix file.
def _mostly(valid, invalid):
    return st.integers(0, 3).flatmap(lambda i: valid if i else invalid)


def _joined(tokens, min_size, max_size):
    return st.lists(tokens, min_size=min_size, max_size=max_size).map(",".join)


_FLOAT_TOKENS = st.sampled_from(["0.125", "0.5", "0.25", "0.0625", "0.1", "1", "0", "-0.5",
                                 "2", "1e308", "1e-320", "nan", "inf", "x", ""])
_PROBABILITIES = _mostly(
    st.sampled_from(["a", "b", "c", ",".join(["0.125"] * 8),
                     "0.05,0.1,0.15,0.2,0.2,0.15,0.1,0.05"]),
    st.sampled_from(["d", "0.5,0.5", ",".join(["1"] + ["1e-320"] * 7)])
    | _joined(_FLOAT_TOKENS, 1, 9))
_COUNTS = _mostly(
    _joined(st.integers(0, 500).map(str), 8, 8),
    _joined(st.integers(0, 500).map(str)
            | st.sampled_from(["-1", "1.5", "x", "", str(2 ** 62), str(2 ** 63 - 1),
                               str(2 ** 63), str(10 ** 23)]), 1, 9))
_MATRIX_SPECS = _mostly(st.sampled_from(["builtin:0", "builtin:13", "builtin:15",
                                         "{tmp}/matrix.json"]),
                        st.sampled_from(["builtin:16", "builtin:x", "{tmp}/missing.json",
                                         "{tmp}"]))
_DISTRIBUTIONS = _mostly(st.sampled_from(["normal:0,1", "normal:0,1.3", "normal:0.3,1", "t:2",
                                          "cauchy", "gamma:2,0.5", "gamma:5,0.2"]),
                         st.sampled_from(["normal:0,-1", "normal:0,nan", "t:0", "gamma:-1,1",
                                          "bogus", "normal:x"]))


def _formats(*valid):
    return _mostly(st.sampled_from(valid), st.sampled_from(["json", "csv", "pretty", "table",
                                                            "xml"]))


def _ints(low, high):
    return _mostly(st.integers(low, high).map(str), st.sampled_from(["0", "-1", "x", ""]))


_FLAG = st.just(True)
# flag: (values, shown out of four)
_GRAMMAR = {
    "construct": {"--w": (_ints(0, 6), 4), "--format": (_formats("json", "csv", "pretty"), 2)},
    "enumerate": {"--w": (_ints(0, 6), 4), "--valid-only": (_FLAG, 2),
                  "--format": (_formats("json", "csv"), 2)},
    "algebra": {"--dim": (_mostly(st.sampled_from(["2", "4", "8", "16", "32"]),
                                  st.sampled_from(["1", "64", "x"])), 2),
                "--from-coloring": (_MATRIX_SPECS, 2),
                "--report": (_mostly(st.sampled_from(["table", "zero-divisors"]),
                                     st.just("bogus")), 2),
                "--format": (_formats("json", "csv", "pretty"), 2)},
    "design": {"--show": (_FLAG, 1), "--verify": (_FLAG, 1), "--eigenbasis": (_FLAG, 2),
               "--pvars": (_mostly(st.sampled_from([",".join(["0.0625"] * 9),
                                                   "0.1,0.05,0.06,0.07,0.05,0.04,0.06,0.07,0.1"]),
                                   _joined(_FLOAT_TOKENS, 1, 10)), 3),
               "--format": (_formats("json", "pretty"), 2)},
    "decompose": {"--p": (_PROBABILITIES, 4), "--counts": (_COUNTS, 4),
                  "--matrix": (_MATRIX_SPECS, 2), "--format": (_formats("json"), 1)},
    "power": {"--alt": (_DISTRIBUTIONS, 4), "--null": (_DISTRIBUTIONS, 1),
              "--preset": (_mostly(st.sampled_from(["a", "b", "c"]), st.just("d")), 2),
              "--p": (_PROBABILITIES, 2), "--n": (_ints(1, 50), 3),
              "--reps": (_ints(1, 20), 4),
              "--alpha": (_mostly(st.sampled_from(["0.05", "0.01", "0.5"]),
                                  st.sampled_from(["0", "1", "nan", "x"])), 1),
              "--seed": (st.integers(-5, 2 ** 70).map(str), 2),
              "--threads": (_ints(1, 2), 2), "--matrix": (_MATRIX_SPECS, 1),
              "--format": (_formats("table", "json", "csv"), 2)},
}
_OUT = _mostly(st.just("{tmp}/out.txt"),
               st.sampled_from(["{tmp}/missing/out.txt", "{tmp}", "a\x00b"]))


@st.composite
def _argv(draw, command):
    argv = [command]
    for flag, (values, shown) in {**_GRAMMAR[command], "--out": (_OUT, 1)}.items():
        if draw(st.integers(0, 3)) < shown or shown == 4 and draw(st.integers(0, 9)):
            value = draw(values)
            argv += [flag] if value is True else [flag, value]
    argv += draw(st.sampled_from([[]] * 14 + [["--bogus"], ["extra"]]))
    return argv


@pytest.mark.parametrize("command", sorted(_GRAMMAR))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_exit_is_clean(command, data):
    """Exit 0 with nothing on stderr, or exit 1 or 2 with one stderr line
    and nothing on stdout; never a traceback or a warning."""
    argv = data.draw(_argv(command))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "matrix.json").write_text(json.dumps(_canonical_entries()))
        argv = [token.replace("{tmp}", tmp) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("latinhadamard:")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
