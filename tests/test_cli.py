import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from symfusion import Partition, certify, errors, load_ensemble, single_layer_ensemble
from symfusion import cli
from symfusion import constructions as cons
from symfusion.cli import main
from symfusion.ensemble_io import save_ensemble

from oracles import synthesis_csv, to_json_dict


SEARCH_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "search_sha256.json"
SINGLE_LAYER = ("construct", "single-layer", "--lambda", "3,2", "--mu", "2,2")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_single_layer_5_2_5(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        code, stdout, _ = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            "--out", str(out),
        )
        assert code == 0
        assert "EITFF_R(5, 2, 5)" in stdout
        e = load_ensemble(out)
        assert (e.d, e.r, e.n) == (5, 2, 5)
        assert e.meta["construction"] == "single_layer"

    def test_alternating_8_3_6(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code, stdout, _ = run(
            capsys, "construct", "alternating", "--mu", "3,1,1", "--delta", "0",
            "--epsilon", "+", "--out", str(out),
        )
        assert code == 0
        assert "EITFF_R(8, 3, 6)" in stdout
        assert load_ensemble(out).field == "R"

    def test_multi_layer_delta(self, capsys):
        code, stdout, _ = run(
            capsys, "construct", "multi-layer", "--mu", "3,1,1", "--delta", "1",
        )
        assert code == 0
        assert "EITFF_R(20, 6, 6)" in stdout

    def test_trivial_subspace_is_user_error(self, capsys):
        code, _, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "2", "--mu", "1",
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "TrivialSubspaceError"

    def test_resource_cap_exit_code(self, capsys):
        code, _, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            "--max-dim", "4",
        )
        assert code == 3
        assert json.loads(stderr)["error"] == "ResourceLimitError"

    def test_prediction_mismatch_exit_code(self, capsys):
        # an absurd tolerance makes the equichordal-only pair look isoclinic,
        # which contradicts the theoretical prediction
        code, _, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "4,2,2", "--mu", "3,2,2",
            "--tolerance", "10",
        )
        assert code == 4
        assert "predicts ECTFF" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("argv", [
        ("multi-layer", "--mu", "3,1,1", "--delta", "1"),
        ("multi-layer", "--mu", "2,2", "--delta", "0"),
        ("alternating", "--mu", "3,1,1", "--delta", "0"),
        ("alternating", "--mu", "4,1,1,1", "--delta", "1"),
        ("alternating", "--mu", "3,1,1", "--layers", "1"),  # the covers of --delta 0
        ("single-layer", "--lambda", "3,2", "--mu", "2,2"),
        ("single-layer", "--lambda", "4,3,2", "--mu", "4,2,2"),  # III(1,2,2)
    ], ids=" ".join)
    @pytest.mark.parametrize("shift, code", [(0.5e-9, 0), (2e-9, 4), (-2e-9, 4)])
    def test_parity_alpha_is_checked_against_the_exact_certificate(self, capsys, monkeypatch, argv, shift, code):
        # the classification alone passed an alpha the exact certificate contradicts; a
        # single layer's alpha was not checked at all
        real_certify = cli.certify

        def shifted(e, tol):
            report = real_certify(e, tol)
            return dataclasses.replace(report, isoclinism_alpha=report.isoclinism_alpha + shift)

        monkeypatch.setattr(cli, "certify", shifted)
        got, stdout, stderr = run(capsys, "construct", *argv)
        assert got == code and stdout.startswith("EITFF_")
        if code == 4:
            assert "the exact certificate gives" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("argv, code, error", [
        (("single-layer", "--lambda", "99999999999999999999,1", "--mu", "99999999999999999999"), 3, "ResourceLimitError"),
        (("single-layer", "--lambda", "3000000,1", "--mu", "3000000"), 3, "ResourceLimitError"),
        (("single-layer", "--lambda", "3000000", "--mu", "2999999"), 2, "TrivialSubspaceError"),
        (("multi-layer", "--mu", "3000000", "--delta", "0"), 3, "ResourceLimitError"),
        (("multi-layer", "--mu", "3000000", "--delta", "1"), 3, "ResourceLimitError"),
        (("single-layer", "--lambda", "3000000,1", "--mu", "3000000", "--transversal", "cycle"), 3,
         "ResourceLimitError"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_a_far_too_large_n_is_refused_at_once(self, capsys, argv, code, error):
        # the cap was checked after n!: an OverflowError traceback, or minutes of work; a
        # one-row selection had no cap at all, and the cycle was built before the cap
        start = time.perf_counter()
        got, stdout, stderr = run(capsys, "construct", *argv)
        assert time.perf_counter() - start < 1.0
        assert (got, stdout) == (code, "")
        assert json.loads(stderr)["error"] == error

    def test_equichordal_only_matches_prediction(self, capsys):
        code, stdout, _ = run(
            capsys, "construct", "single-layer", "--lambda", "4,2,2", "--mu", "3,2,2",
        )
        assert code == 0
        assert "ECTFF_R(56, 21, 8)" in stdout

    def test_cycle_transversal(self, capsys):
        code, stdout, _ = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            "--transversal", "cycle",
        )
        assert code == 0
        assert "EITFF_R(5, 2, 5)" in stdout

    def test_file_transversal_builds_what_its_permutations_say(self, tmp_path, capsys):
        # a file holding the cycle's powers gives the cycle's ensemble file, byte for byte
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(["(1 2 3 4 5)", "(1 3 5 2 4)", "(1 4 2 5 3)", "(1 5 4 3 2)", "()"]))
        outputs = []
        for transversal in ("cycle", f"@{spec}"):
            out = tmp_path / "e.json"
            code, stdout, _ = run(capsys, *SINGLE_LAYER, "--transversal", transversal, "--out", str(out))
            assert code == 0 and "EITFF_R(5, 2, 5)" in stdout
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["metadata"]["transversal"] == json.loads(spec.read_text())

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, _, _ = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            "--csv", str(out),
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 5 and len(rows[0].split(",")) == 10
        assert out.read_bytes() == synthesis_csv(single_layer_ensemble(Partition((3, 2)), Partition((2, 2))).synthesis())

    def test_csv_reads_back_bit_identical(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, _, _ = run(capsys, *SINGLE_LAYER, "--csv", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            back = np.array([[float(v) for v in row] for row in csv.reader(fh)])
        P = single_layer_ensemble(Partition((3, 2)), Partition((2, 2))).synthesis()
        assert back.shape == P.shape and back.tobytes() == P.tobytes()

    def test_csv_of_complex_ensemble_is_user_error(self, tmp_path, capsys):
        code, stdout, stderr = run(
            capsys, "construct", "alternating", "--mu", "4,1,1,1", "--delta", "1",
            "--csv", str(tmp_path / "a.csv"),
        )
        assert (code, stdout) == (2, "")
        assert json.loads(stderr)["error"] == "EnsembleFormatError"

    def test_csv_of_complex_ensemble_writes_no_file(self, tmp_path, capsys):
        out, table = tmp_path / "o.json", tmp_path / "x.csv"
        code, stdout, stderr = run(
            capsys, "construct", "alternating", "--mu", "4,1,1,1", "--delta", "1",
            "--out", str(out), "--csv", str(table),
        )
        assert (code, stdout) == (2, "")
        assert json.loads(stderr)["error"] == "EnsembleFormatError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("target, error", [
        ("missing/e", "FileNotFoundError"),
        (".", "IsADirectoryError"),
    ])
    def test_unwritable_output_is_user_error(self, tmp_path, capsys, flag, target, error):
        code, stdout, stderr = run(capsys, *SINGLE_LAYER, flag, str(tmp_path / target))
        assert (code, stdout) == (2, "")
        assert json.loads(stderr)["error"] == error

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("target, error", [
        ("missing/e", "FileNotFoundError"),
        (".", "IsADirectoryError"),
        ("plain/e", "NotADirectoryError"),
    ])
    def test_unwritable_output_fails_before_any_work(self, tmp_path, capsys, monkeypatch, flag, target, error):
        (tmp_path / "plain").write_text("")
        calls = []

        def builder(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the ensemble was built before the destination was checked")

        monkeypatch.setattr(cons, "single_layer_ensemble", builder)
        code, stdout, stderr = run(capsys, *SINGLE_LAYER, flag, str(tmp_path / target))
        assert (code, stdout, calls) == (2, "", [])
        with pytest.raises(OSError) as opened:  # the error opening the file gives
            open(str(tmp_path / target), "w")
        assert type(opened.value).__name__ == error
        assert json.loads(stderr) == {"error": error, "message": str(opened.value)}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_failed_build_leaves_no_output_file(self, tmp_path, capsys, flag):
        out = tmp_path / "e"
        code, _, stderr = run(capsys, "construct", "single-layer", "--lambda", "2", "--mu", "1", flag, str(out))
        assert code == 2
        assert json.loads(stderr)["error"] == "TrivialSubspaceError"
        assert not out.exists()

    def test_generic_spec(self, tmp_path, capsys):
        s3 = np.sqrt(3.0)
        spec = {
            "field": "R",
            "generators": {
                "r": [[-0.5, -s3 / 2], [s3 / 2, -0.5]],
                "f": [[1.0, 0.0], [0.0, -1.0]],
            },
            "transversal_words": [["r"], ["r", "r"], []],
            "isometry": [[0.0], [1.0]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, stdout, _ = run(capsys, "construct", "generic", "--spec", str(path))
        assert code == 0
        assert "EITFF_R(2, 1, 3)" in stdout


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_importing_the_cli_leaves_orjson_unloaded():
    # only saving or loading a file imports orjson, so no other command pays for it at startup
    code = "import sys, symfusion.cli; print('orjson' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


class TestClosedStdout:
    def test_reader_gone_is_a_quiet_success(self):
        # `symfusion construct ... --json | head -c 10`, with the reader gone before
        # the first write: exit 0 and nothing on stderr, not even at shutdown
        env = src_env()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "symfusion.cli", "construct", "alternating", "--mu", "4,1,1,1",
                 "--delta", "1", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, b"")


class TestCertify:
    def test_round_trip_report_is_bitwise_identical(self, tmp_path, capsys):
        e = single_layer_ensemble(Partition((3, 2)), Partition((2, 2)))
        path = tmp_path / "e.json"
        save_ensemble(e, path)
        in_memory = certify(e).to_json()
        code, stdout, _ = run(capsys, "certify", "--in", str(path))
        assert code == 0
        assert stdout.strip() == in_memory.strip()

    def test_verbatim_5_2_5_matrix(self, tmp_path, capsys):
        s2, s3, s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
        synth = np.array([
            [4 * s6, 0, -2 * s6, -6 * s2, 4 * s6, 0, 0, 0, 0, 0],
            [-s3, 9, -4 * s3, 6, 2 * s3, 0, -3 * s3, -9, 0, 0],
            [-3, -3 * s3, -6, 0, 0, 6 * s3, -9, 3 * s3, 0, 0],
            [-3, -3 * s3, 6, 0, 6, 0, -3, -3 * s3, 12, 0],
            [-3 * s3, 3, 0, -6, 0, -6, -3 * s3, 3, 0, 12],
        ]) / 12
        data = {
            "field": "R", "d": 5, "r": 2, "n": 5,
            "isometries": [synth[:, 2 * k : 2 * k + 2].tolist() for k in range(5)],
            "metadata": {"source": "published synthesis matrix"},
        }
        path = tmp_path / "verbatim.json"
        path.write_text(json.dumps(data))
        code, stdout, _ = run(capsys, "certify", "--in", str(path))
        assert code == 0
        report = json.loads(stdout)
        assert report["classification"] == "EITFF"
        assert abs(report["isoclinism_alpha"] - 0.25) < 1e-9

    def test_perturbed_file_not_eitff(self, tmp_path, capsys):
        e = single_layer_ensemble(Partition((3, 2)), Partition((2, 2)))
        data = to_json_dict(e)
        data["isometries"][0][0][0] += 1e-3
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        code, stdout, _ = run(capsys, "certify", "--in", str(path))
        assert code == 0
        assert json.loads(stdout)["classification"] != "EITFF"

    def test_non_isometry_block_is_load_error(self, tmp_path, capsys):
        e = single_layer_ensemble(Partition((3, 2)), Partition((2, 2)))
        data = to_json_dict(e)
        data["isometries"][0][0] = [0.0, 0.0]  # kill a row: far from isometry?
        # make it decisively non-isometric: duplicate a column
        for row in data["isometries"][1]:
            row[1] = row[0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, stderr = run(capsys, "certify", "--in", str(path))
        assert code == 2
        assert json.loads(stderr)["error"] == "EnsembleFormatError"


class TestSearchAndTable:
    def test_search_streams_certificates(self, capsys):
        code, stdout, _ = run(capsys, "search-isoclinic", "--max-n", "13")
        assert code == 0
        lines = [json.loads(line) for line in stdout.strip().splitlines()]
        mus = {entry["mu"] for entry in lines}
        assert "2,2" in mus and "3,1,1" in mus and "5,3,2,1,1" in mus
        entry = next(x for x in lines if x["mu"] == "5,3,2,1,1" and x["delta"] == 0)
        assert entry["d"] == 42900 and entry["r"] == 7700 and entry["n"] == 13
        assert entry["alpha"] == "1/9"

    def test_table_sn(self, capsys):
        code, stdout, _ = run(capsys, "table", "sn", "--max-dim", "500", "--json")
        assert code == 0
        rows = {(r["d"], r["r"], r["n"]) for r in json.loads(stdout)}
        for expected in [(5, 2, 5), (14, 5, 7), (16, 6, 6), (42, 14, 9),
                         (90, 20, 8), (168, 56, 9), (210, 42, 10), (448, 70, 10)]:
            assert expected in rows

    def test_table_an(self, capsys):
        code, stdout, _ = run(capsys, "table", "an", "--max-dim", "500", "--json")
        assert code == 0
        rows = [(r["field"], r["d"], r["r"], r["n"], r["alpha"]) for r in json.loads(stdout)]
        assert rows == [
            ("R", 8, 3, 6, "1/4"),
            ("C", 35, 10, 8, "9/49"),
            ("R", 126, 35, 10, "16/81"),
            ("C", 462, 126, 12, "25/121"),
        ]

    def test_table_alpha_consistency(self, capsys):
        from fractions import Fraction

        code, stdout, _ = run(capsys, "table", "sn", "--max-dim", "2200", "--json")
        assert code == 0
        for row in json.loads(stdout):
            alpha = Fraction(row["alpha"])
            assert alpha == Fraction(
                row["r"] * row["n"] - row["d"], row["d"] * (row["n"] - 1)
            )

    @pytest.mark.parametrize("group, max_dim, cap", [("sn", 20, 16), ("sn", 126, 16), ("an", 126, 126), ("an", 126, 35)])
    def test_table_certified_flag(self, capsys, group, max_dim, cap):
        # the an rows build the alternating halves, real and complex; a row above the bound is "-"
        code, stdout, _ = run(capsys, "table", group, "--max-dim", str(max_dim), "--certify-max-dim", str(cap), "--json")
        assert code == 0
        rows = json.loads(stdout)
        assert [r["certified"] for r in rows] == [True if r["d"] <= cap else None for r in rows]

    @pytest.mark.parametrize("group", ["sn", "an"])
    def test_row_whose_build_fails_is_certified_no(self, capsys, monkeypatch, group):
        def failing(*args, **kwargs):
            raise errors.NotIsometryError("block 1 fails isometry")

        monkeypatch.setattr(cons, "single_layer_ensemble", failing)
        monkeypatch.setattr(cons, "alternating_ensemble", failing)
        code, stdout, _ = run(capsys, "table", group, "--max-dim", "35", "--certify-max-dim", "35")
        assert code == 0
        rows = stdout.splitlines()[1:]
        assert rows and all(row.split()[-1] == "no" for row in rows)

    def test_row_above_the_construction_cap_is_not_attempted(self, capsys, monkeypatch):
        # III(2,2,2) has d = 8580 > DEFAULT_MAX_DIM: the cap refuses it unbuilt
        row = next(r for r in cons.sn_table(9000) if (r.family, r.a, r.b, r.c) == ("III", 2, 2, 2))
        assert row.d == 8580
        monkeypatch.setattr(cons, "sn_table", lambda max_dim: [row])
        code, stdout, _ = run(capsys, "table", "sn", "--certify-max-dim", "9000", "--json")
        assert code == 0
        assert json.loads(stdout)[0]["certified"] is None
        code, stdout, _ = run(capsys, "table", "sn", "--certify-max-dim", "9000")
        assert code == 0
        assert stdout.splitlines()[1].split()[-1] == "-"

    # exact integers and fractions only, so the bytes do not depend on the platform;
    # the searches are the benchmark's record for N = 12..22, read here and never rewritten.
    # N = 30 and N = 34 (604 records) were checked against the per-parity Fraction loop
    # _two_certificate_search (tests/test_constructions.py) before they were pinned.
    GOLDEN_SHA256 = {
        ("table", "sn", "--max-dim", "100000", "--json"):
            "5eff01ab10446d2bb9144cfcb54c4ab416a3def0edb2eb9f3320464c135afac6",
        ("table", "an", "--max-dim", "100000", "--json"):
            "44694eb93f14558a51167a779141fc1b38b503adc2eb49692ec5d4a2a34a9216",
        ("search-isoclinic", "--max-n", "30"):
            "1ff9f7c13d97cfd052b4682999c8c62b096ff72676c33c479c6d31ab3294fc3e",
        ("search-isoclinic", "--max-n", "34"):
            "ece4f8b877aa45b34879f4794e8f5935c977bc46f5f87e546a13a7972d27cb33",
        **{
            ("search-isoclinic", "--max-n", n): digest
            for n, digest in json.loads(SEARCH_DIGESTS.read_text())["sha256"].items()
        },
    }

    @pytest.mark.parametrize("argv", GOLDEN_SHA256)
    def test_exact_output_matches_golden(self, capsys, argv):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.GOLDEN_SHA256[argv]


class TestBadInput:
    def test_non_integer_partition_is_user_error(self, capsys):
        code, _, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "3,x", "--mu", "2,2",
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "ParseError"

    # each was read as (3,2), the empty part dropped
    @pytest.mark.parametrize("lam", ["3,,2", ",3,2", "3,2,"])
    def test_empty_partition_part_is_user_error(self, capsys, lam):
        code, stdout, stderr = run(capsys, "construct", "single-layer", "--lambda", lam, "--mu", "2,2")
        assert code == 2 and stdout == ""
        assert json.loads(stderr)["error"] == "ParseError"

    def test_non_integer_transversal_is_user_error(self, tmp_path, capsys):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(["()", "(1 x)", "(1 3)", "(1 4)", "(1 5)"]))
        code, _, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            "--transversal", f"@{spec}",
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "ParseError"

    # "(1 1)(1 5)" would otherwise read as a valid t_1 = (1 5), the stray cycle dropped
    @pytest.mark.parametrize("first", ["(1 1)(1 5)", "(0 2)(1 5)", "(1 5 1)", "(-1 5)"])
    def test_repeated_or_non_positive_transversal_point_is_user_error(self, tmp_path, capsys, first):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps([first, "(2 5)", "(3 5)", "(4 5)", "()"]))
        code, _, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            "--transversal", f"@{spec}",
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "ParseError"

    def test_transversal_file_of_non_strings_is_user_error(self, tmp_path, capsys):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps([1, 2, 3, 4, 5]))
        code, _, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            "--transversal", f"@{spec}",
        )
        assert code == 2
        assert "permutation strings" in json.loads(stderr)["message"]

    def test_non_integer_layers_is_user_error(self, capsys):
        code, _, stderr = run(
            capsys, "construct", "multi-layer", "--mu", "3,1,1", "--layers", "0,a",
        )
        assert code == 2
        assert "error" in json.loads(stderr)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_flag_is_user_error(self, capsys, value):
        code, stdout, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            f"--tolerance={value}",
        )
        assert code == 2
        assert stdout == ""
        assert "tolerance" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
    def test_bad_tolerance_env_is_user_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SYMFUSION_TOLERANCE", value)
        code, _, stderr = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
        )
        assert code == 2
        assert "tolerance" in json.loads(stderr)["message"]

    def test_bad_tolerance_in_certify_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        save_ensemble(single_layer_ensemble(Partition((3, 2)), Partition((2, 2))), path)
        code, _, stderr = run(capsys, "certify", "--in", str(path), "--tolerance", "nan")
        assert code == 2
        assert "tolerance" in json.loads(stderr)["message"]

    def test_non_finite_block_in_certify_is_user_error(self, tmp_path, capsys):
        data = to_json_dict(single_layer_ensemble(Partition((3, 2)), Partition((2, 2))))
        data["isometries"][1][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))  # json writes the NaN literal
        code, stdout, stderr = run(capsys, "certify", "--in", str(path))
        assert code == 2
        assert stdout == ""
        error = json.loads(stderr)
        assert error["error"] == "EnsembleFormatError"
        assert "non-finite" in error["message"]

    @pytest.mark.parametrize("flags", [("--layers", "0", "--delta", "1"), ()], ids=["both", "neither"])
    @pytest.mark.parametrize("kind", ["multi-layer", "alternating"])
    def test_layers_and_delta_together_are_user_error(self, capsys, kind, flags):
        # the layers come from one flag; with both, one of them would go unread, and with neither
        # there are no layers
        code, stdout, stderr = run(capsys, "construct", kind, "--mu", "2,1", *flags)
        assert (code, stdout) == (2, "")
        error = json.loads(stderr)
        assert error["error"] == "SymfusionError"
        assert "--delta" in error["message"] and "--layers" in error["message"]

    def test_unknown_transversal_spec_is_user_error(self, capsys):
        code, stdout, stderr = run(capsys, *SINGLE_LAYER, "--transversal", "cycles")
        assert (code, stdout) == (2, "")
        error = json.loads(stderr)
        assert error["error"] == "SymfusionError"
        assert "unknown transversal spec 'cycles'" in error["message"]


def cap_id(argv):
    return "-".join(argv[:2])


class TestNegativeCaps:
    """A cap below 0 exits 2 whichever route sets it; a cap of 0 admits nothing."""

    def assert_cap_error(self, result, name):
        code, stdout, stderr = result
        assert (code, stdout) == (2, "")
        error = json.loads(stderr)
        assert error["error"] == "SymfusionError"
        assert name in error["message"] and "at least 0" in error["message"]

    @pytest.mark.parametrize("argv", [SINGLE_LAYER, ("table", "sn"), ("table", "an")], ids=cap_id)
    def test_flag(self, capsys, argv):
        self.assert_cap_error(run(capsys, *argv, "--max-dim", "-3"), "max_dim")

    @pytest.mark.parametrize("argv", [SINGLE_LAYER, ("table", "sn")], ids=cap_id)
    def test_env(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("SYMFUSION_MAX_DIM", "-1")
        self.assert_cap_error(run(capsys, *argv), "max_dim")

    @pytest.mark.parametrize("argv", [SINGLE_LAYER, ("table", "sn")], ids=cap_id)
    def test_config(self, tmp_path, capsys, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_dim": -1}))
        self.assert_cap_error(run(capsys, "--config", str(cfg), *argv), "max_dim")

    def test_certify_flag(self, capsys):
        result = run(capsys, "table", "an", "--max-dim", "20", "--certify-max-dim", "-1")
        self.assert_cap_error(result, "certify_max_dim")

    def test_zero_keeps_its_meaning(self, capsys):
        code, stdout, stderr = run(capsys, *SINGLE_LAYER, "--max-dim", "0")
        assert (code, stdout) == (3, "")
        assert json.loads(stderr)["error"] == "ResourceLimitError"
        code, stdout, _ = run(capsys, "table", "sn", "--max-dim", "0", "--json")
        assert (code, json.loads(stdout)) == (0, [])
        code, stdout, _ = run(capsys, "table", "sn", "--max-dim", "20", "--certify-max-dim", "0", "--json")
        assert code == 0 and all(row["certified"] is None for row in json.loads(stdout))


def complex_file_data() -> dict:
    from symfusion.constructions import LayerSelection, alternating_ensemble, alternating_shapes

    return to_json_dict(alternating_ensemble(LayerSelection.from_delta(alternating_shapes(1, 3), 1), "+"))


class TestMalformedEnsembleFile:
    """Each malformed file makes certify exit 2 with an EnsembleFormatError, never a traceback."""

    def certify_data(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, stdout, stderr = run(capsys, "certify", "--in", str(path))
        assert code == 2
        assert stdout == ""
        error = json.loads(stderr)
        assert error["error"] == "EnsembleFormatError"
        return error["message"]

    @staticmethod
    def real_data() -> dict:
        return to_json_dict(single_layer_ensemble(Partition((3, 2)), Partition((2, 2))))

    def test_isometries_not_a_list(self, tmp_path, capsys):
        message = self.certify_data(tmp_path, capsys, dict(self.real_data(), isometries=5))
        assert "isometries" in message

    def test_unknown_field(self, tmp_path, capsys):
        message = self.certify_data(tmp_path, capsys, dict(self.real_data(), field="X"))
        assert "field must be 'R' or 'C'" in message

    def test_metadata_not_an_object(self, tmp_path, capsys):
        message = self.certify_data(tmp_path, capsys, dict(self.real_data(), metadata=5))
        assert "metadata" in message

    def test_complex_entry_with_three_components(self, tmp_path, capsys):
        data = complex_file_data()
        re, im = data["isometries"][0][0][0]
        data["isometries"][0][0][0] = [re, im, 99]
        assert "[re, im] pairs" in self.certify_data(tmp_path, capsys, data)

    @pytest.mark.parametrize("value", ["1.0", True, False, None])
    def test_non_number_entry_in_real_grid(self, tmp_path, capsys, value):
        data = self.real_data()
        data["isometries"][0][0][0] = value
        assert "entries must be numbers" in self.certify_data(tmp_path, capsys, data)

    @pytest.mark.parametrize("value", ["1.0", True, ["1.0", 0.0], [0.0, True]])
    def test_non_number_entry_in_complex_grid(self, tmp_path, capsys, value):
        data = complex_file_data()
        data["isometries"][0][0][0] = value
        assert "entries must be numbers" in self.certify_data(tmp_path, capsys, data)

    @pytest.mark.parametrize("key, value", [("d", 2.7), ("d", 5.0), ("r", "2"), ("n", True)])
    def test_non_integer_size(self, tmp_path, capsys, key, value):
        message = self.certify_data(tmp_path, capsys, dict(self.real_data(), **{key: value}))
        assert "must be integers" in message

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        data = self.real_data()
        data["isometries"][0][0][0] = 10**400
        self.certify_data(tmp_path, capsys, data)

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100000], ids=["bad_utf8", "runaway_nesting"])
    def test_unreadable_json(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, _, stderr = run(capsys, "certify", "--in", str(path))
        assert code == 2
        assert json.loads(stderr)["error"] == "EnsembleFormatError"


UNREADABLE = {"bad_utf8": b"\xff\xfe{", "runaway_nesting": b"[" * 100000}


class TestUnreadableInputFile:
    """Every JSON input file maps unreadable content to exit 2 with a JSON error."""

    def input_file(self, tmp_path, kind):
        path = tmp_path / "in.json"
        path.write_bytes(UNREADABLE[kind])
        return str(path)

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_config(self, tmp_path, capsys, kind):
        code, stdout, stderr = run(capsys, "--config", self.input_file(tmp_path, kind), *SINGLE_LAYER)
        assert (code, stdout) == (2, "")
        assert "cannot read config file" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_generic_spec(self, tmp_path, capsys, kind):
        code, _, stderr = run(capsys, "construct", "generic", "--spec", self.input_file(tmp_path, kind))
        assert code == 2
        assert json.loads(stderr)["error"] == "EnsembleFormatError"

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_transversal_file(self, tmp_path, capsys, kind):
        code, _, stderr = run(capsys, *SINGLE_LAYER, "--transversal", "@" + self.input_file(tmp_path, kind))
        assert code == 2
        assert json.loads(stderr)["error"] == "EnsembleFormatError"


class TestGenericSpec:
    BASE = {
        "field": "R",
        "generators": {"f": [[1.0, 0.0], [0.0, -1.0]]},
        "transversal_words": [[], ["f"]],
        "isometry": [[0.6], [0.8]],
    }

    def construct(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return run(capsys, "construct", "generic", "--spec", str(path))

    def test_bare_numbers_in_complex_spec_are_real(self, tmp_path, capsys):
        spec = dict(self.BASE, field="C", isometry=[[0.6], [[0.0, 0.8]]])
        code, stdout, _ = self.construct(tmp_path, capsys, spec)
        assert code == 0
        assert "_C(2, 1, 2)" in stdout

    def test_non_finite_isometry_is_user_error(self, tmp_path, capsys):
        code, stdout, stderr = self.construct(tmp_path, capsys, dict(self.BASE, isometry=[[float("nan")], [1.0]]))
        assert code == 2
        assert stdout == ""
        assert json.loads(stderr)["error"] == "NotIsometryError"

    def test_non_numeric_entry_is_user_error(self, tmp_path, capsys):
        code, _, stderr = self.construct(tmp_path, capsys, dict(self.BASE, isometry=[[1], ["x"]]))
        assert code == 2
        assert json.loads(stderr)["error"] == "EnsembleFormatError"

    @pytest.mark.parametrize("spec", [[1, 2], "spec", {"generators": [], "isometry": [[1.0]]}])
    def test_spec_not_an_object_is_user_error(self, tmp_path, capsys, spec):
        code, _, stderr = self.construct(tmp_path, capsys, spec)
        assert code == 2
        assert "JSON object" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("key", ["isometry", "transversal_words"])
    def test_missing_key_is_user_error(self, tmp_path, capsys, key):
        spec = {k: v for k, v in self.BASE.items() if k != key}
        code, stdout, stderr = self.construct(tmp_path, capsys, spec)
        assert code == 2
        assert stdout == ""
        error = json.loads(stderr)
        assert error["error"] == "EnsembleFormatError"
        assert issubclass(getattr(errors, error["error"]), errors.SymfusionError)
        assert key in error["message"]

    @pytest.mark.parametrize("words", [5, "f", [5], ["f"], [[], [1]], [[], [["f"]]], {"a": ["f"]}])
    def test_malformed_transversal_words_is_user_error(self, tmp_path, capsys, words):
        code, stdout, stderr = self.construct(tmp_path, capsys, dict(self.BASE, transversal_words=words))
        assert code == 2
        assert stdout == ""
        assert json.loads(stderr)["error"] == "BadTransversalError"

    def test_unknown_generator_is_user_error(self, tmp_path, capsys):
        code, _, stderr = self.construct(tmp_path, capsys, dict(self.BASE, transversal_words=[[], ["g"]]))
        assert code == 2
        error = json.loads(stderr)
        assert error["error"] == "BadTransversalError"
        assert "'g'" in error["message"]

    @pytest.mark.parametrize("field", ["X", "", "r", 1, ["R"]])
    def test_unknown_field_is_user_error(self, tmp_path, capsys, field):
        code, stdout, stderr = self.construct(tmp_path, capsys, dict(self.BASE, field=field))
        assert code == 2
        assert stdout == ""
        assert json.loads(stderr)["error"] == "EnsembleFormatError"

    def test_absent_or_null_field_is_inferred(self, tmp_path, capsys):
        spec = {key: value for key, value in self.BASE.items() if key != "field"}
        for data in (spec, dict(spec, field=None)):
            code, stdout, _ = self.construct(tmp_path, capsys, data)
            assert code == 0
            assert "_R(2, 1, 2)" in stdout


class TestOptionPrecedence:
    def test_env_sets_max_dim(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMFUSION_MAX_DIM", "4")
        code, _, _ = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
        )
        assert code == 3

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMFUSION_MAX_DIM", "4")
        code, _, _ = run(
            capsys, "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
            "--max-dim", "100",
        )
        assert code == 0

    def test_config_file_used_when_no_flag_or_env(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_dim": 4}))
        code, _, _ = run(
            capsys, "--config", str(cfg),
            "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
        )
        assert code == 3

    def test_env_beats_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_dim": 4}))
        monkeypatch.setenv("SYMFUSION_MAX_DIM", "100")
        code, _, _ = run(
            capsys, "--config", str(cfg),
            "construct", "single-layer", "--lambda", "3,2", "--mu", "2,2",
        )
        assert code == 0


    @pytest.mark.parametrize("raw", ["5", "[]", '"max_dim"', "null"])
    def test_config_must_be_an_object(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw)
        code, stdout, stderr = run(capsys, "--config", str(cfg), *SINGLE_LAYER)
        assert (code, stdout) == (2, "")
        assert "must hold a JSON object" in json.loads(stderr)["message"]

    @pytest.mark.parametrize(
        "raw",
        ['{"tolerance": true}', '{"tolerance": "1e-9"}', '{"tolerance": 1' + "0" * 400 + "}",
         '{"max_dim": 2.7}', '{"max_dim": true}', '{"max_dim": 1e400}', '{"max_dim": "500"}'],
        ids=["tol_bool", "tol_string", "tol_overflow", "dim_float", "dim_bool", "dim_overflow", "dim_string"],
    )
    def test_config_value_keeps_the_flag_type(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw)
        code, stdout, stderr = run(capsys, "--config", str(cfg), *SINGLE_LAYER)
        assert (code, stdout) == (2, "")
        assert json.loads(stderr)["error"] == "SymfusionError"

    def test_config_integer_tolerance_is_a_number(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tolerance": 1}')
        code, stdout, _ = run(capsys, "--config", str(cfg), *SINGLE_LAYER, "--json")
        assert code == 0
        assert json.loads(stdout[stdout.index("{"):])["tolerance"] == 1.0


def test_determinism(capsys):
    code1, out1, _ = run(capsys, "table", "an", "--max-dim", "500")
    code2, out2, _ = run(capsys, "table", "an", "--max-dim", "500")
    assert code1 == code2 == 0
    assert out1 == out2
