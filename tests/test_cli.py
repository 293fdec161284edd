"""Command line behavior: subcommands, exit codes, output determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from curvezeta.cli import main

DATA = Path(__file__).parent / "data"


def test_analyze_text(capsys):
    assert main(["analyze", "--spec", "p=3; f=x^3+x"]) == 0
    out = capsys.readouterr().out
    assert "L(T) = 1 + 3*T^2" in out
    assert "P(T, u) = 1 + (3 - u)*T + u*T^2" in out
    assert "(pass)" in out


def test_analyze_machine_is_deterministic(capsys):
    argv = ["analyze", "--spec", "p=3; f=x^3+x",
            "--format", "machine", "--no-timing"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["checks"]["passed"] is True
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == first


def test_analyze_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["analyze", "--spec", "p=3; f=x^3+x", "--format", "machine",
                 "--no-timing", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["curve"]["class_number"] == 4


def test_analyze_base_change(capsys):
    assert main(["analyze", "--spec", "p=3; f=x^3+x",
                 "--base-change", "2"]) == 0
    out = capsys.readouterr().out
    assert "base change m = 2" in out
    assert "class number: 16" in out


def test_analyze_spec_file(tmp_path, capsys):
    spec_file = tmp_path / "curve.txt"
    spec_file.write_text("p=5; f=x^3+x+1\n")
    assert main(["analyze", "--spec-file", str(spec_file)]) == 0
    assert "genus 1" in capsys.readouterr().out


def test_verify_quiet_on_success(capsys):
    assert main(["verify", "--spec", "p=3; f=x^5+1"]) == 0
    out = capsys.readouterr().out
    assert "verification: pass" in out
    assert "[FAIL]" not in out
    assert "P(T, u)" not in out  # the report itself is suppressed


def test_verify_machine(capsys):
    assert main(["verify", "--spec", "p=3; f=x^3+x",
                 "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"]["passed"] is True
    assert doc["checks"]["failed"] == []
    assert doc["checks"]["total"] > 10


def test_verify_series_order(capsys):
    assert main(["verify", "--spec", "p=3; f=x^3+x",
                 "--series-order", "7", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # degrees 0..7 two ways, six structure, one specialization, four
    # irreducibility clauses
    assert doc["checks"]["total"] == 27


def test_measure_table_analyze(capsys):
    assert main(["analyze", "--measure-table", str(DATA / "euler_g1.txt")]) == 0
    out = capsys.readouterr().out
    assert "measure table, genus 1" in out
    assert "P(T, u) = 1 + (-1 - u)*T + u*T^2" in out


def test_measure_table_genus_crosscheck():
    assert main(["verify", "--measure-table", str(DATA / "euler_g1.txt"),
                 "--genus", "1"]) == 0
    assert main(["verify", "--measure-table", str(DATA / "euler_g1.txt"),
                 "--genus", "2"]) == 2


def test_curve_genus_crosscheck():
    assert main(["verify", "--spec", "p=3; f=x^5+1", "--genus", "2"]) == 0
    assert main(["verify", "--spec", "p=3; f=x^5+1", "--genus", "1"]) == 2


def test_curve_genus_contradiction_precedes_the_work_bound(monkeypatch, capsys):
    import curvezeta.curve as curvemod

    def no_places(*args, **kwargs):
        raise AssertionError("places enumerated before the genus check")

    monkeypatch.setattr(curvemod, "enumerate_places", no_places)
    # the genus-3 curve's places need more than 100 candidates: the wrong
    # --genus is an input error (2), found before the work bound (3)
    assert main(["analyze", "--spec", "p=5; f=x^7+x+1", "--genus", "2",
                 "--max-work", "100"]) == 2
    assert "contradicts the computed genus 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--spec", "p=3; f=x^3+?"],          # parse error
    ["verify", "--spec", "p=3; f=x^2+1"],          # even degree
    ["verify", "--spec", "p=3; f=x^3"],            # singular
    ["verify", "--spec", "p=4; f=x^3+x"],          # 4 is not prime
    ["verify", "--spec-file", "/nonexistent/path"],  # unreadable
    ["verify"],                                     # no source given
    ["verify", "--spec", "p=3; f=x^3+x",
     "--measure-table", "whatever"],                # two sources given
])
def test_input_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_capacity_exit_3(capsys):
    assert main(["verify", "--spec", "p=3; k=12; f=x^3+x",
                 "--max-work", "1000"]) == 3
    assert "work bound" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["p=11; f=x^5+x+1", "p=13; f=x^5+x+2"])
def test_default_work_bound_sieves_only_to_degree_2g(spec, capsys):
    # genus 2: the sieve stops at degree 4 (11^4 and 13^4 candidates), and
    # N_5, N_6 come from L(T); sieving degree 6 would need 11^6 or 13^6,
    # above the default bound
    assert main(["verify", "--spec", spec]) == 0
    assert "verification: pass" in capsys.readouterr().out


@pytest.mark.parametrize("spec,error", [
    ("p=2; f=x^3+x; h=2", "SingularCurveError"),      # h = 2 = 0 mod 2
    ("p=3; k=2; f=x^3+10*x", "ModelShapeError"),      # 10 is not in F_9
    ("p=3; k=2; f=x^3+x; h=9", "ModelShapeError"),
])
def test_out_of_field_coefficients_exit_2(spec, error, capsys):
    assert main(["verify", "--spec", spec]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("spec,f,h", [
    ("p=3; f=4*x^3+x", "x^3+x", "0"),
    ("p=3; f=x^3-x", "x^3+2*x", "0"),
    ("p=5; f=x^5-7*x+11; h=-x", "x^5+3*x+1", "4*x"),
])
def test_prime_field_coefficients_are_reduced_mod_p(spec, f, h, capsys):
    assert main(["analyze", "--spec", spec, "--format", "machine",
                 "--no-timing"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["input"]["f"], report["input"]["h"]) == (f, h)


def test_batch_reports_an_out_of_field_coefficient_per_line(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("p=3; k=2; f=x^3+10*x\np=2; f=x^3+x; h=2\n"
                     "p=3; f=x^3-x\n")
    assert main(["batch", str(batch)]) == 4
    out = capsys.readouterr().out
    assert "line 1: ERROR ModelShapeError" in out
    assert "line 2: ERROR SingularCurveError" in out
    assert "line 3: PASS p=3; f=x^3-x" in out
    assert "3 curves: 1 passed, 0 failed, 2 errors" in out


def test_corrupted_measure_table_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad_table.txt"
    # parses fine, but the zero-section constraint is violated
    bad.write_text("g=1; pic0=0\n0 0 -2\n0 1 2\n")
    assert main(["verify", "--measure-table", str(bad)]) == 4
    assert "InvalidMeasureError" in capsys.readouterr().err


def test_unparseable_measure_table_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad_syntax.txt"
    bad.write_text("g=1; pic0=0\n0 0\n")
    assert main(["verify", "--measure-table", str(bad)]) == 2


def test_batch_mixed(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "# comment, then a blank line\n"
        "\n"
        "p=3; f=x^3+x\n"
        "p=3; f=x^3\n"
        "p=5; f=x^3+x+1\n")
    assert main(["batch", str(batch)]) == 4
    out = capsys.readouterr().out
    assert "line 3: PASS p=3; f=x^3+x" in out
    assert "line 4: ERROR SingularCurveError" in out
    assert "line 5: PASS" in out
    assert "3 curves: 2 passed, 0 failed, 1 errors" in out


def test_batch_all_pass(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("p=3; f=x^3+x\np=2; f=x^3+x+1; h=1\n")
    assert main(["batch", str(batch)]) == 0
    assert "2 curves: 2 passed, 0 failed, 0 errors" in capsys.readouterr().out


def test_batch_parse_error_names_the_line(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("p=3; f=x^3+x\np=3; f=x^3+?\n")
    assert main(["batch", str(batch)]) == 4
    out = capsys.readouterr().out
    assert "line 2: ERROR ParseError: line 2" in out


def test_batch_empty_file(tmp_path, capsys):
    batch = tmp_path / "empty.txt"
    batch.write_text("")
    assert main(["batch", str(batch)]) == 0
    assert "0 curves: 0 passed, 0 failed, 0 errors" in capsys.readouterr().out


def test_batch_missing_file(capsys):
    assert main(["batch", "/nonexistent/batch.txt"]) == 2


@pytest.mark.parametrize("argv", [["verify", "--spec-file"],
                                  ["verify", "--measure-table"],
                                  ["batch"]])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe p=3; f=x^3+x\n")
    assert main(argv + [str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "utf-8" in err


def test_batch_out_file(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("p=3; f=x^3+x\n")
    target = tmp_path / "result.txt"
    assert main(["batch", str(batch), "--out", str(target)]) == 0
    assert "1 curves: 1 passed" in target.read_text()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["explode"])
    assert info.value.code == 2


def test_bad_flag_value_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--spec", "p=3; f=x^3+x", "--base-change", "0"])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curvezeta.cli", "verify",
         "--spec", "p=3; f=x^3+x"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verification: pass" in proc.stdout


def test_import_leaves_sympy_unloaded():
    # sympy serves only the reference oracle, so startup must not pay for
    # it; the record types are named tuples, so startup loads neither
    # dataclasses (with inspect under it) nor typing.  -S keeps any .pth
    # file from preloading modules and hiding an import.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, curvezeta.cli; print(' '.join(sorted({m for m in "
            "('dataclasses', 'inspect', 'typing', 'sympy') "
            "if m in sys.modules})))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.skipif(shutil.which("curvezeta") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["curvezeta", "analyze", "--spec", "p=3; f=x^3+x",
         "--format", "machine", "--no-timing"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks"]["passed"] is True
