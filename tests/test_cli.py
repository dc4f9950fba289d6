"""End-to-end command line coverage via cli.main(argv)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dnacodes import cli, skew
from dnacodes.cli import JobConfig, UsageError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXPECTED = Path(__file__).parent / "expected"


@pytest.mark.parametrize(
    "name, exit_code, argv",
    [
        ("r64_n7_rc_witness", 0,
         ["build-verify", "--ring", "r64", "-n", "7",
          "--gen", "u^4*(x+1)*(x^3+x+1)"]),
        ("f2v_n8_theorem_failure", 1,
         ["build-verify", "--ring", "f2v", "-n", "8",
          "--gen", "x^4+v*x^3+v*x+1", "--metric", "hamming"]),
        ("r64_n7_over_guard", 0,
         ["build-verify", "--ring", "r64", "-n", "7",
          "--gen", "u*(x^3+x+1)", "--guard", "1000"]),
        ("export_csv_r64", 0,
         ["export", "--ring", "r64", "-n", "7",
          "--gen", "u^4*(x^6+x^5+x^4+x^3+x^2+x+1)", "--format", "csv"]),
        ("export_csv_f2v", 0,
         ["export", "--ring", "f2v", "-n", "4", "--gen", "x^2+1",
          "--format", "csv"]),
    ],
)
def test_report_text_is_pinned(capsys, name, exit_code, argv):
    # the whole stdout, line order included, against a stored copy
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert out == (EXPECTED / f"{name}.txt").read_text()


@pytest.mark.parametrize("module", ["dnacodes", "dnacodes.cli"])
def test_python_dash_m_runs_without_warnings(module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", module, "factor", "-n", "7"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "n: 7"
    assert proc.stdout.splitlines()[-1] == "product: (x+1)(x^3+x+1)(x^3+x^2+1)"
    assert "RuntimeWarning" not in proc.stderr


def test_factor_n7(capsys):
    code, out, _ = run(capsys, "factor", "-n", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n: 7"
    assert lines[1:4] == [
        "factor: x+1",
        "factor: x^3+x+1",
        "factor: x^3+x^2+1",
    ]
    assert lines[4] == "product: (x+1)(x^3+x+1)(x^3+x^2+1)"


def test_factor_n10_multiplicities(capsys):
    code, out, _ = run(capsys, "factor", "-n", "10")
    assert code == 0
    assert "factor: (x+1)^2" in out
    assert "factor: (x^4+x^3+x^2+x+1)^2" in out


def test_factor_requires_length(capsys):
    code, _, err = run(capsys, "factor")
    assert code == 2
    assert "error:" in err


def test_build_verify_r64_generator(capsys):
    code, out, _ = run(
        capsys,
        "build-verify", "--ring", "r64", "-n", "7",
        "--gen", "u^4*(x+1)*(x^3+x+1)",
    )
    assert code == 0
    assert "verdict: pass" in out
    assert "log2_size: 6" in out
    assert "size: 64" in out
    assert "rc_closed: False" in out
    assert "check.size_formula: pass" in out
    assert "min_hamming: 4" in out
    assert "min_lee: 4" in out
    assert "min_edit_codon: 2" in out
    assert "check.edit_bounds: pass" in out
    assert "rc_witness:" in out  # not rc closed, so a witness is shown


def test_build_verify_r64_nucleotide_level(capsys):
    code, out, _ = run(
        capsys,
        "build-verify", "--ring", "r64", "-n", "7",
        "--gen", "u^4*(x+1)*(x^3+x+1)",
        "--metric", "edit", "--level", "nucleotide",
    )
    assert code == 0
    assert "min_edit_nucleotide: 6" in out


def test_build_verify_r64_tower_route_matches(capsys):
    tower = ",".join(["x^7+1"] * 4 + ["x^4+x^3+x^2+1"] * 2)
    code, out, _ = run(
        capsys,
        "build-verify", "--ring", "r64", "-n", "7",
        "--tower", tower, "--metric", "hamming",
    )
    assert code == 0
    assert "tower:" in out
    assert "log2_size: 6" in out
    assert "verdict: pass" in out


def test_build_verify_f2v_rc_closed(capsys):
    code, out, _ = run(
        capsys, "build-verify", "--ring", "f2v", "-n", "2", "--gen", "x+1"
    )
    assert code == 0
    assert "case: 1" in out
    assert "rc_closed: True" in out
    assert "rc_sufficiency: True" in out
    assert "check.sufficiency_implies_closure: pass" in out
    assert "check.closure_implies_necessity: pass" in out
    assert "check.two_sided_factorization: pass" in out
    assert "verdict: pass" in out


def test_build_verify_f2v_open_code_still_passes(capsys):
    # <v> is not rc-closed (the skew shift twists odd lanes), but that is
    # a finding, not a failure: both implications hold vacuously
    code, out, _ = run(
        capsys, "build-verify", "--ring", "f2v", "-n", "4", "--gen", "v"
    )
    assert code == 0
    assert "case: 3" in out
    assert "rc_closed: False" in out
    assert "rc_sufficiency: False" in out
    assert "gray_plain_shift2_closed: False" in out
    assert "verdict: pass" in out


def test_build_verify_f2v_length8_theorem_failure(capsys):
    code, out, _ = run(
        capsys,
        "build-verify", "--ring", "f2v", "-n", "8",
        "--gen", "x^2+v*x+1", "--metric", "hamming",
    )
    assert code == 1
    assert "case: 1" in out
    assert "rc_sufficiency: True" in out
    assert "rc_closed: False" in out
    assert "check.sufficiency_implies_closure: FAIL" in out
    assert (
        "rc_witness: CGGGGGCC whose reverse-complement GGCCCCCG "
        "is not in the code" in out
    )
    assert "verdict: FAIL" in out


def test_build_verify_edit_scan_capped(capsys):
    # 4096 words: the all-pairs edit scan is skipped under --metric all
    code, out, _ = run(
        capsys,
        "build-verify", "--ring", "r64", "-n", "7", "--gen", "u^4*(x+1)",
    )
    assert code == 0
    assert "min_edit: skipped for 4096 words" in out


@pytest.mark.parametrize("which", [1, 2, 3, 4, 5])
def test_table_regeneration(capsys, tmp_path, which):
    code, out, _ = run(
        capsys, "table", "-w", str(which), "--out", str(tmp_path)
    )
    assert code == 0
    assert f"table: {which}" in out
    assert (tmp_path / f"table{which}.csv").exists()
    diff = (tmp_path / f"table{which}.diff.csv").read_text()
    expected_diffs = {1: 5, 2: 6, 3: 93, 4: 14, 5: 62}[which]
    assert len(diff.splitlines()) == expected_diffs + 1  # header line


def test_table_usage_errors(capsys):
    assert run(capsys, "table")[0] == 2
    assert run(capsys, "table", "-w", "7")[0] == 2


def test_export_fasta_r64(capsys, tmp_path):
    out_file = tmp_path / "words.fasta"
    code, out, _ = run(
        capsys,
        "export", "--ring", "r64", "-n", "7",
        "--gen", "u^4*(x^6+x^5+x^4+x^3+x^2+x+1)",
        "--format", "fasta", "--out", str(out_file),
    )
    assert code == 0
    assert "(4 records)" in out
    lines = out_file.read_text().splitlines()
    headers = [l for l in lines if l.startswith(">")]
    seqs = [l for l in lines if not l.startswith(">")]
    assert headers == [f">cw{i}" for i in range(4)]
    assert set(seqs) == {"GGG" * 7, "CTC" * 7, "TAC" * 7, "TGT" * 7}


def test_export_csv_f2v(capsys):
    code, out, _ = run(
        capsys,
        "export", "--ring", "f2v", "-n", "2", "--gen", "x+1",
        "--format", "csv",
    )
    assert code == 0
    assert set(out.splitlines()) == {"0,0", "1,1", "v,v", "v+1,v+1"}


def test_export_guard(capsys):
    code, _, err = run(
        capsys,
        "export", "--ring", "r64", "-n", "7", "--gen", "u^4*(x+1)",
        "--format", "csv", "--guard", "16",
    )
    assert code == 2
    assert "over the guard" in err


def test_export_rejects_report_format(capsys):
    code, _, err = run(
        capsys,
        "export", "--ring", "f2v", "-n", "2", "--gen", "x+1",
        "--format", "report",
    )
    assert code == 2
    assert "error:" in err


def test_config_round_trip():
    cfg = JobConfig(
        command="build-verify",
        ring="r64",
        n=7,
        gens=("u^4*(x+1)*(x^3+x+1)",),
        metric="hamming",
    )
    assert JobConfig.from_text(cfg.to_text()) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(UsageError):
        JobConfig.from_text("ring = r64\nbogus = 1\n")
    with pytest.raises(UsageError):
        JobConfig.from_text("no equals sign here\n")
    with pytest.raises(UsageError):
        JobConfig.from_text("gens = a,b\n")


def test_config_file_run_and_flag_override(capsys, tmp_path):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(
        "ring = r64\nn = 7\ngen = u^4*(x+1)*(x^3+x+1)\nmetric = hamming\n"
    )
    code, out, _ = run(capsys, "build-verify", "--config", str(cfg_path))
    assert code == 0
    assert "min_hamming: 4" in out
    assert "min_lee" not in out
    code, out, _ = run(
        capsys, "build-verify", "--config", str(cfg_path), "--metric", "lee"
    )
    assert code == 0
    assert "min_lee: 4" in out
    assert "min_hamming" not in out


def test_config_missing_file(capsys):
    code, _, err = run(capsys, "factor", "--config", "/nonexistent.cfg")
    assert code == 2
    assert "cannot read config" in err


def test_usage_errors_exit_2(capsys):
    cases = [
        ("build-verify", "--ring", "r64", "--gen", "u*(x+1)"),  # no -n
        ("build-verify", "--ring", "r64", "-n", "7",
         "--gen", "u^7*(x+1)"),  # u-power out of range
        ("build-verify", "--ring", "r64", "-n", "7",
         "--gen", "u^4*(x+1"),  # unbalanced parens
        ("build-verify", "--ring", "r64", "-n", "7",
         "--tower", "x+1,x+1,x+1"),  # short tower
        ("build-verify", "--ring", "r64", "-n", "7",
         "--gen", "u^4*(x+1)", "--tower", ",".join(["x^7+1"] * 6)),
        ("build-verify", "--ring", "f2v", "-n", "7",
         "--gen", "x+1"),  # odd length
        ("build-verify", "--ring", "f2v", "-n", "2",
         "--gen", "x+v"),  # not a right divisor
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err


def test_skew_generator_string_round_trip_through_cli(capsys):
    # a case-2 code: one monic and one v-scaled generator
    g1 = "x+1"
    g2 = skew.poly_str((skew.V,) * 2)
    code, out, _ = run(
        capsys,
        "build-verify", "--ring", "f2v", "-n", "2",
        "--gen", g1, "--gen", g2, "--case", "2",
    )
    assert code == 0
    assert "case: 2" in out
