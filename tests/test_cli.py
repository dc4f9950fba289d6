"""End-to-end command line coverage via cli.main(argv)."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dnacodes import cli, codons, cyclic, metrics, skew
from dnacodes.cli import JobConfig, UsageError
from helpers import src_env


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXPECTED = Path(__file__).parent / "expected"
ROOT = Path(__file__).resolve().parent.parent


# report and export text pinned in tests/expected/<name>.txt
PINNED = [
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
    ("r64_n9_all_dna", 0,
     ["build-verify", "--ring", "r64", "-n", "9",
      "--gen", "u^5*(x^2+x+1)", "--metric", "all", "--dna-d", "9"]),
    ("r64_n7_nucleotide_costs_dna", 0,
     ["build-verify", "--ring", "r64", "-n", "7",
      "--gen", "u^4*(x+1)*(x^3+x+1)", "--level", "nucleotide",
      "--costs", str(EXPECTED / "weighted_costs.csv"), "--dna-d", "12"]),
    ("r64_n7_2e16_hamming", 0,
     ["build-verify", "--ring", "r64", "-n", "7",
      "--gen", "u^2*(x^3+x+1)", "--metric", "hamming"]),
    ("f2v_n4_case2_all", 0,
     ["build-verify", "--ring", "f2v", "-n", "4",
      "--gen", "v*x+v", "--gen", "x+1", "--metric", "all"]),
    ("f2v_n8_case3_all", 0,
     ["build-verify", "--ring", "f2v", "-n", "8",
      "--gen", "(v+1)*x^4+(v+1)", "--metric", "all"]),
    ("f2v_n8_over_guard", 0,
     ["build-verify", "--ring", "f2v", "-n", "8", "--gen", "x+1",
      "--guard", "1000"]),
    ("f2v_n8_readme_edit_skipped", 1,
     ["build-verify", "--ring", "f2v", "-n", "8", "--gen", "x^2+v*x+1"]),
    ("r64_n7_lee", 0,
     ["build-verify", "--ring", "r64", "-n", "7",
      "--gen", "u^3*(x^3+x+1)", "--metric", "lee"]),
    ("r64_n7_edit_not_self_reciprocal", 0,
     ["build-verify", "--ring", "r64", "-n", "7",
      "--gen", "u^4*(x^3+x+1)", "--metric", "edit"]),
    ("export_fasta_r64", 0,
     ["export", "--ring", "r64", "-n", "7", "--gen", "u^5*(x+1)",
      "--format", "fasta"]),
    ("export_fasta_f2v", 0,
     ["export", "--ring", "f2v", "-n", "4", "--gen", "x^2+1",
      "--format", "fasta"]),
]


@pytest.mark.parametrize("name, exit_code, argv", PINNED)
def test_report_text_is_pinned(capsys, name, exit_code, argv):
    # the whole stdout, line order included, against a stored copy
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert out == (EXPECTED / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", [
    "r64_n9_all_dna", "r64_n7_lee", "r64_n7_2e16_hamming",
    "f2v_n8_theorem_failure", "f2v_n4_case2_all", "f2v_n8_case3_all",
])
def test_weight_minima_make_no_word_scan(capsys, monkeypatch, name):
    # min_hamming and min_lee come from a small subcode whose witness is
    # looked up among the words, so neither word scan runs
    def scan(*args):
        raise AssertionError("a word scan ran")

    monkeypatch.setattr(metrics, "min_nonzero_hamming_weight", scan)
    monkeypatch.setattr(metrics, "min_nonzero_lee_weight", scan)
    exit_code, argv = {n: (c, a) for n, c, a in PINNED}[name]
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert out == (EXPECTED / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", ["r64_n9_all_dna", "r64_n7_rc_witness"])
def test_r64_all_reads_one_witness_and_builds_no_second_code(
    capsys, monkeypatch, name
):
    # --metric all prints min_hamming and min_lee off one socle witness,
    # and the u^2 claim is decided by one membership, not built as a code
    spans = []
    least = cyclic.least_weight_word

    def counted(rows, guard):
        spans.append(guard)
        return least(rows, guard)

    def refuse(*args):
        raise AssertionError("a second code was built")

    build = cli.build_code

    def build_then_refuse(cfg):
        code = build(cfg)
        monkeypatch.setattr(cyclic, "single_generator_code", refuse)
        return code

    monkeypatch.setattr(cyclic, "least_weight_word", counted)
    monkeypatch.setattr(cli, "build_code", build_then_refuse)
    exit_code, argv = {n: (c, a) for n, c, a in PINNED}[name]
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert out == (EXPECTED / f"{name}.txt").read_text()
    assert "min_hamming: " in out and "min_lee: " in out
    assert len(spans) == 1


@pytest.mark.parametrize("module", ["dnacodes", "dnacodes.cli"])
def test_python_dash_m_runs_without_warnings(module):
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", module, "factor", "-n", "7"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "n: 7"
    assert proc.stdout.splitlines()[-1] == "product: (x+1)(x^3+x+1)(x^3+x^2+1)"
    assert "RuntimeWarning" not in proc.stderr


def test_package_and_cli_import_no_dataclasses_or_inspect():
    # both cost milliseconds at start-up, which every CLI run pays
    script = (
        "import sys\n"
        "import dnacodes, dnacodes.cli\n"
        "assert dnacodes.cli.main(['factor', '-n', '7']) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_package_and_cli_import_no_fractions_or_decimal():
    # cost tables are exact without them; both cost milliseconds at
    # start-up, which every CLI run pays
    script = (
        "import sys\n"
        "import dnacodes, dnacodes.cli\n"
        "from dnacodes.metrics import EditCostTable, edit_distance\n"
        "costs = EditCostTable({('A', 'C'): 0.1, ('G', 'T'): 0.2})\n"
        "print(edit_distance('AG', 'CT', costs))\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0.3", "[]"]


def test_decimal_cost_table_takes_the_packed_scan(capsys, tmp_path, monkeypatch):
    # a decimal cost such as 0.1 used to send this scan pair by pair
    # through edit_distance's float DP
    costs = tmp_path / "costs.csv"
    costs.write_text("A,G,0.1\nC,T,0.3\n-,A,1.7\n")

    def per_pair(*args):
        raise AssertionError("per-pair edit distance")

    monkeypatch.setattr(metrics, "edit_distance", per_pair)
    monkeypatch.setattr(metrics, "_weighted_edit_distance", per_pair)
    code, out, _ = run(
        capsys, "build-verify", "--ring", "r64", "-n", "7",
        "--gen", "u^3*(x+1)*(x^3+x+1)", "--metric", "edit",
        "--level", "nucleotide", "--costs", str(costs),
    )
    assert code == 0
    assert "min_edit_nucleotide: 1.6\n" in out


def test_readme_f2v_example_skips_the_edit_scan():
    # the README example with default flags: 4096 words, so --metric all
    # must skip the quadratic edit scan and finish quickly
    proc = subprocess.run(
        [sys.executable, "-m", "dnacodes", "build-verify", "--ring", "f2v",
         "-n", "8", "--gen", "x^2+v*x+1"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert (
        "min_edit: skipped for 4096 words; pass --metric edit to force"
        in proc.stdout.splitlines()
    )
    assert "failure: sufficiency_implies_closure" in proc.stdout


def test_dna_classification_over_the_word_cap_skips_the_scan():
    # 4096 words and no --metric edit: the classification is skipped
    # like the other edit scans instead of scanning 8.4 M pairs
    proc = subprocess.run(
        [sys.executable, "-m", "dnacodes", "build-verify", "--ring", "r64",
         "-n", "7", "--gen", "u^4*(x+1)", "--dna-d", "5"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (
        "dna_code: skipped for 4096 words; pass --metric edit to force"
        in lines
    )
    assert not any(l.startswith("dna_max_edit") for l in lines)


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(
        r"## Library example\n\n```python\n(.*?)```", readme, re.S
    ).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "64 (0, 0, 0, 0, 3, 0)", "4", "False",
    ]


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
        "rc_witness: ACAGGGGG whose reverse-complement CCCCCTGT "
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


def test_forced_edit_scan_stops_at_the_ceiling():
    # 2^18 words: even --metric edit skips the 3.4e10-pair scan
    proc = subprocess.run(
        [sys.executable, "-m", "dnacodes", "build-verify", "--ring", "r64",
         "-n", "7", "--gen", "u^3*(x+1)", "--metric", "edit"],
        capture_output=True, text=True, env=src_env(), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    skip = "skipped for 262144 words; over the 4096-word edit-scan ceiling"
    lines = proc.stdout.splitlines()
    assert f"min_edit: {skip}" in lines
    assert f"edit_bounds: {skip}" in lines


def test_edit_bound_check_is_skipped_over_the_word_cap(capsys):
    # 4096 words under the default --metric all
    code, out, _ = run(
        capsys,
        "build-verify", "--ring", "r64", "-n", "5", "--gen", "u^3*(x+1)",
    )
    assert code == 0
    lines = out.splitlines()
    assert not any(l.startswith("check.edit_bounds") for l in lines)
    assert (
        "edit_bounds: skipped for 4096 words; pass --metric edit to force"
        in lines
    )


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


@pytest.mark.parametrize(
    "name, argv", [(name, argv) for name, _, argv in PINNED
                   if name.startswith("export_")]
)
def test_export_out_file_holds_the_pinned_stdout(capsys, tmp_path, name, argv):
    # the records are streamed to --out as to stdout: the same bytes
    out_file = tmp_path / "words.txt"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, err) == (0, "")
    expected = (EXPECTED / f"{name}.txt").read_bytes()
    assert out_file.read_bytes() == expected
    records = len(expected.splitlines()) // (2 if "fasta" in name else 1)
    assert out == f"written: {out_file} ({records} records)\n"


@pytest.mark.parametrize("ring, n, gen", [
    ("r64", 7, "u^2*(x^3+x+1)"),  # 2^16 words, sixteen chunks
    ("r64", 10, "u^4*(x^2+1)"),  # lane * n = 60
    ("r64", 11, "u^5*(x+1)"),  # 66-bit words: a list, word by word
    ("f2v", 8, "x+1"),
    ("f2v", 32, "x^24+x^16+x^8+1"),  # lane * n = 64
], ids=["r64-n7", "r64-n10", "r64-n11-list", "f2v-n8", "f2v-n32"])
def test_fasta_export_matches_the_per_word_records(capsys, tmp_path, ring, n, gen):
    # the chunked texts, against codons.fasta of one to_dna text per word
    out_file = tmp_path / "words.fasta"
    code, out, err = run(capsys, "export", "--ring", ring, "-n", str(n),
                         "--gen", gen, "--format", "fasta", "--out", str(out_file))
    assert (code, err) == (0, "")
    built = cli.build_code(JobConfig(ring=ring, n=n, gens=(gen,)))
    words = built.words()
    assert isinstance(words, list) == (n == 11)
    encode = (codons.canonical_table().encode_word if ring == "r64"
              else skew.word_to_dna)
    want = "".join(codons.fasta(encode(w, n) for w in words))
    assert out_file.read_bytes() == want.encode()
    assert out == f"written: {out_file} ({len(words)} records)\n"


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
    with pytest.raises(SystemExit) as exited:
        cli.main(["export", "--ring", "f2v", "-n", "2", "--gen", "x+1",
                  "--format", "report"])
    code, err = exited.value.code, capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_config_rejects_unknown_keys():
    with pytest.raises(UsageError):
        JobConfig.read("ring = r64\nbogus = 1\n")
    with pytest.raises(UsageError):
        JobConfig.read("no equals sign here\n")
    with pytest.raises(UsageError):
        JobConfig.read("gens = a,b\n")


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
        ("build-verify", "--ring", "r64", "-n", "0",
         "--gen", "u*(x+1)"),  # non-positive length
        # the case is read from the generators, not given
        ("build-verify", "--ring", "f2v", "-n", "4", "--gen", "x+1",
         "--case", "1"),
    ]
    for argv in cases:
        try:
            code, _, err = run(capsys, *argv)
        except SystemExit as exited:  # rejected by argparse itself
            code, err = exited.code, capsys.readouterr().err
        assert code == 2, argv
        assert "error:" in err


def test_skew_generator_string_round_trip_through_cli(capsys):
    # a case-2 code: one monic and one v-scaled generator
    g1 = "x+1"
    g2 = skew.poly_str((skew.V,) * 2)
    code, out, _ = run(
        capsys,
        "build-verify", "--ring", "f2v", "-n", "2",
        "--gen", g1, "--gen", g2,
    )
    assert code == 0
    assert "case: 2" in out


def test_user_errors_found_after_parsing_exit_2(capsys, tmp_path):
    bad_number = tmp_path / "number.cfg"
    bad_number.write_text("ring = r64\nn = seven\n")
    bad_level = tmp_path / "level.cfg"
    bad_level.write_text("ring = r64\nn = 7\ngen = u^4*(x+1)\nlevel = bogus\n")
    bad_metric = tmp_path / "metric.cfg"
    bad_metric.write_text("ring = r64\nmetric = bogus\nn = 7\ngen = u^4*(x+1)\n")
    bad_costs = tmp_path / "costs.csv"
    bad_costs.write_text("from,to,cost\nA,G,cheap\n")
    gens_key = tmp_path / "gens.cfg"
    gens_key.write_text("n = 7\ngens = u^4*(x+1)\n")
    bad_ring = tmp_path / "ring.cfg"
    bad_ring.write_text("ring = r65\nn = 7\n")
    nan_d = tmp_path / "nan_d.cfg"
    nan_d.write_text("ring = r64\nn = 9\ngen = u^5*(x^2+x+1)\ndna_d = nan\n")
    other_command = tmp_path / "command.cfg"
    other_command.write_text("ring = r64\ncommand = table\nn = 7\n")
    export_d = tmp_path / "export_d.cfg"
    export_d.write_text("ring = r64\nn = 7\ngen = u^4*(x+1)\ndna_d = 3\n")
    zero_guard = tmp_path / "guard.cfg"
    zero_guard.write_text("ring = r64\nn = 7\ngen = u^4*(x+1)\nguard = 0\n")
    zero_n = tmp_path / "n.cfg"
    zero_n.write_text("ring = f2v\nn = 0\ngen = x+1\n")
    case_key = tmp_path / "case.cfg"
    case_key.write_text("case = 1\nring = f2v\nn = 4\ngen = x+1\n")
    nucleotide_costs = tmp_path / "nucleotide.csv"
    nucleotide_costs.write_text("A,G,0.5\n")
    codon_costs = tmp_path / "codon.csv"
    codon_costs.write_text("from,to,cost\nA,-,1.5\nGGG,CCC,0.5\n")
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"ring = r64\nn = 7\ngen = u^4*(x+1)  # \xe9\n")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    f2v_lee = tmp_path / "f2v_lee.cfg"
    f2v_lee.write_text("ring = f2v\nn = 8\nmetric = lee\ngen = x^2+v*x+1\n")
    cases = [
        (("build-verify", "--config", str(bad_number)),
         "config line 2: bad value for n: 'seven'"),
        (("build-verify", "--config", str(bad_level), "--dna-d", "5"),
         "config line 4: unknown level: bogus"),
        (("build-verify", "--config", str(bad_metric)),
         "config line 2: unknown metric: bogus"),
        (("build-verify", "--ring", "r64", "-n", "7",
          "--gen", "u^4*(x+1)*(x^3+x+1)", "--metric", "edit",
          "--costs", str(bad_costs)),
         "cost table line 2: bad cost value 'cheap'"),
        # a cost whose symbols the scan never compares could never apply
        (("build-verify", "--ring", "r64", "-n", "7",
          "--gen", "u^4*(x+1)*(x^3+x+1)", "--metric", "edit",
          "--costs", str(nucleotide_costs)),
         "cost table line 1: 'A' is neither '-' nor a codon-level symbol"),
        (("build-verify", "--ring", "f2v", "-n", "4", "--gen", "x+1",
          "--metric", "edit", "--costs", str(codon_costs)),
         "cost table line 3: 'GGG' is neither '-' nor a nucleotide-level "
         "symbol"),
        (("build-verify", "--ring", "r64", "-n", "7",
          "--gen", "u^0*(x^7+1)", "--dna-d", "3"),  # a one-word code
         "--dna-d needs a code of at least two words"),
        # a length is at least one, whichever command and ring read it
        (("build-verify", "--ring", "r64", "-n", "0", "--gen", "u*(x+1)"),
         "-n must be >= 1, got 0"),
        (("build-verify", "--ring", "r64", "-n", "0",
          "--tower", ",".join(["x+1"] * 6)),
         "-n must be >= 1, got 0"),
        (("factor", "-n", "0"), "-n must be >= 1, got 0"),
        (("build-verify", "--ring", "f2v", "-n", "0", "--gen", "x+1"),
         "-n must be >= 1, got 0"),
        (("export", "--ring", "f2v", "-n", "-2", "--gen", "x+1",
          "--format", "csv"),
         "-n must be >= 1, got -2"),
        (("build-verify", "--config", str(zero_n)),
         "config line 2: n must be >= 1, got 0"),
        (("build-verify", "--config", str(case_key)),
         "config line 1: unknown key 'case'"),
        (("build-verify", "--ring", "f2v", "-n", "8", "--gen", "x^2+v*x+1",
          "--tower", ",".join(["x+1"] * 6)),
         "--tower is for --ring r64, not f2v"),
        (("export", "--ring", "f2v", "-n", "8", "--gen", "x^2+v*x+1",
          "--tower", ",".join(["x+1"] * 6), "--format", "csv"),
         "--tower is for --ring r64, not f2v"),
        (("build-verify", "--ring", "f2v", "-n", "8", "--gen", "x^2+v*x+1",
          "--dna-d", "3"),
         "--dna-d is for --ring r64, not f2v"),
        (("build-verify", "--ring", "f2v", "-n", "8", "--gen", "x^2+v*x+1",
          "--metric", "lee"),
         "--metric lee is for --ring r64, not f2v"),
        (("build-verify", "--config", str(f2v_lee)),
         "config line 3: metric lee is for --ring r64, not f2v"),
        # flags a command does not read are errors, not silently dropped
        (("export", "--ring", "r64", "-n", "3", "--gen", "u^5*(x+1)",
          "--format", "csv", "--dna-d", "3", "--metric", "lee",
          "--costs", "/nonexistent.csv"),
         "--metric is not used by export"),
        # f2v scans are always nucleotide-level
        (("build-verify", "--ring", "f2v", "-n", "4", "--gen", "x+1",
          "--level", "codon", "--metric", "edit"),
         "--level is for --ring r64, not f2v"),
        (("export", "--ring", "r64", "-n", "7", "--gen", "u^4*(x+1)"),
         "export needs --format fasta or csv"),
        (("build-verify", "--config", str(gens_key)),
         "config line 2: use repeated 'gen =' lines"),
        (("build-verify", "--config", str(bad_ring)),
         "config line 1: unknown ring: r65"),
        # a distance floor is a finite number >= 0
        *((("build-verify", "--ring", "r64", "-n", "9",
            "--gen", "u^5*(x^2+x+1)", "--dna-d", d),
           f"--dna-d must be a finite number >= 0, got {shown}")
          for d, shown in (("nan", "nan"), ("inf", "inf"), ("-1", "-1.0"))),
        (("build-verify", "--config", str(nan_d)),
         "config line 4: dna_d must be a finite number >= 0, got nan"),
        (("build-verify", "--config", str(other_command)),
         "config line 2: command = table, but the command is build-verify"),
        # a value from the config names its line, unless a flag overrides it
        (("export", "--config", str(export_d), "--format", "csv"),
         "config line 4: dna_d is not used by export"),
        (("export", "--config", str(export_d), "--format", "csv",
          "--dna-d", "3"),
         "--dna-d is not used by export"),
        # an enumeration guard is at least one word
        (("build-verify", "--ring", "r64", "-n", "7", "--gen", "u^4*(x+1)",
          "--guard", "-5"),
         "--guard must be >= 1, got -5"),
        (("table", "-w", "3", "--guard", "0"), "--guard must be >= 1, got 0"),
        (("build-verify", "--config", str(zero_guard)),
         "config line 4: guard must be >= 1, got 0"),
        # the cost table is read whether or not an edit scan runs
        *((("build-verify", "--ring", "r64", "-n", "7", "--gen", gen,
            "--metric", metric, "--costs", "/nonexistent.csv"),
           "cannot read cost table: [Errno 2] No such file or directory: "
           "'/nonexistent.csv'")
          for gen, metric in (("u^4*(x+1)*(x^3+x+1)", "hamming"),
                              ("u^4*(x+1)", "all"))),  # scan over the cap
        # a config must be UTF-8, and --out must be writable where it points
        (("build-verify", "--config", str(not_utf8)),
         "cannot read config: 'utf-8' codec can't decode byte 0xe9 in "
         "position 36: invalid continuation byte"),
        (("export", "--ring", "r64", "-n", "3", "--gen", "u^5*(x+1)",
          "--format", "fasta", "--out", str(tmp_path)),
         f"cannot write output: [Errno 21] Is a directory: '{tmp_path}'"),
        (("table", "-w", "3", "--out", str(a_file)),
         f"cannot write output: [Errno 17] File exists: '{a_file}'"),
    ]
    for argv, message in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err == f"error: {message}\n", argv


def test_main_parses_with_one_parser_and_keeps_nothing_between_calls(
    capsys,
):
    """main builds its parser at first use and parses every later call
    with it: an --gen list (an append action), a usage error or an
    argparse error in one call does not reach the next, and --help reads
    as from a fresh parser."""
    assert cli._parser() is cli._parser()
    r64 = ["build-verify", "--ring", "r64", "-n", "3", "--metric", "hamming"]
    two_gens = r64 + ["--gen", "u^5*(x+1)", "--gen", "u^5"]
    code, out, err = run(capsys, *two_gens)
    assert (code, out) == (2, "")
    assert err == "error: r64 codes take exactly one --gen (or a --tower)\n"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["factor", "-n", "7", "--bogus"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, out, _ = run(capsys, "factor", "-n", "7")
    assert code == 0 and out.startswith("n: 7\n")
    code, out, err = run(capsys, *r64, "--gen", "u^5*(x+1)")
    assert (code, err) == (0, "")
    assert "verdict: pass" in out.splitlines()
    for argv in (two_gens, r64 + ["--gen", "u^5*(x+1)"]):
        assert cli._parser().parse_args(argv) == (
            cli.build_parser().parse_args(argv)
        )
    helps = []
    for parser in (cli._parser(), cli.build_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args(["build-verify", "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--gen GENS" in helps[0]


@pytest.mark.parametrize("fail", [False, True])
def test_codon_edit_minimum_and_bounds_scan_no_pairs(
    capsys, monkeypatch, fail
):
    """At the codon level without --costs build-verify reads the edit
    minimum and the bound check off the shift pair, with no pair scan;
    at the nucleotide level it scans the nucleotide texts once, and the
    bound check still scans nothing.  Both report the same check and
    failure lines, on a code that meets the bounds and, with the
    singleton bound forced to 1 (rank n), on one that does not."""
    if fail:
        monkeypatch.setattr(cli.cyclic.CyclicCodeR, "rank", lambda c: c.n)
    scanned = []
    for name in ("min_edit_pairwise", "min_pairwise"):
        scan = getattr(cli.metrics, name)
        monkeypatch.setattr(
            cli.metrics, name,
            lambda items, *args, name=name, scan=scan: (
                scanned.append((name, len(items[0]))) or scan(items, *args)
            ),
        )
    lines = {}
    for level, minimum, scans in (
        ("codon", 2, []), ("nucleotide", 6, [("min_edit_pairwise", 21)]),
    ):
        scanned.clear()
        code, out, _ = run(
            capsys, "build-verify", "--ring", "r64", "-n", "7",
            "--gen", "u^4*(x+1)*(x^3+x+1)", "--metric", "edit",
            "--level", level,
        )
        assert code == int(fail)
        assert scanned == scans
        assert f"min_edit_{level}: {minimum}" in out.splitlines()
        lines[level] = [l for l in out.splitlines() if "edit_bounds" in l]
    assert lines["codon"] == lines["nucleotide"]
    if fail:
        assert lines["codon"] == [
            "check.edit_bounds: FAIL",
            "failure: edit_bounds: min_edit 2 vs deg-bound 5, singleton 1",
        ]
    else:
        assert lines["codon"] == ["check.edit_bounds: pass"]


def test_config_command_line_naming_the_subcommand_replays(capsys, tmp_path):
    job = tmp_path / "job.cfg"
    job.write_text(
        "command = build-verify\nring = r64\nn = 7\ngen = u^4*(x+1)\n"
        "metric = all\nlevel = codon\nguard = 1048576\n"
    )
    code, out, err = run(capsys, "build-verify", "--config", str(job))
    assert (code, err) == (0, "")
    assert "command: build-verify" in out


# each flag: the commands that read it, a value and its config-file key;
# --config is read by every command
FLAG_READERS = {
    "--ring": ({"build-verify", "export"}, "r64", "ring"),
    "-n": ({"factor", "build-verify", "export"}, "7", "n"),
    "--gen": ({"build-verify", "export"}, "u^4*(x+1)", "gen"),
    "--tower": ({"build-verify", "export"}, ",".join(["x^7+1"] * 6), "tower"),
    "--metric": ({"build-verify"}, "hamming", "metric"),
    "--level": ({"build-verify"}, "codon", "level"),
    "--guard": ({"table", "build-verify", "export"}, "16", "guard"),
    "--format": ({"export"}, "csv", "fmt"),
    "--out": ({"table", "export"}, "out", "out"),
    "--which": ({"table"}, "9", "which"),
    "--costs": ({"build-verify"}, "costs.csv", "costs"),
    "--dna-d": ({"build-verify"}, "3", "dna_d"),
}


@pytest.mark.parametrize("command", ["factor", "build-verify", "table", "export"])
def test_each_command_rejects_the_flags_it_does_not_read(
    capsys, tmp_path, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    Path("empty.cfg").write_text("")
    code, _, err = run(capsys, command, "--config", "empty.cfg")
    assert "is not used by" not in err
    read = 0
    for flag, (readers, value, key) in FLAG_READERS.items():
        Path("job.cfg").write_text(f"{key} = {value}\n")
        for argv, where in (([command, flag, value], flag),
                            ([command, "--config", "job.cfg"],
                             f"config line 1: {key}")):
            code, _, err = run(capsys, *argv)
            if command in readers:
                assert "is not used by" not in err, argv
            else:
                assert (code, err) == (
                    2, f"error: {where} is not used by {command}\n"
                ), argv
        read += command in readers
    assert read + 1 == {"factor": 2, "table": 4, "export": 8,
                        "build-verify": 10}[command]


# each ring-specific flag: the one ring it is for, a value, its config key
RING_FLAGS = {
    "--tower": ("r64", ",".join(["x+1"] * 6), "tower"),
    "--level": ("r64", "nucleotide", "level"),
    "--dna-d": ("r64", "3", "dna_d"),
}


@pytest.mark.parametrize("command", ["build-verify", "export"])
def test_ring_specific_flags_are_rejected_for_the_other_ring(
    capsys, tmp_path, command
):
    job = tmp_path / "job.cfg"
    for flag, (ring, value, key) in RING_FLAGS.items():
        if command not in FLAG_READERS[flag][0]:
            continue
        for given in ("r64", "f2v", None):
            ring_flag = ["--ring", given] if given else []
            job.write_text(
                (f"ring = {given}\n" if given else "") + f"{key} = {value}\n"
            )
            for argv, where in (([command, *ring_flag, flag, value], flag),
                                ([command, "--config", str(job)],
                                 f"config line {1 + bool(given)}: {key}")):
                code, _, err = run(capsys, *argv)
                if (given or "r64") == ring:
                    assert "is for --ring" not in err, argv
                else:
                    assert (code, err) == (
                        2, f"error: {where} is for --ring {ring}, "
                        f"not {given or 'r64'}\n"
                    ), argv


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    # every dnacodes command in the README's sh block, in order, so the
    # README cannot show a flag its command rejects
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI usage\n\n```sh\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["printf"]:
            Path(words[-1]).write_text(words[1].replace("\\n", "\n"))
        elif words[:1] == ["dnacodes"]:
            code, _, err = run(capsys, *words[1:])
            # the f2v example documents a failing theorem instance
            assert code == (1 if "f2v" in words else 0), (line, err)
            ran.append(words[1])
    assert ran == ["factor", "build-verify", "build-verify", "build-verify",
                   "table", "export", "build-verify"]


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_cost_is_a_usage_error_naming_the_line(capsys, tmp_path, cell):
    # a nan cost used to drop out of the pair scan's comparisons
    costs = tmp_path / "costs.csv"
    costs.write_text(f"from,to,cost\nA,G,0.5\nA,C,{cell}\n")
    code, out, err = run(
        capsys, "build-verify", "--ring", "r64", "-n", "7",
        "--gen", "u^4*(x+1)*(x^3+x+1)", "--metric", "edit",
        "--level", "nucleotide", "--costs", str(costs),
    )
    assert code == 2
    assert "min_edit" not in out
    assert err == (
        f"error: cost table line 3: cost must be a finite number, "
        f"got '{cell}'\n"
    )


def test_library_value_error_is_not_a_usage_error(monkeypatch):
    def broken(n):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "factor_xn_minus_1", broken)
    with pytest.raises(ValueError, match="internal failure"):
        cli.main(["factor", "-n", "7"])
