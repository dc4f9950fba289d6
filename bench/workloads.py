"""Seeded job lists for the three benchmark workloads.

This module imports nothing from the program under test: every input
and every expected value is derived here, from the seed and from the
structure of the codes, so the program only ever sees argv lists.

A job is a JSON-ready dict:

  name    short label used in reports
  call    "cli" (argv through dnacodes.cli.main), "r64_campaign" or
          "skew_campaign" (the library campaigns)
  argv    for "cli" jobs; "{work}" is replaced by the run's scratch dir
  check   which output check the worker applies
  expect  values the check compares against
  trace   counts the traced run must reproduce exactly for this job

Seed 0 is the default: it gives exactly the jobs the workloads are
defined by.  Other seeds keep every job's ring, length, metric flags
and word count, and draw another generator of the same size, so a run
does the same amount of work whatever the seed.  Every drawn r64 tower
has x+1 dividing f0, so (reducing mod u) the all-alpha word is never in
the code, the code is never reverse-complement closed and the
extensional rc scan stops at its first witness, as it does on seed 0.
"""

from __future__ import annotations

import itertools
import random

DEFAULT_SEED = 0

# Irreducible factors of x^n - 1 over F2, as bit masks (bit i = x^i);
# x+1 comes first.
FACTORS = {
    7: (0b11, 0b1011, 0b1101),
    9: (0b11, 0b111, 0b1001001),
}

# The degree-4 monic right divisors of x^8 - 1 in (F2+vF2)[x; theta]:
# the case-1 skew codes of length 8 with 4^4 = 256 words.
SKEW_N8_DEGREE4 = (
    "x^4+1",
    "x^4+v*x^3+1",
    "x^4+(v+1)*x^3+1",
    "x^4+x^3+v*x^2+x+1",
    "x^4+x^3+(v+1)*x^2+x+1",
    "x^4+v*x+1",
    "x^4+v*x^3+v*x+1",
    "x^4+(v+1)*x^3+x^2+v*x+1",
    "x^4+(v+1)*x+1",
    "x^4+(v+1)*x^3+(v+1)*x+1",
    "x^4+v*x^3+x^2+(v+1)*x+1",
)

# Number of monic right divisors of x^n - 1, frozen by the test suite.
SKEW_DIVISOR_COUNTS = {2: 1, 4: 5, 6: 11, 8: 29, 10: 31}

# The six criterion-8 counterexamples the skew campaign must report.
SKEW_N8_VIOLATIONS = (
    "n=8, case1:<x^2+v*x+1>: sufficiency but not closed",
    "n=8, case1:<x^2+(v+1)*x+1>: sufficiency but not closed",
    "n=8, case1:<x^4+v*x^3+v*x+1>: sufficiency but not closed",
    "n=8, case1:<x^4+(v+1)*x^3+x^2+v*x+1>: closed but necessity fails",
    "n=8, case1:<x^4+(v+1)*x^3+(v+1)*x+1>: sufficiency but not closed",
    "n=8, case1:<x^4+v*x^3+x^2+(v+1)*x+1>: closed but necessity fails",
)

# Weighted costs for the nucleotide-level DP job: transitions are cheap,
# gaps dear.  Pairs not listed keep the unit cost.
COSTS_CSV = (
    "from,to,cost\n"
    "A,G,0.5\nG,A,0.5\nC,T,0.5\nT,C,0.5\n"
    "-,A,1.5\n-,C,1.5\n-,G,1.5\n-,T,1.5\n"
    "A,-,1.5\nC,-,1.5\nG,-,1.5\nT,-,1.5\n"
)

# Checks whose failure is a finding about a drawn code (a theorem
# instance that does not hold), not a failed job.
THEOREM_CHECKS = (
    "sufficiency_implies_closure",
    "closure_implies_necessity",
    "edit_bounds",
)


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly_text(v: int) -> str:
    terms = []
    for i in range(v.bit_length() - 1, -1, -1):
        if (v >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def towers(n: int, log2_size: int) -> list[tuple[int, ...]]:
    """Odd-length towers (f0..f5) with 2^log2_size words and x+1 | f0.

    A tower is fixed by a cut level c in 0..6 per irreducible factor f
    (f divides fi exactly when i < c); the code has
    2^(sum of n - deg fi) words.
    """
    out = []
    for cuts in itertools.product(range(7), repeat=len(FACTORS[n])):
        if cuts[0] == 0:
            continue
        polys = []
        for i in range(6):
            p = 1
            for f, c in zip(FACTORS[n], cuts):
                if c > i:
                    p = _clmul(p, f)
            polys.append(p)
        if sum(n - (p.bit_length() - 1) for p in polys) == log2_size:
            out.append(tuple(polys))
    return out


def _report_keys(ring: str, flags: list[str]) -> list[str]:
    """The distance lines build-verify must print for these flags."""
    metric = flags[flags.index("--metric") + 1]
    level = "nucleotide" if ring == "f2v" or "nucleotide" in flags else "codon"
    keys = []
    if metric in ("hamming", "all"):
        keys.append("min_hamming")
    if metric == "lee" or (metric == "all" and ring == "r64"):
        keys.append("min_lee")
    if metric in ("edit", "all"):
        keys.append(f"min_edit_{level}")
    if "--dna-d" in flags:
        keys.append("dna_max_edit")
    return keys


def _r64_job(name, rng, n, log2_size, default_gen, flags, check="build"):
    """A build-verify (or export) job on an r64 code of fixed size."""
    if rng is None:
        gen = ["--gen", default_gen]
    else:
        tower = rng.choice(towers(n, log2_size))
        gen = ["--tower", ",".join(_poly_text(p) for p in tower)]
    command = "export" if check == "export" else "build-verify"
    expect = {"size": 1 << log2_size, "n": n, "ring": "r64"}
    if check == "build":
        expect["keys"] = _report_keys("r64", flags)
    return {
        "name": name,
        "call": "cli",
        "argv": [command, "--ring", "r64", "-n", str(n), *gen, *flags],
        "check": check,
        "expect": expect,
    }


def _f2v_job(name, n, gen, degree, flags):
    return {
        "name": name,
        "call": "cli",
        "argv": ["build-verify", "--ring", "f2v", "-n", str(n),
                 "--gen", gen, *flags],
        "check": "build",
        "expect": {"size": 4 ** (n - degree), "n": n, "ring": "f2v",
                   "keys": _report_keys("f2v", flags)},
    }


def _skew_search_divmods(n: int) -> int:
    """poly_right_divmod calls made by monic_right_divisors(n) and the
    case-1 constructor check of each divisor found."""
    return (4 ** (n - 1) - 1) // 3 + SKEW_DIVISOR_COUNTS[n]


def campaign_jobs(seed: int) -> list[dict]:
    """Both theorem campaigns, the table-5 generator search and one
    skew build.  Exhaustive, so the seed is not used."""
    skew_lengths = (2, 4, 6, 8, 10)
    f2v_build = _f2v_job("f2v-n10", 10, "x^4+x^3+x^2+x+1", 4,
                         ["--metric", "hamming"])
    f2v_build["expect"].update(exit=[0], values={"min_hamming": "2"})
    return [
        {
            "name": "r64-campaign",
            "call": "r64_campaign",
            "lengths": [3, 5, 7],
            "guard": 2**16,
            "check": "r64_campaign",
            "expect": {"towers": 441, "enumerated": 181, "violations": []},
        },
        {
            "name": "skew-campaign",
            "call": "skew_campaign",
            "lengths": list(skew_lengths),
            "guard": 2**16,
            "check": "skew_campaign",
            "expect": {"codes": 137, "enumerated": 136, "skipped": 1,
                       "violations": sorted(SKEW_N8_VIOLATIONS)},
            "trace": {"skew.poly_right_divmod": sum(
                _skew_search_divmods(n) for n in skew_lengths)},
        },
        {
            "name": "table5",
            "call": "cli",
            "argv": ["table", "-w", "5"],
            "check": "table5",
            "expect": {"candidates": 47, "best_overlap": 49,
                       "rc_witnesses": 60},
            "trace": {"skew.poly_right_divmod": _skew_search_divmods(10)},
        },
        f2v_build,
    ]


def edit_scan_jobs(seed: int) -> list[dict]:
    """All-pairs edit scans over 2^6..2^9 words, codon and nucleotide
    level, unit and weighted costs, with and without early exit."""
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    jobs = [
        {
            "name": "table3",
            "call": "cli",
            "argv": ["table", "-w", "3"],
            "check": "table3",
            "expect": {"notes": {"min_edit_codon_level": "2",
                                 "min_edit_nucleotide_level": "6",
                                 "min_hamming": "4"},
                       "rows": 64},
            "trace": {"metrics.edit_distance": 2 * (64 * 63 // 2)},
        },
        _r64_job("r64-n7-edit", rng, 7, 9, "u^3*(x+1)*(x^3+x+1)",
                 ["--metric", "edit"]),
        _r64_job("r64-n9-dna", rng, 9, 7, "u^5*(x^2+x+1)",
                 ["--metric", "all", "--dna-d", "9"]),
        _f2v_job("f2v-n8-all", 8,
                 rng.choice(SKEW_N8_DEGREE4) if rng else "x^4+v*x^3+v*x+1",
                 4, ["--metric", "all"]),
        _r64_job("r64-n7-weighted", rng, 7, 6, "u^4*(x+1)*(x^3+x+1)",
                 ["--metric", "edit", "--level", "nucleotide",
                  "--costs", "{work}/costs.csv"]),
    ]
    if rng is None:
        frozen = [
            ([0], {"min_edit_codon": "2"}),
            ([0], {"min_hamming": "2", "min_lee": "2", "min_edit_codon": "2",
                   "dna_code": "False", "dna_max_edit": "9"}),
            ([1], {"min_hamming": "2", "min_edit_nucleotide": "2",
                   "failures": "sufficiency_implies_closure"}),
            ([0], {"min_edit_nucleotide": "4.0"}),
        ]
        for job, (exit_codes, values) in zip(jobs[1:], frozen):
            job["expect"].update(exit=exit_codes, values=values)
    return jobs


def enumerate_jobs(seed: int) -> list[dict]:
    """A few codes of 2^14..2^20 words, enumerated and checked without
    edit scans, plus a FASTA export."""
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    jobs = [
        _r64_job("r64-n7-2^20", rng, 7, 20, "u*(x^3+x+1)",
                 ["--metric", "hamming"]),
        _r64_job("r64-n9-2^16", rng, 9, 16, "u^4*(x+1)", ["--metric", "lee"]),
        # x+1 is the only monic right divisor of x^8-1 of degree 1
        _f2v_job("f2v-n8-2^14", 8, "x+1", 1, ["--metric", "hamming"]),
        _r64_job("export-n7-2^16", rng, 7, 16, "u^2*(x^3+x+1)",
                 ["--format", "fasta", "--out", "{work}/export.fasta"],
                 check="export"),
    ]
    jobs[2]["expect"].update(exit=[0], values={"min_hamming": "2"})
    if rng is None:
        jobs[0]["expect"].update(exit=[0], values={"min_hamming": "3"})
        jobs[1]["expect"].update(exit=[0], values={"min_lee": "2"})
    return jobs


WORKLOADS = {
    "campaign": campaign_jobs,
    "edit-scan": edit_scan_jobs,
    "enumerate": enumerate_jobs,
}
