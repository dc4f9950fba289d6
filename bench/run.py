"""dnacodes benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 0 --seconds 40 --trace 0

Every pass runs the workload's whole job list in a fresh interpreter
(worker.py), so the program's caches (the lru_cached factorisations
and codon table, any future memo) start cold in each pass, while jobs
inside a pass share the process as in a library session.  A run
repeats passes, one at a time (closed loop, one client, one thread),
until --seconds is used up, and reports medians over its passes.  Jobs
go through dnacodes.cli.main with generated argv lists, or through the
public campaign functions; every output is checked (worker.py), and a
job whose exit code or checked report lines are wrong, or that raises,
counts as failed.

Workloads (job lists in workloads.py; seed 0 is the default list):

  campaign   both exhaustive rc theorem campaigns, `table -w 5` and a
             length-10 skew build: hundreds of small codes, skew right
             division, small Echelon builds, gf2poly; no edit distance.
             Exhaustive, so the seed changes nothing.  The only
             workload that repeats an input within a pass:
             monic_right_divisors(10) runs in the campaign and again
             in the table-5 search.
  edit-scan  `table -w 3` and four build-verify jobs whose time goes to
             all-pairs edit scans over 2^6..2^9 words, at codon and
             nucleotide level, with and without early exit, and one
             with a weighted cost table (the DP path).
  enumerate  three builds of 2^14..2^20 words and a FASTA export, with
             no edit scans: Echelon add/reduce and span over every
             word, set-based rc and shift checks, ring64 word ops.

End-to-end metrics (--trace 0), each the median over the run's passes:

  setup_s      fresh interpreter, from `import dnacodes` until
               codons.canonical_table() returns; sampled in every pass
               and in extra set-up-only interpreters
  wall_s       the whole job list, after set-up
  peak_rss_mb  peak resident memory of the pass's process
  codes_per_s  codes examined per second: campaign towers and codes,
               table-5 search candidates, one per single-code job
  words_per_s  codewords enumerated per second by single-code jobs

Jobs failed over jobs attempted (the fail ratio) is the `failed` and
`attempted` pair of the result line.

Per-layer metrics (--trace 1) come from traced passes (tracer.py), which
alternate with untraced ones; trace.overhead_s is the traced wall_s
minus the untraced wall_s.  The traced passes also check that the traced
call counts equal those the inputs imply (the `trace` entries of the
jobs), which fails the run if a binding escaped the wrapping.

Deliberately not measured:

  * the README example `build-verify --ring f2v -n 8 --gen "x^2+v*x+1"`
    with default flags runs an unbounded 8.4 M-pair edit scan (minutes);
    it joins a workload once that scan is bounded.
  * ring64.mul has no caller under src/, so making it faster moves no
    workload; only the Tier-1 ring exhaustives exercise it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the context
(Python version, nproc, load average at start and end, src/ line count)
and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import LAYER_METRICS
from workloads import COSTS_CSV, DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# A run must exit within 180 s: passes get at most 140 s between them,
# and each set-up probe (about 0.05 s of work) at most 5 s.
TIME_LIMIT_S = 140.0
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 5.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("codes_per_s", "1/s"),
    ("words_per_s", "1/s"),
)


class PassFailed(Exception):
    pass


def run_worker(mode: str, jobs: list, work: Path, timeout: float) -> dict:
    spec = {"src": str(SRC), "mode": mode, "work": str(work), "jobs": jobs}
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            cwd=ROOT,
            env=env,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(
            f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(modes: list[str], jobs: list, work: Path, seconds: float):
    """Rounds of one pass per mode until the next round would overrun."""
    passes: dict[str, list[dict]] = {m: [] for m in modes}
    errors: list[str] = []
    t_begin = perf_counter()
    while True:
        t_round = perf_counter()
        try:
            for mode in modes:
                left = TIME_LIMIT_S - (perf_counter() - t_begin)
                passes[mode].append(run_worker(mode, jobs, work, left))
        except PassFailed as e:
            errors.append(str(e))
            break
        now = perf_counter()
        if (now - t_begin) + (now - t_round) > seconds:
            break
    return passes, errors


def src_line_count() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dnacodes" / "__init__.py").is_file():
        print(f"error: no dnacodes package under {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    jobs = WORKLOADS[args.workload](args.seed)
    scratch = ROOT / ".bench_build"
    work = scratch / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        (work / "costs.csv").write_text(COSTS_CSV)
        compileall.compile_dir(str(SRC), quiet=1)
        modes = ["trace", "plain"] if args.trace else ["plain"]
        passes, errors = run_passes(modes, jobs, work, args.seconds)
        setups = [p["setup_s"] for p in passes[modes[-1]]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                try:
                    probe = run_worker("setup", [], work, PROBE_TIMEOUT_S)
                except PassFailed as e:
                    # the passes' own set-up samples remain
                    print(f"error: set-up probe: {e}", file=sys.stderr)
                    break
                setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    measured = passes[modes[-1]]
    if not measured:
        print("error: no pass completed", file=sys.stderr)
        return 1

    done = [p for runs in passes.values() for p in runs]
    attempted = len(jobs) * (len(done) + len(errors))
    failed = len(jobs) * len(errors)
    for p in done:
        for job in p["jobs"]:
            if not job["ok"]:
                failed += 1
                print(f"job failed: {job['name']}: {job['problem']}",
                      file=sys.stderr)

    if args.trace:
        traced = passes["trace"]
        metrics = {
            name: (median(p["layers"][name] for p in traced), unit)
            for name, unit, _ in LAYER_METRICS
        }
        metrics["trace.overhead_s"] = (
            median(p["wall_s"] for p in traced)
            - median(p["wall_s"] for p in measured),
            "s",
        )
    else:
        per_pass = {
            "wall_s": [p["wall_s"] for p in measured],
            "peak_rss_mb": [p["peak_rss_mb"] for p in measured],
            "codes_per_s": [
                sum(j["codes"] for j in p["jobs"]) / p["wall_s"] for p in measured
            ],
            "words_per_s": [
                sum(j["words"] for j in p["jobs"]) / p["wall_s"] for p in measured
            ],
            "setup_s": setups,
        }
        metrics = {
            name: (median(per_pass[name]), unit) for name, unit in END_TO_END
        }

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {m: len(r) for m, r in passes.items()},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "src_lines": src_line_count(),
    }
    print("context: " + json.dumps(context))
    for job in jobs:
        times = [j["seconds"] for p in measured for j in p["jobs"]
                 if j["name"] == job["name"]]
        print(f"job {job['name']}: {median(times):.4f} s  "
              f"{' '.join(job.get('argv', [job['call']]))}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
