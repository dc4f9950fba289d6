"""One benchmark pass in a fresh interpreter.

Reads a JSON spec on stdin:

  src    directory holding the dnacodes package under test
  mode   "setup" (measure set-up only), "plain" or "trace"
  work   scratch directory substituted for "{work}" in argv
  jobs   the job list from workloads.py

and prints one JSON object on stdout: setup_s, and unless mode is
"setup", wall_s, peak_rss_mb, per-job outcomes and, when traced, the
per-layer metrics.  Jobs run one after another in this process; their
outputs are kept in memory and checked after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from workloads import THEOREM_CHECKS


def main() -> int:
    spec = json.load(sys.stdin)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import dnacodes
    from dnacodes import codons

    codons.canonical_table()
    setup_s = perf_counter() - t0

    if src not in Path(dnacodes.__file__).resolve().parents:
        print(f"dnacodes imported from {dnacodes.__file__}, not {src}",
              file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    jobs = [_substitute(job, spec["work"]) for job in spec["jobs"]]
    outputs = []
    traced_counts = []
    t_start = perf_counter()
    for job in jobs:
        before = {}
        if tracer is not None:
            before = {key: tracer.calls(key) for key in job.get("trace", ())}
        t_job = perf_counter()
        outputs.append(_run(job))
        outputs[-1]["seconds"] = perf_counter() - t_job
        traced_counts.append(
            {k: tracer.calls(k) - v for k, v in before.items()}
        )
    wall_s = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = []
    for job, out, counts in zip(jobs, outputs, traced_counts):
        problem, codes, words = _check(job, out)
        if problem is None and tracer is not None:
            for key, want in job.get("trace", {}).items():
                if counts[key] != want:
                    problem = f"traced {key} calls {counts[key]}, expected {want}"
        outcomes.append({
            "name": job["name"],
            "ok": problem is None,
            "problem": problem,
            "codes": codes,
            "words": words,
            "seconds": out["seconds"],
        })
    result.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb, jobs=outcomes)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


def _substitute(job: dict, work: str) -> dict:
    if "argv" in job:
        job = dict(job, argv=[a.replace("{work}", work) for a in job["argv"]])
    return job


def _run(job: dict) -> dict:
    """Run one job, capturing stdout, stderr, exit code or exception."""
    from dnacodes import cli, cyclic, skew

    out, err = io.StringIO(), io.StringIO()
    record = {"exit": None, "error": None, "result": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["call"] == "cli":
                try:
                    record["exit"] = cli.main(job["argv"])
                except SystemExit as e:
                    record["exit"] = e.code
            elif job["call"] == "r64_campaign":
                r = cyclic.rc_theorem_campaign(tuple(job["lengths"]), job["guard"])
                record["result"] = {
                    "towers": r.towers_checked,
                    "enumerated": r.codes_enumerated,
                    "violations": sorted(r.violations),
                }
            elif job["call"] == "skew_campaign":
                r = skew.rc_campaign(tuple(job["lengths"]), job["guard"])
                record["result"] = {
                    "codes": r.codes_checked,
                    "enumerated": r.codes_enumerated,
                    "skipped": r.skipped_over_guard,
                    "violations": sorted(r.violations),
                }
            else:
                raise ValueError(f"unknown call {job['call']!r}")
    except Exception as e:  # a crashing job is a failed job, not a crashed pass
        record["error"] = f"{type(e).__name__}: {e}"
    record["stdout"] = out.getvalue()
    record["stderr"] = err.getvalue()
    return record


# -- output checks -------------------------------------------------------------


def _report(text: str) -> list[tuple[str, str]]:
    pairs = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs.append((key, value))
    return pairs


def _check(job: dict, out: dict) -> tuple[str | None, int, int]:
    """(problem or None, codes examined, words enumerated) for one job."""
    if out["error"] is not None:
        return f"raised {out['error']}", 0, 0
    try:
        return CHECKS[job["check"]](job["expect"], out)
    except (KeyError, ValueError, IndexError) as e:
        return f"unreadable output ({type(e).__name__}: {e})", 0, 0


def _check_campaign(expect: dict, out: dict):
    got = out["result"]
    for key, want in expect.items():
        if got[key] != want:
            return f"{key} {got[key]!r}, expected {want!r}", 0, 0
    return None, got.get("towers", got.get("codes")), 0


def _notes(out: dict) -> dict[str, str]:
    prefix = "note: "
    return dict(_report("\n".join(
        line[len(prefix):] for line in out["stdout"].splitlines()
        if line.startswith(prefix)
    )))


def _check_table3(expect: dict, out: dict):
    if out["exit"] != 0:
        return f"exit {out['exit']}", 0, 0
    notes = _notes(out)
    for key, want in expect["notes"].items():
        if notes[key] != want:
            return f"{key} {notes[key]}, expected {want}", 0, 0
    lines = out["stdout"].splitlines()
    start = lines.index("-- regenerated --") + 2
    rows = lines[start:lines.index("-- diff --")]
    if len(set(rows)) != expect["rows"] or any(len(r) != 21 for r in rows):
        return f"{len(rows)} regenerated rows, expected {expect['rows']}", 0, 0
    return None, 1, len(rows)


def _check_table5(expect: dict, out: dict):
    if out["exit"] != 0:
        return f"exit {out['exit']}", 0, 0
    notes = _notes(out)
    got = {
        "candidates": int(notes["generator_candidates_tested"]),
        "best_overlap": int(notes["best_overlap"].split()[0]),
        "rc_witnesses": int(notes["rc_witnesses"]),
    }
    for key, want in expect.items():
        if got[key] != want:
            return f"{key} {got[key]}, expected {want}", 0, 0
    return None, got["candidates"], 0


def _check_build(expect: dict, out: dict):
    report = _report(out["stdout"])
    kv = dict(report)
    checks: dict[str, str] = {}
    for key, value in report:
        if key.startswith("check."):
            name = key[len("check."):]
            checks[name] = "FAIL" if checks.get(name) == "FAIL" else value
    failed = sorted(name for name, v in checks.items() if v != "pass")
    failures = sorted(v.split(":")[0] for k, v in report if k == "failure")

    if out["exit"] not in expect.get("exit", (0, 1)):
        return f"exit {out['exit']}: {out['stderr'].strip()[:200]}", 0, 0
    if kv["size"] != str(expect["size"]) or kv["enumerated"] != "True":
        return f"size {kv['size']}, expected {expect['size']}", 0, 0
    required = ["enumerated_size", "rc_extensional_matches_algebraic"]
    required += [name for name in checks if name.startswith("gray_")]
    if expect["ring"] == "r64" and expect["n"] % 2 == 1:
        required.append("size_formula")
    if not any(name.startswith("gray_") for name in checks):
        return "no gray checks reported", 0, 0
    for name in required:
        if checks.get(name) != "pass":
            return f"check.{name} {checks.get(name)}", 0, 0
    for name in failed:
        if name not in THEOREM_CHECKS:
            return f"check.{name} FAIL", 0, 0
    verdict = "pass" if out["exit"] == 0 else "FAIL"
    if kv["verdict"] != verdict or failures != failed:
        return f"verdict {kv['verdict']} with failures {failures}", 0, 0
    for key in expect["keys"]:
        if not float(kv[key]) > 0:
            return f"{key} {kv[key]}", 0, 0
    frozen = dict(expect.get("values", {}))
    if "failures" in frozen and ",".join(failures) != frozen.pop("failures"):
        return f"failures {failures}", 0, 0
    for key, want in frozen.items():
        if kv.get(key) != want:
            return f"{key} {kv.get(key)}, expected {want}", 0, 0
    return None, 1, expect["size"]


def _check_export(expect: dict, out: dict):
    if out["exit"] != 0:
        return f"exit {out['exit']}: {out['stderr'].strip()[:200]}", 0, 0
    path = out["stdout"].split("written: ", 1)[1].rsplit(" (", 1)[0]
    size = expect["size"]
    if f"({size} records)" not in out["stdout"]:
        return f"export reported {out['stdout'].strip()}", 0, 0
    lines = Path(path).read_text().splitlines()
    headers, seqs = lines[0::2], lines[1::2]
    if headers != [f">cw{i}" for i in range(size)]:
        return "FASTA headers out of order", 0, 0
    length = 3 * expect["n"]
    if len(set(seqs)) != size or any(
        len(s) != length or s.strip("ACGT") for s in seqs
    ):
        return "FASTA records are not distinct DNA words", 0, 0
    return None, 1, size


CHECKS = {
    "r64_campaign": _check_campaign,
    "skew_campaign": _check_campaign,
    "table3": _check_table3,
    "table5": _check_table5,
    "build": _check_build,
    "export": _check_export,
}


if __name__ == "__main__":
    sys.exit(main())
