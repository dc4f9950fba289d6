"""Command line front end.

Subcommands:
  factor        factor x^n - 1 over F2
  build-verify  build a code, enumerate it, run the verification suites
  table         regenerate one of the five reference tables plus a diff
  export        dump a code's words as FASTA or CSV

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
Findings about the printed reference data (typos, rc violations,
mismatched sizes) are reported, not treated as failures; only internal
consistency checks can fail a run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from . import codons, cyclic, metrics, reference_tables, ring64, skew
from .gf2poly import Gf2Poly, GuardExceeded, factor_xn_minus_1, split_top_level

DEFAULT_GUARD = 2**20


class UsageError(ValueError):
    pass


# -- configuration -----------------------------------------------------------


@dataclass
class JobConfig:
    """One command's worth of settings; round-trips through key = value
    text so runs can be replayed from a file."""

    command: str = ""
    ring: str = "r64"
    n: int | None = None
    gens: tuple[str, ...] = ()
    tower: str | None = None
    case: int | None = None
    metric: str = "all"
    level: str = "codon"
    guard: int = DEFAULT_GUARD
    fmt: str = "report"
    out: str | None = None
    which: int | None = None
    costs: str | None = None
    dna_d: float | None = None

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "gens":
                lines.extend(f"gen = {g}" for g in value)
            elif value is not None:
                lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "JobConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs: dict = {}
        gens: list[str] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"config line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "gen":
                gens.append(value)
                continue
            if key not in known:
                raise UsageError(f"config line {lineno}: unknown key {key!r}")
            f = known[key]
            if key in ("n", "case", "which", "guard"):
                kwargs[key] = int(value)
            elif key == "dna_d":
                kwargs[key] = float(value)
            elif key == "gens":
                raise UsageError("use repeated 'gen =' lines")
            else:
                kwargs[key] = value
        if gens:
            kwargs["gens"] = tuple(gens)
        return cls(**kwargs)


# -- parsing helpers ----------------------------------------------------------


def parse_r64_generator(text: str) -> tuple[int, Gf2Poly]:
    """Parse the shorthand u^k*(p)*(q)... into (k, p*q*...)."""
    t = text.replace(" ", "")
    if not t:
        raise UsageError("empty generator")
    try:
        parts = split_top_level(t, "*")
    except ValueError as e:
        raise UsageError(str(e)) from None
    level = 0
    poly = Gf2Poly(1)
    saw_poly = False
    for part in parts:
        if not part:
            raise UsageError(f"empty factor in generator {text!r}")
        if part == "u":
            level += 1
        elif part.startswith("u^"):
            try:
                level += int(part[2:])
            except ValueError:
                raise UsageError(f"bad u-power in {text!r}") from None
        else:
            if part.startswith("(") and part.endswith(")"):
                part = part[1:-1]
            try:
                poly = poly * Gf2Poly.from_string(part)
            except ValueError as e:
                raise UsageError(f"bad polynomial factor {part!r}: {e}") from None
            saw_poly = True
    if not 0 <= level <= 5:
        raise UsageError(f"u-exponent must be 0..5, got {level}")
    if not saw_poly:
        poly = Gf2Poly(1)
    return level, poly


def parse_tower(text: str) -> tuple[Gf2Poly, ...]:
    parts = [p for p in text.replace(";", ",").split(",")]
    if len(parts) != 6:
        raise UsageError(f"tower needs six polynomials, got {len(parts)}")
    try:
        return tuple(Gf2Poly.from_string(p.strip()) for p in parts)
    except ValueError as e:
        raise UsageError(f"bad tower polynomial: {e}") from None


def build_r64_code(cfg: JobConfig) -> cyclic.CyclicCodeR:
    if cfg.n is None:
        raise UsageError("length -n is required")
    if cfg.tower and cfg.gens:
        raise UsageError("give either --tower or --gen, not both")
    try:
        if cfg.tower:
            return cyclic.CyclicCodeR.from_tower(cfg.n, parse_tower(cfg.tower))
        if len(cfg.gens) != 1:
            raise UsageError("r64 codes take exactly one --gen (or a --tower)")
        level, f = parse_r64_generator(cfg.gens[0])
        return cyclic.single_generator_code(cfg.n, level, f)
    except cyclic.TowerError as e:
        raise UsageError(str(e)) from None


def build_skew_code(cfg: JobConfig) -> skew.SkewCode:
    if cfg.n is None:
        raise UsageError("length -n is required")
    if not cfg.gens:
        raise UsageError("f2v codes need at least one --gen")
    try:
        polys = [skew.parse_skew_poly(g) for g in cfg.gens]
    except ValueError as e:
        raise UsageError(f"bad skew polynomial: {e}") from None
    case = cfg.case
    if case is None:
        if len(polys) == 2:
            case = 2
        elif polys[0] and polys[0][-1] == skew.ONE:
            case = 1
        else:
            case = 3
    try:
        return skew.SkewCode(cfg.n, case, polys)
    except skew.SkewCodeError as e:
        raise UsageError(str(e)) from None


def load_costs(cfg: JobConfig) -> metrics.EditCostTable | None:
    if cfg.costs is None:
        return None
    try:
        return metrics.EditCostTable.from_csv(Path(cfg.costs).read_text())
    except OSError as e:
        raise UsageError(f"cannot read cost table: {e}") from None


# -- report plumbing -----------------------------------------------------------


class Report:
    def __init__(self):
        self.lines: list[str] = []
        self.failures: list[str] = []

    def emit(self, key: str, value) -> None:
        self.lines.append(f"{key}: {value}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.emit(f"check.{name}", "pass" if ok else "FAIL")
        if not ok:
            self.failures.append(f"{name}{': ' + detail if detail else ''}")

    def finish(self) -> int:
        verdict = "pass" if not self.failures else "FAIL"
        self.emit("verdict", verdict)
        for f in self.failures:
            self.emit("failure", f)
        print("\n".join(self.lines))
        return 0 if not self.failures else 1


# -- commands -------------------------------------------------------------------


def cmd_factor(cfg: JobConfig) -> int:
    if cfg.n is None or cfg.n < 1:
        raise UsageError("factor needs a positive length -n")
    factors = factor_xn_minus_1(cfg.n)
    print(f"n: {cfg.n}")
    for f, mult in factors:
        text = str(f) if mult == 1 else f"({f})^{mult}"
        print(f"factor: {text}")
    product = "".join(
        f"({f})" + (f"^{m}" if m > 1 else "") for f, m in factors
    )
    print(f"product: {product}")
    return 0


def _enumerate(
    cfg: JobConfig,
    report: Report,
    code: cyclic.LinearCode,
    alg_closed: bool,
    word_str: Callable[[int, int], str],
) -> tuple[int, ...] | None:
    """Enumerate the code unless it is over the guard, and check the
    enumerated rc-closure against the algebraic one; word_str renders a
    witness."""
    enumerable = code.size() <= cfg.guard
    report.emit("enumerated", enumerable)
    if not enumerable:
        report.emit("enumeration", f"skipped, size {code.size()} over guard")
        return None
    words = code.words(cfg.guard)
    report.check("enumerated_size", len(words) == code.size())
    ext_closed, witness = cyclic.rc_closed_extensional(code, words)
    report.check(
        "rc_extensional_matches_algebraic",
        ext_closed == alg_closed,
        f"extensional {ext_closed} vs algebraic {alg_closed}",
    )
    if not ext_closed and witness is not None:
        n = code.n
        missing = code.ring.word_reverse_complement(witness, n)
        report.emit(
            "rc_witness",
            f"{word_str(witness, n)} whose reverse-complement "
            f"{word_str(missing, n)} is not in the code",
        )
    return words


def _verify_r64(cfg: JobConfig, report: Report) -> None:
    code = build_r64_code(cfg)
    n = code.n
    report.emit("ring", "r64")
    report.emit("n", n)
    if code.tower is not None:
        report.emit("tower", cyclic.tower_str(code.tower))
    profile = code.torsion_profile
    report.emit("log2_size", code.dim)
    report.emit("size", code.size())
    report.emit("rank", profile.rank)
    for lv in profile.levels:
        report.emit(f"torsion.{lv.level}", f"gen={lv.generator} dim={lv.dim}")
    if n % 2 == 1 and code.tower is not None:
        report.check(
            "size_formula",
            code.size_formula_odd() == code.size(),
            f"formula {code.size_formula_odd()} vs enumerated {code.size()}",
        )

    suff = cyclic.rc_sufficiency(code) if code.tower is not None else None
    alg_closed = code.rc_closed()
    report.emit("rc_closed", alg_closed)
    report.emit("alpha_identity_member", code.contains_complement_word())
    if suff is not None:
        report.emit("rc_sufficiency", suff.satisfied)
        if suff.failing_polys:
            report.emit("not_self_reciprocal", "; ".join(suff.failing_polys))
        report.check(
            "sufficiency_implies_closure",
            (not suff.satisfied) or alg_closed,
        )
        nec = cyclic.necessity_report(code, rc_closed=alg_closed)
        report.check("closure_implies_necessity", nec.holds)

    if code.tower is not None:
        sub = cyclic.subcode_u2_report(code)
        report.emit("subcode_u2.log2_size", sub.subcode_log2_size)
        report.emit("subcode_u2.single_generator_claim_log2", sub.claim_log2_size)
        report.emit("subcode_u2.claim_equal", sub.equal)
        report.emit("subcode_u2.claim_inside_code", sub.claim_inside_code)

    words = _enumerate(cfg, report, code, alg_closed, ring64.word_str)
    if words is None:
        return
    gray = cyclic.gray_image_report(words, n)
    report.check("gray_linear", gray.linear)
    report.check("gray_shift6_closed", gray.shift_closed)

    if len(words) >= 2:
        if cfg.metric in ("hamming", "all"):
            report.emit(
                "min_hamming", metrics.min_nonzero_hamming_weight(words, n)
            )
        if cfg.metric in ("lee", "all"):
            report.emit("min_lee", metrics.min_nonzero_lee_weight(words, n))
        if cfg.metric == "edit" or (cfg.metric == "all" and len(words) <= 1024):
            costs = load_costs(cfg)
            table = codons.canonical_table()
            if cfg.level == "nucleotide":
                symbols = [table.encode_word(w, n) for w in words]
            else:
                symbols = [cyclic.codon_symbols(w, n) for w in words]
            lo = metrics.min_pairwise(
                symbols, lambda a, b: metrics.edit_distance(a, b, costs)
            )
            report.emit(f"min_edit_{cfg.level}", lo.minimum)
        elif cfg.metric == "all":
            report.emit(
                "min_edit",
                f"skipped for {len(words)} words; pass --metric edit to force",
            )
        if cfg.metric in ("edit", "all") and code.tower is not None:
            bound = cyclic.edit_bound_check(code, cfg.guard)
            report.check(
                "edit_bounds",
                bound.holds,
                f"min_edit {bound.min_edit} vs deg-bound "
                f"{bound.bound_min_degree}, singleton {bound.bound_singleton}",
            )
    if cfg.dna_d is not None:
        cls = cyclic.classify_dna_code(
            code, cfg.dna_d, cfg.guard, cfg.level, load_costs(cfg)
        )
        report.emit("dna_code", cls.is_dna_code)
        report.emit("dna_fixed_points", len(cls.fixed_points))
        report.emit("dna_max_edit", cls.max_edit)


def _verify_f2v(cfg: JobConfig, report: Report) -> None:
    code = build_skew_code(cfg)
    n = code.n
    report.emit("ring", "f2v")
    report.emit("n", n)
    report.emit("case", code.case)
    for g in code.generators:
        report.emit("generator", skew.poly_str(g))
    report.emit("log2_size", code.dim)
    report.emit("size", code.size())

    rc = skew.rc_report(code)
    report.emit("rc_closed", rc.rc_closed)
    report.emit("v_identity_member", rc.v_identity_member)
    report.emit("generators_self_reciprocal", rc.generators_self_reciprocal)
    report.emit("rc_sufficiency", rc.sufficiency_satisfied)
    report.check("sufficiency_implies_closure", rc.sufficiency_implies_closure)
    report.check("closure_implies_necessity", rc.closure_implies_necessity)
    for g in code.generators:
        if g and g[-1] == skew.ONE:
            report.check(
                "two_sided_factorization",
                skew.two_sided_factorization_holds(n, g),
                skew.poly_str(g),
            )

    words = _enumerate(cfg, report, code, rc.rc_closed, skew.word_to_dna)
    if words is None:
        return
    gray = skew.gray_image_report(words, n)
    report.check("gray_linear", gray.linear)
    report.check("gray_skew_shift2_closed", gray.skew_shift2_closed)
    report.check("gray_plain_shift4_closed", gray.plain_shift4_closed)
    report.emit("gray_plain_shift2_closed", gray.plain_shift2_closed)

    if len(words) >= 2:
        if cfg.metric in ("hamming", "all"):
            report.emit(
                "min_hamming",
                min(
                    skew.word_hamming_weight(w, n) for w in words if w
                ),
            )
        if cfg.metric in ("edit", "all"):
            costs = load_costs(cfg)
            strings = [skew.word_to_dna(w, n) for w in words]
            lo = metrics.min_pairwise(
                strings, lambda a, b: metrics.edit_distance(a, b, costs)
            )
            report.emit("min_edit_nucleotide", lo.minimum)


def cmd_build_verify(cfg: JobConfig) -> int:
    report = Report()
    report.emit("command", "build-verify")
    if cfg.ring == "r64":
        _verify_r64(cfg, report)
    elif cfg.ring == "f2v":
        _verify_f2v(cfg, report)
    else:
        raise UsageError(f"unknown ring {cfg.ring!r}")
    return report.finish()


def cmd_table(cfg: JobConfig) -> int:
    if cfg.which is None:
        raise UsageError("table needs --which 1..5")
    if cfg.which not in (1, 2, 3, 4, 5):
        raise UsageError(f"no such table: {cfg.which}")
    rep = reference_tables.regenerate(cfg.which, cfg.guard)
    print(rep.text(), end="")
    if cfg.out:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"table{cfg.which}.csv").write_text(rep.csv())
        (out_dir / f"table{cfg.which}.diff.csv").write_text(rep.diff_csv())
        print(f"written: {out_dir / f'table{cfg.which}.csv'}")
        print(f"written: {out_dir / f'table{cfg.which}.diff.csv'}")
    return 0


def cmd_export(cfg: JobConfig) -> int:
    if cfg.ring == "r64":
        code = build_r64_code(cfg)
        to_dna, to_row = codons.canonical_table().encode_word, ring64.word_str
    elif cfg.ring == "f2v":
        code = build_skew_code(cfg)
        to_dna, to_row = skew.word_to_dna, skew.word_str
    else:
        raise UsageError(f"unknown ring {cfg.ring!r}")
    if code.size() > cfg.guard:
        print(
            f"size: {code.size()}\nerror: over the guard {cfg.guard}",
            file=sys.stderr,
        )
        return 2
    words = code.words(cfg.guard)
    n = code.n
    if cfg.fmt == "fasta":
        payload = codons.fasta([to_dna(w, n) for w in words])
    elif cfg.fmt == "csv":
        payload = "\n".join(to_row(w, n) for w in words) + "\n"
    else:
        raise UsageError(f"export format must be fasta or csv, got {cfg.fmt!r}")
    if cfg.out:
        Path(cfg.out).write_text(payload)
        print(f"written: {cfg.out} ({len(words)} records)")
    else:
        print(payload, end="")
    return 0


# -- argument plumbing -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file with defaults for this run")
    p.add_argument("--ring", choices=("r64", "f2v"))
    p.add_argument("-n", type=int, dest="n")
    p.add_argument(
        "--gen",
        action="append",
        dest="gens",
        help="generator; r64 shorthand u^k*(p)*(q), f2v skew polynomial",
    )
    p.add_argument("--tower", help="six comma-separated binary polynomials")
    p.add_argument("--case", type=int, choices=(1, 2, 3))
    p.add_argument("--metric", choices=("hamming", "lee", "edit", "all"))
    p.add_argument("--level", choices=("codon", "nucleotide"))
    p.add_argument("--guard", type=int)
    p.add_argument("--format", dest="fmt", choices=("fasta", "csv", "report"))
    p.add_argument("--out")
    p.add_argument("--costs", help="CSV cost table (from,to,cost; '-' is a gap)")
    p.add_argument("--dna-d", type=float, dest="dna_d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnacodes",
        description="construct, enumerate and verify DNA cyclic codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_factor = sub.add_parser("factor", help="factor x^n - 1 over F2")
    _add_common(p_factor)
    p_build = sub.add_parser("build-verify", help="build a code and verify it")
    _add_common(p_build)
    p_table = sub.add_parser("table", help="regenerate a reference table")
    _add_common(p_table)
    p_table.add_argument(
        "-w", "--which", type=int, help="table number 1..5"
    )
    p_export = sub.add_parser("export", help="dump codewords")
    _add_common(p_export)
    return parser


def config_from_args(args: argparse.Namespace) -> JobConfig:
    if args.config:
        try:
            cfg = JobConfig.from_text(Path(args.config).read_text())
        except OSError as e:
            raise UsageError(f"cannot read config: {e}") from None
    else:
        cfg = JobConfig()
    cfg.command = args.command
    for name in (
        "ring", "n", "tower", "case", "metric", "level",
        "guard", "fmt", "out", "costs", "dna_d", "which",
    ):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "gens", None):
        cfg.gens = tuple(args.gens)
    if not cfg.metric:
        cfg.metric = "all"
    if not cfg.level:
        cfg.level = "codon"
    return cfg


_COMMANDS = {
    "factor": cmd_factor,
    "build-verify": cmd_build_verify,
    "table": cmd_table,
    "export": cmd_export,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (UsageError, GuardExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
