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
import contextlib
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import codons, cyclic, metrics, reference_tables, skew
from .gf2poly import Gf2Poly, GuardExceeded, factor_xn_minus_1, split_top_level

# above this many words build-verify skips its edit scans unless --metric edit
EDIT_SCAN_MAX_WORDS = 1024
# above this many words it skips them even then: the all-pairs scan is
# quadratic, and a weighted nucleotide scan of 4096 words takes about
# 30 s on a 2-vCPU VM
EDIT_SCAN_CEILING = 4096


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _writing_out():
    """Report an --out path that cannot be written as a usage error."""
    try:
        yield
    except OSError as e:
        raise UsageError(f"cannot write output: {e}") from None


# -- configuration -----------------------------------------------------------

METRICS = ("hamming", "lee", "edit", "all")
LEVELS = ("codon", "nucleotide")
_ALL = ("factor", "build-verify", "table", "export")
_CODE, _BV = ("build-verify", "export"), ("build-verify",)


class Option(NamedTuple):
    """One row of OPTIONS: a JobConfig field, or --config."""

    flags: tuple[str, ...]
    commands: tuple[str, ...]  # the commands that read it
    ring: str | None = None  # the one ring it is for, or None for both
    type: Callable[[str], object] = str
    choices: tuple | None = None
    default: object = None
    help: str | None = None


OPTIONS = {
    "command": Option((), _ALL, choices=_ALL),
    "config": Option(("--config",), _ALL,
                     help="key = value file with defaults for this run"),
    "ring": Option(("--ring",), _CODE, choices=("r64", "f2v"), default="r64"),
    "n": Option(("-n",), ("factor", *_CODE), type=int),
    "gens": Option(("--gen",), _CODE, default=(), help="generator; r64 "
                   "shorthand u^k*(p)*(q), f2v skew polynomial"),
    "tower": Option(("--tower",), _CODE, "r64",
                    help="six comma-separated binary polynomials"),
    "metric": Option(("--metric",), _BV, choices=METRICS, default="all"),
    "level": Option(("--level",), _BV, "r64", choices=LEVELS, default="codon"),
    "guard": Option(("--guard",), ("table", *_CODE), type=int,
                    default=cyclic.DEFAULT_GUARD),
    "fmt": Option(("--format",), ("export",), choices=("fasta", "csv")),
    "out": Option(("--out",), ("table", "export")),
    "which": Option(("-w", "--which"), ("table",), type=int,
                    help="table number 1..5"),
    "costs": Option(("--costs",), _BV,
                    help="CSV cost table (from,to,cost; '-' is a gap)"),
    "dna_d": Option(("--dna-d",), _BV, "r64", float),
}


@dataclass
class JobConfig:
    """One command's worth of settings, None where not given; round-trips
    through key = value text so runs can be replayed from a file."""

    command: str | None = None
    ring: str | None = None
    n: int | None = None
    gens: tuple[str, ...] | None = None
    tower: str | None = None
    metric: str | None = None
    level: str | None = None
    guard: int | None = None
    fmt: str | None = None
    out: str | None = None
    which: int | None = None
    costs: str | None = None
    dna_d: float | None = None

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "gens":
                lines.extend(f"gen = {g}" for g in value or ())
            elif value is not None:
                lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "JobConfig":
        return cls.read(text)[0]

    @classmethod
    def read(cls, text: str) -> tuple["JobConfig", dict[str, str]]:
        """The config, and for each field it sets the place that set it:
        'config line N: key' (the first line, for gen)."""
        known = {f.name for f in fields(cls)}
        kwargs: dict = {}
        places: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line, where = raw.strip(), f"config line {lineno}"
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{where}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "gen":
                kwargs["gens"] = kwargs.get("gens", ()) + (value,)
                places.setdefault("gens", f"{where}: gen")
                continue
            if key == "gens":
                raise UsageError(f"{where}: use repeated 'gen =' lines")
            if key not in known:
                raise UsageError(f"{where}: unknown key {key!r}")
            opt = OPTIONS[key]
            try:
                kwargs[key] = opt.type(value)
            except ValueError:
                raise UsageError(f"{where}: bad value for {key}: {value!r}") from None
            if opt.choices and kwargs[key] not in opt.choices:
                raise UsageError(f"{where}: unknown {key}: {value}")
            places[key] = f"{where}: {key}"
        return cls(**kwargs), places


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
    if not 0 <= level <= 5:
        raise UsageError(f"u-exponent must be 0..5, got {level}")
    return level, poly


def parse_tower(text: str) -> tuple[Gf2Poly, ...]:
    parts = [p for p in text.replace(";", ",").split(",")]
    if len(parts) != 6:
        raise UsageError(f"tower needs six polynomials, got {len(parts)}")
    try:
        return tuple(Gf2Poly.from_string(p.strip()) for p in parts)
    except ValueError as e:
        raise UsageError(f"bad tower polynomial: {e}") from None


def build_code(cfg: JobConfig) -> cyclic.LinearCode:
    if cfg.n is None:
        raise UsageError("length -n is required")
    try:
        if cfg.ring == "f2v":
            if not cfg.gens:
                raise UsageError("f2v codes need at least one --gen")
            try:
                polys = [skew.parse_skew_poly(g) for g in cfg.gens]
            except ValueError as e:
                raise UsageError(f"bad skew polynomial: {e}") from None
            return skew.SkewCode(cfg.n, polys)
        if cfg.tower and cfg.gens:
            raise UsageError("give either --tower or --gen, not both")
        if cfg.tower:
            return cyclic.CyclicCodeR.from_tower(cfg.n, parse_tower(cfg.tower))
        if len(cfg.gens) != 1:
            raise UsageError("r64 codes take exactly one --gen (or a --tower)")
        level, f = parse_r64_generator(cfg.gens[0])
        return cyclic.single_generator_code(cfg.n, level, f)
    except (cyclic.TowerError, skew.SkewCodeError) as e:
        raise UsageError(str(e)) from None


def load_costs(cfg: JobConfig, level: str) -> metrics.EditCostTable | None:
    """The --costs table for a scan at the level; a row naming a symbol
    the scan never compares is an error."""
    if cfg.costs is None:
        return None
    alphabet = tuple("ACGT") if level == "nucleotide" else codons.ALL_CODONS
    try:
        return metrics.EditCostTable.from_csv(
            Path(cfg.costs).read_text(), alphabet, f"{level}-level symbol"
        )
    except OSError as e:
        raise UsageError(f"cannot read cost table: {e}") from None
    except ValueError as e:
        raise UsageError(str(e)) from None


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
    if cfg.n is None:
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


def _verify(cfg: JobConfig, report: Report) -> None:
    """Build the code and write its ring's lines; enumerate it unless it
    is over the guard, check the enumerated rc-closure against the
    algebraic one, and run the Gray checks and the distance scans that
    --metric asks for.  Lee weights and the edit bounds are r64 only;
    f2v edit scans are nucleotide-level."""
    r64 = cfg.ring == "r64"
    level = cfg.level or "nucleotide"
    costs = load_costs(cfg, level)
    code = build_code(cfg)
    n = code.n
    rc = cyclic.rc_report(code)
    report.emit("ring", cfg.ring)
    report.emit("n", n)
    code.report_lines(report, rc)

    enumerable = code.size() <= cfg.guard
    report.emit("enumerated", enumerable)
    if not enumerable:
        report.emit("enumeration", f"skipped, size {code.size()} over guard")
        return
    words = code.words(cfg.guard)
    report.check("enumerated_size", len(words) == code.size())
    rc_closure = cyclic.rc_closed_extensional(code, words)
    ext_closed, witness = rc_closure
    report.check(
        "rc_extensional_matches_algebraic",
        ext_closed == rc.rc_closed,
        f"extensional {ext_closed} vs algebraic {rc.rc_closed}",
    )
    if not ext_closed and witness is not None:
        word_str = code.witness_str
        missing = code.lanes.word_reverse_complement(witness, n)
        report.emit(
            "rc_witness",
            f"{word_str(witness, n)} whose reverse-complement "
            f"{word_str(missing, n)} is not in the code",
        )
    gray = cyclic.gray_image_report(
        code.gray_image(words), code.lanes.lane * n, code.gray_maps()
    )
    report.check("gray_linear", gray.linear)
    for name, closed in gray.closed.items():
        line = report.emit if name in code.gray_informational else report.check
        line(f"gray_{name}_closed", closed)

    if len(words) < 2:
        if cfg.dna_d is not None:
            raise UsageError("--dna-d needs a code of at least two words")
        return
    if cfg.metric in ("hamming", "all"):
        report.emit("min_hamming", code.min_hamming(words, cfg.guard))
    if r64 and cfg.metric in ("lee", "all"):
        report.emit("min_lee", metrics.min_nonzero_lee_weight(words, n))
    edit = cfg.metric in ("edit", "all")
    bounds = edit and r64
    # the report keys that the one all-pairs edit scan feeds
    uses = [key for key, used in (("min_edit", edit), ("edit_bounds", bounds),
                                  ("dna_code", cfg.dna_d is not None)) if used]
    if not uses:
        return
    if len(words) > EDIT_SCAN_CEILING:
        skip = f"over the {EDIT_SCAN_CEILING}-word edit-scan ceiling"
    elif cfg.metric != "edit" and len(words) > EDIT_SCAN_MAX_WORDS:
        skip = "pass --metric edit to force"
    else:
        skip = None
    if skip:
        for key in uses:
            report.emit(key, f"skipped for {len(words)} words; {skip}")
        return
    to_symbols = code.to_dna if level == "nucleotide" else cyclic.codon_symbols
    scan = metrics.min_edit_pairwise([to_symbols(w, n) for w in words], costs)
    if edit:
        report.emit(f"min_edit_{level}", scan.minimum)
    if bounds:
        bound = cyclic.edit_bound_check(code, words)
        report.check(
            "edit_bounds",
            bound.holds,
            f"min_edit {bound.min_edit} vs deg-bound "
            f"{bound.bound_min_degree}, singleton {bound.bound_singleton}",
        )
    if cfg.dna_d is not None:
        cls = cyclic.classify_dna_code(
            code, words, cfg.dna_d, scan, rc_closure
        )
        report.emit("dna_code", cls.is_dna_code)
        report.emit("dna_fixed_points", len(cls.fixed_points))
        report.emit("dna_max_edit", cls.max_edit)


def cmd_build_verify(cfg: JobConfig) -> int:
    report = Report()
    report.emit("command", "build-verify")
    _verify(cfg, report)
    return report.finish()


def cmd_table(cfg: JobConfig) -> int:
    if cfg.which is None:
        raise UsageError("table needs --which 1..5")
    if cfg.which not in (1, 2, 3, 4, 5):
        raise UsageError(f"no such table: {cfg.which}")
    if cfg.out:
        out_dir = Path(cfg.out)
        with _writing_out():
            out_dir.mkdir(parents=True, exist_ok=True)
    rep = reference_tables.regenerate(cfg.which, cfg.guard)
    print(rep.text(), end="")
    if cfg.out:
        with _writing_out():
            (out_dir / f"table{cfg.which}.csv").write_text(rep.csv())
            (out_dir / f"table{cfg.which}.diff.csv").write_text(rep.diff_csv())
        print(f"written: {out_dir / f'table{cfg.which}.csv'}")
        print(f"written: {out_dir / f'table{cfg.which}.diff.csv'}")
    return 0


def cmd_export(cfg: JobConfig) -> int:
    if cfg.fmt is None:
        raise UsageError("export needs --format fasta or csv")
    code = build_code(cfg)
    if code.size() > cfg.guard:
        print(
            f"size: {code.size()}\nerror: over the guard {cfg.guard}",
            file=sys.stderr,
        )
        return 2
    words = code.words(cfg.guard)
    n = code.n
    to_text = code.to_dna if cfg.fmt == "fasta" else code.lanes.word_str
    # streamed a record at a time: no list of texts beside the words
    texts = (to_text(w, n) for w in words)
    records = (codons.fasta(texts) if cfg.fmt == "fasta"
               else (f"{text}\n" for text in texts))
    if cfg.out:
        with _writing_out(), open(cfg.out, "w") as f:
            f.writelines(records)
        print(f"written: {cfg.out} ({len(words)} records)")
    else:
        sys.stdout.writelines(records)
    return 0


# -- argument plumbing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnacodes",
        description="construct, enumerate and verify DNA cyclic codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        # every flag (rows after "command"), so unread ones meet the check
        for name, opt in list(OPTIONS.items())[1:]:
            p.add_argument(
                *opt.flags, dest=name, type=opt.type, choices=opt.choices,
                action="append" if name == "gens" else "store",
                help=opt.help if command in opt.commands else argparse.SUPPRESS,
            )
    return parser


def config_from_args(args: argparse.Namespace) -> JobConfig:
    """The config file's values, overridden by the flags given, checked
    against OPTIONS and with the defaults of the options read filled in.
    An error names the flag, or the config line, that gave the value."""
    cfg, places = JobConfig(), {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise UsageError(f"cannot read config: {e}") from None
        cfg, places = JobConfig.read(text)
    if cfg.command not in (None, args.command):
        raise UsageError(f"{places['command']} = {cfg.command}, "
                         f"but the command is {args.command}")
    for f in fields(cfg):
        if (value := getattr(args, f.name)) is not None:
            setattr(cfg, f.name, tuple(value) if f.name == "gens" else value)
            places.pop(f.name, None)
    place = lambda name: places.get(name) or OPTIONS[name].flags[-1]
    command, ring = cfg.command, cfg.ring or OPTIONS["ring"].default
    for f in fields(cfg):
        opt = OPTIONS[f.name]
        if getattr(cfg, f.name) is None:
            if command in opt.commands and opt.ring in (None, ring):
                setattr(cfg, f.name, opt.default)
        elif command not in opt.commands:
            raise UsageError(f"{place(f.name)} is not used by {command}")
        elif opt.ring not in (None, ring):
            raise UsageError(
                f"{place(f.name)} is for --ring {opt.ring}, not {ring}"
            )
    if cfg.n is not None and cfg.n < 1:
        raise UsageError(f"{place('n')} must be >= 1, got {cfg.n}")
    if cfg.dna_d is not None and not 0 <= cfg.dna_d < math.inf:
        raise UsageError(f"{place('dna_d')} must be a finite number >= 0, "
                         f"got {cfg.dna_d}")
    if cfg.guard is not None and cfg.guard < 1:
        raise UsageError(f"{place('guard')} must be >= 1, got {cfg.guard}")
    if cfg.metric == "lee" and ring != "r64":
        raise UsageError(f"{place('metric')} lee is for --ring r64, not {ring}")
    return cfg


_COMMANDS = {
    "factor": (cmd_factor, "factor x^n - 1 over F2"),
    "build-verify": (cmd_build_verify, "build a code and verify it"),
    "table": (cmd_table, "regenerate a reference table"),
    "export": (cmd_export, "dump codewords"),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](config_from_args(args))
    except (UsageError, GuardExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
