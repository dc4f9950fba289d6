"""Per-layer tracing for the benchmark's traced passes.

Each public function and public method of the traced modules is
replaced by a wrapper that records a span around the call: a call
count, the self time (the span's duration minus the part of it covered
by nested traced spans) and a per-function item count (the length of a
returned list, the number of items a generator yielded, or what an
observer below extracts from the result).  A layer is a module, so a
module's self time is the sum over its functions.

Names bound with ``from .x import y`` live in several namespaces, so
every module of the package is rebound, and methods are patched on
their classes (which ``from`` imports share).  Spans are kept as
running totals in memory; nothing is written until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from functools import cached_property
from time import perf_counter

PACKAGE = "dnacodes"
LAYERS = ("gf2poly", "ring64", "codons", "cyclic", "metrics", "skew",
          "reference_tables", "cli")

# Operators are part of Gf2Poly's public interface.
OPERATORS = {"__add__", "__mul__", "__divmod__", "__floordiv__", "__mod__"}

# Item counts taken from results that are not lists.
OBSERVERS = {
    "metrics.min_pairwise": lambda result: not result.exhaustive,
}

RING64_WORD_OPS = ("ring64.word_", "ring64.pack_word", "ring64.unpack_word")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("skew.right_divmod.calls", "count", "lower"),
    ("skew.right_divmod.self_s", "s", "lower"),
    ("skew.divisor_search.self_s", "s", "lower"),
    ("skew.divisor_search.candidates", "count", "lower"),
    ("skew.divisor_search.found", "count", "higher"),
    ("skew.divisor_hit_ratio", "ratio", "higher"),
    ("skew.self_s", "s", "lower"),
    ("metrics.edit.pairs", "count", "lower"),
    ("metrics.edit.self_s", "s", "lower"),
    ("metrics.edit.pairs_per_s", "1/s", "higher"),
    ("metrics.min_pairwise.calls", "count", "lower"),
    ("metrics.min_pairwise.early_exit_ratio", "ratio", "higher"),
    ("metrics.weight_scan.self_s", "s", "lower"),
    ("cyclic.echelon.add.calls", "count", "lower"),
    ("cyclic.echelon.reduce.calls", "count", "lower"),
    ("cyclic.echelon.self_s", "s", "lower"),
    ("cyclic.span.words", "count", "lower"),
    ("cyclic.span.self_s", "s", "lower"),
    ("cyclic.gray_report.self_s", "s", "lower"),
    ("cyclic.rc_extensional.self_s", "s", "lower"),
    ("cyclic.torsion.self_s", "s", "lower"),
    ("cyclic.self_s", "s", "lower"),
    ("ring64.word_ops.calls", "count", "lower"),
    ("ring64.word_ops.self_s", "s", "lower"),
    ("codons.encode.calls", "count", "lower"),
    ("codons.self_s", "s", "lower"),
    ("gf2poly.calls", "count", "lower"),
    ("gf2poly.self_s", "s", "lower"),
    ("reference_tables.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)


class Tracer:
    """Wraps the package's public callables and accumulates span totals."""

    def __init__(self):
        # key "module.qualname" -> [calls, self seconds, items]
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not self._defined_in(obj, module):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    @staticmethod
    def _defined_in(obj, module) -> bool:
        return getattr(obj, "__module__", None) == module.__name__

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, key)))
            elif isinstance(attr, cached_property):
                attr.func = self._wrap(attr.func, key)
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, key))

    def _wrap(self, fn, key: str):
        st = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        observe = OBSERVERS.get(key)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        stack.pop()
                        st[1] += dt - frame[0]
                        if stack:
                            stack[-1][0] += dt
                    st[2] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                st[2] += observe(result)
            elif type(result) is list:
                st[2] += len(result)
            return result

        return wrapper

    # -- read-out -----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[0]

    def _sum(self, field: int, *prefixes: str) -> float:
        return sum(
            st[field] for key, st in self.stats.items()
            if key.startswith(prefixes)
        )

    def layer_metrics(self) -> dict[str, float]:
        calls = lambda *p: self._sum(0, *p)
        self_s = lambda *p: self._sum(1, *p)
        items = lambda *p: self._sum(2, *p)
        # keys are matched by prefix: "skew.monic_right_divisor" covers
        # the search and its candidate generator
        candidates = items("skew.monic_right_divisor_candidates")
        found = items("skew.monic_right_divisors")
        pairs = calls("metrics.edit_distance")
        edit_self = self_s("metrics.edit_distance")
        scans = calls("metrics.min_pairwise")
        return {
            "skew.right_divmod.calls": calls("skew.poly_right_divmod"),
            "skew.right_divmod.self_s": self_s("skew.poly_right_divmod"),
            "skew.divisor_search.self_s": self_s("skew.monic_right_divisor"),
            "skew.divisor_search.candidates": candidates,
            "skew.divisor_search.found": found,
            "skew.divisor_hit_ratio": found / candidates if candidates else 0.0,
            "skew.self_s": self_s("skew."),
            "metrics.edit.pairs": pairs,
            "metrics.edit.self_s": edit_self,
            "metrics.edit.pairs_per_s": pairs / edit_self if edit_self else 0.0,
            "metrics.min_pairwise.calls": scans,
            "metrics.min_pairwise.early_exit_ratio":
                items("metrics.min_pairwise") / scans if scans else 0.0,
            "metrics.weight_scan.self_s": self_s("metrics.min_nonzero_"),
            "cyclic.echelon.add.calls": calls("cyclic.Echelon.add"),
            "cyclic.echelon.reduce.calls": calls("cyclic.Echelon.reduce"),
            "cyclic.echelon.self_s": self_s("cyclic.Echelon."),
            "cyclic.span.words": items("cyclic.Echelon.span"),
            "cyclic.span.self_s": self_s("cyclic.Echelon.span"),
            "cyclic.gray_report.self_s": self_s("cyclic.gray_image_report"),
            "cyclic.rc_extensional.self_s":
                self_s("cyclic.rc_closed_extensional"),
            "cyclic.torsion.self_s":
                self_s("cyclic.CyclicCodeR.torsion_profile"),
            "cyclic.self_s": self_s("cyclic."),
            "ring64.word_ops.calls": calls(*RING64_WORD_OPS),
            "ring64.word_ops.self_s": self_s(*RING64_WORD_OPS),
            "codons.encode.calls": calls("codons.CodonTable.encode_word"),
            "codons.self_s": self_s("codons."),
            "gf2poly.calls": calls("gf2poly."),
            "gf2poly.self_s": self_s("gf2poly."),
            "reference_tables.self_s": self_s("reference_tables."),
            "cli.self_s": self_s("cli."),
        }
