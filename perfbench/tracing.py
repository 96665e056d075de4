"""Per-layer spans and counters, installed from outside the program.

`Tracer.install` wraps each listed public function of isoprod in a timing
span.  A function is wrapped in every isoprod module that holds it by name
(`catalog.search_structures` as well as `ramification.search_structures`),
so calls are caught whichever import path the caller used.  Methods are
wrapped on their class; the `conjugacy_classes` cached property is wrapped
through its underlying function.  `uninstall` puts every original back.

Spans nest: a span's self time is its duration minus the time its child
spans cover.  A function that recurses into itself adds to `total_s` only
at its outermost call, so `total_s` never counts the same interval twice.

Besides spans the tracer keeps three counters: the number of `+ - *`
calls on `CyclotomicNumber`, the largest prime `dixon_prime` returned, and
the hits of `cached_character_table` (a call that computed no table
beneath it).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# span name -> (module, attribute, kind, home workload).  kind is "function",
# "method" or "cached_property"; a traced run of the home workload fails if
# the span records no call, so a renamed function cannot read as a zero.
SPANS = {
    "groups.build_group": ("groups", "build_group", "function", "tables"),
    "groups.conjugacy_classes": ("groups", "FiniteGroup.conjugacy_classes",
                                 "cached_property", "tables"),
    "groups.closure": ("groups", "FiniteGroup.closure", "method", "search"),
    "groups.quotient": ("groups", "FiniteGroup.quotient", "method", "analyze"),
    "chartab.character_table": ("chartab", "character_table", "function", "tables"),
    "chartab.galois_orbits": ("chartab", "galois_orbits", "function", "tables"),
    "chartab.frobenius_schur": ("chartab", "frobenius_schur", "function", "tables"),
    "chartab.trivial_restriction_multiplicity": (
        "chartab", "trivial_restriction_multiplicity", "function", "analyze"),
    "chartab.rational_idempotent": ("chartab", "rational_idempotent", "function",
                                    "tables"),
    "chartab.render_table": ("chartab", "render_table", "function", "tables"),
    "chartab.parse_table": ("chartab", "parse_table", "function", "catalog"),
    "chartab.cached_character_table": ("chartab", "cached_character_table",
                                       "function", "catalog"),
    "ramification.search_structures": ("ramification", "search_structures",
                                       "function", "search"),
    "ramification.validate_spherical": ("ramification", "validate_spherical",
                                        "function", "search"),
    "ramification.quotient_system": ("ramification", "quotient_system", "function",
                                     "analyze"),
    "ramification.sigma_set": ("ramification", "sigma_set", "function", "search"),
    "surface.analyze": ("surface", "analyze", "function", "analyze"),
    "surface.broughton": ("surface", "broughton", "function", "analyze"),
    "surface.dim_z": ("surface", "dim_z", "function", "analyze"),
    "surface.quotient_analysis": ("surface", "quotient_analysis", "function",
                                  "analyze"),
    "surface.analysis_report": ("surface", "analysis_report", "function", "analyze"),
    "surface.render_report": ("surface", "render_report", "function", "analyze"),
    "structfile.parse_structure_file": ("structfile", "parse_structure_file",
                                        "function", "catalog"),
    "catalog.realize_structure": ("catalog", "realize_structure", "function",
                                  "catalog"),
    "catalog.run_entry": ("catalog", "run_entry", "function", "catalog"),
    "cli.main": ("cli", "main", "function", "catalog"),
}

PACKAGE = "isoprod"
ARITH_COUNTER = "cyclotomic.arith.calls"
DIXON_COUNTER = "chartab.dixon_prime.max"
HIT_RATIO = "chartab.cached_character_table.hit_ratio"
# traced minus untraced median pass time
OVERHEAD_S = "trace.overhead_s"
OVERHEAD_PCT = "trace.overhead_pct"
# counter name -> home workload on which it must be non-zero
COUNTER_HOMES = {ARITH_COUNTER: "tables", DIXON_COUNTER: "tables",
                 HIT_RATIO: "catalog"}

class TraceError(Exception):
    """A listed function is missing from the program."""


_ARITH_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.total_s", "s"),
                (f"{span}.self_s", "s")]
    out += [(ARITH_COUNTER, "count"), (DIXON_COUNTER, "prime"), (HIT_RATIO, "ratio"),
            (OVERHEAD_S, "s"), (OVERHEAD_PCT, "%")]
    return out


def _lookup(module: str, dotted: str):
    """`module.dotted` of the program, as stored (class members are read from
    the class `__dict__`, so a cached_property comes back undecorated)."""
    obj = sys.modules.get(f"{PACKAGE}.{module}")
    for part in dotted.split("."):
        space = vars(obj) if obj is not None else {}
        if part not in space:
            raise TraceError(f"{module}.{dotted} not found")
        obj = space[part]
    return obj


class Tracer:
    """Aggregated spans and counters for one traced pass at a time."""

    def __init__(self):
        self._restore: list = []
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.calls = {name: 0 for name in SPANS}
        self.total = {name: 0.0 for name in SPANS}
        self.self_time = {name: 0.0 for name in SPANS}
        self.arith_calls = 0
        self.dixon_max = 0
        self.cache_lookups = 0
        self.cache_hits = 0

    # -- wrappers

    def _span(self, name: str, fn):
        stack = self._stack
        depth = self._depth
        depth[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[0]
                if not depth[name]:
                    self.total[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _cache_span(self, fn):
        spanned = self._span("chartab.cached_character_table", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            computed = self.calls["chartab.character_table"]
            result = spanned(*args, **kwargs)
            self.cache_lookups += 1
            if self.calls["chartab.character_table"] == computed:
                self.cache_hits += 1
            return result

        return wrapper

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.arith_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _dixon(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            p = fn(*args, **kwargs)
            self.dixon_max = max(self.dixon_max, p)
            return p

        return wrapper

    # -- patching

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, original, replacement) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, (module, attr, kind, _home) in SPANS.items():
            if kind == "function":
                original = _lookup(module, attr)
                wrap = (self._cache_span if name == "chartab.cached_character_table"
                        else functools.partial(self._span, name))
                self._replace_everywhere(original, wrap(original))
                continue
            cls_name, meth = attr.split(".")
            cls = _lookup(module, cls_name)
            member = _lookup(module, attr)
            if kind == "method":
                self._set(cls, meth, self._span(name, member))
            else:
                self._set(member, "func", self._span(name, member.func))
        cyc = _lookup("cyclotomic", "CyclotomicNumber")
        for dunder in _ARITH_DUNDERS:
            self._set(cyc, dunder, self._counting(_lookup("cyclotomic",
                                                          f"CyclotomicNumber.{dunder}")))
        dixon = _lookup("chartab", "dixon_prime")
        self._replace_everywhere(dixon, self._dixon(dixon))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results

    def counters(self) -> dict[str, int]:
        """Deterministic counts of the pass: call counts and counters."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out[ARITH_COUNTER] = self.arith_calls
        out[DIXON_COUNTER] = self.dixon_max
        out["chartab.cached_character_table.lookups"] = self.cache_lookups
        out["chartab.cached_character_table.hits"] = self.cache_hits
        return out

    def timings(self) -> dict[str, float]:
        out = {}
        for name in SPANS:
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        return out

    def hit_ratio(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0


def missing_on_home(workload: str, counters: dict[str, int]) -> list[str]:
    """Spans and counters that should be non-zero on `workload` but are zero."""
    missing = [name for name, spec in SPANS.items()
               if spec[3] == workload and not counters[f"{name}.calls"]]
    for name, home in COUNTER_HOMES.items():
        key = "chartab.cached_character_table.hits" if name == HIT_RATIO else name
        if home == workload and not counters[key]:
            missing.append(name)
    return missing
