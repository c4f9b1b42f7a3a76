"""Per-layer tracing from outside the program.

Every public function of the traced modules (plus ``symmetry._extend``,
the trial extension behind ``aut_group``) is replaced by a wrapper in
every maniplex module that holds it by name, so calls made inside the
program are counted as well as the benchmark's own.  A wrapper records
calls, inclusive time and self time (its time minus that of the wrapped
calls nested in it).  The peak traced allocation of the calls that store
whole groups is taken in a separate round.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "constructions", "formats", "flag_graph", "symmetry", "stg",
           "walkgen", "oriented", "enumeration")
PRIVATE = ("symmetry._extend",)
ALLOC_TRACED = ("symmetry.aut_group", "walkgen.closure", "oriented.aut_plus")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        # False: count calls and time them.  True: only take the peak
        # traced allocation of the ALLOC_TRACED calls, in a round of its
        # own, since tracemalloc slows the code it watches.
        self.measuring_alloc = False

    def _wrap(self, name: str, fn):
        tracer = self
        alloc_traced = name in ALLOC_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.measuring_alloc:
                if not alloc_traced or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.alloc_peak[name] = max(tracer.alloc_peak[name], peak)
            children = [0.0]
            tracer._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.total_s[name] += elapsed
                tracer.self_s[name] += elapsed - children[0]
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "symmetry.aut_group":
            self.counts["aut_order"] += result.order
        elif name == "walkgen.realize_generators":
            self.counts["generators"] += len(result.automorphisms)
        elif name == "enumeration.enumerate_stg":
            self.counts["classes"] += len(result)

    def install(self) -> None:
        """Wrap the functions and rebind them wherever they are looked up."""
        modules = [m for key, m in sys.modules.items()
                   if key == "maniplex" or key.startswith("maniplex.")]
        originals = {}
        for short in MODULES:
            module = sys.modules[f"maniplex.{short}"]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    originals[id(obj)] = (obj, self._wrap(name, obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(module, attr, originals[id(obj)][1])

    def needs_alloc_round(self) -> bool:
        return any(self.calls.get(name) for name in ALLOC_TRACED)

    def metrics(self, bfs_depth: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def seconds(name: str, field: str = "s") -> None:
            table = self.self_s if field == "self_s" else self.total_s
            out[f"{name}.{field}"] = (table.get(name, 0.0), "s")

        def calls(name: str) -> None:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")

        def alloc(name: str) -> None:
            out[f"{name}.alloc_peak_mb"] = (self.alloc_peak.get(name, 0) / 2 ** 20, "MB")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        seconds("symmetry.aut_group")
        alloc("symmetry.aut_group")
        out["symmetry.aut_order"] = (self.counts["aut_order"], "count")
        calls("symmetry._extend")
        seconds("symmetry._extend")
        out["symmetry.extend_success_ratio"] = (
            ratio(self.counts["aut_order"], self.calls.get("symmetry._extend", 0)), "ratio")
        calls("symmetry.extend_automorphism")
        seconds("symmetry.extend_automorphism")
        seconds("walkgen.closure")
        alloc("walkgen.closure")
        seconds("walkgen.realize_generators")
        seconds("walkgen.min_spanning_walk")
        out["walkgen.generators"] = (self.counts["generators"], "count")
        seconds("oriented.aut_plus")
        alloc("oriented.aut_plus")
        seconds("oriented.orientation")
        seconds("oriented.is_chiral_a_la_conway")
        seconds("oriented.oriented_stg")
        seconds("stg.quotient")
        seconds("stg.classify")
        seconds("stg.transitivity_profile")
        calls("stg.stg_violations")
        seconds("stg.stg_violations")
        seconds("enumeration.enumerate_stg", "self_s")
        calls("enumeration.canonical_code")
        seconds("enumeration.canonical_code")
        out["enumeration.classes"] = (self.counts["classes"], "count")
        out["enumeration.classes_per_canonical_call"] = (
            ratio(self.counts["classes"], self.calls.get("enumeration.canonical_code", 0)),
            "ratio")
        seconds("enumeration.oriented_stg3_via_quotient")
        calls("enumeration.oriented_canonical_code")
        seconds("enumeration.verify_census")
        seconds("flag_graph.validate")
        out["flag_graph.bfs_depth"] = (bfs_depth, "count")
        seconds("constructions.construction")
        seconds("formats.parse_maniplex_text")
        seconds("formats.json_report")
        seconds("cli.main", "self_s")
        return out

    def table(self) -> dict[str, dict[str, float]]:
        """Every wrapped function that was called, for the trace file."""
        return {name: {"calls": self.calls[name], "s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)}
