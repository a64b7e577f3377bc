"""Spans around calls into the package's public functions.

`Tracer.install` rebinds every public function of every loaded layer module
to a timing wrapper: in its own module, so calls from the benchmark and
calls within the module are timed, and in every other module that imported
it by name, so a cross-module call becomes a child span of its caller.  A
span holds a name, a start, an end, its parent span and the run id; spans
stay in memory until `write` saves them at the end of the run.

Layer self time is a span's duration minus the part its child spans cover.
The bundled SAT solver runs as a subprocess, so its reported solver time is
entered as a synthetic `dimacs_solver.solve` child of `solve_external`.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

PACKAGE = "ramsey_circle"
LAYERS = ("uniform", "doubling", "detector", "majority", "beatty", "robust",
          "satgen", "dimacs_solver", "cli")

# Cross-module names the traced run is expected to rebind; a name that a
# later version no longer imports is reported as absent.
CROSS_MODULE = (("uniform", "has_copy_in_class_dp"), ("uniform", "find_copy_in_class"),
                ("majority", "has_copy_in_class_dp"), ("majority", "find_copy_in_class"),
                ("robust", "uniform_contains_mono_copy"), ("satgen", "detect_bruteforce"))

_WITNESS_QUERIES = {"detector.detect_dp", "detector.detect_bruteforce",
                    "detector.has_copy_in_class_dp", "detector.find_copy_in_class"}

# Counters reported as they are; the rep fills the cache and probe entries.
COUNTERS = ("uniform.window_order.cache_hits", "uniform.window_order.cache_misses",
            "majority.grid_vertices", "beatty.values_marked", "robust.colourings_checked",
            "satgen.clauses", "satgen.dimacs_bytes", "dimacs_solver.solver_s",
            "dimacs_solver.solves", "dimacs_solver.startup_s", "cli.startup_ms",
            "cli.items", "cli.item_p50_ms", "cli.item_max_ms")

_NAME, _START, _END, _PARENT, _ERROR = range(5)


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    head, _, layer = module.partition(".")
    return layer if head == PACKAGE and layer in LAYERS else None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name.partition(".")[2]: mod for name, mod in list(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and name.partition(".")[2] in LAYERS}
        for caller, name in CROSS_MODULE:
            mod = modules.get(caller)
            if mod is not None and _layer_of(getattr(mod, name, None)) is None:
                self.absent.add(f"rebind {caller}.{name}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                self._rebound.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(f"{layer}.{obj.__name__}", obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_ERROR] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            observe(name, idx, args, kwargs, result)
            return result

        return traced

    # -- counters read from arguments and results ----------------------------

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def read(self, key: str, obj, attr: str):
        value = getattr(obj, attr, None)
        if value is None:
            self.absent.add(key)
        return value

    def _observe(self, name: str, idx: int, args, kwargs, result) -> None:
        if name in _WITNESS_QUERIES:
            self.add("detector.queries", 1)
            self.add("detector.witnesses", int(result is not None and result is not False))
        elif name == "beatty.partition_check":
            self.add("beatty.values_marked", kwargs.get("M", args[1] if len(args) > 1 else 0))
        elif name == "majority.majority_verify":
            grid = self.read("majority.grid_vertices", result, "grid")
            self.add("majority.grid_vertices", grid or 0)
        elif name == "robust.nearly_ramsey_finite_check":
            checked = self.read("robust.colourings_checked", result, "colourings_checked")
            self.add("robust.colourings_checked", checked or 0)
        elif name == "satgen.cnf_generate":
            self.add("satgen.clauses", getattr(result, "num_clauses", 0))
        elif name == "satgen.dimacs_write":
            self.add("satgen.dimacs_bytes", len(result) if isinstance(result, str) else 0)  # ASCII
        elif name == "satgen.solve_external":
            self.add("dimacs_solver.solves", 1)
            if getattr(result, "status", None) not in ("SAT", "UNSAT"):
                self.add("dimacs_solver.errors", 1)
            solver_time = self.read("dimacs_solver.solver_s", result, "solver_time")
            if solver_time is not None:
                self.add("dimacs_solver.solver_s", solver_time)
                self._solver_span(idx, solver_time)

    def _solver_span(self, parent: int, solver_time: float) -> None:
        """Enter the subprocess's time as a child of `solve_external`, less
        the traced in-process work (writing the DIMACS file) it also covers."""
        span = self.spans[parent]
        covered = sum(s[_END] - s[_START] for s in self.spans[parent + 1:]
                      if s[_PARENT] == parent)
        dur = min(max(0.0, solver_time - covered), span[_END] - span[_START] - covered)
        self.spans.append(["dimacs_solver.solve", span[_END] - dur, span[_END], parent, False])

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, busy (inclusive) and self seconds, errors."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        funcs: dict[str, dict] = {}
        roots = 0.0
        for i, s in enumerate(self.spans):
            dur = s[_END] - s[_START]
            f = funcs.setdefault(s[_NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                            "errors": 0})
            f["calls"] += 1
            f["busy_s"] += dur
            f["self_s"] += dur - child[i]
            f["errors"] += s[_ERROR]
            if s[_PARENT] < 0:
                roots += dur
        return {"functions": funcs, "root_s": roots, "spans": len(self.spans),
                "counters": dict(self.counters), "absent": sorted(self.absent)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "error", "run_id"],
                       "spans": [s + [self.run_id] for s in self.spans]},
                      fh, separators=(",", ":"))


def layer_metrics(summaries: list[dict], traced_walls: list[float],
                  plain_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics as medians over the traced repetitions."""

    def med(values):
        return statistics.median(values) if values else 0.0

    def fn(summary, name, field):
        return summary["functions"].get(name, {}).get(field, 0)

    per_rep: list[dict] = []
    absent: set[str] = set()
    for s, wall in zip(summaries, traced_walls):
        m: dict[str, float] = {}
        c = s["counters"]
        for name in ("uniform.residue_check", "doubling.prefix_permutation",
                     "detector.detect_dp", "detector.detect_bruteforce",
                     "detector.count_copies"):
            m[f"{name}.calls"] = fn(s, name, "calls")
        for name in ("uniform.residue_check", "uniform.nonpower_witness",
                     "majority.majority_verify", "majority.red_copy_exists_dp",
                     "robust.strongly_suitable_search"):
            m[f"{name}.self_s"] = fn(s, name, "self_s")
        for name in ("doubling.orbit_from_uniform", "doubling.prefix_permutation",
                     "detector.detect_dp", "detector.detect_bruteforce",
                     "detector.count_copies", "detector.has_copy_in_class_dp",
                     "detector.find_copy_in_class", "beatty.partition_check",
                     "beatty.fraenkel_diagnostics", "beatty.balanced_check",
                     "robust.nearly_ramsey_finite_check", "satgen.cnf_generate",
                     "satgen.dimacs_write", "satgen.dimacs_read"):
            m[f"{name}.busy_s"] = fn(s, name, "busy_s")
        queries = c.get("detector.queries", 0)
        m["detector.witness_ratio"] = c.get("detector.witnesses", 0) / queries if queries else 0.0
        for key in COUNTERS:
            m[key] = c.get(key, 0)
        m["satgen.solve_overhead_s"] = (fn(s, "satgen.solve_external", "busy_s")
                                        - c.get("dimacs_solver.solver_s", 0))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(f["self_s"] for name, f in s["functions"].items()
                                       if name.partition(".")[0] == layer)
            m[f"{layer}.errors"] = c.get(f"{layer}.errors", 0) + sum(
                f["errors"] for name, f in s["functions"].items()
                if name.partition(".")[0] == layer)
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = wall - s["root_s"]
        m["trace.spans"] = s["spans"]
        per_rep.append(m)
        absent.update(s["absent"])
    metrics = {key: med([m[key] for m in per_rep]) for key in per_rep[0]} if per_rep else {}
    metrics["trace.overhead_s"] = med(traced_walls) - med(plain_walls)
    return metrics, sorted(absent)
