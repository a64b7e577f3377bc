"""One repetition of one workload, in a fresh interpreter.

Usage: python3 bench/rep.py --workload NAME --seed N --trace 0|1 --out FILE

Run from the root of the checkout, with `src` on PYTHONPATH (`run.py` sets
that up).  The process imports the package, builds its inputs from the seed,
checks that every module-level cache is still empty, makes the timed
verdict calls, and writes one JSON record to FILE.  Timestamps use
`time.monotonic`, which the parent shares, so the parent can take set-up
time from its own spawn time to the record's `first_call`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

PROBE_REPEATS = 3


def _caches() -> dict[str, object]:
    """Every module-level `lru_cache` in the loaded package modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("ramsey_circle."):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)):
                found[f"{name.partition('.')[2]}.{attr}"] = obj
    return found


def _probe_solver(tracer: Tracer) -> None:
    """`dimacs_solver.startup_s`: `solve_external` on a one-clause formula."""
    from ramsey_circle import satgen
    times = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        try:
            outcome = satgen.solve_external(satgen.CnfFormula(num_vars=1, clauses=((1,),)))
            if outcome.status != "SAT":
                tracer.add("dimacs_solver.errors", 1)
        except Exception:
            tracer.add("dimacs_solver.errors", 1)
        times.append(time.perf_counter() - started)
    tracer.add("dimacs_solver.startup_s", statistics.median(times))


def _probe_cli(tracer: Tracer, inputs: dict, gate: workloads.Gate) -> None:
    """CLI start-up, and every sweep item run and timed on its own.  An item
    passes only with its expected exit code and no traceback on stderr: an
    uncaught exception exits 1, which is also the valid-negative code."""
    def run(argv):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ramsey_circle", *argv],
                              capture_output=True, text=True, timeout=120)
        return proc, (time.perf_counter() - started) * 1000

    startup = [run(["--help"])[1] for _ in range(PROBE_REPEATS)]
    tracer.add("cli.startup_ms", statistics.median(startup))
    item_ms = []
    for line in inputs["spec"].read_text(encoding="utf-8").splitlines():
        expected, *argv = shlex.split(line)
        proc, ms = run(argv)
        item_ms.append(ms)
        ok = proc.returncode == int(expected) and "Traceback" not in proc.stderr
        tracer.add("cli.errors", 0 if ok else 1)
        gate.op(f"item alone {line}", lambda ok=ok: ok)
    tracer.add("cli.items", len(item_ms))
    tracer.add("cli.item_p50_ms", statistics.median(item_ms))
    tracer.add("cli.item_max_ms", max(item_ms))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    work_dir = args.out.parent
    inputs = workloads.make_inputs(args.workload, args.seed, work_dir)
    run = workloads.RUNNERS[args.workload]
    gate = workloads.Gate()
    # Load the workload's modules here, in set-up, so the first timed call
    # does not pay for them and the tracer finds them.
    for module in workloads.MODULES[args.workload]:
        __import__(f"ramsey_circle.{module}")

    caches = _caches()
    gate.op("cold caches", lambda: all(c.cache_info().currsize == 0 for c in caches.values()))
    tracer = Tracer(args.run_id) if args.trace else None
    if tracer:
        tracer.install()

    first_call = time.monotonic()
    cpu0 = workloads.cpu_seconds()
    run(inputs, gate)
    cpu1 = workloads.cpu_seconds()
    last_call = time.monotonic()

    record = {"first_call": first_call, "wall_s": last_call - first_call,
              "cpu_s": cpu1 - cpu0, "phases": gate.phases,
              "attempted": gate.attempted, "failures": gate.failures}
    if tracer:
        tracer.uninstall()
        info = caches.get("uniform.window_order")
        if info is not None:
            stats = info.cache_info()
            tracer.add("uniform.window_order.cache_hits", stats.hits)
            tracer.add("uniform.window_order.cache_misses", stats.misses)
        elif "ramsey_circle.uniform" in sys.modules:
            tracer.absent.update(("uniform.window_order.cache_hits",
                                  "uniform.window_order.cache_misses"))
        if args.workload == "sat-solve":
            _probe_solver(tracer)
        elif args.workload == "cli-batch":
            _probe_cli(tracer, inputs, gate)
        record["attempted"] = gate.attempted
        record["summary"] = tracer.summary()
        tracer.write(args.out.with_suffix(".spans.json"))
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = max(self_rss, child_rss) / 1024
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
