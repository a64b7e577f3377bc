"""Benchmark entry point: run workloads as repeated fresh interpreters.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, untraced then traced
    python3 bench/run.py --self-check         # two seeds, every workload, plus the
                                              # no-program check

Run it from the root of a checkout.  Each repetition is a new interpreter
running `bench/rep.py`, so module caches start cold, as they do for every
CLI invocation.  Repetitions continue until `--seconds` would be exceeded,
and each metric is the median over them.  With `--trace 1`, untraced and
traced repetitions alternate: the per-layer metrics come from the traced
ones, and the difference in wall time is reported as tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric with its unit, the failed operations, and the machine.  Full
records, including the per-repetition values, go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = {0: 3, 1: 2}  # per kind of repetition, by --trace
RUN_LIMIT = 160          # seconds; a repetition still running then is killed and failed


def _loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest(root: Path) -> str:
    """A digest of the program's sources, which names the version under
    test where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "git_commit": _git_commit(root),
            "src_digest": _src_digest(root)}


def _child_env(root: Path, out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)            # the solver's DIMACS files stay in the checkout
    env.pop("RAMSEY_SAT_SOLVER", None)  # always the bundled solver
    return env


def run_rep(root: Path, out: Path, workload: str, seed: int, trace: int, index: int,
            timeout: float = RUN_LIMIT) -> dict:
    """Spawn one repetition and return its record, or a failure record."""
    run_id = f"{workload}-s{seed}-t{trace}-r{index}"
    # one file per repetition slot, so repeated runs overwrite, not pile up
    record_path = out / "reps" / f"{workload}-t{trace}-r{index}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "rep.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--out", str(record_path),
            "--run-id", run_id]
    load_before = _loadavg()
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=_child_env(root, out), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # with the solver or batch items it started
        _, stderr = proc.communicate()
        stderr = f"killed after {timeout:.0f} s\n{stderr}"
    ended = time.monotonic()
    base = {"trace": trace, "index": index, "duration_s": ended - spawned,
            "loadavg_before": load_before, "loadavg_after": _loadavg()}
    if proc.returncode != 0 or not record_path.is_file():
        tail = stderr.strip().splitlines()[-3:]
        return {**base, "ok": False, "attempted": 1,
                "failures": [f"repetition {run_id} exited {proc.returncode}: " + " | ".join(tail)]}
    record = json.loads(record_path.read_text(encoding="utf-8"))
    record.update(base, ok=True, setup_s=record["first_call"] - spawned)
    return record


def run_workload(root: Path, out: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> list[dict]:
    kinds = (0, 1) if trace else (0,)
    started = time.monotonic()
    deadline = started + seconds
    reps: list[dict] = []
    while True:
        kind = kinds[len(reps) % len(kinds)]
        left = RUN_LIMIT - (time.monotonic() - started)
        reps.append(run_rep(root, out, workload, seed, kind, len(reps), max(left, 1)))
        now = time.monotonic()
        if now - started >= RUN_LIMIT:
            break
        if all(sum(r["trace"] == k for r in reps) >= MIN_REPS[trace] for k in kinds):
            nxt = kinds[len(reps) % len(kinds)]
            est = statistics.median(r["duration_s"] for r in reps if r["trace"] == nxt)
            if now + est > deadline:
                break
    return reps


def _median(reps: list[dict], key: str) -> float:
    values = [r[key] for r in reps]
    return statistics.median(values) if values else 0.0


def _phase_sum(reps: list[dict], field: int) -> float:
    """Sum over the workload's phases of each phase's median over the
    repetitions; field 0 is wall time, 1 is CPU time."""
    names = set.intersection(*(set(r["phases"]) for r in reps)) if reps else set()
    return sum(statistics.median(r["phases"][name][field] for r in reps) for name in names)


def summarise(reps: list[dict], trace: int) -> tuple[dict, list[str]]:
    """Metric values by name, and the names reported as absent."""
    plain = [r for r in reps if r["ok"] and r["trace"] == 0]
    if not trace:
        return {"wall_s": _phase_sum(plain, 0), "cpu_s": _phase_sum(plain, 1),
                "peak_rss_mb": _median(plain, "peak_rss_mb"),
                "setup_s": _median(plain, "setup_s")}, []
    traced = [r for r in reps if r["ok"] and r["trace"] == 1]
    return layer_metrics([r["summary"] for r in traced], [r["wall_s"] for r in traced],
                         [r["wall_s"] for r in plain])


def _spread(values: list[float]) -> str:
    return f"min {min(values):.4g} max {max(values):.4g} n={len(values)}" if values else "n=0"


def report(spec: dict, workload: str, seed: int, trace: int, reps: list[dict],
           env: dict, load: tuple[list, list], out: Path) -> dict:
    values, absent = summarise(reps, trace)
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        entry = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        if m["name"] in absent or m["name"] not in values:
            entry["absent"] = True
        metrics[m["name"]] = entry
    plain = [r for r in reps if r["ok"] and r["trace"] == 0]
    print(f"== {workload} seed={seed} trace={trace} repetitions={len(reps)}")
    for name, entry in metrics.items():
        note = ""
        if not trace:
            note = "  (per repetition: " + _spread([r[name] for r in plain]) + ")"
        if entry.get("absent"):
            note = "  (absent in this version)"
        print(f"  {name:44s} {entry['value']:.6g} {entry['unit']}{note}")
    for name in absent:
        if name not in metrics:
            print(f"  absent in this version: {name}")
    ratio = len(failures) / attempted if attempted else 0.0
    print(f"  {'ops_failed_ratio':44s} {ratio:.6g} ratio  ({len(failures)} failed "
          f"of {attempted} attempted)")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print(f"  env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"commit={env['git_commit']} src={env['src_digest']} "
          f"loadavg before={load[0]} after={load[1]}")
    result = {"correct": not failures and all(r["ok"] for r in reps),
              "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (out / f"result-{workload}-s{seed}-t{trace}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "trace": trace, "environment": env,
         "loadavg_before": load[0], "loadavg_after": load[1], "ops_failed_ratio": ratio,
         "failures": failures, "absent": absent, "result": result,
         "repetitions": [{k: v for k, v in r.items() if k != "summary"} for r in reps]},
        indent=1), encoding="utf-8")
    return result


def self_check(root: Path, out: Path, spec: dict, seed: int) -> int:
    """Every workload once untraced and once traced, on `--seed` and on the
    next seed, then the run without a program, which must be refused."""
    problems = []
    for s in (seed, seed + 1):
        for workload in WORKLOADS:
            reps = [run_rep(root, out, workload, s, t, t) for t in (0, 1)]
            values, _ = summarise(reps, 1)
            missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
            fails = [f for r in reps for f in r["failures"]]
            status = "ok" if not fails and not missing else "FAILED"
            print(f"self-check {workload} seed={s}: {status} "
                  f"(wall {reps[0].get('wall_s', 0):.3f} s)")
            problems += fails + [f"{workload}: no value for {name}" for name in missing]
    bare = out / "selfcheck-no-program"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(Path(BENCH_DIR.name) / "run.py"),
                           "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    refused = proc.returncode != 0 and not last.startswith("{")
    if not refused:
        problems.append("the benchmark produced a result without the program")
    print(f"self-check without a program: exit {proc.returncode} "
          f"({'ok' if refused else 'FAILED'})")
    for p in problems[:20]:
        print(f"  {p}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="default: an untraced run, then a traced one")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ramsey_circle" / "__init__.py").is_file():
        print("bench: no src/ramsey_circle here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    if args.self_check:
        return self_check(root, out, spec, args.seed)

    env = environment(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    for workload in workloads:
        for trace in traces:
            load_before = _loadavg()
            reps = run_workload(root, out, workload, args.seed, seconds, trace)
            if not any(r["ok"] for r in reps):
                for r in reps:
                    print("\n".join(r["failures"]), file=sys.stderr)
                return 1
            results[(workload, trace)] = report(spec, workload, args.seed, trace, reps,
                                                env, (load_before, _loadavg()), out)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{name}": entry for (w, _), r in results.items()
                             for name, entry in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
