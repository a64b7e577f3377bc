"""The four benchmark workloads.

Each workload has two halves.  `make_inputs` builds every input from the
seed before the clock starts; only `core` is called there (colourings,
`discretize`, `power_tuple`), plus the benchmark's own generators.  The
workload function then makes the timed verdict calls and hands each verdict
to a `Gate`, which compares it with an independent route or the published
result.  A wrong verdict or an exception is counted and the run goes on.

The calls are grouped into phases, each timed on its own, so the parent can
take a median per phase over the repetitions: a burst of load from another
process then spoils one phase of one repetition, not the whole figure.

Calls go through module attributes (``uniform.residue_check(...)``), never
through names bound at import, so the traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import resource
import shlex
import time
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("sweep-small", "grid-large", "sat-solve", "cli-batch")
# Modules each workload calls into, imported during set-up.
MODULES = {"sweep-small": ("beatty", "detector", "doubling", "robust", "uniform"),
           "grid-large": ("beatty", "core", "detector", "majority", "uniform"),
           "sat-solve": ("satgen",),
           "cli-batch": ("cli",)}

# sweep-small: sized so that no single module takes more than about half of
# the run on the seed commit (uniform about 45%, beatty about 33%).
RESIDUE_MAX_K = 12          # residue_check for every t in [1, 2^(k+1) - 2]
ORBIT_MAX_K = 9             # orbit_from_uniform + prefix_permutation, same t range
DETECT_COMBOS = ((3, 1), (3, 2), (4, 1), (5, 1), (6, 1))   # n = 7, 14, 15, 31, 63
DETECT_PER_COMBO = 200
COUNT_KS = (3, 4, 5)
COUNT_PER_K = 1000
KNOWN_TRIPLES = (((F(5, 8), F(1, 4), F(1, 8)), 8),
                 ((F(3, 4), F(1, 6), F(1, 12)), 12),
                 ((F(7, 12), F(1, 4), F(1, 6)), 12))
SUITABLE_MAX_T = 500
BEATTY_KS = range(3, 11)

# grid-large: big inputs that no cache serves.
MAJORITY_CASES = ((6, F(1, 100), 25200), (7, F(1, 96), 12192), (7, F(1, 112), 14224))
PARTITION_K = 6
PARTITION_M = 10_000_000    # the O(M) owner list shows in peak_rss_mb
NONPOWER_POWER_KS = range(3, 8)
NONPOWER_MAX_T = 30
NONPOWER_TUPLES = 16

# sat-solve
UNSAT_KS = (3, 4, 5)
RELABEL_K = 5
RELABELLINGS = 5
CNF_K = 7

SWEEP_DIR = Path(__file__).resolve().parent / "sweep"


def cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Gate:
    """Counts verdict operations and the ones that failed, and times phases."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.phases: dict[str, tuple[float, float]] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time the enclosed calls as (wall seconds, CPU seconds)."""
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.phases[name] = (time.perf_counter() - wall, cpu_seconds() - cpu)

    def op(self, label: str, check, *args) -> None:
        """Run `check(*args)`; a false result or any exception is a failure."""
        self.attempted += 1
        try:
            ok = check(*args)
        except Exception as exc:   # a crash is a failed verdict, never a pass
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failures.append(f"{label}: wrong verdict")


# ---------------------------------------------------------------------------
# inputs

def _nonpower_tuples(rng: random.Random, count: int) -> list[tuple[F, ...]]:
    """Seeded non-power tuples with denominators <= 12; every other one has
    a repeated gap, so the detector's distinct-subset-sum path is bypassed."""
    out: list[tuple[F, ...]] = []
    while len(out) < count:
        k = rng.choice((3, 4))
        q = rng.randint(k + 2, 12)
        cuts = sorted(rng.sample(range(1, q), k - 1))
        parts = sorted((b - a for a, b in zip([0] + cuts, cuts + [q])), reverse=True)
        repeated = len(set(parts)) < len(parts)
        if repeated != (len(out) % 2 == 1):
            continue
        d = tuple(F(p, q) for p in parts)
        if k == 3 and d == (F(4, 7), F(2, 7), F(1, 7)):
            continue
        out.append(d)
    return out


def _copy_clauses(k: int) -> list[tuple[int, ...]]:
    """The benchmark's own encoding of the k-formula: for every start vertex
    and ordering of the doubling gaps after the largest, forbid the copy in
    both colours.  It is built without `satgen`, so an UNSAT verdict on a
    relabelling of it also checks the encoding."""
    n = 2**k - 1
    gaps = [2**(k - 1 - i) for i in range(k)]
    clauses = []
    for v in range(n):
        for rest in itertools.permutations(gaps[1:]):
            verts = [v]
            for g in [gaps[0], *rest[:-1]]:
                verts.append((verts[-1] + g) % n)
            clauses.append(tuple(u + 1 for u in verts))
    return clauses + [tuple(-lit for lit in c) for c in clauses]


def _relabel(clauses, num_vars: int, rng: random.Random) -> list[tuple[int, ...]]:
    """A vertex permutation plus a clause order: the same formula up to
    isomorphism, so the verdict must not change."""
    perm = list(range(1, num_vars + 1))
    rng.shuffle(perm)
    out = [tuple(perm[abs(lit) - 1] if lit > 0 else -perm[abs(lit) - 1] for lit in c)
           for c in clauses]
    rng.shuffle(out)
    return out


def _batch_spec(rng: random.Random, work_dir: Path) -> tuple[Path, int]:
    """The frozen sweep with its items in a seeded order; `@/` paths point
    back at the frozen colouring files."""
    lines = []
    for raw in (SWEEP_DIR / "acceptance.sweep").read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens = [str(SWEEP_DIR / t[2:]) if t.startswith("@/") else t
                      for t in shlex.split(line)]
            lines.append(shlex.join(tokens))
    rng.shuffle(lines)
    spec = work_dir / "batch.sweep"
    spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return spec, len(lines)


def make_inputs(workload: str, seed: int, work_dir: Path) -> dict:
    from ramsey_circle import core
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep-small":
        detect = []
        for k, mult in DETECT_COMBOS:
            inst = core.discretize(core.power_tuple(k), mult)
            detect += [(core.Colouring.random(inst.n, rng), inst)
                       for _ in range(DETECT_PER_COMBO)]
        count = []
        for k in COUNT_KS:
            inst = core.discretize(core.power_tuple(k))
            count += [(core.Colouring.random(inst.n, rng), inst) for _ in range(COUNT_PER_K)]
        triples = [(core.DistanceTuple(raw), n) for raw, n in KNOWN_TRIPLES]
        return {"detect": detect, "count": count, "triples": triples}
    if workload == "grid-large":
        return {"powers": [(k, core.power_tuple(k)) for k in NONPOWER_POWER_KS],
                "nonpowers": [core.DistanceTuple(d)
                              for d in _nonpower_tuples(rng, NONPOWER_TUPLES)]}
    if workload == "sat-solve":
        base = _copy_clauses(RELABEL_K)
        n = 2**RELABEL_K - 1
        return {"num_vars": n,
                "relabelled": [_relabel(base, n, rng) for _ in range(RELABELLINGS)]}
    if workload == "cli-batch":
        spec, items = _batch_spec(rng, work_dir)
        return {"spec": spec, "items": items, "report": work_dir / "batch-report.json",
                "parallel": max(1, min(2, os.cpu_count() or 1))}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# independent routes

def _residue_witness_ok(k: int, t: int, witness) -> bool:
    """Replay a residue witness in plain integers: every position after a
    jump must stay in the red window {0, ..., 2^k - 2}."""
    order = getattr(witness, "jump_order", None)
    if order is None:       # the witness no longer carries an order: verdict only
        return True
    m, window = 2**(k + 1) - 2, 2**k - 1
    if sorted(order) != list(range(k)):
        return False
    pos = 0
    for i in order:
        pos = (pos + 2**(i + 1) * t) % m
        if pos >= window:
            return False
    return True


def _uniform_red_mask(t: int, grid: int) -> int:
    block = grid // (2 * t)
    return sum(((1 << block) - 1) << (b * block) for b in range(0, 2 * t, 2))


# ---------------------------------------------------------------------------
# workloads

def sweep_small(inputs: dict, gate: Gate) -> None:
    from ramsey_circle import beatty, detector, doubling, robust, uniform

    def residue(k, t):
        w = uniform.residue_check(k, t)
        if w is None or not _residue_witness_ok(k, t, w):
            return False
        if k > ORBIT_MAX_K:
            return True
        orbit = doubling.orbit_from_uniform(k, t)
        return doubling.prefix_permutation(orbit) is not None

    for k in range(3, RESIDUE_MAX_K + 1):
        with gate.phase(f"residue k={k}"):
            for t in range(1, 2**(k + 1) - 1):
                gate.op(f"residue k={k} t={t}", residue, k, t)

    def detect(c, inst):
        wd = detector.detect_dp(c, inst)
        wb = detector.detect_bruteforce(c, inst)
        return wd == wb and (wd is None or wd.revalidates(c, inst))

    with gate.phase("detect"):
        for i, (c, inst) in enumerate(inputs["detect"]):
            gate.op(f"detect n={inst.n} #{i}", detect, c, inst)

    def parity(c, inst):
        red, blue = detector.count_copies(c, inst)
        return (red + blue) % 2 == 0

    with gate.phase("parity"):
        for i, (c, inst) in enumerate(inputs["count"]):
            gate.op(f"parity n={inst.n} #{i}", parity, c, inst)

    with gate.phase("robust"):
        for d, n in inputs["triples"]:
            gate.op(f"nearly-ramsey {d.distances} N={n}",
                    lambda: robust.nearly_ramsey_finite_check(d, n).verified)
            gate.op(f"strongly-suitable {d.distances}",
                    lambda: robust.strongly_suitable_search(d, SUITABLE_MAX_T) is None)

    def word(k):
        pair = beatty.power_pair(k)
        rep = beatty.fraenkel_diagnostics(pair, 2 * pair.common_numerator())
        if not (rep.exact and rep.symmetric and all(rep.consecutive_ok) and rep.power_flag):
            return False
        # a partitioning pair's owner word is balanced
        return beatty.balanced_check(beatty.BalancedWord(rep.period)).balanced

    for k in BEATTY_KS:
        with gate.phase(f"beatty k={k}"):
            gate.op(f"fraenkel+balanced k={k}", word, k)


def grid_large(inputs: dict, gate: Gate) -> None:
    from ramsey_circle import beatty, core, detector, majority, uniform

    def majority_case(k, eps, grid):
        params = majority.MajorityParams(k, eps)
        verdict = majority.majority_verify(params)
        return (verdict.no_red_copy and verdict.grid == grid
                and majority.red_copy_exists_dp(params) is False)

    for k, eps, grid in MAJORITY_CASES:
        with gate.phase(f"majority k={k} eps={eps}"):
            gate.op(f"majority k={k} eps={eps}", majority_case, k, eps, grid)

    def partition():
        pair = beatty.power_pair(PARTITION_K)
        # rational alphas make the owner word p-periodic: the 2p prefix
        # already gives the exact verdict
        return (beatty.partition_check(pair, PARTITION_M).ok
                and beatty.partition_check(pair, 2 * pair.common_numerator()).ok)

    with gate.phase("partition"):
        gate.op(f"partition k={PARTITION_K} M={PARTITION_M}", partition)

    def power_has_no_witness(k, d):
        if uniform.nonpower_witness(d, NONPOWER_MAX_T) is not None:
            return False
        return all(uniform.residue_check(k, t) is not None
                   for t in range(1, NONPOWER_MAX_T + 1))

    with gate.phase("nonpower doubling tuples"):
        for k, d in inputs["powers"]:
            gate.op(f"nonpower_witness power k={k}", power_has_no_witness, k, d)

    def nonpower(d):
        t = uniform.nonpower_witness(d, NONPOWER_MAX_T)
        if t is None:
            return True     # no claim to check within the bound
        # the witness claim, re-derived by brute force on the uniform colouring
        grid = math.lcm(2 * t, d.lcm_denominator())
        inst = core.DiscreteInstance(n=grid, gaps=tuple(int(x * grid) for x in d.distances))
        c = core.Colouring(n=grid, red_mask=_uniform_red_mask(t, grid))
        return detector.detect_bruteforce(c, inst) is None

    with gate.phase("nonpower seeded tuples"):
        for d in inputs["nonpowers"]:
            gate.op(f"nonpower_witness {tuple(map(str, d.distances))}", nonpower, d)


def sat_solve(inputs: dict, gate: Gate) -> None:
    from ramsey_circle import satgen

    for k in UNSAT_KS:
        with gate.phase(f"verify k={k}"):
            gate.op(f"verify_unavoidable k={k}",
                    lambda: satgen.verify_unavoidable(k).status == "UNSAT")

    def relabelled(clauses):
        f = satgen.CnfFormula(num_vars=inputs["num_vars"], clauses=clauses)
        return satgen.solve_external(f).status == "UNSAT"

    for i, clauses in enumerate(inputs["relabelled"]):
        with gate.phase(f"relabelling {i}"):
            gate.op(f"relabelling #{i} of k={RELABEL_K}", relabelled, clauses)

    def roundtrip():
        f = satgen.cnf_generate(CNF_K)
        g = satgen.dimacs_read(satgen.dimacs_write(f))
        n = 2**CNF_K - 1
        return g == f and f.num_clauses == 2 * n * math.factorial(CNF_K - 1)

    with gate.phase("cnf round trip"):
        gate.op(f"cnf round trip k={CNF_K}", roundtrip)


def cli_batch(inputs: dict, gate: Gate) -> None:
    import json

    from ramsey_circle import cli

    report_path = inputs["report"]
    report_path.unlink(missing_ok=True)
    with gate.phase("batch"):
        code = cli.dispatch(["--parallel", str(inputs["parallel"]), "batch",
                             str(inputs["spec"]), "--report", str(report_path)])
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        items = report["items"]
    except (OSError, ValueError, KeyError) as exc:
        # every item counts as failed: none of them has a verdict to check
        gate.attempted += inputs["items"]
        gate.failures += [f"batch exited {code} without a readable report: {exc}"] * inputs["items"]
        return
    for item in items:
        gate.op(f"batch item {shlex.join(item['argv'])}",
                lambda item=item: item["pass"] and item["actual"] == item["expected"])
    gate.op("batch exit code and item count",
            lambda: code == 0 and report.get("failed") == 0 and len(items) == inputs["items"])


RUNNERS = {"sweep-small": sweep_small, "grid-large": grid_large,
           "sat-solve": sat_solve, "cli-batch": cli_batch}
