"""Self-contained CDCL SAT solver speaking DIMACS and SAT-competition output.

Usage: python -m ramsey_circle.dimacs_solver FILE.cnf

Prints four counter lines ("c conflicts N", "c decisions N",
"c propagations N", "c restarts N"), then "s SATISFIABLE" with "v" model
lines, or "s UNSATISFIABLE"; exit codes follow the competition convention
(10 SAT, 20 UNSAT).  The input is read by the package's one DIMACS parser,
`satgen.dimacs_read`; a missing or malformed file prints a single "error:"
line to stderr, no "s" line, and exits 1.  The solver has no dependency
outside the standard library and is deterministic.  `satgen.solve_external`
runs `Solver` in-process by default; this command line serves as an external
solver like any other, and kissat/cadical/minisat can replace it through
`--solver` or RAMSEY_SAT_SOLVER for speed.

Implements the standard loop: two-watched-literal unit propagation, first
unique implication point conflict analysis, activity-driven branching with
phase saving (or a fixed order, for the least model), and geometric restarts.
Unit clauses go on the trail at level 0 as they are added.

Layout: the two per-literal tables, `val` and `watches`, are lists of
length 2n + 1 indexed by the signed literal itself.  Python's negative
indexing sends -v to slot 2n + 1 - v, so v and -v never share a slot and
slot 0 is unused; the hot loop reads `val[lit]` and `watches[lit]` with no
abs() and no branch on the sign.  `val[lit]` is +1 when lit is true, -1 when
it is false and 0 when unassigned, and every assignment writes both
`val[v]` and `val[-v]`.  The per-variable tables (level, reason, phase,
activity) are indexed by v in 1..n.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, Sequence

from .satgen import dimacs_read


class Solver:
    """CDCL search over `clauses`.  After `solve()`, `conflicts`,
    `decisions`, `propagations` (trail literals propagated) and `restarts`
    count the work it did.  Building and solving raise TimeoutError once
    `time.monotonic()` passes `deadline`.  `order`, if given, lists every
    variable, and each decision sets the first unassigned one in it false."""

    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]],
                 deadline: Optional[float] = None, order: Optional[Sequence[int]] = None):
        self.nv = num_vars
        self.deadline = deadline
        self.order = order
        self.val = [0] * (2 * num_vars + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]
        self.level = [0] * (num_vars + 1)
        self.reason: list[Optional[list[int]]] = [None] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.unsat = False
        self.conflicts = self.decisions = self.propagations = self.restarts = 0
        for i, clause in enumerate(clauses):
            if deadline is not None and not i % 1024 and time.monotonic() > deadline:
                raise TimeoutError("solver deadline passed while adding clauses")
            self._add_clause(clause)

    def _add_clause(self, lits: Sequence[int]) -> None:
        seen = dict.fromkeys(lits)
        lits = list(seen)
        # an out-of-range literal would alias another one's slot
        if lits and (0 in seen or not -self.nv <= min(lits) <= max(lits) <= self.nv):
            raise ValueError(f"clause {lits} has a literal out of range for "
                             f"{self.nv} variables")
        if any(-lit in seen for lit in lits):
            return  # tautology
        if not lits:
            self.unsat = True
            return
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):   # level 0: a contradicting unit
                self.unsat = True
            return
        self._watch(lits)

    def _watch(self, clause: list[int]) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        v = self.val[lit]
        if v:
            return v == 1
        self.val[lit] = 1
        self.val[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[list[int]]:
        val = self.val
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        cur_level = len(self.trail_lim)
        qhead = start = self.qhead
        conflict = None
        while qhead < len(trail) and conflict is None:
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            i = 0
            end = len(watchers)
            while i < end:
                clause = watchers[i]
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if val[first] == 1:
                    i += 1
                    continue
                for j in range(2, len(clause)):
                    lit = clause[j]
                    if val[lit] != -1:
                        clause[1] = lit
                        clause[j] = false_lit
                        watches[lit].append(clause)
                        end -= 1
                        watchers[i] = watchers[end]  # the tail is cut below
                        break
                else:
                    if val[first]:
                        conflict = clause  # every literal is false
                        self.conflicts += 1
                        break
                    val[first] = 1
                    val[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = cur_level
                    reason[var] = clause
                    trail.append(first)
                    i += 1
            del watchers[end:]
        self.propagations += qhead - start
        self.qhead = qhead
        return conflict

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        level = self.level
        trail = self.trail
        activity = self.activity
        var_inc = self.var_inc
        cur_level = len(self.trail_lim)
        learnt = [0]  # placeholder for the asserting literal
        seen = [False] * (self.nv + 1)
        counter = 0
        p = None
        reason = conflict
        idx = len(trail) - 1
        while True:
            # A reason clause has its asserted literal at position 0; the
            # conflict clause (first round) is walked in full.
            for lit in (reason if p is None else reason[1:]):
                var = lit if lit > 0 else -lit
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    activity[var] += var_inc
                    if activity[var] > 1e100:
                        for v in range(1, self.nv + 1):
                            activity[v] *= 1e-100
                        var_inc *= 1e-100
                    if level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = -trail[idx]
            idx -= 1
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[abs(p)]
        self.var_inc = var_inc
        learnt[0] = p
        if len(learnt) == 1:
            return learnt, 0
        # Watch a maximum-level tail literal: it unassigns no later than the
        # asserting literal, keeping the two-watch invariant after backjumps.
        hi = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
        learnt[1], learnt[hi] = learnt[hi], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _backjump(self, level: int) -> None:
        if len(self.trail_lim) > level:
            limit = self.trail_lim[level]
            del self.trail_lim[level:]
            for lit in self.trail[limit:]:
                self.val[lit] = self.val[-lit] = 0
                self.phase[abs(lit)] = lit > 0
            del self.trail[limit:]
            self.qhead = min(self.qhead, limit)

    def _decide(self) -> Optional[int]:
        val = self.val
        if self.order is not None:
            return next((-var for var in self.order if not val[var]), None)
        activity = self.activity
        best = 0
        best_act = -1.0
        for var in range(1, self.nv + 1):
            if not val[var] and activity[var] > best_act:
                best = var
                best_act = activity[var]
        if best == 0:
            return None
        return best if self.phase[best] else -best

    def solve(self) -> Optional[list[bool]]:
        """A model indexed by variable (slot 0 unused), or None if unsatisfiable."""
        if self.unsat or self._propagate() is not None:
            return None
        conflicts_budget = 256
        while True:
            conflicts = 0
            while conflicts < conflicts_budget:
                if self.deadline is not None and time.monotonic() > self.deadline:
                    raise TimeoutError("solver deadline passed")
                conflict = self._propagate()
                if conflict is not None:
                    conflicts += 1
                    if not self.trail_lim:
                        return None
                    learnt, back = self._analyze(conflict)
                    self._backjump(back)
                    if len(learnt) == 1:
                        if not self._enqueue(learnt[0], None):
                            return None
                    else:
                        self._watch(learnt)
                        self._enqueue(learnt[0], learnt)
                    self.var_inc /= 0.95
                    continue
                decision = self._decide()
                if decision is None:
                    return [self.val[v] > 0 for v in range(self.nv + 1)]
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(decision, None)
            # Restart: keep learned clauses and phases, drop the trail.
            self._backjump(0)
            self.restarts += 1
            conflicts_budget = int(conflicts_budget * 1.5)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: dimacs_solver FILE.cnf", file=sys.stderr)
        return 1
    try:
        if argv[1] == "-":
            text = sys.stdin.read()
        else:
            with open(argv[1], "r", encoding="utf-8") as fh:
                text = fh.read()
        f = dimacs_read(text)
    except (OSError, ValueError) as exc:   # ParseError and UnicodeDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    solver = Solver(f.num_vars, f.clauses)
    model = solver.solve()
    print("c ramsey-circle reference CDCL solver")
    print(f"c conflicts {solver.conflicts}")
    print(f"c decisions {solver.decisions}")
    print(f"c propagations {solver.propagations}")
    print(f"c restarts {solver.restarts}")
    if model is None:
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    lits = [v if model[v] else -v for v in range(1, f.num_vars + 1)]
    for i in range(0, len(lits), 20):
        chunk = lits[i:i + 20]
        tail = " 0" if i + 20 >= len(lits) else ""
        print("v " + " ".join(map(str, chunk)) + tail)
    if not lits:
        print("v 0")
    return 10


if __name__ == "__main__":
    sys.exit(main(sys.argv))
