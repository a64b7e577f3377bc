"""Self-contained CDCL SAT solver speaking DIMACS and SAT-competition output.

Usage: python -m ramsey_circle.dimacs_solver FILE.cnf

Prints "s SATISFIABLE" with "v" model lines, or "s UNSATISFIABLE"; exit
codes follow the competition convention (10 SAT, 20 UNSAT).  The input is
read by the package's one DIMACS parser, `satgen.dimacs_read`; a missing or
malformed file prints a single "error:" line to stderr, no "s" line, and
exits 1.  The solver has no dependency outside the standard library and is
deterministic, so it can act as the default external solver subprocess on
machines where no real SAT solver is installed; swap in
kissat/cadical/minisat via RAMSEY_SAT_SOLVER for speed.

Implements the standard loop: two-watched-literal unit propagation, first
unique implication point conflict analysis, activity-driven branching with
phase saving, and geometric restarts.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .satgen import dimacs_read


class Solver:
    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]]):
        self.nv = num_vars
        self.assign = [0] * (num_vars + 1)      # 0 unassigned, +1 true, -1 false
        self.level = [0] * (num_vars + 1)
        self.reason: list[Optional[list[int]]] = [None] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: dict[int, list[list[int]]] = {}
        self.unsat = False
        self.units: list[int] = []
        for clause in clauses:
            self._add_clause(clause)

    def _add_clause(self, lits: Sequence[int]) -> None:
        seen = dict.fromkeys(lits)
        lits = list(seen)
        if any(-lit in seen for lit in lits):
            return  # tautology
        if not lits:
            self.unsat = True
            return
        if len(lits) == 1:
            self.units.append(lits[0])
            return
        self._watch(lits)

    def _watch(self, clause: list[int]) -> None:
        self.watches.setdefault(clause[0], []).append(clause)
        self.watches.setdefault(clause[1], []).append(clause)

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        v = self._value(lit)
        if v == 1:
            return True
        if v == -1:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[list[int]]:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            watchers = self.watches.get(false_lit)
            if not watchers:
                continue
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    i += 1
                    continue
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != -1:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(clause[1], []).append(clause)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        break
                else:
                    if not self._enqueue(first, clause):
                        return clause  # conflict
                    i += 1
        return None

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nv + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        cur_level = len(self.trail_lim)
        learnt = [0]  # placeholder for the asserting literal
        seen = [False] * (self.nv + 1)
        counter = 0
        p = None
        reason = conflict
        idx = len(self.trail) - 1
        while True:
            # A reason clause has its asserted literal at position 0; the
            # conflict clause (first round) is walked in full.
            for lit in (reason if p is None else reason[1:]):
                var = abs(lit)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = -self.trail[idx]
            idx -= 1
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[abs(p)]
        learnt[0] = p
        if len(learnt) == 1:
            return learnt, 0
        # Watch a maximum-level tail literal: it unassigns no later than the
        # asserting literal, keeping the two-watch invariant after backjumps.
        hi = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
        learnt[1], learnt[hi] = learnt[hi], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _backjump(self, level: int) -> None:
        while self.trail_lim and len(self.trail_lim) > level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                lit = self.trail.pop()
                var = abs(lit)
                self.phase[var] = lit > 0
                self.assign[var] = 0
                self.reason[var] = None
        self.qhead = len(self.trail)

    def _decide(self) -> Optional[int]:
        best = 0
        best_act = -1.0
        for var in range(1, self.nv + 1):
            if self.assign[var] == 0 and self.activity[var] > best_act:
                best = var
                best_act = self.activity[var]
        if best == 0:
            return None
        return best if self.phase[best] else -best

    def solve(self) -> Optional[list[bool]]:
        if self.unsat:
            return None
        for lit in self.units:
            if not self._enqueue(lit, None):
                return None
        if self._propagate() is not None:
            return None
        conflicts_budget = 256
        while True:
            conflicts = 0
            while conflicts < conflicts_budget:
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
                    return [self.assign[v] > 0 for v in range(self.nv + 1)]
                self.trail_lim.append(len(self.trail))
                self._enqueue(decision, None)
            # Restart: keep learned clauses and phases, drop the trail.
            self._backjump(0)
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
    model = Solver(f.num_vars, f.clauses).solve()
    print("c ramsey-circle reference CDCL solver")
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
