"""Self-contained CDCL SAT solver over a list of clauses.

In the package only `satgen._solve` builds a `Solver`, on the clause lists
`satgen.clause_lists` splits from a literal stream.  The solver has no
dependency outside the standard library and is deterministic.

Implements the standard loop: bit-parallel unit propagation, first unique
implication point conflict analysis, activity-driven branching with phase
saving (or a fixed order, for the least model), and geometric restarts.
Unit clauses go on the trail at level 0 as they are added.

Layout: bit c of an integer stands for clause c.  `occ[lit]` marks the
clauses holding lit, `sat` those with a propagated true literal, and plane j
of `planes` holds bit j of every clause's count of literals no propagated
literal made false.  Propagating a literal ORs its mask into `sat`, takes
one off the counts of the unsatisfied clauses holding its negation, a borrow
rippling through the planes, and reads off the planes the clauses whose
count fell to 1 (units) or 0 (conflicts).  A satisfied clause's count goes
stale unread: a decision saves the planes and `sat`, a backjump restores
them, and a learnt clause writes its count into the saved levels below its
backjump level.  `val` (1 true, -1 false, 0 unassigned) and `occ` are
indexed by the signed literal, -v at slot 2n + 1 - v.
"""

from __future__ import annotations

import time
from array import array
from typing import Iterable, Optional, Sequence


class Solver:
    """CDCL search over `clauses`.  After `solve()`, `conflicts`,
    `decisions`, `propagations` (trail literals propagated) and `restarts`
    count the work it did.  Building and solving raise TimeoutError once
    `time.monotonic()` passes `deadline`.  `order`, if given, lists every
    variable, and each decision sets the first unassigned one in it false."""

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]],
                 deadline: Optional[float] = None, order: Optional[Sequence[int]] = None):
        self.nv = num_vars
        self.deadline = deadline
        self.order = order
        self.val = [0] * (2 * num_vars + 1)
        self.clauses: list[list[int]] = []
        self.level = [0] * (num_vars + 1)
        self.reason: list[Optional[list[int]]] = [None] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.saved: list[tuple[list[int], int]] = []   # (planes, sat) per level
        self.qhead = 0
        self.unsat = False
        self.conflicts = self.decisions = self.propagations = self.restarts = 0
        for i, clause in enumerate(clauses):
            if deadline is not None and not i % 1024 and time.monotonic() > deadline:
                raise TimeoutError("solver deadline passed while adding clauses")
            self._add_clause(clause)
        # One pass per mask: OR-ing in one clause at a time would be quadratic.
        size = len(self.clauses)
        holders = [array("I") for _ in range(2 * num_vars + 1)]   # clause indices
        for c, clause in enumerate(self.clauses):
            for lit in clause:
                holders[lit].append(c)
        self.occ = []
        self.planes = [0] * max(1, num_vars.bit_length())
        self.sat = 0
        for positions in holders:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("solver deadline passed while building clause masks")
            digits = bytearray(b"0") * (size + 1)
            for c in positions:
                digits[c] = 49   # "1"
            carry = int(digits[::-1], 2)
            self.occ.append(carry)
            for j, plane in enumerate(self.planes):   # a clause's count starts at its length
                self.planes[j], carry = plane ^ carry, plane & carry

    def _add_clause(self, lits: Sequence[int]) -> None:
        seen = dict.fromkeys(lits)
        lits = list(seen)
        # an out-of-range literal would alias another one's slot
        if lits and (0 in seen or not -self.nv <= min(lits) <= max(lits) <= self.nv):
            raise ValueError(f"clause {lits} has a literal out of range for "
                             f"{self.nv} variables")
        if any(-lit in seen for lit in lits):
            return  # tautology
        if len(lits) > 1:
            self.clauses.append(lits)
        elif not lits or not self._enqueue(lits[0], None):   # empty, or a contradicting unit
            self.unsat = True

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
        occ = self.occ
        planes = self.planes
        clauses = self.clauses
        trail = self.trail
        sat = self.sat
        qhead = start = self.qhead
        conflict = None
        while qhead < len(trail) and conflict is None:
            lit = trail[qhead]
            qhead += 1
            sat |= occ[lit]
            touched = borrow = occ[-lit] & ~sat
            j = 0
            while borrow:   # one less on each touched count
                planes[j] = plane = planes[j] ^ borrow
                borrow &= plane
                j += 1
            low = touched   # those whose count is now 0 or 1
            for plane in planes[1:]:
                low &= ~plane
            while low:
                bit = low & -low
                low ^= bit
                clause = clauses[bit.bit_length() - 1]
                # the one literal no propagated literal made false, if any
                for first in clause:
                    if val[first] != -1:
                        break
                else:
                    conflict = clause
                    break
                self._enqueue(first, clause)   # a no-op if first is already true
        if conflict is not None:
            self.conflicts += 1
        self.propagations += qhead - start
        self.qhead = qhead
        self.sat = sat
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
        implied = 0   # the literal a reason clause asserts; the conflict has none
        reason = conflict
        idx = len(trail) - 1
        while True:
            for lit in reason:
                var = lit if lit > 0 else -lit
                if not seen[var] and level[var] > 0 and lit != implied:
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
            implied = trail[idx]
            idx -= 1
            seen[abs(implied)] = False
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[abs(implied)]
        self.var_inc = var_inc
        learnt[0] = -implied
        return learnt, max((level[abs(lit)] for lit in learnt[1:]), default=0)

    def _learn(self, clause: list[int]) -> None:
        """Add a clause asserting clause[0], counted in the saved levels below the backjump."""
        bit = 1 << len(self.clauses)
        self.clauses.append(clause)
        for lit in clause:
            self.occ[lit] |= bit
        levels = [self.level[abs(lit)] for lit in clause[1:]]
        count = len(clause)
        for j, (planes, _) in enumerate(self.saved):
            count -= levels.count(j)
            for i in range(count.bit_length()):
                if count >> i & 1:
                    planes[i] |= bit

    def _backjump(self, level: int) -> None:
        if len(self.trail_lim) > level:
            limit = self.trail_lim[level]
            del self.trail_lim[level:]
            self.planes, self.sat = self.saved[level]
            del self.saved[level:]
            for lit in self.trail[limit:]:
                self.val[lit] = self.val[-lit] = 0
                self.phase[abs(lit)] = lit > 0
            del self.trail[limit:]
            self.qhead = limit

    def _decide(self) -> Optional[int]:
        val = self.val
        if self.order is not None:
            return next((-var for var in self.order if not val[var]), None)
        best = max((var for var in range(1, self.nv + 1) if not val[var]),
                   key=self.activity.__getitem__, default=0)
        if not best:
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
                    if len(learnt) > 1:
                        self._learn(learnt)
                    self._enqueue(learnt[0], learnt)   # unassigned by the backjump
                    self.var_inc /= 0.95
                    continue
                decision = self._decide()
                if decision is None:
                    return [self.val[v] > 0 for v in range(self.nv + 1)]
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self.saved.append((self.planes[:], self.sat))
                self._enqueue(decision, None)
            # Restart: keep learned clauses and phases, drop the trail.
            self._backjump(0)
            self.restarts += 1
            conflicts_budget = int(conflicts_budget * 1.5)

