"""CNF generation, DIMACS round-trips, and the solver pipeline."""

import itertools
import random
import subprocess
import time
import tracemalloc
from array import array

import pytest
from _reference import dimacs_plain, dpll_sat

from ramsey_circle import dimacs_solver, satgen
from ramsey_circle.cli import EXIT_ERROR, dispatch
from ramsey_circle.core import Colouring, ParseError, discretize, power_tuple
from ramsey_circle.detector import detect_bruteforce
from ramsey_circle.dimacs_solver import Solver
from ramsey_circle.satgen import (CnfFormula, ModelValidationError, clause_lists,
                                  cnf_generate, copy_formula, dimacs_read, dimacs_write,
                                  solve_external, verify_unavoidable)


def test_formula_sizes():
    f3 = cnf_generate(3)
    assert (f3.num_vars, f3.num_clauses) == (7, 28)
    f4 = cnf_generate(4)
    assert (f4.num_vars, f4.num_clauses) == (15, 180)


def test_clause_count_formula():
    for k in range(3, 8):
        f = cnf_generate(k)
        expected = 2 * (2**k - 1)
        for i in range(1, k):
            expected *= i
        assert f.num_clauses == expected


def test_clauses_are_k_literals_same_sign():
    f = cnf_generate(4)
    for clause in f.clauses:
        assert len(clause) == 4
        assert all(lit > 0 for lit in clause) or all(lit < 0 for lit in clause)
    positive = [c for c in f.clauses if c[0] > 0]
    negative = [c for c in f.clauses if c[0] < 0]
    assert len(positive) == len(negative) == 90
    assert sorted(positive) == sorted(tuple(-lit for lit in c) for c in negative)


def test_each_copy_encoded_once():
    f = cnf_generate(3)
    vertex_sets = [frozenset(abs(lit) - 1 for lit in c) for c in f.clauses if c[0] > 0]
    assert len(set(vertex_sets)) == 14
    for vs in vertex_sets:
        ordered = sorted(vs)
        diffs = sorted((b - a) % 7 for a, b in
                       zip(ordered, ordered[1:] + ordered[:1]))
        assert diffs == [1, 2, 4]


@pytest.mark.parametrize("n, gaps", [
    (6, (2, 2, 2)), (8, (3, 3, 2)), (10, (4, 3, 3)), (12, (3, 3, 3, 3)), (7, (4, 2, 1)),
])
def test_copy_formula_has_both_clauses_of_every_copy(n, gaps):
    # repeated gaps included: every copy, from any start in any order, has
    # its positive and its negated clause, and every clause is a copy
    f = copy_formula(n, gaps)
    assert f.num_vars == n
    copies = {frozenset((v + sum(order[:i])) % n for i in range(len(order)))
              for v in range(n) for order in itertools.permutations(gaps)}
    positive = {frozenset(lit - 1 for lit in c) for c in f.clauses if c[0] > 0}
    negative = {frozenset(-lit - 1 for lit in c) for c in f.clauses if c[0] < 0}
    assert positive == negative == copies
    assert all(len(c) == len(gaps) for c in f.clauses)
    signs = [c[0] > 0 for c in f.clauses]
    assert signs == sorted(signs, reverse=True)   # positive clauses first
    if n == 6:
        assert copies == {frozenset({0, 2, 4}), frozenset({1, 3, 5})}
    if n == 7:
        assert f == cnf_generate(3)


@pytest.mark.parametrize("n, gaps", [
    (7, (4, 2, 1)), (12, (3, 3, 3, 3)), (10, (4, 3, 3)), (31, (16, 8, 4, 2, 1)),
])
def test_copy_clauses_are_counted_before_their_blocks(n, gaps):
    # positive clauses per start vertex, then negated ones: 2n flat blocks
    # of 0-terminated clauses that join into the formula's literal stream,
    # in its order and of the clause count given up front
    count, blocks = satgen.copy_clauses(n, gaps)
    blocks = list(blocks)
    assert len(blocks) == 2 * n
    assert len({len(block) for block in blocks}) == 1
    assert array("i", itertools.chain.from_iterable(blocks)) == copy_formula(n, gaps).literals
    assert count == sum(block.count(0) for block in blocks)
    assert all(lit >= 0 for block in blocks[:n] for lit in block)
    assert all(lit <= 0 for block in blocks[n:] for lit in block)


def test_k_range_enforced(capsys):
    for k in (2, 9, 17):
        with pytest.raises(ValueError):
            cnf_generate(k)
    # refused before any clause is built, not after minutes and gigabytes
    for argv in (["cnf", "--k", "9", "--out", "-"], ["solve", "--k", "9"]):
        assert dispatch(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: k must be in [3, 8], got 9")


def test_dimacs_header():
    text = dimacs_write(cnf_generate(3))
    lines = text.splitlines()
    assert lines[0].startswith("c ")
    assert lines[1] == "p cnf 7 28"
    assert lines[2].endswith(" 0")


def test_dimacs_round_trip():
    for k in (3, 4):
        f = cnf_generate(k)
        assert dimacs_read(dimacs_write(f)) == f


@pytest.mark.parametrize("n, gaps", [(5, (2, 2, 1)), (9, (3, 3, 2, 1))])
def test_dimacs_text_writes_formulas_with_repeated_gaps(n, gaps):
    # gaps `cnf` never writes: the text block by block equals the text of
    # the whole formula, and reads back as that formula
    num_clauses, blocks = satgen.copy_clauses(n, gaps)
    text = "".join(satgen.dimacs_text(n, num_clauses, blocks, ("repeated gaps",)))
    f = copy_formula(n, gaps)
    assert text == dimacs_write(f, ("repeated gaps",))
    assert dimacs_read(text) == f


def test_dimacs_read_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        dimacs_read("p cnf 3 1\n1 x 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        dimacs_read("1 2 0\n")            # clause before header
    with pytest.raises(ParseError):
        dimacs_read("p cnf 3 2\n1 2 0\n") # count mismatch
    with pytest.raises(ParseError):
        dimacs_read("p cnf 3 1\n1 2\n")   # unterminated
    with pytest.raises(ParseError) as exc:
        dimacs_read("p cnf 2 1\n5 0\n")
    assert "exceeds" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        dimacs_read("c x\np cnf -1 0\n")
    assert exc.value.line == 2


_DIMACS_FAULTS = ("empty", "range", "invalid", "unterminated", "count", "malformed",
                  "negative", "before", "missing", "duplicate")


def random_dimacs_text(rng):
    """A small DIMACS text, well formed or with one or two faults: comments
    anywhere, clauses split over lines or several on one, literals spelled
    as +3, 03 or 1_0, terminators as 0, -0 or 00, and CRLF line ends."""
    nv = rng.randint(1, 12)
    clauses = [[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv)))]
               for _ in range(rng.randint(0, 6))]
    faults = rng.sample(_DIMACS_FAULTS, rng.choice((0, 1, 1, 1, 2)))

    def spell(lit):
        digits = str(abs(lit))
        sign = "-" if lit < 0 else rng.choice(("", "", "+"))
        form = rng.random()
        if form < 0.1:
            digits = "0" + digits
        elif form < 0.2 and len(digits) > 1:
            digits = digits[0] + "_" + digits[1:]
        return sign + digits

    def zero():
        return rng.choice(("0", "0", "0", "-0", "00", "+0"))

    tokens = [tok for clause in clauses for tok in [*map(spell, clause), zero()]]
    if "empty" in faults:
        ends = [0] + [i + 1 for i, tok in enumerate(tokens) if tok in ("0", "-0", "00", "+0")]
        tokens.insert(rng.choice(ends), zero())
    if "range" in faults and tokens:
        lit = rng.choice((1, -1)) * (nv + rng.randint(1, 3))
        tokens.insert(rng.randrange(len(tokens)), spell(lit))
    if "invalid" in faults and tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(("2.0", "x", "1-", "--1", "0x1", "1e2"))
    if "unterminated" in faults:
        tokens.append(spell(rng.randint(1, nv)))
    lines = []
    while tokens:
        size = rng.randint(1, 6)
        sep = rng.choice((" ", " ", "\t", "  "))
        lines.append(rng.choice(("", "", " ")) + sep.join(tokens[:size]) + rng.choice(("", " ")))
        del tokens[:size]
    for _ in range(rng.randint(0, 3)):
        comment = rng.choice(("c", "c comment", " c 1 2 0", "cnf 1 2", "c p cnf 1 1", "", "  "))
        lines.insert(rng.randint(0, len(lines)), comment)
    count = len(clauses) + (rng.choice((-1, 1, 2)) if "count" in faults else 0)
    header = f"p cnf {nv} {count}"
    if "malformed" in faults:
        header = rng.choice(("p cnf", f"p cnf {nv}", f"p dnf {nv} {count}", f"p cnf {nv} {count} 0",
                             f"p cnf x {count}", f"p cnf {nv} 2.0", f"pcnf {nv} {count}"))
    if "negative" in faults:
        header = rng.choice((f"p cnf -{nv} {count}", f"p cnf {nv} -1"))
    # the header goes among the comments before the first clause line, or
    # just after that line
    first = next((i for i, line in enumerate(lines) if line.strip()[:1] not in ("", "c")),
                 len(lines))
    at = min(first + 1, len(lines)) if "before" in faults else rng.randint(0, first)
    if "missing" not in faults:
        lines.insert(at, header)
    if "duplicate" in faults:
        lines.insert(rng.randint(min(at + 1, len(lines)), len(lines)), header)
    eol = rng.choice(("\n", "\n", "\r\n"))
    return eol.join(lines) + rng.choice((eol, ""))


def _read_outcome(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def assert_dimacs_read_matches_the_plain_reader():
    """6000 seeded texts: every outcome of `dimacs_read`, line number
    included, is the plain per-token reader's."""
    rng = random.Random(2024)
    kinds = dict.fromkeys(("ok", "empty clause", "clause before problem line", "exceeds",
                           "malformed problem line", "header promises"), 0)
    for _ in range(6000):
        text = random_dimacs_text(rng)
        outcome = _read_outcome(dimacs_read, text)
        assert outcome == _read_outcome(dimacs_plain, text), text
        message = "ok" if isinstance(outcome, CnfFormula) else outcome[1]
        for kind in kinds:
            kinds[kind] += kind in message
    assert min(kinds.values()) >= 100, kinds


def test_dimacs_read_matches_the_plain_reader_on_seeded_texts():
    # the table of known tokens skips int() and the range check for a token
    # already read
    assert_dimacs_read_matches_the_plain_reader()


@pytest.mark.parametrize("block", [1, 2, 5, 11])
def test_dimacs_read_matches_the_plain_reader_across_block_boundaries(block, monkeypatch):
    # blocks of a few characters end inside "\r\n" texts, comment lines and
    # the header before they are cut after the next newline
    monkeypatch.setattr(satgen, "READ_BLOCK", block)
    assert_dimacs_read_matches_the_plain_reader()


def test_dimacs_read_holds_one_block_of_lines(monkeypatch):
    # k = 6 is 15120 lines: split at once, their strings took 1.3 MB above
    # the formula read; 4096-character blocks take 0.14 MB
    text = dimacs_write(cnf_generate(6))
    monkeypatch.setattr(satgen, "READ_BLOCK", 4096)
    tracemalloc.start()
    try:
        f = dimacs_read(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f == cnf_generate(6)
    assert peak - held < 400_000


def _traced(build):
    """What `build()` returns, the bytes it still holds and the most it held
    at once, by tracemalloc."""
    tracemalloc.start()
    try:
        return build(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_formulas_hold_one_or_two_bytes_per_literal_slot():
    # k = 6 has 15120 clauses of 6 literals and a 0 over 63 variables:
    # 105840 one-byte items.  Generated and read formulas hold about 1.03
    # and 1.05 bytes per slot, 4.09 and 4.18 as 4-byte items; a tuple per
    # clause held 12-14.  Z_200 needs 2-byte items: 3200 slots at 2.19 and
    # 2.25 bytes
    text = dimacs_write(cnf_generate(6))
    wide_text = dimacs_write(copy_formula(200, (100, 60, 40)))
    for build, itemsize, slots in ((lambda: cnf_generate(6), 1, 105840),
                                   (lambda: dimacs_read(text), 1, 105840),
                                   (lambda: copy_formula(200, (100, 60, 40)), 2, 3200),
                                   (lambda: dimacs_read(wide_text), 2, 3200)):
        f, held, _ = _traced(build)
        assert f.literals.itemsize == itemsize
        assert len(f.literals) == f.num_clauses * (len(f.clauses[0]) + 1) == slots
        assert held < 1.2 * itemsize * slots


@pytest.mark.parametrize("num_vars, itemsize", [(127, 1), (128, 2), (32767, 2), (32768, 4),
                                                (satgen.MAX_VARS, 4)])
def test_streams_take_the_narrowest_items_that_hold_every_literal(num_vars, itemsize):
    # ±num_vars alone and beside the smallest literals, at each side of the
    # 1-, 2- and 4-byte limits
    clauses = ((num_vars, -num_vars), (-1, 1), (-num_vars,), (num_vars,))
    f = CnfFormula(num_vars, clauses)
    text = dimacs_write(f)
    g = dimacs_read(text)
    assert f.literals.itemsize == g.literals.itemsize == itemsize
    assert text.endswith(f"p cnf {num_vars} 4\n{num_vars} -{num_vars} 0\n-1 1 0\n"
                         f"-{num_vars} 0\n{num_vars} 0\n")
    assert f == g
    assert f.clauses == g.clauses == clauses
    assert list(clause_lists(g.literals)) == [list(c) for c in clauses]


def test_tables_by_literal_follow_the_stream_not_the_header():
    # a header of a million variables over one clause: tables sized by the
    # header would hold two million entries, some 100 MB
    f = dimacs_read("p cnf 1000000 1\n-999999 1 0\n")
    text, _, write_peak = _traced(lambda: dimacs_write(f))
    clauses, _, view_peak = _traced(lambda: f.clauses)
    assert text == f"c {satgen.GENERATOR_NAME}\np cnf 1000000 1\n-999999 1 0\n"
    assert clauses == ((-999999, 1),)
    assert dimacs_read(text) == f
    assert max(write_peak, view_peak) < 50_000


@pytest.mark.parametrize("header, clause", [("p cnf 2147483648 1", "1 0"),
                                            ("p cnf 4294967296 1", "4294967295 0")])
def test_more_variables_than_an_array_item_holds_are_refused(header, clause):
    with pytest.raises(ParseError, match="above the limit 2147483647") as exc:
        dimacs_read(f"c big\n{header}\n{clause}\n")
    assert exc.value.line == 2
    with pytest.raises(ValueError, match="above the limit 2147483647"):
        CnfFormula(int(header.split()[2]), [[int(clause.split()[0])]])


def test_sign_convention_documented_example():
    # clause "1 5 7 0" forbids vertices {0, 4, 6} from being all blue
    f = cnf_generate(3)
    assert (1, 5, 7) in f.clauses


def test_bundled_solver_on_generated_formulas():
    for k, expected in ((3, None), (4, None)):
        f = cnf_generate(k)
        model = Solver(f.num_vars, [list(c) for c in f.clauses]).solve()
        assert model is expected


@pytest.mark.parametrize("clause", [[1, 3], [-3, 1], [0, 1], [4]])
def test_bundled_solver_rejects_literals_out_of_range(clause):
    # literal-indexed tables: -3 or 3 with two variables would alias a slot
    with pytest.raises(ValueError, match="out of range"):
        Solver(2, [[1, 2], clause])


def brute_sat(nv, clauses):
    # a clause as (positive mask, negative mask): bits satisfies it when
    # some positive variable is set or some negative one is clear
    masks = [(sum(1 << (l - 1) for l in c if l > 0),
              sum(1 << (-l - 1) for l in c if l < 0)) for c in clauses]
    return any(all(bits & pos or ~bits & neg for pos, neg in masks)
               for bits in range(1 << nv))


def test_bundled_solver_fuzz_against_enumeration():
    rng = random.Random(77)
    outcomes = {True: 0, False: 0}
    wide = 0   # formulas whose clauses may have 4 or 5 literals
    for _ in range(400):
        nv = rng.randint(1, 12)
        width = rng.randint(1, min(5, nv))
        wide += width >= 4
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, nv + 1), rng.randint(1, width))]
                   for _ in range(rng.randint(1, 4 * nv))]
        expected = brute_sat(nv, clauses)
        model = Solver(nv, [list(c) for c in clauses]).solve()
        assert (model is not None) == expected
        if model:
            assert all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 100 and wide >= 100, (outcomes, wide)


def test_bundled_solver_with_an_order_returns_the_least_model():
    # each decision sets the first unassigned variable of the order false,
    # so the first model is the least one read in that order, false first
    rng = random.Random(19)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        nv = rng.randint(1, 12)
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, nv + 1), rng.randint(1, min(4, nv)))]
                   for _ in range(rng.randint(1, 4 * nv))]
        order = rng.sample(range(1, nv + 1), nv)
        models = [[False] + [bool(bits >> (v - 1) & 1) for v in range(1, nv + 1)]
                  for bits in range(1 << nv)]
        models = [m for m in models if all(any(m[abs(l)] == (l > 0) for l in c) for c in clauses)]
        least = min(models, key=lambda m: [m[v] for v in order], default=None)
        assert Solver(nv, [list(c) for c in clauses], order=order).solve() == least
        outcomes[least is not None] += 1
    assert min(outcomes.values()) >= 100, outcomes


class _JumpProbe(Solver):
    """Counts the backjumps that skip a level and land above level 0, whose
    learnt clause has a count to write into each saved level, and checks the
    bit-sliced counts before every decision."""

    def __init__(self, num_vars, clauses):
        self.deep = 0
        super().__init__(num_vars, clauses)

    def _analyze(self, conflict):
        learnt, back = super()._analyze(conflict)
        self.deep += back > 0 and len(self.trail_lim) - back > 1
        return learnt, back

    def _decide(self):
        # every literal on the trail is propagated: a clause is marked
        # satisfied iff it has a true literal, and otherwise its count is
        # the number of its literals that are not false
        for c, clause in enumerate(self.clauses):
            satisfied = any(self.val[lit] == 1 for lit in clause)
            assert (self.sat >> c & 1) == satisfied
            if not satisfied:
                count = sum((plane >> c & 1) << j for j, plane in enumerate(self.planes))
                assert count == sum(self.val[lit] != -1 for lit in clause)
        return super()._decide()


def test_deep_searches_agree_with_dpll():
    # random 3-SAT near clause ratio 4.26, where verdicts split and the
    # search backjumps over several levels
    rng = random.Random(426)
    outcomes = {True: 0, False: 0}
    deep = 0
    for _ in range(60):
        nv = rng.randint(20, 40)
        clauses = [[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), 3)]
                   for _ in range(round(4.26 * nv))]
        solver = _JumpProbe(nv, clauses)
        model = solver.solve()
        assert (model is not None) == dpll_sat(clauses)
        if model is not None:
            assert all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)
        outcomes[model is not None] += 1
        deep += solver.deep > 0
    assert min(outcomes.values()) >= 15 and deep >= 10, (outcomes, deep)


def _relabel(f, rng):
    """The same formula up to a vertex permutation and a clause order."""
    perm = list(range(1, f.num_vars + 1))
    rng.shuffle(perm)
    clauses = [tuple(perm[l - 1] if l > 0 else -perm[-l - 1] for l in c) for c in f.clauses]
    rng.shuffle(clauses)
    return CnfFormula(num_vars=f.num_vars, clauses=tuple(clauses))


class _RecordingSolver(Solver):
    """The bundled solver, keeping a copy of every clause it learns."""

    def __init__(self, num_vars, clauses):
        self.learnt = []
        super().__init__(num_vars, clauses)

    def _analyze(self, conflict):
        learnt, back = super()._analyze(conflict)
        self.learnt.append(tuple(learnt))
        return learnt, back


def _propagates_to_conflict(clauses, assumptions):
    """Naive unit propagation from the assumed literals; True when some
    clause ends up with every literal false."""
    true = set(assumptions)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            open_lits = [lit for lit in clause if -lit not in true]
            if not open_lits:
                return True
            if len(open_lits) == 1:
                true.add(open_lits[0])
                changed = True
    return False


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["k4", "k4-relabelled-1", "k4-relabelled-2"])
def test_learnt_clauses_follow_by_reverse_unit_propagation(seed):
    f = cnf_generate(4)
    if seed is not None:
        f = _relabel(f, random.Random(seed))
    solver = _RecordingSolver(f.num_vars, f.clauses)
    assert solver.solve() is None
    assert len(solver.learnt) == solver.conflicts - 1   # the last conflict is at level 0
    known = list(f.clauses)
    for clause in solver.learnt:
        assert _propagates_to_conflict(known, [-lit for lit in clause]), clause
        known.append(clause)
    assert _propagates_to_conflict(known, [])   # and then the empty clause


class _RestartProbe(Solver):
    """Counts restarts entered with trail literals still to propagate, and
    those among them whose backjump skipped the literals."""

    def __init__(self, num_vars, clauses):
        self.pending_restarts = self.skipped = 0
        super().__init__(num_vars, clauses)

    def _backjump(self, level):
        # a conflict backjumps from above level 0, so this is a restart
        pending = not self.trail_lim and self.qhead < len(self.trail)
        qhead = self.qhead
        super()._backjump(level)
        if pending:
            self.pending_restarts += 1
            self.skipped += self.qhead != qhead


def test_restart_keeps_learnt_unit_for_propagation():
    # random 3-SAT at clause ratio 4.26; formula #175 learns a unit on the
    # last conflict of a restart budget, so the restart meets it unpropagated
    rng = random.Random(5)
    for _ in range(176):
        nv = rng.randint(90, 140)
        clauses = [[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), 3)]
                   for _ in range(int(4.26 * nv))]
    solver = _RestartProbe(nv, clauses)
    solver.solve()
    assert (nv, solver.pending_restarts, solver.skipped) == (114, 1, 0)


# The search of the bundled solver on the k = 4 formula as (conflicts,
# decisions, propagations, restarts); a change to these counts is a change
# to the search, not only to its speed.
K4_COUNTERS = (53, 56, 264, 0)


def counters(out):
    return out.conflicts, out.decisions, out.propagations, out.restarts


def test_hand_built_formulas_keep_their_clauses_through_the_stream():
    # repeated literals, tautologies and unit clauses: the stream gives each
    # clause back as it was given, and the solver fed from it searches as it
    # does fed the tuples
    rng = random.Random(2611)
    seen = dict.fromkeys(("repeated", "tautology", "unit", "SAT", "UNSAT"), 0)
    for _ in range(300):
        nv = rng.randint(1, 8)
        clauses = tuple(tuple(rng.choice((v, -v))
                              for v in rng.choices(range(1, nv + 1), k=rng.randint(1, 4)))
                        for _ in range(rng.randint(1, 3 * nv)))
        f = CnfFormula(nv, clauses)
        assert f.clauses == clauses
        assert len(f.literals) == sum(map(len, clauses)) + f.num_clauses
        assert dimacs_read(dimacs_write(f)) == f
        from_stream, from_tuples = Solver(nv, clause_lists(f.literals)), Solver(nv, clauses)
        model = from_stream.solve()
        assert model == from_tuples.solve()
        assert counters(from_stream) == counters(from_tuples)
        seen["SAT" if model else "UNSAT"] += 1
        for clause in clauses:
            seen["repeated"] += len(set(clause)) < len(clause)
            seen["tautology"] += any(-lit in clause for lit in clause)
            seen["unit"] += len(set(clause)) == 1
    assert min(seen.values()) >= 30, seen


def test_solver_build_shares_one_int_per_literal():
    # the k = 6 solver holds 1.96 MB built from the formula's stream or from
    # the blocks `solve` streams; fed the array's items as read, every
    # literal below -5 is an int object of its own, and it held 3.30 MB
    f = cnf_generate(6)
    for stream in (lambda: f.literals, lambda: itertools.chain.from_iterable(
            satgen.copy_clauses(f.num_vars, satgen.doubling_gaps(6))[1])):
        solver, held, _ = _traced(lambda: Solver(f.num_vars, clause_lists(stream())))
        assert len(solver.clauses) == f.num_clauses
        assert held < 2_500_000


def test_bundled_solver_counters_on_k4():
    f = cnf_generate(4)
    solver = Solver(f.num_vars, f.clauses)
    assert solver.solve() is None
    assert (solver.conflicts, solver.decisions, solver.propagations,
            solver.restarts) == K4_COUNTERS
    assert counters(solve_external(f)) == K4_COUNTERS


def test_solve_builds_no_formula(monkeypatch):
    # the clauses go to the solver block by block as they are generated,
    # and a model would be checked against regenerated blocks: no formula
    # and no literal array is made on the way
    def refuse(*args, **kwargs):
        raise AssertionError("solve built a formula or a literal array")

    monkeypatch.setattr(satgen, "copy_formula", refuse)
    monkeypatch.setattr(satgen, "literal_stream", refuse)
    monkeypatch.setattr(CnfFormula, "_unchecked", refuse)
    outcomes = {k: verify_unavoidable(k) for k in (3, 4, 5)}
    assert {out.status for out in outcomes.values()} == {"UNSAT"}
    assert counters(outcomes[4]) == K4_COUNTERS
    assert outcomes[5].conflicts == 1288


def test_default_route_writes_no_dimacs_and_starts_no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the default route must stay in-process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(satgen, "dimacs_write", refuse)
    assert verify_unavoidable(3).status == "UNSAT"


def test_in_process_route_agrees_with_enumeration():
    # every fast path keeps an oracle: `solve_external` against all 2^n
    # assignments
    rng = random.Random(1515)
    outcomes = {"SAT": 0, "UNSAT": 0}
    for _ in range(200):
        nv = rng.randint(1, 10)
        f = CnfFormula(num_vars=nv, clauses=tuple(
            tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1), rng.randint(1, min(4, nv))))
            for _ in range(rng.randint(1, min(40, 4 * nv)))))
        out = solve_external(f)
        expected = "SAT" if brute_sat(nv, f.clauses) else "UNSAT"
        assert out.status == expected
        assert None not in counters(out)
        if out.model is not None:
            red = {v + 1 for v in range(nv) if out.model.is_red(v)}
            assert all(any((abs(l) in red) == (l > 0) for l in c) for c in f.clauses)
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_solver_output_format():
    f = cnf_generate(3)
    half = CnfFormula(num_vars=7, clauses=tuple(c for c in f.clauses if c[0] > 0))
    out = solve_external(half)
    assert out.status == "SAT"
    assert out.model is not None and out.model.n == 7
    # all-red satisfies the positive half too
    all_red = {v: True for v in range(1, 8)}
    assert all(any(all_red[abs(l)] == (l > 0) for l in c) for c in half.clauses)


def test_solve_k3_unsat():
    out = verify_unavoidable(3)
    assert out.status == "UNSAT"
    assert out.model is None
    assert out.solver_time >= 0


def test_minimality_is_two_clause_grained_at_k3():
    # Deleting a single clause keeps the formula unsatisfiable: a model
    # would have exactly one monochromatic copy, and copy counts are
    # always even.  Tightness shows up at pairs: freeing the all-red
    # versions of the two copies {0,1,3} and {0,2,3} admits RRRRBBB.
    f = cnf_generate(3)
    for skip in range(f.num_clauses):
        clauses = [list(c) for i, c in enumerate(f.clauses) if i != skip]
        assert Solver(f.num_vars, clauses).solve() is None
    freed = ({0, 1, 3}, {0, 2, 3})
    drop = {i for i, c in enumerate(f.clauses)
            if c[0] < 0 and set(abs(lit) - 1 for lit in c) in freed}
    assert len(drop) == 2
    clauses = [list(c) for i, c in enumerate(f.clauses) if i not in drop]
    model = Solver(f.num_vars, clauses).solve()
    assert model is not None
    colouring = Colouring(7, sum(1 << (v - 1) for v in range(1, 8) if model[v]))
    witness = detect_bruteforce(colouring, discretize(power_tuple(3)))
    assert witness is not None and set(witness.vertices) in freed


def test_lying_model_is_rejected(monkeypatch, capsys):
    # all red falsifies every negative clause: a model the solver got wrong
    # is an error, never a verdict, on both routes of `forcing`
    monkeypatch.setattr(dimacs_solver.Solver, "solve", lambda self: [False] + [True] * self.nv)
    with pytest.raises(ModelValidationError, match="model falsifies clause"):
        solve_external(cnf_generate(3))
    for argv in (["solve", "--k", "3"], ["nearly-ramsey", "--gaps", "5/8,1/4,1/8", "--n", "8"]):
        assert dispatch(["--json", *argv]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: model falsifies clause")
        assert len(captured.err.splitlines()) == 1


def test_solve_rejects_a_model_holding_a_copy(monkeypatch, capsys):
    # only the clauses forbidding all-red copies: every model of them holds
    # an all-blue copy, which the detector re-check refuses
    real = satgen.copy_clauses

    def negated_half(n, gaps, deadline=None):
        count, blocks = real(n, gaps, deadline)
        return count // 2, itertools.islice(blocks, n, None)

    monkeypatch.setattr(satgen, "copy_clauses", negated_half)
    assert dispatch(["--json", "solve", "--k", "3"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "holds the copy" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_in_process_timeout_returns_unknown():
    # k = 6 takes the bundled solver a few minutes
    started = time.monotonic()
    out = verify_unavoidable(6, timeout=0.3)
    assert out.status == "UNKNOWN"
    assert out.model is None
    assert time.monotonic() - started < 5


class FakeClock:
    """Stands in for `time` in the solver modules: the clock moves only
    when a test moves it, so a deadline test has no wall-clock race."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(satgen, "time", fake)
    monkeypatch.setattr(dimacs_solver, "time", fake)
    return fake


def test_timeout_bounds_building_the_solver(clock, monkeypatch):
    # every clause added takes 1 ms on the fake clock; the deadline at 0.3 s
    # is seen at the next check, after 1024 clauses, and no search starts
    added = []
    real_add = Solver._add_clause

    def add(self, clause):
        added.append(clause)
        clock.now += 0.001
        real_add(self, clause)

    monkeypatch.setattr(Solver, "_add_clause", add)
    monkeypatch.setattr(Solver, "solve", lambda self: pytest.fail("search ran"))
    f = cnf_generate(5)
    out = solve_external(f, timeout=0.3)
    assert out.status == "UNKNOWN" and out.model is None
    assert len(added) == 1024 < f.num_clauses


def test_timeout_bounds_building_the_clause_masks(clock, monkeypatch):
    # 28 clauses, checked before the first only: the deadline passes while
    # they are added, and the masks see it before the first one is built
    real_add = Solver._add_clause

    def add(self, clause):
        clock.now += 1.0
        real_add(self, clause)

    monkeypatch.setattr(Solver, "_add_clause", add)
    f = cnf_generate(3)
    with pytest.raises(TimeoutError, match="clause masks"):
        Solver(f.num_vars, f.clauses, deadline=5.0)


def test_timeout_bounds_generating_the_formula(clock, monkeypatch):
    # every clock read moves the fake clock by 1 s, so the 5 s deadline
    # passes while the solver takes the first blocks of 24 clauses; each
    # block follows one read, so generation sees the deadline at the first
    # block after it, long before the solver's check at clause 1024
    reads, added = [], []
    real_add = Solver._add_clause

    def tick():
        reads.append(clock.now)
        clock.now += 1.0
        return clock.now

    def add(self, clause):
        added.append(clock.now)
        real_add(self, clause)

    monkeypatch.setattr(clock, "monotonic", tick)
    monkeypatch.setattr(Solver, "_add_clause", add)
    monkeypatch.setattr(Solver, "solve", lambda self: pytest.fail("search ran"))
    out = verify_unavoidable(5, timeout=5.0)
    assert out.status == "UNKNOWN" and out.model is None
    deadline = 1.0 + 5.0   # the first read starts the call
    assert 0 < len(added) < 1024 and len(added) % 24 == 0
    assert max(added) <= deadline   # no clause was generated after it passed
    assert len(reads) < 2**5 - 1


def test_timeout_after_the_last_start_vertex_starts_no_search(clock, monkeypatch):
    # the clock passes the 5 s deadline after the check before the last of
    # the 2 * 7 blocks: one read starts the call, one precedes each block
    # and one the solver's first clause, so only the solver's check before
    # its first clause mask can see it
    reads = []

    def tick():
        reads.append(clock.now)
        return 0.0 if len(reads) <= 1 + 2 * 7 + 1 else 10.0

    monkeypatch.setattr(clock, "monotonic", tick)
    monkeypatch.setattr(Solver, "solve", lambda self: pytest.fail("search ran"))
    out = verify_unavoidable(3, timeout=5.0)
    assert out.status == "UNKNOWN" and out.model is None
    assert len(reads) == 1 + 2 * 7 + 1 + 1 + 1   # the last read times the UNKNOWN


@pytest.mark.parametrize("clause, message", [
    ((1, 4), "literal 4 out of range"), ((-4, 2), "literal -4 out of range"),
    ((0, 1), "literal 0 out of range"), ((), "empty clause")])
def test_hand_built_formula_rejects_bad_clauses(clause, message):
    with pytest.raises(ValueError, match=message):
        CnfFormula(num_vars=3, clauses=((1, 2), clause))


def test_timeout_counts_generating_the_formula(clock, monkeypatch):
    # generation that checks no deadline and takes 1 s a block, 14 s for
    # the 2 * 7 blocks: the solver's deadline runs from the start of the
    # call, so its check before the first clause mask sees the 5 s pass
    real_copy_clauses = satgen.copy_clauses

    def slow_copy_clauses(n, gaps, deadline):
        num_clauses, blocks = real_copy_clauses(n, gaps)

        def slow_blocks():
            for block in blocks:
                clock.now += 1.0
                yield block

        return num_clauses, slow_blocks()

    monkeypatch.setattr(satgen, "copy_clauses", slow_copy_clauses)
    monkeypatch.setattr(Solver, "solve", lambda self: pytest.fail("search ran"))
    out = verify_unavoidable(3, timeout=5.0)
    assert out.status == "UNKNOWN" and out.model is None
    assert clock.now == 2 * 7


def test_a_distant_deadline_leaves_the_k4_search_unchanged(clock):
    out = verify_unavoidable(4, timeout=1e9)
    assert out.status == "UNSAT"
    assert counters(out) == K4_COUNTERS
