"""Command-line entry point wiring every checker together.

Exit codes are part of the interface and shared by all subcommands:

  0  success: verified, witness found as expected, or all batch items pass
  1  valid negative verdict (no witness / violation found / sweep exhausted)
  2  usage, input or pipeline error, or internal error (an unexpected
     exception, reported on stderr without a traceback)
  3  refutation: a computation contradicted a published result
  4  unknown (solver timeout)

``--json`` switches to a stable machine-readable output (schema version 1,
sorted keys, no timestamps); the human format is never parsed by tests.

``batch`` runs each sweep item through ``dispatch``, its output discarded,
and reports in spec order.  With W workers (``--parallel``, capped at the
item count and the CPU count, and 1 where ``os.fork`` is missing) worker w
runs items w, w + W, ...: worker 0 is the calling process and the others
are forked children.  Items a crashed child left without an exit code read
2, so a crash is never a verdict; an item that runs ``batch`` itself reads 2
too.  The parser is built once per process, at the first ``dispatch``, and
forked children inherit it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import shlex
import sys
from pathlib import Path
from typing import Sequence

from . import beatty, doubling, majority as majority_mod, robust, satgen, uniform
from .core import (DiscreteInstance, DistanceTuple, RefutationError,
                   parse_colouring, parse_fraction, parse_fraction_list,
                   power_tuple, serialize_colouring)
from .detector import CopyWitness, count_copies, detect_bruteforce, detect_dp

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_REFUTATION = 3
EXIT_UNKNOWN = 4

SCHEMA = 1

#: Largest --max-t a sweep over t accepts, refused above before any work.  A
#: sweep costs min(max_t, q) window searches over 2^k subsets, q the lcm of
#: the denominators, plus an O(max_t) listing of the answers.
MAX_T = 100_000


def _emit(args, payload: dict, human: Sequence[str]) -> None:
    if args.json:
        body = {"schema": SCHEMA, "command": args.command}
        body.update(payload)
        print(json.dumps(body, sort_keys=True, default=str))
    else:
        for line in human:
            print(line)


def _witness_payload(w: CopyWitness) -> dict:
    return {"vertices": list(w.vertices), "gap_order": list(w.gap_order),
            "colour": w.colour}


def _parse_gaps(text: str, n: int) -> DiscreteInstance:
    """Gaps on Z_n given either as integers, which must sum to n, or as a
    fractional tuple, which is scaled onto Z_n."""
    fractions = parse_fraction_list(text)
    if all(f.denominator == 1 for f in fractions):
        gaps = tuple(int(f) for f in fractions)
        inst = DiscreteInstance(n=sum(gaps), gaps=gaps)
        if inst.n != n:
            raise ValueError(f"gaps sum to {inst.n} but the colouring has n={n}")
        return inst
    return DistanceTuple(fractions).on(n)


def _parse_distance_tuple(text: str) -> DistanceTuple:
    return DistanceTuple(parse_fraction_list(text))


def _max_t(args) -> int:
    if args.max_t > MAX_T:
        raise ValueError(f"--max-t {args.max_t} is above the limit {MAX_T}")
    return args.max_t


def _read_restriction(path: str) -> list[tuple[int, ...]]:
    orders = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        orders.append(tuple(int(tok) for tok in line.replace(",", " ").split()))
    if not orders:
        raise ValueError(f"restriction file {path} lists no cyclic orders")
    return orders


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_check(args) -> int:
    if args.count and (args.brute or args.restrict):
        raise ValueError("--count counts every copy: it takes neither --brute nor --restrict")
    c = parse_colouring(Path(args.input).read_text(encoding="utf-8"))
    inst = _parse_gaps(args.gaps, c.n)
    restriction = _read_restriction(args.restrict) if args.restrict else None
    if args.count:
        red, blue = count_copies(c, inst)
        _emit(args, {"red_count": red, "blue_count": blue,
                     "total": red + blue, "n": inst.n},
              [f"red copies: {red}", f"blue copies: {blue}"])
        return EXIT_OK if red + blue else EXIT_NEGATIVE
    if args.brute or restriction is not None:
        witness = detect_bruteforce(c, inst, restriction=restriction)
    else:
        witness = detect_dp(c, inst)
    if witness is None:
        _emit(args, {"witness": None, "n": inst.n}, ["no monochromatic copy"])
        return EXIT_NEGATIVE
    # the witness itself is always printed as JSON, in either output mode
    _emit(args, {"witness": _witness_payload(witness), "n": inst.n},
          [json.dumps(_witness_payload(witness), sort_keys=True)])
    return EXIT_OK


def _cmd_uniform_check(args) -> int:
    max_t = _max_t(args)
    # the failures are the suitable t of the doubling tuple
    failures = list(uniform.suitable_ts(power_tuple(args.k), max_t))
    payload = {"k": args.k, "max_t": args.max_t, "failures": failures}
    if failures:
        _emit(args, payload,
              [f"REFUTATION: no red-window ordering for k={args.k}, "
               f"t in {failures}; this contradicts the published verification"])
        return EXIT_REFUTATION
    _emit(args, payload, [f"all t in [1, {args.max_t}] admit a red copy for k={args.k}"])
    return EXIT_OK


def _cmd_witness_search(args) -> int:
    d = _parse_distance_tuple(args.gaps)
    t = uniform.nonpower_witness(d, _max_t(args))
    payload = {"gaps": [str(x) for x in d.distances], "max_t": args.max_t, "t": t}
    if t is None:
        _emit(args, payload, [f"none (no witness t <= {args.max_t})"])
        return EXIT_NEGATIVE
    _emit(args, payload, [f"t = {t}"])
    return EXIT_OK


def _cmd_beatty_check(args) -> int:
    if args.half and args.betas is not None:
        raise ValueError("--half sets the betas to alphas / 2: it takes no --betas")
    alphas = parse_fraction_list(args.alphas)
    if args.half:
        pair = beatty.BeattyPair.half_shift(alphas)
    elif args.betas:
        pair = beatty.BeattyPair(alphas=alphas, betas=parse_fraction_list(args.betas))
    else:
        raise ValueError("provide --betas or --half")
    verdict = beatty.partition_check(pair, args.limit)
    payload = {"alphas": [str(a) for a in pair.alphas],
               "betas": [str(b) for b in pair.betas],
               "limit": args.limit, "kind": verdict.kind,
               "value": verdict.value,
               "sequences": list(verdict.sequences) if verdict.sequences else None}
    if verdict.ok:
        human = [f"partition of [0, {args.limit}): ok"]
        if args.half:
            # Diagnostics read [0, 2p), which may reach past the limit: a
            # failure there leaves the verdict on [0, limit) as it is.
            try:
                report = beatty.fraenkel_diagnostics(pair, max(args.limit, 2 * pair.common_numerator()))
            except beatty.PartitionError as exc:
                payload["diagnostics"] = None
                human.append(f"no diagnostics: beyond [0, {args.limit}), {exc}")
            else:
                payload["diagnostics"] = {
                    "period_length": report.period_length,
                    "symmetric": report.symmetric,
                    "consecutive_ok": list(report.consecutive_ok),
                    "densities": [str(x) for x in report.densities],
                    "power_flag": report.power_flag,
                    "exact": report.exact,
                }
                human.append(f"period length {report.period_length}, symmetric: {report.symmetric}, "
                             f"densities {[str(x) for x in report.densities]}, "
                             f"power: {report.power_flag}")
        _emit(args, payload, human)
        return EXIT_OK
    if verdict.kind == "collision":
        i, j = verdict.sequences
        _emit(args, payload, [f"collision at value {verdict.value} (sequences {i} and {j})"])
    else:
        _emit(args, payload, [f"gap at value {verdict.value}"])
    return EXIT_NEGATIVE


def _parse_period(text: str) -> beatty.BalancedWord:
    tokens = [tok for tok in text.replace(",", " ").split() if tok]
    if len(tokens) == 1 and not tokens[0].isdigit():
        tokens = list(tokens[0])
    if all(tok.isdigit() for tok in tokens):
        letters = [int(tok) for tok in tokens]
    else:
        letters = [ord(tok) - ord("a") + 1 for tok in tokens]
        if any(not 1 <= s <= 26 for s in letters):
            raise ValueError(f"cannot read period {text!r}: use letters a..z or integers")
    return beatty.BalancedWord(tuple(letters))


def _cmd_balanced_check(args) -> int:
    word = _parse_period(args.period)
    verdict = beatty.balanced_check(word)
    dens = beatty.densities(word)
    payload = {"period": list(word.period), "balanced": verdict.balanced,
               "densities": [str(x) for x in dens],
               "letter": verdict.letter, "window_length": verdict.window_length,
               "positions": list(verdict.positions) if verdict.positions else None}
    if verdict.balanced:
        _emit(args, payload, [f"balanced; densities {[str(x) for x in dens]}"])
        return EXIT_OK
    _emit(args, payload,
          [f"not balanced: letter {verdict.letter} differs by more than 1 over "
           f"windows of length {verdict.window_length} at starts {verdict.positions}"])
    return EXIT_NEGATIVE


def _cmd_doubling(args) -> int:
    if args.xs is not None and (args.k is not None or args.t is not None):
        raise ValueError("--xs gives the orbit: it takes neither --k nor --t")
    if args.xs:
        xs = list(parse_fraction_list(args.xs))
        payload: dict = {"xs": [str(x) for x in xs]}
    else:
        if args.k is None or args.t is None:
            raise ValueError("provide either --xs or both --k and --t")
        xs = doubling.orbit_from_uniform(args.k, args.t)
        payload = {"k": args.k, "t": args.t, "xs": [str(x) for x in xs.xs]}
    pi = doubling.prefix_permutation(xs)
    payload["permutation"] = list(pi) if pi else None
    if pi is None:
        _emit(args, payload, ["none"])
        return EXIT_NEGATIVE
    _emit(args, payload, [" ".join(map(str, pi))])
    return EXIT_OK


def _cmd_suitable(args) -> int:
    d = _parse_distance_tuple(args.gaps)
    suitable, strong = uniform.suitability(d, args.t)
    payload = {"gaps": [str(x) for x in d.distances], "t": args.t,
               "suitable": suitable}
    human = [f"t = {args.t} suitable: {suitable}"]
    if d.k == 3:
        payload["strongly_suitable"] = strong
        human.append(f"strongly suitable: {strong}")
    _emit(args, payload, human)
    return EXIT_OK if suitable else EXIT_NEGATIVE


def _cmd_suitable_search(args) -> int:
    d = _parse_distance_tuple(args.gaps)
    t = robust.strongly_suitable_search(d, _max_t(args))
    t_set_empty = robust.t_set_empty(d)
    payload = {"gaps": [str(x) for x in d.distances], "max_t": args.max_t,
               "t": t, "t_set_empty": t_set_empty}
    if t is not None:
        _emit(args, payload, [f"t = {t}"])
        return EXIT_OK
    if t_set_empty:
        _emit(args, payload, ["none: T empty (a distance has denominator 2, "
                             "which divides every 2t)"])
    else:
        _emit(args, payload, [f"none (searched T up to t = {args.max_t})"])
    return EXIT_NEGATIVE


def _cmd_nearly_ramsey(args) -> int:
    d = _parse_distance_tuple(args.gaps)
    result = robust.nearly_ramsey_finite_check(d, args.n)
    payload = {"gaps": [str(x) for x in d.distances], "n": args.n,
               "verified": result.verified,
               "colourings_checked": result.colourings_checked}
    if result.verified:
        _emit(args, payload,
              [f"verified over all {result.colourings_checked} colourings of "
               f"Z_{args.n} with vertex 0 black"])
        return EXIT_OK
    payload["counterexample"] = serialize_colouring(result.counterexample)
    if robust.is_claimed_nearly_ramsey(d):
        # for these triples the forcing argument covers every fitting N
        _emit(args, payload,
              ["REFUTATION: colouring with no copy avoiding a colour:",
               serialize_colouring(result.counterexample).rstrip()])
        return EXIT_REFUTATION
    _emit(args, payload,
          ["not forced: a colouring avoids both colours, e.g.",
           serialize_colouring(result.counterexample).rstrip()])
    return EXIT_NEGATIVE


def _cmd_majority(args) -> int:
    params = majority_mod.MajorityParams(k=args.k, eps=parse_fraction(args.eps))
    verdict = majority_mod.majority_verify(params)
    if args.emit:
        c = majority_mod.majority_colouring(params, verdict.grid)
        Path(args.emit).write_text(serialize_colouring(c), encoding="utf-8")
    payload = {"k": args.k, "eps": str(params.eps), "grid": verdict.grid,
               "density_gap": str(verdict.density_gap),
               "no_red_copy": verdict.no_red_copy,
               "witness": _witness_payload(verdict.witness) if verdict.witness else None}
    if verdict.no_red_copy:
        _emit(args, payload,
              [f"no red copy on grid {verdict.grid}; red denser by {verdict.density_gap}"])
        return EXIT_OK
    _emit(args, payload,
          [f"REFUTATION: red copy found at vertices {list(verdict.witness.vertices)}"])
    return EXIT_REFUTATION


def _cmd_cnf(args) -> int:
    # k is refused before the output is opened, and the output is opened
    # before any clause is built; the clauses go out a start vertex at a time
    gaps = satgen.doubling_gaps(args.k)
    n = sum(gaps)
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="utf-8")) as out:
        num_clauses, blocks = satgen.copy_clauses(n, gaps)
        out.writelines(satgen.dimacs_text(n, num_clauses, blocks, (f"k = {args.k}",)))
    if args.out != "-" and not args.json:
        print(f"wrote {n} variables, {num_clauses} clauses to {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    outcome = satgen.verify_unavoidable(args.k, timeout=args.timeout)
    payload = {"k": args.k, "status": outcome.status,
               "model": serialize_colouring(outcome.model) if outcome.model else None}
    if outcome.status == "UNSAT":
        _emit(args, payload, [f"UNSAT: every colouring of the {2**args.k - 1}-gon "
                             "contains a monochromatic copy"])
        return EXIT_OK
    if outcome.status == "SAT":
        _emit(args, payload, ["REFUTATION: counterexample colouring found:",
                             serialize_colouring(outcome.model).rstrip()])
        return EXIT_REFUTATION
    _emit(args, payload, ["unknown (solver timeout)"])
    return EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# batch runner

def _parse_sweep(path: Path) -> list[tuple[int, list[str]]]:
    items = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = shlex.split(line)
        try:
            expected = int(tokens[0])
        except (ValueError, IndexError):
            raise ValueError(f"{path}:{lineno}: expected '<exit-code> <args...>'") from None
        if not tokens[1:]:
            raise ValueError(f"{path}:{lineno}: missing subcommand")
        items.append((expected, tokens[1:]))
    return items


def _run_sweep_item(argv: list[str], spec_dir: Path) -> int:
    resolved = [str(spec_dir / arg[2:]) if arg.startswith("@/") else arg
                for arg in argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return dispatch(resolved, in_batch=True)


def _fan_out(run, items: list, workers: int) -> list[int]:
    """Exit codes of `run` over `items`, in order.  Worker w runs
    items[w::workers]: worker 0 is this process, the others forked children
    that write one byte per finished item to their own pipe.  An item a
    crashed child left without a code reads EXIT_ERROR."""
    codes = [EXIT_ERROR] * len(items)
    # a child must not inherit, and so maybe write again, buffered output
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_fd)
                    for item in items[w::workers]:
                        os.write(write_fd, bytes([run(item)]))
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        codes[::workers] = map(run, items[::workers])
        for w, (_, pipe) in enumerate(children, start=1):
            done = pipe.read()
            codes[w:w + workers * len(done):workers] = done
    finally:
        for pid, pipe in children:
            pipe.close()   # a child still writing gets EPIPE and leaves
            os.waitpid(pid, 0)
    return codes


def _cmd_batch(args) -> int:
    spec_path = Path(args.spec)
    items = _parse_sweep(spec_path)
    spec_dir = spec_path.resolve().parent
    # Worker processes, not threads: stdout redirection is process-global.
    workers = max(1, min(args.parallel, len(items), os.cpu_count() or 1))
    if not hasattr(os, "fork"):
        workers = 1
    results = _fan_out(lambda argv: _run_sweep_item(argv, spec_dir),
                       [argv for _, argv in items], workers)
    report_items = []
    passed = 0
    saw_error = False
    for (expected, argv), actual in zip(items, results):
        ok = actual == expected
        passed += ok
        if not ok and actual == EXIT_ERROR:
            saw_error = True
        report_items.append({"argv": argv, "expected": expected,
                             "actual": actual, "pass": ok})
    report = {"schema": SCHEMA, "command": "batch", "total": len(items),
              "passed": passed, "failed": len(items) - passed,
              "items": report_items}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    if args.json or not args.report:
        sys.stdout.write(text)
    else:
        print(f"{passed}/{len(items)} passed")
    if passed == len(items):
        return EXIT_OK
    return EXIT_ERROR if saw_error else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser and dispatch

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:   # also refuses nan
        raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
    return value


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """Built once, at the first `dispatch`; no action holds a mutable default."""
    parser = argparse.ArgumentParser(
        prog="ramsey-circle",
        description="Exact verification toolkit for Ramsey distance tuples "
                    "on the unit circle.")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--parallel", type=_positive_int, default=1,
                        help="batch workers: this process and forked children "
                             "(at least 1; capped at the item count and the CPU "
                             "count)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="search a colouring for a monochromatic copy")
    p.add_argument("--input", required=True, help="colouring file")
    p.add_argument("--gaps", required=True, help="fractions 4/7,2/7,1/7 or integers 4,2,1")
    p.add_argument("--brute", action="store_true",
                   help="use the brute-force detector (implied by --restrict)")
    p.add_argument("--restrict", help="file of allowed cyclic gap orders")
    p.add_argument("--count", action="store_true", help="count monochromatic copies per colour")

    p = sub.add_parser("uniform-check", help="red-window orderings for the doubling tuple")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-t", type=_positive_int, required=True)

    p = sub.add_parser("witness-search", help="smallest t whose uniform colouring avoids a tuple")
    p.add_argument("--gaps", required=True)
    p.add_argument("--max-t", type=_positive_int, required=True)

    p = sub.add_parser("beatty-check", help="bounded partition check for Beatty sequences")
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas")
    p.add_argument("--half", action="store_true", help="use betas = alphas / 2")
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("balanced-check", help="balance condition of a periodic word")
    p.add_argument("--period", required=True, help="e.g. a,b,a,c,a,b,a or 1,2,1,3,1,2,1")

    p = sub.add_parser("doubling", help="prefix-balanced ordering of a doubling orbit")
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--xs", help="explicit values, e.g. 3/5,3/5,3/5,-9/10,-9/10")

    p = sub.add_parser("suitable", help="does c_t avoid monochromatic copies of a triple")
    p.add_argument("--gaps", required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("suitable-search", help="smallest strongly-suitable t in T")
    p.add_argument("--gaps", required=True)
    p.add_argument("--max-t", type=_positive_int, required=True)

    p = sub.add_parser("nearly-ramsey", help="decide every colouring of Z_n with a black vertex")
    p.add_argument("--gaps", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("majority", help="verify the denser-red colouring has no red copy")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", required=True, help="exact fraction, e.g. 1/100")
    p.add_argument("--emit", help="write the discretised colouring to a file")

    p = sub.add_parser("cnf", help="write the DIMACS formula for k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="output path, or - for stdout")

    p = sub.add_parser("solve", help="solve the formula for k with the bundled solver")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--timeout", type=_positive_seconds, help="seconds before giving up")

    p = sub.add_parser("batch", help="run a sweep spec and report pass/fail")
    p.add_argument("spec", help="line-oriented file: <expected-exit> <args...>")
    p.add_argument("--report", help="write the JSON report to this path")

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "uniform-check": _cmd_uniform_check,
    "witness-search": _cmd_witness_search,
    "beatty-check": _cmd_beatty_check,
    "balanced-check": _cmd_balanced_check,
    "doubling": _cmd_doubling,
    "suitable": _cmd_suitable,
    "suitable-search": _cmd_suitable_search,
    "nearly-ramsey": _cmd_nearly_ramsey,
    "majority": _cmd_majority,
    "cnf": _cmd_cnf,
    "solve": _cmd_solve,
    "batch": _cmd_batch,
}


def dispatch(argv: Sequence[str], *, in_batch: bool = False) -> int:
    """The exit code of one command line; `in_batch` marks a batch item,
    whose own `batch` is refused before it reads a spec or forks."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        if in_batch and args.command == "batch":
            raise ValueError("a batch item cannot run batch")
        return _HANDLERS[args.command](args)
    except RefutationError as exc:
        print(f"REFUTATION: {exc}", file=sys.stderr)
        return EXIT_REFUTATION
    except (ValueError, OSError, satgen.ModelValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # an unexpected exception must never read as a verdict (exit 1 is one)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
