"""CLI dispatch, exit codes, JSON stability, and the batch runner."""

import argparse
import concurrent.futures
import hashlib
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from _reference import prefix_order, run_sweep_item_in_subprocess, uniform_grid_copy
from ramsey_circle import beatty, cli, majority, robust, satgen, uniform
from ramsey_circle.cli import (EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK,
                               EXIT_REFUTATION, MAX_T, dispatch)
from ramsey_circle.core import DistanceTuple, power_tuple
from ramsey_circle.satgen import dimacs_read
from ramsey_circle.uniform import residue_check, uniform_steps

SWEEP_DIR = Path(__file__).resolve().parent.parent / "sweeps"


@pytest.fixture
def split7(tmp_path):
    path = tmp_path / "split7.txt"
    path.write_text("7\nRRRRBBB\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def split6(tmp_path):
    path = tmp_path / "split6.txt"
    path.write_text("6\nRRRBBB\n", encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = dispatch(["--json", *argv])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_check_witness_found(capsys, split7):
    code, body = run_json(capsys, ["check", "--input", split7, "--gaps", "4/7,2/7,1/7"])
    assert code == EXIT_OK
    assert body["schema"] == 1 and body["command"] == "check"
    assert body["witness"] == {"vertices": [0, 1, 3], "gap_order": [1, 2, 4],
                               "colour": "Red"}


def test_check_integer_gaps_and_detector_flags(capsys, split7):
    for flags in ([], ["--brute"]):
        code, body = run_json(capsys, ["check", "--input", split7,
                                       "--gaps", "4,2,1", *flags])
        assert code == EXIT_OK
        assert body["witness"]["vertices"] == [0, 1, 3]


def test_check_has_no_second_spelling_of_the_default_detector(capsys, split7):
    assert dispatch(["check", "--input", split7, "--gaps", "4,2,1", "--dp"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --dp" in captured.err


def test_check_no_witness(capsys, split6):
    # {3} and {2, 1} share a sum: every detector choice still gives a verdict
    for flags in ([], ["--brute"]):
        code, body = run_json(capsys, ["check", "--input", split6, "--gaps", "3,2,1", *flags])
        assert code == EXIT_NEGATIVE
        assert body["witness"] is None


def test_check_count_mode(capsys, split7):
    code, body = run_json(capsys, ["check", "--input", split7,
                                   "--gaps", "4,2,1", "--count"])
    assert code == EXIT_OK
    assert (body["red_count"], body["blue_count"]) == (2, 0)


def test_check_restriction_file(capsys, split7, tmp_path):
    restrict = tmp_path / "orders.txt"
    restrict.write_text("4,2,1\n", encoding="utf-8")
    code, body = run_json(capsys, ["check", "--input", split7, "--gaps", "4,2,1",
                                   "--restrict", str(restrict)])
    assert code == EXIT_OK


@pytest.mark.parametrize("flag", ["--brute", "--count", "--restrict"])
def test_check_brute_force_above_the_budget_is_refused(capsys, tmp_path, flag):
    # 9 distinct gaps on Z_45: 362880 gap orders, 1814400 copies
    restrict = tmp_path / "orders.txt"
    restrict.write_text("1,2,3,4,5,6,7,8,9\n", encoding="utf-8")
    extra = [flag, str(restrict)] if flag == "--restrict" else [flag]
    colouring = SWEEP_DIR / "colourings" / "alternating_45.txt"
    started = time.perf_counter()
    code = dispatch(["--json", "check", "--input", str(colouring),
                     "--gaps", "9,8,7,6,5,4,3,2,1", *extra])
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1814400 copies of 362880 gap orders are above the brute-force budget" in captured.err


def test_check_brute_force_plan_above_the_budget_is_refused(capsys, tmp_path):
    # (3, 2) and 998 ones on Z_1003: 999000 orders give 1001997 copies, within
    # the budget, but a plan of 999000000 gap slots
    colouring = tmp_path / "red_1003.txt"
    colouring.write_text("1003\n" + "R" * 1003 + "\n", encoding="utf-8")
    started = time.perf_counter()
    code = dispatch(["--json", "check", "--input", str(colouring),
                     "--gaps", ",".join(["3", "2"] + ["1"] * 998), "--brute"])
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("999000000 plan slots of 999000 gap orders are above the brute-force budget"
            in captured.err)


def test_check_count_refuses_a_thousand_repeated_gaps_in_one_short_line(capsys, tmp_path):
    # (3, 2) and 998 ones on Z_1003: the gap tuple alone is about 3000 characters
    colouring = tmp_path / "red_1003.txt"
    colouring.write_text("1003\n" + "R" * 1003 + "\n", encoding="utf-8")
    code = dispatch(["check", "--input", str(colouring),
                     "--gaps", ",".join(["3", "2"] + ["1"] * 998), "--count"])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "got 1000 gaps in which 1 appears 998 times" in captured.err
    assert len(captured.err) < 200


def test_check_answers_eight_hundred_repeated_gaps(capsys, tmp_path):
    # 401 * 401 sub-multiset states: within the detector budget
    colouring = tmp_path / "red_1200.txt"
    colouring.write_text("1200\n" + "R" * 1200 + "\n", encoding="utf-8")
    code, body = run_json(capsys, ["check", "--input", str(colouring),
                                   "--gaps", ",".join(["2"] * 400 + ["1"] * 400)])
    assert code == EXIT_OK
    assert body["witness"]["gap_order"] == [1] * 400 + [2] * 400


def test_check_dimension_mismatch_is_usage_error(capsys, split7):
    code = dispatch(["check", "--input", split7, "--gaps", "3,2,1"])
    assert code == EXIT_ERROR


@pytest.mark.parametrize("text, message", [
    ("", "empty colouring file (line 1)"),
    ("seven\nRRR\n", "expected vertex count, got 'seven' (line 1)"),
    ("7\n", "missing colour line (line 2)"),
    ("3\nRRB\nblack x\n", "expected 'black <index>', got 'black x' (line 3)"),
    ("3\nRRB\nblack 3\n", "black index 3 out of range [0, 3) (line 3)"),
    ("3\nRRB\nblack 0\nRRB\n", "unexpected trailing content (line 4)"),
], ids=["empty", "count", "no-colours", "black-line", "black-index", "trailing"])
def test_malformed_colouring_file_is_usage_error(capsys, tmp_path, text, message):
    path = tmp_path / "colouring.txt"
    path.write_text(text, encoding="utf-8")
    assert dispatch(["check", "--input", str(path), "--gaps", "1,1,1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, module, name, stand_in, verdict", [
    (["solve", "--k", "3"], satgen, "doubling_gaps", lambda k: (5, 1, 1),
     {"status": "SAT", "model": "7\nBBRBBRR\n"}),
    (["nearly-ramsey", "--gaps", "1/3,1/3,1/3", "--n", "30"], robust,
     "is_claimed_nearly_ramsey", lambda d: True,
     {"verified": False, "counterexample": "30\nB" + "R" * 10 + "B" * 19 + "\nblack 0\n"}),
    (["majority", "--k", "6", "--eps", "1/112"], majority, "find_copy_in_class",
     lambda mask, n, gaps: ((0, 1, 3), (1, 2, 4)),
     {"no_red_copy": False, "witness": {"vertices": [0, 1, 3], "gap_order": [1, 2, 4],
                                        "colour": "Red"}}),
], ids=["solve", "nearly-ramsey", "majority"])
def test_a_broken_claim_is_a_refutation(capsys, monkeypatch, argv, module, name, stand_in,
                                        verdict):
    # one stand-in breaks each claim: a SAT doubling formula (here of the
    # tuple (5, 1, 1)), a counterexample to a triple claimed nearly Ramsey
    # (the real one on Z_30), a red copy on the majority grid
    monkeypatch.setattr(module, name, stand_in)
    code, body = run_json(capsys, argv)
    assert code == EXIT_REFUTATION
    assert body == {**body, "command": argv[0], **verdict}
    assert dispatch(argv) == EXIT_REFUTATION
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("REFUTATION: ")
    assert sum(line.startswith("REFUTATION") for line in lines) == 1


def test_a_refutation_raised_by_a_command_exits_3(capsys, monkeypatch):
    # a uniform colouring free of the doubling tuple contradicts the
    # verified small cases, so `nonpower_witness` raises and `dispatch`
    # reports it on stderr
    monkeypatch.setattr(uniform, "suitable_ts", lambda d, max_t, strong=False: iter([1]))
    argv = ["witness-search", "--gaps", "4/7,2/7,1/7", "--max-t", "5"]
    for json_flag in (["--json"], []):
        assert dispatch([*json_flag, *argv]) == EXIT_REFUTATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("REFUTATION: uniform colouring c_1 contains no "
                                       "monochromatic copy of the k=3 doubling tuple")
        assert len(captured.err.splitlines()) == 1


def test_missing_file_is_usage_error(capsys):
    assert dispatch(["check", "--input", "no-such.txt", "--gaps", "4,2,1"]) == EXIT_ERROR


def test_unknown_flag_is_usage_error():
    assert dispatch(["check", "--nope"]) == EXIT_ERROR


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def crash(pair, M):
        raise MemoryError("simulated")

    monkeypatch.setattr("ramsey_circle.beatty.partition_check", crash)
    code = dispatch(["beatty-check", "--alphas", "2,3,6", "--half", "--limit", "100"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("internal error: MemoryError")
    assert "Traceback" not in err


def test_uniform_check(capsys):
    code, body = run_json(capsys, ["uniform-check", "--k", "3", "--max-t", "14"])
    assert code == EXIT_OK
    assert body["failures"] == []


def uniform_check_by_t(k, max_t, failed):
    """What uniform-check prints and returns, from a per-t loop: the JSON
    line, the human line and the exit code."""
    failures = [t for t in range(1, max_t + 1) if failed(t)]
    body = {"command": "uniform-check", "failures": failures, "k": k,
            "max_t": max_t, "schema": 1}
    if failures:
        human = (f"REFUTATION: no red-window ordering for k={k}, t in {failures}; "
                 "this contradicts the published verification")
        return json.dumps(body, sort_keys=True), human, EXIT_REFUTATION
    human = f"all t in [1, {max_t}] admit a red copy for k={k}"
    return json.dumps(body, sort_keys=True), human, EXIT_OK


def assert_uniform_check_matches(capsys, k, max_t, failed):
    expected_json, expected_human, expected_code = uniform_check_by_t(k, max_t, failed)
    argv = ["uniform-check", "--k", str(k), "--max-t", str(max_t)]
    assert dispatch(["--json", *argv]) == expected_code
    assert capsys.readouterr().out == expected_json + "\n"
    assert dispatch(argv) == expected_code
    assert capsys.readouterr().out == expected_human + "\n"


def test_uniform_check_matches_a_per_t_residue_loop(capsys):
    # one period of verdicts, repeated, answers as residue_check at every t
    for k in range(3, 9):
        q = 2**k - 1
        for max_t in (1, q - 1, q, q + 1, 3 * q + 2):
            assert_uniform_check_matches(capsys, k, max_t,
                                         lambda t: residue_check(k, t) is None)


def test_uniform_check_repeats_an_injected_failure_by_period(capsys, monkeypatch):
    import ramsey_circle.uniform as umod
    per_t = umod.suitability

    def fake(d, t):
        # pretend c_t has no copy at t = 2, 5 mod 7: a verdict of period 7
        return (True, True) if t % 7 in (2, 5) else per_t(d, t)

    monkeypatch.setattr(umod, "suitability", fake)
    d = power_tuple(3)
    for max_t in (1, 2, 6, 7, 8, 9, 23, 100):
        assert_uniform_check_matches(capsys, 3, max_t, lambda t: fake(d, t)[0])


@pytest.mark.parametrize("argv, message", [
    (["uniform-check", "--k", "3", "--max-t", "-3"], "must be at least 1, got -3"),
    (["uniform-check", "--k", "2", "--max-t", "0"], "must be at least 1, got 0"),
    (["witness-search", "--gaps", "4/7,2/7,1/7", "--max-t", "0"], "must be at least 1, got 0"),
    (["suitable-search", "--gaps", "2/5,2/5,1/5", "--max-t", "-1"], "must be at least 1, got -1"),
    (["witness-search", "--gaps", "4/7,2/7,1/7", "--max-t", "x"], "invalid int value: 'x'"),
])
def test_vacuous_sweeps_are_refused(capsys, argv, message):
    for json_flag in ([], ["--json"]):
        assert dispatch([*json_flag, *argv]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --max-t: {message}\n")


def test_uniform_check_refuses_a_bad_k_before_the_sweep(capsys, monkeypatch):
    import ramsey_circle.uniform as umod

    def never(*args):
        raise AssertionError("a t was decided for an invalid k")

    monkeypatch.setattr(umod, "suitability", never)
    assert dispatch(["uniform-check", "--k", "2", "--max-t", "5"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be >= 3, got 2\n"


def test_witness_search(capsys):
    code, body = run_json(capsys, ["witness-search", "--gaps", "1/2,1/3,1/6",
                                   "--max-t", "10"])
    assert code == EXIT_OK and body["t"] == 1
    code, body = run_json(capsys, ["witness-search", "--gaps", "4/7,2/7,1/7",
                                   "--max-t", "10"])
    assert code == EXIT_NEGATIVE and body["t"] is None


def test_beatty_check_collision(capsys):
    code, body = run_json(capsys, ["beatty-check", "--alphas", "2,3,6",
                                   "--half", "--limit", "100"])
    assert code == EXIT_NEGATIVE
    assert body["kind"] == "collision"
    assert body["value"] == 1 and body["sequences"] == [1, 2]


def test_beatty_check_power_pair_with_diagnostics(capsys):
    code, body = run_json(capsys, ["beatty-check", "--alphas", "7/4,7/2,7",
                                   "--half", "--limit", "1000"])
    assert code == EXIT_OK
    assert body["diagnostics"]["period_length"] == 7
    assert body["diagnostics"]["power_flag"] is True


def test_beatty_check_failure_past_the_limit_keeps_the_verdict(capsys):
    # [0, 1) is partitioned, but the diagnostics window [0, 2p) = [0, 6)
    # has a gap at 1: the verdict stays ok and the diagnostics are null
    argv = ["beatty-check", "--alphas", "3/2", "--half", "--limit", "1"]
    code, body = run_json(capsys, argv)
    assert code == EXIT_OK
    assert body["kind"] == "ok" and body["diagnostics"] is None
    assert dispatch(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "partition of [0, 1): ok",
        "no diagnostics: beyond [0, 1), value 1 is hit by no sequence"]
    assert captured.err == ""


def test_beatty_diagnostics_above_the_period_limit_are_refused(capsys):
    # [0, 10) is partitioned, but the diagnostics would build a word of
    # 2p = 40000006 owners
    argv = ["--json", "beatty-check", "--alphas", "20000003/20000002", "--half",
            "--limit", "10"]
    started = time.perf_counter()
    assert dispatch(argv) == EXIT_ERROR
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "40000006 owners are above the word limit 2000000" in captured.err


def test_beatty_diagnostics_period_limit_is_inclusive(capsys, monkeypatch):
    # p = 7: the marked prefix has V0 + p = 11 owners, the diagnostics' word 14
    argv = ["beatty-check", "--alphas", "7/4,7/2,7", "--half", "--limit", "1000"]
    monkeypatch.setattr(beatty, "MAX_WORD_LENGTH", 14)
    code, body = run_json(capsys, argv)
    assert code == EXIT_OK and body["diagnostics"]["period_length"] == 7
    monkeypatch.setattr(beatty, "MAX_WORD_LENGTH", 13)
    assert dispatch(argv) == EXIT_ERROR


@pytest.mark.parametrize("limit", ["2000005", "1000000000000000000"])
def test_beatty_marking_above_the_word_limit_is_refused(capsys, limit):
    # p = 20000003: the verdict would mark min(limit, V0 + p) owners
    argv = ["--json", "beatty-check", "--alphas", "20000003/20000002", "--half",
            "--limit", limit]
    started = time.perf_counter()
    assert dispatch(argv) == EXIT_ERROR
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above the word limit 2000000" in captured.err


def test_beatty_word_limit_is_inclusive(monkeypatch):
    pair = beatty.power_pair(3)
    monkeypatch.setattr(beatty, "MAX_WORD_LENGTH", 11)
    assert beatty.partition_check(pair, 10**18).ok   # V0 + p = 4 + 7 owners
    assert len(beatty.word_from_pair(pair, 11)) == 11
    with pytest.raises(ValueError, match="12 owners are above the word limit 11"):
        beatty.word_from_pair(pair, 12)
    monkeypatch.setattr(beatty, "MAX_WORD_LENGTH", 10)
    with pytest.raises(ValueError, match="11 owners are above the word limit 10"):
        beatty.partition_check(pair, 10**18)


def test_balanced_check(capsys):
    code, body = run_json(capsys, ["balanced-check", "--period", "a,b,a,c,a,b,a"])
    assert code == EXIT_OK and body["balanced"] is True
    code, body = run_json(capsys, ["balanced-check", "--period", "1,1,2,2"])
    assert code == EXIT_NEGATIVE and body["letter"] == 1


@pytest.mark.parametrize("period", ["111111111", "1,2,31333221333112", "0,1", "2,3"])
def test_balanced_check_refuses_letters_not_contiguous_from_one(capsys, period):
    # one digit run is one letter: 111111111 must not build a set of 10^8 letters
    started = time.perf_counter()
    assert dispatch(["--json", "balanced-check", "--period", period]) == EXIT_ERROR
    assert time.perf_counter() - started < 1.0
    assert "letters must be contiguous from 1" in capsys.readouterr().err


def test_doubling_from_kt(capsys):
    code, body = run_json(capsys, ["doubling", "--k", "3", "--t", "1"])
    assert code == EXIT_OK
    assert body["permutation"] == [1, 2, 3]
    assert body["xs"] == ["2/7", "4/7", "-6/7"]


@pytest.mark.parametrize("argv, key, expected", [
    (["doubling", "--k", "1000", "--t", "1"], "permutation", list(range(1, 1001))),
    (["uniform-check", "--k", "1200", "--max-t", "1"], "failures", []),
])
def test_a_thousand_step_window_search_answers(capsys, argv, key, expected):
    # the search keeps one frame per placed step, not one Python call
    assert dispatch(["--json", *argv]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)[key] == expected


@pytest.mark.parametrize("k, t, xs", [
    (4, 5, ["2/3", "-2/3", "2/3", "-2/3"]),
    (3, 7, ["0", "0", "0"]),
])
def test_doubling_prints_reduced_orbit(capsys, k, t, xs):
    code, body = run_json(capsys, ["doubling", "--k", str(k), "--t", str(t)])
    assert code == EXIT_OK
    assert body["xs"] == xs


small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0, 8), t=st.integers(-2, 600),
       xs=st.lists(small_fraction, min_size=1, max_size=6),
       balance=st.booleans(), by_orbit=st.booleans())
def test_doubling_random_inputs(k, t, xs, balance, by_orbit):
    if balance:
        xs = xs + [-sum(xs)]
    argv = (["--k", str(k), "--t", str(t)] if by_orbit
            else ["--xs=" + ",".join(map(str, xs))])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(["--json", "doubling", *argv])
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_ERROR)
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == EXIT_ERROR:
        return
    body = json.loads(out.getvalue())
    if by_orbit:
        m = 2**(k + 1) - 2
        jumps = [2**(i + 1) * t % m for i in range(k)]
        values = [F(j if j < 2**k - 1 else j - m, 2**k - 1) for j in jumps]
        assert body["xs"] == [str(x) for x in values]
    else:
        values = xs
    pi = prefix_order(values)
    assert body["permutation"] == (list(pi) if pi else None)
    assert code == (EXIT_OK if pi else EXIT_NEGATIVE)


def test_doubling_counterexample(capsys):
    code, body = run_json(capsys, ["doubling", "--xs", "3/5,3/5,3/5,-9/10,-9/10"])
    assert code == EXIT_NEGATIVE and body["permutation"] is None


def test_doubling_nonzero_sum_is_error(capsys):
    assert dispatch(["doubling", "--xs", "1/2,1/4"]) == EXIT_ERROR


def test_suitable(capsys):
    code, body = run_json(capsys, ["suitable", "--gaps", "1/3,1/3,1/3", "--t", "1"])
    assert code == EXIT_OK and body["suitable"] and body["strongly_suitable"]
    code, body = run_json(capsys, ["suitable", "--gaps", "4/7,2/7,1/7", "--t", "1"])
    assert code == EXIT_NEGATIVE


def test_suitable_queries_the_kernel_once(capsys, monkeypatch):
    # the suitability verdict is one window search, and the strong verdict
    # reuses it
    import ramsey_circle.uniform as umod
    calls = []
    search = umod.window_order

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(umod, "window_order", counted)
    code = dispatch(["--json", "suitable", "--gaps", "4/7,2/7,1/7", "--t", "1"])
    assert code == EXIT_NEGATIVE and len(calls) == 1
    assert capsys.readouterr().out == (
        '{"command": "suitable", "gaps": ["4/7", "2/7", "1/7"], "schema": 1, '
        '"strongly_suitable": false, "suitable": false, "t": 1}\n')


@pytest.mark.parametrize("argv", [
    ["majority", "--k", "6", "--eps", "1000003/100000000"],   # grid 6300000000
])
def test_grid_above_the_budget_is_refused_before_any_work(capsys, monkeypatch, argv):
    import ramsey_circle.majority as mmod

    def never(*args):
        raise AssertionError("the kernel ran on a refused grid")

    monkeypatch.setattr(mmod, "find_copy_in_class", never)
    for json_flag in ([], ["--json"]):
        assert dispatch([*json_flag, *argv]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: grid "), lines


def test_suitable_answers_at_any_t_as_the_grid_oracle_does(capsys):
    # t = 6000000 needs a grid of 12000000 vertices, but its steps are those
    # of t = 6 (all 0), where the grid kernel finds a copy in c_t
    d = DistanceTuple((F(1, 2), F(1, 3), F(1, 6)))
    assert uniform_steps((3, 2, 1), 6_000_000) == uniform_steps((3, 2, 1), 6) == (0, 0, 0)
    assert uniform_grid_copy(d, 6) is not None
    code, body = run_json(capsys, ["suitable", "--gaps", "1/2,1/3,1/6", "--t", "6000000"])
    assert code == EXIT_NEGATIVE
    assert body == {"command": "suitable", "gaps": ["1/2", "1/3", "1/6"], "schema": 1,
                    "strongly_suitable": False, "suitable": False, "t": 6_000_000}


@pytest.mark.parametrize("command, gaps", [
    ("uniform-check", ["--k", "3"]),
    ("witness-search", ["--gaps", "4/7,2/7,1/7"]),
    ("suitable-search", ["--gaps", "2/5,2/5,1/5"]),
])
def test_max_t_above_the_limit_is_refused_before_any_work(capsys, monkeypatch, command, gaps):
    import ramsey_circle.uniform as umod

    def never(*args):
        raise AssertionError("a window search ran on a refused sweep")

    monkeypatch.setattr(umod, "window_order", never)
    for json_flag in ([], ["--json"]):
        assert dispatch([*json_flag, command, *gaps, "--max-t", str(MAX_T + 1)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-t {MAX_T + 1} is above the limit {MAX_T}\n"


def test_suitable_search_t_empty(capsys):
    code, body = run_json(capsys, ["suitable-search", "--gaps", "1/2,1/3,1/6",
                                   "--max-t", "50"])
    assert code == EXIT_NEGATIVE
    assert body["t_set_empty"] is True and body["t"] is None


def test_nearly_ramsey(capsys):
    code, body = run_json(capsys, ["nearly-ramsey", "--gaps", "5/8,1/4,1/8",
                                   "--n", "8"])
    assert code == EXIT_OK and body["verified"]
    assert body["colourings_checked"] == 128


def test_nearly_ramsey_above_the_limit_is_refused_before_any_work(capsys, monkeypatch):
    from ramsey_circle import robust, satgen

    def never(*args):
        raise AssertionError("the clauses were generated")

    monkeypatch.setattr(satgen, "copy_clauses", never)
    for json_flag in ([], ["--json"]):
        argv = [*json_flag, "nearly-ramsey", "--gaps", "1/2,1/4,1/4", "--n", "260"]
        assert dispatch(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: N = 260 is above the limit {robust.MAX_N}\n"


def test_nearly_ramsey_unclaimed_counterexample_is_negative(capsys):
    # (1/3, 1/3, 1/3) is not among the forced triples: plain negative
    code, body = run_json(capsys, ["nearly-ramsey", "--gaps", "1/3,1/3,1/3",
                                   "--n", "6"])
    assert code == EXIT_NEGATIVE
    assert body["verified"] is False and body["counterexample"]


def test_majority(capsys, tmp_path):
    emit = tmp_path / "majority.txt"
    code, body = run_json(capsys, ["majority", "--k", "6", "--eps", "1/112",
                                   "--emit", str(emit)])
    assert code == EXIT_OK
    assert body["no_red_copy"] is True and body["grid"] == 1008
    assert body["density_gap"] == "1/28"
    from ramsey_circle.core import parse_colouring
    c = parse_colouring(emit.read_text(encoding="utf-8"))
    assert c.n == 1008


def test_majority_bad_eps_is_usage_error():
    assert dispatch(["majority", "--k", "5", "--eps", "1/100"]) == EXIT_ERROR


denominator = st.one_of(st.integers(1, 60), st.integers(1, 10**9))


@st.composite
def fraction_list(draw, q):
    """Mostly distance tuples over the common denominator q, so the reduced
    denominators differ; sometimes too short, unsorted or unbalanced."""
    k = draw(st.sampled_from([3, 3, 4, 5, 1, 2]))
    if q > k:
        cuts = sorted(draw(st.lists(st.integers(1, q - 1), min_size=k - 1,
                                    max_size=k - 1, unique=True)))
        nums = sorted((b - a for a, b in zip([0, *cuts], [*cuts, q])), reverse=True)
    else:
        nums = [1] * k
    if draw(st.integers(0, 3)) == 3:
        nums = draw(st.permutations(nums))
    if draw(st.integers(0, 3)) == 3:
        nums[0] += draw(st.integers(-q, q))
    return ",".join(str(F(p, q)) for p in nums)


@st.composite
def dispatch_argv(draw, colouring_dir):
    command = draw(st.sampled_from(["suitable", "suitable-search", "witness-search",
                                    "majority", "check", "nearly-ramsey",
                                    "beatty-check", "balanced-check",
                                    "uniform-check", "cnf", "solve"]))
    t = str(draw(st.integers(-1, 50)))
    if command == "uniform-check":
        max_t = draw(st.one_of(st.integers(-1, 100), st.just(10**6)))
        return [command, "--k", str(draw(st.integers(-1, 10))), "--max-t", str(max_t)]
    if command == "cnf":
        k = draw(st.integers(-1, 6))
        return [command, "--k", str(k), "--out", str(colouring_dir / f"k{k}.cnf")]
    if command == "solve":
        # from k = 6 on a search runs for minutes without a timeout, and
        # k = 8 would first spend seconds generating 2.6 M clauses
        k = draw(st.integers(0, 9))
        timeouts = [["--timeout", "0.05"], ["--timeout", "0"]]
        if k < 6:
            timeouts.append([])
        return [command, "--k", str(k), *draw(st.sampled_from(timeouts))]
    if command == "beatty-check":
        # a doubling pair, which partitions, or small alphas that are at times
        # zero or unsorted; half shifts or drawn betas; limits past 10^18
        if draw(st.booleans()):
            alphas = list(beatty.power_pair(draw(st.integers(3, 6))).alphas)
        else:
            alphas = draw(st.lists(st.fractions(0, 8, max_denominator=9), min_size=1, max_size=4))
            if draw(st.integers(0, 3)):
                alphas.sort()
        shift = ("--half" if draw(st.booleans()) else
                 "--betas=" + ",".join(str(draw(small_fraction)) for _ in alphas))
        limit = draw(st.one_of(st.integers(-1, 300), st.just(10**18)))
        return [command, "--alphas", ",".join(map(str, alphas)), shift, f"--limit={limit}"]
    if command == "balanced-check":
        # letters a.. or digits 1..; a missing letter, 0 or a mix is refused
        alphabet = draw(st.sampled_from(["ab", "abc", "abc", "abcd", "123", "a1", "120"]))
        letters = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=20))
        return [command, "--period", draw(st.sampled_from([",", " ", ""])).join(letters)]
    if command == "majority":
        # near 1/r for r around the eps window (1/126, 1/80) of k = 6
        q = draw(denominator)
        eps = F(q // draw(st.integers(60, 140)) + draw(st.integers(-1, 1)), q)
        k = draw(st.sampled_from([6, 7, 6, 8, 9, 5, 0]))
        return [command, "--k", str(k), "--eps", str(eps)]
    # the finite check is one search, counterexample or not, so n runs past
    # robust.MAX_N
    n = draw(st.integers(1, robust.MAX_N + 4 if command == "nearly-ramsey" else 14))
    # the grid commands fit a tuple over n only if n is a multiple of q
    gaps = draw(fraction_list(draw(st.one_of(st.just(n), denominator))))
    if command == "suitable":
        return [command, "--gaps", gaps, "--t", t]
    if command in ("suitable-search", "witness-search"):
        return [command, "--gaps", gaps, "--max-t", t]
    if command == "nearly-ramsey":
        return [command, "--gaps", gaps, "--n", str(n)]
    colours = "".join(draw(st.lists(st.sampled_from("RB"), min_size=n, max_size=n)))
    path = colouring_dir / f"{colours}.txt"
    path.write_text(f"{n}\n{colours}\n", encoding="utf-8")
    flags = draw(st.sampled_from([[], ["--brute"], ["--count"]]))
    return [command, "--input", str(path), "--gaps", gaps, *flags]


@pytest.fixture(scope="module")
def colouring_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("colourings")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dispatch_random_fractional_inputs(colouring_dir, data):
    argv = data.draw(dispatch_argv(colouring_dir))
    if argv[0] == "cnf":
        Path(argv[-1]).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(["--json", *argv])
    event(f"{argv[0]} exit {code}")
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == EXIT_ERROR:
        assert out.getvalue() == ""
    elif argv[0] == "cnf":
        assert out.getvalue() == ""
        k = int(argv[2])
        assert dimacs_read(Path(argv[-1]).read_text(encoding="utf-8")).num_vars == 2**k - 1
    else:
        body = json.loads(out.getvalue())
        assert body["command"] == argv[0]


def test_cnf_to_stdout(capsys):
    code = dispatch(["cnf", "--k", "3", "--out", "-"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "p cnf 7 28" in out


def test_cnf_to_file(tmp_path, capsys):
    out = tmp_path / "k3.cnf"
    assert dispatch(["cnf", "--k", "3", "--out", str(out)]) == EXIT_OK
    assert "p cnf 7 28" in out.read_text(encoding="utf-8")


# sha256 of `dimacs_write(cnf_generate(k), comments=(f"k = {k}",))` as the
# whole-formula writer produced it before `cnf` streamed its clauses
CNF_SHA256 = {
    3: "d23d509bf726ef40d7192566eb87a8a5e8b0c7207639d4c3aaa786e94fb8f454",
    4: "e2091c2ee530c8e067af75eaca272bc946a4655aa2fb0331dcdb3768943f928b",
    5: "710e00627d6620acc2ded4e48b03119b6fb9c4fb43e5bbc66546230070786633",
    6: "341510c4084de80b70a5337a972538e20aa515855b7663e128d3644bca61e093",
}


class _NoFormula:
    """Stands in for `satgen.CnfFormula`: building a formula fails the test."""

    def __call__(self, *args, **kwargs):
        pytest.fail("a formula was built")

    def __getattr__(self, name):
        pytest.fail("a formula was built")


@pytest.mark.parametrize("k", sorted(CNF_SHA256))
def test_cnf_streams_the_bytes_of_the_whole_formula_writer(k, tmp_path, capsys, monkeypatch):
    expected = satgen.dimacs_write(satgen.cnf_generate(k), comments=(f"k = {k}",))
    assert hashlib.sha256(expected.encode()).hexdigest() == CNF_SHA256[k]
    monkeypatch.setattr(satgen, "CnfFormula", _NoFormula())
    path = tmp_path / f"k{k}.cnf"
    assert dispatch(["--json", "cnf", "--k", str(k), "--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == expected.encode()
    assert dispatch(["cnf", "--k", str(k), "--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_cnf_holds_one_start_vertex_of_clauses(tmp_path):
    # the whole-formula writer peaked at 3.5 MB here, the streamed one at 0.3 MB
    tracemalloc.start()
    try:
        assert dispatch(["cnf", "--k", "6", "--out", str(tmp_path / "k6.cnf")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("k, out", [("9", "file"), ("2", "-")])
def test_cnf_refuses_k_before_opening_the_output(k, out, tmp_path, capsys):
    path = tmp_path / "refused.cnf"
    assert dispatch(["cnf", "--k", k, "--out", "-" if out == "-" else str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: k must be in [3, 8], got")
    assert not path.exists()


def test_cnf_refuses_an_unopenable_output_before_any_clause(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(satgen, "copy_clauses", lambda *args: pytest.fail("clauses generated"))
    assert dispatch(["cnf", "--k", "8", "--out", str(tmp_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_solve_k3(capsys):
    code, body = run_json(capsys, ["solve", "--k", "3"])
    assert code == EXIT_OK
    assert body["status"] == "UNSAT" and body["model"] is None


def test_solve_missing_solver_is_error(capsys):
    # the bundled solver is the only route: `solve` has no --solver option
    assert dispatch(["solve", "--k", "3", "--solver", "no-such-solver"]) == EXIT_ERROR
    assert "unrecognized arguments: --solver" in capsys.readouterr().err


def test_solve_ignores_the_solver_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("RAMSEY_SAT_SOLVER", "no-such-solver")
    code, body = run_json(capsys, ["solve", "--k", "3"])
    assert code == EXIT_OK and body["status"] == "UNSAT"


def test_solve_in_process_timeout_is_unknown_exit(capsys):
    code, body = run_json(capsys, ["solve", "--k", "6", "--timeout", "0.3"])
    assert code == 4
    assert body["status"] == "UNKNOWN" and body["model"] is None


def test_solve_timeout_bounds_generating_the_formula(capsys):
    # k = 8 takes about 2 s and 350 MB to generate 2.6 M clauses in full
    started = time.monotonic()
    code, body = run_json(capsys, ["solve", "--k", "8", "--timeout", "0.1"])
    assert time.monotonic() - started < 1
    assert code == 4 and body["status"] == "UNKNOWN"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "-inf", "soon"])
def test_solve_timeout_must_be_above_zero(capsys, value):
    # refused at parse time, before any formula is built
    assert dispatch(["solve", "--k", "3", "--timeout", value]) == EXIT_ERROR
    assert "argument --timeout" in capsys.readouterr().err


def test_solve_timeout_inf_means_no_limit(capsys):
    code, body = run_json(capsys, ["solve", "--k", "3", "--timeout", "inf"])
    assert code == EXIT_OK and body["status"] == "UNSAT"


def test_check_human_mode_prints_witness_as_json(capsys, split7):
    code = dispatch(["check", "--input", split7, "--gaps", "4,2,1"])
    out = capsys.readouterr().out.strip()
    assert code == EXIT_OK
    assert json.loads(out) == {"vertices": [0, 1, 3], "gap_order": [1, 2, 4],
                               "colour": "Red"}


def test_json_output_is_deterministic(capsys, split7):
    _, first = run_json(capsys, ["check", "--input", split7, "--gaps", "4,2,1"])
    _, second = run_json(capsys, ["check", "--input", split7, "--gaps", "4,2,1"])
    assert first == second


# batch runner ---------------------------------------------------------------

def write_spec(tmp_path, lines):
    spec = tmp_path / "spec.sweep"
    spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return spec


def test_batch_empty_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, ["# nothing"])
    code, body = run_json(capsys, ["batch", str(spec)])
    assert code == EXIT_OK
    assert body["total"] == 0


def test_batch_malformed_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, ["not-an-exit-code check"])
    assert dispatch(["batch", str(spec)]) == EXIT_ERROR


def test_batch_runs_items_and_reports(tmp_path, capsys):
    fixture = tmp_path / "c.txt"
    fixture.write_text("7\nRRRRBBB\n", encoding="utf-8")
    spec = write_spec(tmp_path, [
        "0 --json check --input @/c.txt --gaps 4,2,1",
        "1 --json check --input @/c.txt --gaps 4,2,1 --restrict @/missing # wrong on purpose",
    ])
    code, body = run_json(capsys, ["batch", str(spec)])
    # second item exits 2 (missing restriction file) against expected 1
    assert code == EXIT_ERROR
    assert body["passed"] == 1 and body["failed"] == 1
    assert body["items"][1]["actual"] == EXIT_ERROR


def test_batch_mismatch_without_error_exits_negative(tmp_path, capsys):
    fixture = tmp_path / "c.txt"
    fixture.write_text("7\nRRRRBBB\n", encoding="utf-8")
    spec = write_spec(tmp_path, ["1 --json check --input @/c.txt --gaps 4,2,1"])
    code, body = run_json(capsys, ["batch", str(spec)])
    assert code == EXIT_NEGATIVE
    assert body["items"][0]["actual"] == EXIT_OK


def test_batch_report_identical_across_worker_counts(tmp_path):
    fixture = tmp_path / "c.txt"
    fixture.write_text("7\nRRRRBBB\n", encoding="utf-8")
    spec = write_spec(tmp_path, [
        "0 --json check --input @/c.txt --gaps 4,2,1",
        "1 --json check --input @/c.txt --gaps 4,2,1 --count # counts exist: exit 0",
        "0 --json balanced-check --period a,b,a,c,a,b,a",
        "1 --json beatty-check --alphas 2,3,6 --half --limit 3000000000000000000",
        "2 --json beatty-check --alphas 3,2 --half --limit 10",
        "0 --json doubling --k 3 --t 1",
    ])
    reports = {}
    for workers in (1, 4):
        report = tmp_path / f"report{workers}.json"
        dispatch(["--parallel", str(workers), "batch", str(spec),
                  "--report", str(report)])
        reports[workers] = report.read_bytes()
    assert reports[1] == reports[4]
    actual = [item["actual"] for item in json.loads(reports[1])["items"]]
    assert actual == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_NEGATIVE, EXIT_ERROR, EXIT_OK]


# cheap sweep items and their exit codes: verdicts, refusals, parse errors
BATCH_POOL = [
    ("--json balanced-check --period a,b,a,c,a,b,a", EXIT_OK),
    ("--json balanced-check --period a,a,b,b", EXIT_NEGATIVE),
    ("--json doubling --k 3 --t 1", EXIT_OK),
    ("--json doubling --xs 3/5,3/5,3/5,-9/10,-9/10", EXIT_NEGATIVE),
    ("--json suitable --gaps 1/3,1/3,1/3 --t 1", EXIT_OK),
    ("--json suitable --gaps 4/7,2/7,1/7 --t 1", EXIT_NEGATIVE),
    ("--json check --input @/c.txt --gaps 4,2,1", EXIT_OK),
    ("check --input @/c.txt --gaps 4,2,2", EXIT_ERROR),
    ("--json uniform-check --k 3 --max-t 0", EXIT_ERROR),
    ("--json solve --k 3 --timeout 0", EXIT_ERROR),
    ("--json beatty-check --alphas 3,2 --half --limit 10", EXIT_ERROR),
    ("--json check --no-such-flag", EXIT_ERROR),
    ("--json balanced-check", EXIT_ERROR),
    ("--json check --input @/missing.txt --gaps 4,2,1", EXIT_ERROR),
]


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("batch")
    (path / "c.txt").write_text("7\nRRRRBBB\n", encoding="utf-8")
    return path


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(BATCH_POOL),
                                st.one_of(st.none(), st.integers(0, 4))), max_size=7))
def test_batch_random_specs(batch_dir, lines):
    # an expected code drawn as None is the item's own, so most specs pass
    spec = batch_dir / "spec.sweep"
    spec.write_text("".join(f"{code if expected is None else expected} {args}\n"
                            for (args, code), expected in lines), encoding="utf-8")
    outputs = {}
    for workers in ("1", "2"):
        report = batch_dir / f"report{workers}.json"
        out = io.StringIO()
        with mock.patch.object(os, "cpu_count", return_value=2), redirect_stdout(out):
            code = dispatch(["--parallel", workers, "batch", str(spec), "--report", str(report)])
        outputs[workers] = (code, out.getvalue(), report.read_bytes())
    assert outputs["1"] == outputs["2"]
    code, _, text = outputs["1"]
    items = json.loads(text)["items"]
    assert len(items) == len(lines)
    for item, ((args, own), _) in zip(items, lines):
        assert item["actual"] == cli._run_sweep_item(shlex.split(args), batch_dir) == own
        assert item["pass"] == (item["actual"] == item["expected"])
    failed = [item["actual"] for item in items if not item["pass"]]
    assert code == (EXIT_OK if not failed else EXIT_ERROR if EXIT_ERROR in failed
                    else EXIT_NEGATIVE)


@pytest.fixture
def forks(monkeypatch):
    """Counts the batch's forked workers; each fork is a real one."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def test_a_batch_item_running_batch_reads_2(tmp_path, capsys, forks):
    # the spec names itself: run as an item, its batch would read it again,
    # one level deeper each time (and with --parallel, fork at every level)
    spec = write_spec(tmp_path, ["2 batch @/spec.sweep",
                                 "0 --json balanced-check --period a,b,a,c,a,b,a"])
    started = time.monotonic()
    code, body = run_json(capsys, ["batch", str(spec)])
    assert time.monotonic() - started < 1
    assert code == EXIT_OK and forks == []
    assert [item["actual"] for item in body["items"]] == [2, 0]
    # what such an item prints, which the batch discards
    assert dispatch(["batch", str(spec)], in_batch=True) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: a batch item cannot run batch\n"


def test_batch_pool_capped_at_items_and_cpus(tmp_path, forks, monkeypatch):
    spec = write_spec(tmp_path, ["0 --json balanced-check --period a,b,a,c,a,b,a",
                                 "1 --json balanced-check --period a,a,b,b"])
    report = tmp_path / "report.json"
    argv = ["--parallel", "1000000", "batch", str(spec), "--report", str(report)]
    cpus = os.cpu_count() or 1
    assert dispatch(argv) == EXIT_OK
    # this process is worker 0, so W workers fork W - 1 children
    assert len(forks) == min(2, cpus) - 1
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    forks.clear()
    assert dispatch(argv) == EXIT_OK
    assert forks == []


@pytest.mark.parametrize("value", ["0", "-1", "many"])
def test_parallel_must_be_a_positive_integer(tmp_path, forks, value):
    spec = write_spec(tmp_path, ["0 --json balanced-check --period a,b,a,c,a,b,a"])
    assert dispatch(["--parallel", value, "batch", str(spec)]) == EXIT_ERROR
    assert forks == []


@pytest.mark.parametrize("killed_at, actual", [(1, [0, 2, 1, 2]), (3, [0, 0, 1, 2])])
def test_a_killed_worker_leaves_its_items_reading_2(tmp_path, monkeypatch, killed_at, actual):
    # two workers: this process runs items 0 and 2, the child items 1 and 3
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    lines = ["0 --json balanced-check --period a,b,a,c,a,b,a",
             "0 --json doubling --k 3 --t 1",
             "1 --json balanced-check --period a,a,b,b",
             "1 --json doubling --xs 3/5,3/5,3/5,-9/10,-9/10"]
    spec = write_spec(tmp_path, lines)
    doomed = shlex.split(lines[killed_at])[1:]
    parent = os.getpid()
    run_item = cli._run_sweep_item

    def run_or_die(argv, spec_dir):
        if argv == doomed and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_item(argv, spec_dir)

    monkeypatch.setattr(cli, "_run_sweep_item", run_or_die)
    report = tmp_path / "report.json"
    code = dispatch(["--parallel", "2", "batch", str(spec), "--report", str(report)])
    body = json.loads(report.read_text(encoding="utf-8"))
    assert code == EXIT_ERROR   # a crash is never a verdict
    assert [item["actual"] for item in body["items"]] == actual
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_verdicts_match_one_interpreter_per_item(tmp_path):
    spec = SWEEP_DIR / "acceptance.sweep"
    report = tmp_path / "report.json"
    dispatch(["--parallel", "2", "batch", str(spec), "--report", str(report)])
    items = json.loads(report.read_text(encoding="utf-8"))["items"]
    # the reference items are subprocesses, so threads overlap them
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        reference = list(pool.map(
            lambda item: run_sweep_item_in_subprocess(item["argv"], SWEEP_DIR), items))
    assert len(items) == len(reference) >= 20
    for item, code in zip(items, reference):
        assert item["actual"] == code, item["argv"]


def test_batch_parse_errors_before_valid_items_match_one_interpreter_per_item(
        tmp_path, capsys, forks):
    # items that fail to parse come first, so a parser reused across items
    # would carry any state they leave into the valid ones
    fixture = tmp_path / "c.txt"
    fixture.write_text("7\nRRRRBBB\n", encoding="utf-8")
    spec = write_spec(tmp_path, [
        "2 --json check --no-such-flag",
        "2 --json solve --k 3 --timeout nan",
        "2 --json uniform-check --k 3 --max-t 0",
        "0 --json check --input @/c.txt --gaps 4,2,1",
        "0 --json balanced-check --period a,b,a,c,a,b,a",
        "1 --json balanced-check --period a,a,b,b",
        "0 --json uniform-check --k 3 --max-t 14",
    ])
    code, body = run_json(capsys, ["batch", str(spec)])
    assert code == EXIT_OK and forks == []
    actual = [item["actual"] for item in body["items"]]
    reference = [run_sweep_item_in_subprocess(item["argv"], tmp_path) for item in body["items"]]
    assert actual == reference == [2, 2, 2, 0, 0, 1, 0]


def test_many_dispatches_build_the_parser_once(tmp_path, capsys):
    spec = write_spec(tmp_path, ["0 --json balanced-check --period a,b,a,c,a,b,a",
                                 "2 --json balanced-check",
                                 "1 --json balanced-check --period a,a,b,b"])
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert dispatch(["--json", "doubling", "--k", "3", "--t", "1"]) == EXIT_OK
        assert dispatch(["--json", "batch", str(spec)]) == EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3 * 5 - 1)


def parser_actions(parser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from parser_actions(sub)


def test_no_parser_action_has_a_mutable_default():
    # the parser is shared by every dispatch in a process, so a mutable
    # default (a list that append fills, say) would carry one item into the next
    parser = cli.build_parser()
    actions = list(parser_actions(parser))
    assert len(actions) > 40
    for action in actions:
        assert isinstance(action.default, (type(None), bool, int, float, str)), action.dest
        assert not isinstance(action, (argparse._AppendAction, argparse._AppendConstAction,
                                       argparse._ExtendAction)), action.dest


def run_fresh_interpreter(lines):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)   # stdout to a pipe is then block-buffered
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, env=env, timeout=120)


def test_importing_the_cli_or_robust_loads_no_solver():
    # the solver is imported where a formula is solved, not at import
    proc = run_fresh_interpreter([
        "import sys",
        "import ramsey_circle.robust",
        "assert 'ramsey_circle.dimacs_solver' not in sys.modules, 'robust loaded the solver'",
        "import ramsey_circle.cli",
        "assert 'ramsey_circle.dimacs_solver' not in sys.modules, 'the CLI loaded the solver'",
        "import ramsey_circle.dimacs_solver",
        "assert 'ramsey_circle.dimacs_solver' in sys.modules",
    ])
    assert proc.returncode == 0, proc.stderr


def test_cli_import_builds_no_parser_and_one_worker_starts_no_pool(tmp_path):
    # a fresh interpreter, since this one has built the parser and may have
    # imported the pool machinery already
    spec = write_spec(tmp_path, ["0 --json balanced-check --period a,b,a,c,a,b,a",
                                 "1 --json balanced-check --period a,a,b,b"])
    proc = run_fresh_interpreter([
        "import sys",
        "from ramsey_circle import cli",
        "assert cli.build_parser.cache_info().currsize == 0, 'parser built at import'",
        f"code = cli.dispatch(['--parallel', '1', 'batch', {str(spec)!r}, "
        f"'--report', {str(tmp_path / 'report.json')!r}])",
        "assert 'multiprocessing' not in sys.modules, 'a pool was started'",
        "assert cli.build_parser.cache_info().misses == 1",
        "sys.exit(code)",
    ])
    assert proc.returncode == EXIT_OK, proc.stderr


def test_parallel_batch_imports_no_pool_machinery(tmp_path):
    spec = write_spec(tmp_path, ["0 --json balanced-check --period a,b,a,c,a,b,a",
                                 "1 --json balanced-check --period a,a,b,b"])
    proc = run_fresh_interpreter([
        "import os, sys",
        "from ramsey_circle import cli",
        "os.cpu_count = lambda: 2",
        "forks, real_fork = [], os.fork",
        "os.fork = lambda: forks.append(1) or real_fork()",
        f"code = cli.dispatch(['--parallel', '2', 'batch', {str(spec)!r}, "
        f"'--report', {str(tmp_path / 'report.json')!r}])",
        "assert forks == [1], forks",
        "for name in ('concurrent.futures', 'multiprocessing', 'logging'):",
        "    assert name not in sys.modules, name",
        "sys.exit(code)",
    ])
    assert proc.returncode == EXIT_OK, proc.stderr


def test_parallel_batch_writes_earlier_output_once(tmp_path):
    # stdout is a pipe here, so the text sits in the buffer when the batch
    # forks; each item flushes the real stdout, as one that printed to it would
    spec = write_spec(tmp_path, ["0 --json balanced-check --period a,b,a,c,a,b,a",
                                 "1 --json balanced-check --period a,a,b,b"])
    proc = run_fresh_interpreter([
        "import os, sys",
        "from ramsey_circle import cli",
        "os.cpu_count = lambda: 2",
        "run_item = cli._run_sweep_item",
        "cli._run_sweep_item = lambda *a: sys.__stdout__.flush() or run_item(*a)",
        "sys.stdout.write('unflushed text, ')",
        f"sys.exit(cli.dispatch(['--parallel', '2', 'batch', {str(spec)!r}, "
        f"'--report', {str(tmp_path / 'report.json')!r}]))",
    ])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == "unflushed text, 2/2 passed\n"


def test_frozen_benchmark_sweep_passes(tmp_path):
    # the benchmark's cli-batch workload runs this frozen copy, so a change
    # that would fail it fails here first; the file is only read
    spec = SWEEP_DIR.parent / "bench" / "sweep" / "acceptance.sweep"
    before = spec.read_bytes()
    report = tmp_path / "report.json"
    assert dispatch(["--json", "batch", str(spec), "--report", str(report)]) == EXIT_OK
    body = json.loads(report.read_text(encoding="utf-8"))
    assert (body["total"], body["passed"], body["failed"]) == (28, 28, 0)
    assert all(item["pass"] for item in body["items"])
    assert spec.read_bytes() == before


def test_shipped_sweep_parses():
    from ramsey_circle.cli import _parse_sweep
    items = _parse_sweep(SWEEP_DIR / "acceptance.sweep")
    assert len(items) >= 20
    assert all(isinstance(e, int) and argv for e, argv in items)


def test_every_sweep_line_matches_its_golden_output():
    # exit code, stdout and stderr of each line; tests/sweep_golden.py
    # rewrites the file after a change that moves one on purpose
    from sweep_golden import GOLDEN, render
    assert render() == GOLDEN.read_text(encoding="utf-8")


def test_sweep_golden_check_prints_the_lines_that_moved_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    import sweep_golden
    stale = tmp_path / "acceptance.golden"
    text = sweep_golden.GOLDEN.read_text(encoding="utf-8")
    stale.write_text(text.replace('"k": 5, "model": null', '"k": 5, "model": []'),
                     encoding="utf-8")
    before = stale.read_bytes()
    monkeypatch.setattr(sweep_golden, "GOLDEN", stale)
    assert sweep_golden.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("--- acceptance.golden\n+++ fresh run\n")
    assert [line for line in out.splitlines() if line.startswith(("+", "-"))][2:] == [
        '-| {"command": "solve", "k": 5, "model": [], "schema": 1, "status": "UNSAT"}',
        '+| {"command": "solve", "k": 5, "model": null, "schema": 1, "status": "UNSAT"}']
    assert stale.read_bytes() == before
    stale.write_text(text, encoding="utf-8")
    assert sweep_golden.main(["--check"]) == 0
    assert capsys.readouterr().out == ""
