"""Golden outputs of the acceptance sweep: exit code, stdout and stderr of
every line, run through `cli.dispatch` in one process.

`render()` gives the text that `sweeps/acceptance.golden` must hold, and
`test_cli.py` compares the two.  To see whether the file is stale, run

    PYTHONPATH=src python tests/sweep_golden.py --check

which prints a unified diff of the lines that moved, from the file to a
fresh run, and exits 1 if there are any, 0 if not; it never writes the
file.  After a change that moves a verdict, a witness or a message on
purpose, rewrite the file with

    PYTHONPATH=src python tests/sweep_golden.py

and say in CHANGES.md which lines moved and why.
"""

import argparse
import contextlib
import difflib
import io
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

from ramsey_circle import cli

SWEEP = Path(__file__).resolve().parent.parent / "sweeps" / "acceptance.sweep"
GOLDEN = SWEEP.with_suffix(".golden")


def _block(name: str, text: str) -> list[str]:
    """The text under a heading, each line after "| ", marking a missing
    final newline as diff does."""
    if not text:
        return [f"{name}: (empty)"]
    lines = [f"{name}:"] + [f"| {line}" for line in text.split("\n")]
    if text.endswith("\n"):
        lines.pop()
    else:
        lines.append("\\ no newline at end")
    return lines


def render(spec: Path = SWEEP) -> str:
    """Each sweep line as given, `@/` arguments unresolved, with its exit
    code, stdout and stderr; the resolved sweep directory reads `@`."""
    spec_dir = spec.resolve().parent
    out = []
    # argparse wraps its usage lines at the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for _, argv in cli._parse_sweep(spec):
            resolved = [str(spec_dir / arg[2:]) if arg.startswith("@/") else arg
                        for arg in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.dispatch(resolved, in_batch=True)
            out += [f"$ {shlex.join(argv)}", f"exit: {code}",
                    *_block("stdout", stdout.getvalue()),
                    *_block("stderr", stderr.getvalue().replace(str(spec_dir), "@")), ""]
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite or check the golden sweep outputs.")
    parser.add_argument("--check", action="store_true",
                        help="print a diff and exit 1 if the file is stale; write nothing")
    args = parser.parse_args(argv)
    fresh = render()
    if not args.check:
        GOLDEN.write_text(fresh, encoding="utf-8")
        print(f"wrote {GOLDEN}", file=sys.stderr)
        return 0
    held = GOLDEN.read_text(encoding="utf-8")
    sys.stdout.writelines(difflib.unified_diff(held.splitlines(keepends=True),
                                               fresh.splitlines(keepends=True),
                                               GOLDEN.name, "fresh run"))
    return int(held != fresh)


if __name__ == "__main__":
    sys.exit(main())
