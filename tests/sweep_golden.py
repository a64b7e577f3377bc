"""Golden outputs of the acceptance sweep: exit code, stdout and stderr of
every line, run through `cli.dispatch` in one process.

`render()` gives the text that `sweeps/acceptance.golden` must hold, and
`test_cli.py` compares the two.  After a change that moves a verdict, a
witness or a message on purpose, rewrite the file with

    PYTHONPATH=src python tests/sweep_golden.py

and say in CHANGES.md which lines moved and why.
"""

import contextlib
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


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
