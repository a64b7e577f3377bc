"""Test-only reference routes, kept independent of the code they check."""

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

import ramsey_circle


def dfs_copy_in_class(class_mask: int, n: int, gaps: Sequence[int],
                      ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Depth-first search for the least copy lying entirely inside a class.

    Scans starts in order, choosing gaps in ascending value; exhaustive, so
    a None verdict is a proof of absence.  Returns (vertices, gap_order)
    presented from the copy's smallest vertex.
    """
    k = len(gaps)
    gaps_sorted = sorted(gaps)
    used = [False] * k
    path: list[int] = []

    def extend(u: int) -> bool:
        if len(path) == k - 1:
            return True
        prev = None
        for i in range(k):
            if used[i] or gaps_sorted[i] == prev:
                continue
            g = gaps_sorted[i]
            v = (u + g) % n
            if class_mask >> v & 1:
                used[i] = True
                path.append(g)
                if extend(v):
                    return True
                path.pop()
                used[i] = False
            prev = g
        return False

    for v0 in range(n):
        if not (class_mask >> v0 & 1):
            continue
        if extend(v0):
            last = next(gaps_sorted[i] for i in range(k) if not used[i])
            order = tuple(path) + (last,)
            vertices = [v0]
            for g in order[:-1]:
                vertices.append((vertices[-1] + g) % n)
            shift = vertices.index(min(vertices))
            return (tuple(vertices[shift:] + vertices[:shift]),
                    order[shift:] + order[:shift])
    return None


def run_sweep_item_in_subprocess(argv: Sequence[str], spec_dir: Path) -> int:
    """Exit code of one sweep item run as `python -m ramsey_circle` in a fresh
    interpreter, its `@/` paths resolved against spec_dir; a route to the
    batch verdicts that shares no state with the in-process runner."""
    resolved = [str(spec_dir / arg[2:]) if arg.startswith("@/") else arg
                for arg in argv]
    env = dict(os.environ)
    pkg_parent = str(Path(ramsey_circle.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_parent + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "ramsey_circle", *resolved],
                          capture_output=True, env=env, timeout=300)
    return proc.returncode
