"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fail a test that leaves a child process running or unreaped, as a
    batch whose forked workers were not all waited for would."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return   # no children at all
    if pid == 0:
        pytest.fail("a child process is still running after the test")
    pytest.fail(f"child {pid} exited (status {status}) but was left unreaped")
