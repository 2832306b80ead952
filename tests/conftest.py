"""Helpers shared by the tests of the code that forks (sharding.split_rows)."""

import os

import pytest

forking = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="work is sharded only where os.fork and os.sched_getaffinity exist",
)


def _on_cpus(monkeypatch, w):
    """Report w CPUs to the package; return the list of forked child pids."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))
    forks, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
