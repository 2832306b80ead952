"""Run shares of a pure computation on every CPU the process may use.

The simulator's path spans and the shell probe's points are cut into shares
that run_shares evaluates at once: the caller runs the first share itself and
one forked child runs each later share, pickling its result back through a
pipe. A share's result depends only on the share, so the results are
bit-identical for any share count. The children are forked, not spawned,
because a model's coefficients are closures that pickle cannot send to a
fresh interpreter. Python 3.12 and later warn (DeprecationWarning) when
fork() is called in a process that runs other threads.

os.fork and os.sched_getaffinity are looked up at call time, so that a caller
may replace them. The imports of pickle and signal sit inside run_shares, so
importing this module loads nothing new.
"""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs in the process's affinity mask where os.fork exists, else 1."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def run_shares(run, shares) -> list:
    """[run(share) for share in shares], the later shares in forked children.

    The caller runs the first share itself after forking one child per
    later share. An exception raised in a child is raised again here, and
    every child is reaped before this returns or raises. One share forks
    nothing.
    """
    import pickle
    import signal

    children = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child never returns from this branch
                try:
                    os.close(r)
                    try:
                        message = pickle.dumps((True, run(share)))
                    except BaseException as exc:  # sent to the caller to raise
                        try:
                            message = pickle.dumps((False, exc))
                        except Exception:  # an exception pickle cannot carry
                            message = pickle.dumps((False, RuntimeError(repr(exc))))
                    with os.fdopen(w, "wb") as fh:
                        fh.write(message)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [run(shares[0])]
        for pid, fh in children:
            try:
                ok, value = pickle.load(fh)
            except EOFError:
                raise RuntimeError(f"child {pid} sent no result") from None
            if not ok:
                raise value
            results.append(value)
    finally:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
