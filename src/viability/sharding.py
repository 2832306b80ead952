"""Split the rows of a pure computation over every CPU the process may use.

The simulator's paths and the shell probe's points are rows, and split_rows
alone decides how they are cut: into k = max(1, min(cpus, m // least))
contiguous ranges [j*m//k, (j+1)*m//k) of the m rows, so a caller's least
rows per range keeps small work in one process. The caller runs the first
range itself and one forked child runs each later range, pickling its arrays
back through a pipe. A row's result depends only on the row, so the
concatenated arrays are bit-identical for any CPU count. The children are
forked, not spawned, because a model's coefficients are closures that pickle
cannot send to a fresh interpreter. Python 3.12 and later warn
(DeprecationWarning) when fork() is called in a process that runs other
threads.

os.fork and os.sched_getaffinity are looked up at call time, so that a caller
may replace them.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np


def cpu_count() -> int:
    """CPUs in the process's affinity mask where os.fork exists, else 1."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def split_rows(run, m: int, least: int = 1) -> list:
    """The arrays of run(a, b) over the ranges of range(m), each concatenated.

    run(a, b) returns a sequence of arrays with one leading entry per row.
    An exception raised in a child is raised again here, and every child is
    reaped before this returns or raises. One range forks nothing.
    """
    k = max(1, min(cpu_count(), m // least))
    bounds = [(j * m // k, (j + 1) * m // k) for j in range(k)]
    children = []  # (pid, read end of its pipe)
    try:
        for a, b in bounds[1:]:
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
                        message = pickle.dumps((True, run(a, b)))
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
        # The caller runs the first range itself instead of leaving every
        # range to children. Freeing the simulator's 12 MB windows raises
        # glibc's dynamic mmap threshold (and the trim threshold with it), so
        # the 100-400 KB temporaries of later stages come from the heap
        # instead of fresh, page-faulted mappings: 100 probe points on the
        # 3-D unit ball took 0.29-0.50 s (37,700 page faults) in a fresh
        # process and 0.22-0.32 s (680 faults) after one 12 MB array was
        # allocated and freed.
        results = [run(*bounds[0])]
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
    return [np.concatenate(arrays) for arrays in zip(*results)]
