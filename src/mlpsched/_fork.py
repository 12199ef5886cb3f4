"""The forking half of ``experiments._forked_map``.

Imported only once a map has decided to fork, so that neither this module
nor ``pickle`` adds to the start-up of a run that stays in one process.
Importing ``pickle`` in a forked child took 6-36 ms where the parent took
2-3 ms (2-vCPU VM), so it is imported here, before any fork.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from typing import Callable, Sequence


def map_in_children(fn: Callable, items: Sequence, cpus: int) -> list:
    """``[fn(x) for x in items]``, in order, computed by w forked processes.

    The items go in w strided shares ``items[c::w]``: one item each while
    n < ``cpus``, otherwise the fewest shares with at most n // ``cpus``
    items each.  With indivisible jobs the largest share sets the makespan,
    so under fair time-slicing the processes finish after n / ``cpus`` runs
    of equal items: 2.5 for 5 items on 2 CPUs, where 2 shares would take 3.
    Child c computes share c for 0 < c < w, sends its results back pickled
    over its own pipe (``_send``) and ends in ``os._exit``; this process
    computes share 0, then reads every pipe to EOF.

    On any error or interrupt here every child is killed.  On every path
    every pipe is closed and every child reaped before this returns or
    raises.  A child's exception is then raised here with its type and
    message; a child that sent nothing is named by its exit status.
    """
    n = len(items)
    w = n if n < cpus else -(-n // (n // cpus))
    sys.stdout.flush()  # else a child could inherit, and a parent lose, buffered output
    sys.stderr.flush()
    pids: list[int] = []
    read_ends: list[int] = []
    try:
        for c in range(1, w):
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        _send(write_end, fn, items[c::w])
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            finally:
                # Only the child keeps a write end: its exit is the pipe's EOF.
                os.close(write_end)
        mine = list(map(fn, items[::w]))
        sent = [_read_to_eof(fd) for fd in read_ends]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in read_ends:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results: list = [None] * n
    results[::w] = mine
    for c, (pid, data, status) in enumerate(zip(pids, sent, statuses), 1):
        if status != 0 or not data:
            code = os.waitstatus_to_exitcode(status)
            ended = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise ChildProcessError(
                f"worker process {pid} ended with {ended} before sending its results"
            )
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results[c::w] = value
    return results


def _send(fd: int, fn: Callable, share: Sequence) -> None:
    """In a child: write ``(True, results)`` or ``(False, exception)``, pickled, to ``fd``."""
    try:
        data = pickle.dumps((True, [fn(x) for x in share]), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:
        data = _pickled_exception(exc)
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _pickled_exception(exc: BaseException) -> bytes:
    """``(False, exc)`` pickled, or, if ``exc`` does not survive pickling,
    a ``RuntimeError`` naming its type and message in its place."""
    try:
        data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        stand_in = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        return pickle.dumps((False, stand_in), pickle.HIGHEST_PROTOCOL)


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)
