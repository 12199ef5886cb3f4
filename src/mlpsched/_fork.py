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
from typing import Callable, Sequence


class Children:
    """The forked processes of one map over ``items``.

    The items go in w strided shares ``items[c::w]``: one item each while
    n < ``cpus``, otherwise the fewest shares with at most n // ``cpus``
    items each.  With indivisible jobs the largest share sets the makespan,
    so under fair time-slicing the processes finish after n / ``cpus`` runs
    of equal items: 2.5 for 5 items on 2 CPUs, where 2 shares would take 3.
    Child c computes share c for 0 < c < w, sends its results back pickled
    over its own pipe (``_send``) and ends in ``os._exit``.  This process
    keeps share 0.
    """

    def __init__(self, fn: Callable, items: Sequence, cpus: int) -> None:
        n = len(items)
        self.fn = fn
        self.items = items
        self.workers = n if n < cpus else -(-n // (n // cpus))
        self.pids: list[int] = []
        self.read_ends: list[int] = []

    def start(self) -> None:
        """Fork the children, recording each pipe and pid as it is made, so
        that ``abort`` reaches every one even if this raises part-way."""
        for c in range(1, self.workers):
            read_end, write_end = os.pipe()
            self.read_ends.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        _send(write_end, self.fn, self.items[c :: self.workers])
                        code = 0
                    finally:
                        os._exit(code)
                self.pids.append(pid)
            finally:
                # Only the child keeps a write end: its exit is the pipe's EOF.
                os.close(write_end)

    def collect(self, first) -> list:
        """All results in item order, ``first`` being ``fn(items[0])``: run the
        rest of share 0 here, read every pipe to EOF and reap every child.

        A child's exception is raised here with its type and message; a
        child that sent nothing is named by its exit status.  On any error
        here the children are aborted first.
        """
        w = self.workers
        try:
            mine = [first, *map(self.fn, self.items[w::w])]
            sent = [_read_to_eof(fd) for fd in self.read_ends]
        except BaseException:
            self.abort()
            raise
        statuses = self._close()
        results: list = [None] * len(self.items)
        results[::w] = mine
        for c, (pid, data, status) in enumerate(zip(self.pids, sent, statuses), 1):
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

    def abort(self) -> None:
        """Kill every child, then close every pipe and reap every child."""
        try:
            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
        finally:
            self._close()

    def _close(self) -> list[int]:
        """Close every read end and reap every child; the wait statuses."""
        for fd in self.read_ends:
            os.close(fd)
        return [os.waitpid(pid, 0)[1] for pid in self.pids]


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
