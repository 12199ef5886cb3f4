"""The forking halves of ``experiments``: a forked map and a streamed one.

Imported only once a caller has decided to fork, so that this module adds
nothing to the start-up of a run that stays in one process.

* ``map_in_children`` computes ``[fn(x) for x in items]`` in strided
  shares, one per process, and sends each child's results back pickled
  (``experiments._forked_map``).  It imports ``pickle`` before any fork:
  importing it in a forked child took 6-36 ms where the parent took 2-3 ms
  (2-vCPU VM).
* ``StreamedMap`` scores a stream of float vectors while the stream is
  still being produced: each vector goes, as packed doubles, to one of a
  few forked workers in strided shares, and each result comes back as one
  8-byte double, so values cross the pipes bit-exact and without
  ``pickle`` (``experiments.run_oracle_check``).

Both kill every child (SIGKILL) on any error or interrupt, and on every
path close every pipe they opened and reap every child they forked.
"""

from __future__ import annotations

import os
import signal
import struct
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
    import pickle  # before any fork; see the module docstring

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
        _kill(pids)
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


def _kill(pids: Sequence[int]) -> None:
    for pid in pids:
        os.kill(pid, signal.SIGKILL)


def _send(fd: int, fn: Callable, share: Sequence) -> None:
    """In a child: write ``(True, results)`` or ``(False, exception)``, pickled, to ``fd``."""
    import pickle

    try:
        data = pickle.dumps((True, [fn(x) for x in share]), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:
        data = _pickled_exception(exc)
    _write_all(fd, data)


def _pickled_exception(exc: BaseException) -> bytes:
    """``(False, exc)`` pickled, or, if ``exc`` does not survive pickling,
    a ``RuntimeError`` naming its type and message in its place."""
    import pickle

    try:
        data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        stand_in = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        return pickle.dumps((False, stand_in), pickle.HIGHEST_PROTOCOL)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


_RESULT = struct.Struct("d")


class StreamedMap:
    """``fn`` over a stream of vectors of ``width`` floats, computed by
    ``workers`` forked processes while the stream is still being produced.

    ``send`` hands the next vector to worker j mod w (w = ``workers``, j the
    vector's place in the stream), so worker c scores the strided share
    c, c + w, ... and writes back one 8-byte double per vector, in order.
    Nothing here blocks: the pipes' ends in this process are non-blocking,
    a vector that does not fit its pipe waits in this process until it
    does, and ``send`` also reads every result that has arrived, so no
    pipe stays full however long the stream.  ``finish`` then computes,
    from the last vector back, every value no worker has sent, reading the
    workers' results before each, and ``close`` kills and reaps every
    worker and closes every pipe.

    ``fn`` must be deterministic and return a float, so a vector computed
    on both sides gets the same bits.  A worker that dies, or a pipe that
    breaks, costs only time: its vectors are computed here.  That relies
    on SIGPIPE being ignored, as the interpreter sets it at start-up.
    """

    def __init__(self, fn: Callable, width: int, workers: int) -> None:
        self._fn = fn
        self._vector = struct.Struct(f"{width}d")
        self._items: list = []
        self._results: list = []  # per vector: its value, or None until known
        self._pids: list[int] = []
        self._open: list[int] = []  # every pipe end this process holds
        self._to: list = []  # per worker: its vector pipe's write end, None once it broke
        self._unsent: list[bytearray] = []
        self._from: list = []  # per worker: its result pipe's read end, None at EOF
        self._partial: list[bytes] = []
        self._received: list[int] = []
        sys.stdout.flush()  # else a child could inherit, and a parent lose, buffered output
        sys.stderr.flush()
        try:
            for _ in range(workers):
                self._start()
        except BaseException:
            self.close()
            raise

    def _start(self) -> None:
        vectors, to_worker = os.pipe()
        self._open += (vectors, to_worker)
        from_worker, results = os.pipe()
        self._open += (from_worker, results)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for fd in self._open:
                    if fd not in (vectors, results):
                        os.close(fd)
                _serve(self._fn, self._vector, vectors, results)
                code = 0
            finally:
                os._exit(code)
        self._pids.append(pid)
        for fd in (vectors, results):  # only the worker keeps these ends
            self._open.remove(fd)
            os.close(fd)
        os.set_blocking(to_worker, False)
        os.set_blocking(from_worker, False)
        self._to.append(to_worker)
        self._unsent.append(bytearray())
        self._from.append(from_worker)
        self._partial.append(b"")
        self._received.append(0)

    def send(self, vector: Sequence[float]) -> None:
        """Stream the next vector to its worker, then write what fits of
        every worker's waiting vectors and read every result that has come."""
        owner = len(self._items) % len(self._pids)
        self._items.append(vector)
        self._results.append(None)
        if self._to[owner] is not None:
            self._unsent[owner] += self._vector.pack(*vector)
        for c, fd in enumerate(self._to):
            if fd is not None and self._unsent[c]:
                try:
                    del self._unsent[c][: os.write(fd, self._unsent[c])]
                except BlockingIOError:
                    pass
                except BrokenPipeError:
                    self._to[c] = None
        self._drain()

    def _drain(self) -> None:
        # One read takes all a pipe holds: 64 KiB at most, unless resized.
        w = len(self._pids)
        for c, fd in enumerate(self._from):
            if fd is None:
                continue
            try:
                data = os.read(fd, 1 << 16)
            except BlockingIOError:
                continue
            if not data:
                self._from[c] = None
                continue
            data = self._partial[c] + data
            whole = len(data) - len(data) % _RESULT.size
            j = c + self._received[c] * w
            for (value,) in _RESULT.iter_unpack(data[:whole]):
                self._results[j] = value
                j += w
            self._received[c] += whole // _RESULT.size
            self._partial[c] = data[whole:]

    def finish(self) -> list:
        """Every vector's value, in stream order: computed here from the last
        vector back, wherever no worker's result has come before it."""
        results = self._results
        for j in range(len(self._items) - 1, -1, -1):
            if results[j] is None:
                self._drain()
                if results[j] is None:
                    results[j] = self._fn(self._items[j])
        return results

    def close(self) -> None:
        """Kill every worker, close every pipe end, reap every worker."""
        try:
            _kill(self._pids)
        finally:
            while self._open:
                os.close(self._open.pop())
            while self._pids:
                os.waitpid(self._pids.pop(), 0)


def _serve(fn: Callable, vector: struct.Struct, vectors: int, results: int) -> None:
    """In a worker: read packed vectors to EOF, writing ``fn`` of each back
    as one packed double as soon as it is computed."""
    unread = b""
    while chunk := os.read(vectors, 1 << 16):
        unread += chunk
        whole = len(unread) - len(unread) % vector.size
        for values in vector.iter_unpack(unread[:whole]):
            _write_all(results, _RESULT.pack(fn(values)))
        unread = unread[whole:]
