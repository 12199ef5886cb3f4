"""The forking halves of ``experiments``: a forked map and a streamed one.

Imported only once a caller has decided to fork, so that this module adds
nothing to the start-up of a run that stays in one process.

Both are worker pools (``_Workers``): each worker is forked with only its
own pipe ends open, runs its part and ends in ``os._exit``; the pool kills
every worker (SIGKILL) on any error or interrupt, and on every path closes
every pipe end it opened and reaps every worker it forked.

* ``ForkedMap`` computes ``fn`` over strided shares of a list of items,
  one share per worker, and each worker sends its results back pickled
  (``experiments._forked_map``).  It imports ``pickle`` before any fork:
  importing it in a forked child took 6-36 ms where the parent took 2-3 ms
  (2-vCPU VM).
* ``StreamedMap`` scores a stream of float vectors while the stream is
  still being produced: each vector goes, as packed doubles, to one of a
  few forked workers in strided shares, and each result comes back as one
  8-byte double, so values cross the pipes bit-exact and without
  ``pickle`` (``experiments.run_oracle_check``).
"""

from __future__ import annotations

import os
import signal
import struct
import sys
from typing import Callable, Sequence


class _Workers:
    """Forked workers and every pipe end this process holds for them."""

    def __init__(self) -> None:
        self._pids: list[int] = []
        self._open: list[int] = []  # every pipe end this process holds
        sys.stdout.flush()  # else a child could inherit, and a parent lose, buffered output
        sys.stderr.flush()

    def _pipe(self) -> tuple[int, int]:
        ends = os.pipe()
        self._open += ends
        return ends

    def _fork(self, work: Callable[..., None], *ends: int) -> None:
        """Fork a worker that closes every other pipe end, runs
        ``work(*ends)`` and ends in ``os._exit``, with status 0 only if
        ``work`` returned.  Only the worker keeps ``ends``, so its exit is
        the EOF of the pipes it writes."""
        try:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in self._open:
                        if fd not in ends:
                            os.close(fd)
                    work(*ends)
                    code = 0
                finally:
                    os._exit(code)
            self._pids.append(pid)
        finally:
            for fd in ends:
                self._open.remove(fd)
                os.close(fd)

    def _reap(self) -> list[int]:
        """Close every pipe end, then wait for every worker: their exit
        statuses, in the order they were forked."""
        while self._open:
            os.close(self._open.pop())
        statuses = []
        while self._pids:
            statuses.append(os.waitpid(self._pids[0], 0)[1])
            del self._pids[0]
        return statuses

    def close(self) -> None:
        """Kill every worker, close every pipe end, reap every worker."""
        try:
            for pid in self._pids:
                os.kill(pid, signal.SIGKILL)
        finally:
            self._reap()


class ForkedMap(_Workers):
    """``[fn(x) for x in items]`` in w strided shares ``items[c::w]``, one
    per process: this process computes share 0 and passes its results to
    ``collect``, and a worker forked here computes each other share.

    w = ``shares`` is n while n < ``cpus``, otherwise the fewest shares with
    at most n // ``cpus`` items each.  With indivisible jobs the largest
    share sets the makespan, so under fair time-slicing the processes finish
    after n / ``cpus`` runs of equal items: 2.5 for 5 items on 2 CPUs, where
    2 shares would take 3.  Worker c sends ``(True, results)`` or
    ``(False, exception)`` back pickled over its own pipe (``_send``).
    """

    def __init__(self, fn: Callable, items: Sequence, cpus: int) -> None:
        import pickle  # noqa: F401  before any fork; see the module docstring

        super().__init__()
        n = len(items)
        self.shares = w = n if n < cpus else -(-n // (n // cpus))
        self._n = n
        try:
            for c in range(1, w):
                _, write_end = self._pipe()
                self._fork(lambda fd, share=items[c::w]: _send(fd, fn, share), write_end)
        except BaseException:
            self.close()
            raise

    def collect(self, mine: list) -> list:
        """Every result in item order, ``mine`` being share 0's: reads every
        pipe to EOF, then reaps every worker.  A worker's exception is then
        raised here with its type and message; a worker that sent nothing
        is named by its exit status.  On an error before the reaping, the
        caller must still ``close``."""
        import pickle

        pids = list(self._pids)
        sent = [_read_to_eof(fd) for fd in self._open]  # each worker's read end, in order
        statuses = self._reap()
        results: list = [None] * self._n
        results[:: self.shares] = mine
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
            results[c :: self.shares] = value
        return results


def _send(fd: int, fn: Callable, share: Sequence) -> None:
    """In a worker: write ``(True, results)`` or ``(False, exception)``, pickled, to ``fd``."""
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


class StreamedMap(_Workers):
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
        super().__init__()
        self._fn = fn
        self._vector = struct.Struct(f"{width}d")
        self._items: list = []
        self._results: list = []  # per vector: its value, or None until known
        self._to: list = []  # per worker: its vector pipe's write end, None once it broke
        self._unsent: list[bytearray] = []
        self._from: list = []  # per worker: its result pipe's read end, None at EOF
        self._partial: list[bytes] = []
        self._received: list[int] = []
        try:
            for _ in range(workers):
                vectors, to_worker = self._pipe()
                from_worker, results = self._pipe()
                self._fork(lambda v, r: _serve(fn, self._vector, v, r), vectors, results)
                os.set_blocking(to_worker, False)
                os.set_blocking(from_worker, False)
                self._to.append(to_worker)
                self._unsent.append(bytearray())
                self._from.append(from_worker)
                self._partial.append(b"")
                self._received.append(0)
        except BaseException:
            self.close()
            raise

    def send(self, vector: Sequence[float]) -> None:
        """Stream the next vector to its worker, then write what fits of
        every worker's waiting vectors and read every result that has come."""
        owner = len(self._items) % len(self._to)
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
        w = len(self._from)
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
