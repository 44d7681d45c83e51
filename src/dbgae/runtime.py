"""The process around training: the second core, forked children and
glibc's freed memory.

``second_core`` says whether work beside the caller's may take the second
core: ``usable_cores`` and ``blas_threads``, whether BLAS already runs
threads of its own.  ``helper_thread`` runs one thread beside the
caller's, and ``share`` hands it pieces of work (``kernels.DenseBlockPath``'s
row chunks, and ``model.train``'s per-epoch diagnostic decode).  ``fork``
and ``reap`` start and end a child process (``jsonl``'s encoder,
``Worker``); a ``Worker`` is a forked process that serves calls on arrays,
``model.train``'s per-epoch diagnostic decode on a graph without a helper
thread.  ``keep_freed_memory`` keeps the memory one epoch frees in the
process for the next.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import struct
import threading
import traceback
from collections import deque
from contextlib import contextmanager

import numpy as np

from .errors import TrainingError

# ---------------------------------------------------------------------------
# the helper thread (used by model.train on large graphs)
# ---------------------------------------------------------------------------


class _Calls:
    """A queue of calls for the helper thread (``queue.SimpleQueue`` would
    cost every run 128 KB of RSS for its import)."""

    def __init__(self):
        self.items = deque()
        self.ready = threading.Semaphore(0)

    def put(self, call):
        self.items.append(call)
        self.ready.release()

    def get(self):
        self.ready.acquire()
        return self.items.popleft()


_helper: _Calls | None = None  # calls for the helper thread, while one runs


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_getter():
    """The loaded OpenBLAS's ``openblas_get_num_threads`` export (numpy's
    wheels rename it) through ctypes, or None: looked up once a process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for path in paths:
            for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
                get = getattr(ctypes.CDLL(path), name, None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    return get
    except OSError:  # no /proc (not Linux), or a mapped file that is gone
        pass
    return None


def blas_threads() -> int:
    """The loaded OpenBLAS's thread count, asked on each call (it may
    change); 1 if no OpenBLAS is found."""
    get = _blas_thread_getter()
    return 1 if get is None else max(1, get())


def second_core() -> bool:
    """Whether work beside the caller's may take a second core: the process
    may use two, and BLAS runs one thread, so neither oversubscribes the
    cores and a forked child may call BLAS (``fork``)."""
    return usable_cores() >= 2 and blas_threads() == 1


@contextmanager
def helper_thread():
    """Run the body with one helper thread beside this one.

    ``share`` hands it pieces of work: ``DenseBlockPath`` its row chunks,
    and ``model.train`` the epoch's diagnostic decode.  Work given to the
    helper must not touch ``SparsePath`` (its work buffers are shared) or
    any function a tracer may wrap.  The thread is joined on exit, after
    the calls queued for it have run.
    """
    global _helper
    calls = _Calls()
    thread = threading.Thread(target=_serve, args=(calls,), name="dbgae-helper", daemon=True)
    thread.start()
    previous, _helper = _helper, calls
    try:
        yield
    finally:
        _helper = previous
        calls.put(None)
        thread.join()


def _serve(calls: _Calls):
    while (call := calls.get()) is not None:
        call()
        del call  # hold nothing of it while waiting for the next


def share(fn, count: int, meanwhile=None):
    """Call ``fn(k)`` for k in range(count), each once, on this thread and on
    the helper, if one runs and is free in time: both take pieces from one
    counter.  ``meanwhile``, if given, is called on this thread first, while
    the helper starts on the pieces; this thread then takes the pieces left
    and waits for the helper's.  An error raised on either thread is raised
    here, with its own type."""
    _Shared(fn, count).run(meanwhile)


class _Shared:
    """One ``share`` call: its pieces, the counter and the helper's error."""

    def __init__(self, fn, count: int):
        self.fn, self.count, self.next = fn, count, 0
        self.lock = threading.Lock()
        self.helping = False
        self.helped = threading.Event()
        self.error = None

    def _take(self) -> int | None:
        with self.lock:
            if self.next >= self.count:
                return None
            self.next += 1
            return self.next - 1

    def _work(self):
        while (k := self._take()) is not None:
            self.fn(k)

    def _help(self):
        """The helper's share; a helper that comes late finds no piece left
        and returns without touching anything."""
        with self.lock:
            if self.next >= self.count:
                return
            self.helping = True
        try:
            self._work()
        except BaseException as exc:  # raised again by run(), on the caller's thread
            self.error = exc
        finally:
            self.helped.set()

    def run(self, meanwhile=None):
        if _helper is not None:
            _helper.put(self._help)
        try:
            if meanwhile is not None:
                meanwhile()
            self._work()
        finally:
            with self.lock:
                self.next = self.count  # after an error, hand out no more pieces
                helping = self.helping
            if helping:
                self.helped.wait()
            self.fn = None  # its closure holds the call's arrays; a late helper never reads it
        if self.error is not None:
            raise self.error


# ---------------------------------------------------------------------------
# forked children (jsonl's encoder, and the Worker of model.train)
# ---------------------------------------------------------------------------


def fork(child) -> int:
    """Fork a process that runs ``child()`` and leaves by ``os._exit``, never
    returning into the caller's code; return its pid.

    Its status is 0 when ``child`` returns.  Whatever ``child`` raises is
    printed straight to file descriptor 2 (no inherited buffer is flushed)
    and ends it with status 1.  A forked child calls BLAS only when BLAS
    runs one thread (``second_core``), since the child of a process with
    BLAS threads must not: ``jsonl``'s encoder makes no BLAS call, and a
    ``Worker`` is forked only beside one BLAS thread.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        child()
        status = 0
    except BaseException:  # the process ends here either way
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def reap(pid: int, kill: bool = False) -> int:
    """Wait for the child ``pid``, killed first if ``kill``; its exit code."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


_LENGTH = struct.Struct("<Q")  # the length before each pickled reply


class Worker:
    """A forked process that calls ``fn`` on arrays the caller sends.

    ``send(arrays)`` writes float64 arrays of ``shapes`` to a pipe; the
    caller may change them as soon as it returns.  The worker reads them
    into buffers of its own and calls ``fn(*buffers)``, which sees the
    caller's objects as they were at the fork.  ``receive()`` waits for the
    return value, pickled back through a second pipe, or raises what the
    call raised, with its type and message; an exception pickle cannot
    rebuild comes back as a ``RuntimeError`` naming its type.  A worker
    that exits without a reply is a ``TrainingError`` naming its exit
    status.  One call is outstanding at a time.

    As a context manager, the worker is stopped on leaving: after an error,
    killed and reaped; else its request pipe is closed, which ends it, and
    it is reaped.  Create it before any thread starts beside the caller's.
    """

    def __init__(self, fn, shapes):
        self._shapes = [tuple(shape) for shape in shapes]
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()

        def serve():
            os.close(self._requests)
            os.close(self._replies)
            # a request is one byte, then the arrays: never empty
            buffers = [bytearray(1), *(np.empty(shape) for shape in self._shapes)]
            while _read_into(requests, buffers):
                try:
                    reply = pickle.dumps((True, fn(*buffers[1:])))
                except Exception as exc:  # sent to the caller, who raises it
                    reply = _pickled_error(exc)
                _write_all(replies, _LENGTH.pack(len(reply)) + reply)

        try:
            self._pid = fork(serve)
        except BaseException:
            os.close(self._requests)
            os.close(self._replies)
            raise
        finally:
            os.close(requests)
            os.close(replies)

    def send(self, arrays):
        arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]
        if [a.shape for a in arrays] != self._shapes:
            raise ValueError(f"arrays of shapes {[a.shape for a in arrays]}, not {self._shapes}")
        try:
            _write_all(self._requests, b"\x01")
            for a in arrays:
                _write_all(self._requests, a)
        except BrokenPipeError:
            raise self._exited() from None

    def receive(self):
        head = bytearray(_LENGTH.size)
        if not _read_into(self._replies, [head]):
            raise self._exited()
        reply = bytearray(*_LENGTH.unpack(head))
        if not _read_into(self._replies, [reply]):
            raise self._exited()
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        return value

    def _exited(self) -> TrainingError:
        status, self._pid = reap(self._pid), None
        return TrainingError(f"the worker process exited with status {status} without a result")

    def __enter__(self):
        return self

    def __exit__(self, kind, value, tb):
        os.close(self._requests)  # the worker reads the end of the file and exits
        os.close(self._replies)
        if self._pid is not None:
            reap(self._pid, kill=kind is not None)
            self._pid = None


def _pickled_error(exc: Exception) -> bytes:
    """``exc`` as a pickled reply, or a ``RuntimeError`` naming it if pickle
    cannot carry it (a local class, or arguments its class does not take)."""
    try:
        reply = pickle.dumps((False, exc))
        pickle.loads(reply)
    except Exception:
        reply = pickle.dumps((False, RuntimeError(f"{type(exc).__qualname__}: {exc}")))
    return reply


def _write_all(fd: int, data):
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _read_into(fd: int, buffers) -> bool:
    """Fill ``buffers`` from ``fd``, in order; False if the file ends first."""
    for buffer in buffers:
        view = memoryview(buffer).cast("B")
        while view:
            got = os.readv(fd, [view])
            if not got:
                return False
            view = view[got:]
    return True


# ---------------------------------------------------------------------------
# freed memory kept between epochs (used by model.train)
# ---------------------------------------------------------------------------

# glibc's mallopt parameters, and its default trim threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_DEFAULT_TRIM_THRESHOLD = 128 << 10
# Inside ``keep_freed_memory``, blocks below KEEP_MMAP_THRESHOLD come from the
# heap, and free memory at the heap's top is returned to the kernel only
# beyond KEEP_TRIM_THRESHOLD.  Each epoch frees its tape before the next
# builds its own; with glibc's defaults that memory went back to the kernel
# and was faulted in again, about 1,000 minor faults an epoch at 200 groups
# and 4,400-4,900 at 800, against none with these values after the first
# epoch.  The trim threshold alone left 200 groups 5,700 faults in 60
# epochs and 0.4 MB more peak RSS; the mmap threshold costs the 1600-group
# train 4 MB of peak RSS (201 -> 205 MB).  Over perfbench scale800 runs an
# 8 MiB mmap threshold raised peak RSS by 2.5-3.1 MB, and these values set
# for the whole process (GLIBC_TUNABLES) by 1.3-1.9 MB; these values,
# scoped to training, moved its median by -0.1 MB over ten runs.
KEEP_MMAP_THRESHOLD = 32 << 20
KEEP_TRIM_THRESHOLD = 128 << 20


def _c_library():
    """The C library's ``(mallopt, malloc_trim)``, or None where it has no
    ``mallopt``: both are glibc's."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    return mallopt, malloc_trim


@contextmanager
def keep_freed_memory():
    """Run the body with freed memory kept in the process, for reuse.

    On entry, glibc's mmap threshold becomes ``KEEP_MMAP_THRESHOLD`` and its
    trim threshold ``KEEP_TRIM_THRESHOLD``.  On exit, also after an error,
    the trim threshold goes back to glibc's default and ``malloc_trim(0)``
    returns the free memory, so later code frees to the kernel as before.
    The mmap threshold stays fixed: glibc cannot turn its dynamic threshold
    back on.  Where the C library has no ``mallopt`` this does nothing.
    """
    libc = _c_library()
    if libc is None:
        yield
        return
    mallopt, malloc_trim = libc
    mallopt(_M_MMAP_THRESHOLD, KEEP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, KEEP_TRIM_THRESHOLD)
    try:
        yield
    finally:
        mallopt(_M_TRIM_THRESHOLD, _DEFAULT_TRIM_THRESHOLD)
        malloc_trim(0)
