"""The process around training: the second core, forked children and
glibc's freed memory.

``second_core`` says whether work beside the caller's may take the second
core: ``usable_cores`` and ``blas_threads``, whether BLAS already runs
threads of its own.  ``model.train`` asks it once, and the answer decides
both of the second core's jobs.  ``share`` calls pieces of work
(``kernels.DenseBlockPath``'s row chunks) on the caller's thread and,
inside ``sharing(True)``, on one thread it starts for the call and joins
before it returns.  ``fork`` and ``reap`` start and end a child process
(``jsonl``'s encoder, ``Worker``); a ``Worker`` is a forked process that
serves calls on arrays, ``model.train``'s per-epoch diagnostic decode.
``keep_freed_memory`` keeps the memory one epoch frees in the process for
the next.
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
from contextlib import contextmanager

import numpy as np

from .errors import TrainingError

# ---------------------------------------------------------------------------
# the second core
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# pieces of work shared with a thread per call (DenseBlockPath's row chunks)
# ---------------------------------------------------------------------------

_threads_allowed = False  # whether ``share`` may start a thread (``sharing``)


@contextmanager
def sharing(allowed: bool):
    """Run the body with ``share`` allowed to start a thread or not:
    ``model.train`` passes its ``second_core`` answer.  Outside any
    ``sharing(True)``, ``share`` starts none."""
    global _threads_allowed
    previous, _threads_allowed = _threads_allowed, allowed
    try:
        yield
    finally:
        _threads_allowed = previous


def share(fn, count: int):
    """Call ``fn(k)`` for k in range(count), each once.

    Inside ``sharing(True)`` and with more than one piece, this call starts
    one thread that takes pieces beside the caller's, both from one counter
    under a lock, and joins it before returning, so no thread outlives the
    call.  A piece must not touch ``SparsePath`` (its work buffers are
    shared) or any function a tracer may wrap.  After an error on either
    thread no more pieces are handed out, and the first error is raised
    here with its own type.
    """
    if not (_threads_allowed and count > 1):
        for k in range(count):
            fn(k)
        return
    pieces, lock, errors = iter(range(count)), threading.Lock(), []

    def work():
        try:
            while True:
                with lock:
                    k = None if errors else next(pieces, None)
                if k is None:
                    return
                fn(k)
        except BaseException as exc:  # raised again below, on the caller's thread
            with lock:
                errors.append(exc)

    thread = threading.Thread(target=work, name="dbgae-share", daemon=True)
    thread.start()
    try:
        work()
    finally:
        thread.join()
    if errors:
        raise errors[0]


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
