"""The process around training: the helper thread and glibc's freed memory.

``helper_thread`` runs one thread beside the caller's, and ``share`` hands
it pieces of work (``kernels.DenseBlockPath``'s row chunks, and
``model.train``'s per-epoch diagnostic decode); ``blas_threads`` says
whether BLAS already runs threads of its own.  ``keep_freed_memory``
keeps the memory one epoch frees in the process for the next.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import deque
from contextlib import contextmanager

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


def blas_threads() -> int:
    """The loaded OpenBLAS's thread count, from its ``openblas_get_num_threads``
    export (numpy's wheels rename it) through ctypes; 1 if none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for path in paths:
            for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
                get = getattr(ctypes.CDLL(path), name, None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    return max(1, get())
    except OSError:  # no /proc (not Linux), or a mapped file that is gone
        pass
    return 1


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
