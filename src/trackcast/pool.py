"""How trackcast uses the cores and numpy's OpenBLAS.

Every command holds numpy's OpenBLAS to one thread (``one_blas_thread``,
entered by ``cli.main``): the products are too small to gain from BLAS
threads, and a sum split across threads changes its last bits.
trackcast starts no thread; a second core runs a forked process, which
inherits the parent's malloc settings.  ``forked_map(fn, n)`` is
``[fn(i) for i in range(n)]`` with item i computed by worker ``i % k``,
each on a core of its own under one BLAS thread.  It trains bagging's
members and predicts an ensemble's members; ``predict_batch``'s chunks
stay in the caller, since forked per prediction they took an unbagged
38-epoch GRU run 18% more CPU time and no less wall time (2-core box).

- k is one process per usable core, at most one per item; 1, the plain
  loop, where numpy's OpenBLAS is not found, so its threads cannot be
  held to one, and where another thread runs: a fork copies every lock
  that thread holds, but not the thread, so nothing would release them.
- Worker 0 is this process: it forks workers 1 to k - 1 and computes
  its own items before it reads theirs, which a worker sends in one
  piece once its share is done.  So no process waits for another before
  its own share is done, however unequal the items' times.
- Results are taken in item order and the first error met is raised,
  the lowest-index item's: an item that depends only on its index and
  inputs gives the plain loop's bytes on any number of cores.
- Every worker is killed, if still running, and reaped before the map
  returns or raises, also on an interrupt; where the C library has
  ``prctl``, the kernel kills a worker whose parent ends in any way.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import threading

import numpy as np

_PR_SET_PDEATHSIG = 1  # prctl's option number, from <linux/prctl.h>


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy itself
    loaded, as ctypes functions, or None where none is found.  SciPy maps
    a second OpenBLAS without numpy's symbols, so only numpy's own install
    (the wheel's ``numpy.libs``) is searched, in the mappings that
    /proc/self/maps lists on Linux; elsewhere this finds nothing."""
    root = os.path.dirname(np.__file__)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return None
    for path in sorted(paths):
        if not (path.startswith(root) and "openblas" in os.path.basename(path)):
            continue
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread until the block ends, then
    restore the count it had, also on error; nothing where no OpenBLAS
    is found."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _pool_size(items: int) -> int:
    """``forked_map``'s default k over ``items`` (see the module docstring)."""
    if _openblas_threads() is None or threading.active_count() > 1:
        return 1
    return max(1, min(items, _usable_cores()))


def _share(fn, items) -> tuple[list, Exception | None]:
    """The results of ``fn`` over ``items`` up to the first error, and that error or None."""
    results = []
    for i in items:
        try:
            results.append(fn(i))
        except Exception as exc:
            return results, exc
    return results, None


def _received(reader) -> tuple[list, Exception | None]:
    """The ``_share`` a forked worker sends."""
    try:
        return pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError("a forked worker ended without sending its results") from None


def _work(fn, items, out, inherited, parent: int) -> None:
    """A forked worker's whole life: its ``_share`` of ``fn`` over ``items``,
    pickled to ``out`` in one piece once done, so it never waits on the pipe
    before then; then ``os._exit``, so no cleanup of the parent's runs twice
    and no error escapes into the parent's code."""
    try:
        prctl = getattr(ctypes.CDLL(None), "prctl", None)
        if prctl is not None:
            prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        for reader in inherited:
            reader.close()
        out.write(pickle.dumps(_share(fn, items)))
        out.flush()
    finally:
        os._exit(0)


def forked_map(fn, n: int, k: int | None = None) -> list:
    """``[fn(i) for i in range(n)]`` on k processes, by default ``_pool_size(n)``."""
    k = _pool_size(n) if k is None else k
    if k < 2:
        return [fn(i) for i in range(n)]
    pids, readers, parent = [], [], os.getpid()
    try:
        with one_blas_thread():
            for w in range(1, k):
                fd_r, fd_w = os.pipe()
                readers.append(os.fdopen(fd_r, "rb"))
                with open(fd_w, "wb") as out:
                    pid = os.fork()
                    if pid == 0:
                        _work(fn, range(w, n, k), out, readers, parent)
                pids.append(pid)
            shares, results = [_share(fn, range(0, n, k))], []
            for i in range(n):
                if 0 < i < k:  # worker i's first item: its share is needed now
                    shares.append(_received(readers[i - 1]))
                done, error = shares[i % k]
                if i // k == len(done):
                    raise error
                results.append(done[i // k])
            return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
