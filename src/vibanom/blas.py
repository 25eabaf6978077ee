"""The OpenBLAS thread count, read and pinned through ctypes.

numpy's wheels bundle OpenBLAS, whose threads split each large GEMM. The
task runner (vibanom.parallel), on which scoring and every GEMM of
training run, has worker threads of its own instead, so while it runs it
pins OpenBLAS to one thread (one_thread) and restores the previous count
afterwards. It is the one place that sets the pin; other callers keep the
library default.

The library is the one the loader mapped: the line of /proc/self/maps that
names an openblas shared object, looked up on first use (numpy is loaded
by then, since every vibanom module imports it). Its thread functions are
scipy_openblas_{get,set}_num_threads64_ in numpy's own wheels, else
openblas_{get,set}_num_threads. Where none is found (another BLAS, or no
/proc), thread_count() is None and one_thread() does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

# serializes pinned sections, so two concurrent ones cannot leave the pin
# behind by restoring each other's count; reentrant, so a pinned block that
# enters another never deadlocks, although nothing in the package nests them
_PIN_LOCK = threading.RLock()


@functools.cache
def _functions():
    """(get_num_threads, set_num_threads) of the mapped OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = [line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line]
    except OSError:
        return None
    if not paths:
        return None
    try:
        lib = ctypes.CDLL(paths[0])
    except OSError:
        return None
    for get_name, set_name in (
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
        ("openblas_get_num_threads", "openblas_set_num_threads"),
    ):
        get = getattr(lib, get_name, None)
        put = getattr(lib, set_name, None)
        if get is not None and put is not None:
            get.restype = ctypes.c_int
            get.argtypes = []
            put.restype = None
            put.argtypes = [ctypes.c_int]
            return get, put
    return None


def thread_count() -> int | None:
    """OpenBLAS's current thread count, or None where it is not found."""
    functions = _functions()
    return None if functions is None else functions[0]()


def set_thread_count(count: int) -> None:
    """Set OpenBLAS's thread count; a no-op where it is not found."""
    functions = _functions()
    if functions is not None:
        functions[1](count)


@contextlib.contextmanager
def one_thread():
    """Pin OpenBLAS to one thread for the block, then restore its count,
    also when the block raises. Pinned blocks of different threads run one
    at a time; a thread may nest them, and the outermost restores the
    count it found."""
    if _functions() is None:
        yield
        return
    with _PIN_LOCK:
        before = thread_count()
        set_thread_count(1)
        try:
            yield
        finally:
            set_thread_count(before)
