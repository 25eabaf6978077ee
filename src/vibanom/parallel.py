"""The ordered task runner that scoring and training share.

A job is cut into a fixed number of tasks, each a function of its index:
scoring's 16-frame tasks, training's 32-frame step and validation tasks.
run_in_order runs them on one thread per usable CPU (_worker_count), the
calling thread among them. The threads take the tasks in index order, and
the results come back in that order. When a task raises, the threads take
only tasks before the first failing one, and the error raised is the first
in task order, so both are those of a sequential loop.

While the tasks run, OpenBLAS is pinned to one thread (vibanom.blas) and
its count is restored afterwards; nothing else in the package sets the
pin, so every GEMM of scoring and training runs pinned. The threads then
share the cores without BLAS threads competing for them. A task's result
depends only on its index, never on the thread that ran it, so a caller
whose tasks have fixed shapes gets the same bits for any worker count,
and, where OpenBLAS is found and pinned, for any number of cores.

Threads that wait block (a lock, the barrier, a join) and never spin in
Python: a thread running Python holds the interpreter lock that a GEMM
ending on another thread must take back.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading

import numpy as np

from . import blas

# threads at most, whatever the machine; fleet._IN_FLIGHT, the frames
# scored at once, is this many of its tasks
_MAX_WORKERS = 4


def _worker_count() -> int:
    """One worker per usable CPU, up to _MAX_WORKERS.

    Without an OpenBLAS to pin, the workers' GEMMs would compete with
    BLAS threads for the cores, which measured slower than one worker.
    """
    if blas.thread_count() is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


@functools.cache
def _raise_mmap_threshold() -> None:
    """Free one untouched 16 MB malloc block, once per process.

    glibc's malloc maps each block above its mmap threshold (128 KB at
    start) afresh and unmaps it on free, so every first touch of its pages
    faults; the tasks' temporaries (786 KB for 16 three-axis frames scored,
    several MB for a 32-frame training task) are such blocks. Freeing a
    mapped block raises the threshold to that block's size, and the trim
    threshold to twice that, so later temporaries come from a heap that
    keeps its pages. A 6 x 240-frame monitor call took about 3.1k minor
    faults with this, against about 51k without; a batch-64 training step
    in a fresh process about 236, against about 2,530. numpy allocates an
    empty array's data with malloc and frees it with the array; the block
    is never touched, so it adds no resident memory, and where malloc is
    not glibc's it is a harmless malloc and free.
    """
    np.empty(16 << 20, np.uint8)


def run_in_order(task, count: int) -> list:
    """[task(0, meet), ..., task(count - 1, meet)], run as described in the
    module docstring, on workers = min(_worker_count(), count) threads.

    Tasks 0 to workers - 1 get a function meet, the later ones None. A
    task may call meet() once, when it holds its working set: it waits
    there until each of those first tasks has called it, so they run on
    distinct threads and every run reaches that many working sets at
    once. This is for the peak memory's sake, not speed: without it the
    peak of a short run depends on whether the threads' peaks happen to
    overlap. Either all first tasks call meet or none do; scoring's tasks
    call it, training's do not. Later tasks do not wait for each other.
    """
    _raise_mmap_threshold()
    workers = min(_worker_count(), count)
    results: list = [None] * count
    errors = {}  # task index -> its exception, under lock
    lock = threading.Lock()
    taken = itertools.count()
    barrier = threading.Barrier(workers)

    def meet():
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a task failed: go on alone

    def work():
        while True:
            k = next(taken)
            with lock:
                if k >= count or (errors and k > min(errors)):
                    return
            try:
                results[k] = task(k, meet if k < workers else None)
            except BaseException as exc:
                with lock:
                    errors[k] = exc
                barrier.abort()

    with blas.one_thread():
        # each thread runs in a copy of the caller's context, so numpy's
        # error state (np.errstate) holds in every task alike
        threads = [
            threading.Thread(target=contextvars.copy_context().run, args=(work,))
            for _ in range(workers - 1)
        ]
        try:
            for thread in threads:
                thread.start()
            work()
        finally:
            # frees a thread still waiting, which only a caller that
            # failed outside a task can leave behind
            barrier.abort()
            for thread in threads:
                if thread.ident is not None:  # started
                    thread.join()
    if errors:
        raise errors[min(errors)]
    return results
