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

The other threads are workers kept for the life of the process: one is
started the first time a call finds none idle, and a call hands it work
through its queue and takes it back when the work is done. A caller that
runs one call after another therefore has the same threads, and the same
glibc malloc arenas, for every call, with their pages already mapped. A
forked child forgets the parent's workers, which do not exist in it, and
starts its own.

When a call's threads are as many as the caller's usable CPUs, each runs
on one of them alone for the call. Left to the scheduler, the caller and
a worker could share one CPU for seconds while the other idled: on a
2-vCPU VM (Xeon, Linux 6.18), the first training steps after 20 s of idle
took 21-27 ms a batch-64 step, against 13-18 ms with the threads apart.

Threads that wait block (a lock, a queue) and never spin in Python: a
thread running Python holds the interpreter lock that a GEMM ending on
another thread must take back.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import queue
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
    not glibc's it is a harmless malloc and free. In bench pairs (2 vCPUs)
    its removal cut fleet-monitor's monitor_frames_per_s to x0.75-0.87 and
    train_frames_per_s to x0.85-0.95 (4 of 4 pairs each); removing it and
    _on_cpu lost monitor_frames_per_s in 6 of 7 pairs, down to x0.41.
    """
    np.empty(16 << 20, np.uint8)


def _on_cpu(cpu, run):
    """run() with the calling thread on cpu alone (None: where it is),
    then with its own affinity back."""
    if cpu is None:
        return run()
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return run()
    finally:
        os.sched_setaffinity(0, before)


class _Worker:
    """A daemon thread that runs the jobs put in its queue, one at a time.

    A job is (run, done): the worker calls run(), returns itself to the
    idle workers and then releases the semaphore done.
    """

    def __init__(self):
        self.jobs = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="vibanom-worker", daemon=True).start()

    def _serve(self):
        while True:
            run, done = self.jobs.get()
            try:
                run()
                with _POOL_LOCK:
                    _IDLE.append(self)
            finally:
                # drop the job before the caller goes on, so its tasks,
                # frames and results are not kept alive until the next one
                del run
                done.release()


_POOL_LOCK = threading.Lock()
_IDLE: list[_Worker] = []  # under _POOL_LOCK


def _idle_worker() -> _Worker:
    """An idle worker, the one that went idle last, or a new one."""
    with _POOL_LOCK:
        if _IDLE:
            return _IDLE.pop()
    return _Worker()


def _forget_workers() -> None:
    """In a forked child only the forking thread exists: drop the
    parent's workers and a pool lock another thread may have held."""
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()
    _IDLE.clear()


if hasattr(os, "register_at_fork"):  # POSIX only, as is fork
    os.register_at_fork(after_in_child=_forget_workers)


def run_in_order(task, count: int) -> list:
    """[task(0), ..., task(count - 1)], run as described in the module
    docstring, on min(_worker_count(), count) threads. A thread takes a
    task only after its last one has returned, so a call holds at most
    that many tasks' working sets at once."""
    _raise_mmap_threshold()
    workers = min(_worker_count(), count)
    results: list = [None] * count
    errors = {}  # task index -> its exception, under lock
    lock = threading.Lock()
    taken = itertools.count()
    # one CPU each for the threads when they are as many as the caller's
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if workers == 1 or len(cpus) != workers:
        cpus = [None] * workers

    def work():
        while True:
            k = next(taken)
            with lock:
                if k >= count or (errors and k > min(errors)):
                    return
            try:
                results[k] = task(k)
            except BaseException as exc:
                with lock:
                    errors[k] = exc

    done = threading.Semaphore(0)
    sent = 0
    with blas.one_thread():
        try:
            for slot in range(1, workers):
                # each worker runs in a copy of the caller's context, so
                # numpy's error state (np.errstate) holds in every task alike
                job = functools.partial(contextvars.copy_context().run, _on_cpu, cpus[slot], work)
                _idle_worker().jobs.put((job, done))
                sent += 1
            _on_cpu(cpus[0], work)
        finally:
            for _ in range(sent):
                done.acquire()
    if errors:
        raise errors[min(errors)]
    return results
