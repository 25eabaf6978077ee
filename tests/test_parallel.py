"""Tests for the task runner that scoring and training share, and for the
OpenBLAS pin it holds while its tasks run.

The scoring walk's own tests (order, first error, first-round barrier,
worker-count rule) are in test_fleet.py; training's are in
test_training.py.
"""

import gc
import os
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from vibanom import blas, parallel


def bounded(fn, timeout=30):
    """fn() on a daemon thread joined with a timeout, so a deadlock fails
    the test instead of stalling the suite or its exit."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "still running after %d s" % timeout
    if "error" in box:
        raise box["error"]
    return box.get("value")


class TestPin:
    def test_a_pinned_block_may_enter_another(self):
        def nested():
            before = blas.thread_count()
            counts = []
            with blas.one_thread():
                counts.append(blas.thread_count())
                with blas.one_thread():
                    counts.append(blas.thread_count())
                counts.append(blas.thread_count())
            return before, counts, blas.thread_count()

        before, counts, after = bounded(nested)
        assert after == before
        if before is not None:
            assert counts == [1, 1, 1]

    def test_other_threads_wait_for_a_held_pin(self):
        order = []
        inside = threading.Event()
        release = threading.Event()

        def holder():
            with blas.one_thread():
                inside.set()
                release.wait(10)
                order.append("holder out")

        def waiter():
            inside.wait(10)
            with blas.one_thread():
                order.append("waiter in")

        threads = [threading.Thread(target=target, daemon=True) for target in (holder, waiter)]
        for thread in threads:
            thread.start()
        inside.wait(10)
        time.sleep(0.2)  # the waiter tries to enter while the pin is held
        release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        if blas.thread_count() is not None:  # without OpenBLAS nothing is held
            assert order == ["holder out", "waiter in"]


class TestRunInOrder:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_in_task_order(self, monkeypatch, workers):
        monkeypatch.setattr(parallel, "_worker_count", lambda: workers)
        idents = set()

        def task(k, meet):
            idents.add(threading.get_ident())
            return k * k

        assert bounded(lambda: parallel.run_in_order(task, 9)) == [k * k for k in range(9)]
        assert len(idents) <= workers

    @pytest.mark.parametrize("workers", [1, 4])
    def test_tasks_keep_the_callers_numpy_error_state(self, monkeypatch, workers):
        # np.errstate is a context variable; each worker runs in a copy of
        # the caller's context, so an overflow raises on every thread. The
        # first round puts tasks 0 to workers - 1 on distinct threads.
        monkeypatch.setattr(parallel, "_worker_count", lambda: workers)
        big = np.full(4, 3e38, np.float32)

        def task(k, meet):
            meet()
            try:
                big * np.float32(2)
            except FloatingPointError:
                return threading.get_ident(), True
            return threading.get_ident(), False

        def run():
            with np.errstate(over="raise"):
                return parallel.run_in_order(task, workers)

        idents, raised = zip(*bounded(run))
        assert len(set(idents)) == workers
        assert all(raised)


class TestWorkers:
    """The runner's worker threads are kept across calls."""

    def test_calls_one_after_another_run_on_the_same_threads(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda: 3)

        def idents():
            seen = set()

            def task(k, meet):
                meet()  # the three tasks run on three distinct threads
                seen.add(threading.get_ident())

            parallel.run_in_order(task, 3)
            return seen

        def calls():
            first = idents()
            alive = threading.active_count()
            return first, idents(), alive, threading.active_count(), threading.get_ident()

        first, second, alive_before, alive_after, caller = bounded(calls)
        assert first == second and len(first) == 3 and caller in first
        assert alive_after <= alive_before

    def test_a_call_keeps_nothing_of_its_tasks_alive(self, monkeypatch):
        # a worker that held its last job until the next one kept that
        # call's tasks and results, and so their arrays, in memory
        monkeypatch.setattr(parallel, "_worker_count", lambda: 2)

        class Payload:
            pass

        def call():
            payload = Payload()
            parallel.run_in_order(lambda k, meet: payload, 2)
            return weakref.ref(payload)

        ref = bounded(call)
        gc.collect()
        assert ref() is None

    def test_callers_on_many_threads_share_the_workers(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda: 4)
        interval = sys.getswitchinterval()

        def calls(offset):
            def task(k, meet):
                if meet is not None:
                    meet()  # hangs unless every call has distinct threads
                return offset + k

            return [parallel.run_in_order(task, 9) for _ in range(40)]

        def run():
            out = {}
            threads = [
                threading.Thread(target=lambda o=o: out.__setitem__(o, calls(o)), daemon=True)
                for o in (0, 100, 200, 300)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(20)
                assert not thread.is_alive()
            return out

        sys.setswitchinterval(1e-6)
        try:
            out = bounded(run)
        finally:
            sys.setswitchinterval(interval)
        assert out == {o: [[o + k for k in range(9)]] * 40 for o in (0, 100, 200, 300)}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_tasks(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda: 2)

        def task(k, meet):
            meet()
            return k

        assert bounded(lambda: parallel.run_in_order(task, 2)) == [0, 1]
        pid = os.fork()
        if pid == 0:  # the child: the parent's worker thread is not here
            status = 1
            try:
                status = 0 if parallel.run_in_order(task, 2) == [0, 1] else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0
