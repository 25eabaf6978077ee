"""Tests for the task runner that scoring and training share, and for the
OpenBLAS pin it holds while its tasks run.

The scoring walk's own tests (order, first error, first-round barrier,
worker-count rule) are in test_fleet.py; training's are in
test_training.py.
"""

import threading
import time

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
