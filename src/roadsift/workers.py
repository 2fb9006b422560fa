"""An ordered map over forked worker processes, sized by the CPUs this
process may run on; what it yields does not depend on how many there are.
"""

from __future__ import annotations

import os
import signal
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice, starmap

# calls a worker process has queued or in hand, ahead of the reader
IN_FLIGHT_PER_WORKER = 4


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_pool(workers: int):
    """A pool of `workers` forked processes that ignore Ctrl-C, which the
    parent alone handles; None where fork is not a start method, or while
    another thread runs: a fork copies only the calling thread, so a lock
    held by another one would stay held in the worker."""
    # imported here, not at the top: every command imports this module,
    # and these add about 15 ms and 1.5 MB to its start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    if (threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    return ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))


def in_order(fn: Callable, arg_tuples: Iterable[tuple]) -> Iterator:
    """fn(*args) for each of arg_tuples, which may be endless, in order.

    The first IN_FLIGHT_PER_WORKER × CPUs tuples are taken first. If there
    are two or more, and two or more CPUs, forked workers (_fork_pool), at
    most one per tuple, keep that many calls in flight ahead of the reader;
    fn, its arguments and its results must pickle. An exception from call i
    is raised when the reader reaches item i, and closing the generator
    cancels the calls not yet started and joins the workers. Otherwise each
    call runs in-process when the reader asks for its item."""
    args = iter(arg_tuples)
    cpus = _cpu_count()
    window = list(islice(args, IN_FLIGHT_PER_WORKER * cpus))
    pool = (_fork_pool(min(cpus, len(window)))
            if cpus > 1 and len(window) > 1 else None)
    if pool is None:
        yield from starmap(fn, chain(window, args))
        return
    try:
        pending = deque(pool.submit(fn, *a) for a in window)
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, *a) for a in islice(args, 1))
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
