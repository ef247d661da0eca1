"""`fork_map` and `fork_chunks`: independent work spread over the CPUs this
process may use.

The calling process keeps a share of the work, so whatever it records about
the calls it makes still sees one item in W. Forked children inherit the
function and its inputs, so only their results are pickled.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fork_map(fn: Callable[[T], R], items: Iterable[T], max_workers: int | None = None) -> list[R]:
    """`[fn(item) for item in items]`, computed by W processes as `fork_chunks`
    computes it with chunks of one item."""
    return fork_chunks(lambda chunk: [fn(chunk[0])], items, 1, max_workers)


def fork_chunks(
    fn: Callable[[list[T]], list[R]],
    items: Iterable[T],
    size: int,
    max_workers: int | None = None,
) -> list[R]:
    """One result per item, computed by W processes: `fn` takes a chunk, a
    list of up to `size` items of one stripe, and returns their results.

    W = min(max_workers or the number of CPUs in `os.sched_getaffinity`
    (1 where the platform cannot say), len(items)). This process
    computes the stripe of items 0, W, 2W, ...; W - 1 children made with
    `os.fork` compute the others, one stripe each, and send their stripe back
    once, pickled through a pipe. Each stripe goes to `fn` in chunks of
    `size`, in order. While they run, each of the W processes is pinned to a
    CPU of its own. W = 1 and platforms without `fork` run the plain loop
    over chunks of consecutive items.

    If chunks fail, the exception of the failing chunk with the lowest first
    item index is raised (with chunks of one, the exception the plain loop
    would raise); a child's comes back pickled, without its traceback. A child that dies before it has sent its
    stripe raises `BrokenProcessPool`. If this process is interrupted
    (Ctrl-C), its children are killed; they are always reaped before this
    returns.
    """
    items = list(items)
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    workers = min(max_workers or len(allowed), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [result for start in range(0, len(items), size) for result in fn(items[start : start + size])]

    cpus = sorted(allowed)
    pinned = False
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    payloads: list[bytes] = []
    statuses: list[int] = []
    try:
        for start in range(1, workers):
            read_end, write_end = os.pipe()
            # SIGINT waits until the child is in `_serve` and this process has listed it.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[start::workers], size, write_end, mask, cpus, start)
                children.append((pid, read_end))
            except BaseException:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pinned = _pin(cpus, 0)  # only now, so the children did not inherit it
        stripes = [_stripe(fn, items[::workers], size)]
        payloads = [_read_all(read_end) for _, read_end in children]
    finally:
        for pid, read_end in children:
            os.close(read_end)
            if len(payloads) < len(children):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        if pinned:
            os.sched_setaffinity(0, allowed)

    for (pid, _), payload, status in zip(children, payloads, statuses):
        if status != 0:
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool(
                f"forked worker {pid} exited with status {status} before sending its results"
            )
        stripes.append(pickle.loads(payload))
    failures = [
        (start + len(values) * workers, error)
        for start, (values, error) in enumerate(stripes)
        if error is not None
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * len(items)
    for start, (values, _) in enumerate(stripes):
        results[start::workers] = values
    return results


def _pin(cpus: list[int], worker: int) -> bool:
    """Keep this process, worker `worker`, on a CPU of its own; False if it
    stays unpinned. Left alone, the scheduler can keep a new child on its
    parent's CPU for a few hundred milliseconds."""
    if not cpus or not hasattr(os, "sched_setaffinity"):
        return False
    try:
        os.sched_setaffinity(0, {cpus[worker % len(cpus)]})
    except OSError:  # a CPU listed by a caller that this process may not use
        return False
    return True


def _stripe(fn, items: list, size: int) -> tuple[list, Exception | None]:
    """`fn` of each chunk of `size` items in turn, up to the first that
    raises, and its exception."""
    values = []
    for start in range(0, len(items), size):
        try:
            values += fn(items[start : start + size])
        except Exception as err:
            return values, err
    return values, None


def _serve(fn, items: list, size: int, write_end: int, mask, cpus: list[int], worker: int) -> None:
    """In forked child `worker`: restore the signal mask, pin itself, compute
    the stripe, write it pickled to `write_end`, and leave with `os._exit`,
    so no handler or buffer inherited from the parent runs."""
    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _pin(cpus, worker)
        values, error = _stripe(fn, items, size)
        if error is not None:
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:  # an exception the parent could not rebuild
                error = RuntimeError(f"{type(error).__name__}: {error}")
        payload = memoryview(pickle.dumps((values, error), pickle.HIGHEST_PROTOCOL))
        while payload:
            payload = payload[os.write(write_end, payload) :]
        status = 0
    finally:
        os._exit(status)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)
