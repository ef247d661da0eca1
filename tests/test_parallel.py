from __future__ import annotations

import os

import pytest

from corrindex.parallel import fork_chunks


def _square_or_fail(chunk: list[int]) -> list[int]:
    if {3, 4} & set(chunk):
        raise ValueError(f"item {chunk[0]}")
    return [x * x for x in chunk]


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_fork_chunks_of_one_equal_the_plain_loop(workers):
    items = list(range(10))
    assert fork_chunks(lambda chunk: [(x, x / 7) for x in chunk], items, 1, workers) == [
        (x, x / 7) for x in items
    ]


@pytest.mark.parametrize("workers", [2, 3])
def test_fork_chunks_computes_items_0_w_2w_in_the_calling_process(workers):
    here = os.getpid()
    results = fork_chunks(lambda chunk: [(x, os.getpid()) for x in chunk], range(7), 1, workers)
    assert [x for x, pid in results if pid == here] == list(range(0, 7, workers))


class _TwoArgError(Exception):
    def __init__(self, code: int, why: str):
        super().__init__(f"{code}: {why}")


def test_fork_chunks_child_exception_that_cannot_be_rebuilt_keeps_type_name_and_message():
    def fail(chunk):
        if chunk == [1]:
            raise _TwoArgError(7, "bad")
        return chunk

    with pytest.raises(RuntimeError, match="^_TwoArgError: 7: bad$"):
        fork_chunks(fail, range(2), 1, 2)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
def test_fork_chunks_restores_the_callers_cpu_affinity():
    allowed = os.sched_getaffinity(0)
    fork_chunks(lambda chunk: chunk, range(4), 1, 2)
    assert os.sched_getaffinity(0) == allowed
    with pytest.raises(ValueError):
        fork_chunks(_square_or_fail, range(8), 1, 2)
    assert os.sched_getaffinity(0) == allowed


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs"
)
def test_fork_chunks_pins_each_process_to_a_cpu_of_its_own():
    cpus = sorted(os.sched_getaffinity(0))
    pinned = fork_chunks(lambda chunk: [os.sched_getaffinity(0) for _ in chunk], range(2), 1, 2)
    assert pinned == [{cpus[0]}, {cpus[1]}]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2, 4])
def test_fork_chunks_hands_fn_consecutive_items_of_one_stripe(workers, size):
    results = fork_chunks(lambda chunk: [(x, tuple(chunk)) for x in chunk], range(10), size, workers)
    assert [x for x, _ in results] == list(range(10))
    for x, chunk in results:
        assert x in chunk and len(chunk) <= size
        assert all(b - a == workers for a, b in zip(chunk, chunk[1:]))


@pytest.mark.parametrize(
    "workers, size, first", [(1, 2, 2), (2, 2, 1), (1, 1, 3), (2, 1, 3), (3, 1, 3)]
)
def test_fork_chunks_raises_the_failure_of_the_chunk_with_the_lowest_first_item(workers, size, first):
    # items 3 and 4 fail: in chunks of 2, serially in chunk [2, 3] and on 2
    # workers in the child's chunk [1, 3] and this process's chunk [4, 6]; in
    # chunks of one, item 3 whatever the workers (on 2, item 4 fails here)
    with pytest.raises(ValueError, match=f"^item {first}$"):
        fork_chunks(_square_or_fail, range(8), size, workers)
