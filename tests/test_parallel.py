from __future__ import annotations

import os

import pytest

from corrindex.parallel import fork_chunks, fork_map


def _square_or_fail(x: int) -> int:
    if x in (3, 4):
        raise ValueError(f"item {x}")
    return x * x


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_fork_map_equals_the_plain_loop(workers):
    items = list(range(10))
    assert fork_map(lambda x: (x, x / 7), items, workers) == [(x, x / 7) for x in items]


@pytest.mark.parametrize("workers", [2, 3])
def test_fork_map_computes_items_0_w_2w_in_the_calling_process(workers):
    here = os.getpid()
    computed_here = [x for x, pid in fork_map(lambda x: (x, os.getpid()), range(7), workers) if pid == here]
    assert computed_here == list(range(0, 7, workers))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fork_map_raises_the_lowest_index_failure(workers):
    # on 2 workers item 3 fails in the child and item 4 in this process
    with pytest.raises(ValueError, match="^item 3$"):
        fork_map(_square_or_fail, range(8), workers)


class _TwoArgError(Exception):
    def __init__(self, code: int, why: str):
        super().__init__(f"{code}: {why}")


def test_fork_map_child_exception_that_cannot_be_rebuilt_keeps_type_name_and_message():
    def fail(x):
        if x == 1:
            raise _TwoArgError(7, "bad")
        return x

    with pytest.raises(RuntimeError, match="^_TwoArgError: 7: bad$"):
        fork_map(fail, range(2), 2)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
def test_fork_map_restores_the_callers_cpu_affinity():
    allowed = os.sched_getaffinity(0)
    fork_map(lambda x: x, range(4), 2)
    assert os.sched_getaffinity(0) == allowed
    with pytest.raises(ValueError):
        fork_map(_square_or_fail, range(8), 2)
    assert os.sched_getaffinity(0) == allowed


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs"
)
def test_fork_map_pins_each_process_to_a_cpu_of_its_own():
    cpus = sorted(os.sched_getaffinity(0))
    assert fork_map(lambda x: os.sched_getaffinity(0), range(2), 2) == [{cpus[0]}, {cpus[1]}]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2, 4])
def test_fork_chunks_hands_fn_consecutive_items_of_one_stripe(workers, size):
    results = fork_chunks(lambda chunk: [(x, tuple(chunk)) for x in chunk], range(10), size, workers)
    assert [x for x, _ in results] == list(range(10))
    for x, chunk in results:
        assert x in chunk and len(chunk) <= size
        assert all(b - a == workers for a, b in zip(chunk, chunk[1:]))


@pytest.mark.parametrize("workers, first", [(1, 2), (2, 1)])
def test_fork_chunks_raises_the_failure_of_the_chunk_with_the_lowest_first_item(workers, first):
    # items 3 and 4 fail: serially in chunk [2, 3]; on 2 workers in the
    # child's chunk [1, 3] and in this process's chunk [4, 6]
    def fail(chunk):
        if {3, 4} & set(chunk):
            raise ValueError(f"chunk from {chunk[0]}")
        return chunk

    with pytest.raises(ValueError, match=f"^chunk from {first}$"):
        fork_chunks(fail, range(8), 2, workers)
