"""Pending-update queues of the selective solvers, one per ordering policy.

A queue holds at most one pending entry per variable index.  The solvers
enqueue an index together with its current value ``x_i`` and pending
residual ``xi_i``; the ordering rule lives here alone:

* ``variation`` -- largest pending residual served first (key ``-xi_i``),
* ``value``     -- smallest solution component served first (key ``x_i``),
* ``fifo``      -- first queued served first,
* ``lifo``      -- last queued served first.

Keys are served smallest first; re-enqueueing a pending index replaces its
entry exactly when the new key is strictly smaller, and ties between
distinct indices go to the lowest index.  Under that rule fifo is the key
"insertion count" and lifo its negation, which a plain queue and a stack
serve in O(1); :func:`make_queue` hands those out for the two policies.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

POLICIES = ("variation", "value", "fifo", "lifo")


class QueueUnderflow(IndexError):
    """Dequeue was called on an empty queue."""


class HeapQueue:
    """Min-heap of ``(key, index)`` pairs with lazy deletion.

    ``_key`` maps each pending index to its current key; a heap pair that no
    longer matches it was replaced and is skipped on dequeue.  Tuple order
    sends equal keys to the lowest index.  The value key ``x_i`` is frozen
    while ``i`` is pending, so under that policy no pair is ever replaced.
    """

    __slots__ = ("_heap", "_key", "_by_variation")

    def __init__(self, by_variation: bool) -> None:
        self._heap: list[tuple[float, int]] = []
        self._key: dict[int, float] = {}
        self._by_variation = by_variation

    def __len__(self) -> int:
        return len(self._key)

    def enqueue(self, index: int, x_i: float, xi_i: float) -> None:
        """Insert ``index``, or replace its entry if its key is strictly smaller."""
        key = -xi_i if self._by_variation else x_i
        old = self._key.get(index)
        if old is None or key < old:
            self._key[index] = key
            heappush(self._heap, (key, index))

    def dequeue(self) -> int:
        """Remove and return the index with the smallest key (ties: lowest index)."""
        heap, keys = self._heap, self._key
        while heap:
            key, index = heappop(heap)
            if keys.get(index) == key:
                del keys[index]
                return index
        raise QueueUnderflow("dequeue from empty queue")


class FifoQueue:
    """First-in first-out; a pending index keeps its place when re-enqueued."""

    __slots__ = ("_order", "_member")

    def __init__(self) -> None:
        self._order: deque[int] = deque()
        self._member: set[int] = set()

    def __len__(self) -> int:
        return len(self._member)

    def enqueue(self, index: int, x_i: float, xi_i: float) -> None:
        if index not in self._member:
            self._member.add(index)
            self._order.append(index)

    def dequeue(self) -> int:
        if not self._member:
            raise QueueUnderflow("dequeue from empty queue")
        index = self._order.popleft()
        self._member.remove(index)
        return index


class LifoQueue:
    """Last-in first-out; a re-enqueued index moves to the top.

    Superseded stack slots are skipped lazily on dequeue.
    """

    __slots__ = ("_stack", "_live", "_pushes")

    def __init__(self) -> None:
        self._stack: list[tuple[int, int]] = []
        self._live: dict[int, int] = {}
        self._pushes = 0

    def __len__(self) -> int:
        return len(self._live)

    def enqueue(self, index: int, x_i: float, xi_i: float) -> None:
        self._pushes += 1
        self._live[index] = self._pushes
        self._stack.append((index, self._pushes))

    def dequeue(self) -> int:
        stack, live = self._stack, self._live
        while stack:
            index, tag = stack.pop()
            if live.get(index) == tag:
                del live[index]
                return index
        raise QueueUnderflow("dequeue from empty queue")


def make_queue(policy: str):
    """Empty queue serving ``policy``'s ordering."""
    if policy in ("variation", "value"):
        return HeapQueue(by_variation=policy == "variation")
    if policy == "fifo":
        return FifoQueue()
    if policy == "lifo":
        return LifoQueue()
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
