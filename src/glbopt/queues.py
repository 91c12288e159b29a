"""Indexed priority queue with replacement semantics and the four update policies.

The selective solvers keep at most one pending entry per variable index.
Keys are served smallest first; re-enqueueing an index replaces its entry
exactly when the new key is strictly smaller, and ties between distinct
indices go to the lowest index.  Under this min-key convention the four
orderings reduce to the key choices in :func:`key_for`:

* ``variation`` -- largest pending residual served first (key ``-xi_i``),
* ``value``     -- smallest solution component served first (key ``x_i``),
* ``fifo``      -- first queued served first (key = insertion counter),
* ``lifo``      -- last queued served first (key = negated counter).

``fifo`` and ``lifo`` admit plain queue/stack implementations with behavior
identical to the heap; :func:`make_queue` hands those out by default.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

POLICIES = ("variation", "value", "fifo", "lifo")


def key_for(policy: str, index: int, x_i: float, xi_i: float, counter: int) -> float:
    """Priority key for pending index ``index`` under ``policy`` (smaller = sooner).

    ``x_i`` is the current value of the component, ``xi_i`` its pending
    residual, and ``counter`` the queue's running insertion count.
    """
    if policy == "variation":
        return -xi_i
    if policy == "value":
        return x_i
    if policy == "fifo":
        return float(counter)
    if policy == "lifo":
        return -float(counter)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


class QueueUnderflow(IndexError):
    """Dequeue was called on an empty queue."""


class PolicyQueue:
    """Binary min-heap of ``(key, index)`` pairs with one entry per index.

    A position map gives O(log n) key replacement without tombstones.
    ``insertions`` counts every enqueue call (successful or not) and is the
    counter that feeds the fifo/lifo keys.
    """

    __slots__ = ("_heap", "_pos", "insertions")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        self._pos: dict[int, int] = {}
        self.insertions = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, index: int) -> bool:
        return index in self._pos

    def key_of(self, index: int) -> float:
        return self._heap[self._pos[index]][0]

    def enqueue(self, index: int, key: float) -> None:
        """Insert ``index``, or replace its entry if ``key`` is strictly better."""
        self.insertions += 1
        pos = self._pos.get(index)
        if pos is None:
            self._heap.append((key, index))
            self._sift_up(len(self._heap) - 1)
        elif key < self._heap[pos][0]:
            self._heap[pos] = (key, index)
            self._sift_up(pos)

    def dequeue(self) -> int:
        """Remove and return the index with the smallest key (ties: lowest index)."""
        heap = self._heap
        if not heap:
            raise QueueUnderflow("dequeue from empty queue")
        top_index = heap[0][1]
        del self._pos[top_index]
        last = heap.pop()
        if heap:
            heap[0] = last
            self._pos[last[1]] = 0
            self._sift_down(0)
        return top_index

    # (key, index) tuples compare lexicographically, so equal keys resolve
    # toward the lowest index without extra bookkeeping.
    def _sift_up(self, pos: int) -> None:
        heap, index_of = self._heap, self._pos
        item = heap[pos]
        while pos > 0:
            parent_pos = (pos - 1) >> 1
            parent = heap[parent_pos]
            if item < parent:
                heap[pos] = parent
                index_of[parent[1]] = pos
                pos = parent_pos
            else:
                break
        heap[pos] = item
        index_of[item[1]] = pos

    def _sift_down(self, pos: int) -> None:
        heap, index_of = self._heap, self._pos
        end = len(heap)
        item = heap[pos]
        child = 2 * pos + 1
        while child < end:
            right = child + 1
            if right < end and heap[right] < heap[child]:
                child = right
            if heap[child] < item:
                heap[pos] = heap[child]
                index_of[heap[pos][1]] = pos
                pos = child
                child = 2 * pos + 1
            else:
                break
        heap[pos] = item
        index_of[item[1]] = pos


class MinKeyQueue:
    """Fast path for orderings whose pending keys can never improve.

    Valid only when a pending index is never offered a strictly smaller key;
    the value ordering qualifies because its key is the component value,
    which is frozen while the index is pending.  Re-enqueues of pending
    indices are then rejected without inspecting the key, exactly what
    PolicyQueue's replacement rule would do, so no stale entries arise.
    """

    __slots__ = ("_heap", "_member")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        self._member: set[int] = set()

    def __len__(self) -> int:
        return len(self._member)

    def __contains__(self, index: int) -> bool:
        return index in self._member

    def enqueue(self, index: int, key: float) -> None:
        if index not in self._member:
            self._member.add(index)
            heappush(self._heap, (key, index))

    def dequeue(self) -> int:
        if not self._member:
            raise QueueUnderflow("dequeue from empty queue")
        _, index = heappop(self._heap)
        self._member.remove(index)
        return index


class FifoQueue:
    """Insertion-order fast path; behaves exactly like PolicyQueue with fifo keys.

    A resident index re-enqueued would carry a larger counter key, so the
    replacement rule never fires and membership alone suffices.
    """

    __slots__ = ("_order", "_member")

    def __init__(self) -> None:
        self._order: deque[int] = deque()
        self._member: set[int] = set()

    def __len__(self) -> int:
        return len(self._member)

    def __contains__(self, index: int) -> bool:
        return index in self._member

    def enqueue(self, index: int, key: float = 0.0) -> None:
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
    """Stack fast path; a re-enqueued index moves to the top (strictly smaller
    negated-counter key always replaces under the heap semantics).

    Superseded stack slots are skipped lazily on dequeue.
    """

    __slots__ = ("_stack", "_live", "insertions")

    def __init__(self) -> None:
        self._stack: list[tuple[int, int]] = []
        self._live: dict[int, int] = {}
        self.insertions = 0

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, index: int) -> bool:
        return index in self._live

    def enqueue(self, index: int, key: float = 0.0) -> None:
        self.insertions += 1
        self._live[index] = self.insertions
        self._stack.append((index, self.insertions))

    def dequeue(self) -> int:
        stack, live = self._stack, self._live
        while stack:
            index, tag = stack.pop()
            if live.get(index) == tag:
                del live[index]
                return index
        raise QueueUnderflow("dequeue from empty queue")


def make_queue(policy: str):
    """Queue instance appropriate for ``policy`` (fast paths where the
    ordering admits one; ``variation`` needs true key replacement and gets
    the position-map heap)."""
    if policy == "variation":
        return PolicyQueue()
    if policy == "value":
        return MinKeyQueue()
    if policy == "fifo":
        return FifoQueue()
    if policy == "lifo":
        return LifoQueue()
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
