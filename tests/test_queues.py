import numpy as np
import pytest

from glbopt import FifoQueue, HeapQueue, LifoQueue, QueueUnderflow, make_queue
from glbopt.queues import POLICIES


def keyed_queue():
    """The value-ordered heap, whose key is the ``x_i`` argument itself."""
    return make_queue("value")


def drain(q):
    return [q.dequeue() for _ in range(len(q))]


def test_enqueue_inserts_new_index():
    q = keyed_queue()
    q.enqueue(3, 5.0, 0.0)
    assert len(q) == 1 and drain(q) == [3]


def test_enqueue_replaces_on_strictly_better_key():
    q = keyed_queue()
    q.enqueue(3, 5.0, 0.0)
    q.enqueue(1, 3.0, 0.0)
    q.enqueue(3, 2.0, 0.0)
    assert len(q) == 2 and drain(q) == [3, 1]
    with pytest.raises(QueueUnderflow):  # the replaced pair is not served again
        q.dequeue()


def test_enqueue_keeps_existing_on_worse_or_equal_key():
    q = keyed_queue()
    q.enqueue(3, 2.0, 0.0)
    q.enqueue(1, 3.0, 0.0)
    q.enqueue(3, 5.0, 0.0)
    q.enqueue(3, 2.0, 0.0)
    assert len(q) == 2 and drain(q) == [3, 1]


def test_dequeue_extracts_minimum_key():
    q = keyed_queue()
    q.enqueue(1, 3.0, 0.0)
    q.enqueue(2, 1.0, 0.0)
    assert q.dequeue() == 2
    assert len(q) == 1 and drain(q) == [1]


def test_dequeue_breaks_ties_toward_lowest_index():
    q = keyed_queue()
    q.enqueue(2, 1.0, 0.0)
    q.enqueue(1, 1.0, 0.0)
    assert q.dequeue() == 1


def test_dequeue_singleton_then_underflow():
    q = keyed_queue()
    q.enqueue(7, 0.0, 0.0)
    assert q.dequeue() == 7
    assert len(q) == 0
    with pytest.raises(QueueUnderflow):
        q.dequeue()


def fill(policy):
    q = make_queue(policy)
    for index, x_i, xi_i in ((0, 1.0, 1.0), (1, 3.0, 4.0), (2, 2.0, 2.0)):
        q.enqueue(index, x_i, xi_i)
    return q


def test_key_for_variation_prefers_larger_residual():
    assert drain(fill("variation")) == [1, 2, 0]


def test_key_for_value_prefers_smaller_component():
    assert drain(fill("value")) == [0, 2, 1]


class ReferenceQueue:
    """Sorted-dict model of the replacement/extraction semantics: one entry
    per index, replaced only by a strictly smaller key, smallest key first,
    ties to the lowest index."""

    def __init__(self):
        self.entries = {}

    def enqueue(self, index, key):
        if index not in self.entries or key < self.entries[index]:
            self.entries[index] = key

    def dequeue(self):
        index = min(self.entries, key=lambda i: (self.entries[i], i))
        del self.entries[index]
        return index

    def __len__(self):
        return len(self.entries)


# Each policy's ordering as a ReferenceQueue key; ``count`` numbers the
# enqueue calls from 1.
KEY_RULES = {
    "variation": lambda x_i, xi_i, count: -xi_i,
    "value": lambda x_i, xi_i, count: x_i,
    "fifo": lambda x_i, xi_i, count: count,
    "lifo": lambda x_i, xi_i, count: -count,
}


def assert_matches_reference(policy, seed, n=30, steps=2500):
    """Drive ``make_queue(policy)`` and the model with random operations.

    Integer values force frequent ties.  ``x_i`` stays frozen while ``i`` is
    pending, as in the solvers, where a component changes only when served.
    """
    rng = np.random.default_rng(seed)
    q, ref = make_queue(policy), ReferenceQueue()
    pending_x = {}
    count = 0
    for _ in range(steps):
        if len(ref) and rng.random() < 0.4:
            index = ref.dequeue()
            assert q.dequeue() == index
            del pending_x[index]
        else:
            index = int(rng.integers(n))
            x_i = pending_x.setdefault(index, float(rng.integers(-40, 40)))
            xi_i = float(rng.integers(-50, 50))
            count += 1
            q.enqueue(index, x_i, xi_i)
            ref.enqueue(index, KEY_RULES[policy](x_i, xi_i, count))
        assert len(q) == len(ref) <= n
    while len(ref):
        assert q.dequeue() == ref.dequeue()
    with pytest.raises(QueueUnderflow):
        q.dequeue()


@pytest.mark.parametrize("seed", range(8))
def test_heap_matches_reference_model_under_fuzz(seed):
    # variation keys change freely while pending: replacement and stale pairs
    assert_matches_reference("variation", seed)


@pytest.mark.parametrize("policy", ["fifo", "lifo"])
@pytest.mark.parametrize("seed", range(5))
def test_fast_paths_match_heap_behavior(policy, seed):
    assert_matches_reference(policy, 100 + seed)


@pytest.mark.parametrize("seed", range(5))
def test_min_key_fast_path_matches_heap_under_frozen_keys(seed):
    assert_matches_reference("value", 200 + seed)


def test_fifo_dequeues_in_first_insertion_order():
    q = FifoQueue()
    for i in (4, 2, 9, 2, 4, 7):
        q.enqueue(i, 0.0, 0.0)
    assert drain(q) == [4, 2, 9, 7]


def test_lifo_dequeues_in_reverse_order_with_move_to_top():
    q = LifoQueue()
    for i in (4, 2, 9):
        q.enqueue(i, 0.0, 0.0)
    assert drain(q) == [9, 2, 4]
    for i in (4, 2, 9, 4):  # re-push of 4 moves it to the top
        q.enqueue(i, 0.0, 0.0)
    assert drain(q) == [4, 9, 2]


def test_min_key_queue_underflow():
    q = make_queue("value")
    q.enqueue(1, 0.5, 1.0)
    q.enqueue(1, 0.5, 2.0)  # frozen value key: the pending entry is kept
    assert q.dequeue() == 1
    with pytest.raises(QueueUnderflow):
        q.dequeue()


def test_make_queue_covers_all_policies():
    assert isinstance(make_queue("variation"), HeapQueue)
    assert isinstance(make_queue("value"), HeapQueue)
    assert isinstance(make_queue("fifo"), FifoQueue)
    assert isinstance(make_queue("lifo"), LifoQueue)
    with pytest.raises(ValueError):
        make_queue("dijkstra")
    assert set(POLICIES) == {"variation", "value", "fifo", "lifo"}
