"""The counter store in :mod:`repro.obs`.

Process-wide named counters (add, prefix read and reset, absorb of a
movement), the one snapshot-difference rule, and the instance-counter
walker that carries a process shard's movement of backend and decoder
counters home onto the caller's objects.  The fan-out paths built on it
are covered in ``test_sharded_execution.py`` and ``test_qec_sampling.py``.
"""

import pickle
import sys
import threading

import pytest

from repro import obs
from repro.execution import StatevectorBackend

PREFIX = "tests.obs."


@pytest.fixture(autouse=True)
def clean_prefix():
    obs.reset(PREFIX)
    yield
    obs.reset(PREFIX)


class Leaf:
    obs_counters = ("count",)

    def __init__(self):
        self.count = 0


class Parent:
    obs_counters = ("hits", "child", "missing")

    def __init__(self, child):
        self.hits = 0
        self.child = child
        self.missing = None  # an unset child is skipped


def test_prefix_read_and_reset():
    obs.add(PREFIX + "a.x", 2)
    obs.add(PREFIX + "a.y", 3)
    obs.add(PREFIX + "a.y")
    obs.add(PREFIX + "ab", 7)
    assert obs.read(PREFIX + "a.") == {"x": 2, "y": 4}
    assert obs.read(PREFIX) == {"a.x": 2, "a.y": 4, "ab": 7}
    obs.reset(PREFIX + "a.")
    assert obs.read(PREFIX) == {"ab": 7}
    assert obs.read(PREFIX + "a.") == {}


def test_absorb_replays_a_movement():
    obs.add(PREFIX + "still", 5)
    before = obs.read()
    obs.add(PREFIX + "moved", 3)
    obs.add(PREFIX + "new", 1)
    movement = obs.delta(before, obs.read())
    assert movement == {PREFIX + "moved": 3, PREFIX + "new": 1}
    obs.absorb(movement)
    assert obs.read(PREFIX) == {"still": 5, "moved": 6, "new": 2}


def test_instance_counters_walk_nested_objects_and_tuples():
    shared = Leaf()
    parent = Parent(shared)
    head = ("not counted", parent, shared)
    # A tuple is walked per position; an object reached twice counts once.
    before = obs.instance_counters(head)
    assert before == {"1.hits": 0, "1.child.count": 0}
    # A worker process moves a pickled copy; the movement replays onto
    # the caller's objects.
    worker_head = pickle.loads(pickle.dumps(head))
    obs.bump(worker_head[1], "hits", 4)
    obs.bump(worker_head[1].child, "count")
    movement = obs.delta(before, obs.instance_counters(worker_head))
    assert movement == {"1.hits": 4, "1.child.count": 1}
    obs.absorb_instances(head, movement)
    assert (parent.hits, shared.count) == (4, 1)
    assert obs.instance_counters(parent) == {"hits": 4, "child.count": 1}


def test_backend_invocations_are_instance_counters():
    backend = StatevectorBackend()
    backend._count_invocations(2)
    copy = pickle.loads(pickle.dumps(backend))  # no lock to drop
    assert obs.instance_counters(copy) == {"invocations": 2}
    copy._count_invocations()
    assert backend.invocations == 2


def test_exact_totals_from_eight_threads():
    target = Leaf()
    rounds = 30000
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait(timeout=60)
        for _ in range(rounds):
            obs.add(PREFIX + "total")
            obs.bump(target, "count")
            obs.absorb({PREFIX + "pair": 2})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert obs.read(PREFIX) == {"total": 8 * rounds, "pair": 16 * rounds}
    assert target.count == 8 * rounds
