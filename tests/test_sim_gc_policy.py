"""The engine-owned cyclic-collector policy.

``Simulator.run`` and ``Simulator.run_window`` raise the collector's
thresholds to ``GC_THRESHOLDS`` while they run and hand the caller's own
thresholds back on every way out: normal return, ``until`` slices, a
raising callback, nesting, and one ``run_window`` per shard thread.
"""

import gc

import pytest

from repro.sim import ShardedSimulation, Simulator
from repro.sim.engine import GC_THRESHOLDS

#: Caller thresholds no default or policy uses, so a restore is visible.
CALLER = (1234, 11, 12)


@pytest.fixture(autouse=True)
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    yield
    gc.set_threshold(*saved)


def _run(sim):
    sim.run()


def _run_until(sim):
    sim.run(until=5.0)


def _run_window(sim):
    sim.run_window(10.0)


LOOPS = [_run, _run_until, _run_window]


@pytest.mark.parametrize("loop", LOOPS)
def test_thresholds_raised_inside_and_restored_after(loop):
    sim = Simulator()
    seen = []
    sim.schedule_call(1.0, lambda: seen.append(gc.get_threshold()))
    loop(sim)
    assert seen == [GC_THRESHOLDS]
    assert gc.get_threshold() == CALLER


@pytest.mark.parametrize("loop", LOOPS)
def test_thresholds_restored_when_a_callback_raises(loop):
    sim = Simulator()

    def boom():
        raise RuntimeError("callback failed")

    sim.schedule_call(1.0, boom)
    with pytest.raises(RuntimeError, match="callback failed"):
        loop(sim)
    assert gc.get_threshold() == CALLER


def test_thresholds_restored_when_until_is_in_the_past():
    sim = Simulator(start_time=2.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)
    assert gc.get_threshold() == CALLER


def test_empty_queue_run_restores():
    Simulator().run()
    assert gc.get_threshold() == CALLER


def test_nested_run_keeps_the_outer_policy_and_restores_the_caller():
    outer = Simulator()
    seen = []

    def nested():
        inner = Simulator()
        inner.schedule_call(1.0, lambda: seen.append(("inner", gc.get_threshold())))
        inner.run()
        seen.append(("outer after inner", gc.get_threshold()))

    outer.schedule_call(1.0, nested)
    outer.run()
    assert seen == [
        ("inner", GC_THRESHOLDS),
        ("outer after inner", GC_THRESHOLDS),
    ]
    assert gc.get_threshold() == CALLER


def test_back_to_back_slices_each_restore():
    """The shape of a sliced benchmark run: many ``run(until=...)`` calls."""
    sim = Simulator()
    for i in range(100):
        sim.schedule_call(i * 0.01, lambda: None)
    between = set()
    for k in range(1, 65):
        sim.run(until=k / 64)
        between.add(gc.get_threshold())
    assert between == {CALLER}
    assert sim.events_processed == 100


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_sharded_windows_restore(executor):
    """Concurrent ``run_window`` calls on shard threads restore once, last."""
    sharded = ShardedSimulation(2)
    seen = []
    channels = {}

    def make_recv(shard):
        def recv(value):
            seen.append(gc.get_threshold())
            if value < 20:
                channels[shard].post(sharded.sims[shard].now + 1e-3, value + 1)

        return recv

    channels[0] = sharded.channel(0, 1, make_recv(1), min_delay=1e-3)
    channels[1] = sharded.channel(1, 0, make_recv(0), min_delay=1e-3)
    sharded.sims[0].schedule_call_at(0.0, make_recv(0), 0)
    sharded.run(until=0.1, executor=executor)
    assert len(seen) == 21 and set(seen) == {GC_THRESHOLDS}
    assert gc.get_threshold() == CALLER


class _CycleNode:
    """Half of a two-object reference cycle that counts its live instances."""

    __slots__ = ("peer",)
    live = 0

    def __init__(self):
        _CycleNode.live += 1
        self.peer = None

    def __del__(self):
        _CycleNode.live -= 1


def test_cycles_built_by_callbacks_are_collected_during_the_run():
    """The policy spaces collections out; it does not switch them off.

    200 000 unreachable cycles (400 000 tracked objects) are built by the
    run's callbacks.  With the collector running at the policy's
    thresholds the live count stays near one gen-0 batch; with the
    collector disabled it would reach every cycle ever built.
    """
    events, cycles_per_event = 20000, 10
    total = events * cycles_per_event
    peak = [0]

    def build_cycles():
        for _ in range(cycles_per_event):
            a, b = _CycleNode(), _CycleNode()
            a.peer, b.peer = b, a
        if _CycleNode.live > peak[0]:
            peak[0] = _CycleNode.live

    gc.collect()
    base = _CycleNode.live
    sim = Simulator()
    for i in range(events):
        sim.schedule_call(i * 1e-6, build_cycles)
    sim.run()
    gc.collect()
    assert _CycleNode.live == base
    # Unbounded growth would peak at 2 * total live nodes.
    assert peak[0] - base < total // 2
