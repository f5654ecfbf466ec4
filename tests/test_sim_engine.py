"""Unit tests for the simulation kernel: clock, scheduling, run modes."""

import pytest

from repro.host.cpu import Core
from repro.sim import Simulator, SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_timeout_advances_clock(sim):
    fired = []
    sim.timeout(2.5).add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]


def test_timeout_carries_value(sim):
    timeout = sim.timeout(1.0, value="payload")
    sim.run()
    assert timeout.value == "payload"


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order(sim):
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay, value=delay).add_callback(
            lambda ev: order.append(ev.value)
        )
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fifo(sim):
    order = []
    for tag in range(5):
        sim.timeout(1.0, value=tag).add_callback(lambda ev: order.append(ev.value))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_clock_exactly(sim):
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_processes_boundary_events(sim):
    fired = []
    sim.timeout(4.0).add_callback(lambda ev: fired.append(True))
    sim.run(until=4.0)
    assert fired == [True]


def test_run_until_past_raises(sim):
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_drains_queue_without_until(sim):
    sim.timeout(1.0)
    sim.timeout(7.0)
    sim.run()
    assert sim.now == 7.0


def test_step_on_empty_queue_raises(sim):
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time(sim):
    sim.timeout(3.0)
    sim.timeout(1.5)
    assert sim.peek() == 1.5


def test_peek_empty_is_infinite(sim):
    assert sim.peek() == float("inf")


def test_schedule_call_runs_function(sim):
    seen = []
    sim.schedule_call(2.0, seen.append, "x")
    sim.run()
    assert seen == ["x"]


def test_run_until_event_returns_value(sim):
    event = sim.timeout(1.0, value=42)
    assert sim.run_until_event(event) == 42


def test_run_until_event_raises_failure(sim):
    event = sim.event()
    sim.schedule_call(1.0, lambda: event.fail(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run_until_event(event)


def test_run_until_event_detects_drained_queue(sim):
    event = sim.event()  # never triggered
    with pytest.raises(SimulationError):
        sim.run_until_event(event)


def test_run_until_event_respects_limit(sim):
    event = sim.timeout(10.0)
    with pytest.raises(SimulationError):
        sim.run_until_event(event, limit=1.0)


def test_clock_never_goes_backwards(sim):
    stamps = []
    for delay in (5.0, 1.0, 3.0, 1.0):
        sim.timeout(delay).add_callback(lambda ev: stamps.append(sim.now))
    sim.run()
    assert stamps == sorted(stamps)


def test_engine_fires_equal_timestamps_fifo():
    """Callbacks scheduled for the same instant run in schedule order."""
    sim = Simulator()
    fired = []
    # interleave two instants, scheduled out of order
    for i in range(64):
        sim.schedule_call(0.002, fired.append, (2, i))
    for i in range(64):
        sim.schedule_call(0.001, fired.append, (1, i))
    sim.run(until=0.01)
    assert fired == [(1, i) for i in range(64)] + [(2, i) for i in range(64)]


def test_event_and_call_entries_at_one_instant_fire_in_schedule_order():
    """Events and direct calls share one ``(time, seq)`` order."""
    sim = Simulator()
    core = Core(sim, name="c")
    fired = []

    def schedule_mixed(tag, delay):
        sim.timeout(delay, value=(tag, "timeout")).add_callback(
            lambda ev: fired.append(ev.value)
        )
        sim.schedule_call(delay, fired.append, (tag, "call"))
        sim.schedule_call_at(sim.now + delay, fired.append, (tag, "call_at"))
        core.execute_call(0.0, fired.append, (tag, "execute_call"))
        event = sim.event()
        event.add_callback(lambda ev: fired.append(ev.value))
        event.succeed((tag, "succeed"))

    kinds = ["timeout", "call", "call_at", "execute_call", "succeed"]
    for tag in range(3):
        schedule_mixed(tag, 0.0)
    # from inside a callback at a later instant, too
    sim.schedule_call(1.0, lambda: [schedule_mixed(tag, 0.0) for tag in (3, 4)])
    sim.run()
    assert fired == [(tag, kind) for tag in range(5) for kind in kinds]
    assert sim.now == 1.0


def test_execute_call_fires_at_the_same_float_time_as_execute():
    """The call entry's time is ``now + (finish - now)``, not ``finish``.

    On a busy core the two differ in the last bit for this ``(now, cost)``;
    ``execute`` has always scheduled the former, and the goldens pin it.
    """
    sim = Simulator()
    timed, called = Core(sim, name="timed"), Core(sim, name="called")
    for core in (timed, called):
        core.execute(1e-6)  # busy until 1e-6
    sim.run(until=8e-7)
    now, finish = sim.now, 1e-6 + 8e-6
    assert now + (finish - now) != finish
    at_execute, at_call = [], []
    timed.execute(8e-6).add_callback(lambda _ev: at_execute.append(sim.now))
    called.execute_call(8e-6, lambda: at_call.append(sim.now))
    sim.run()
    assert at_execute == at_call == [now + (finish - now)]
    assert timed.ops == called.ops == 2
    assert timed.busy_seconds == called.busy_seconds


def test_execute_timeout_can_be_held_after_it_fires(sim):
    core = Core(sim, name="c")
    held = core.execute(1e-6)
    sim.run()
    # later charges must not recycle or reset the held event
    later = [core.execute(1e-6) for _ in range(16)]
    sim.run()
    assert held.processed and held.ok and held.value is None
    assert all(ev is not held for ev in later)

    fast, slow = core.execute(1e-6), sim.timeout(1.0)
    either = sim.any_of([fast, slow])
    sim.run_until_event(either)
    for _ in range(16):
        core.execute(1e-6)
    sim.run()
    assert either.value == {fast: None}
    assert fast.processed and slow.processed


# -- figure goldens -------------------------------------------------------
# The paper figures, byte-for-byte (regenerate with the calls below if a
# deliberate model change moves them; the diff is the review artifact).

FIG4_KWARGS = dict(flow_counts=(1, 2), duration=0.06, warmup=0.02)

#: flows -> (repr(native_gbps), repr(nsm_gbps))
FIG4_GOLDEN = {
    1: ("22.37691832065372", "26.875379803169846"),
    2: ("37.648449484292264", "37.63969544216942"),
}

FIG5_KWARGS = dict(duration=3.0, warmup=1.0, seeds=(1,))

#: label -> repr(mbps)
FIG5_GOLDEN = {
    "BBR NSM": "4.239659238967965",
    "Linux BBR": "4.239657454702333",
    "Windows CTCP": "1.6560674798839108",
    "Linux Cubic": "1.9898992643664382",
}


def test_figure4_bit_identical():
    from repro.experiments.figure4 import run_figure4

    result = run_figure4(**FIG4_KWARGS)
    observed = {
        row.flows: (repr(row.native_gbps), repr(row.nsm_gbps))
        for row in result.rows
    }
    assert observed == FIG4_GOLDEN


def test_figure5_bit_identical():
    from repro.experiments.figure5 import run_figure5

    result = run_figure5(**FIG5_KWARGS)
    observed = {row.label: repr(row.mbps) for row in result.rows}
    assert observed == FIG5_GOLDEN
