"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue, a plain
``heapq`` list.  Everything else in the library (links, TCP stacks,
NetKernel queues, CPU cores) is built on the processes, events and
deferred calls scheduled here.

Time is a ``float`` in **seconds**.  Nanosecond-scale costs (memory copies,
nqe hops) are converted with :data:`NANOS`.

The event loops (:meth:`Simulator.run`, :meth:`Simulator.run_window`) own
the cyclic collector's policy: they raise its thresholds to
:data:`GC_THRESHOLDS` on entry and restore the caller's on exit.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(1.5)
...     return "done at %.1f" % sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
'done at 1.5'
"""

from __future__ import annotations

import gc
import threading
from heapq import heappop, heappush
from itertools import count
from math import nextafter
from typing import Any, Generator, Iterable, Optional

from .events import AllOf, AnyOf, Event, SimulationError, Timeout
from .process import Process

__all__ = ["Simulator", "NANOS", "MICROS", "MILLIS"]

#: One nanosecond in simulator time units (seconds).
NANOS = 1e-9
#: One microsecond in simulator time units (seconds).
MICROS = 1e-6
#: One millisecond in simulator time units (seconds).
MILLIS = 1e-3

_INF = float("inf")

#: Cyclic-collector thresholds while an event loop runs.  A built world is
#: hundreds of thousands of long-lived, tracked objects (connections,
#: buffers, processes) and a run allocates almost no cyclic garbage; at
#: the default ``(700, 10, 10)`` the per-event allocation churn triggers
#: full scans of the whole world that find nothing.  Cycles are still
#: collected, just every 50 000 net allocations instead of every 700.
GC_THRESHOLDS = (50000, 25, 25)

# Nesting depth of running event loops across this process's threads
# (the thread shard executor runs one ``run_window`` per thread): the
# outermost entry saves the caller's thresholds, the last exit restores
# them.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_saved = gc.get_threshold()


def _gc_enter() -> None:
    global _gc_depth, _gc_saved
    with _gc_lock:
        if not _gc_depth:
            _gc_saved = gc.get_threshold()
            gc.set_threshold(*GC_THRESHOLDS)
        _gc_depth += 1


def _gc_exit() -> None:
    global _gc_depth
    with _gc_lock:
        _gc_depth -= 1
        if not _gc_depth:
            gc.set_threshold(*_gc_saved)


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    The queue is one ``heapq`` list of ``(time, seq, target, args)``
    entries.  ``args is None`` marks an :class:`Event`, whose callbacks
    run when the entry pops; any other entry is a direct call,
    ``target(*args)``, with no event object behind it.  ``seq`` comes from
    one counter and is unique, so entries order by ``(time, seq)`` alone:
    events and calls scheduled for equal times fire in FIFO order of
    scheduling, which makes runs fully deterministic for a fixed seedless
    workload.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list = []
        self._counter = count()
        self._active_process: Optional[Process] = None
        #: Events processed since construction (perf metric; see
        #: ``benchmarks/bench_datapath.py``).
        self.events_processed = 0
        #: Hybrid fidelity: the installed
        #: :class:`~repro.sim.fluid.FidelityController`, or None for pure
        #: packet fidelity (the default — and the bit-identical path: with
        #: no controller installed every fluid hook in the TCP/NIC layers
        #: is a single attribute test that takes the packet branch).
        self.fidelity = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process running ``generator`` immediately."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        heappush(self._queue, (self._now + delay, next(self._counter), event, None))

    def _call_after(self, delay: float, func, args: tuple) -> None:
        """Push a call entry: ``func(*args)`` after ``delay`` seconds.

        Kernel-internal twin of :meth:`schedule_call` for callers that
        have already validated ``delay``
        (:meth:`repro.host.cpu.Core.execute_call`).  Keeping CPU charges
        off the public method means instrumentation that wraps
        ``schedule_call`` counts them as charges, not as schedules.
        """
        heappush(self._queue, (self._now + delay, next(self._counter), func, args))

    def schedule_call(self, delay: float, func, *args) -> None:
        """Schedule ``func(*args)`` to run after ``delay`` seconds.

        The call is a queue entry of its own: no event, no closure, no
        callbacks list.  Use :meth:`timeout` when something must wait on
        the firing.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        heappush(self._queue, (self._now + delay, next(self._counter), func, args))

    def schedule_call_at(self, when: float, func, *args) -> None:
        """Schedule ``func(*args)`` at the *absolute* time ``when``.

        The sharded execution layer (:mod:`repro.sim.sharded`) injects
        cross-shard deliveries with the exact timestamp computed in the
        sending shard; going through :meth:`schedule_call` would recompute
        ``now + (when - now)``, whose float rounding need not reproduce
        ``when`` bit-for-bit — and timestamp identity is what makes a
        sharded run merge to the single-heap schedule.
        """
        if when < self._now:
            raise SimulationError(
                f"schedule_call_at({when}) is in the past (now={self._now})"
            )
        heappush(self._queue, (when, next(self._counter), func, args))

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Process the single next entry in the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, target, args = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.events_processed += 1
        if args is None:
            target._run_callbacks()
        else:
            target(*args)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so measurements spanning
        ``[0, until]`` are well defined.  Event semantics are identical
        to repeated :meth:`step` calls.  The collector runs at
        :data:`GC_THRESHOLDS` until the call returns or raises.
        """
        if until is None:
            self._run_through(_INF)
            return
        if until < self._now:
            raise ValueError(f"run(until={until}) is in the past (now={self._now})")
        self._run_through(until)
        self._now = until

    def run_window(self, horizon: float, limit: Optional[float] = None) -> int:
        """Process every event with ``time < horizon`` (and ``<= limit``).

        The virtual-time window primitive for conservative-lookahead
        sharded execution (:mod:`repro.sim.sharded`): events landing
        *exactly on* the window boundary stay queued for the next window,
        so a cross-shard message timestamped ``horizon`` can still be
        injected ahead of them.  Unlike :meth:`run`, the clock is left at
        the last processed event — the shard coordinator owns end-of-run
        clock advancement.  Returns the number of events processed.
        Event semantics and the collector policy are those of :meth:`run`.
        """
        if limit is not None and limit < horizon:
            return self._run_through(limit)
        # ``time < horizon`` is ``time <= `` the float just below it.
        return self._run_through(nextafter(horizon, -_INF))

    def _run_through(self, bound: float) -> int:
        """Process every entry with ``time <= bound``; return the count.

        The run loop: :meth:`step` inlined, minus the stale-entry guard
        that the heap invariant makes unreachable from here.
        """
        queue = self._queue
        heappop_ = heappop
        processed = 0
        _gc_enter()
        try:
            while queue and queue[0][0] <= bound:
                when, _seq, target, args = heappop_(queue)
                self._now = when
                processed += 1
                if args is None:
                    callbacks, target.callbacks = target.callbacks, None
                    target._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(target)
                else:
                    target(*args)
        finally:
            self.events_processed += processed
            _gc_exit()
        return processed

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the queue drains or ``limit`` is reached
        first.
        """
        while not event.processed:
            if not self._queue:
                raise SimulationError("queue drained before event fired")
            if limit is not None and self.peek() > limit:
                raise SimulationError(f"time limit {limit} reached before event fired")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
