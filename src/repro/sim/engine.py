"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and a calendar-queue event
scheduler (:mod:`repro.sim.wheel`).  Everything else in the library
(links, TCP stacks, NetKernel queues, CPU cores) is built on processes
and events scheduled here.

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
from heapq import heappop
from itertools import count
from typing import Any, Generator, Iterable, Optional

from .events import AllOf, AnyOf, Event, SimulationError, Timeout
from .process import Process
from .wheel import GROUP_SHIFT, CalendarQueue

__all__ = ["Simulator", "NANOS", "MICROS", "MILLIS"]

#: One nanosecond in simulator time units (seconds).
NANOS = 1e-9
#: One microsecond in simulator time units (seconds).
MICROS = 1e-6
#: One millisecond in simulator time units (seconds).
MILLIS = 1e-3

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

    Events scheduled at equal times fire in FIFO order of scheduling, which
    makes runs fully deterministic for a fixed seedless workload.  The
    queue is a calendar queue (timer wheel with an overflow heap) whose
    pop order is bit-identical to the binary heap it replaced — see
    :mod:`repro.sim.wheel` for the ordering contract.
    """

    #: Free-list bound: enough to cover every in-flight pooled timeout of
    #: a busy run without letting a burst pin memory forever.
    _POOL_MAX = 4096

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = CalendarQueue(self._now)
        self._counter = count()
        self._active_process: Optional[Process] = None
        #: Recycled Timeout instances for the kernel-internal pooled path.
        self._timeout_pool: list = []
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

    # -- scheduling (kernel internal) ----------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._queue.push((self._now + delay, next(self._counter), event))

    def _pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A Timeout from the free list (kernel-internal fast path).

        Contract: the caller must not retain the returned event past its
        firing — after its callbacks run, the run loop resets it and hands
        it to the next ``_pooled_timeout`` call.  Code that needs to hold
        one longer (composite conditions, ``run_until_event``) clears
        ``_reusable`` instead.
        """
        pool = self._timeout_pool
        if not pool:
            timeout = Timeout(self, delay, value)
            timeout._reusable = True
            return timeout
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        timeout = pool.pop()
        timeout.delay = delay
        if timeout.callbacks is None:
            timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._triggered = True
        timeout._processed = False
        self._queue.push((self._now + delay, next(self._counter), timeout))
        return timeout

    def schedule_call(self, delay: float, func, *args) -> Event:
        """Schedule ``func(*args)`` to run after ``delay`` seconds.

        Returns the underlying timeout event.  Convenient for fire-and-forget
        callbacks without spinning up a full process.  The call is stored on
        the timeout itself (no closure, no callbacks-list append), and the
        timeout comes from the kernel free list — callers must not hold the
        returned event past its firing (none do; it exists so tests can
        observe scheduling).
        """
        timeout = self._pooled_timeout(delay)
        timeout._call = func
        timeout._call_args = args
        return timeout

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
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.delay = 0.0
            if timeout.callbacks is None:
                timeout.callbacks = []
            timeout._value = None
            timeout._ok = True
            timeout._triggered = True
            timeout._processed = False
        else:
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
            timeout.delay = 0.0
            timeout._reusable = True
            timeout._triggered = True
        timeout._call = func
        timeout._call_args = args
        self._queue.push((when, next(self._counter), timeout))

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event in the queue."""
        item = self._queue.pop()
        if item is None:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = item
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.events_processed += 1
        event._run_callbacks()
        if (
            event.__class__ is Timeout
            and event._reusable
            and len(self._timeout_pool) < self._POOL_MAX
        ):
            self._timeout_pool.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        return self._queue.peek()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so measurements spanning
        ``[0, until]`` are well defined.

        The loop body is :meth:`step` inlined (minus the stale-event guard,
        which the queue invariant makes unreachable from here): resolve the
        head bucket (fast path: the bucket the last pop settled on is still
        the earliest), one heappop over it, the event's callbacks, and
        free-list recycling for pooled timeouts.  Event semantics are
        identical to repeated ``step()`` calls.  The collector runs at
        :data:`GC_THRESHOLDS` until the call returns or raises.
        """
        q = self._queue
        buckets = q.buckets
        groups = q.groups
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        heappop_ = heappop
        timeout_cls = Timeout
        processed = 0
        _gc_enter()
        try:
            if until is None:
                while True:
                    if q.bucket_count:
                        i = q.first
                        b = buckets[i]
                        if not b or i != q.active:
                            b = q._head_bucket()
                            i = q.first
                    elif q.overflow:
                        b = q._head_bucket()
                        i = q.first
                    else:
                        return
                    when, _seq, event = heappop_(b)
                    if not b:
                        groups[i >> GROUP_SHIFT] -= 1
                    q.bucket_count -= 1
                    self._now = when
                    processed += 1
                    if event.__class__ is timeout_cls:
                        call = event._call
                        if call is not None and not event.callbacks:
                            # Direct-call, no waiters: run it here and keep
                            # the (still empty) callbacks list attached so
                            # the next pool reuse skips the allocation.
                            event._call = None
                            event._processed = True
                            call(*event._call_args)
                            event._call_args = ()
                            if event._reusable and len(pool) < pool_max:
                                pool.append(event)
                            continue
                        event._run_callbacks()
                        if event._reusable and len(pool) < pool_max:
                            pool.append(event)
                    else:
                        callbacks, event.callbacks = event.callbacks, None
                        event._processed = True
                        if callbacks:
                            for callback in callbacks:
                                callback(event)
            if until < self._now:
                raise ValueError(
                    f"run(until={until}) is in the past (now={self._now})"
                )
            while True:
                if q.bucket_count:
                    i = q.first
                    b = buckets[i]
                    if not b or i != q.active:
                        b = q._head_bucket()
                        i = q.first
                elif q.overflow:
                    b = q._head_bucket()
                    i = q.first
                else:
                    break
                when = b[0][0]
                if when > until:
                    break
                _when, _seq, event = heappop_(b)
                if not b:
                    groups[i >> GROUP_SHIFT] -= 1
                q.bucket_count -= 1
                self._now = when
                processed += 1
                if event.__class__ is timeout_cls:
                    call = event._call
                    if call is not None and not event.callbacks:
                        event._call = None
                        event._processed = True
                        call(*event._call_args)
                        event._call_args = ()
                        if event._reusable and len(pool) < pool_max:
                            pool.append(event)
                        continue
                    event._run_callbacks()
                    if event._reusable and len(pool) < pool_max:
                        pool.append(event)
                else:
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
            self._now = until
        finally:
            self.events_processed += processed
            _gc_exit()

    def run_window(self, horizon: float, limit: Optional[float] = None) -> int:
        """Process every event with ``time < horizon`` (and ``<= limit``).

        The virtual-time window primitive for conservative-lookahead
        sharded execution (:mod:`repro.sim.sharded`): events landing
        *exactly on* the window boundary stay queued for the next window,
        so a cross-shard message timestamped ``horizon`` can still be
        injected ahead of them.  Unlike :meth:`run`, the clock is left at
        the last processed event — the shard coordinator owns end-of-run
        clock advancement.  Returns the number of events processed.

        The loop body is the same inlined :meth:`step` as :meth:`run`;
        event semantics are identical to repeated ``step()`` calls, and
        the collector policy is the same.
        """
        q = self._queue
        buckets = q.buckets
        groups = q.groups
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        heappop_ = heappop
        timeout_cls = Timeout
        bound = horizon if limit is None else min(horizon, limit)
        strict = limit is None or horizon <= limit
        processed = 0
        _gc_enter()
        try:
            while True:
                if q.bucket_count:
                    i = q.first
                    b = buckets[i]
                    if not b or i != q.active:
                        b = q._head_bucket()
                        i = q.first
                elif q.overflow:
                    b = q._head_bucket()
                    i = q.first
                else:
                    break
                when = b[0][0]
                if when >= bound if strict else when > bound:
                    break
                _when, _seq, event = heappop_(b)
                if not b:
                    groups[i >> GROUP_SHIFT] -= 1
                q.bucket_count -= 1
                self._now = when
                processed += 1
                if event.__class__ is timeout_cls:
                    call = event._call
                    if call is not None and not event.callbacks:
                        event._call = None
                        event._processed = True
                        call(*event._call_args)
                        event._call_args = ()
                        if event._reusable and len(pool) < pool_max:
                            pool.append(event)
                        continue
                    event._run_callbacks()
                    if event._reusable and len(pool) < pool_max:
                        pool.append(event)
                else:
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
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
        if isinstance(event, Timeout):
            # We read ``processed``/``value`` after the event fires; keep it
            # out of the free list.
            event._reusable = False
        while not event.processed:
            if not self._queue:
                raise SimulationError("queue drained before event fired")
            if limit is not None and self.peek() > limit:
                raise SimulationError(f"time limit {limit} reached before event fired")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
