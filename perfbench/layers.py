"""Per-layer spans and counts for the traced run, recorded from outside.

Layers are the ``repro`` modules.  For the traced run, :func:`install`
wraps each layer's public functions so that every call is a span charged
to its layer.  A layer's self time is its span time minus the spans of
the calls it makes into other wrapped functions.

The CoreEngine and ServiceLib loops run as simulator processes and
deferred calls rather than through public calls.  To cover them, the
entry points that hand work to the event loop (``Simulator.process``,
``schedule_call``, ``schedule_call_at``, ``Core.execute_call``,
``Event.add_callback`` and the ``handle`` given to a ring pump) are
wrapped too: the code they defer is timed when it runs and charged to
the module that owns it.

Nothing here changes what the simulation does: wrappers call the
original function with the original arguments, so a traced run must
reproduce the untraced run's model digest exactly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: Every layer a span can be charged to, in report order.  ``load`` is
#: the benchmark's own generators; ``other`` is code outside every named
#: layer (it counts against attribution coverage).
LAYERS = (
    "sim",
    "sim.fluid",
    "tcp",
    "net",
    "host",
    "netkernel.guestlib",
    "netkernel.coreengine",
    "netkernel.servicelib",
    "netkernel.rings",
    "netkernel.hugepages",
    "netkernel.conntable",
    "api",
    "apps",
    "load",
    "other",
)

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.sim.fluid", "sim.fluid"),
    ("repro.sim", "sim"),
    ("repro.tcp", "tcp"),
    ("repro.cc", "tcp"),
    ("repro.net", "net"),
    ("repro.host", "host"),
    ("repro.netkernel.guestlib", "netkernel.guestlib"),
    ("repro.netkernel.servicelib", "netkernel.servicelib"),
    ("repro.netkernel.nsm", "netkernel.servicelib"),
    ("repro.netkernel.queues", "netkernel.rings"),
    ("repro.netkernel.nqe", "netkernel.rings"),
    ("repro.netkernel.ringhop", "netkernel.rings"),
    ("repro.netkernel.hugepages", "netkernel.hugepages"),
    ("repro.netkernel.conntable", "netkernel.conntable"),
    ("repro.netkernel", "netkernel.coreengine"),
    ("repro.api", "api"),
    ("repro.apps", "apps"),
)


def layer_of(module, load_modules):
    """The layer that owns code from ``module`` (a module name)."""
    if module is None:
        return "other"
    if module in load_modules:
        return "load"
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Recorder:
    """Span self times per layer plus the counts taken at the boundaries."""

    def __init__(self, load_modules):
        self.load_modules = frozenset(load_modules)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        #: Summed duration of the spans that had no enclosing span.
        self.top = [0.0]
        #: Deepest nqe ring occupancy seen right after a push.
        self.high_watermark = 0
        self._stack = []
        self._layers = {}
        #: One trampoline per layer: ``charge[layer](fn, *args)`` runs
        #: ``fn(*args)`` as a span of ``layer``.
        self.charge = {
            layer: self.span(layer, lambda fn, *args: fn(*args))
            for layer in LAYERS
        }

    def reset(self):
        """Forget everything recorded so far (the build phase)."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        for key in self.counts:
            self.counts[key] = 0
        self.top[0] = 0.0
        self.high_watermark = 0

    def layer_of_module(self, module):
        layer = self._layers.get(module)
        if layer is None:
            layer = self._layers[module] = layer_of(module, self.load_modules)
        return layer

    def charge_for(self, fn):
        """The trampoline of the layer that owns callable ``fn``."""
        while isinstance(fn, functools.partial):
            fn = fn.func
        return self.charge[self.layer_of_module(getattr(fn, "__module__", None))]

    def span(self, layer, fn, count=None):
        """``fn`` wrapped as a span of ``layer``, counted under ``count``."""
        stack, self_s, top = self._stack, self.self_s, self.top
        counts = self.counts
        clock = time.perf_counter
        if count is not None:
            counts.setdefault(count, 0)

        def span(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    top[0] += elapsed

        return span

    def wrap(self, cls, name, layer, count=None):
        """Replace ``cls.name`` with a span of ``layer``."""
        self.wrap_with(cls, name, lambda fn: self.span(layer, fn, count))

    def wrap_with(self, cls, name, make):
        """Replace ``cls.name`` with ``make(original)``."""
        fn = cls.__dict__[name]
        setattr(cls, name, functools.wraps(fn)(make(fn)))


class _TimedGenerator:
    """A process body whose every step runs through a layer trampoline."""

    def __init__(self, generator, charge):
        self.__name__ = getattr(generator, "__name__", "process")
        self.send = functools.partial(charge, generator.send)
        self.throw = functools.partial(charge, generator.throw)
        self.close = generator.close

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


def install(recorder):
    """Wrap every layer boundary for the traced run (class-level patches).

    Call after ``import repro`` and before the world is built: components
    keep bound methods they capture at construction.
    """
    from repro.api import Epoll, KernelSocketApi
    from repro.host.cpu import Core
    from repro.net import NIC, HostSwitch, Link
    from repro.netkernel.conntable import ConnectionTable
    from repro.netkernel.guestlib import GuestLib
    from repro.netkernel.hugepages import HugePageRegion
    from repro.netkernel.queues import BatchRingPump, NqeRing, RingPump
    from repro.sim import Simulator
    from repro.sim.events import Event
    from repro.sim.fluid import FidelityController
    from repro.tcp import TcpConnection, TcpStack

    r = recorder
    r.wrap(TcpStack, "on_packet", "tcp")
    r.wrap(TcpStack, "connect", "tcp", "tcp.connections")
    r.wrap(TcpStack, "listen", "tcp")
    r.wrap_with(TcpStack, "send_segment", lambda fn: _send_segment(r, fn))
    for name in ("send", "recv", "close", "on_segment"):
        r.wrap(TcpConnection, name, "tcp")

    r.wrap(Link, "send", "net")
    _wrap_overrides(r, NIC, "transmit", "net", "net.packets")
    _wrap_overrides(r, NIC, "receive", "net")
    _wrap_overrides(r, HostSwitch, "forward", "net")

    r.wrap(Core, "execute", "host", "host.cpu_ops")
    r.wrap_with(Core, "execute_call",
                lambda fn: _deferring(r, r.span("host", fn)))

    for name in ("socket", "bind", "listen", "accept", "connect", "send",
                 "recv", "close", "set_congestion_control",
                 "setsockopt_event", "wait_readable", "readable_now"):
        r.wrap(GuestLib, name, "netkernel.guestlib")

    for name in ("push", "offer", "try_push"):
        _wrap_overrides(r, NqeRing, name, "netkernel.rings",
                        "netkernel.rings.nqes", watermark=True)
    for name in ("try_pop", "pop_batch"):
        _wrap_overrides(r, NqeRing, name, "netkernel.rings")

    for cls in (RingPump, BatchRingPump):
        r.wrap_with(cls, "__init__", lambda fn: _pump_init(r, fn))

    for name in ("alloc", "free"):
        r.wrap(HugePageRegion, name, "netkernel.hugepages")
    for name in ("copy", "copy_call"):
        r.wrap(HugePageRegion, name, "netkernel.hugepages",
               "netkernel.hugepages.copies")
    r.wrap_with(HugePageRegion, "try_alloc", lambda fn: _try_alloc(r, fn))

    for name in ("insert", "to_nsm", "to_vm", "remove_by_vm", "remove_by_nsm"):
        r.wrap(ConnectionTable, name, "netkernel.conntable",
               "netkernel.conntable.ops")

    for name in ("socket", "bind", "listen", "accept", "connect", "send",
                 "recv", "close", "set_congestion_control", "wait_readable",
                 "readable_now"):
        r.wrap(KernelSocketApi, name, "api")
    r.wrap(Epoll, "wait", "api", "api.epoll_waits")
    r.wrap(Epoll, "register", "api")

    for name in ("on_established", "on_ack_progress", "demote", "pump",
                 "try_fluid_connect", "set_route_capacity", "on_fault_fired",
                 "on_nic_failed", "on_nic_repaired"):
        r.wrap(FidelityController, name, "sim.fluid")

    r.counts.setdefault("sim.schedules", 0)
    for name in ("schedule_call", "schedule_call_at"):
        r.wrap_with(Simulator, name, lambda fn: _deferring(r, fn, "sim.schedules"))
    r.wrap_with(Simulator, "process", lambda fn: _process(r, fn))
    r.wrap_with(Event, "add_callback", lambda fn: _add_callback(r, fn))


def _wrap_overrides(r, base, name, layer, count=None, watermark=False):
    """Wrap ``name`` on ``base`` and on every subclass that overrides it."""
    pending = [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if name not in cls.__dict__:
            continue
        if watermark:
            r.wrap_with(cls, name, lambda fn: _watermark(r, r.span(layer, fn, count)))
        else:
            r.wrap(cls, name, layer, count)


def _watermark(r, span):
    def push(ring, *args, **kwargs):
        result = span(ring, *args, **kwargs)
        if len(ring) > r.high_watermark:
            r.high_watermark = len(ring)
        return result

    return push


def _send_segment(r, fn):
    span = r.span("tcp", fn, "tcp.segments")
    counts = r.counts
    counts.setdefault("tcp.retransmits", 0)

    def send_segment(stack, conn, seg):
        if getattr(seg, "retransmitted", False):
            counts["tcp.retransmits"] += 1
        return span(stack, conn, seg)

    return send_segment


def _try_alloc(r, fn):
    span = r.span("netkernel.hugepages", fn)
    counts = r.counts
    counts.setdefault("netkernel.hugepages.alloc_failures", 0)

    def try_alloc(region, size):
        chunk = span(region, size)
        if chunk is None:
            counts["netkernel.hugepages.alloc_failures"] += 1
        return chunk

    return try_alloc


def _deferring(r, fn, count=None):
    """Wrap ``fn(owner, delay, func, *args)``, which defers ``func(*args)``,
    so the deferred call runs as a span of the layer that owns ``func``."""
    counts = r.counts

    def deferring(owner, delay, func, *args):
        if count is not None:
            counts[count] += 1
        return fn(owner, delay, r.charge_for(func), func, *args)

    return deferring


def _add_callback(r, fn):
    def add_callback(event, callback):
        return fn(event, functools.partial(r.charge_for(callback), callback))

    return add_callback


def _pump_init(r, fn):
    """Wrap a ring pump's constructor so each nqe it hands to ``handle``
    is handled as a span of the layer that owns ``handle``."""
    signature = inspect.signature(fn)

    def init(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        handle = bound.arguments["handle"]
        bound.arguments["handle"] = functools.partial(r.charge_for(handle), handle)
        return fn(*bound.args, **bound.kwargs)

    return init


def _process(r, fn):
    counts = r.counts

    def process(sim, generator, name=None):
        counts["sim.schedules"] += 1
        frame = getattr(generator, "gi_frame", None)
        module = frame.f_globals.get("__name__") if frame is not None else None
        timed = _TimedGenerator(generator, r.charge[r.layer_of_module(module)])
        return fn(sim, timed, name if name is not None else timed.__name__)

    return process


def self_times(recorder, run_wall):
    """Per-layer self seconds, with ``sim`` absorbing the loop's own time."""
    result = dict(recorder.self_s)
    result["sim"] += run_wall - recorder.top[0]
    return result


def memory_by_layer(snapshot, load_modules):
    """Live bytes per layer from a ``tracemalloc`` snapshot."""
    owner = {}
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if path:
            owner[path] = layer_of(name, load_modules)
    totals = dict.fromkeys(LAYERS, 0)
    for stat in snapshot.statistics("filename"):
        path = stat.traceback[0].filename
        totals[owner.get(path, "other")] += stat.size
    return totals
