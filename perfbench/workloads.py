"""The benchmark's four workloads: world builders, load generators, checks.

Every load generator lives here, not in ``repro``: the program sees only
the sockets the generators open and the bytes they send.  The worlds are
built through the program's public API (``make_lan_testbed``,
``install_fluid``, the hypervisor boot calls, the socket API, ``Epoll``
and ``repro.apps``).

The seed draws flow and client start offsets and per-message send-time
jitter.  Every draw is bounded so that a workload keeps its character on
every seed: jitter stays below the send spacing, so message order and
"one ready fd per epoll wakeup" hold for all seeds.
"""

from __future__ import annotations

import hashlib
import random

from repro.api import Epoll, SocketError
from repro.apps import WebServer
from repro.experiments.common import (
    FIG4_SOCKET_BUF,
    LAN_RATE_BPS,
    install_fluid,
    make_lan_testbed,
)
from repro.net import Endpoint, OffloadConfig
from repro.netkernel import NsmSpec
from repro.tcp import ConnectionReset

WORKLOADS = ("nsm_bulk", "nsm_churn", "epoll_10k", "fluid_bulk_10k")

#: Typed errors a socket operation can surface; each one fails the
#: operation that raised it.
SOCKET_ERRORS = (SocketError, ConnectionReset)

# -- nsm_bulk: the Figure-4 shape ------------------------------------------
BULK_FLOWS = 2
BULK_DURATION = 0.2
BULK_WARMUP = BULK_DURATION * 0.25
BULK_WRITE = 65536
#: Flow start offsets are drawn from [0, BULK_START_SPREAD).
BULK_START_SPREAD = 50e-6

# -- nsm_churn: short web requests through NSMs -----------------------------
CHURN_CLIENTS = 64
CHURN_DURATION = 0.05
CHURN_REQUEST = 256
CHURN_RESPONSE = 1024
CHURN_START = 0.001
CHURN_START_SPACING = 0.0005
#: Each client's start offset gains a draw from [0, CHURN_START_JITTER).
CHURN_START_JITTER = 0.00025

# -- epoll_10k / fluid_bulk_10k: many persistent connections ----------------
SCALE_CONNS = 10000
SCALE_MESSAGES = 2
CONNECT_SPACING = 2e-6
#: Each connect time gains a draw from [0, CONNECT_JITTER).
CONNECT_JITTER = 1e-6
EPOLL_MESSAGE = 512
EPOLL_SPACING = 2e-6
FLUID_MESSAGE = 65536
#: Paces the aggregate to ~0.5 GB/s so the path is never overloaded.
FLUID_SPACING = 130e-6
#: A message's send time gains a draw from [0, spacing * SEND_JITTER).
SEND_JITTER = 0.25
#: Simulated slack after the last connect and after the last send.
SCALE_TAIL = 0.005


class BulkSender:
    """Closed loop: one connection, always backlogged with fixed writes."""

    def __init__(self, sim, api, remote, start):
        self.sim = sim
        self.api = api
        self.remote = remote
        self.start = start
        self.sent = 0
        self.error = None
        sim.process(self._run(), name="bench-bulk-tx")

    def _run(self):
        if self.start > 0:
            yield self.sim.timeout(self.start)
        try:
            fd = yield self.api.socket()
            yield self.api.connect(fd, self.remote)
            while True:
                yield self.api.send(fd, BULK_WRITE)
                self.sent += BULK_WRITE
        except SOCKET_ERRORS as exc:
            self.error = exc


class BulkSink:
    """Accepts one connection and drains it, counting every byte."""

    def __init__(self, sim, api, port):
        self.sim = sim
        self.api = api
        self.port = port
        self.bytes = 0
        self.measured = 0
        self.first_at = None
        self.error = None
        sim.process(self._run(), name="bench-bulk-rx")

    def _run(self):
        try:
            fd = yield self.api.socket()
            yield self.api.bind(fd, self.port)
            yield self.api.listen(fd)
            conn = yield self.api.accept(fd)
            while True:
                n = yield self.api.recv(conn, 1 << 20)
                if n == 0:
                    return
                self.bytes += n
                if self.sim.now >= BULK_WARMUP:
                    if self.first_at is None:
                        self.first_at = self.sim.now
                    self.measured += n
        except SOCKET_ERRORS as exc:
            self.error = exc

    def goodput_bps(self, until):
        """Goodput after the warm-up, over [first measured byte, until]."""
        if self.first_at is None or until <= self.first_at:
            return 0.0
        return self.measured * 8.0 / (until - self.first_at)


class WebClient:
    """Closed loop: connect, request, read the whole response, close."""

    def __init__(self, sim, api, remote, start):
        self.sim = sim
        self.api = api
        self.remote = remote
        self.start = start
        self.started = 0
        self.completed = 0
        self.failed = 0
        self.response_bytes = 0
        sim.process(self._run(), name="bench-web-client")

    def _run(self):
        yield self.sim.timeout(self.start)
        while True:
            self.started += 1
            try:
                received = yield from self._request()
            except SOCKET_ERRORS:
                received = None
            if received != CHURN_RESPONSE:
                # A failed client stops: a retry could spin without ever
                # advancing simulated time.
                self.failed += 1
                return
            self.completed += 1
            self.response_bytes += received

    def _request(self):
        api = self.api
        fd = yield api.socket()
        yield api.connect(fd, self.remote)
        yield api.send(fd, CHURN_REQUEST)
        received = 0
        while received < CHURN_RESPONSE:
            n = yield api.recv(fd, 65536)
            if n == 0:
                break
            received += n
        yield api.close(fd)
        return received


class EpollSink:
    """One epoll loop over a listener and every accepted connection.

    Delivery is counted in bytes per connection, never in ``recv()``
    returns: a message may arrive in several reads, or several in one.
    """

    def __init__(self, sim, api, port):
        self.sim = sim
        self.api = api
        self.port = port
        self.bytes_by_fd = {}
        self.accepted = 0
        self.waits = 0
        self.ready = 0
        self.error = None
        sim.process(self._run(), name="bench-epoll-sink")

    def _run(self):
        api = self.api
        try:
            listen_fd = yield api.socket()
            yield api.bind(listen_fd, self.port)
            yield api.listen(listen_fd, backlog=512)
            epoll = Epoll(self.sim, api)
            epoll.register(listen_fd)
            counts = self.bytes_by_fd
            while True:
                ready = yield epoll.wait()
                self.waits += 1
                self.ready += len(ready)
                for fd, _events in ready:
                    if fd == listen_fd:
                        conn = yield api.accept(fd)
                        epoll.register(conn)
                        counts[conn] = 0
                        self.accepted += 1
                        continue
                    n = yield api.recv(fd, 1 << 16)
                    if n == 0:
                        epoll.unregister(fd)
                        yield api.close(fd)
                        continue
                    counts[fd] += n
        except SOCKET_ERRORS as exc:
            self.error = exc


class ScheduledSender:
    """Connects once, then sends fixed-size messages at absolute times."""

    __slots__ = ("sim", "api", "remote", "connect_at", "send_at", "size",
                 "sent", "error")

    def __init__(self, sim, api, remote, connect_at, send_at, size):
        self.sim = sim
        self.api = api
        self.remote = remote
        self.connect_at = connect_at
        self.send_at = send_at
        self.size = size
        self.sent = 0
        self.error = None
        sim.process(self._run(), name="bench-sender")

    def _run(self):
        sim = self.sim
        if self.connect_at > 0:
            yield sim.timeout(self.connect_at)
        try:
            fd = yield self.api.socket()
            yield self.api.connect(fd, self.remote)
            for at in self.send_at:
                if at > sim.now:
                    yield sim.timeout(at - sim.now)
                yield self.api.send(fd, self.size)
                self.sent += 1
        except SOCKET_ERRORS as exc:
            self.error = exc


class World:
    """A built workload: the testbed, how long it runs and how to check it.

    ``check()`` judges the finished run and returns ``(attempted, failed,
    problems, modeled)``: operations attempted and failed, the checks
    that failed, and the modeled outputs that go into the digest.
    """

    def __init__(self, testbed, duration, connections, check,
                 sink=None, fidelity=None):
        self.testbed = testbed
        self.duration = duration
        #: Connections open at once (the denominator of bytes per conn).
        self.connections = connections
        self.check = check
        self.sink = sink
        self.fidelity = fidelity


def digest(modeled, events):
    """Digest over the modeled outputs (floats by ``repr``) and events."""
    text = repr((sorted(modeled.items()), events))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(name, seed):
    """Build workload ``name`` with inputs drawn from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng)


def _nsm_pair(testbed, overrides=None):
    nsms = []
    for hypervisor in (testbed.hypervisor_a, testbed.hypervisor_b):
        nsms.append(hypervisor.boot_nsm(NsmSpec(tcp_overrides=overrides)))
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsms[0], vcpus=4)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsms[1], vcpus=4)
    return vm_a, vm_b


def _build_nsm_bulk(rng):
    testbed = make_lan_testbed()
    buf = {"rcvbuf": FIG4_SOCKET_BUF, "sndbuf": FIG4_SOCKET_BUF}
    vm_a, vm_b = _nsm_pair(testbed, buf)
    sinks, senders = [], []
    for i in range(BULK_FLOWS):
        port = 5000 + i
        sinks.append(BulkSink(testbed.sim_b, vm_b.api, port))
        senders.append(
            BulkSender(
                testbed.sim_a, vm_a.api, Endpoint(vm_b.api.ip, port),
                start=rng.uniform(0.0, BULK_START_SPREAD),
            )
        )

    def check():
        problems = []
        failed = 0
        goodput = sum(s.goodput_bps(BULK_DURATION) for s in sinks)
        for sender, sink in zip(senders, sinks):
            if sender.error or sink.error or sink.bytes == 0:
                failed += 1
            if sink.bytes > sender.sent:
                problems.append("a flow delivered more bytes than it sent")
            # Bytes still in flight at the end sit in the two socket
            # buffers and the NSM/guest rings: never more than the sum of
            # the send and receive buffers plus one write per hop.
            if sender.sent - sink.bytes > 2 * FIG4_SOCKET_BUF + 4 * BULK_WRITE:
                problems.append("a flow lost bytes")
        if not 0 < goodput <= LAN_RATE_BPS:
            problems.append(f"goodput {goodput!r} outside (0, line rate]")
        modeled = {
            "goodput_bps": goodput,
            "bytes": sum(s.bytes for s in sinks),
            "sent": sum(s.sent for s in senders),
        }
        return BULK_FLOWS, failed, problems, modeled

    return World(testbed, BULK_DURATION, BULK_FLOWS, check)


def _build_nsm_churn(rng):
    testbed = make_lan_testbed()
    vm_a, vm_b = _nsm_pair(testbed)
    server = WebServer(
        testbed.sim_b, vm_b.api, port=80,
        request_bytes=CHURN_REQUEST, response_bytes=CHURN_RESPONSE,
    )
    remote = Endpoint(vm_b.api.ip, 80)
    clients = [
        WebClient(
            testbed.sim_a, vm_a.api, remote,
            start=CHURN_START + CHURN_START_SPACING * i
            + rng.uniform(0.0, CHURN_START_JITTER),
        )
        for i in range(CHURN_CLIENTS)
    ]

    def check():
        problems = []
        attempted = sum(c.started for c in clients)
        completed = sum(c.completed for c in clients)
        failed = sum(c.failed for c in clients)
        received = sum(c.response_bytes for c in clients)
        if completed == 0:
            problems.append("no request completed")
        if received != completed * CHURN_RESPONSE:
            problems.append("response bytes do not match completed requests")
        if server.requests_served < completed:
            problems.append("more requests completed than the server served")
        goodput = received * 8.0 / CHURN_DURATION
        if not 0 < goodput <= LAN_RATE_BPS:
            problems.append(f"goodput {goodput!r} outside (0, line rate]")
        modeled = {
            "goodput_bps": goodput,
            "requests": completed,
            "served": server.requests_served,
            "bytes": received,
        }
        return attempted, failed, problems, modeled

    return World(testbed, CHURN_DURATION, CHURN_CLIENTS, check)


def _build_scale(rng, message, spacing, fidelity, offload):
    n = SCALE_CONNS
    testbed = make_lan_testbed(offload=offload)
    # Stacks register with the fidelity controller when they boot, so it
    # must be installed first.
    controller = install_fluid(testbed, mode=fidelity)
    server = testbed.hypervisor_b.boot_legacy_vm("server", vcpus=4)
    client = testbed.hypervisor_a.boot_legacy_vm("clients", vcpus=4)
    sink = EpollSink(testbed.sim_b, server.api, 5000)
    remote = Endpoint(server.api.ip, 5000)
    connect_phase = n * CONNECT_SPACING + SCALE_TAIL
    senders = []
    for i in range(n):
        # Message m of connection i is due at slot m * n + i; the jitter
        # stays inside the slot, so sends never reorder.
        send_at = tuple(
            connect_phase + (m * n + i) * spacing
            + rng.uniform(0.0, spacing * SEND_JITTER)
            for m in range(SCALE_MESSAGES)
        )
        senders.append(
            ScheduledSender(
                testbed.sim_a, client.api, remote,
                i * CONNECT_SPACING + rng.uniform(0.0, CONNECT_JITTER),
                send_at, message,
            )
        )
    duration = connect_phase + SCALE_MESSAGES * n * spacing + SCALE_TAIL

    def check():
        problems = []
        scheduled = n * SCALE_MESSAGES
        counts = sink.bytes_by_fd
        delivered = sum(min(SCALE_MESSAGES, b // message) for b in counts.values())
        total = sum(counts.values())
        sent = sum(s.sent for s in senders) * message
        if sink.error or any(s.error for s in senders):
            problems.append("a socket operation raised")
        if sink.accepted != n:
            problems.append(f"accepted {sink.accepted} of {n} connections")
        if total != sent:
            problems.append(f"bytes delivered {total} != bytes sent {sent}")
        goodput = total * 8.0 / duration
        if not 0 < goodput <= LAN_RATE_BPS:
            problems.append(f"goodput {goodput!r} outside (0, line rate]")
        modeled = {
            "goodput_bps": goodput,
            "messages": delivered,
            "bytes": total,
        }
        return scheduled, scheduled - delivered, problems, modeled

    return World(testbed, duration, n, check, sink=sink, fidelity=controller)


def _build_epoll_10k(rng):
    return _build_scale(rng, EPOLL_MESSAGE, EPOLL_SPACING, "packet", None)


def _build_fluid_bulk_10k(rng):
    # TSO/GRO off: the per-segment regime of paravirtual guest NICs,
    # where fluid fidelity replaces hundreds of packet events a message.
    return _build_scale(rng, FLUID_MESSAGE, FLUID_SPACING, "auto",
                        OffloadConfig(tso=False, gro=False))


_BUILDERS = {
    "nsm_bulk": _build_nsm_bulk,
    "nsm_churn": _build_nsm_churn,
    "epoll_10k": _build_epoll_10k,
    "fluid_bulk_10k": _build_fluid_bulk_10k,
}
