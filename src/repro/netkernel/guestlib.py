"""GuestLib: the guest-side half of NetKernel (§3.2, §4.1).

GuestLib intercepts the socket API inside the tenant VM (the prototype
uses LD_PRELOAD over glibc) and turns every call into an nqe in the VM job
queue.  Results come back through the VM completion queue; received data
and accept events arrive through the VM receive queue.  Bulk data moves
through the per-(VM, NSM) huge pages with calibrated memcpy costs.

GuestLib implements :class:`~repro.api.socket_api.SocketApi`, so tenant
applications are byte-for-byte identical to the legacy in-kernel path —
the paper's central compatibility claim.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Tuple

from ..api.errors import (
    BadFileDescriptor,
    ConnectionReset,
    InvalidSocketState,
    OperationTimedOut,
    SocketError,
    wrap_transport_error,
)
from ..api.socket_api import SocketApi
from ..host.cpu import Core
from ..net import Endpoint
from ..obs import runtime as obs_runtime
from ..sim import Event, NANOS, Simulator
from .batching import BatchPolicy
from .hugepages import HugeChunk, HugePageRegion
from .nqe import Nqe, NqeOp, NqeStatus, free_nqe
from .queues import BatchRingPump, NotifyMode, NqeRing, RingPump

__all__ = ["GuestLib", "GUESTLIB_OP_NS"]

#: CPU cost of GuestLib intercepting one call / handling one nqe.
GUESTLIB_OP_NS = 200.0
INTERRUPT_DELAY = 10e-6
INTERRUPT_COST_NS = 2000.0


class _GuestSocket:
    """GuestLib's per-fd state."""

    __slots__ = (
        "fd",
        "connected",
        "listening",
        "eof",
        "rx_chunks",
        "rx_available",
        "readers",
        "watchers",
        "accept_ready",
        "acceptors",
        "closed",
        "reset",
    )

    def __init__(self, fd: int, connected: bool = False) -> None:
        self.fd = fd
        self.connected = connected
        self.listening = False
        self.eof = False
        self.rx_chunks: Deque[HugeChunk] = deque()
        self.rx_available = 0
        self.readers: Deque[Tuple[int, Event]] = deque()
        self.watchers: List[Event] = []
        self.accept_ready: Deque[int] = deque()
        self.acceptors: Deque[Event] = deque()
        self.closed = False
        #: The backend connection died (NSM failover); ops raise ECONNRESET.
        self.reset = False

    @property
    def readable(self) -> bool:
        if self.reset:
            return True  # polling a reset socket yields the error promptly
        if self.listening:
            return bool(self.accept_ready)
        return self.rx_available > 0 or self.eof


class GuestLib(SocketApi):
    """The NetKernel socket API inside a tenant VM."""

    def __init__(
        self,
        sim: Simulator,
        vm_id: int,
        nsm_ip: str,
        core: Core,
        job_queue: NqeRing,
        completion_queue: NqeRing,
        receive_queue: NqeRing,
        region: HugePageRegion,
        notify_mode: NotifyMode = NotifyMode.POLLING,
        inline_rx_copy: bool = False,
        batch: Optional[BatchPolicy] = None,
        op_timeout: Optional[float] = None,
        op_retries: int = 2,
        op_backoff: float = 2.0,
        op_jitter_seed: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.vm_id = vm_id
        #: The VM's network identity is its NSM's address (§2.2).
        self.ip = nsm_ip
        self.core = core
        self.job_queue = job_queue
        self.completion_queue = completion_queue
        self.receive_queue = receive_queue
        self.region = region
        self.notify_mode = notify_mode
        #: When True, the receive loop copies each DATA chunk out of the
        #: huge pages *inline* (single-threaded GuestLib, as in the
        #: prototype's polling design) — subsequent nqes wait behind the
        #: copy, which is the §3.2 head-of-line-blocking regime.
        self.inline_rx_copy = inline_rx_copy
        #: Amortized poll-loop cost model; ``None``/size-1 = original
        #: one-``core.execute``-per-nqe behavior (bit-identical).
        self.batch = batch if batch is not None else BatchPolicy()
        self._sockets: Dict[int, _GuestSocket] = {}
        self._pending: Dict[int, Event] = {}  # token -> API event
        # --- fault tolerance: op timeouts with bounded retry + backoff ---
        #: ``None`` disables the machinery entirely (bit-identical default:
        #: no timers are armed, no bookkeeping beyond ``_pending``).
        self._op_timeout = op_timeout
        self._op_retries = op_retries
        self._op_backoff = op_backoff
        #: Decorrelated retry jitter.  ``None`` keeps the deterministic
        #: exponential schedule bit-identical; a seed derives one private
        #: RNG per GuestLib (vm_id-salted) so co-tenant VMs retrying after
        #: the same NSM crash spread out instead of thundering the standby
        #: in lockstep — while identical seeds reproduce identical runs.
        self._op_rng = (
            None
            if op_jitter_seed is None
            else random.Random(op_jitter_seed * 1000003 + vm_id)
        )
        self._ft = op_timeout is not None
        self._pending_nqes: Dict[int, Nqe] = {}  # token -> request (ft only)
        self.op_timeouts = 0
        self.op_retries_sent = 0
        self.resets_seen = 0
        self.calls_issued = 0
        self.tracer = obs_runtime.get_tracer()
        self._traced = self.tracer.enabled
        if notify_mode is NotifyMode.POLLING:
            # Polling fast path: event-driven pump (same simulated charges
            # as the poll loop, no doorbell events or generator frames).
            self._start_completion_pump()
        else:
            sim.process(self._completion_loop(), name=f"vm{vm_id}.guestlib.cq")
        #: Pump-mode receive path: descriptor handling is synchronous and
        #: reader copies chain as direct calls.  Inline-copy mode keeps the
        #: generator loop — its copies block the loop by design (§3.2 HoL).
        self._rx_pump = notify_mode is NotifyMode.POLLING and not inline_rx_copy
        if self._rx_pump:
            self._start_receive_pump()
        else:
            sim.process(self._receive_loop(), name=f"vm{vm_id}.guestlib.rq")

    # ---------------------------------------------------------------- helpers --
    def _get(self, fd: int) -> _GuestSocket:
        try:
            return self._sockets[fd]
        except KeyError:
            raise BadFileDescriptor(f"fd {fd}") from None

    def _issue(self, nqe: Nqe, span=None) -> Event:
        """Push a request nqe; returns the event resolved by its completion."""
        self.calls_issued += 1
        if self._traced:
            tracer = self.tracer
            # Root span for the whole call (issue -> completion); it rides
            # the nqe so every downstream layer hangs its child off it.
            if span is None:
                span = tracer.span(
                    f"guestlib.{nqe.op.value}", "guestlib", tenant=self.vm_id
                )
            if span is not None:
                span.cpu(GUESTLIB_OP_NS)
                nqe.span = span
            tracer.count("guestlib.ops")
        result = Event(self.sim)
        self._pending[nqe.token] = result
        if self._ft:
            self._pending_nqes[nqe.token] = nqe
            self.sim.schedule_call(self._op_timeout, self._op_deadline, nqe, 0)
        self.core.execute_call(GUESTLIB_OP_NS * NANOS, self.job_queue.offer, nqe)
        return result

    def _op_deadline(self, nqe: Nqe, attempt: int, prev_delay=None) -> None:
        """An armed op timer fired: retry with backoff, or fail ETIMEDOUT.

        Timers charge no simulated CPU; with no faults every op completes
        first and this is a no-op, so results stay bit-identical.  Retries
        reuse the token — the FIFO rings deliver the original first, and
        ServiceLib's token dedup drops the duplicate execution.

        With a jitter RNG installed the re-arm delay is *decorrelated
        jitter* — ``uniform(base, 3 × previous delay)``, capped at the
        exponential schedule's ceiling — instead of the synchronized
        ``timeout × backoff^attempt`` that makes every VM retry at the
        exact same instant after a shared-NSM crash.
        """
        token = nqe.token
        event = self._pending.get(token)
        if event is None:
            return  # completed (or reset) in time
        if attempt >= self._op_retries:
            self._pending.pop(token, None)
            self._pending_nqes.pop(token, None)
            chunk = nqe.data_desc
            if chunk is not None and not chunk.freed:
                chunk.free()  # SEND payload nobody will deliver
            self.op_timeouts += 1
            if self._traced:
                self.tracer.count("guestlib.op_timeouts")
            event.fail(
                OperationTimedOut(
                    f"{nqe.op.value} on fd {nqe.fd} timed out "
                    f"after {attempt + 1} attempt(s)"
                )
            )
            return
        retry = replace(nqe, attempt=attempt + 1)
        self.op_retries_sent += 1
        if self._traced:
            self.tracer.count("guestlib.op_retries")
        self.core.execute_call(GUESTLIB_OP_NS * NANOS, self.job_queue.offer, retry)
        base = self._op_timeout
        delay = base * (self._op_backoff ** (attempt + 1))
        rng = self._op_rng
        if rng is not None:
            cap = base * (self._op_backoff ** (self._op_retries + 1))
            prev = prev_delay if prev_delay is not None else base
            delay = min(cap, rng.uniform(base, prev * 3.0))
        self.sim.schedule_call(
            delay,
            self._op_deadline,
            nqe,
            attempt + 1,
            delay,
        )

    # ---------------------------------------------------------------- SocketApi --
    def socket(self) -> Event:
        nqe = Nqe(op=NqeOp.SOCKET, vm_id=self.vm_id)
        result = self._issue(nqe)
        api_event = Event(self.sim)

        def finish(ev: Event) -> None:
            if not ev.ok:
                api_event.fail(ev.value)
                return
            fd = ev.value
            self._sockets[fd] = _GuestSocket(fd)
            api_event.succeed(fd)

        result.add_callback(finish)
        return api_event

    def bind(self, fd: int, port: int) -> Event:
        self._get(fd)
        return self._issue(Nqe(op=NqeOp.BIND, vm_id=self.vm_id, fd=fd, args=port))

    def listen(self, fd: int, backlog: int = 128) -> Event:
        sock = self._get(fd)
        result = self._issue(
            Nqe(op=NqeOp.LISTEN, vm_id=self.vm_id, fd=fd, args=backlog)
        )
        result.add_callback(
            lambda ev: setattr(sock, "listening", True) if ev.ok else None
        )
        return result

    def accept(self, fd: int) -> Event:
        sock = self._get(fd)
        event = Event(self.sim)
        if sock.reset:
            event.fail(ConnectionReset(f"fd {fd}: backend listener reset"))
            return event
        if sock.accept_ready:
            event.succeed(sock.accept_ready.popleft())
        else:
            sock.acceptors.append(event)
        return event

    def connect(self, fd: int, remote: Endpoint) -> Event:
        sock = self._get(fd)
        if sock.reset:
            raise ConnectionReset(f"fd {fd}: backend connection reset")
        if sock.connected:
            raise InvalidSocketState(f"fd {fd} already connected")
        result = self._issue(
            Nqe(op=NqeOp.CONNECT, vm_id=self.vm_id, fd=fd, args=remote)
        )
        result.add_callback(
            lambda ev: setattr(sock, "connected", True) if ev.ok else None
        )
        return result

    def send(self, fd: int, nbytes: int) -> Event:
        # Stage data into the shared huge pages (copy cost on the VM core),
        # then describe it with a SEND nqe.  The common (space available)
        # path is a single chained direct call — no process frame; only an
        # exhausted region falls back to a blocking generator.
        sock = self._get(fd)
        if sock.closed:
            raise InvalidSocketState(f"fd {fd} is closed")
        if sock.reset:
            raise ConnectionReset(f"fd {fd}: backend connection reset")
        api_event = Event(self.sim)
        root = stage = None
        if self._traced:
            tracer = self.tracer
            root = tracer.span("guestlib.send", "guestlib", tenant=self.vm_id)
            tracer.count("guestlib.tx_bytes", nbytes)
            if root is not None:
                root.annotate(bytes=nbytes)
                stage = root.child("hugepage.stage", "hugepage")
        region = self.region
        if nbytes <= region.free_bytes:
            chunk = region.try_alloc(nbytes)
            region.copy_call(
                self.core, nbytes, self._send_staged,
                sock, nbytes, chunk, api_event, root, stage,
            )
        else:  # region exhausted: block until space frees
            self.sim.process(self._send_proc(sock, nbytes, api_event, root, stage))
        return api_event

    def _send_proc(self, sock: _GuestSocket, nbytes: int, api_event: Event, root, stage):
        chunk = yield self.region.alloc(nbytes)
        yield self.region.copy(self.core, nbytes)
        self._send_staged(sock, nbytes, chunk, api_event, root, stage)

    def _send_staged(
        self, sock: _GuestSocket, nbytes: int, chunk, api_event: Event, root, stage
    ) -> None:
        if stage is not None:
            stage.end()
        result = self._issue(
            Nqe(op=NqeOp.SEND, vm_id=self.vm_id, fd=sock.fd, data_desc=chunk),
            span=root,
        )

        def finish(ev: Event) -> None:
            if ev.ok:
                api_event.succeed(nbytes)
            else:
                api_event.fail(ev.value)

        result.add_callback(finish)

    def recv(self, fd: int, max_bytes: int) -> Event:
        sock = self._get(fd)
        if max_bytes <= 0:
            raise ValueError("recv size must be positive")
        event = Event(self.sim)
        if sock.reset and sock.rx_available == 0:
            # Buffered data (if any) is still delivered; past it, the dead
            # backend surfaces as ECONNRESET rather than a silent hang.
            event.fail(ConnectionReset(f"fd {fd}: backend connection reset"))
            return event
        sock.readers.append((max_bytes, event))
        self._drain_readers(sock)
        return event

    def close(self, fd: int) -> Event:
        sock = self._get(fd)
        sock.closed = True
        if sock.reset:
            # The backend mapping died with the old NSM; nothing to tell
            # the provider — release the local fd immediately.
            self._sockets.pop(fd, None)
            event = Event(self.sim)
            event.succeed()
            return event
        result = self._issue(Nqe(op=NqeOp.CLOSE, vm_id=self.vm_id, fd=fd))
        result.add_callback(lambda _ev: self._sockets.pop(fd, None))
        return result

    def set_congestion_control(self, fd: int, name: str) -> None:
        """Fire-and-forget setsockopt; errors surface on connect/listen.

        A synchronous variant is available as :meth:`setsockopt_event` for
        callers that want to observe the provider's answer.
        """
        self.setsockopt_event(fd, name)

    def setsockopt_event(self, fd: int, name: str) -> Event:
        self._get(fd)
        return self._issue(
            Nqe(
                op=NqeOp.SETSOCKOPT,
                vm_id=self.vm_id,
                fd=fd,
                args=("congestion_control", name),
            )
        )

    # ------------------------------------------------------------- readiness --
    def wait_readable(self, fd: int) -> Event:
        sock = self._get(fd)
        event = Event(self.sim)
        if sock.readable:
            event.succeed()
        else:
            sock.watchers.append(event)
        return event

    def readable_now(self, fd: int) -> bool:
        return self._get(fd).readable

    # --------------------------------------------------------- queue consumers --
    def _start_completion_pump(self) -> None:
        """Polling-mode completion consumer as an event-driven pump."""
        if self.batch.enabled:
            policy = self.batch

            def handle(nqe):
                self._handle_completion(nqe)
                return None

            BatchRingPump(
                self.completion_queue,
                self.core,
                policy.batch_size,
                policy.per_batch_ns * NANOS,
                policy.per_nqe_ns * NANOS,
                handle,
            )
            return

        def handle(nqe, _token):
            self._handle_completion(nqe)
            return None

        RingPump(self.completion_queue, self.core, GUESTLIB_OP_NS * NANOS, handle)

    def _completion_loop(self):
        if self.batch.enabled:
            yield from self._completion_loop_batched()
            return
        while True:
            yield self.completion_queue.wait_nonempty()
            if self.notify_mode is NotifyMode.BATCHED_INTERRUPT:
                yield self.sim.timeout(INTERRUPT_DELAY)
                yield self.core.execute(INTERRUPT_COST_NS * NANOS)
            for nqe in self.completion_queue.pop_batch():
                yield self.core.execute(GUESTLIB_OP_NS * NANOS)
                self._handle_completion(nqe)

    def _completion_loop_batched(self):
        """Drain a burst, charge ``per_batch + N*per_nqe`` once, handle all."""
        policy = self.batch
        while True:
            yield self.completion_queue.wait_nonempty()
            if self.notify_mode is NotifyMode.BATCHED_INTERRUPT:
                yield self.sim.timeout(INTERRUPT_DELAY)
                yield self.core.execute(INTERRUPT_COST_NS * NANOS)
            batch = self.completion_queue.pop_batch(policy.batch_size)
            if not batch:
                continue
            yield self.core.execute(policy.burst_ns(len(batch)) * NANOS)
            for nqe in batch:
                self._handle_completion(nqe)

    def _handle_completion(self, nqe: Nqe) -> None:
        if nqe.span is not None:
            nqe.span.cpu(GUESTLIB_OP_NS).end()
        event = self._pending.pop(nqe.token, None)
        if event is None:
            free_nqe(nqe)
            return  # completion for a forgotten (timed-out/duplicated) call
        if self._ft:
            self._pending_nqes.pop(nqe.token, None)
        if nqe.status is NqeStatus.OK:
            event.succeed(nqe.result if nqe.result is not None else nqe.fd)
        else:
            error = nqe.result
            if not isinstance(error, BaseException):
                error = SocketError(str(error))
            event.fail(wrap_transport_error(error))
        # The completion is fully consumed (result extracted, span ended,
        # request forgotten) — recycle it.
        free_nqe(nqe)

    def _start_receive_pump(self) -> None:
        """Polling-mode receive consumer as an event-driven pump.

        Handling is synchronous (:meth:`_handle_receive_fast`); reader
        copies chain through ``Core.execute_call`` entries, which preserve
        the generator loop's ``busy_until`` accounting exactly.
        """
        if self.batch.enabled:
            policy = self.batch
            per_nqe_ns = policy.per_nqe_ns

            def handle_batched(nqe):
                span = nqe.span
                if span is not None:
                    deliver = span.child("guestlib.deliver", "guestlib")
                    if deliver is not None:
                        deliver.cpu(per_nqe_ns)
                    self._handle_receive_fast(nqe)
                    if deliver is not None:
                        deliver.end()
                    span.end()
                    free_nqe(nqe)
                    return None
                self._handle_receive_fast(nqe)
                free_nqe(nqe)
                return None

            BatchRingPump(
                self.receive_queue,
                self.core,
                policy.batch_size,
                policy.per_batch_ns * NANOS,
                policy.per_nqe_ns * NANOS,
                handle_batched,
            )
            return

        if self._traced:

            def pre(nqe):
                span = nqe.span
                if span is None:
                    return None
                deliver = span.child("guestlib.deliver", "guestlib")
                if deliver is not None:
                    deliver.cpu(GUESTLIB_OP_NS)
                return (deliver, span)

            def post(token):
                if token is None:
                    return
                deliver, span = token
                if deliver is not None:
                    deliver.end()
                span.end()

            def handle(nqe, _token):
                # post() ends the span from the refs pre() captured, so
                # clearing nqe.span here is safe.
                self._handle_receive_fast(nqe)
                free_nqe(nqe)
                return None

            RingPump(
                self.receive_queue,
                self.core,
                GUESTLIB_OP_NS * NANOS,
                handle,
                pre,
                post,
            )
            return

        def handle(nqe, _token):
            self._handle_receive_fast(nqe)
            free_nqe(nqe)
            return None

        RingPump(self.receive_queue, self.core, GUESTLIB_OP_NS * NANOS, handle)

    def _receive_loop(self):
        if self.batch.enabled:
            yield from self._receive_loop_batched()
            return
        while True:
            yield self.receive_queue.wait_nonempty()
            if self.notify_mode is NotifyMode.BATCHED_INTERRUPT:
                yield self.sim.timeout(INTERRUPT_DELAY)
                yield self.core.execute(INTERRUPT_COST_NS * NANOS)
            for nqe in self.receive_queue.pop_batch():
                deliver = None
                if self._traced and nqe.span is not None:
                    deliver = nqe.span.child("guestlib.deliver", "guestlib")
                    if deliver is not None:
                        deliver.cpu(GUESTLIB_OP_NS)
                yield self.core.execute(GUESTLIB_OP_NS * NANOS)
                yield from self._handle_receive(nqe)
                if deliver is not None:
                    deliver.end()
                if nqe.span is not None:
                    nqe.span.end()
                free_nqe(nqe)

    def _receive_loop_batched(self):
        """Burst-charge the nqe handling; bulk-data copies stay per-nqe.

        The amortized cost covers descriptor handling only — huge-page
        copies inside :meth:`_handle_receive` are real per-byte work and
        are still charged where the data moves.
        """
        policy = self.batch
        while True:
            yield self.receive_queue.wait_nonempty()
            if self.notify_mode is NotifyMode.BATCHED_INTERRUPT:
                yield self.sim.timeout(INTERRUPT_DELAY)
                yield self.core.execute(INTERRUPT_COST_NS * NANOS)
            batch = self.receive_queue.pop_batch(policy.batch_size)
            if not batch:
                continue
            yield self.core.execute(policy.burst_ns(len(batch)) * NANOS)
            for nqe in batch:
                deliver = None
                if self._traced and nqe.span is not None:
                    deliver = nqe.span.child("guestlib.deliver", "guestlib")
                    if deliver is not None:
                        deliver.cpu(policy.per_nqe_ns)
                yield from self._handle_receive(nqe)
                if deliver is not None:
                    deliver.end()
                if nqe.span is not None:
                    nqe.span.end()
                free_nqe(nqe)

    def _handle_receive(self, nqe: Nqe):
        sock = self._sockets.get(nqe.fd)
        if sock is None:
            if nqe.data_desc is not None:
                nqe.data_desc.free()
            return
        if nqe.op is NqeOp.DATA:
            if self._traced:
                self.tracer.count("guestlib.rx_bytes", nqe.data_desc.size)
            if self.inline_rx_copy:
                yield self.region.copy(self.core, nqe.data_desc.size)
                nqe.data_desc.eof = True  # marker: already copied out
            sock.rx_chunks.append([nqe.data_desc, nqe.data_desc.size])
            sock.rx_available += nqe.data_desc.size
            yield from self._drain_readers_gen(sock)
        elif nqe.op is NqeOp.EOF:
            sock.eof = True
            yield from self._drain_readers_gen(sock)
        elif nqe.op is NqeOp.RESET:
            self._reset_socket(sock)
        elif nqe.op is NqeOp.ACCEPT_EVENT:
            child_fd = nqe.result
            self._sockets[child_fd] = _GuestSocket(child_fd, connected=True)
            if sock.acceptors:
                sock.acceptors.popleft().succeed(child_fd)
            else:
                sock.accept_ready.append(child_fd)
        self._wake_watchers(sock)

    def _handle_receive_fast(self, nqe: Nqe) -> None:
        """Synchronous :meth:`_handle_receive` for the pump path.

        Requires ``inline_rx_copy`` off (the pump is not started
        otherwise): the only blocking step left — the recv-side copy out
        of the huge pages — is chained via :meth:`_drain_readers_fast`.
        """
        sock = self._sockets.get(nqe.fd)
        if sock is None:
            if nqe.data_desc is not None:
                nqe.data_desc.free()
            return
        op = nqe.op
        if op is NqeOp.DATA:
            if self._traced:
                self.tracer.count("guestlib.rx_bytes", nqe.data_desc.size)
            sock.rx_chunks.append([nqe.data_desc, nqe.data_desc.size])
            sock.rx_available += nqe.data_desc.size
            if sock.readers:
                self._drain_readers_fast(sock)
        elif op is NqeOp.EOF:
            sock.eof = True
            if sock.readers:
                self._drain_readers_fast(sock)
        elif op is NqeOp.RESET:
            self._reset_socket(sock)
        elif op is NqeOp.ACCEPT_EVENT:
            child_fd = nqe.result
            self._sockets[child_fd] = _GuestSocket(child_fd, connected=True)
            if sock.acceptors:
                sock.acceptors.popleft().succeed(child_fd)
            else:
                sock.accept_ready.append(child_fd)
        self._wake_watchers(sock)

    def _reset_socket(self, sock: _GuestSocket) -> None:
        """The backend connection died with its NSM (failover).

        Waiting readers/acceptors and in-flight ops on the fd fail with
        ECONNRESET; buffered rx data stays readable; watchers wake (the
        socket is "readable": polling it yields the error).
        """
        if sock.reset:
            return
        sock.reset = True
        sock.eof = True
        sock.connected = False
        self.resets_seen += 1
        if self._traced:
            self.tracer.count("guestlib.resets")
        while sock.readers:
            _max_bytes, event = sock.readers.popleft()
            event.fail(
                ConnectionReset(f"fd {sock.fd}: backend connection reset")
            )
        while sock.acceptors:
            sock.acceptors.popleft().fail(
                ConnectionReset(f"fd {sock.fd}: backend listener reset")
            )
        if self._ft:
            for token, nqe in list(self._pending_nqes.items()):
                if nqe.fd != sock.fd:
                    continue
                event = self._pending.pop(token, None)
                self._pending_nqes.pop(token, None)
                chunk = nqe.data_desc
                if chunk is not None and not chunk.freed:
                    chunk.free()
                if event is not None:
                    event.fail(
                        ConnectionReset(
                            f"{nqe.op.value} on fd {sock.fd}: "
                            "backend connection reset"
                        )
                    )
        self._wake_watchers(sock)

    def _wake_watchers(self, sock: _GuestSocket) -> None:
        if sock.watchers and sock.readable:
            watchers, sock.watchers = sock.watchers, []
            for watcher in watchers:
                watcher.succeed()

    # -- reader satisfaction (copies data out of huge pages) -----------------
    def _drain_readers(self, sock: _GuestSocket) -> None:
        if sock.readers and (sock.rx_available > 0 or sock.eof):
            if self._rx_pump:
                self._drain_readers_fast(sock)
            else:
                self.sim.process(self._drain_readers_gen(sock))

    def _drain_readers_fast(self, sock: _GuestSocket) -> None:
        """:meth:`_drain_readers_gen` without the process frame.

        Byte accounting happens up front; each reader's copy is charged
        as a chained direct call on the VM core, whose FIFO ``busy_until``
        serialization gives the same completion times as the generator's
        one-copy-per-resume sequence.
        """
        while sock.readers and (sock.rx_available > 0 or sock.eof):
            max_bytes, event = sock.readers.popleft()
            taken = 0
            rx_chunks = sock.rx_chunks
            while rx_chunks and taken < max_bytes:
                entry = rx_chunks[0]  # [chunk, bytes remaining]
                take = min(entry[1], max_bytes - taken)
                entry[1] -= take
                taken += take
                if entry[1] == 0:
                    rx_chunks.popleft()
                    entry[0].free()
            sock.rx_available -= taken
            if taken > 0:
                copy_span = None
                if self._traced:
                    copy_span = self.tracer.span(
                        "guestlib.recv_copy", "guestlib", tenant=self.vm_id
                    )
                self.region.copy_call(
                    self.core, taken, self._finish_read, event, taken, copy_span
                )
            else:
                event.succeed(taken)

    def _finish_read(self, event: Event, taken: int, copy_span) -> None:
        if copy_span is not None:
            copy_span.annotate(bytes=taken).end()
        event.succeed(taken)

    def _drain_readers_gen(self, sock: _GuestSocket):
        while sock.readers and (sock.rx_available > 0 or sock.eof):
            max_bytes, event = sock.readers.popleft()
            taken = 0
            # Chunks may be consumed partially; a chunk's huge-page bytes
            # are released once its last byte has been read out.
            while sock.rx_chunks and taken < max_bytes:
                entry = sock.rx_chunks[0]  # [chunk, bytes remaining]
                take = min(entry[1], max_bytes - taken)
                entry[1] -= take
                taken += take
                if entry[1] == 0:
                    sock.rx_chunks.popleft()
                    entry[0].free()
            sock.rx_available -= taken
            if taken > 0 and not self.inline_rx_copy:
                copy_span = None
                if self._traced:
                    copy_span = self.tracer.span(
                        "guestlib.recv_copy", "guestlib", tenant=self.vm_id
                    )
                yield self.region.copy(self.core, taken)
                if copy_span is not None:
                    copy_span.annotate(bytes=taken).end()
            event.succeed(taken)
