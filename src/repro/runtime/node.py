"""asyncio/TCP deployment of the AllConcur protocol core.

Each :class:`RuntimeNode` runs one :class:`~repro.core.server.AllConcurServer`
and talks to its overlay neighbours over TCP: it listens on its own port,
dials every successor, and translates protocol effects into frames through a
pluggable wire codec (:mod:`repro.runtime.wire` — binary by default, JSON as
the differential oracle).  A lightweight heartbeat task implements the
failure detector of §3.2 (period ``Δhb``, timeout ``Δto``): every node
heartbeats its successors and suspects a predecessor after ``Δto`` of
silence.

The same sans-IO core that the simulator exercises deploys unchanged over
real sockets.  With the binary codec a received ``<BCAST>`` is decoded only
up to its header: the core is asked whether it already knows the message
(:meth:`~repro.core.server.AllConcurServer.knows_broadcast`), duplicates
are fed to it with an empty payload, and a message it forwards is relayed
with the received batch bytes (README, "Wire format & multi-process
runtime").
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.batching import Batch, Request
from ..core.config import AllConcurConfig
from ..core.interfaces import Deliver, Effect, RoundAdvance, Send
from ..core.messages import Backward, Broadcast, Message
from ..core.server import AllConcurServer
from .framing import canonical_payload
from .wire import BroadcastHeader, DecodedFrame, WireCodec, get_codec

__all__ = ["RuntimeNode", "NodeAddress", "DeliveredRound"]

#: payload handed to the core for a broadcast it already knows
_KNOWN_PAYLOAD = Batch.empty()


@dataclass(frozen=True)
class NodeAddress:
    """TCP endpoint of one AllConcur server.

    ``port == 0`` requests an ephemeral port: the node binds to port 0 in
    :meth:`RuntimeNode.start_listening` and publishes the kernel-assigned
    port back into the shared address map before anyone dials it.  This
    replaces the old probe-then-bind port scan, which was TOCTOU-racy (a
    port verified free could be taken before the listener bound it — a
    recurring flaky-CI source).
    """

    server_id: int
    host: str
    port: int


@dataclass(frozen=True)
class DeliveredRound:
    """One A-delivered round as observed by a runtime node."""

    round: int
    messages: tuple[tuple[int, Batch], ...]
    removed: tuple[int, ...]
    wall_time: float


class RuntimeNode:
    """One AllConcur server bound to asyncio TCP transports."""

    def __init__(self, server_id: int, config: AllConcurConfig,
                 addresses: dict[int, NodeAddress], *,
                 heartbeat_period: float = 0.05,
                 heartbeat_timeout: float = 0.5,
                 enable_failure_detector: bool = True,
                 codec: "str | WireCodec" = "binary") -> None:
        if server_id not in addresses:
            raise ValueError(f"no address for server {server_id}")
        self.id = server_id
        self.config = config
        self.addresses = addresses
        #: wire codec shared by every connection of this node ("binary"
        #: default; "json" is the differential oracle — see runtime.wire)
        self.codec = get_codec(codec)
        self.server = AllConcurServer(server_id, config)
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self.enable_failure_detector = enable_failure_detector

        self.delivered: list[DeliveredRound] = []
        self.deliver_callbacks: list[Callable[[DeliveredRound], None]] = []

        self._tcp_server: Optional[asyncio.AbstractServer] = None
        #: live inbound connection handlers (cancelled on stop so no
        #: coroutine outlives the event loop)
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._writers: dict[int, asyncio.StreamWriter] = {}
        #: per-peer outbound frame queues, drained by one sender task
        #: each.  Effects are applied *synchronously* under the protocol
        #: lock and only enqueue frames; all socket awaits (dial retry,
        #: drain) happen in the sender tasks, outside the lock — the
        #: PR 6 stall class is structurally impossible, and per-peer
        #: FIFO order is preserved by the single queue per peer.
        self._outboxes: dict[int, asyncio.Queue[bytes]] = {}
        self._senders: dict[int, asyncio.Task[None]] = {}
        self._last_heard: dict[int, float] = {}
        self._suspected: set[int] = set()
        #: peers known to be down: sends are dropped instead of retrying
        #: the dial (a dead listener would otherwise stall the whole
        #: effect-execution pipeline for the full reconnect backoff)
        self._down: set[int] = set()
        self._tasks: list[asyncio.Task[None]] = []
        self._lock = asyncio.Lock()
        self._stopped = asyncio.Event()
        #: set on every delivery; wakes :meth:`wait_for_round`
        self._progress = asyncio.Event()
        #: the broadcast being handled and its received header, set only
        #: inside one synchronous locked section: a ``Send`` of exactly
        #: that message is relayed with the received bytes
        self._relay: Optional[tuple[Message, BroadcastHeader]] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start listening and connect to all successors.

        Single-node convenience; a cluster brings all listeners up first
        (:meth:`start_listening` on every node, which publishes the actual
        ports) and only then dials (:meth:`connect_peers`), so no dial can
        race a not-yet-bound listener.
        """
        await self.start_listening()
        await self.connect_peers()

    async def start_listening(self) -> None:
        """Bind the listener and publish the actual port.

        With ``port == 0`` the kernel assigns a free ephemeral port
        atomically at bind time (no probe/bind race); the assigned port is
        written back into the shared address map so peers dial the right
        endpoint."""
        addr = self.addresses[self.id]
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, addr.host, addr.port)
        if addr.port == 0:
            port = self._tcp_server.sockets[0].getsockname()[1]
            self.addresses[self.id] = NodeAddress(self.id, addr.host, port)

    async def connect_peers(self) -> None:
        """Dial every successor (their listeners must be up) and start the
        failure-detector tasks."""
        for succ in self.server.graph.successors(self.id):
            if succ in self.addresses:
                await self._connect(succ)
        if self.enable_failure_detector:
            self._tasks.append(asyncio.create_task(self._heartbeat_loop()))
            self._tasks.append(asyncio.create_task(self._timeout_loop()))

    async def stop(self) -> None:
        """Close every connection and stop background tasks."""
        self._stopped.set()
        senders = list(self._senders.values())
        self._senders.clear()
        self._outboxes.clear()
        for task in self._tasks + senders:
            task.cancel()
        for task in self._tasks + senders:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        conn_tasks = list(self._conn_tasks)
        self._conn_tasks.clear()
        for task in conn_tasks:
            task.cancel()
        for task in conn_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        writers = list(self._writers.values())
        self._writers.clear()
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called (the node is inert)."""
        return self._stopped.is_set()

    @property
    def address(self) -> NodeAddress:
        """This node's published endpoint (actual port once listening)."""
        return self.addresses[self.id]

    # ------------------------------------------------------------------ #
    # Application API
    # ------------------------------------------------------------------ #
    async def submit(self, request: Request) -> None:
        """Queue a request for the next round's message.

        The payload is normalised to its JSON wire image
        (:func:`~repro.runtime.framing.canonical_payload`) so the local
        copy equals what every peer will decode."""
        from dataclasses import replace

        canonical = canonical_payload(request.data)
        if canonical is not request.data:
            request = replace(request, data=canonical)
        async with self._lock:
            self.server.submit(request)

    async def start_round(self, *, payload: Optional[Batch] = None) -> None:
        """A-broadcast into the next open window slot (with the default
        ``pipeline_depth`` of 1: the current round's message)."""
        async with self._lock:
            self._execute(self.server.start_round(payload=payload))

    async def fill_window(self, *, payload: Optional[Batch] = None) -> None:
        """A-broadcast into every open window slot — all ``pipeline_depth``
        rounds the server may run concurrently."""
        async with self._lock:
            self._execute(self.server.fill_window(payload=payload))

    def on_deliver(self, callback: Callable[[DeliveredRound], None]) -> None:
        """Register a callback invoked on every A-delivered round."""
        self.deliver_callbacks.append(callback)

    async def notify_failure(self, suspect: int) -> None:
        """Feed a failure suspicion into the protocol core.

        This is the deterministic counterpart of the heartbeat timeout: the
        cluster's fail-stop operation calls it on every monitor of the
        failed server so membership changes do not depend on detector
        timing.  Duplicates (e.g. the heartbeat loop firing afterwards) are
        absorbed by the ``_suspected`` set."""
        if suspect in self._suspected:
            return
        if suspect not in set(self.server.graph.predecessors(self.id)):
            return
        self._suspected.add(suspect)
        self.mark_down(suspect)
        async with self._lock:
            self._execute(self.server.notify_failure(suspect))

    @property
    def delivered_rounds(self) -> int:
        return len(self.delivered)

    @property
    def broadcast_rounds(self) -> int:
        """Number of rounds this node's server has A-broadcast in."""
        return self.server.broadcast_rounds

    async def wait_for_round(self, round_no: int, *,
                             timeout: float = 30.0) -> DeliveredRound:
        """Wait until the node has delivered *round_no* (0-based); woken
        by each delivery, not by polling."""
        deadline = time.monotonic() + timeout
        while len(self.delivered) <= round_no:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"server {self.id} did not deliver round {round_no} "
                    f"within {timeout}s")
            self._progress.clear()
            try:
                await asyncio.wait_for(self._progress.wait(), remaining)
            except asyncio.TimeoutError:
                pass
        return self.delivered[round_no]

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    async def _connect(self, peer: int) -> None:
        addr = self.addresses[peer]
        for attempt in range(40):
            # Re-checked every attempt: the peer can be marked down (or this
            # node stopped) *while* the retry loop is sleeping.  Without the
            # re-check a send to a just-crashed peer keeps dialling its dead
            # listener for the full backoff — and since effects execute
            # under the protocol lock, that stalls the node's own round
            # driving for ~40s (long enough to look like a lost round).
            if peer in self._down or self._stopped.is_set():
                return
            try:
                _reader, writer = await asyncio.open_connection(
                    addr.host, addr.port)
                self._writers[peer] = writer
                return
            except OSError:
                await asyncio.sleep(0.05 * (attempt + 1))
        raise ConnectionError(f"server {self.id} cannot reach {peer}")

    def mark_down(self, peer: int) -> None:
        """Note that *peer* is dead: close its connection and stop dialling
        it (fail-stop model — a crashed server never comes back under the
        same endpoint within an epoch).

        This is a public sync entry point (the facade thread may call it
        while the loop runs), so it must not mutate ``_writers`` — the
        sender/heartbeat loops pop entries loop-side, and popping here too
        would race them.  Closing is enough: every reader of ``_writers``
        checks ``_down`` or ``is_closing()`` first, and the loop-side
        teardown paths drop the stale entry."""
        self._down.add(peer)
        writer = self._writers.get(peer)
        if writer is not None:
            writer.close()

    async def _get_writer(self, peer: int) -> Optional[asyncio.StreamWriter]:
        if peer in self._down:
            return None
        writer = self._writers.get(peer)
        if writer is None or writer.is_closing():
            try:
                await self._connect(peer)
            except ConnectionError:
                return None
            writer = self._writers.get(peer)
        return writer

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        decoder = self.codec.decoder()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._stopped.is_set():
                data = await reader.read(65536)
                if not data:
                    break
                for item in decoder.feed(data):
                    await self._handle_frame(item)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()

    async def _handle_frame(self, item: DecodedFrame) -> None:
        if isinstance(item, dict):                     # control frame
            if item.get("type") == "heartbeat":
                self._last_heard[int(item["from"])] = time.monotonic()
                return
            raise ValueError(f"unknown control frame {item.get('type')!r}")
        if isinstance(item, BroadcastHeader):
            self._last_heard[item.sender] = time.monotonic()
            async with self._lock:
                self._handle_broadcast(item)
            return
        sender, message = item
        self._last_heard[sender] = time.monotonic()
        async with self._lock:
            self._execute(self.server.handle_message(sender, message))

    def _handle_broadcast(self, header: BroadcastHeader) -> None:
        """Feed a binary broadcast to the core (called under the lock).

        A message the core already knows gets the shared empty payload —
        its batch is never decoded.  Otherwise the batch is decoded once,
        and a forward of that very message reuses the received bytes."""
        server = self.server
        if server.knows_broadcast(header.round, header.origin):
            self._execute(server.handle_message(header.sender, Broadcast(
                round=header.round, origin=header.origin,
                payload=_KNOWN_PAYLOAD)))
            return
        message = header.message()
        self._relay = (message, header)
        try:
            self._execute(server.handle_message(header.sender, message))
        finally:
            self._relay = None

    # ------------------------------------------------------------------ #
    # Effects
    # ------------------------------------------------------------------ #
    def _execute(self, effects: list[Effect]) -> None:
        """Apply protocol effects synchronously (called under the lock).

        Nothing here may await: sends only *enqueue* frames, and the
        per-peer sender tasks do the socket I/O outside the lock."""
        for effect in effects:
            if isinstance(effect, Send):
                self._send_effect(effect)
            elif isinstance(effect, Deliver):
                record = DeliveredRound(
                    round=effect.round, messages=effect.messages,
                    removed=effect.removed, wall_time=time.monotonic())
                self.delivered.append(record)
                self._progress.set()
                for cb in self.deliver_callbacks:
                    cb(record)
            elif isinstance(effect, RoundAdvance):
                continue

    def _send_effect(self, effect: Send) -> None:
        relay = self._relay
        if relay is not None and effect.message is relay[0]:
            frame = self.codec.encode_relay(self.id, relay[1])
        else:
            frame = self.codec.encode_message(self.id, effect.message)
        for target in effect.targets:
            self._enqueue_frame(target, frame)

    def _enqueue_frame(self, peer: int, frame: bytes) -> None:
        """Queue *frame* for *peer*, lazily starting its sender task.

        Enqueueing happens under the protocol lock, so the per-peer
        queue sees frames in effect order; the single sender per peer
        preserves that order on the wire."""
        if peer in self._down or self._stopped.is_set():
            return
        queue = self._outboxes.get(peer)
        if queue is None:
            queue = asyncio.Queue()
            self._outboxes[peer] = queue
            self._senders[peer] = asyncio.create_task(
                self._sender_loop(peer, queue))
        queue.put_nowait(frame)

    async def _sender_loop(self, peer: int,
                           queue: "asyncio.Queue[bytes]") -> None:
        """Drain one peer's outbox: dial (with backoff) and write, both
        outside the protocol lock.  Frames to a down peer are dropped,
        matching the fail-stop model."""
        while not self._stopped.is_set():
            frame = await queue.get()
            writer = await self._get_writer(peer)
            if writer is None:
                continue
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                self._writers.pop(peer, None)

    # ------------------------------------------------------------------ #
    # Failure detector (heartbeats over the same connections)
    # ------------------------------------------------------------------ #
    async def _heartbeat_loop(self) -> None:
        frame = self.codec.encode_control({"type": "heartbeat",
                                           "from": self.id})
        while not self._stopped.is_set():
            for succ in self.server.graph.successors(self.id):
                writer = self._writers.get(succ)
                if writer is not None and not writer.is_closing():
                    try:
                        writer.write(frame)
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        self._writers.pop(succ, None)
            await asyncio.sleep(self.heartbeat_period)

    async def _timeout_loop(self) -> None:
        while not self._stopped.is_set():
            await asyncio.sleep(self.heartbeat_period)
            now = time.monotonic()
            for pred in self.server.graph.predecessors(self.id):
                if pred in self._suspected:
                    continue
                last = self._last_heard.get(pred)
                if last is None:
                    continue  # never heard yet: grace period
                if now - last > self.heartbeat_timeout and \
                        pred in set(self.server.members):
                    await self.notify_failure(pred)
