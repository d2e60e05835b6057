"""Pluggable wire codecs for the TCP runtime — the binary wire plane.

The original runtime spoke length-prefixed JSON (:mod:`.framing`), which is
simple and debuggable but dominated the hot path of a real deployment: every
``<BCAST>`` carrying a batch of requests was dict-ified, string-encoded and
re-parsed on every overlay hop.  This module makes the wire image pluggable
and adds a binary codec that is several times faster in both directions.

Two codecs are registered:

``"binary"`` (default)
    Frame layout::

        4-byte big-endian body length | 1-byte wire version | envelope

    The envelope is a flat tuple — ``(kind, sender, round, ...)`` —
    serialised with :mod:`marshal`, CPython's C-speed codec for exactly
    the value shapes the runtime carries
    (payload ``data`` is always a canonical JSON value, enforced at the
    submit boundary by :func:`.framing.canonical_payload`).  The envelope
    idiom follows msgpack-style consensus transports (flat tagged tuples,
    one length-prefixed frame per message); msgpack itself is not a
    dependency of this repository, and marshal is both faster and already
    in the standard library.  Both ends of every connection are CPython
    processes on one host (the deployment model of this runtime), so
    marshal's same-interpreter format assumption holds; the version byte
    exists to fail loudly if that ever changes.

    A ``<BCAST>`` envelope is ``(kind, sender, round, origin, count,
    nbytes, rows)`` where ``rows`` is itself the marshal image of the
    batch's ``(origin, seq, nbytes, submit_time, data, client)`` request
    rows.  Decoding the envelope therefore yields one opaque ``bytes``
    object instead of a tree of per-request containers: the decoder emits
    a :class:`BroadcastHeader`, the receiver asks its protocol core
    whether it already knows ``(round, origin)`` — every server receives
    each message from all of its predecessors, and only the first copy
    carries information — and only then builds the batch
    (:func:`decode_batch`).  A message the core forwards is re-framed
    with the received ``rows`` bytes verbatim
    (:meth:`BinaryCodec.encode_relay`); only the ``sender`` field
    changes on a relay hop.

``"json"``
    The original length-prefixed JSON image, byte-identical to what the
    runtime spoke before the binary plane existed.  Kept as the
    differential oracle: the cross-codec equivalence tests run the same
    cluster scenario under both codecs and assert identical delivered
    orders and application end states.

Decoded items are ``(sender, Message)`` tuples (protocol traffic),
:class:`BroadcastHeader` records (binary ``<BCAST>`` frames, batch not yet
built) or plain dicts (control frames — heartbeats).  Decoders are
incremental and hardened: truncated frames wait for more bytes, an
oversized length prefix raises before any body is buffered, and a garbage
version byte or undecodable envelope raises :class:`ValueError` (so does
:func:`decode_batch` on malformed rows) instead of crashing the
connection handler with an arbitrary exception.
"""

from __future__ import annotations

import marshal
import struct
from typing import Any, NamedTuple, Union, cast

from ..core.batching import Batch, Request
from ..core.messages import Backward, Broadcast, FailureNotice, Forward, Message
from .framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_message,
    encode_frame,
    encode_message,
)

__all__ = ["WIRE_VERSION", "WireCodec", "JsonCodec", "BinaryCodec",
           "get_codec", "CODECS", "DecodedFrame", "BroadcastHeader",
           "decode_batch"]

#: Version byte leading every binary frame body.  Bumped whenever the
#: envelope layout changes; a decoder that sees any other value raises.
WIRE_VERSION = 2

_LEN = struct.Struct(">I")
_VERSION_BYTE = bytes([WIRE_VERSION])

# Envelope kind tags (first element of every binary envelope tuple).
_K_BCAST = 0
_K_FAIL = 1
_K_FWD = 2
_K_BWD = 3
_K_CONTROL = 4

#: JSON ``"type"`` discriminators that are protocol messages; anything
#: else (``"heartbeat"``) is a control frame and passes through as a dict.
_JSON_PROTOCOL_KINDS = frozenset({"bcast", "fail", "fwd", "bwd"})


class BroadcastHeader(NamedTuple):
    """A decoded binary ``<BCAST>`` frame whose batch is not built yet.

    ``rows`` is the marshal image of the batch's request rows, exactly as
    received; :meth:`message` (or :func:`decode_batch`) builds the batch,
    and :meth:`BinaryCodec.encode_relay` forwards the bytes unchanged.
    """

    sender: int
    round: int
    origin: int
    count: int
    nbytes: int
    rows: bytes

    def message(self) -> Broadcast:
        """The full :class:`~repro.core.messages.Broadcast` (decodes the
        batch; raises :class:`ValueError` on a malformed ``rows`` blob)."""
        return Broadcast(round=self.round, origin=self.origin,
                         payload=decode_batch(self.count, self.nbytes,
                                              self.rows))


#: One decoded frame: protocol traffic, a binary broadcast header, or a
#: control dict.
DecodedFrame = Union[tuple[int, Message], BroadcastHeader, dict[str, Any]]


class WireCodec:
    """Interface every wire codec implements.

    A codec owns the full frame image (length prefix included) for both
    protocol messages and control frames, plus an incremental per-connection
    decoder.  Codecs are stateless singletons; all per-connection state
    lives in the decoder.
    """

    name: str = "?"

    def encode_message(self, sender: int, message: Message) -> bytes:
        """One protocol message as a complete frame."""
        raise NotImplementedError

    def encode_control(self, obj: dict[str, Any]) -> bytes:
        """One control frame (e.g. a heartbeat) as a complete frame."""
        raise NotImplementedError

    def encode_relay(self, sender: int, header: BroadcastHeader) -> bytes:
        """A received broadcast re-framed from *sender* (only codecs whose
        decoder yields :class:`BroadcastHeader` records implement it)."""
        raise NotImplementedError

    def decoder(self, *,
                max_frame_bytes: int = MAX_FRAME_BYTES) -> "Any":
        """A fresh incremental decoder for one connection."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# --------------------------------------------------------------------- #
# JSON codec (the differential oracle — the pre-binary wire image)
# --------------------------------------------------------------------- #

class _JsonMessageDecoder:
    """Incremental decoder yielding ``(sender, Message)`` / control dicts."""

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._frames = FrameDecoder(max_frame_bytes=max_frame_bytes)

    def feed(self, data: bytes) -> list[DecodedFrame]:
        items: list[DecodedFrame] = []
        for obj in self._frames.feed(data):
            if isinstance(obj, dict) and obj.get("type") in _JSON_PROTOCOL_KINDS:
                items.append(decode_message(obj))
            elif isinstance(obj, dict):
                items.append(obj)
            else:
                raise ValueError(f"frame is not an object: {obj!r}")
        return items

    @property
    def pending_bytes(self) -> int:
        return self._frames.pending_bytes


class JsonCodec(WireCodec):
    """Length-prefixed JSON frames — byte-identical to the original wire."""

    name = "json"

    def encode_message(self, sender: int, message: Message) -> bytes:
        return encode_frame(encode_message(sender, message))

    def encode_control(self, obj: dict[str, Any]) -> bytes:
        return encode_frame(obj)

    def decoder(self, *, max_frame_bytes: int = MAX_FRAME_BYTES
                ) -> _JsonMessageDecoder:
        return _JsonMessageDecoder(max_frame_bytes=max_frame_bytes)


# --------------------------------------------------------------------- #
# Binary codec
# --------------------------------------------------------------------- #

class _BinaryMessageDecoder:
    """Incremental decoder for version-tagged marshal envelopes."""

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self.max_frame_bytes = max_frame_bytes

    def feed(self, data: bytes) -> list[DecodedFrame]:
        buf = self._buffer
        buf.extend(data)
        items: list[DecodedFrame] = []
        header = _LEN.size
        while len(buf) >= header:
            (length,) = _LEN.unpack_from(buf, 0)
            if length > self.max_frame_bytes:
                raise ValueError(f"frame length {length} exceeds limit")
            if len(buf) < header + length:
                break
            body = bytes(buf[header:header + length])
            del buf[:header + length]
            items.append(_decode_body(body))
        return items

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def _decode_body(body: bytes) -> DecodedFrame:
    if not body:
        raise ValueError("empty frame body")
    if body[0] != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {body[0]} "
                         f"(expected {WIRE_VERSION})")
    try:
        envelope = marshal.loads(body[1:])
    except (ValueError, EOFError, TypeError) as exc:
        raise ValueError(f"undecodable binary envelope: {exc}") from None
    try:
        return _decode_envelope(envelope)
    except ValueError:
        raise
    except (TypeError, IndexError, KeyError) as exc:
        raise ValueError(f"malformed binary envelope: {exc}") from None


def _decode_envelope(env: Any) -> DecodedFrame:
    kind = env[0]
    if kind == _K_BCAST:
        _k, sender, rnd, origin, count, nbytes, rows = env
        if type(rows) is not bytes:
            raise ValueError(f"BCAST rows must be bytes, got "
                             f"{type(rows).__name__}")
        return BroadcastHeader(sender, rnd, origin, count, nbytes, rows)
    if kind == _K_FAIL:
        _k, sender, rnd, failed, reporter = env
        return sender, FailureNotice(round=rnd, failed=failed,
                                     reporter=reporter)
    if kind == _K_FWD:
        _k, sender, rnd, origin = env
        return sender, Forward(round=rnd, origin=origin)
    if kind == _K_BWD:
        _k, sender, rnd, origin = env
        return sender, Backward(round=rnd, origin=origin)
    if kind == _K_CONTROL:
        obj = env[1]
        if not isinstance(obj, dict):
            raise ValueError(f"control frame is not an object: {obj!r}")
        return obj
    raise ValueError(f"unknown envelope kind {kind!r}")


def decode_batch(count: int, nbytes: int, rows: bytes) -> Batch:
    """Build the :class:`~repro.core.batching.Batch` of a broadcast from
    its wire fields.

    Request rows are rebuilt through a fast-construction path that
    bypasses the frozen-dataclass ``__init__`` (the wire already carries
    the batch's ``count``/``nbytes``, so the ``__post_init__``
    re-aggregation is skipped too).  A malformed ``rows`` blob raises
    :class:`ValueError`.
    """
    new = object.__new__
    requests: tuple[Request, ...] = ()
    if rows:
        decoded: list[Request] = []
        append = decoded.append
        try:
            for o, s, nb, st, d, c in marshal.loads(rows):
                request = new(Request)
                request.__dict__.update(
                    origin=o, seq=s, nbytes=nb, submit_time=st,
                    data=d, client=c)
                append(request)
        except (ValueError, EOFError, TypeError) as exc:
            raise ValueError(f"undecodable batch rows: {exc}") from None
        requests = tuple(decoded)
    batch = new(Batch)
    batch.__dict__.update(count=count, nbytes=nbytes, requests=requests)
    return batch


def _frame(envelope: tuple[Any, ...]) -> bytes:
    body = _VERSION_BYTE + marshal.dumps(envelope)
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame too large ({len(body)} bytes)")
    return _LEN.pack(len(body)) + body


class BinaryCodec(WireCodec):
    """Length-prefixed, version-tagged marshal envelopes (see module doc).

    Several times faster than :class:`JsonCodec` in both directions: the
    encoder packs flat tuples straight from the message objects (no
    intermediate dict tree, no number-to-string conversion), the decoder
    stops at a :class:`BroadcastHeader` for broadcasts, and a relayed
    broadcast is re-framed from its received bytes.
    """

    name = "binary"

    def encode_message(self, sender: int, message: Message) -> bytes:
        # exact-type dispatch through one type() lookup; the casts mirror
        # what each branch established (mypy cannot narrow through `t`)
        t = type(message)
        if t is Broadcast:
            bcast = cast(Broadcast, message)
            batch = bcast.payload
            rows = marshal.dumps(tuple(
                (r.origin, r.seq, r.nbytes, r.submit_time, r.data, r.client)
                for r in batch.requests)) if batch.requests else b""
            return _frame((_K_BCAST, sender, bcast.round, bcast.origin,
                           batch.count, batch.nbytes, rows))
        if t is FailureNotice:
            fail = cast(FailureNotice, message)
            return _frame((_K_FAIL, sender, fail.round, fail.failed,
                           fail.reporter))
        if t is Forward:
            fwd = cast(Forward, message)
            return _frame((_K_FWD, sender, fwd.round, fwd.origin))
        if t is Backward:
            bwd = cast(Backward, message)
            return _frame((_K_BWD, sender, bwd.round, bwd.origin))
        raise TypeError(f"cannot encode {type(message)!r}")

    def encode_control(self, obj: dict[str, Any]) -> bytes:
        return _frame((_K_CONTROL, obj))

    def encode_relay(self, sender: int, header: BroadcastHeader) -> bytes:
        """Forward a received broadcast from *sender*: the ``rows`` bytes
        are re-framed verbatim, no request is re-encoded."""
        return _frame((_K_BCAST, sender, header.round, header.origin,
                       header.count, header.nbytes, header.rows))

    def decoder(self, *, max_frame_bytes: int = MAX_FRAME_BYTES
                ) -> _BinaryMessageDecoder:
        return _BinaryMessageDecoder(max_frame_bytes=max_frame_bytes)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

#: Stateless codec singletons, keyed by name.
CODECS: dict[str, WireCodec] = {
    JsonCodec.name: JsonCodec(),
    BinaryCodec.name: BinaryCodec(),
}


def get_codec(codec: Union[str, WireCodec]) -> WireCodec:
    """Resolve a codec name (or pass a codec instance through)."""
    if isinstance(codec, WireCodec):
        return codec
    try:
        return CODECS[codec]
    except KeyError:
        raise ValueError(f"unknown wire codec {codec!r} "
                         f"(available: {sorted(CODECS)})") from None
