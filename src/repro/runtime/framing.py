"""Wire format of the asyncio/TCP runtime.

The original AllConcur is a C program speaking raw TCP (or InfiniBand
Verbs); this runtime speaks length-prefixed JSON over TCP sockets on
localhost, which is more than enough to demonstrate the deployment path of
the very same protocol core that the simulator exercises (the Python
runtime obviously cannot reach the paper's absolute throughput — see the
README, "Substitutions"; the binary codec that replaced this format on
the hot path is described under "Wire format & multi-process runtime").

Frame layout: ``4-byte big-endian length`` followed by a UTF-8 JSON object
with a ``"type"`` discriminator.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from ..core.batching import Batch, Request
from ..core.messages import Backward, Broadcast, FailureNotice, Forward, Message

__all__ = ["encode_message", "decode_message", "encode_frame", "FrameDecoder",
           "canonical_payload", "MAX_FRAME_BYTES",
           "batch_to_json", "batch_from_json",
           "request_to_json", "request_from_json"]

#: Upper bound on a frame, to protect against corrupted length prefixes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


def _is_canonical(data: Any) -> bool:
    """Whether *data* already equals its JSON image.

    Exact type checks on purpose: a ``list`` of canonical values survives a
    JSON round trip identically, but a ``tuple`` becomes a list, an
    ``IntEnum`` becomes a plain int and a non-``str`` dict key becomes a
    string — those must keep taking the slow normalising path."""
    if data is None or data is True or data is False:
        return True
    t = type(data)
    if t is str or t is int or t is float:
        return True
    if t is list:
        return all(_is_canonical(v) for v in data)
    if t is dict:
        for k, v in data.items():
            if type(k) is not str or not _is_canonical(v):
                return False
        return True
    return False


def canonical_payload(data: Any) -> Any:
    """Normalise application data to its JSON image (tuples become lists,
    dict keys become strings, …).

    The runtime applies this at the submit boundary so the origin server's
    local copy of a request compares equal to every peer's decoded copy —
    otherwise a submitted tuple would A-deliver as a tuple at its origin
    but as a list everywhere else, and cross-replica comparisons would
    report divergence where there is none.  Raises :class:`TypeError` for
    data the wire format cannot carry (better at submit time than
    mid-broadcast).

    Payloads that are already canonical (the common case: client-batch
    envelopes are built canonical by construction) are returned as-is
    after a cheap recursive check — this runs once per submit on both
    backends, and the old unconditional ``json.loads(json.dumps(data))``
    double-serialisation dominated the submit hot path."""
    if data is None or isinstance(data, (str, int, float, bool)):
        return data
    if _is_canonical(data):
        return data
    return json.loads(json.dumps(data))


def request_to_json(r: Request) -> dict[str, Any]:
    """One request's JSON wire image (also the multi-process runtime's
    control-channel representation)."""
    return {
        "origin": r.origin,
        "seq": r.seq,
        "nbytes": r.nbytes,
        "submit_time": r.submit_time,
        "data": r.data,
        **({"client": r.client} if r.client is not None else {}),
    }


def request_from_json(obj: dict[str, Any]) -> Request:
    """Inverse of :func:`request_to_json`."""
    return Request(origin=obj["origin"], seq=obj["seq"], nbytes=obj["nbytes"],
                   submit_time=obj.get("submit_time", 0.0),
                   data=obj.get("data"), client=obj.get("client"))


def batch_to_json(batch: Batch) -> dict[str, Any]:
    return {
        "count": batch.count,
        "nbytes": batch.nbytes,
        "requests": [request_to_json(r) for r in batch.requests],
    }


def batch_from_json(obj: dict[str, Any]) -> Batch:
    requests = tuple(request_from_json(r) for r in obj.get("requests", ()))
    if requests:
        return Batch.of(requests)
    return Batch(count=obj.get("count", 0), nbytes=obj.get("nbytes", 0))


def encode_message(sender: int, message: Message) -> dict[str, Any]:
    """Convert a protocol message into a JSON-serialisable dict."""
    if isinstance(message, Broadcast):
        return {"type": "bcast", "from": sender, "round": message.round,
                "origin": message.origin,
                "payload": batch_to_json(message.payload)}
    if isinstance(message, FailureNotice):
        return {"type": "fail", "from": sender, "round": message.round,
                "failed": message.failed, "reporter": message.reporter}
    if isinstance(message, Forward):
        return {"type": "fwd", "from": sender, "round": message.round,
                "origin": message.origin}
    if isinstance(message, Backward):
        return {"type": "bwd", "from": sender, "round": message.round,
                "origin": message.origin}
    raise TypeError(f"cannot encode {type(message)!r}")


def decode_message(obj: dict[str, Any]) -> tuple[int, Message]:
    """Inverse of :func:`encode_message`: returns ``(sender, message)``."""
    kind = obj.get("type")
    sender = int(obj["from"])
    rnd = int(obj["round"])
    if kind == "bcast":
        return sender, Broadcast(round=rnd, origin=int(obj["origin"]),
                                 payload=batch_from_json(obj["payload"]))
    if kind == "fail":
        return sender, FailureNotice(round=rnd, failed=int(obj["failed"]),
                                     reporter=int(obj["reporter"]))
    if kind == "fwd":
        return sender, Forward(round=rnd, origin=int(obj["origin"]))
    if kind == "bwd":
        return sender, Backward(round=rnd, origin=int(obj["origin"]))
    raise ValueError(f"unknown message type {kind!r}")


def encode_frame(obj: dict[str, Any]) -> bytes:
    """Length-prefix and encode one JSON object."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame too large ({len(body)} bytes)")
    return _LEN.pack(len(body)) + body


class FrameDecoder:
    """Incremental decoder for a stream of length-prefixed JSON frames.

    ``max_frame_bytes`` bounds the length prefix: a corrupted (or hostile)
    header that announces an oversized frame raises :class:`ValueError`
    *before* any body bytes are accumulated, instead of buffering up to
    4 GiB."""

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self.max_frame_bytes = max_frame_bytes

    def feed(self, data: bytes) -> list[Any]:
        """Feed raw bytes; return every complete frame decoded so far.

        Items are whatever JSON value the frame body held — the runtime
        only ever sends objects, but a decoder cannot assume that (the
        codec layer above rejects non-object frames explicitly)."""
        self._buffer.extend(data)
        frames: list[Any] = []
        while True:
            if len(self._buffer) < _LEN.size:
                break
            (length,) = _LEN.unpack_from(self._buffer, 0)
            if length > self.max_frame_bytes:
                raise ValueError(f"frame length {length} exceeds limit")
            if len(self._buffer) < _LEN.size + length:
                break
            body = bytes(self._buffer[_LEN.size:_LEN.size + length])
            del self._buffer[:_LEN.size + length]
            frames.append(json.loads(body.decode("utf-8")))
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
