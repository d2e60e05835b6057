"""Per-layer tracing of a benchmark block, timed from outside the program.

Spans are recorded by the benchmark's own code around calls into each
layer's public functions; nothing under ``src/`` is changed.  Three means
are used, all undone when tracing stops:

* class attributes that are public functions (``ClientSession.submit``,
  ``AllConcurServer.handle_message``, ``BinaryCodec.encode_message``,
  ``asyncio.StreamWriter.write`` ...) are replaced by timed wrappers;
* a layer whose entry point is private is bracketed by public
  subscribers: one registered just before and one just after the layer's
  own delivery or round-start subscriber (the client's flush and
  resolution, the state machine's apply);
* ``gc.callbacks`` times every collection.

A span is ``(name, start, end, parent, round, amount)``: *parent* is the
index of the span that was open when it started (-1 at top level) and
*amount* what the call handled (bytes written, frames decoded; else 0).
The layer is the part of the name before the first dot.  Spans stay in
memory and are written as JSON lines at the end.
"""

from __future__ import annotations

import asyncio
import gc
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

from repro.api import Client, ClientSession, SimDeployment
from repro.api.deployment import Deployment
from repro.core.server import AllConcurServer
from repro.runtime.node import RuntimeNode
from repro.runtime.wire import BinaryCodec

#: layers in report order; each owns the spans whose name starts with it
LAYERS = ("api", "client", "rsm", "node", "wire", "core", "sim", "gc")

#: spans of coroutines: not on the span stack, since other work runs on
#: the event loop while they wait
ASYNC_SPANS = frozenset({"node.wait_for_round"})


class Tracer:
    """Records the spans of one block at a time."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        #: round number stamped on new spans (set by the closed loop)
        self.round = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._gc_start = 0.0

    # -- recording ------------------------------------------------------ #
    def begin(self, name: str) -> None:
        stack = self._stack
        span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                self.round, 0]
        # no allocation between taking the index and appending: a GC pass
        # run by an allocation would append its own span in between
        spans = self.spans
        index = len(spans)
        spans.append(span)
        stack.append(index)

    def end(self, amount: int = 0) -> None:
        # a closed span becomes a tuple of atoms, which the GC stops
        # tracking: the span list must not lengthen the passes it times
        spans = self.spans
        index = self._stack.pop()
        name, start, _end, parent, rnd, _a = spans[index]
        spans[index] = (name, start, perf_counter(), parent, rnd, amount)

    def reset(self) -> None:
        self.spans = []
        self.round = -1
        self._stack = []

    def _timed(self, fn: Callable[..., Any], name: str,
               amount: Callable[[tuple[Any, ...], Any], int] | None = None
               ) -> Callable[..., Any]:
        begin, end = self.begin, self.end

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end()
                raise
            end(0 if amount is None else amount(args, result))
            return result
        return wrapper

    def _timed_async(self, fn: Callable[..., Any], name: str
                     ) -> Callable[..., Any]:
        tracer = self

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            rnd = tracer.round
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.spans.append((name, start, perf_counter(), parent,
                                     rnd, 0))
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _gc_callback(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        stack = self._stack
        self.spans.append((f"gc.gen{info['generation']}", self._gc_start,
                           perf_counter(), stack[-1] if stack else -1,
                           self.round, 0))

    # -- installation --------------------------------------------------- #
    def install(self, backend: str) -> None:
        """Wrap the public entry points of every layer *backend* runs."""
        self._patch(Client, "run_rounds", self._timed(
            Client.run_rounds, "api.run_rounds"))
        self._patch(ClientSession, "submit", self._timed(
            ClientSession.submit, "client.submit"))
        self._patch(ClientSession, "read", self._timed(
            ClientSession.read, "client.read"))
        if backend == "sim":
            self._patch(SimDeployment, "fill_round", self._timed(
                SimDeployment.fill_round, "sim.fill_round"))
            self._patch(SimDeployment, "complete_round", self._timed(
                SimDeployment.complete_round, "sim.complete_round"))
        else:
            self._patch(AllConcurServer, "handle_message", self._timed(
                AllConcurServer.handle_message, "core.handle_message"))
            self._patch(AllConcurServer, "start_round", self._timed(
                AllConcurServer.start_round, "core.start_round"))
            self._patch(RuntimeNode, "wait_for_round", self._timed_async(
                RuntimeNode.wait_for_round, "node.wait_for_round"))
            self._patch(BinaryCodec, "encode_message", self._timed(
                BinaryCodec.encode_message, "wire.encode"))
            self._patch(asyncio.StreamWriter, "write", self._timed(
                asyncio.StreamWriter.write, "node.write",
                lambda args, _result: len(args[1])))
            decoder = BinaryCodec.decoder
            timed = self._timed

            def traced_decoder(codec: BinaryCodec, **kwargs: Any) -> Any:
                dec = decoder(codec, **kwargs)
                dec.feed = timed(dec.feed, "wire.decode",
                                 lambda _args, frames: len(frames))
                return dec
            self._patch(BinaryCodec, "decoder", traced_decoder)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def bracket(self, dep: Deployment, stage: str) -> None:
        """Register the subscribers that bracket the state machine's apply
        and the client's flush and resolution (see ``run_block``): each
        list of subscribers runs in registration order."""
        begin, end = self.begin, self.end
        if stage == "before-rsm":
            dep.on_deliver(lambda _pid, _event: begin("rsm.apply"),
                           per_node=True)
        elif stage == "before-client":
            dep.on_deliver(lambda _pid, _event: end(), per_node=True)
            dep.on_deliver(lambda _event: begin("client.resolve"))
            dep.on_round_start(lambda: begin("client.flush"))
        elif stage == "after-client":
            dep.on_deliver(lambda _event: end())
            dep.on_round_start(end)
        else:
            raise ValueError(f"unknown bracket stage {stage!r}")

    # -- output --------------------------------------------------------- #
    def write_jsonl(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for name, start, end, parent, rnd, amount in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "round": rnd, "amount": amount})
                          + "\n")


def _union(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Any], min_round: int) -> dict[str, float]:
    """Seconds of self time per layer, over the spans of rounds from
    *min_round* on: a span's duration minus the part
    of it covered by its child spans.  A coroutine span's children are the
    synchronous spans that ran on the loop while it waited, so its self
    time is the loop's idle and bookkeeping time.  Self times of all spans
    partition the traced wall time; nothing is counted twice."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    sync_children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    async_spans: dict[int, list[int]] = defaultdict(list)
    for i, (name, start, end, parent, _r, _a) in enumerate(spans):
        if parent < 0:
            continue
        if name in ASYNC_SPANS:
            async_spans[parent].append(i)
        else:
            sync_children[parent].append((start, end))
        children[parent].append((start, end))
    # a coroutine span covers the synchronous siblings that overlap it
    for parent, waits in async_spans.items():
        siblings = sync_children[parent]
        for i in waits:
            w_start, w_end = spans[i][1], spans[i][2]
            children[i].extend((s, e) for s, e in siblings
                               if s < w_end and e > w_start)
    out: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _p, rnd, _a) in enumerate(spans):
        if rnd < min_round:
            continue
        own = children.get(i)
        covered = _union((max(s, start), min(e, end)) for s, e in own
                         if e > start and s < end) if own else 0.0
        out[name.split(".", 1)[0]] += (end - start) - covered
    return out


def summarize(spans: list[Any], min_round: int
              ) -> dict[str, tuple[int, float, int]]:
    """``name -> (calls, total seconds, total amount)`` over the spans of
    rounds from *min_round* on."""
    out: dict[str, list[Any]] = defaultdict(lambda: [0, 0.0, 0])
    for name, start, end, _p, rnd, amount in spans:
        if rnd < min_round:
            continue
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += amount
    return {name: (calls, total, amount)
            for name, (calls, total, amount) in out.items()}
