"""Soundness of ``AllConcurServer.knows_broadcast``.

A binding may skip decoding a broadcast's payload when the core says it
already knows the message (the TCP runtime does).  That is only safe if the
payload is never read: whenever ``knows_broadcast(round, origin)`` is True,
handling the message with its real batch or with ``Batch.empty()`` must
give identical effects and identical server state.  The schedules below are
seeded, interleave the FIFO channels at random, pipeline rounds, and crash
up to f = d - 1 servers mid-round (with partial sends), so duplicates
arrive in the current round, in completed rounds and in pipelined rounds.
Over FIFO channels a message arrives beyond a server's window only after a
failure, which is rare in these schedules; the query's window edge is
pinned by the unit test below.
"""

import copy
import random

from hypothesis import given, settings, strategies as st

from repro.core import AllConcurConfig, Batch, Broadcast, Request
from repro.core.server import AllConcurServer
from repro.graphs import gs_digraph

N = 8
DEGREE = 3
ROUNDS = 3

#: shared, immutable attributes left out of the state comparison
_SHARED = frozenset({"config", "graph", "_index"})


def fingerprint(obj, seen=None):
    """A value-only image of *obj*: containers and instance attributes
    recursively, with no dependence on object identity."""
    if seen is None:
        seen = set()
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if callable(obj) and not hasattr(obj, "__dict__"):
        return "<callable>"
    if id(obj) in seen:
        return "<cycle>"
    seen = seen | {id(obj)}
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x, seen) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((fingerprint(x, seen) for x in obj),
                                    key=repr)))
    if isinstance(obj, dict):
        return ("dict", tuple(sorted(
            ((fingerprint(k, seen), fingerprint(v, seen))
             for k, v in obj.items()), key=repr)))
    attrs = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    return (type(obj).__name__, tuple(
        (name, fingerprint(value, seen))
        for name, value in sorted(attrs.items()) if name not in _SHARED))


@st.composite
def schedules(draw):
    depth = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(0, DEGREE - 1))
    victims = draw(st.lists(st.integers(0, N - 1), min_size=count,
                            max_size=count, unique=True))
    crash_steps = draw(st.lists(st.integers(0, 400), min_size=count,
                                max_size=count))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return depth, list(zip(crash_steps, victims)), seed


def run_schedule(depth, crashes, seed):
    """Drive N sans-IO servers through a seeded schedule, checking
    broadcasts the receiver already knows; returns the number checked,
    the servers and the crashed ids."""
    rng = random.Random(seed)
    graph = gs_digraph(N, DEGREE)
    config = AllConcurConfig(graph=graph, pipeline_depth=depth)
    servers = {pid: AllConcurServer(pid, config) for pid in range(N)}
    channels = {}           # (src, dst) -> FIFO list of messages
    suspicions = []         # (monitor, suspect) not yet reported
    crashed = set()
    seq = {pid: 0 for pid in range(N)}

    def submit(pid):
        for _ in range(rng.randint(0, 2)):
            servers[pid].submit(Request(origin=pid, seq=seq[pid], nbytes=8,
                                        data={"v": seq[pid]}))
            seq[pid] += 1

    def emit(pid, effects):
        for effect in effects:
            targets = getattr(effect, "targets", None)
            if targets is None:
                continue
            for dst in targets:
                channels.setdefault((pid, dst), []).append(effect.message)

    for pid in range(N):
        submit(pid)
        emit(pid, servers[pid].fill_window())

    checked = 0
    crashes = sorted(crashes)
    for step in range(20_000):
        while crashes and crashes[0][0] <= step:
            _at, victim = crashes.pop(0)
            servers[victim].crash()
            crashed.add(victim)
            for (src, dst), queue in channels.items():
                if src == victim:       # a partial send: keep a prefix
                    del queue[rng.randint(0, len(queue)):]
            suspicions.extend((succ, victim)
                              for succ in graph.successors(victim))
        live = [key for key, queue in channels.items()
                if queue and key[1] not in crashed]
        if suspicions and (not live or rng.random() < 0.05):
            monitor, suspect = suspicions.pop(rng.randrange(len(suspicions)))
            if monitor not in crashed:
                emit(monitor, servers[monitor].notify_failure(suspect))
            continue
        if not live:
            break
        if all(servers[p].delivered_rounds >= ROUNDS
               for p in servers if p not in crashed):
            break
        src, dst = rng.choice(live)
        message = channels[(src, dst)].pop(0)
        server = servers[dst]
        if rng.random() < 0.1:
            submit(dst)
        # each known broadcast is checked with probability 1/3 (a deep copy
        # and two state images per check)
        if isinstance(message, Broadcast) \
                and server.knows_broadcast(message.round, message.origin) \
                and rng.random() < 1 / 3:
            twin = copy.deepcopy(server, {id(getattr(server, name)):
                                          getattr(server, name)
                                          for name in _SHARED})
            effects = server.handle_message(src, message)
            twin_effects = twin.handle_message(src, Broadcast(
                round=message.round, origin=message.origin,
                payload=Batch.empty()))
            assert effects == twin_effects
            assert fingerprint(server) == fingerprint(twin)
            checked += 1
        else:
            effects = server.handle_message(src, message)
        emit(dst, effects)
    return checked, servers, crashed


class TestKnowsBroadcastSoundness:
    @given(schedules())
    @settings(max_examples=10, deadline=None)
    def test_known_broadcast_payload_is_never_read(self, schedule):
        depth, crashes, seed = schedule
        checked, servers, crashed = run_schedule(depth, crashes, seed)
        assert checked > 0
        alive = [p for p in servers if p not in crashed]
        # the schedule ran the protocol to completion: agreement holds
        assert all(servers[p].delivered_rounds >= ROUNDS for p in alive)
        first, *rest = [[(o.round, o.messages)
                         for o in servers[p].history[:ROUNDS]]
                        for p in alive]
        assert all(history == first for history in rest)

    def test_unknown_broadcasts_are_not_reported_known(self):
        graph = gs_digraph(N, DEGREE)
        server = AllConcurServer(0, AllConcurConfig(graph=graph,
                                                    pipeline_depth=2))
        pred = server.predecessors[0]
        assert not server.knows_broadcast(0, pred)
        assert not server.knows_broadcast(1, pred)
        assert not server.knows_broadcast(2, pred)   # beyond the window
        server.start_round()
        assert server.knows_broadcast(0, 0)           # its own message
        server.handle_message(pred, Broadcast(round=0, origin=pred,
                                              payload=Batch.empty()))
        assert server.knows_broadcast(0, pred)
        assert not server.knows_broadcast(1, pred)
