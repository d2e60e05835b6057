"""Workloads of the end-to-end benchmark: seeded inputs, the closed loop,
and the correctness gate.

Every workload is one ``ReplicatedKVStore`` group driven through the public
``repro.api`` surface by the benchmark's own closed loop: ``Client``
sessions with a window of one request, one thread, one process.  A run
repeats *blocks*; each block builds a fresh deployment, warms it up, drives
a fixed count of measured rounds, checks the outcome and tears the
deployment down.  The round count is fixed, not the duration, because the
deployment's retained state (delivery logs, dedup tables) grows every
round: a fixed count keeps GC work and peak RSS comparable between runs.
Every block of one run replays the same seeded inputs.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

from repro.api import (
    Client,
    ClientRequestHandle,
    ReplicatedKVStore,
    ReplicatedStateMachine,
    SimDeployment,
    TcpDeployment,
)
from repro.api.deployment import Deployment
from repro.core.cluster import ClusterOptions
from repro.graphs import gs_digraph
from repro.sim.network import TCP_PARAMS

#: keys owned by each session; a session's j-th write goes to one of them
KEYS_PER_SESSION = 16

#: seconds :func:`reference_work` takes on the host the figures are
#: scaled to (see ``host_factor``)
REFERENCE_NOMINAL_S = 5.0e-4

#: noise notes recorded with every result (see ``provenance``)
NOISE_NOTES = (
    "rounds per block are a fixed count, not a duration: retained state "
    "grows every round, so GC work and peak RSS compare like with like",
    "the CPython GC stays on, because users pay for it",
    "TcpDeployment runs with its default of no heartbeat failure detector",
    "ProcessCluster is excluded: 8 server processes on a 2-CPU host would "
    "measure the scheduler, not the program",
    "host speed drifts by tens of percent over minutes on a shared host: a "
    "fixed pure-Python reference loop runs before every measured round and "
    "the wall-clock figures are scaled by its speed (raw values are in the "
    "report)",
)

_REFERENCE_SLOTS = {k: 0 for k in range(97)}


def reference_work(slots: dict[int, int] = _REFERENCE_SLOTS) -> int:
    """A fixed slice of interpreter work independent of the program under
    test: integer and string arithmetic and dict updates on existing keys.
    It allocates no container, so it never triggers a GC pass that would
    charge the program's heap to the reference."""
    acc = 0
    for i in range(2000):
        k = i % 97
        slots[k] = slots[k] + i
        acc += len(str(i))
    return acc


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: the deployment, the load, and the block size."""

    name: str
    why: str
    backend: str            # "tcp" (in-process TcpDeployment) or "sim"
    n: int                  # servers of the GS(n, d) overlay
    d: int
    sessions: int           # closed-loop sessions, pinned round-robin
    warmup_rounds: int
    measured_rounds: int
    #: share of sessions that also do a local read each round
    read_share: float = 0.0
    #: K: one seeded server fails every K measured rounds and rejoins
    #: K/2 rounds later (0 = no faults)
    fail_every: int = 0

    @property
    def overlay(self) -> str:
        return f"GS({self.n},{self.d})"


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec(
            name="tcp-rr",
            why="one request per origin per round over loopback TCP: the "
                "fixed per-round costs (frames, socket writes, the round "
                "driver's poll, event-loop hops) dominate",
            backend="tcp", n=8, d=3, sessions=8,
            warmup_rounds=20, measured_rounds=300),
        WorkloadSpec(
            name="tcp-batch",
            why="64 requests per origin per round over loopback TCP: codec "
                "decode, client submit and flush, RSM apply and GC dominate "
                "and the per-round fixed cost is amortised",
            backend="tcp", n=8, d=3, sessions=512,
            warmup_rounds=10, measured_rounds=100),
        WorkloadSpec(
            name="sim-churn",
            why="LogP simulator with fail-stop and rejoin every K rounds "
                "and local reads: exercises the engine, the core under "
                "failure, client failover and the read path, without "
                "sockets or codec",
            backend="sim", n=16, d=4, sessions=256,
            warmup_rounds=10, measured_rounds=120,
            read_share=0.25, fail_every=20),
    )
}


def provenance(spec: WorkloadSpec, seed: int, blocks: int
               ) -> dict[str, Any]:
    """What a result needs to be read: host, inputs and block size."""
    return {
        "workload": spec.name,
        "why": spec.why,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "backend": ("SimDeployment, LogP TCP_PARAMS (virtual time)"
                    if spec.backend == "sim" else
                    "TcpDeployment in-process, binary codec, loopback, "
                    "no injected delay: latency is processor time"),
        "overlay": spec.overlay,
        "sessions": spec.sessions,
        "load": "closed loop, one thread, window 1 per session",
        "read_share": spec.read_share,
        "fail_every_rounds": spec.fail_every,
        "warmup_rounds": spec.warmup_rounds,
        "measured_rounds": spec.measured_rounds,
        "blocks": blocks,
        "noise_notes": list(NOISE_NOTES),
    }


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Fault:
    """Server *victim* fails before round *fail_round* (with its batch
    already flushed) and rejoins before round *join_round*."""

    fail_round: int
    victim: int
    join_round: int


@dataclass(frozen=True)
class Plan:
    """The generated inputs of one workload and seed; the program under
    test receives nothing else."""

    #: per session, the order in which its writes visit its keys
    key_order: tuple[tuple[int, ...], ...]
    #: per round, the sessions that do a local read before writing
    readers: tuple[tuple[int, ...], ...]
    faults: tuple[Fault, ...]

    def key(self, session: int, j: int) -> str:
        order = self.key_order[session]
        return f"s{session}k{order[j % len(order)]}"


def make_plan(spec: WorkloadSpec, seed: int) -> Plan:
    """Draw the inputs of *spec* from *seed*: key order, which sessions
    read in which round, and the failing server with its fail round."""
    rng = random.Random(f"{spec.name}:{seed}")
    key_order = []
    for _ in range(spec.sessions):
        keys = list(range(KEYS_PER_SESSION))
        rng.shuffle(keys)
        key_order.append(tuple(keys))
    total = spec.warmup_rounds + spec.measured_rounds
    readers_per_round = round(spec.sessions * spec.read_share)
    readers = tuple(
        tuple(sorted(rng.sample(range(spec.sessions), readers_per_round)))
        if r >= spec.warmup_rounds else ()
        for r in range(total))
    faults = []
    k = spec.fail_every
    if k:
        half = k // 2
        for start in range(spec.warmup_rounds, total - k + 1, k):
            fail_round = start + rng.randrange(half)
            faults.append(Fault(fail_round, rng.randrange(spec.n),
                                fail_round + half))
    return Plan(key_order=tuple(key_order), readers=readers,
                faults=tuple(faults))


# ---------------------------------------------------------------------- #
# One block
# ---------------------------------------------------------------------- #

@dataclass
class BlockResult:
    """What one block measured and checked."""

    setup_s: float
    measured_s: float
    #: one latency sample per measured round: the median submit-to-
    #: resolution time of the writes submitted in that round (requests of
    #: one round share fate, so rounds are the independent samples)
    round_latency_s: list[float]
    writes_resolved: int
    attempted: int
    failed: int
    #: mean seconds of one :func:`reference_work` call in this block
    reference_s: float
    problems: list[str] = field(default_factory=list)
    #: counters read through public attributes, over the measured rounds
    counts: dict[str, float] = field(default_factory=dict)
    #: virtual (LogP) time per measured round, split by kind (sim only)
    virtual_round_s: list[float] = field(default_factory=list)
    virtual_failover_s: list[float] = field(default_factory=list)

    @property
    def req_per_s(self) -> float:
        return self.writes_resolved / self.measured_s

    @property
    def host_factor(self) -> float:
        """How much slower than nominal the host ran during this block:
        rates are multiplied by it and times divided by it."""
        return self.reference_s / REFERENCE_NOMINAL_S


def _make_deployment(spec: WorkloadSpec) -> Deployment:
    graph = gs_digraph(spec.n, spec.d)
    if spec.backend == "tcp":
        return TcpDeployment(graph)
    if spec.backend == "sim":
        return SimDeployment(graph, options=ClusterOptions(params=TCP_PARAMS))
    raise ValueError(f"unknown backend {spec.backend!r}")


def _public_counts(client: Client, rsm: ReplicatedStateMachine,
                   dep: Deployment) -> dict[str, float]:
    counts = {
        "flush_time_s": client.flush_time_s,
        "flush_calls": client.flush_calls,
        "batches_flushed": client.batches_flushed,
        "requests_flushed": client.requests_flushed,
        "resubmitted": client.resubmitted,
        "local_reads_served": client.local_reads_served,
        "local_reads_escalated": client.local_reads_escalated,
        "applies": sum(len(rsm.results(pid)) for pid in rsm.replicas),
    }
    if isinstance(dep, SimDeployment):
        stats = dep.cluster.network.stats
        counts["sim_events"] = dep.sim.events_processed
        counts["sim_messages"] = stats.messages_sent
        counts["sim_bytes"] = stats.bytes_sent
    return counts


def _deploy(spec: WorkloadSpec, plan: Plan, probe: Any
            ) -> tuple[Deployment, ReplicatedStateMachine, Client,
                       "_ClosedLoop"]:
    dep = _make_deployment(spec)
    dep.start()
    if probe is not None:
        probe.bracket(dep, "before-rsm")
    rsm = ReplicatedStateMachine(dep, ReplicatedKVStore)
    if probe is not None:
        probe.bracket(dep, "before-client")
    client = Client(dep, rsm=rsm)
    if probe is not None:
        probe.bracket(dep, "after-client")
    sessions = [client.session(f"s{i}", origin=dep.members[i % spec.n])
                for i in range(spec.sessions)]
    return dep, rsm, client, _ClosedLoop(spec, plan, dep, client, sessions,
                                         probe)


def run_setup(spec: WorkloadSpec, plan: Plan) -> float:
    """Seconds to build the overlay, start the deployment, open the
    sessions and run the warm-up rounds; the deployment is then torn down
    unmeasured (extra set-up samples for the ``setup_s`` median)."""
    gc.collect()
    t0 = perf_counter()
    dep, _rsm, _client, loop = _deploy(spec, plan, None)
    try:
        for r in range(spec.warmup_rounds):
            loop.round(r)
        return perf_counter() - t0
    finally:
        dep.stop()


def run_block(spec: WorkloadSpec, plan: Plan, probe: Any = None
              ) -> BlockResult:
    """Build, warm up, measure, check and tear down one deployment.

    *probe* (a :class:`spans.Tracer`) is told the round number and gets
    three chances to register delivery and round-start subscribers around
    the state machine's and the client's, so it can time them from outside.
    """
    gc.collect()
    t0 = perf_counter()
    dep, rsm, client, loop = _deploy(spec, plan, probe)
    try:
        for r in range(spec.warmup_rounds):
            loop.round(r)
        setup_s = perf_counter() - t0
        before = _public_counts(client, rsm, dep)
        t1 = perf_counter()
        for r in range(spec.warmup_rounds,
                       spec.warmup_rounds + spec.measured_rounds):
            loop.round(r)
        loop.collect()
        measured_s = perf_counter() - t1 - loop.reference_s
        after = _public_counts(client, rsm, dep)
        if not dep.check_agreement():
            loop.group_violations.append("check_agreement() is False")
        if not rsm.converged():
            loop.group_violations.append("replicas did not converge")
    finally:
        dep.stop()
    return loop.result(setup_s, measured_s,
                       {k: after[k] - before[k] for k in after})


class _ClosedLoop:
    """Window-one closed loop: a session submits its next write only after
    the previous one resolved."""

    def __init__(self, spec: WorkloadSpec, plan: Plan, dep: Deployment,
                 client: Client, sessions: list[Any], probe: Any) -> None:
        self.spec = spec
        self.plan = plan
        self.dep = dep
        self.client = client
        self.sessions = sessions
        self.probe = probe
        self.fail_at = {f.fail_round: f.victim for f in plan.faults}
        self.join_at = {f.join_round: f.victim for f in plan.faults}
        self.pending: list[Optional[ClientRequestHandle]] = \
            [None] * spec.sessions
        self.pending_write: list[tuple[str, int]] = [("", -1)] * spec.sessions
        self.last_ack: list[Optional[tuple[str, int]]] = \
            [None] * spec.sessions
        self.next_j = [0] * spec.sessions
        #: (client, seq) -> (round, submit time)
        self.submitted: dict[tuple[str, int], tuple[int, float]] = {}
        #: ((client, seq), resolution time), appended by done callbacks
        self.resolved: list[tuple[tuple[str, int], float]] = []
        self.reads = 0
        self.failed_reads = 0
        self.problems: list[str] = []
        #: agreement or convergence failures: they fail every write
        self.group_violations: list[str] = []
        self.virtual_round_s: list[float] = []
        self.virtual_failover_s: list[float] = []
        self.reference_s = 0.0

    def _on_done(self, handle: ClientRequestHandle) -> None:
        self.resolved.append((handle.key, perf_counter()))

    def _settle(self) -> None:
        """Retire resolved writes: they become the session's last
        acknowledged write, which its local reads must observe."""
        for i, handle in enumerate(self.pending):
            if handle is None:
                continue
            if handle.done:
                self.last_ack[i] = self.pending_write[i]
                self.pending[i] = None
            elif handle.cancelled:
                # never resolves, so result() counts it as failed
                self.pending[i] = None

    def round(self, r: int) -> None:
        probe = self.probe
        if probe is not None:
            probe.round = r
        if r >= self.spec.warmup_rounds:
            t = perf_counter()
            reference_work()
            self.reference_s += perf_counter() - t
        self._settle()
        dep = self.dep
        victim = self.join_at.get(r)
        if victim is not None:
            dep.join(victim)
        for i in self.plan.readers[r]:
            ack = self.last_ack[i]
            if self.pending[i] is not None or ack is None:
                continue
            key, j = ack
            value = self.sessions[i].read(key, consistency="local")
            self.reads += 1
            if value is None or value < j:
                self.failed_reads += 1
                self.problems.append(
                    f"round {r}: session s{i} read {key}={value!r}, "
                    f"expected at least {j}")
        now = perf_counter
        on_done = self._on_done
        submitted = self.submitted
        for i, session in enumerate(self.sessions):
            if self.pending[i] is not None:
                continue
            j = self.next_j[i]
            self.next_j[i] = j + 1
            key = self.plan.key(i, j)
            t = now()
            handle = session.submit(["set", key, j])
            handle.add_done_callback(on_done)
            submitted[handle.key] = (r, t)
            self.pending[i] = handle
            self.pending_write[i] = (key, j)
        victim = self.fail_at.get(r)
        if victim is not None:
            # the victim's batch is flushed and unagreed when it fails, so
            # the client must resubmit it through a surviving server
            self.client.flush()
            dep.fail(victim)
        if isinstance(dep, SimDeployment):
            v0 = dep.sim.now
            self.client.run_rounds(1)
            if r >= self.spec.warmup_rounds:
                elapsed = dep.sim.now - v0
                if victim is not None:
                    self.virtual_failover_s.append(elapsed)
                elif len(dep.alive_members) == self.spec.n:
                    self.virtual_round_s.append(elapsed)
        else:
            self.client.run_rounds(1)

    def collect(self) -> None:
        self._settle()

    def result(self, setup_s: float, measured_s: float,
               counts: dict[str, float]) -> BlockResult:
        spec = self.spec
        seen: dict[tuple[str, int], float] = {}
        duplicates = 0
        for key, t in self.resolved:
            if key in seen:
                duplicates += 1
            else:
                seen[key] = t
        unresolved = [key for key in self.submitted if key not in seen]
        if duplicates:
            self.problems.append(f"{duplicates} handles resolved twice")
        if unresolved:
            self.problems.append(f"{len(unresolved)} writes never resolved "
                                 f"(first: {unresolved[0]})")
        per_round: dict[int, list[float]] = {}
        for key, (r, t_submit) in self.submitted.items():
            t_done = seen.get(key)
            if t_done is not None and r >= spec.warmup_rounds:
                per_round.setdefault(r, []).append(t_done - t_submit)
        round_latency = [statistics.median(v) for _r, v in
                         sorted(per_round.items())]
        writes = sum(len(v) for v in per_round.values())
        failed = len(unresolved) + duplicates + self.failed_reads
        if self.group_violations:
            self.problems.extend(self.group_violations)
            failed = len(self.submitted) + self.reads
        return BlockResult(
            setup_s=setup_s, measured_s=measured_s,
            round_latency_s=round_latency, writes_resolved=writes,
            attempted=len(self.submitted) + self.reads, failed=failed,
            problems=self.problems, counts=counts,
            virtual_round_s=self.virtual_round_s,
            virtual_failover_s=self.virtual_failover_s,
            reference_s=self.reference_s / max(spec.measured_rounds, 1))
