#!/usr/bin/env python3
"""End-to-end benchmark of the AllConcur reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload tcp-rr --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing;
``--trace 1`` alternates untraced and traced blocks and prints the
per-layer metrics, the self time of every layer and the tracing overhead,
and writes the spans of the first traced block as JSON lines under
``e2ebench/out/``.  Every line but the last is a human-readable report
(provenance first); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed, whether or not its outputs were correct.

The host this runs on is shared, and its speed drifts by tens of percent
over minutes.  A fixed pure-Python loop (``workloads.reference_work``) runs
before every measured round; its mean time in a block, over a nominal
time, is the block's *host factor*.  The wall-clock end-to-end figures are
scaled by it: rates multiplied, times divided.  The raw figures are in the
report.  Peak RSS, the per-layer metrics and the exact simulator counts
are not scaled.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metrics (``--trace 0``) and their units
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: per-layer metrics (``--trace 1``) and their units; a layer that does
#: not run on a workload reports 0 for its metrics there
PER_LAYER = {
    "client.submit_us": "us",
    "client.flush_ms_per_round": "ms",
    "client.reqs_per_batch": "count",
    "client.resubmitted": "count",
    "client.local_read_us": "us",
    "client.local_reads_escalated_ratio": "ratio",
    "rsm.apply_us": "us",
    "rsm.applies_per_round": "count",
    "api.run_rounds_ms": "ms",
    "node.wait_for_round_ms_per_round": "ms",
    "node.socket_writes_per_round": "count",
    "node.write_us": "us",
    "node.bytes_written_per_round": "B",
    "wire.encode_us": "us",
    "wire.encodes_per_round": "count",
    "wire.decode_us_per_frame": "us",
    "wire.frames_decoded_per_round": "count",
    "core.handle_message_us": "us",
    "core.messages_per_round": "count",
    "core.start_round_us": "us",
    "sim.complete_round_ms": "ms",
    "sim.events_per_round": "count",
    "sim.messages_per_round": "count",
    "sim.bytes_per_round": "B",
    "sim.events_per_s": "1/s",
    "gc.pause_ms_per_round": "ms",
    "gc.gen2_per_100_rounds": "count",
    "gc.max_pause_ms": "ms",
    "virtual_round_us": "us",
    "virtual_failover_us": "us",
    "self.api_ms_per_round": "ms",
    "self.client_ms_per_round": "ms",
    "self.rsm_ms_per_round": "ms",
    "self.node_ms_per_round": "ms",
    "self.wire_ms_per_round": "ms",
    "self.core_ms_per_round": "ms",
    "self.sim_ms_per_round": "ms",
    "self.gc_ms_per_round": "ms",
    "trace.req_per_s_untraced": "1/s",
    "trace.req_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
    "failed_ratio": "ratio",
}

#: blocks per run at the least, whatever ``--seconds`` says: the setup
#: median needs several set-ups, and a traced run one block of each kind
MIN_BLOCKS = {0: 3, 1: 2}

#: unmeasured set-ups run after each untraced block: a set-up lasts well
#: under a second, so its median needs more samples than there are blocks
EXTRA_SETUPS = 2


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spec: Any, block: Any, tracer: Any) -> dict[str, float]:
    """The per-layer metrics of one traced block (see ``PER_LAYER``)."""
    import spans
    rounds = spec.measured_rounds
    first = spec.warmup_rounds
    s = spans.summarize(tracer.spans, first)
    c = block.counts

    def calls(name: str) -> int:
        return s.get(name, (0, 0.0, 0))[0]

    def total(name: str) -> float:
        return s.get(name, (0, 0.0, 0))[1]

    def amount(name: str) -> int:
        return s.get(name, (0, 0.0, 0))[2]

    def mean_us(name: str) -> float:
        return _ratio(total(name), calls(name)) * 1e6

    gc_names = [name for name in s if name.startswith("gc.")]
    gc_pauses = [end - start for name, start, end, _p, rnd, _a
                 in tracer.spans if name.startswith("gc.") and rnd >= first]
    frames = amount("wire.decode")
    reads = c["local_reads_served"] + c["local_reads_escalated"]
    out = {
        "client.submit_us": mean_us("client.submit"),
        "client.flush_ms_per_round":
            _ratio(c["flush_time_s"], c["flush_calls"]) * 1e3,
        "client.reqs_per_batch":
            _ratio(c["requests_flushed"], c["batches_flushed"]),
        "client.resubmitted": c["resubmitted"],
        "client.local_read_us": mean_us("client.read"),
        "client.local_reads_escalated_ratio":
            _ratio(c["local_reads_escalated"], reads),
        "rsm.apply_us": _ratio(total("rsm.apply"), c["applies"]) * 1e6,
        "rsm.applies_per_round": c["applies"] / rounds,
        "api.run_rounds_ms": mean_us("api.run_rounds") / 1e3,
        "node.wait_for_round_ms_per_round":
            total("node.wait_for_round") / rounds * 1e3,
        "node.socket_writes_per_round": calls("node.write") / rounds,
        "node.write_us": mean_us("node.write"),
        "node.bytes_written_per_round": amount("node.write") / rounds,
        "wire.encode_us": mean_us("wire.encode"),
        "wire.encodes_per_round": calls("wire.encode") / rounds,
        "wire.decode_us_per_frame":
            _ratio(total("wire.decode"), frames) * 1e6,
        "wire.frames_decoded_per_round": frames / rounds,
        "core.handle_message_us": mean_us("core.handle_message"),
        "core.messages_per_round": calls("core.handle_message") / rounds,
        "core.start_round_us": mean_us("core.start_round"),
        "sim.complete_round_ms": mean_us("sim.complete_round") / 1e3,
        "sim.events_per_round": c.get("sim_events", 0) / rounds,
        "sim.messages_per_round": c.get("sim_messages", 0) / rounds,
        "sim.bytes_per_round": c.get("sim_bytes", 0) / rounds,
        "sim.events_per_s":
            _ratio(c.get("sim_events", 0), total("sim.complete_round")),
        "gc.pause_ms_per_round":
            sum(total(name) for name in gc_names) / rounds * 1e3,
        "gc.gen2_per_100_rounds": calls("gc.gen2") / rounds * 100,
        "gc.max_pause_ms": max(gc_pauses, default=0.0) * 1e3,
    }
    for layer, seconds in spans.self_times(tracer.spans, first).items():
        out[f"self.{layer}_ms_per_round"] = seconds / rounds * 1e3
    return out


def _virtual_us(values: list[float]) -> float:
    return _median(values) * 1e6


def _exact_counts(block: Any) -> tuple[Any, ...]:
    """What a simulator block must repeat exactly under the same seed."""
    c = block.counts
    return (c.get("sim_events"), c.get("sim_messages"), c.get("sim_bytes"),
            c["resubmitted"], tuple(block.virtual_round_s),
            tuple(block.virtual_failover_s))


def run(spec: Any, seed: int, seconds: float, trace: int,
        out_dir: Path) -> dict[str, Any]:
    """Measure the workload *spec* for about *seconds*; returns the result
    object (plus ``"report"`` lines and ``"provenance"``)."""
    # imported here, not at the top: main() first puts src/ and this
    # directory on the path
    import spans
    import workloads

    plan = workloads.make_plan(spec, seed)
    tracer = spans.Tracer() if trace else None
    plain: list[Any] = []
    traced: list[Any] = []
    #: (seconds, host factor of the block it ran next to)
    setups: list[tuple[float, float]] = []
    per_layer: list[dict[str, float]] = []
    problems: list[str] = []
    dumped = False
    start = perf_counter()
    while (len(plain) + len(traced) < MIN_BLOCKS[trace]
           or perf_counter() - start < seconds):
        use_tracer = tracer is not None and len(plain) > len(traced)
        if use_tracer:
            tracer.reset()
            tracer.install(spec.backend)
            try:
                block = workloads.run_block(spec, plan, tracer)
            finally:
                tracer.uninstall()
            traced.append(block)
            per_layer.append(layer_metrics(spec, block, tracer))
            if not dumped:
                tracer.write_jsonl(
                    out_dir / f"spans-{spec.name}-seed{seed}.jsonl",
                    workloads.provenance(spec, seed, 1))
                dumped = True
            tracer.reset()
        else:
            block = workloads.run_block(spec, plan)
            plain.append(block)
            extra = [] if trace else [workloads.run_setup(spec, plan)
                                      for _ in range(EXTRA_SETUPS)]
            setups.extend((t, block.host_factor)
                          for t in [block.setup_s, *extra])
        problems.extend(block.problems)
    blocks = plain + traced
    if spec.backend == "sim" and len({_exact_counts(b) for b in blocks}) > 1:
        problems.append("simulator counts differ between blocks of one "
                        "seed: the run is not deterministic")
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    report = []
    metrics: dict[str, dict[str, Any]] = {}
    if trace:
        values = {name: _median([m[name] for m in per_layer])
                  for name in per_layer[0]}
        untraced = _median([b.req_per_s * b.host_factor for b in plain])
        traced_rps = _median([b.req_per_s * b.host_factor for b in traced])
        values["trace.req_per_s_untraced"] = untraced
        values["trace.req_per_s_traced"] = traced_rps
        values["trace.overhead_pct"] = (1 - traced_rps / untraced) * 100
        values["virtual_round_us"] = _virtual_us(blocks[0].virtual_round_s)
        values["virtual_failover_us"] = \
            _virtual_us(blocks[0].virtual_failover_s)
        values["failed_ratio"] = failed / attempted
        units = PER_LAYER
    else:
        # wall-clock figures are scaled to the nominal host speed, block
        # by block (see workloads.reference_work); the raw ones follow
        raw = [x for b in plain for x in b.round_latency_s]
        samples = [x / b.host_factor for b in plain
                   for x in b.round_latency_s]
        values = {
            "setup_s": _median([t / f for t, f in setups]),
            "req_per_s": _median([b.req_per_s * b.host_factor
                                  for b in plain]),
            "latency_p50_ms": _percentile(samples, 50) * 1e3,
            "latency_p90_ms": _percentile(samples, 90) * 1e3,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        report.append(f"latency samples: {len(samples)} rounds "
                      f"({len(plain)} blocks x {spec.measured_rounds}); "
                      f"set-up samples: {len(setups)}")
        report.append("per block, host factor (1 = nominal speed) and "
                      "raw req_per_s: " + " ".join(
                          f"{b.host_factor:.3f}/{b.req_per_s:.1f}"
                          for b in plain))
        report.append(
            f"raw wall clock: setup_s {_median([t for t, _f in setups]):.6g}"
            f" s, req_per_s "
            f"{_median([b.req_per_s for b in plain]):.6g} 1/s, "
            f"latency_p50_ms {_percentile(raw, 50) * 1e3:.6g} ms, "
            f"latency_p90_ms {_percentile(raw, 90) * 1e3:.6g} ms")
        report.append(f"failed_ratio {failed / attempted:.6f} ratio "
                      f"({failed} of {attempted} operations)")
        if spec.backend == "sim":
            report.append(
                "virtual (LogP, not wall-clock): round "
                f"{_virtual_us(blocks[0].virtual_round_s):.3f} us, "
                f"failover round "
                f"{_virtual_us(blocks[0].virtual_failover_s):.3f} us")
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
    for name, m in metrics.items():
        report.append(f"{name} {m['value']:.6g} {m['unit']}")
    report.extend(f"PROBLEM: {p}" for p in problems[:20])
    return {
        "provenance": workloads.provenance(spec, seed, len(blocks)),
        "report": report,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "api" / "__init__.py").is_file():
        print(f"e2ebench: the repro sources are missing under "
              f"{ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    outcome = run(workloads.WORKLOADS[args.workload], args.seed,
                  args.seconds, args.trace,
                  out_dir=HERE / "out")
    print("provenance " + json.dumps(outcome["provenance"]))
    for line in outcome["report"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
