"""Binary wire plane + multi-process runtime benchmark (BENCH_wire.json).

Two layers of measurement, mirroring the two halves of the optimisation:

* :func:`codec_point` — framing-layer microbench: encode + decode of a
  ``<BCAST>`` frame carrying a *b*-request batch, per wire codec.  The
  binary codec must beat JSON by :data:`CODEC_SPEEDUP_FLOOR` on the
  combined encode+decode rate.
* :func:`runtime_point` — end-to-end GS(n, d) throughput: every origin's
  queue pre-loaded (``config.max_batch`` fixes the per-round drain), then
  timed agreed-request rate over full rounds.  Measured across the
  {single-process, multi-process} × {json, binary} matrix:

  - ``single/json`` is the **pre-PR status quo** (every node in one event
    loop, JSON frames) — the baseline both acceptance ratios divide by;
  - ``single/binary`` isolates the binary plane at equal parallelism;
  - ``multi/binary`` is the new runtime end to end (one OS process per
    server, binary frames, digest delivery reporting so the observing
    parent stays off the hot path).

The committed trajectory (``BENCH_wire.json``) records the full matrix
plus ``host_cpus``: the ratios are wall-clock facts of the machine that
produced the file, and multi-process scaling beyond the binary-plane win
requires actual cores.  ``--smoke`` runs a reduced, ratio-floored version
for CI (codec floor + single-process e2e floor + a multi-process
liveness round) sized to finish inside the cap on one core.

Run ``python -m repro.bench.wire --sweep`` to regenerate the committed
file, ``--smoke`` for the CI check (exits non-zero on regression).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path
from typing import Any, Optional

from ..core.batching import Batch, Request
from ..core.config import AllConcurConfig
from ..core.messages import Broadcast
from ..graphs.gs import gs_digraph
from ..runtime.cluster import LocalCluster
from ..runtime.proc import ProcessCluster
from ..runtime.wire import BroadcastHeader, get_codec

__all__ = [
    "WIRE_BENCH_PATH",
    "CODEC_SPEEDUP_FLOOR",
    "E2E_SPEEDUP_FLOOR",
    "codec_point",
    "runtime_point",
    "wire_sweep",
    "smoke",
    "load_committed",
]

#: acceptance bar: binary vs JSON on combined encode+decode rate
CODEC_SPEEDUP_FLOOR = 3.0

#: acceptance bar: new runtime (multi-process, binary) vs the pre-PR
#: status quo (single-process, JSON), agreed requests per second
E2E_SPEEDUP_FLOOR = 2.0

#: CI smoke floors — deliberately looser than the committed bars: the
#: smoke run is short and shares one CI core with the runner, so it
#: guards structural regressions, not the committed machine's exact ratio
SMOKE_CODEC_FLOOR = 2.0
SMOKE_E2E_FLOOR = 1.3

#: overlay of the end-to-end points (the acceptance scenario)
SWEEP_N = 8
SWEEP_DEGREE = 3

#: requests drained per origin per round in the e2e points
SWEEP_BATCH = 64


def _default_wire_bench_path() -> str:
    anchor = Path(__file__).resolve().parents[3]
    if (anchor / "src" / "repro").is_dir():
        return str(anchor / "BENCH_wire.json")
    return "BENCH_wire.json"


WIRE_BENCH_PATH = _default_wire_bench_path()


# --------------------------------------------------------------------- #
# Codec microbench
# --------------------------------------------------------------------- #

def _bench_batch(batch_requests: int) -> Batch:
    """A representative ``<BCAST>`` payload: client-style dict data."""
    return Batch.of([
        Request(origin=3, seq=i, nbytes=16, submit_time=float(i),
                data={"op": "set", "key": f"k{i % 8}", "value": i},
                client=f"user{i % 4}")
        for i in range(batch_requests)])


def codec_point(codec_name: str, *, batch_requests: int = SWEEP_BATCH,
                iterations: int = 2000) -> dict:
    """Encode + decode rate of one codec on a *batch_requests* broadcast.

    Rates are frames/second over *iterations* timed repetitions (after a
    short warmup); ``encode_decode_us`` is the combined per-frame cost the
    acceptance ratio is computed from.  Decoding includes building the
    batch (a binary broadcast header is turned into its full message), so
    both codecs do the same work.
    """
    codec = get_codec(codec_name)
    message = Broadcast(round=7, origin=3,
                        payload=_bench_batch(batch_requests))
    frame = codec.encode_message(3, message)

    def decode(decoder: Any) -> None:
        for item in decoder.feed(frame):
            if isinstance(item, BroadcastHeader):
                item.message()

    for _ in range(50):                                   # warmup
        codec.encode_message(3, message)
        decode(codec.decoder())

    t0 = time.perf_counter()
    for _ in range(iterations):
        codec.encode_message(3, message)
    encode_s = time.perf_counter() - t0

    decoder = codec.decoder()
    t0 = time.perf_counter()
    for _ in range(iterations):
        decode(decoder)
    decode_s = time.perf_counter() - t0

    return {
        "codec": codec_name,
        "batch_requests": batch_requests,
        "frame_bytes": len(frame),
        "iterations": iterations,
        "encode_us": encode_s / iterations * 1e6,
        "decode_us": decode_s / iterations * 1e6,
        "encode_decode_us": (encode_s + decode_s) / iterations * 1e6,
        "encode_rate": iterations / encode_s,
        "decode_rate": iterations / decode_s,
    }


# --------------------------------------------------------------------- #
# End-to-end runtime points
# --------------------------------------------------------------------- #

def runtime_point(mode: str, codec: str, *, n: int = SWEEP_N,
                  degree: int = SWEEP_DEGREE, rounds: int = 30,
                  warmup_rounds: int = 3,
                  batch_requests: int = SWEEP_BATCH,
                  request_nbytes: int = 16,
                  repeats: int = 2) -> dict:
    """Agreed-request throughput of one runtime × codec combination.

    Every origin's queue is pre-loaded with enough requests for all
    rounds (``max_batch`` caps the per-round drain at *batch_requests*),
    so the timed section measures pure round pipeline: A-broadcast,
    overlay dissemination, tracking, A-delivery — no submission RPCs.
    The best of *repeats* runs is reported (wall-clock noise on a shared
    host only ever slows a run down).
    """
    if mode not in ("single", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    graph = gs_digraph(n, degree)
    config = AllConcurConfig(graph=graph, auto_advance=False,
                             max_batch=batch_requests)
    total = (rounds + warmup_rounds) * batch_requests

    async def one_run() -> float:
        if mode == "single":
            cluster = LocalCluster(graph, config=config, codec=codec,
                                   enable_failure_detector=False)
        else:
            cluster = ProcessCluster(graph, config=config, codec=codec,
                                     report="digest",
                                     enable_failure_detector=False)
        async with cluster:
            for pid in cluster.members:
                reqs = [Request(origin=pid, seq=i, nbytes=request_nbytes,
                                data=i) for i in range(total)]
                if mode == "single":
                    for request in reqs:
                        await cluster.submit_request(request)
                else:
                    await cluster.submit_requests(pid, reqs)
            await cluster.run_rounds(warmup_rounds, timeout=60.0)
            t0 = time.perf_counter()
            await cluster.run_rounds(rounds, timeout=60.0)
            elapsed = time.perf_counter() - t0
            if not cluster.agreement_holds():  # pragma: no cover - safety
                raise AssertionError("agreement violated during wire bench")
        return elapsed

    elapsed = min(asyncio.run(one_run()) for _ in range(repeats))
    agreed = n * batch_requests * rounds
    return {
        "mode": mode,
        "codec": codec,
        "overlay": f"GS({n},{degree})",
        "rounds": rounds,
        "warmup_rounds": warmup_rounds,
        "batch_requests": batch_requests,
        "request_nbytes": request_nbytes,
        "repeats": repeats,
        "agreed_requests": agreed,
        "elapsed_s": elapsed,
        "request_rate": agreed / elapsed if elapsed else 0.0,
        "round_time_ms": elapsed / rounds * 1e3,
    }


# --------------------------------------------------------------------- #
# Committed trajectory
# --------------------------------------------------------------------- #

def wire_sweep(*, path: Optional[str] = WIRE_BENCH_PATH) -> dict:
    """The committed codec + runtime matrix (``BENCH_wire.json``)."""
    codec_rows = {name: codec_point(name) for name in ("json", "binary")}
    codec_speedup = (codec_rows["json"]["encode_decode_us"]
                     / codec_rows["binary"]["encode_decode_us"])

    matrix = {}
    for mode in ("single", "multi"):
        for codec in ("json", "binary"):
            row = runtime_point(mode, codec)
            matrix[f"{mode}/{codec}"] = row

    baseline = matrix["single/json"]["request_rate"]      # pre-PR status quo
    e2e_speedup = (matrix["multi/binary"]["request_rate"] / baseline
                   if baseline else 0.0)
    plane_speedup = (matrix["single/binary"]["request_rate"] / baseline
                     if baseline else 0.0)

    payload = {
        "description": "Binary wire plane + multi-process runtime: framing "
                       "microbench (encode+decode of a 64-request BCAST "
                       "frame per codec) and end-to-end agreed-request "
                       "throughput on GS(8,3) across {single,multi}-process "
                       "x {json,binary}.  Baseline single/json is the "
                       "pre-binary-plane runtime.",
        "host": {
            "cpus": os.cpu_count(),
            "note": "ratios are wall-clock facts of this host; "
                    "multi-process scaling beyond the binary-plane win "
                    "requires one core per server process",
        },
        "codec_microbench": {
            "rows": codec_rows,
            "speedup_encode_decode": codec_speedup,
            "floor": CODEC_SPEEDUP_FLOOR,
            "ok": codec_speedup >= CODEC_SPEEDUP_FLOOR,
        },
        "runtime_matrix": matrix,
        "binary_plane_e2e_speedup": plane_speedup,
        "multi_process_vs_baseline": {
            "speedup": e2e_speedup,
            "floor": E2E_SPEEDUP_FLOOR,
            "ok": e2e_speedup >= E2E_SPEEDUP_FLOOR,
        },
        "ok": (codec_speedup >= CODEC_SPEEDUP_FLOOR
               and e2e_speedup >= E2E_SPEEDUP_FLOOR),
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return payload


def load_committed(path: str = WIRE_BENCH_PATH) -> Optional[dict]:
    """The committed trajectory, or None if the file does not exist."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


# --------------------------------------------------------------------- #
# CI smoke
# --------------------------------------------------------------------- #

def smoke(*, cap_wall_s: float = 60.0) -> dict:
    """Reduced, ratio-floored check for CI.

    Guards three things structurally: the binary codec still beats JSON
    at the framing layer (:data:`SMOKE_CODEC_FLOOR`), the binary plane
    still beats JSON end to end at equal parallelism
    (:data:`SMOKE_E2E_FLOOR`, single-process so one CI core measures a
    stable ratio), and the multi-process runtime still reaches agreement
    (liveness round, no ratio floor — a shared single-core runner cannot
    measure process scaling meaningfully).
    """
    wall0 = time.perf_counter()
    codec_rows = {name: codec_point(name, iterations=400)
                  for name in ("json", "binary")}
    codec_speedup = (codec_rows["json"]["encode_decode_us"]
                     / codec_rows["binary"]["encode_decode_us"])

    single_json = runtime_point("single", "json", rounds=10,
                                warmup_rounds=2, repeats=1)
    single_binary = runtime_point("single", "binary", rounds=10,
                                  warmup_rounds=2, repeats=1)
    e2e_speedup = (single_binary["request_rate"]
                   / single_json["request_rate"]
                   if single_json["request_rate"] else 0.0)

    multi = runtime_point("multi", "binary", rounds=5, warmup_rounds=1,
                          repeats=1)

    wall = time.perf_counter() - wall0
    codec_ok = codec_speedup >= SMOKE_CODEC_FLOOR
    e2e_ok = e2e_speedup >= SMOKE_E2E_FLOOR
    multi_ok = multi["request_rate"] > 0
    wall_ok = wall <= cap_wall_s
    return {
        "codec_speedup": codec_speedup,
        "codec_floor": SMOKE_CODEC_FLOOR,
        "codec_ok": codec_ok,
        "single_json_rate": single_json["request_rate"],
        "single_binary_rate": single_binary["request_rate"],
        "e2e_speedup": e2e_speedup,
        "e2e_floor": SMOKE_E2E_FLOOR,
        "e2e_ok": e2e_ok,
        "multi_binary_rate": multi["request_rate"],
        "multi_ok": multi_ok,
        "wall_s": wall,
        "cap_wall_s": cap_wall_s,
        "wall_ok": wall_ok,
        "ok": codec_ok and e2e_ok and multi_ok and wall_ok,
    }


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(
        description="Binary wire plane / multi-process runtime benchmark")
    parser.add_argument("--sweep", action="store_true",
                        help="run the full matrix and rewrite "
                             "BENCH_wire.json")
    parser.add_argument("--smoke", action="store_true",
                        help="run the reduced CI check (exit 1 on "
                             "regression)")
    parser.add_argument("--path", default=WIRE_BENCH_PATH,
                        help="trajectory file location")
    parser.add_argument("--cap", type=float, default=60.0,
                        help="smoke wall-clock cap in seconds")
    args = parser.parse_args(argv)
    if args.smoke:
        result = smoke(cap_wall_s=args.cap)
        print(json.dumps(result, indent=2))
        if not result["codec_ok"]:
            print(f"WIRE SMOKE FAILED: codec speedup "
                  f"{result['codec_speedup']:.2f}x below floor "
                  f"{result['codec_floor']:.1f}x")
        if not result["e2e_ok"]:
            print(f"WIRE SMOKE FAILED: e2e binary-plane speedup "
                  f"{result['e2e_speedup']:.2f}x below floor "
                  f"{result['e2e_floor']:.1f}x")
        if not result["multi_ok"]:
            print("WIRE SMOKE FAILED: multi-process run made no progress")
        if not result["wall_ok"]:
            print(f"WIRE SMOKE FAILED: wall clock {result['wall_s']:.1f}s "
                  f"exceeded cap {result['cap_wall_s']:.0f}s")
        return 0 if result["ok"] else 1
    if args.sweep:
        payload = wire_sweep(path=args.path)
        micro = payload["codec_microbench"]
        for name, row in micro["rows"].items():
            print(f"codec {name:6s}: encode {row['encode_us']:7.1f}us  "
                  f"decode {row['decode_us']:7.1f}us  "
                  f"frame {row['frame_bytes']} B")
        print(f"codec speedup (encode+decode): "
              f"{micro['speedup_encode_decode']:.2f}x "
              f"(floor {micro['floor']:.1f}x: "
              f"{'OK' if micro['ok'] else 'FAILED'})")
        for key, row in payload["runtime_matrix"].items():
            print(f"e2e {key:14s}: {row['request_rate']:>10,.0f} req/s  "
                  f"round {row['round_time_ms']:6.2f}ms")
        mp = payload["multi_process_vs_baseline"]
        print(f"binary plane e2e (single/binary vs single/json): "
              f"{payload['binary_plane_e2e_speedup']:.2f}x")
        print(f"multi/binary vs single/json: {mp['speedup']:.2f}x "
              f"(floor {mp['floor']:.1f}x: "
              f"{'OK' if mp['ok'] else 'FAILED'}) "
              f"on {payload['host']['cpus']} cpu(s)")
        return 0 if payload["ok"] else 1
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
