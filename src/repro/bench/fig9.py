"""Figure 9: large-scale latency benchmarks on the XC40 system.

* **Figure 9a** — multiplayer video games: agreement latency as a function
  of the number of players (one per server), for 200 and 400 actions per
  minute (40-byte updates).  The paper's headline: 512 players agree within
  28 ms (200 APM) / 38 ms (400 APM), i.e. well under the 50 ms frame budget.
* **Figure 9b** — distributed exchanges: agreement latency as a function of
  the *system-wide* request rate (40-byte orders), for n up to 1024.

Sizes up to :data:`repro.bench.harness.SIM_SIZE_LIMIT` are packet-level
simulations; larger sizes use the calibrated LogP model (see the README,
"Substitutions") — both sources are labelled in the output.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.logp import AllConcurModel
from ..graphs.metrics import diameter as graph_diameter
from ..sim.network import LogPParams, TCP_PARAMS
from ..workloads.generators import ApmWorkload, GlobalRateWorkload
from .harness import SIM_SIZE_LIMIT, overlay_for, run_allconcur
from .reporting import format_rate, format_seconds, print_table

__all__ = [
    "GAME_SIZES", "EXCHANGE_SIZES", "game_latency", "exchange_latency",
    "generate_fig9a", "generate_fig9b", "main",
]

GAME_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024)
EXCHANGE_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024)
EXCHANGE_RATES: tuple[float, ...] = (1e4, 1e5, 1e6, 1e7, 1e8)

#: the 50 ms period between state updates of modern multiplayer games
FRAME_BUDGET_S = 50e-3


def _model_for(n: int, params: LogPParams) -> AllConcurModel:
    g = overlay_for(n)
    return AllConcurModel(n=n, degree=g.degree, diameter=graph_diameter(g),
                          params=params)


def game_latency(n: int, apm: float, *, params: LogPParams = TCP_PARAMS,
                 rounds: int = 6, sim_limit: int = SIM_SIZE_LIMIT,
                 seed: int = 1) -> dict:
    """One point of Figure 9a: n players at the given APM."""
    workload = ApmWorkload(apm=apm)
    model = _model_for(n, params)
    model_latency = model.agreement_latency_for_rate(
        workload.rate_per_server, workload.request_nbytes)
    row = {
        "n_players": n,
        "apm": apm,
        "model_latency_s": model_latency,
        "within_frame_budget": model_latency <= FRAME_BUDGET_S,
    }
    if n <= sim_limit:
        horizon = max(model_latency * (rounds + 4), 5e-3)
        result = run_allconcur(n, params=params, rounds=rounds,
                               workload=workload, duration=horizon, seed=seed)
        row.update({"median_latency_s": result.median_latency,
                    "source": "sim"})
    else:
        row.update({"median_latency_s": model_latency, "source": "model"})
    return row


def exchange_latency(n: int, system_rate: float, *,
                     params: LogPParams = TCP_PARAMS, rounds: int = 6,
                     sim_limit: int = SIM_SIZE_LIMIT, seed: int = 1) -> dict:
    """One point of Figure 9b: n servers handling *system_rate* orders/s."""
    workload = GlobalRateWorkload(total_rate=system_rate)
    model = _model_for(n, params)
    model_latency = model.agreement_latency_for_rate(
        workload.per_server_rate(n), workload.request_nbytes)
    row = {
        "n": n,
        "system_rate": system_rate,
        "model_latency_s": model_latency,
    }
    if n <= sim_limit:
        horizon = max(model_latency * (rounds + 4), 5e-3)
        result = run_allconcur(n, params=params, rounds=rounds,
                               workload=workload, duration=horizon, seed=seed)
        row.update({"median_latency_s": result.median_latency,
                    "source": "sim"})
    else:
        row.update({"median_latency_s": model_latency, "source": "model"})
    return row


def generate_fig9a(sizes: Sequence[int] = GAME_SIZES,
                   apms: Sequence[float] = (200.0, 400.0),
                   *, sim_limit: int = SIM_SIZE_LIMIT,
                   rounds: int = 6) -> list[dict]:
    return [game_latency(n, apm, sim_limit=sim_limit, rounds=rounds)
            for apm in apms for n in sizes]


def generate_fig9b(sizes: Sequence[int] = EXCHANGE_SIZES,
                   rates: Sequence[float] = EXCHANGE_RATES,
                   *, sim_limit: int = SIM_SIZE_LIMIT,
                   rounds: int = 6) -> list[dict]:
    return [exchange_latency(n, rate, sim_limit=sim_limit, rounds=rounds)
            for n in sizes for rate in rates]


def main(sim_limit: int = 64) -> tuple[list[dict], list[dict]]:
    rows_a = generate_fig9a(sim_limit=sim_limit)
    pretty_a = [{
        "players": r["n_players"],
        "APM": r["apm"],
        "latency": format_seconds(r["median_latency_s"]),
        "within 50ms": r["within_frame_budget"],
        "source": r["source"],
    } for r in rows_a]
    print_table(pretty_a, title="Figure 9a — multiplayer video games "
                                "(40-byte updates)")

    rows_b = generate_fig9b(sim_limit=sim_limit)
    pretty_b = [{
        "n": r["n"],
        "system rate": format_rate(r["system_rate"]),
        "latency": format_seconds(r["median_latency_s"]),
        "source": r["source"],
    } for r in rows_b]
    print_table(pretty_b, title="Figure 9b — distributed exchange "
                                "(40-byte requests, system-wide rate)")
    return rows_a, rows_b


if __name__ == "__main__":  # pragma: no cover
    main()
