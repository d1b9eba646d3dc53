"""FIG13 bench: per-frame inference latency + headline speedups
(paper Figure 13: 6.85x / 6.18x / 2.45x over Full; BALB > SP).

Regenerates the slowest-camera latency rows for Full / BALB-Ind / SP /
BALB per scenario and the derived multiplicative speedups.
"""

import pytest

from repro.experiments.fig13_latency import LATENCY_POLICIES
from repro.experiments.report import format_table

from conftest import run_policies

#: Paper's reported BALB-vs-Full speedups per scenario (shape reference).
PAPER_SPEEDUPS = {"S1": 6.85, "S2": 6.18, "S3": 2.45}


@pytest.mark.benchmark(group="fig13")
@pytest.mark.parametrize("scenario", ["S1", "S2", "S3"])
def test_fig13_latency(benchmark, scenario, trained_by_scenario):
    runs = benchmark.pedantic(
        lambda: run_policies(
            scenario, LATENCY_POLICIES, trained_by_scenario[scenario]
        ),
        rounds=1,
        iterations=1,
    )
    lat = {policy: run.mean_slowest_latency() for policy, run in runs.items()}
    print()
    print(
        format_table(
            ["scenario", "policy", "slowest-cam ms", "speedup vs full"],
            [
                (scenario, policy, round(ms, 1), lat["full"] / ms)
                for policy, ms in lat.items()
            ],
            title=f"Figure 13 ({scenario}); paper speedup: "
            f"{PAPER_SPEEDUPS[scenario]}x",
        )
    )
    vs_full = lat["full"] / lat["balb"]
    vs_ind = lat["balb-ind"] / lat["balb"]
    vs_sp = lat["sp"] / lat["balb"]
    print(
        f"BALB speedups — vs Full: {vs_full:.2f}x, "
        f"vs Ind: {vs_ind:.2f}x, vs SP: {vs_sp:.2f}x"
    )

    # Headline shape: a multiplicative speedup over Full (paper: 2.45-6.85x).
    assert vs_full > 2.0
    # BALB never loses to redundant independent tracking.
    assert vs_ind > 0.95
    # BALB never loses to static partitioning (paper: 1.88x mean win).
    assert vs_sp > 0.9
    # Full is the slowest policy everywhere.
    assert lat["full"] == max(lat.values())


@pytest.mark.benchmark(group="fig13")
def test_fig13_cross_scenario_shape(benchmark, trained_by_scenario):
    """S3 (busy fork, least overlap) shows the smallest speedup — the
    paper's cross-scenario ordering."""

    def sweep():
        out = {}
        for scenario in ("S1", "S2", "S3"):
            runs = run_policies(
                scenario, ("full", "balb"), trained_by_scenario[scenario]
            )
            out[scenario] = (
                runs["full"].mean_slowest_latency()
                / runs["balb"].mean_slowest_latency()
            )
        return out

    speedups = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("BALB-vs-Full speedups:", {k: round(v, 2) for k, v in speedups.items()})
    print("paper reference      :", PAPER_SPEEDUPS)
    assert speedups["S3"] == min(speedups.values())
