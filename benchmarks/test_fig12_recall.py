"""FIG12 bench: object recall by scheduling policy (paper Figure 12).

Regenerates the recall rows for Full / BALB-Ind / BALB-Cen / BALB / SP per
scenario. Shape assertions mirror the paper's three observations:
slicing costs almost no recall; the distributed stage recovers what the
central-only variant loses; and the full BALB stays close to Full.
"""

import pytest

from repro.experiments.fig12_recall import DEFAULT_POLICIES
from repro.experiments.report import format_table

from conftest import run_policies


@pytest.mark.benchmark(group="fig12")
@pytest.mark.parametrize("scenario", ["S1", "S2", "S3"])
def test_fig12_recall(benchmark, scenario, trained_by_scenario):
    runs = benchmark.pedantic(
        lambda: run_policies(
            scenario, DEFAULT_POLICIES, trained_by_scenario[scenario]
        ),
        rounds=1,
        iterations=1,
    )
    recall = {policy: run.object_recall() for policy, run in runs.items()}
    print()
    print(
        format_table(
            ["scenario", "policy", "object recall"],
            [(scenario, policy, value) for policy, value in recall.items()],
            title=f"Figure 12 ({scenario}): object recall",
        )
    )
    # Observation 1: tracking-based slicing barely hurts recall.
    assert recall["balb-ind"] >= recall["full"] - 0.08
    # Observation 2: the distributed stage recovers BALB-Cen's losses.
    assert recall["balb"] >= recall["balb-cen"] - 0.02
    # Headline: BALB's recall remains competitive with Full.
    assert recall["balb"] >= recall["full"] - 0.1
    # All recalls are meaningful probabilities.
    for value in recall.values():
        assert 0.5 <= value <= 1.0
