"""The seeded Hungarian solver returns the frozen unseeded solver's pairs.

Seeding replays the first scan of the augmenting loop, so it must agree
with :func:`reference_hungarian` exactly, not just in total cost: ties,
equal rows and signed zeros are where a replay that differs would pick
another optimum.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.ml.hungarian import hungarian
from tests.ml.reference_hungarian import reference_hungarian

# Few distinct values make ties and equal rows common; 0.0 and -0.0
# compare equal but are different floats.
_tied = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.0, 2.0])
_free = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# IoU costs: most cells are exactly 1.0 (no overlap), the rest in [0, 1).
_iou = st.one_of(
    st.just(1.0), st.just(1.0), st.just(1.0),
    st.floats(0.0, 1.0, exclude_max=True),
)


@st.composite
def cost_matrices(draw):
    n = draw(st.integers(1, 11))
    m = draw(st.integers(1, 11))
    values = draw(st.sampled_from([_tied, _free, _iou]))
    if draw(st.integers(0, 5)) == 0:
        row = [draw(values)] * m  # every row equal
        return [list(row) for _ in range(n)]
    return [[draw(values) for _ in range(m)] for _ in range(n)]


@settings(max_examples=600, deadline=None)
@given(cost=cost_matrices())
def test_seeded_solver_returns_the_reference_pairs(cost):
    want = reference_hungarian([list(row) for row in cost])
    assert hungarian([list(row) for row in cost]) == want
    assert hungarian(np.array(cost)) == reference_hungarian(np.array(cost)) == want


def test_seed_covers_every_row_and_stops_at_a_taken_column():
    # Rows 0 and 1 take their first minima; row 2's first minimum (column
    # 0) is taken, so the augmenting loop starts there.
    cost = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.1, 1.0, 0.2]]
    assert hungarian(cost) == reference_hungarian(cost) == [(0, 0), (1, 1), (2, 2)]
    diagonal = [[0.0 if i == j else 1.0 for j in range(5)] for i in range(5)]
    assert hungarian(diagonal) == [(i, i) for i in range(5)]


def test_signed_zero_ties_pick_the_first_column():
    for cost in ([[0.0, -0.0], [-0.0, 0.0]], [[-0.0, 0.0, -0.0]], [[1.0], [-0.0], [0.0]]):
        assert hungarian(cost) == reference_hungarian(cost)
