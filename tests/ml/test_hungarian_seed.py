"""The seeded Hungarian solver returns the frozen unseeded solver's pairs.

Seeding replays the first scan of the augmenting loop, so it must agree
with :func:`reference_hungarian` exactly, not just in total cost: ties,
equal rows and signed zeros are where a replay that differs would pick
another optimum.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.ml.hungarian import hungarian, seeded_assignments
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


def _seed_conflicts(block):
    """Do the first minima of the block's seeded side repeat?

    ``hungarian`` seeds the rows, or the columns of a block with more
    rows than columns, each taking its first minimum while it is free.
    """
    lines = block if len(block) <= len(block[0]) else [list(c) for c in zip(*block)]
    firsts = [line.index(min(line)) for line in lines]
    return len(set(firsts)) < len(firsts)


# IoU costs with ties: no overlap (1.0) dominates, and a few repeated
# values tie in a row's minimum.
_iou_cell = st.one_of(
    st.just(1.0), st.just(1.0), st.just(1.0),
    st.sampled_from([0.0, -0.0, 0.5, 0.5]),
    st.floats(0.0, 1.0, exclude_max=True),
)
_side = st.one_of(st.just(1), st.integers(1, 8))


@st.composite
def iou_blocks(draw):
    """A block of IoU costs, 1 x m and n x 1 included, maybe with all-1.0 rows."""
    n, m = draw(_side), draw(_side)
    block = [[draw(_iou_cell) for _ in range(m)] for _ in range(n)]
    for row in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        block[row] = [1.0] * m
    return block


@settings(max_examples=500, deadline=None)
@given(blocks=st.lists(iou_blocks(), min_size=1, max_size=6))
def test_seeded_assignments_read_off_the_solver_pairs(blocks):
    """Blocks padded into one stack: each decided block gets the solver's pairs."""
    n = np.array([len(b) for b in blocks])
    m = np.array([len(b[0]) for b in blocks])
    cost = np.full((len(blocks), n.max(), m.max()), np.inf)
    for i, block in enumerate(blocks):
        cost[i, : n[i], : m[i]] = block
    decided, which, row, col = seeded_assignments(cost, n, m)
    assert decided.tolist() == [not _seed_conflicts(b) for b in blocks]
    assert set(which.tolist()) <= set(np.flatnonzero(decided).tolist())
    for i, block in enumerate(blocks):
        want = reference_hungarian([list(r) for r in block])
        assert hungarian([list(r) for r in block]) == want
        if decided[i]:
            mine = sorted(zip(row[which == i].tolist(), col[which == i].tolist()))
            assert mine == want


def test_a_shared_first_minimum_is_left_to_the_solver():
    # Rows 0 and 2 share their first-minimum column 1; the transposed
    # block's columns 0 and 1 both take row 0 first.
    planted = [[1.0, 0.2, 1.0], [0.1, 1.0, 1.0], [1.0, 0.3, 0.4]]
    tall = [[0.2, 0.3], [1.0, 1.0], [0.5, 1.0]]
    clear = [[1.0, 0.2, 1.0], [0.1, 1.0, 1.0]]
    blocks = [planted, tall, clear]
    cost = np.full((3, 3, 3), np.inf)
    for i, block in enumerate(blocks):
        cost[i, : len(block), : len(block[0])] = block
    decided, which, row, col = seeded_assignments(
        cost, np.array([3, 3, 2]), np.array([3, 2, 3])
    )
    assert decided.tolist() == [False, False, True]
    assert list(zip(which.tolist(), row.tolist(), col.tolist())) == [(2, 0, 1), (2, 1, 0)]
    assert hungarian(clear) == [(0, 1), (1, 0)]
