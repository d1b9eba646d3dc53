"""Hungarian algorithm for minimum-cost bipartite assignment.

The association matcher (Section II-C, step 3) runs the Hungarian algorithm
to pair predicted box locations with detected boxes by IoU proximity. This
is a from-scratch O(n^2 m) implementation of the shortest-augmenting-path
formulation with dual potentials, supporting rectangular cost matrices.
:func:`seeded_assignments` reads its result off a stack of cost blocks
wherever its exact seed decides it, so only the other blocks are solved.
"""

from __future__ import annotations

from math import isfinite
from typing import List, Tuple

import numpy as np


def hungarian(cost: List[List[float]]) -> List[Tuple[int, int]]:
    """Solve min-cost assignment on an ``(n, m)`` cost matrix.

    Returns a list of ``(row, col)`` pairs of length ``min(n, m)``, sorted
    by row. ``cost`` is a non-empty rectangular nested list of finite
    floats, the form both matchers build: plain lists skip the ndarray
    round-trip, which dominates the runtime on their tiny matrices. For
    rectangular matrices the smaller side is fully matched.

    The leading rows are seeded without the augmenting machinery, and the
    seed is exact. Each row's phase starts with ``u[i] = 0``, and until
    some phase visits a real column every ``v[j]`` is 0, so the phase's
    first scan computes ``row[j] - 0.0 - 0.0``, which is ``row[j]`` for
    every finite float, signed zeros included; its strict ``<`` picks
    the first minimum, ``row.index(min(row))``. When that column is free
    the phase ends there: it matches the column to the row, sets
    ``u[i] = 0.0 + min`` and visits no real column. So each leading row
    whose first-minimum column is still free is matched directly, and
    the loop starts at the first row whose column is taken, from the
    same state it would have reached on its own.
    """
    if not (
        isinstance(cost, list)
        and cost
        and isinstance(cost[0], list)
        and cost[0]
        and all(len(r) == len(cost[0]) for r in cost)
    ):
        raise ValueError("cost must be a non-empty rectangular nested list")
    for r in cost:
        for val in r:
            if not isfinite(val):
                raise ValueError("cost matrix contains non-finite entries")
    if len(cost) == 1:
        # Single row: the augmenting-path machinery reduces to
        # "first minimum wins", the same strict-< scan it performs.
        row = cost[0]
        best, best_val = 0, row[0]
        for j in range(1, len(row)):
            if row[j] < best_val:
                best, best_val = j, row[j]
        return [(0, best)]
    if len(cost[0]) == 1:
        best, best_val = 0, cost[0][0]
        for i in range(1, len(cost)):
            if cost[i][0] < best_val:
                best, best_val = i, cost[i][0]
        return [(best, 0)]
    transposed = len(cost) > len(cost[0])
    # The solver never mutates the rows, so the caller's lists are
    # used as-is when no transpose is needed.
    rows = [list(col) for col in zip(*cost)] if transposed else cost
    n, m = len(rows), len(rows[0])
    inf = float("inf")

    # 1-based arrays; match[j] is the row assigned to column j (0 = free).
    # Column 0 is a virtual column used to seed each augmentation.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)

    # Seed: replay the first scan of each leading row's phase while it
    # ends that phase (see the docstring).
    start = n + 1
    for i in range(1, n + 1):
        row = rows[i - 1]
        best = min(row)
        j = row.index(best) + 1
        if match[j]:
            start = i
            break
        match[j] = i
        u[i] = 0.0 + best

    for i in range(start, n + 1):
        match[0] = i
        j0 = 0
        links = [0] * (m + 1)
        mins = [inf] * (m + 1)
        # The visited set is kept as two explicit column lists instead of
        # a boolean array: the scan loop then touches only live columns.
        # ``unvisited`` stays in ascending column order (removal preserves
        # order), so delta ties break toward the same (smallest) column as
        # the original ascending scan; the dual/slack updates are
        # element-independent, so applying them per-list is bit-identical.
        unvisited = list(range(1, m + 1))
        vis_cols = [0]
        while True:
            i0 = match[j0]
            delta = inf
            j1 = 0
            j1_pos = 0
            row = rows[i0 - 1]
            u_i0 = u[i0]
            for pos, j in enumerate(unvisited):
                reduced = row[j - 1] - u_i0 - v[j]
                mj = mins[j]
                if reduced < mj:
                    mins[j] = mj = reduced
                    links[j] = j0
                if mj < delta:
                    delta = mj
                    j1 = j
                    j1_pos = pos
            for j in vis_cols:
                u[match[j]] += delta
                v[j] -= delta
            for j in unvisited:
                mins[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
            del unvisited[j1_pos]
            vis_cols.append(j0)
        # Augment along the alternating path back to the virtual column.
        while j0 != 0:
            j1 = links[j0]
            match[j0] = match[j1]
            j0 = j1

    pairs = []
    for j in range(1, m + 1):
        if match[j] != 0:
            row, col = match[j] - 1, j - 1
            pairs.append((col, row) if transposed else (row, col))
    pairs.sort()
    return pairs


def seeded_assignments(
    cost: np.ndarray, n: np.ndarray, m: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`hungarian`'s pairs on every block that its seed decides.

    ``cost`` stacks blocks of finite costs: block ``i`` is ``cost[i,
    :n[i], :m[i]]`` with ``n[i], m[i] >= 1``, and every cell outside it
    is ``+inf``. ``hungarian`` seeds the shorter side of a block (the
    rows, unless it has more rows than columns and is transposed): each
    of its lines in order takes its first-minimum line across while that
    one is free. When those first minima are all distinct, the seed
    matches every line and ``hungarian`` returns exactly the seeded
    pairs; ``numpy.argmin`` picks the same first minimum as the seed's
    ``row.index(min(row))``. Such a block is decided here; a block with a
    first-minimum conflict is left to the solver.

    Returns ``decided`` (one flag per block) and the decided blocks'
    pairs as three flat arrays: ``block``, ``row`` and ``col``.
    """
    _, n_rows, n_cols = cost.shape
    wide = n <= m
    row_first = cost.argmin(axis=2)
    col_first = cost.argmin(axis=1)
    rows = np.arange(n_rows) < n[:, None]
    cols = np.arange(n_cols) < m[:, None]
    # Lines past a block's end stand in with values no line takes, so
    # a repeat among the sorted first minima is a conflict.
    by_row = np.sort(np.where(rows, row_first, n_cols + np.arange(n_rows)), axis=1)
    by_col = np.sort(np.where(cols, col_first, n_rows + np.arange(n_cols)), axis=1)
    decided = np.where(
        wide,
        (by_row[:, 1:] != by_row[:, :-1]).all(axis=1),
        (by_col[:, 1:] != by_col[:, :-1]).all(axis=1),
    )
    row_block, row = np.nonzero(rows & (decided & wide)[:, None])
    col_block, col = np.nonzero(cols & (decided & ~wide)[:, None])
    return (
        decided,
        np.concatenate((row_block, col_block)),
        np.concatenate((row, col_first[col_block, col])),
        np.concatenate((row_first[row_block, row], col)),
    )
