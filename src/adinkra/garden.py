"""Exact verification of the garden algebra relations.

Given matrices L_1..L_N (all d x dhat) and their transposes R_I = L_I^T,
the relations are

    left:   L_I R_J + L_J R_I = 2 delta_IJ I_d      for all I <= J
    right:  R_I L_J + R_J L_I = 2 delta_IJ I_dhat   for all I <= J

Each L_I is read as a signed partial permutation, and other matrices
are refused; a cell of either sum then adds at most two +-1 terms, so
both families are evaluated cell by cell, exactly, in O(N^2 (d + dhat)).
Every nonzero residual cell (sum minus target) is reported as a
Violation, so a relation holds iff none is reported for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

Pair = tuple[int, int]  # 1-based color pair (I, J) with I <= J


class Violation(NamedTuple):
    side: str  # "left" or "right"
    color_i: int  # 1-based
    color_j: int
    row: int  # 1-based
    col: int
    value: int  # nonzero residual entry


class SignedPermutation(NamedTuple):
    """A matrix with entries in {-1, 0, 1} and at most one nonzero per
    row and per column, held by its nonzeros (all indices 0-based)."""

    shape: tuple[int, int]
    rows: dict[int, tuple[int, int]]  # row -> (col, sign)
    cols: dict[int, tuple[int, int]]  # col -> (row, sign)


def as_exact(matrix: object) -> np.ndarray:
    """Coerce to an exact int64 2-d array, refusing lossy input."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.issubdtype(a.dtype, np.integer):
        exact = np.asarray(a, dtype=np.int64)
        if not np.array_equal(exact, a):
            raise ValueError("matrix entries must be exact integers")
        a = exact
    return a.astype(np.int64, copy=False)


def color_pairs(n_colors: int) -> list[Pair]:
    """All 1-based pairs (I, J) with I <= J, sorted by (I, J)."""
    return [(i, j) for i in range(1, n_colors + 1) for j in range(i, n_colors + 1)]


@dataclass(frozen=True)
class GardenReport:
    """Outcome of checking both relation families on one matrix list."""

    n_colors: int
    d: int
    d_hat: int
    violations: tuple[Violation, ...]

    @property
    def left_ok(self) -> bool:
        return not any(v.side == "left" for v in self.violations)

    @property
    def right_ok(self) -> bool:
        return not any(v.side == "right" for v in self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "colors": self.n_colors,
            "d": self.d,
            "d_hat": self.d_hat,
            "left_ok": self.left_ok,
            "right_ok": self.right_ok,
            "ok": self.ok,
            "violations": [
                {
                    "side": v.side,
                    "colors": [v.color_i, v.color_j],
                    "row": v.row,
                    "col": v.col,
                    "value": v.value,
                }
                for v in self.violations
            ],
        }


def _check_shapes(matrices: Sequence[object]) -> list[np.ndarray]:
    if not matrices:
        raise ValueError("need at least one matrix")
    mats = [as_exact(m) for m in matrices]
    d, dh = mats[0].shape
    for k, m in enumerate(mats, start=1):
        if m.shape != (d, dh):
            raise ValueError(
                f"matrix {k} has shape {m.shape}, expected {(d, dh)}"
            )
    return mats


def signed_permutations(matrices: Sequence[object]) -> list[SignedPermutation]:
    """Read each matrix as a signed partial permutation; ValueError for
    an empty list, unequal shapes, inexact entries, entries outside -1,
    0, 1, or two nonzeros in one row (else column, the first named)."""
    out = []
    for k, a in enumerate(_check_shapes(matrices), start=1):
        rs, cs = np.nonzero(a)
        rs, cs, vals = rs.tolist(), cs.tolist(), a[rs, cs].tolist()
        bad = sorted({v for v in vals if v not in (-1, 1)})
        if bad:
            raise ValueError(f"matrix {k} has entries outside -1, 0, 1: {bad}")
        rows = dict(zip(rs, zip(cs, vals)))
        cols = dict(zip(cs, zip(rs, vals)))
        for what, idx, held in (("row", rs, rows), ("column", cs, cols)):
            if len(held) < len(idx):
                twice = min(i for i, n in Counter(idx).items() if n > 1)
                raise ValueError(f"matrix {k} has two nonzeros in {what} {twice + 1}")
        out.append(SignedPermutation(a.shape, rows, cols))
    return out


def _pair_products(ls: list[SignedPermutation], doubled: bool):
    """Yield (side, I, J, size, cells) for every pair I <= J of the left
    family (X = L, size d), then of the right one (X = R, size dhat).

    cells maps 0-based (row, col) to the value of X_I X_J^T + X_J X_I^T,
    the diagonal term X_I X_I^T taken once unless doubled.  Row r of X_x
    has at most one nonzero, in column m, and column m of X_y at most
    one, in row c, so a term adds at most one cell (r, c) per row.
    """
    d, dh = ls[0].shape
    rs = [SignedPermutation((dh, d), p.cols, p.rows) for p in ls]
    for side, size, xs in (("left", d, ls), ("right", dh, rs)):
        for i, j in color_pairs(len(xs)):
            cells: dict[tuple[int, int], int] = {}
            for x, y in ((i, j), (j, i)) if doubled or i != j else ((i, j),):
                second = xs[y - 1].cols
                for row, (mid, s1) in xs[x - 1].rows.items():
                    hit = second.get(mid)
                    if hit is not None:
                        col, s2 = hit
                        cells[(row, col)] = cells.get((row, col), 0) + s1 * s2
            yield side, i, j, size, cells


def garden_check(matrices: Sequence[object]) -> GardenReport:
    """Check both relation families exactly.

    Violations are ordered by (side, I, J, row, col) with the left
    family first, all indices 1-based.  Raises ValueError unless the
    matrices are signed partial permutations of one shape.
    """
    ls = signed_permutations(matrices)
    violations: list[Violation] = []
    for side, i, j, size, cells in _pair_products(ls, doubled=True):
        if i == j:
            for r in range(size):
                cells[(r, r)] = cells.get((r, r), 0) - 2
        violations += [Violation(side, i, j, r + 1, c + 1, v)
                       for (r, c), v in sorted(cells.items()) if v]
    d, dh = ls[0].shape
    return GardenReport(len(ls), d, dh, tuple(violations))


def product_tables(
    matrices: Sequence[object],
) -> tuple[list[tuple[str, np.ndarray]], list[tuple[str, np.ndarray]]]:
    """Labeled product sums in the layout used for printed tables.

    Left side: for each pair (I, J) with I <= J, the matrix
    L_I R_J + L_J R_I, labeled "L<I>*R<I>" on the diagonal and
    "L<I>*R<J> + L<J>*R<I>" off it (the diagonal product is printed
    once, not doubled).  The right side swaps the roles of L and R.
    """
    tables: dict[str, list[tuple[str, np.ndarray]]] = {"left": [], "right": []}
    ls = signed_permutations(matrices)
    for side, i, j, size, cells in _pair_products(ls, doubled=False):
        m = np.zeros((size, size), dtype=np.int64)
        for (r, c), v in cells.items():
            m[r, c] = v
        x, y = ("L", "R") if side == "left" else ("R", "L")
        label = f"{x}{i}*{y}{i}" if i == j else f"{x}{i}*{y}{j} + {x}{j}*{y}{i}"
        tables[side].append((label, m))
    return tables["left"], tables["right"]


def format_matrix(matrix: object, indent: str = "") -> str:
    """Fixed-width text rendering with aligned signed entries."""
    a = as_exact(matrix)
    width = max((len(str(int(x))) for x in a.flat), default=1)
    rows = []
    for row in a:
        rows.append(indent + " ".join(f"{int(x):>{width}}" for x in row))
    return "\n".join(rows)
