"""Exact verification of the garden algebra relations.

Given the colors of a valise graph, matrices L_1..L_N (all d x dhat),
and their transposes R_I = L_I^T, the relations are

    left:   L_I R_J + L_J R_I = 2 delta_IJ I_d      for all I <= J
    right:  R_I L_J + R_J L_I = 2 delta_IJ I_dhat   for all I <= J

Both checks take the L_I as the list of signed partial permutations
that graph.colors reads from the edges, so a cell of either sum adds at
most two +-1 terms, and both families are evaluated cell by cell,
exactly, in O(N^2 (d + dhat)).  Every nonzero residual cell (sum minus
target) is reported as a Violation, so a relation holds iff none is
reported for it.  product_tables keeps each sum as its stored cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph import MAX_MATRIX_CELLS, SignedPermutation

Pair = tuple[int, int]  # 1-based color pair (I, J) with I <= J


class Violation(NamedTuple):
    side: str  # "left" or "right"
    color_i: int  # 1-based
    color_j: int
    row: int  # 1-based
    col: int
    value: int  # nonzero residual entry


def color_pairs(n_colors: int) -> list[Pair]:
    """All 1-based pairs (I, J) with I <= J, sorted by (I, J)."""
    return [(i, j) for i in range(1, n_colors + 1) for j in range(i, n_colors + 1)]


@dataclass(frozen=True)
class GardenReport:
    """Outcome of checking both relation families on one list of colors."""

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


def garden_check(ls: Sequence[SignedPermutation]) -> GardenReport:
    """Check both relation families exactly on the colors L_1..L_N of
    one shape, as graph.colors returns them for a graph.

    Violations are ordered by (side, I, J, row, col) with the left
    family first, all indices 1-based.
    """
    violations: list[Violation] = []
    for side, i, j, size, cells in _pair_products(ls, doubled=True):
        if i == j:
            for r in range(size):
                cells[(r, r)] = cells.get((r, r), 0) - 2
        violations += [Violation(side, i, j, r + 1, c + 1, v)
                       for (r, c), v in sorted(cells.items()) if v]
    d, dh = ls[0].shape
    return GardenReport(len(ls), d, dh, tuple(violations))


class Table(NamedTuple):
    """A labeled matrix held by its stored cells; every other cell is 0."""

    label: str
    shape: tuple[int, int]
    cells: dict[tuple[int, int], int]  # 0-based (row, col) -> value

    def rows(self) -> list[list[int]]:
        rows = [[0] * self.shape[1] for _ in range(self.shape[0])]
        for (r, c), v in self.cells.items():
            rows[r][c] = v
        return rows


def color_tables(ls: Sequence[SignedPermutation]) -> tuple[list[Table], list[Table]]:
    """Each L_I, labeled "L<I>", and its transpose R_I, labeled "R<I>"."""
    return ([Table(f"L{c}", p.shape, {(r, m): s for r, (m, s) in p.rows.items()})
             for c, p in enumerate(ls, start=1)],
            [Table(f"R{c}", p.shape[::-1], {(m, r): s for m, (r, s) in p.cols.items()})
             for c, p in enumerate(ls, start=1)])


def product_tables(ls: Sequence[SignedPermutation]) -> tuple[list[Table], list[Table]]:
    """Labeled product sums in the layout used for printed tables.

    Left side: for each pair (I, J) with I <= J, the matrix
    L_I R_J + L_J R_I, labeled "L<I>*R<I>" on the diagonal and
    "L<I>*R<J> + L<J>*R<I>" off it (the diagonal product is printed
    once, not doubled).  The right side swaps the roles of L and R.
    ValueError, before any table is built, when the N(N+1)/2 (d^2 +
    dhat^2) cells of all tables exceed MAX_MATRIX_CELLS.
    """
    d, dh = ls[0].shape
    pairs = len(ls) * (len(ls) + 1) // 2
    cells = pairs * (d * d + dh * dh)
    if cells > MAX_MATRIX_CELLS:
        raise ValueError(f"{pairs} x ({d}^2 + {dh}^2) = {cells} product table cells "
                         f"is above the limit MAX_MATRIX_CELLS = {MAX_MATRIX_CELLS}")
    tables: dict[str, list[Table]] = {"left": [], "right": []}
    for side, i, j, size, cells in _pair_products(ls, doubled=False):
        x, y = ("L", "R") if side == "left" else ("R", "L")
        label = f"{x}{i}*{y}{i}" if i == j else f"{x}{i}*{y}{j} + {x}{j}*{y}{i}"
        tables[side].append(Table(label, (size, size), cells))
    return tables["left"], tables["right"]


def format_matrix(table: Table, indent: str = "") -> str:
    """Fixed-width text rendering with aligned signed entries: only the
    stored cells are formatted, and they alone set the width."""
    width = max((len(str(v)) for v in table.cells.values()), default=1)
    rows = [[f"{0:>{width}}"] * table.shape[1] for _ in range(table.shape[0])]
    for (r, c), v in table.cells.items():
        rows[r][c] = f"{v:>{width}}"
    return "\n".join(indent + " ".join(row) for row in rows)
