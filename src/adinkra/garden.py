"""Exact verification of the garden algebra relations.

Given signed permutation-like matrices L_1..L_N (all d x dhat) and their
transposes R_I = L_I^T, the relations are

    left:   L_I R_J + L_J R_I = 2 delta_IJ I_d      for all I <= J
    right:  R_I L_J + R_J L_I = 2 delta_IJ I_dhat   for all I <= J

Everything is computed over int64 and compared exactly; a residual is
the difference between the computed sum and its target, so a relation
holds iff its residual is the zero matrix.
"""

from __future__ import annotations

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
    left_residuals: dict[Pair, np.ndarray]
    right_residuals: dict[Pair, np.ndarray]
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


def _residual_violations(
    side: str, pair: Pair, residual: np.ndarray
) -> list[Violation]:
    out = []
    for r, c in zip(*np.nonzero(residual)):
        out.append(
            Violation(side, pair[0], pair[1], int(r) + 1, int(c) + 1,
                      int(residual[r, c]))
        )
    return out


def garden_check(matrices: Sequence[object]) -> GardenReport:
    """Check both relation families exactly; residuals are kept whole.

    Violations are ordered by (side, I, J, row, col) with the left
    family first, all indices 1-based.
    """
    mats = _check_shapes(matrices)
    d, dh = mats[0].shape
    rs = [m.T for m in mats]
    left_res: dict[Pair, np.ndarray] = {}
    right_res: dict[Pair, np.ndarray] = {}
    violations: list[Violation] = []
    for side, res_map, eye, first, second in (
        ("left", left_res, 2 * np.eye(d, dtype=np.int64), mats, rs),
        ("right", right_res, 2 * np.eye(dh, dtype=np.int64), rs, mats),
    ):
        for pair in color_pairs(len(mats)):
            i, j = pair
            a = first[i - 1] @ second[j - 1] + first[j - 1] @ second[i - 1]
            target = eye if i == j else np.zeros_like(a)
            residual = a - target
            residual.setflags(write=False)
            res_map[pair] = residual
            violations.extend(_residual_violations(side, pair, residual))
    return GardenReport(
        n_colors=len(mats),
        d=d,
        d_hat=dh,
        left_residuals=left_res,
        right_residuals=right_res,
        violations=tuple(violations),
    )


def product_tables(
    matrices: Sequence[object],
) -> tuple[list[tuple[str, np.ndarray]], list[tuple[str, np.ndarray]]]:
    """Labeled product sums in the layout used for printed tables.

    Left side: for each pair (I, J) with I <= J, the matrix
    L_I R_J + L_J R_I, labeled "L<I>*R<I>" on the diagonal and
    "L<I>*R<J> + L<J>*R<I>" off it (the diagonal product is printed
    once, not doubled).  The right side swaps the roles of L and R.
    """
    mats = _check_shapes(matrices)
    rs = [m.T for m in mats]
    left, right = [], []
    for i, j in color_pairs(len(mats)):
        li, lj = mats[i - 1], mats[j - 1]
        ri, rj = rs[i - 1], rs[j - 1]
        if i == j:
            left.append((f"L{i}*R{i}", li @ ri))
            right.append((f"R{i}*L{i}", ri @ li))
        else:
            left.append((f"L{i}*R{j} + L{j}*R{i}", li @ rj + lj @ ri))
            right.append((f"R{i}*L{j} + R{j}*L{i}", ri @ lj + rj @ li))
    return left, right


def format_matrix(matrix: object, indent: str = "") -> str:
    """Fixed-width text rendering with aligned signed entries."""
    a = as_exact(matrix)
    width = max((len(str(int(x))) for x in a.flat), default=1)
    rows = []
    for row in a:
        rows.append(indent + " ".join(f"{int(x):>{width}}" for x in row))
    return "\n".join(rows)
