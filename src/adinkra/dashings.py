"""Gauge-reduced search for garden-compatible sign choices.

Flipping every edge sign at one vertex conjugates each L_I by a
diagonal +-1 matrix, which preserves both garden relation families.
The flips that fix a dashing are exactly those constant on each
connected component, so every gauge orbit has size 2^(V - #components),
which is the edge count of a spanning forest.  Fixing the forest's
edges to +1 picks exactly one representative per orbit, cutting the
raw 2^E space down to 2^free with free = E - V + #components.

On a graph passing the candidacy filters, a dashing satisfies the
garden relations iff every bi-color 4-cycle carries an odd number of
dashed edges (sign product -1 around the quad, which is what makes the
off-diagonal products cancel).  Over the free edges that is a linear
system over GF(2).  Elimination to reduced echelon form decides it:
an inconsistent system means the topology is infeasible outright;
otherwise the smallest solution is the witness, and the solutions,
one per gauge orbit, are that witness plus the 2^nullity members of
the nullspace.  Every solution returned or
counted is still confirmed with the exact garden check; the test suite
compares the whole path against a brute-force scan of all 2^free
gauge-fixed vectors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import graph as gm
from .errors import BudgetError
from .filters import candidacy, quads
from .garden import garden_check
from .graph import Node, ValiseGraph

DEFAULT_BUDGET = 2**28
_ENV_BUDGET = "ADINKRA_BUDGET"


def resolve_budget(explicit: int | None = None,
                   default: int = DEFAULT_BUDGET) -> int:
    """Explicit value, else the ADINKRA_BUDGET env var, else the default."""
    if explicit is not None:
        return explicit
    env = os.environ.get(_ENV_BUDGET)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{_ENV_BUDGET} must be an integer, got {env!r}") from exc
    return default


@dataclass(frozen=True)
class DashingAssignment:
    """Signs per edge index of the owning graph, in edge order."""

    signs: tuple[int, ...]
    gauge_fixed: bool = False


@dataclass(frozen=True)
class DashingSearchResult:
    feasible: bool
    witness: DashingAssignment | None
    count_gauge_orbits: int
    count_total: int | None
    pruned_reason: str | None
    free_edge_count: int
    exhaustive: bool

    def to_json_obj(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness": list(self.witness.signs) if self.witness else None,
            "count_gauge_orbits": self.count_gauge_orbits,
            "count_total": self.count_total,
            "pruned_reason": self.pruned_reason,
            "free_edge_count": self.free_edge_count,
            "exhaustive": self.exhaustive,
        }


def apply_dashing(g: ValiseGraph, a: DashingAssignment) -> ValiseGraph:
    return g.with_signs(a.signs)


def vertex_flip(g: ValiseGraph, node: Node) -> ValiseGraph:
    """Flip the sign of every edge incident to one vertex."""
    kind, idx = node
    if kind not in ("B", "F"):
        raise ValueError(f"node must be ('B', i) or ('F', j), got {node!r}")
    signs = [
        -e.sign if (e.boson if kind == "B" else e.fermion) == idx else e.sign
        for e in g.edges
    ]
    return g.with_signs(signs)


def gauge_fix(g: ValiseGraph) -> tuple[int, ...]:
    """The edges of graph.spanning_forest as 0-based indices, ascending.

    Fixing these edges to +1 leaves E - V + #components free edges;
    each gauge orbit contains exactly one such representative.
    """
    return tuple(sorted(idx for idx, _, _ in gm.spanning_forest(g)))


def odd_quad_check(
    g: ValiseGraph, a: DashingAssignment | None = None
) -> tuple[bool, list[tuple[int, ...]]]:
    """True iff every bi-color quad has edge-sign product -1.

    Offenders are returned as tuples of 0-based edge indices.  Signs
    come from the assignment when given, else from the graph itself.
    """
    signs = a.signs if a is not None else tuple(e.sign for e in g.edges)
    if len(signs) != len(g.edges):
        raise ValueError(
            f"assignment has {len(signs)} signs for {len(g.edges)} edges"
        )
    bad = []
    for quad in quads(g):
        product = 1
        for idx in quad:
            product *= signs[idx]
        if product != -1:
            bad.append(quad)
    return not bad, bad


def _solve_odd_quads(
    quad_rows: list[tuple[int, ...]], free_pos: dict[int, int]
) -> tuple[int, list[int]] | None:
    """Solve over GF(2): an odd count of dashed free edges per quad.

    Unknowns are the free-edge bits of free_pos (bit 1 = sign +1);
    forest edges are +1 so they never contribute, and since a spanning
    forest is acyclic every quad keeps at least one free edge.  Rows
    are packed as ints, free-edge bits below one rhs bit, and brought
    to reduced echelon form with each row pivoting on its lowest bit.

    Returns None when the system is inconsistent.  Otherwise returns
    the smallest solution (every non-pivot bit 0, each pivot bit its
    row's rhs, since a row holds no bits below its pivot) and a
    nullspace basis, one vector per non-pivot bit; the solutions are
    the minimum xor every subset of the basis.
    """
    k = len(free_pos)
    mask = (1 << k) - 1
    pivots: dict[int, int] = {}
    for quad in quad_rows:
        row = 0
        for idx in quad:
            if idx in free_pos:
                row ^= 1 << free_pos[idx]
        # m free edges with an odd number dashed: m - 1 of them are +1, mod 2
        row |= ((row.bit_count() + 1) & 1) << k
        for bit, pivot_row in pivots.items():
            if (row >> bit) & 1:
                row ^= pivot_row
        if not row & mask:
            if row:  # reduced to 0 = 1
                return None
            continue
        bit = (row & -row).bit_length() - 1
        for other, pivot_row in pivots.items():
            if (pivot_row >> bit) & 1:
                pivots[other] = pivot_row ^ row
        pivots[bit] = row
    minimum = sum(1 << bit for bit, row in pivots.items() if row >> k)
    basis = [
        (1 << j) | sum(1 << bit for bit, row in pivots.items() if (row >> j) & 1)
        for j in range(k)
        if j not in pivots
    ]
    return minimum, basis


def search_dashings(
    g: ValiseGraph,
    exhaustive: bool = False,
    budget: int | None = None,
) -> DashingSearchResult:
    """Decide whether any dashing of g satisfies the garden relations.

    Short-circuits when a candidacy filter fails (those failures are
    sign-independent).  Otherwise the odd-quad conditions over the free
    edges of a spanning forest are solved by GF(2) elimination.  A sign
    vector over the free edges reads as an integer, first free edge
    most significant and bit 1 for +1, and the witness is the smallest
    solution, taken straight from the reduced echelon form; it is the
    first feasible vector in lexicographic order with -1 before +1.
    With exhaustive=True all 2^nullity solutions are enumerated, so
    count_gauge_orbits is exact, and count_total is that count shifted
    by the forest size (V - #components, the log2 of every orbit's
    size); otherwise count_gauge_orbits is 1 or 0.  Every returned or
    counted solution is confirmed with the exact garden check.  The
    budget still caps 2^free, the size of the gauge-fixed space.
    """
    budget = resolve_budget(budget)
    report = candidacy(g)
    forest = gauge_fix(g)
    fixed = set(forest)
    free = [i for i in range(len(g.edges)) if i not in fixed]
    k = len(free)

    def infeasible(reason: str | None) -> DashingSearchResult:
        return DashingSearchResult(
            feasible=False,
            witness=None,
            count_gauge_orbits=0,
            count_total=0 if exhaustive else None,
            pruned_reason=reason,
            free_edge_count=k,
            exhaustive=exhaustive,
        )

    if not report.is_candidate:
        if not report.equal_counts_ok:
            reason = "equal-counts filter failed ({} vs {})".format(*report.counts)
        elif not report.coverage_ok:
            reason = (
                f"color-coverage filter failed "
                f"({len(report.coverage_misses)} vertices missing colors)"
            )
        else:
            reason = (
                f"bi-color quad filter failed ({len(report.bad_cycles)} "
                f"cycles of length != 4)"
            )
        return infeasible(reason)

    free_pos = {edge_idx: k - 1 - t for t, edge_idx in enumerate(free)}
    solved = _solve_odd_quads(quads(g), free_pos)
    if solved is None:
        return infeasible("quad parity system unsolvable over GF(2)")

    if 2**k > budget:
        raise BudgetError(2**k, budget, what=f"dashing search on {g.name!r}")

    def confirmed(v: int) -> DashingAssignment:
        signs = [1] * len(g.edges)
        for idx, bit in free_pos.items():
            signs[idx] = 1 if (v >> bit) & 1 else -1
        a = DashingAssignment(signs=tuple(signs), gauge_fixed=True)
        if not garden_check(gm.colors(apply_dashing(g, a))).ok:
            # the odd-quad rule and the full check must agree
            raise AssertionError("odd-quad solution failed garden verification")
        return a

    minimum, basis = solved
    witness = confirmed(minimum)
    orbit_count, count_total = 1, None
    if exhaustive:
        v = minimum
        for step in range(1, 1 << len(basis)):  # Gray code: one basis xor a step
            v ^= basis[(step & -step).bit_length() - 1]
            confirmed(v)
        orbit_count = 1 << len(basis)
        count_total = orbit_count << len(forest)
    return DashingSearchResult(
        feasible=True,
        witness=witness,
        count_gauge_orbits=orbit_count,
        count_total=count_total,
        pruned_reason=None,
        free_edge_count=k,
        exhaustive=exhaustive,
    )
