"""Necessary conditions for a valise graph to be an adinkra candidate.

Each check is independent, named, and purely structural: none of them
looks at edge signs, so a verdict is invariant under re-dashing.  The
checks are necessary, not sufficient; whether a compatible dashing
exists is a separate search.

The bi-color machinery lives here because two checks share it: inside
the subgraph spanned by two colors every vertex has degree at most 2
(each color is a partial matching), so the subgraph splits into simple
paths and even cycles.  Quad candidacy demands that every such cycle
have length exactly 4; open paths are permitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import graph as gm
from .graph import Node, ValiseGraph, Vertex


class BiColorComponent(NamedTuple):
    color_i: int  # 1-based, color_i < color_j
    color_j: int
    nodes: tuple[Node, ...]  # traversal order; for a cycle, no repeat of start
    edge_indices: tuple[int, ...]  # 0-based positions into graph.edges
    closed: bool

    @property
    def length(self) -> int:
        return len(self.edge_indices)


def bicolor_components(g: ValiseGraph) -> list[BiColorComponent]:
    """Decompose every two-color subgraph into paths and cycles.

    Deterministic: color pairs ascend, every component starts at its
    smallest vertex, and cycles step first along the smaller color.
    """
    by_color: dict[int, list[tuple[int, Node, Node]]] = {
        c: [] for c in range(1, g.n_colors + 1)
    }
    for idx, e in enumerate(g.edges):
        by_color[e.color].append((idx, ("B", e.boson), ("F", e.fermion)))
    out: list[BiColorComponent] = []
    for ci in range(1, g.n_colors + 1):
        for cj in range(ci + 1, g.n_colors + 1):
            adj: dict[Node, list[tuple[int, Node]]] = {}
            for idx, b, f in by_color[ci] + by_color[cj]:
                adj.setdefault(b, []).append((idx, f))
                adj.setdefault(f, []).append((idx, b))
            visited: set[Node] = set()

            def walk(start: Node, first: tuple[int, Node]) -> BiColorComponent:
                nodes, edges = [start], []
                idx, nxt = first
                while True:
                    edges.append(idx)
                    if nxt == start:
                        closed = True
                        break
                    nodes.append(nxt)
                    onward = [(i, w) for i, w in adj[nxt] if i != idx]
                    if not onward:
                        closed = False
                        break
                    idx, nxt = onward[0]
                visited.update(nodes)
                return BiColorComponent(ci, cj, tuple(nodes), tuple(edges), closed)

            # Open paths first, from their smallest endpoint.
            for start in sorted(n for n, nb in adj.items() if len(nb) == 1):
                if start not in visited:
                    out.append(walk(start, adj[start][0]))
            # What remains in this subgraph is disjoint cycles.
            for start in sorted(adj):
                if start not in visited and len(adj[start]) == 2:
                    first = min(adj[start], key=lambda iw: g.edges[iw[0]].color)
                    out.append(walk(start, first))
    return out


def bicolor_cycles(g: ValiseGraph) -> list[BiColorComponent]:
    return [c for c in bicolor_components(g) if c.closed]


def quads(g: ValiseGraph) -> list[tuple[int, ...]]:
    """Edge-index tuples of all bi-color 4-cycles."""
    return [c.edge_indices for c in bicolor_cycles(g) if c.length == 4]


def check_equal_counts(g: ValiseGraph) -> tuple[bool, tuple[int, int]]:
    """True iff the boson and fermion rows have the same size."""
    return g.d == g.d_hat, (g.d, g.d_hat)


def check_color_coverage(
    g: ValiseGraph,
) -> tuple[bool, list[tuple[Vertex, tuple[int, ...]]]]:
    """True iff every vertex meets every color; lists (vertex, missing).

    The matching property already caps incidence at one edge per color
    per vertex, so this checks the lower bound.  Bosons are listed
    before fermions, each by index.
    """
    seen: dict[Node, set[int]] = {v.node: set() for v in g.vertices()}
    for e in g.edges:
        seen[("B", e.boson)].add(e.color)
        seen[("F", e.fermion)].add(e.color)
    full = set(range(1, g.n_colors + 1))
    misses = []
    for v in g.vertices():
        missing = full - seen[v.node]
        if missing:
            misses.append((v, tuple(sorted(missing))))
    return not misses, misses


def check_bicolor_quads(
    g: ValiseGraph,
) -> tuple[bool, list[BiColorComponent]]:
    """True iff every bi-color cycle is a quad; lists the offenders."""
    bad = [c for c in bicolor_cycles(g) if c.length != 4]
    return not bad, bad


@dataclass(frozen=True)
class CandidacyReport:
    bipartite_ok: bool
    equal_counts_ok: bool
    counts: tuple[int, int]
    coverage_ok: bool
    coverage_misses: tuple[tuple[Vertex, tuple[int, ...]], ...]
    quad_ok: bool
    bad_cycles: tuple[BiColorComponent, ...]
    reasons: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def is_candidate(self) -> bool:
        return (
            self.bipartite_ok
            and self.equal_counts_ok
            and self.coverage_ok
            and self.quad_ok
        )

    @property
    def verdict(self) -> str:
        return "candidate" if self.is_candidate else "rejected"

    def to_json_obj(self) -> dict:
        return {
            "bipartite_ok": self.bipartite_ok,
            "equal_counts_ok": self.equal_counts_ok,
            "counts": list(self.counts),
            "coverage_ok": self.coverage_ok,
            "coverage_misses": [
                {"vertex": str(v), "label": v.label, "missing_colors": list(cs)}
                for v, cs in self.coverage_misses
            ],
            "quad_ok": self.quad_ok,
            "bad_cycles": [
                {
                    "colors": [c.color_i, c.color_j],
                    "length": c.length,
                    "vertices": [gm.node_str(n) for n in c.nodes],
                }
                for c in self.bad_cycles
            ],
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "notes": list(self.notes),
        }


def candidacy(g: ValiseGraph) -> CandidacyReport:
    """Aggregate all candidacy checks; every failure is reported.

    Bipartiteness is structural in this data model (edges only join a
    boson to a fermion); raw input that violates it cannot parse.  It
    is still reported as its own line for symmetry with file checking.
    """
    eq_ok, counts = check_equal_counts(g)
    cov_ok, misses = check_color_coverage(g)
    quad_ok, bad = check_bicolor_quads(g)
    reasons = []
    if not eq_ok:
        reasons.append(f"unequal counts ({counts[0]} vs {counts[1]})")
    if not cov_ok:
        total = g.d + g.d_hat
        reasons.append(
            f"incomplete color coverage ({len(misses)} of {total} vertices)"
        )
    if not quad_ok:
        reasons.append(f"bi-color cycles of length != 4 ({len(bad)} found)")
    notes = []
    if not g.edges:
        notes.append("empty graph: candidate holds vacuously")
    return CandidacyReport(
        bipartite_ok=True,
        equal_counts_ok=eq_ok,
        counts=counts,
        coverage_ok=cov_ok,
        coverage_misses=tuple(misses),
        quad_ok=quad_ok,
        bad_cycles=tuple(bad),
        reasons=tuple(reasons),
        notes=tuple(notes),
    )
