"""Necessary conditions for a valise graph to be an adinkra candidate.

candidacy runs three named filters (equal counts, color coverage,
bi-color quads) and reports every failure.  None of them looks at edge
signs, so a verdict is invariant under re-dashing.  The filters are
necessary, not sufficient; whether a compatible dashing exists is a
separate search, which reads its quads from the same report.

Inside the subgraph spanned by two colors every vertex has degree at
most 2 (each color is a partial matching), so the subgraph splits into
simple paths and even cycles.  Quad candidacy demands that every such
cycle have length exactly 4; open paths are permitted.  candidacy walks
this decomposition once and splits its cycles into quads and offenders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

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


def quads(g: ValiseGraph) -> list[tuple[int, ...]]:
    """Edge-index tuples of all bi-color 4-cycles."""
    return [c.edge_indices for c in bicolor_components(g)
            if c.closed and c.length == 4]


@dataclass(frozen=True)
class CandidacyReport:
    """The facts candidacy found; every verdict is derived from them.
    quads and bad_cycles split the closed bi-color components, in
    decomposition order, by whether their length is 4."""

    counts: tuple[int, int]
    coverage_misses: tuple[tuple[Vertex, tuple[int, ...]], ...]
    quads: tuple[tuple[int, ...], ...]
    bad_cycles: tuple[BiColorComponent, ...]
    empty: bool

    # Structural in this data model: edges only join a boson to a fermion,
    # so raw input that is not bipartite cannot parse.
    bipartite_ok: ClassVar[bool] = True

    @property
    def equal_counts_ok(self) -> bool:
        return self.counts[0] == self.counts[1]

    @property
    def coverage_ok(self) -> bool:
        return not self.coverage_misses

    @property
    def quad_ok(self) -> bool:
        return not self.bad_cycles

    @property
    def is_candidate(self) -> bool:
        return self.equal_counts_ok and self.coverage_ok and self.quad_ok

    @property
    def verdict(self) -> str:
        return "candidate" if self.is_candidate else "rejected"

    @property
    def reasons(self) -> tuple[str, ...]:
        """One line per failed filter, in filter order."""
        reasons = []
        if not self.equal_counts_ok:
            reasons.append("unequal counts ({} vs {})".format(*self.counts))
        if not self.coverage_ok:
            reasons.append(f"incomplete color coverage ({len(self.coverage_misses)} "
                           f"of {sum(self.counts)} vertices)")
        if not self.quad_ok:
            reasons.append(
                f"bi-color cycles of length != 4 ({len(self.bad_cycles)} found)"
            )
        return tuple(reasons)

    @property
    def notes(self) -> tuple[str, ...]:
        return ("empty graph: candidate holds vacuously",) if self.empty else ()

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
    """Run every candidacy filter; every failure is reported.

    Coverage lists each vertex missing a color, bosons before fermions,
    each by index (the matching property already caps incidence at one
    edge per color per vertex, so this checks the lower bound).  The
    bi-color decomposition is walked once.
    """
    seen: dict[Node, set[int]] = {v.node: set() for v in g.vertices()}
    for e in g.edges:
        seen[("B", e.boson)].add(e.color)
        seen[("F", e.fermion)].add(e.color)
    full = set(range(1, g.n_colors + 1))
    closed = [c for c in bicolor_components(g) if c.closed]
    return CandidacyReport(
        counts=(g.d, g.d_hat),
        coverage_misses=tuple((v, tuple(sorted(full - seen[v.node])))
                              for v in g.vertices() if seen[v.node] != full),
        quads=tuple(c.edge_indices for c in closed if c.length == 4),
        bad_cycles=tuple(c for c in closed if c.length != 4),
        empty=not g.edges,
    )
