"""Exhaustive search over N-color topologies on d bosons + d fermions.

A topology with every color a perfect matching is a tuple of
permutations (sigma_1..sigma_N), sigma_I sending boson i to its
color-I fermion.  Relabeling fermions lets us fix sigma_1 = identity,
so the raw space is (d!)^(N-1).

Support pruning: for I != J the product L_I R_J is the permutation
matrix of sigma_J^-1 sigma_I up to signs, and L_J R_I is its
transpose.  Their sum can only vanish cell-for-cell if that relative
permutation is an involution without fixed points (the transpose pair
lands on the same cells, and a fixed point contributes equal diagonal
entries that no sign choice cancels).  Equivalently: the two-color
subgraph is a disjoint union of quads.  The rule is therefore exactly
the quad candidacy filter lifted to permutation level; the tests
confirm pruned and unpruned searches agree, as does the acceptance
cross-check.

The search never builds a pruned candidate: relative to color 1 every
later color must be a fixed-point-free involution, so colors 2..N are
drawn from those (3 at d = 4, 15 at d = 6, 105 at d = 8).  Candidates
are grouped by canonical_form: the lexicographic minimum, over color
orders and boson relabelings, of the relative permutations to a base
color, found by branch and bound (label bosons in the order the key is
read, stop a branch once its prefix exceeds the best key); the tests
keep trying every relabeling as an oracle.  A class is one orbit of
S_d x S_N, and it is built once, as its least leaf, by orderly
generation (R. C. Read, 1978; B. D. McKay, 1998): a prefix is extended
only if it is the least member of its own class.  The same branch and
bound counts |Aut|, and the class has d! N! / |Aut| leaves.  With
dedupe off the same loop lists every leaf, with no least-member test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import graph as gm
from .dashings import resolve_budget, search_dashings
from .errors import BudgetError
from .graph import Edge, ValiseGraph

TOPOLOGY_BUDGET = 10**9

Perm = tuple[int, ...]  # 0-based images
Topology = tuple[Perm, ...]


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _compose(p: Perm, q: Perm) -> Perm:
    """i -> p(q(i))."""
    return tuple(p[v] for v in q)


def is_fpf_involution(p: Perm) -> bool:
    return all(p[i] != i and p[p[i]] == i for i in range(len(p)))


@dataclass(frozen=True)
class SearchSpec:
    d: int
    n_colors: int
    dedupe: bool = True

    def __post_init__(self):
        if self.d < 1 or self.n_colors < 1:
            raise ValueError("need d >= 1 and n_colors >= 1")

    @property
    def raw_size(self) -> int:
        return math.factorial(self.d) ** (self.n_colors - 1)


@dataclass(frozen=True)
class TopologyClass:
    topology: Topology
    graph: ValiseGraph  # witness dashing applied
    connected: bool
    multiplicity: int  # raw candidates mapping to this class
    first_index: int  # position in raw enumeration order

    @property
    def canonical_key(self) -> Topology:
        return canonical_form(self.topology)


@dataclass(frozen=True)
class SearchOutcome:
    spec: SearchSpec
    solutions: tuple[TopologyClass, ...]
    pruned: tuple[tuple[str, int], ...]  # (reason, raw candidate count)

    @property
    def raw_size(self) -> int:
        return self.spec.raw_size

    def connected_solutions(self) -> tuple[TopologyClass, ...]:
        return tuple(s for s in self.solutions if s.connected)

    def to_json_obj(self) -> dict:
        return {
            "d": self.spec.d,
            "colors": self.spec.n_colors,
            "scanned": self.raw_size,
            "pruned": {reason: count for reason, count in self.pruned},
            "solutions": [
                {
                    "graph": gm.to_json_obj(s.graph),
                    "connected": s.connected,
                    "multiplicity": s.multiplicity,
                }
                for s in self.solutions
            ],
        }


def topology_graph(topology: Topology, name: str = "topology") -> ValiseGraph:
    """Valise graph of a matching tuple, all signs +1."""
    d = len(topology[0])
    edges = [
        Edge(i + 1, p[i] + 1, color, 1)
        for color, p in enumerate(topology, start=1)
        for i in range(d)
    ]
    return ValiseGraph(
        name=name,
        n_colors=len(topology),
        bosons=tuple(str(i + 1) for i in range(d)),
        fermions=tuple(str(j + 1) for j in range(d)),
        edges=tuple(sorted(edges)),
    )


def topology_of(g: ValiseGraph) -> Topology:
    """Extract the matching tuple from a graph whose colors are perfect
    matchings; signs are discarded."""
    if g.d != g.d_hat:
        raise ValueError(f"need equal counts, got {g.d} vs {g.d_hat}")
    out = []
    for color, p in enumerate(gm.colors(g), start=1):
        if len(p.rows) != g.d:
            raise ValueError(f"color {color} is not a perfect matching")
        out.append(tuple(p.rows[i][0] for i in range(g.d)))
    return tuple(out)


def _check_topology(topology: Topology) -> None:
    """ValueError unless the tuple is non-empty and every entry is a
    permutation of range(d) for one common d."""
    if len(topology) == 0:
        raise ValueError("need at least one color")
    d = len(topology[0])
    for color, p in enumerate(topology, start=1):
        if len(p) != d:
            raise ValueError(
                f"color {color} has length {len(p)}, color 1 has {d}"
            )
        if set(p) != set(range(d)):
            raise ValueError(f"color {color} is not a permutation of range({d})")


def _twin_classes(topology: Topology) -> list[int]:
    """twin[x] = smallest boson y such that the transposition (x y)
    commutes with every relative permutation.

    Such a transposition is an automorphism of the graph, and the
    relation is an equivalence (twins of twins are twins).  It does not
    depend on which color is the base, since the relative permutations
    of any base are products of those of color 1 and their inverses.
    """
    d = len(topology[0])
    base_inv = _inverse(topology[0])
    rels = [_compose(base_inv, t) for t in topology[1:]]

    def swap_commutes(x: int, y: int) -> bool:
        return all(
            (r[x] == x and r[y] == y) or (r[x] == y and r[y] == x)
            for r in rels
        )

    return [
        next((y for y in range(x) if swap_commutes(x, y)), x)
        for x in range(d)
    ]


def canonical_form(topology: Topology | ValiseGraph) -> Topology:
    """Key invariant under boson/fermion relabeling and color permutation.

    Fermion relabeling is normalized away by composing with the base
    color's inverse.  The key is the minimum, over color orders and
    boson relabelings alpha, of the tuple of relative permutations
    alpha . rel_r . alpha^-1, compared lexicographically (see _least).

    Raises ValueError unless the tuple is non-empty and every entry is a
    permutation of range(d) for one common d.
    """
    if isinstance(topology, ValiseGraph):
        topology = topology_of(topology)
    _check_topology(topology)
    return _least(topology)[0]


def _least(
    topology: Topology, stop: bool = False
) -> tuple[Topology, int] | None:
    """(canonical key, |Aut|) of a well-formed tuple, by branch and bound.

    For each color order, alpha is built one label at a time while the
    key is read in order: entry i of row 0 is the label of rel_0 applied
    to the boson labeled i.  When no boson has label i yet, the search
    branches over the unlabeled bosons; when the image is unlabeled, it
    takes the smallest unused label, the only choice that can reach the
    minimum.  Row 0 labels every boson, so rows 1.. are then fixed.  The
    bound starts at the tuple's own key (the first order, alpha the
    identity), a branch stops once its prefix exceeds the best key, and
    of two unlabeled bosons whose transposition is an automorphism only
    one is tried.  When rel_0 is a fixed-point-free involution, an order
    has at most 2^(d/2) * (d/2)! leaves (384 at d = 8); the worst case is
    still N! * d! leaves, on symmetric tuples whose automorphisms are not
    generated by transpositions.

    With stop set, the result is None after the color order in which a
    key below the tuple's own is found, so a tuple with color 1 the
    identity passes only if it is the least of its class.  Otherwise
    every (order, alpha) giving the key is counted, a twin-pruned branch
    weighted by the twins it stands for: that is |Aut|, the stabilizer in
    S_d x S_N.  Without stop the count is skipped, as it costs time.
    """
    d, n = len(topology[0]), len(topology)
    if n == 1:  # every matching is the same class
        return (), math.factorial(d)
    twin = _twin_classes(topology)
    own = [v for t in topology[1:] for v in _compose(_inverse(topology[0]), t)]
    best_row, best_rest = own[:d], own[d:]  # the best key: row 0, rows 1..
    updates = ties = 0

    for order in itertools.permutations(range(n)):
        base_inv = _inverse(topology[order[0]])
        first, *others = [_compose(base_inv, topology[c]) for c in order[1:]]
        lab = [-1] * d  # boson -> label
        inv = [0] * d  # label -> boson
        row = [0] * d

        def descend(i: int, m: int, tight: bool) -> None:
            # Labels 0..m-1 are assigned and row[:i] is read; tight means
            # row[:i] equals best_row[:i] rather than being smaller.
            nonlocal best_row, best_rest, updates, ties
            m0 = m
            while i < m:
                y = first[inv[i]]
                v = lab[y]
                if v < 0:
                    v = lab[y] = m
                    inv[m] = y
                    m += 1
                if tight:
                    b = best_row[i]
                    if v > b:
                        break
                    tight = v == b
                row[i] = v
                i += 1
            else:
                if i == d:
                    rest = [lab[r[inv[j]]] for r in others for j in range(d)]
                    if not tight or rest < best_rest:
                        best_row, best_rest = row[:], rest
                        updates += 1
                    elif stop and rest == best_rest:
                        # Label k was branched on unless the boson is the
                        # image of an earlier one; the branch stood for
                        # the twins then unlabeled.
                        ties += math.prod(
                            sum(twin[y] == twin[x] and lab[y] >= k
                                for y in range(d))
                            for k, x in enumerate(inv)
                            if lab[first.index(x)] >= k
                        )
                else:
                    tried = set()
                    for x in range(d):
                        if lab[x] >= 0 or twin[x] in tried:
                            continue
                        tried.add(twin[x])
                        lab[x], inv[i] = i, x
                        seen = updates
                        descend(i, i + 1, tight)
                        lab[x] = -1
                        if updates != seen:
                            tight = True
            for k in range(m0, m):
                lab[inv[k]] = -1

        descend(0, 0, True)
        descend = None  # no reference cycle is left for the collector
        if stop and updates:
            return None
    flat = best_row + best_rest
    return tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(n - 1)), ties


_SUPPORT_REASON = "relative permutation not a fixed-point-free involution"


def _scan(
    spec: SearchSpec, prune: bool
) -> tuple[list[tuple[int, int, Topology]], dict[str, int]]:
    """Every candidate that passes the support rule, sigma_1 = identity,
    or with dedupe on only the least leaf of each class.

    Colors 2..N are drawn from the fixed-point-free involutions of
    range(d), or from every permutation when prune is off, and a choice p
    is kept if q . p is also one for every earlier color q after the
    first (as q is an involution, q . p is p relative to q).  With dedupe
    on this is orderly generation: choices are nondecreasing, color 2 is
    the first involution when pruning (all being conjugate), and a prefix
    is extended only if _least finds it the least of its class, as a
    smaller member of its class extends to a smaller member of every
    leaf above it.  With dedupe off, _least is never called.

    Returns [(first_index, multiplicity, topology)] in order of first
    index, and pruned counts.  Candidate indices are mixed-radix
    positions in the full (d!)^(N-1) space, each digit the lexicographic
    rank of a permutation, so the depth-first walk meets them in order.
    A class of d! N! / |Aut| leaves is first reached at its least leaf;
    with dedupe off each leaf counts once.  Every raw candidate is either
    a leaf or pruned at one level, so raw_size minus the leaves is the
    pruned count.
    """
    n_perms = math.factorial(spec.d)
    # With one color there is nothing to choose, however large d! is.
    perms = itertools.permutations(range(spec.d)) if spec.n_colors > 1 else ()
    rank = {p: t for t, p in enumerate(perms) if not prune or is_fpf_involution(p)}
    choices = list(rank)
    group = n_perms * math.factorial(spec.n_colors)
    records: list[tuple[int, int, Topology]] = []

    def rec(topo: Topology, index: int, start: int) -> None:
        if len(topo) == spec.n_colors:
            if not spec.dedupe:
                records.append((index, 1, topo))
            elif (least := _least(topo, stop=True)) is not None:
                records.append((index, group // least[1], topo))
            return
        end = 1 if prune and spec.dedupe and len(topo) == 1 else None
        kids = [
            (k, p) for k, p in enumerate(choices[start:end], start)
            if not prune or all(is_fpf_involution(_compose(q, p)) for q in topo[1:])
        ]
        if kids and (not spec.dedupe or _least(topo, stop=True) is not None):
            for k, p in kids:
                rec(topo + (p,), index * n_perms + rank[p], k if spec.dedupe else 0)

    rec((tuple(range(spec.d)),), 0, 0)
    leaves = sum(mult for _, mult, _ in records)
    return records, {_SUPPORT_REASON: spec.raw_size - leaves}


def run_search(
    spec: SearchSpec,
    prune: bool = True,
    budget: int | None = None,
) -> SearchOutcome:
    """Full pipeline: enumerate, dedupe, dashing-search each class.

    Each solution's graph is its topology with a witness dashing
    applied, re-verified by the exact garden check inside
    search_dashings; the graph is the only record of the signs.
    Classes are reported in order of their first raw candidate.
    """
    budget = resolve_budget(budget, TOPOLOGY_BUDGET)
    if spec.raw_size > budget:
        raise BudgetError(spec.raw_size, budget, what="topology search")
    classes, pruned = _scan(spec, prune)
    pruned_counts = {reason: count for reason, count in pruned.items() if count}

    solutions = []
    for first, mult, topo in classes:
        g = topology_graph(topo, name=f"search-d{spec.d}-n{spec.n_colors}-{first}")
        result = search_dashings(g, exhaustive=False, budget=budget)
        if result.feasible:
            dashed = g.with_signs(result.witness.signs)
            solutions.append(
                TopologyClass(
                    topology=topo,
                    graph=dashed,
                    connected=gm.is_connected(dashed),
                    multiplicity=mult,
                    first_index=first,
                )
            )
        else:
            reason = result.pruned_reason or "no feasible dashing"
            pruned_counts[reason] = pruned_counts.get(reason, 0) + mult
    return SearchOutcome(
        spec=spec,
        solutions=tuple(solutions),
        pruned=tuple(sorted(pruned_counts.items())),
    )
