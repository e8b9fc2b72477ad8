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

The search never builds a pruned candidate.  Relative to color 1 every
later color must be a fixed-point-free involution, so colors 2..N are
drawn from those (3 at d = 4, 15 at d = 6, 105 at d = 8), and a choice
is kept only if it is one relative to every earlier color too.  The
leaves keep their positions in the raw space, and the pruned count is
the raw candidates that were never generated.

Surviving candidates are grouped by canonical_form: the lexicographic
minimum, over color orders and boson relabelings, of the relative
permutations to a base color.  It is computed by branch and bound
(label bosons in the order the key is read, branch only where a label
is free, stop a branch once its prefix exceeds the best key) and returns
exactly the key of trying every relabeling, which the tests keep as an
oracle.  The tesseract takes tens of milliseconds instead of seconds;
the worst case is still N! * d! leaves on highly symmetric tuples.

A class is exactly one orbit of S_d x S_N, and both leaf sets (pruned
or not) are closed under it, so canonical_form runs once per class:
the first leaf of a class reached is keyed, a breadth-first walk of
its orbit (_orbit) stores that key for every other member, and each of
those leaves is then a dictionary lookup that drops it from the memo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import graph as gm
from .dashings import DashingAssignment, resolve_budget, search_dashings
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
    canonical_key: Topology
    graph: ValiseGraph  # witness dashing applied
    witness: DashingAssignment
    connected: bool
    multiplicity: int  # raw candidates mapping to this class
    first_index: int  # position in raw enumeration order


@dataclass(frozen=True)
class SearchOutcome:
    spec: SearchSpec
    solutions: tuple[TopologyClass, ...]
    raw_size: int
    pruned: tuple[tuple[str, int], ...]  # (reason, raw candidate count)

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
    maps: list[dict[int, int]] = [{} for _ in range(g.n_colors)]
    for e in g.edges:
        maps[e.color - 1][e.boson - 1] = e.fermion - 1
    out = []
    for color, m in enumerate(maps, start=1):
        if len(m) != g.d or len(set(m.values())) != g.d:
            raise ValueError(f"color {color} is not a perfect matching")
        out.append(tuple(m[i] for i in range(g.d)))
    return tuple(out)


def _check_topology(topology: Topology) -> tuple[int, int]:
    """(d, N) of a matching tuple; ValueError unless every entry is a
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
    return d, len(topology)


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
    alpha . rel_r . alpha^-1, compared lexicographically; it is the same
    key that trying every order and every alpha gives, and the tests keep
    that brute force as an oracle.

    The minimum is found by branch and bound.  For each color order,
    alpha is built one label at a time while the key is read in order:
    entry i of row 0 is the label of rel_0 applied to the boson labeled
    i.  When no boson has label i yet, the search branches over the
    unlabeled bosons; when the image is unlabeled, it takes the smallest
    unused label, the only choice that can reach the minimum.  Row 0
    labels every boson, so rows 1.. are then fixed.  A branch stops as
    soon as its prefix exceeds the best key so far, which carries over
    from one color order to the next, and of two unlabeled bosons whose
    transposition is an automorphism only one is tried.  When rel_0 is a
    fixed-point-free involution, as in every search candidate, a color
    order has at most 2^(d/2) * (d/2)! leaves (384 at d = 8); the worst
    case is still N! * d! leaves, on highly symmetric tuples whose
    automorphisms are not generated by transpositions.

    Raises ValueError unless the tuple is non-empty and every entry is a
    permutation of range(d) for one common d.
    """
    if isinstance(topology, ValiseGraph):
        topology = topology_of(topology)
    d, n = _check_topology(topology)
    if n == 1:  # every matching is the same class
        return ()
    twin = _twin_classes(topology)
    best_row: list[int] | None = None  # row 0 of the best key so far
    best_rest: list[int] = []  # rows 1.., flattened
    updates = 0

    for order in itertools.permutations(range(n)):
        base_inv = _inverse(topology[order[0]])
        first, *others = [_compose(base_inv, topology[c]) for c in order[1:]]
        lab = [-1] * d  # boson -> label
        inv = [0] * d  # label -> boson
        row = [0] * d

        def descend(i: int, m: int, tight: bool) -> None:
            # Labels 0..m-1 are assigned and row[:i] is read; tight means
            # row[:i] equals best_row[:i] rather than being smaller.
            nonlocal best_row, best_rest, updates
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
                    if best_row is None or not tight or rest < best_rest:
                        best_row, best_rest = row[:], rest
                        updates += 1
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

        descend(0, 0, best_row is not None)
    flat = best_row + best_rest
    return tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(n - 1))


def _orbit(topology: Topology) -> set[Topology]:
    """Every tuple with color 1 the identity that boson/fermion
    relabeling and color permutation reach from topology, whose color 1
    must be the identity.

    Breadth-first search over generators that keep color 1 the
    identity: conjugation of every color by an adjacent boson
    transposition a (relabeling bosons and fermions by a alike), the
    swap of colors 1 and 2 followed by relabeling fermions by r_2^-1,
    which gives (id, r_2^-1, r_2^-1 . r_3, ...), and the swap of colors
    c and c+1 for c >= 2.  They generate S_d x S_N, so the result is the
    whole class, and canonical_form is constant on it.
    """
    d, n = len(topology[0]), len(topology)
    swaps = []
    for i in range(d - 1):
        a = list(range(d))
        a[i], a[i + 1] = i + 1, i
        swaps.append(a)

    def neighbors(t: Topology):
        for a in swaps:
            # a . r . a^-1, as a is its own inverse
            yield tuple(tuple(a[r[y]] for y in a) for r in t)
        if n > 1:
            inv = _inverse(t[1])
            yield (t[0], inv, *(_compose(inv, r) for r in t[2:]))
        for c in range(2, n):
            yield t[:c - 1] + (t[c], t[c - 1]) + t[c + 1:]

    seen = {topology}
    queue = [topology]
    for t in queue:
        for u in neighbors(t):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


class _OrbitKeys:
    """canonical_form of tuples with color 1 the identity, computed once
    per orbit: the key of the first member asked for is stored in memo
    for the rest of its orbit, and each member is dropped from memo when
    asked for.  A scan asks once for every leaf, and every orbit member
    of a leaf is a leaf, so memo ends empty."""

    def __init__(self) -> None:
        self.memo: dict[Topology, Topology] = {}

    def __call__(self, topo: Topology) -> Topology:
        if topo in self.memo:
            return self.memo.pop(topo)
        key = canonical_form(topo)
        self.memo.update(dict.fromkeys(_orbit(topo), key))
        del self.memo[topo]
        return key


_SUPPORT_REASON = "relative permutation not a fixed-point-free involution"


def _scan(
    spec: SearchSpec, prune: bool
) -> tuple[dict[Topology, tuple[int, int, Topology]], dict[str, int]]:
    """Enumerate the candidates that pass the support rule, sigma_1 =
    identity.

    Colors 2..N are drawn from the fixed-point-free involutions of
    range(d), or from every permutation when prune is off.  A choice p
    is kept if q . p is also a fixed-point-free involution for every
    earlier color q after the first; as q is an involution, q . p is p
    relative to q.

    Returns {class_key: (first_index, multiplicity, topology)} in order
    of first index, and pruned counts.  Candidate indices are mixed-radix
    positions in the full (d!)^(N-1) space, each digit the lexicographic
    rank of a permutation.  Every raw candidate is either a leaf or
    pruned at one level, so raw_size minus the leaves is the pruned
    count.
    """
    levels = spec.n_colors - 1
    n_perms = math.factorial(spec.d)
    # With one color there is nothing to choose, however large d! is.
    ranked = enumerate(itertools.permutations(range(spec.d))) if levels else ()
    choices = [(t, p) for t, p in ranked if not prune or is_fpf_involution(p)]
    identity = tuple(range(spec.d))
    classes: dict[Topology, tuple[int, int, Topology]] = {}
    key_of = _OrbitKeys()

    def record(topo: Topology, index: int) -> None:
        key = key_of(topo) if spec.dedupe else topo
        if key in classes:
            first, mult, rep = classes[key]
            classes[key] = (first, mult + 1, rep)
        else:
            classes[key] = (index, 1, topo)

    def rec(chosen: list[Perm], base: int, level: int) -> None:
        if level == levels:
            record((identity, *chosen), base)
            return
        subtree = n_perms ** (levels - level - 1)
        for t, p in choices:
            if prune and not all(
                is_fpf_involution(_compose(q, p)) for q in chosen
            ):
                continue
            chosen.append(p)
            rec(chosen, base + t * subtree, level + 1)
            chosen.pop()

    rec([], 0, 0)
    leaves = sum(mult for _, mult, _ in classes.values())
    return classes, {_SUPPORT_REASON: spec.raw_size - leaves}


def run_search(
    spec: SearchSpec,
    prune: bool = True,
    budget: int | None = None,
) -> SearchOutcome:
    """Full pipeline: enumerate, dedupe, dashing-search each class.

    Every returned solution carries a witness dashing and has been
    re-verified by the exact garden check inside search_dashings.
    Classes are reported in order of their first raw candidate.
    """
    budget = resolve_budget(budget, TOPOLOGY_BUDGET)
    if spec.raw_size > budget:
        raise BudgetError(spec.raw_size, budget, what="topology search")
    classes, pruned = _scan(spec, prune)
    pruned_counts = {reason: count for reason, count in pruned.items() if count}

    key_of = _OrbitKeys()
    solutions = []
    for key, (first, mult, topo) in classes.items():
        g = topology_graph(topo, name=f"search-d{spec.d}-n{spec.n_colors}-{first}")
        result = search_dashings(g, exhaustive=False, budget=budget)
        if result.feasible:
            dashed = g.with_signs(result.witness.signs)
            solutions.append(
                TopologyClass(
                    topology=topo,
                    canonical_key=key if spec.dedupe else key_of(topo),
                    graph=dashed,
                    witness=result.witness,
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
        raw_size=spec.raw_size,
        pruned=tuple(sorted(pruned_counts.items())),
    )
