"""Shared helpers for the test suite.

Random graphs are always built from a seeded generator passed in by the
caller, so every test run sees the same sequence.
"""

from __future__ import annotations

import itertools

import numpy as np

from adinkra import Edge, ValiseGraph, gauge_fix, to_matrices
from adinkra.garden import GardenReport, Pair, Violation, color_pairs
from adinkra.graph import _check_shapes
from adinkra.isomorphism import Isomorphism
from adinkra.search import (
    Topology,
    _SUPPORT_REASON,
    _compose,
    _inverse,
    canonical_form,
    is_fpf_involution,
)


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


def dense_garden_check(matrices) -> GardenReport:
    """The garden check by dense int64 matrix products, for any integer
    matrices; the oracle for the signed-permutation kernel."""
    mats = _check_shapes(matrices)
    d, dh = mats[0].shape
    rs = [m.T for m in mats]
    violations: list[Violation] = []
    for side, eye, first, second in (
        ("left", 2 * np.eye(d, dtype=np.int64), mats, rs),
        ("right", 2 * np.eye(dh, dtype=np.int64), rs, mats),
    ):
        for pair in color_pairs(len(mats)):
            i, j = pair
            a = first[i - 1] @ second[j - 1] + first[j - 1] @ second[i - 1]
            target = eye if i == j else np.zeros_like(a)
            residual = a - target
            violations.extend(_residual_violations(side, pair, residual))
    return GardenReport(
        n_colors=len(mats),
        d=d,
        d_hat=dh,
        violations=tuple(violations),
    )


def dense_product_tables(matrices):
    """product_tables by dense int64 matrix products."""
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


def random_valise_graph(
    rng: np.random.Generator,
    max_d: int = 5,
    max_colors: int = 4,
    tag: int = 0,
) -> ValiseGraph:
    """A uniformly messy but always valid valise graph.

    Each color gets an independent random partial matching with random
    signs, so matching constraints hold by construction while counts,
    coverage, and cycle structure vary freely.
    """
    d = int(rng.integers(1, max_d + 1))
    dh = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(1, max_colors + 1))
    edges = []
    for c in range(1, n + 1):
        k = int(rng.integers(0, min(d, dh) + 1))
        bs = rng.permutation(d)[:k]
        fs = rng.permutation(dh)[:k]
        for b, f in zip(bs, fs):
            edges.append(
                Edge(int(b) + 1, int(f) + 1, c, int(rng.choice((-1, 1))))
            )
    return ValiseGraph(
        name=f"random-{tag}",
        n_colors=n,
        bosons=tuple(f"b{i}" for i in range(1, d + 1)),
        fermions=tuple(f"f{j}" for j in range(1, dh + 1)),
        edges=tuple(sorted(edges)),
    )


def all_sign_vectors(n_edges: int):
    """All sign tuples in lexicographic order with -1 < +1."""
    for v in range(2**n_edges):
        yield tuple(
            1 if (v >> (n_edges - 1 - t)) & 1 else -1 for t in range(n_edges)
        )


def raw_feasible_count(g: ValiseGraph) -> int:
    """Brute-force count of garden-passing dashings over all 2^E signs."""
    count = 0
    for signs in all_sign_vectors(len(g.edges)):
        if dense_garden_check(to_matrices(g.with_signs(signs))).ok:
            count += 1
    return count


def brute_gauge_orbits(g: ValiseGraph) -> tuple[int, tuple[int, ...] | None]:
    """Scan every gauge-fixed sign vector with the dense garden check.

    Spanning-forest edges stay +1 and the 2^free choices on the other
    edges go in lexicographic order (-1 before +1, first free edge
    first).  Returns the number that pass and the first one that does.
    """
    fixed = set(gauge_fix(g))
    free = [i for i in range(len(g.edges)) if i not in fixed]
    count, first = 0, None
    for choice in all_sign_vectors(len(free)):
        signs = [1] * len(g.edges)
        for idx, sign in zip(free, choice):
            signs[idx] = sign
        if dense_garden_check(to_matrices(g.with_signs(signs))).ok:
            count += 1
            if first is None:
                first = tuple(signs)
    return count, first


def brute_orbit_size(g: ValiseGraph) -> int:
    """Size of every gauge orbit: 2^V over the number of vertex flips
    that change no edge sign, counted over all 2^V flips.  A flip keeps
    a sign iff it flips both ends or neither, whatever the sign is, so
    the size is the same for every dashing."""
    fixing = 0
    for flips in itertools.product((1, -1), repeat=g.d + g.d_hat):
        eps_b, eps_f = flips[:g.d], flips[g.d:]
        if all(eps_b[e.boson - 1] == eps_f[e.fermion - 1] for e in g.edges):
            fixing += 1
    return 2 ** (g.d + g.d_hat) // fixing


def disjoint_union(a: ValiseGraph, b: ValiseGraph, name: str) -> ValiseGraph:
    """Side-by-side union; colors are shared, vertex rows concatenate."""
    if a.n_colors != b.n_colors:
        raise ValueError("unions here keep a common color count")
    edges = list(a.edges) + [
        Edge(e.boson + a.d, e.fermion + a.d_hat, e.color, e.sign)
        for e in b.edges
    ]
    return ValiseGraph(
        name=name,
        n_colors=a.n_colors,
        bosons=a.bosons + tuple(lab + "+" for lab in b.bosons),
        fermions=a.fermions + tuple(lab + "+" for lab in b.fermions),
        edges=tuple(sorted(edges)),
    )


def brute_gauge_compatible(
    g1: ValiseGraph, g2: ValiseGraph, iso: Isomorphism
) -> bool:
    """Does some vertex flip of g1, carried along iso, give g2's signs?

    Tries all 2^V flips, so it is meant for graphs of at most 8 vertices.
    """
    s2 = {(e.boson, e.fermion, e.color): e.sign for e in g2.edges}
    wanted = [
        s2[(iso.bosons[e.boson - 1], iso.fermions[e.fermion - 1],
            iso.colors[e.color - 1])]
        for e in g1.edges
    ]
    for flips in itertools.product((1, -1), repeat=g1.d + g1.d_hat):
        eps_b, eps_f = flips[:g1.d], flips[g1.d:]
        if all(
            eps_b[e.boson - 1] * eps_f[e.fermion - 1] * e.sign == w
            for e, w in zip(g1.edges, wanted)
        ):
            return True
    return False


def brute_canonical_form(topology: tuple[tuple[int, ...], ...]):
    """The canonical key by trying every color order and every boson
    relabeling alpha: the minimum of (alpha . rel_r . alpha^-1)_r, where
    rel_r is the base color's inverse composed with color r.  Costs
    O(N! * d! * N * d)."""
    d, n = len(topology[0]), len(topology)
    best = None
    for order in itertools.permutations(range(n)):
        base_inv = _inverse(topology[order[0]])
        rel = [_compose(base_inv, topology[c]) for c in order[1:]]
        for alpha in itertools.permutations(range(d)):
            alpha_inv = _inverse(alpha)
            key = tuple(_compose(alpha, _compose(t, alpha_inv)) for t in rel)
            if best is None or key < best:
                best = key
    return best


def brute_topology_orbit(topology: tuple[tuple[int, ...], ...]) -> set:
    """The orbit of a tuple with color 1 the identity, by trying every
    color order and every boson relabeling alpha: (alpha . rel_r .
    alpha^-1)_r over every color r, where rel_r is the first color's
    inverse composed with color r, so color 1 stays the identity."""
    d, n = len(topology[0]), len(topology)
    orbit = set()
    for order in itertools.permutations(range(n)):
        base_inv = _inverse(topology[order[0]])
        rel = [_compose(base_inv, topology[c]) for c in order]
        for alpha in itertools.permutations(range(d)):
            alpha_inv = _inverse(alpha)
            orbit.add(tuple(_compose(alpha, _compose(t, alpha_inv)) for t in rel))
    return orbit


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


def _relative(p, q):
    """The boson permutation q^-1 then p, i.e. i -> q^-1(p(i))."""
    qinv = _inverse(q)
    return tuple(qinv[v] for v in p)


def filtered_scan(spec, prune: bool):
    """The topology scan by filtering all d! permutations at every level;
    the oracle for search._scan.

    Returns {class_key: (first_index, multiplicity, topology)} in order
    of first index, and pruned counts.  Candidate indices are mixed-radix
    positions in the full (d!)^(N-1) space; a prefix pruned at level L
    accounts for its whole subtree.
    """
    perms = list(itertools.permutations(range(spec.d)))
    n_perms = len(perms)
    levels = spec.n_colors - 1
    classes = {}
    pruned = {_SUPPORT_REASON: 0}

    def record(topo, index: int) -> None:
        key = canonical_form(topo) if spec.dedupe else topo
        if key in classes:
            first, mult, rep = classes[key]
            classes[key] = (first, mult + 1, rep)
        else:
            classes[key] = (index, 1, topo)

    def rec(chosen, base: int, level: int) -> None:
        if level == levels:
            record(tuple(chosen), base)
            return
        subtree = n_perms ** (levels - level - 1)
        for t, p in enumerate(perms):
            if prune and not all(
                is_fpf_involution(_relative(p, q)) for q in chosen
            ):
                pruned[_SUPPORT_REASON] += subtree
                continue
            chosen.append(p)
            rec(chosen, base + t * subtree, level + 1)
            chosen.pop()

    # With one color the identity matching is the only candidate.
    rec([perms[0]], 0, 0)
    return classes, pruned
