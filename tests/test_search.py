"""Topology search: enumeration, canonical forms, full pipeline."""

import dataclasses
import itertools
import random

import pytest

from adinkra import (
    BudgetError,
    SearchSpec,
    candidacy,
    canonical_form,
    colors,
    cube,
    diamond,
    garden_check,
    is_fpf_involution,
    is_isomorphic,
    rhombic_dodecahedron,
    run_search,
    tesseract,
    topology_graph,
    topology_of,
)
from adinkra import search
from adinkra.search import _SUPPORT_REASON, _compose, _scan
from conftest import _orbit, brute_canonical_form, disjoint_union, filtered_scan


def _leaves(spec: SearchSpec, prune: bool = True) -> list:
    """Every leaf of the filtering oracle in order: with dedupe off the
    class keys are the topologies themselves."""
    classes, _ = filtered_scan(dataclasses.replace(spec, dedupe=False), prune)
    return list(classes)


def _records(spec: SearchSpec, prune: bool) -> tuple[list, dict]:
    """_scan's result in filtered_scan's shape: {class key or, with
    dedupe off, topology: (first_index, multiplicity, topology)}."""
    classes, pruned = _scan(spec, prune)
    return [
        (canonical_form(topo) if spec.dedupe else topo, (first, mult, topo))
        for first, mult, topo in classes
    ], pruned


def test_spec_validation_and_raw_size():
    assert SearchSpec(2, 2).raw_size == 2
    assert SearchSpec(4, 3).raw_size == 576
    assert SearchSpec(3, 1).raw_size == 1
    with pytest.raises(ValueError):
        SearchSpec(0, 2)
    with pytest.raises(ValueError):
        SearchSpec(2, 0)


def test_is_fpf_involution():
    assert is_fpf_involution((1, 0, 3, 2))
    assert not is_fpf_involution((0, 1))  # fixed points
    assert not is_fpf_involution((1, 2, 0))  # 3-cycle


def test_topology_round_trip():
    topo = topology_of(diamond())
    assert topo == ((0, 1), (1, 0))
    g = topology_graph(topo, name="again")
    assert topology_of(g) == topo
    assert all(e.sign == 1 for e in g.edges)


def test_topology_of_rejections():
    with pytest.raises(ValueError, match="equal counts"):
        topology_of(rhombic_dodecahedron())
    g = diamond()
    missing = g.__class__(
        g.name, g.n_colors, g.bosons, g.fermions, g.edges[:-1]
    )
    with pytest.raises(ValueError, match="not a perfect matching"):
        topology_of(missing)


def test_enumerate_counts():
    assert len(_leaves(SearchSpec(2, 2))) == 1
    assert len(_leaves(SearchSpec(1, 2))) == 0
    # sigma_2 ranges over the 3 fixed-point-free involutions of S_4.
    assert len(_leaves(SearchSpec(4, 2))) == 3
    cands = _leaves(SearchSpec(4, 3))
    assert len(cands) == 6
    cube_key = canonical_form(cube())
    assert all(canonical_form(t) == cube_key for t in cands)


def test_enumerate_prune_is_sound():
    # The support prune must discard exactly the candidacy failures.
    for d, n in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
        spec = SearchSpec(d, n)
        pruned = set(_leaves(spec, prune=True))
        full = {
            t
            for t in _leaves(spec, prune=False)
            if candidacy(topology_graph(t)).is_candidate
        }
        assert pruned == full, (d, n)


@pytest.mark.parametrize("dedupe", (True, False))
def test_scan_matches_filtered_scan(dedupe):
    # Same classes in the same order, with the same first index,
    # multiplicity and representative, and the same pruned counts.
    specs = [(d, n) for d in range(1, 7) for n in range(1, 5)]
    for d, n in specs + [(4, 5), (8, 2)]:
        spec = SearchSpec(d, n, dedupe)
        got, got_pruned = _records(spec, prune=True)
        want, want_pruned = filtered_scan(spec, prune=True)
        assert got == list(want.items()), spec
        assert got_pruned == want_pruned, spec
    for d, n in ((2, 2), (3, 2), (2, 3), (4, 3)):
        spec = SearchSpec(d, n, dedupe)
        got, got_pruned = _records(spec, prune=False)
        want, want_pruned = filtered_scan(spec, prune=False)
        assert (got, got_pruned) == (list(want.items()), want_pruned), spec


def test_class_multiplicity_is_its_orbit():
    # d! N! / |Aut| against a walk of the orbit, and the representative
    # is the class's least leaf.
    specs = [(d, n, True) for d in range(1, 7) for n in range(1, 5)]
    specs += [(4, 5, True), (8, 2, True), (8, 3, True), (8, 4, True),
              (8, 5, True), (4, 4, False)]
    for d, n, prune in specs:
        classes, _ = _scan(SearchSpec(d, n), prune)
        for _, mult, rep in classes:
            assert rep == (tuple(range(d)), *canonical_form(rep)), (d, n, prune)
            assert mult == len(_orbit(rep)), (d, n, prune, rep)
        if not prune:
            assert len(classes) == 69


def _orbit_partition(leaves) -> list[set]:
    """The orbits of the leaves, asserting that each leaf lies in
    exactly one and that every orbit member is a leaf."""
    left = set(leaves)
    orbits = []
    for t in leaves:
        if t in left:
            orbit = _orbit(t)
            assert orbit <= left, t
            left -= orbit
            orbits.append(orbit)
    assert not left
    return orbits


def test_orbits_partition_leaves_into_classes():
    specs = [(d, n, True) for d in range(1, 7) for n in range(1, 5)]
    specs += [(2, 2, False), (3, 2, False), (2, 3, False), (3, 3, False),
              (4, 3, False)]
    for d, n, prune in specs:
        orbits = _orbit_partition(_leaves(SearchSpec(d, n), prune))
        keys = [{canonical_form(t) for t in orbit} for orbit in orbits]
        assert all(len(k) == 1 for k in keys), (d, n, prune)
        assert len(set().union(*keys)) == len(orbits), (d, n, prune)


def test_scan_builds_one_least_leaf_per_class(monkeypatch):
    real_least = search._least
    calls, passed = [], []

    def least(topology, stop=False):
        calls.append(topology)
        found = real_least(topology, stop)
        if found is not None:
            passed.append(topology)
        return found

    monkeypatch.setattr(search, "_least", least)
    for spec, prune, n_classes in (
        (SearchSpec(4, 3), False, 15),
        (SearchSpec(4, 3), True, 1),
        (SearchSpec(4, 4), True, 1),
    ):
        passed.clear()
        classes, _ = _scan(spec, prune)
        # The last-level test passes once per class, on its least leaf.
        leaves = [t for t in passed if len(t) == spec.n_colors]
        assert len(leaves) == n_classes, (spec, prune)
        assert [t for _, _, t in classes] == leaves, (spec, prune)
        assert all(t == (t[0], *canonical_form(t)) for t in leaves)
        # Dedupe off walks the same tree with no least-member test and
        # lists every leaf of every class.
        calls.clear()
        every, _ = _scan(dataclasses.replace(spec, dedupe=False), prune)
        assert calls == [], (spec, prune)
        assert len(every) == sum(len(_orbit(t)) for t in leaves), (spec, prune)


def test_orbit_sizes():
    # d! N! / |Aut|: 4! 3! / 24 for the cube, 8! 4! / 192 for the
    # tesseract, and the disconnected (8,4) class.
    assert len(_orbit(topology_of(cube()))) == 6
    assert len(_orbit(topology_of(tesseract()))) == 5040
    # At (8,4) the leaves are too many for the filtering oracle: count
    # them from the pairs of compatible involutions, and check that the
    # orbits of the two classes are disjoint sets of leaves covering them.
    invs = [p for p in itertools.permutations(range(8)) if is_fpf_involution(p)]
    fits = {p: {q for q in invs if is_fpf_involution(_compose(p, q))}
            for p in invs}
    n_leaves = sum(len(fits[p] & fits[q]) for p in invs for q in fits[p])
    classes, _ = _scan(SearchSpec(8, 4), prune=True)
    orbits = [_orbit(rep) for _, _, rep in classes]
    assert sorted(map(len, orbits)) == [1260, 5040]
    assert len(set().union(*orbits)) == n_leaves == 6300
    for _, p, q, r in set().union(*orbits):
        assert q in fits[p] and r in fits[p] and r in fits[q]


def test_canonical_form_invariances():
    key = canonical_form(cube())
    # Relabel bosons/fermions: conjugate every matching by a permutation.
    topo = topology_of(cube())
    beta = (2, 0, 3, 1)
    beta_inv = tuple(beta.index(i) for i in range(4))
    relabeled = tuple(
        tuple(beta[p[beta_inv[i]]] for i in range(4)) for p in topo
    )
    assert canonical_form(relabeled) == key
    # Permute colors.
    assert canonical_form((topo[2], topo[0], topo[1])) == key
    # A different topology gets a different key.
    two = disjoint_union(diamond(), diamond(), "pair")
    assert canonical_form(two) != canonical_form(diamond())


def test_canonical_form_matches_isomorphism_oracle():
    specs = [SearchSpec(4, 3), SearchSpec(4, 2), SearchSpec(3, 2)]
    for spec in specs:
        cands = _leaves(spec)
        graphs = [topology_graph(t) for t in cands]
        keys = [canonical_form(t) for t in cands]
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                same = is_isomorphic(graphs[i], graphs[j], signs="ignore")
                assert same == (keys[i] == keys[j]), (spec, i, j)


def _random_perm(rng: random.Random, d: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(d), d))


def _involution(rng: random.Random, d: int) -> tuple[int, ...]:
    """A random involution: some disjoint swaps, the rest fixed."""
    order = rng.sample(range(d), d)
    p = list(range(d))
    for k in range(0, d - 1, 2):
        if rng.random() < 0.7:
            x, y = order[k], order[k + 1]
            p[x], p[y] = y, x
    return tuple(p)


def test_canonical_form_matches_brute_force_on_candidates():
    for d, n in ((3, 2), (4, 2), (4, 3), (4, 4), (6, 2)):
        for t in _leaves(SearchSpec(d, n)):
            assert canonical_form(t) == brute_canonical_form(t), t
    # The unpruned leaves include every kind of relative permutation.
    for t in _leaves(SearchSpec(4, 3), prune=False):
        assert canonical_form(t) == brute_canonical_form(t), t


def test_canonical_form_matches_brute_force_on_random_tuples():
    rng = random.Random(1201)
    for _ in range(300):
        d, n = rng.randint(1, 6), rng.randint(1, 3)
        make = _random_perm if rng.random() < 0.6 else _involution
        t = tuple(make(rng, d) for _ in range(n))
        assert canonical_form(t) == brute_canonical_form(t), t


def test_canonical_form_matches_brute_force_on_degenerate_tuples():
    rng = random.Random(88)
    cases = [((),), ((), ()), ((0,),), ((0,), (0,), (0,))]
    for d in range(1, 7):
        identity = tuple(range(d))
        p, q = _random_perm(rng, d), _involution(rng, d)
        cases += [
            (p,),  # N = 1
            (identity,) * 3,  # all identity
            (p, p),  # repeated colors
            (p, q, p),
            (identity, q, q),
            (q, identity, q),
        ]
    for t in cases:
        assert canonical_form(t) == brute_canonical_form(t), t


def test_canonical_form_of_relabeled_tesseract():
    topo = topology_of(tesseract())
    key = canonical_form(topo)
    rng = random.Random(4)
    for _ in range(6):
        beta, phi = _random_perm(rng, 8), _random_perm(rng, 8)
        colors = rng.sample(range(4), 4)
        beta_inv = tuple(beta.index(i) for i in range(8))
        relabeled = tuple(
            tuple(phi[topo[c][beta_inv[i]]] for i in range(8)) for c in colors
        )
        assert canonical_form(relabeled) == key


def test_canonical_form_rejects_malformed_tuples():
    for bad in (
        (),  # no colors
        ((0, 1), (0,)),  # unequal lengths
        ((0, 1), (1, 1)),  # repeated image
        ((0, 2),),  # image out of range
        ((0, 1), (0, -1)),
    ):
        with pytest.raises(ValueError):
            canonical_form(bad)


def test_run_search_diamond():
    out = run_search(SearchSpec(2, 2))
    assert out.raw_size == 2
    assert dict(out.pruned) == {_SUPPORT_REASON: 1}
    assert len(out.solutions) == 1
    sol = out.solutions[0]
    assert sol.connected and sol.multiplicity == 1
    assert is_isomorphic(sol.graph, diamond(), signs="ignore")
    assert sol.canonical_key == canonical_form(diamond())


def test_run_search_cube():
    out = run_search(SearchSpec(4, 3))
    assert out.raw_size == 576
    assert len(out.solutions) == 1
    sol = out.solutions[0]
    assert sol.multiplicity == 6
    assert sol.connected
    assert sol.canonical_key == canonical_form(cube())
    assert is_isomorphic(sol.graph, cube(), signs="ignore")
    pruned_total = sum(count for _, count in out.pruned)
    assert pruned_total + sol.multiplicity == out.raw_size


def test_run_search_prune_crosscheck():
    fast = run_search(SearchSpec(4, 3), prune=True)
    slow = run_search(SearchSpec(4, 3), prune=False)
    assert fast.solutions == slow.solutions
    assert sum(c for _, c in fast.pruned) == sum(c for _, c in slow.pruned)


def test_run_search_disconnected_class():
    out = run_search(SearchSpec(4, 2))
    assert len(out.solutions) == 1
    sol = out.solutions[0]
    assert not sol.connected
    assert sol.multiplicity == 3
    assert out.connected_solutions() == ()
    union = disjoint_union(diamond(), diamond(), "pair")
    assert is_isomorphic(sol.graph, union, signs="ignore")


def test_run_search_three_by_three_is_empty():
    # No fixed-point-free involutions exist on an odd ground set.
    out = run_search(SearchSpec(3, 3))
    assert out.solutions == ()
    assert sum(c for _, c in out.pruned) == out.raw_size == 36


def test_run_search_single_color():
    out = run_search(SearchSpec(1, 1))
    assert len(out.solutions) == 1 and out.solutions[0].connected
    out = run_search(SearchSpec(2, 1))
    assert len(out.solutions) == 1 and not out.solutions[0].connected


def test_run_search_no_dedupe():
    out = run_search(SearchSpec(4, 3, dedupe=False))
    assert len(out.solutions) == 6
    assert all(s.multiplicity == 1 for s in out.solutions)
    keys = {s.canonical_key for s in out.solutions}
    assert keys == {canonical_form(cube())}


def test_budget_gate():
    with pytest.raises(BudgetError, match="topology search"):
        run_search(SearchSpec(8, 4))
    # A raised budget is honored.
    out = run_search(SearchSpec(3, 2), budget=10**15)
    assert out.raw_size == 6


def test_run_search_d8_n6():
    # One class, connected: 8! 6! / |Aut| = 75,600 leaves.
    out = run_search(SearchSpec(8, 6), budget=10**24)
    assert [(s.connected, s.multiplicity) for s in out.solutions] == [
        (True, 75600)
    ]
    assert sum(c for _, c in out.pruned) + 75600 == out.raw_size


def test_witnesses_satisfy_garden():
    for spec in (SearchSpec(2, 2), SearchSpec(4, 3), SearchSpec(4, 2)):
        for sol in run_search(spec).solutions:
            assert garden_check(colors(sol.graph)).ok


def test_tesseract_topology_is_identity_and_fpf_involutions():
    # Pinned to color 1, the tesseract's colors lie in the search space
    # at d=8, N=4: the identity, then fixed-point-free involutions.
    topo = topology_of(tesseract())
    assert len(topo) == 4 and len(topo[0]) == 8
    assert all(is_fpf_involution(p) or p == tuple(range(8)) for p in topo)
