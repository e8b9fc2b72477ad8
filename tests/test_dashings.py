"""Dashing enumeration: gauge fixing, odd-quad rule, exhaustive counts."""

import random

import numpy as np
import pytest

from adinkra import (
    BudgetError,
    DashingAssignment,
    Edge,
    SearchSpec,
    ValiseGraph,
    apply_dashing,
    bow_tie,
    colors,
    cube,
    diamond,
    garden_check,
    gauge_fix,
    hypercube,
    odd_quad_check,
    resolve_budget,
    rhombic_dodecahedron,
    rhombic_icosahedron,
    run_search,
    search_dashings,
    topology_graph,
    vertex_flip,
)
from adinkra.dashings import _solve_odd_quads
from conftest import (
    brute_gauge_orbits,
    brute_orbit_size,
    disjoint_union,
    random_valise_graph,
    raw_feasible_count,
)


def test_gauge_fix_sizes():
    for g, fixed in ((cube(), 7), (rhombic_icosahedron(), 21), (diamond(), 3)):
        forest = gauge_fix(g)
        assert len(forest) == fixed
        assert forest == tuple(sorted(forest))


def test_gauge_fix_disconnected():
    g = disjoint_union(diamond(), diamond(), "two-diamonds")
    forest = gauge_fix(g)
    # 8 vertices, 2 components: forest fixes 6 edges, leaving 2 free.
    assert len(forest) == 6
    assert len(g.edges) - len(forest) == 2


def test_vertex_flip_involution_and_gauge_invariance():
    g = cube()
    assert garden_check(colors(g)).ok
    flipped = vertex_flip(g, ("F", 2))
    assert flipped.edges != g.edges
    assert vertex_flip(flipped, ("F", 2)).edges == g.edges
    assert garden_check(colors(flipped)).ok
    with pytest.raises(ValueError, match="node must be"):
        vertex_flip(g, ("X", 1))


def test_odd_quad_rule_matches_garden():
    g = cube()
    ok, bad = odd_quad_check(g)
    assert ok and bad == []
    all_plus = g.with_signs([1] * len(g.edges))
    ok, bad = odd_quad_check(all_plus)
    assert not ok and len(bad) == 6
    assert all(len(q) == 4 for q in bad)
    assert not garden_check(colors(all_plus)).ok


def test_odd_quad_check_with_assignment():
    g = diamond()
    a = DashingAssignment(signs=tuple(e.sign for e in g.edges))
    ok, _ = odd_quad_check(g.with_signs([1] * 4), a)
    assert ok  # assignment overrides the graph's own signs
    with pytest.raises(ValueError, match="4 edges"):
        odd_quad_check(g, DashingAssignment(signs=(1, 1)))


def test_diamond_exhaustive_counts():
    res = search_dashings(diamond(), exhaustive=True)
    assert res.feasible and res.exhaustive
    assert res.free_edge_count == 1
    assert res.count_gauge_orbits == 1
    assert res.count_total == 8
    assert res.count_total == raw_feasible_count(diamond())


def test_cube_exhaustive_counts():
    res = search_dashings(cube(), exhaustive=True)
    assert res.free_edge_count == 5
    assert res.count_gauge_orbits == 1
    assert res.count_total == 128
    dashed = apply_dashing(cube(), res.witness)
    assert garden_check(colors(dashed)).ok
    assert odd_quad_check(dashed)[0]


def test_cube_raw_count_matches_orbit_expansion():
    # 2^12 brute force agrees with orbits * 2^(V - 1).
    assert raw_feasible_count(cube()) == 128


def test_witness_is_deterministic_and_gauge_fixed():
    a = search_dashings(cube())
    b = search_dashings(cube())
    assert a.witness == b.witness
    assert a.witness.gauge_fixed
    forest = gauge_fix(cube())
    assert all(a.witness.signs[i] == 1 for i in forest)
    assert not a.exhaustive and a.count_gauge_orbits == 1
    assert a.count_total is None


def test_budget_error():
    with pytest.raises(BudgetError) as info:
        search_dashings(cube(), budget=16)
    assert info.value.required == 32
    assert info.value.budget == 16
    assert "32 enumeration steps" in str(info.value)


def test_pruned_reasons():
    res = search_dashings(rhombic_dodecahedron())
    assert not res.feasible
    assert res.pruned_reason == "equal-counts filter failed (6 vs 8)"
    assert res.witness is None and res.count_gauge_orbits == 0

    res = search_dashings(rhombic_icosahedron(), exhaustive=True)
    assert res.pruned_reason == (
        "color-coverage filter failed (20 vertices missing colors)"
    )
    assert res.count_total == 0

    res = search_dashings(bow_tie())
    assert res.pruned_reason == "equal-counts filter failed (1 vs 2)"


def test_parity_prune_on_synthetic_system():
    # With x_i = 1 when edge i is dashed, x0 = 1, x1 = 1, x0 + x1 = 1
    # over GF(2) has no solution.  Solutions come back as free-edge bits
    # with 1 meaning +1, so "edge i dashed" is bit free_pos[i] clear.
    free_pos = {0: 0, 1: 1}
    assert _solve_odd_quads([(0,), (1,), (0, 1)], free_pos) is None
    assert _solve_odd_quads([(0,), (1,)], free_pos) == (0b00, [])
    # One of the two dashed: the smallest solution dashes edge 1 (bit 1
    # is the more significant), and flipping both gives the other one.
    assert _solve_odd_quads([(0, 1)], free_pos) == (0b01, [0b11])
    assert _solve_odd_quads([], {}) == (0, [])


def test_hypercube_feasibility_sweep():
    for n in range(2, 5):
        res = search_dashings(hypercube(n))
        assert res.feasible, n


def test_resolve_budget(monkeypatch):
    monkeypatch.delenv("ADINKRA_BUDGET", raising=False)
    assert resolve_budget() == 2**28
    assert resolve_budget(100) == 100
    monkeypatch.setenv("ADINKRA_BUDGET", "64")
    assert resolve_budget() == 64
    assert resolve_budget(100) == 100  # explicit wins over the env var
    monkeypatch.setenv("ADINKRA_BUDGET", "lots")
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_budget()


def test_random_feasible_graphs_expand_consistently():
    # Exhaustive totals must equal brute-force counts on small graphs.
    rng = np.random.default_rng(31)
    checked = 0
    for tag in range(40):
        g = random_valise_graph(rng, max_d=3, max_colors=3, tag=tag)
        if len(g.edges) > 10 or not g.edges:
            continue
        res = search_dashings(g, exhaustive=True)
        assert res.count_total == raw_feasible_count(g), g.name
        checked += 1
    assert checked >= 10


def _assert_matches_brute(g):
    """Elimination against the brute-force scan of all 2^free gauge-fixed
    vectors: feasibility, witness, orbit count and total."""
    full = search_dashings(g, exhaustive=True)
    count, first = brute_gauge_orbits(g)
    assert full.feasible == (count > 0), g.name
    assert (full.witness.signs if full.witness else None) == first, g.name
    assert full.count_gauge_orbits == count, g.name
    assert full.count_total == count * brute_orbit_size(g), g.name
    assert search_dashings(g).witness == full.witness, g.name


@pytest.mark.parametrize("d,n", [(2, 2), (4, 2), (4, 3), (4, 4), (6, 2)])
def test_search_classes_match_brute_gauge_scan(d, n):
    classes = run_search(SearchSpec(d, n)).solutions
    assert classes
    for cls in classes:
        _assert_matches_brute(topology_graph(cls.topology))


def _relabel(g, rng: random.Random, tag: int):
    """The same graph with bosons, fermions and colors renumbered, so
    the edge order, the gauge forest and the witness position change."""
    bos = rng.sample(range(1, g.d + 1), g.d)
    fer = rng.sample(range(1, g.d_hat + 1), g.d_hat)
    col = rng.sample(range(1, g.n_colors + 1), g.n_colors)
    edges = (Edge(bos[e.boson - 1], fer[e.fermion - 1], col[e.color - 1], e.sign)
             for e in g.edges)
    return ValiseGraph(name=f"{g.name}-{tag}", n_colors=g.n_colors, bosons=g.bosons,
                       fermions=g.fermions, edges=tuple(sorted(edges)))


def test_catalog_graphs_match_brute_gauge_scan():
    rng = random.Random(17)
    graphs = [diamond(), cube(), disjoint_union(diamond(), diamond(), "two-diamonds"),
              disjoint_union(cube(), cube(), "two-cubes")]
    graphs += [_relabel(cube(), rng, tag) for tag in range(20)]
    for g in graphs:
        _assert_matches_brute(g)


def test_random_graphs_match_brute_gauge_scan():
    rng = np.random.default_rng(53)
    checked = 0
    for tag in range(300):
        g = random_valise_graph(rng, tag=tag)
        if len(g.edges) - len(gauge_fix(g)) > 12:
            continue
        _assert_matches_brute(g)
        checked += 1
    assert checked >= 200
