"""Candidacy filters: equal counts, coverage, bi-color quads."""

import numpy as np
import pytest

from adinkra import (
    BUILTIN_NAMES,
    Edge,
    GraphFormatError,
    ValiseGraph,
    bicolor_components,
    bow_tie,
    builtin,
    candidacy,
    hypercube,
    lifted_rd,
    quads,
    rhombic_dodecahedron,
    rhombic_icosahedron,
    to_matrices,
)
from conftest import random_valise_graph


def test_equal_counts():
    rep = candidacy(rhombic_dodecahedron())
    assert not rep.equal_counts_ok and rep.counts == (6, 8)
    rep = candidacy(rhombic_icosahedron())
    assert rep.equal_counts_ok and rep.counts == (11, 11)


def test_empty_graph_is_vacuous_candidate():
    g = ValiseGraph("empty", 1, (), (), ())
    rep = candidacy(g)
    assert rep.is_candidate and rep.verdict == "candidate"
    assert rep.empty and any("vacuous" in n for n in rep.notes)
    assert not candidacy(hypercube(1)).empty and candidacy(hypercube(1)).notes == ()


def test_coverage_hypercube_complete():
    rep = candidacy(hypercube(3))
    assert rep.coverage_ok and rep.coverage_misses == ()


def test_coverage_ri_details():
    rep = candidacy(rhombic_icosahedron())
    assert not rep.coverage_ok
    by_node = {v.node: m for v, m in rep.coverage_misses}
    assert by_node[("B", 3)] == (1, 5)
    full_bosons = [i for i in range(1, 12) if ("B", i) not in by_node]
    full_fermions = [j for j in range(1, 12) if ("F", j) not in by_node]
    assert full_bosons == [11]
    assert full_fermions == [1]


def test_coverage_rd_fermions_missing_color_1():
    misses = candidacy(rhombic_dodecahedron()).coverage_misses
    by_node = {v.node: m for v, m in misses}
    assert by_node[("F", 2)] == (1,)
    assert by_node[("F", 7)] == (1,)
    assert all(node[0] == "F" for node in by_node)


def test_coverage_lifted_rd_mirrored_fermions():
    g = lifted_rd()
    rep = candidacy(g)
    assert not rep.coverage_ok
    by_node = {v.node: m for v, m in rep.coverage_misses}
    # Bosons 7..14 mirror the RD fermions 1..8; every one lacks a color.
    assert {("B", i) for i in range(7, 15)} <= set(by_node)
    # The mirror of fermion 1 misses color 2, like fermion 1 itself.
    assert by_node[("B", 7)] == (2,)
    assert g.bosons[6] == "1'"


def _alternating_cycle(n_pairs: int) -> ValiseGraph:
    """2-colored cycle of length 2*n_pairs on n_pairs bosons + fermions."""
    edges = []
    for i in range(1, n_pairs + 1):
        edges.append(Edge(i, i, 1, 1))
        edges.append(Edge(i, i % n_pairs + 1, 2, 1))
    return ValiseGraph(
        "cycle",
        2,
        tuple(f"b{i}" for i in range(n_pairs)),
        tuple(f"f{i}" for i in range(n_pairs)),
        tuple(sorted(edges)),
    )


def test_quads_pass_on_catalog():
    for g in (hypercube(4), rhombic_dodecahedron(), rhombic_icosahedron()):
        rep = candidacy(g)
        assert rep.quad_ok and rep.bad_cycles == ()


def test_six_cycle_fails_quads():
    rep = candidacy(_alternating_cycle(3))
    assert not rep.quad_ok and rep.quads == ()
    assert len(rep.bad_cycles) == 1
    cycle = rep.bad_cycles[0]
    assert cycle.length == 6
    assert (cycle.color_i, cycle.color_j) == (1, 2)
    assert len(cycle.nodes) == 6


def test_doubled_pair_is_a_two_cycle():
    g = ValiseGraph(
        "doubled", 2, ("a",), ("x",), (Edge(1, 1, 1, 1), Edge(1, 1, 2, 1))
    )
    rep = candidacy(g)
    assert not rep.quad_ok and rep.bad_cycles[0].length == 2


def test_quad_list_on_cube():
    cube_quads = quads(hypercube(3))
    assert len(cube_quads) == 6
    assert all(len(q) == 4 for q in cube_quads)


def _builtins_and_random_graphs():
    graphs = [builtin(name) for name in BUILTIN_NAMES if name != "hypercube-<n>"]
    graphs += [hypercube(n) for n in range(1, 6)]
    graphs += [_alternating_cycle(k) for k in (1, 2, 3, 5)]
    rng = np.random.default_rng(29)
    graphs += [random_valise_graph(rng, tag=tag) for tag in range(200)]
    return graphs


def test_quads_and_bad_cycles_partition_the_closed_components():
    """Every closed bi-color component lands in exactly one of the two
    lists, and each list keeps the decomposition order."""
    for g in _builtins_and_random_graphs():
        rep = candidacy(g)
        closed = [c for c in bicolor_components(g) if c.closed]
        assert rep.quads == tuple(c.edge_indices for c in closed if c.length == 4)
        assert rep.bad_cycles == tuple(c for c in closed if c.length != 4)
        assert list(rep.quads) == quads(g), g.name


def test_bicolor_components_split_paths_and_cycles():
    comps = bicolor_components(rhombic_icosahedron())
    # 5 colors -> 10 pairs; all components are paths or quads here.
    cycles = [c for c in comps if c.closed]
    paths = [c for c in comps if not c.closed]
    assert all(c.length == 4 for c in cycles)
    assert paths, "RI has open bi-color paths"
    for p in paths:
        assert len(p.nodes) == p.length + 1


def test_candidacy_reasons_in_filter_order():
    rep = candidacy(rhombic_dodecahedron())
    assert not rep.is_candidate
    assert rep.reasons[0] == "unequal counts (6 vs 8)"
    assert "coverage" in rep.reasons[1]

    rep = candidacy(rhombic_icosahedron())
    assert rep.reasons == ("incomplete color coverage (20 of 22 vertices)",)

    rep = candidacy(bow_tie())
    assert "unequal counts (1 vs 2)" in rep.reasons


def test_candidacy_hypercubes_pass():
    for n in range(1, 6):
        rep = candidacy(hypercube(n))
        assert rep.is_candidate, n


def test_candidacy_ignores_signs():
    rng = np.random.default_rng(11)
    for g in (rhombic_dodecahedron(), rhombic_icosahedron(), hypercube(3)):
        base = candidacy(g)
        for _ in range(20):
            signs = [int(s) for s in rng.choice((-1, 1), size=len(g.edges))]
            flipped = candidacy(g.with_signs(signs))
            assert flipped.verdict == base.verdict
            assert flipped.reasons == base.reasons


def test_candidacy_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    g = rhombic_icosahedron()
    perm_b = rng.permutation(g.d) + 1
    perm_f = rng.permutation(g.d_hat) + 1
    relabeled = ValiseGraph(
        "shuffled",
        g.n_colors,
        tuple(g.bosons[list(perm_b).index(i + 1)] for i in range(g.d)),
        tuple(g.fermions[list(perm_f).index(j + 1)] for j in range(g.d_hat)),
        tuple(
            sorted(
                Edge(int(perm_b[e.boson - 1]), int(perm_f[e.fermion - 1]),
                     e.color, e.sign)
                for e in g.edges
            )
        ),
    )
    a, b = candidacy(g), candidacy(relabeled)
    assert (a.equal_counts_ok, a.coverage_ok, a.quad_ok) == (
        b.equal_counts_ok,
        b.coverage_ok,
        b.quad_ok,
    )
    assert len(a.coverage_misses) == len(b.coverage_misses)


def test_candidacy_rejects_invalid_graph():
    with pytest.raises(GraphFormatError, match="^edge 1: sign must be -1 or \\+1, got 3$"):
        candidacy(ValiseGraph("bad", 1, ("a",), ("x",), (Edge(1, 1, 1, 3),)))


def test_random_graphs_sign_invariance():
    rng = np.random.default_rng(23)
    for tag in range(50):
        g = random_valise_graph(rng, tag=tag)
        base = candidacy(g)
        signs = [int(s) for s in rng.choice((-1, 1), size=len(g.edges))]
        assert candidacy(g.with_signs(signs)).reasons == base.reasons


def test_candidate_color_classes_have_permutation_support():
    for n in (2, 3, 4):
        g = hypercube(n)
        assert candidacy(g).is_candidate
        for m in to_matrices(g):
            support = np.abs(m)
            assert (support.sum(axis=0) == 1).all()
            assert (support.sum(axis=1) == 1).all()
