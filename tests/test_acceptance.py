"""Acceptance checks, one test per criterion.

Run with -v for one pass/fail line per criterion.  Matrix comparisons
are exact (integer equality, zero tolerance); criteria 1, 2 and 7
additionally enforce wall-clock bounds.
"""

import time

import numpy as np

from adinkra import (
    SearchSpec,
    apply_dashing,
    candidacy,
    canonical_form,
    colors,
    cube,
    diamond,
    from_json,
    garden_check,
    hypercube,
    is_isomorphic,
    lifted_rd,
    load_fixture,
    odd_quad_check,
    product_tables,
    rhombic_dodecahedron,
    rhombic_icosahedron,
    run_search,
    search_dashings,
    to_json,
    vertex_flip,
)
from conftest import all_sign_vectors, random_valise_graph, raw_feasible_count


def _product_table(g):
    left, right = product_tables(colors(g))
    return {label: m for label, m in left + right}


def _fixture_table(fname):
    doc = load_fixture(fname)
    out = {}
    for side in ("left", "right"):
        for entry in doc[side]:
            out[entry["label"]] = np.array(entry["matrix"], dtype=np.int64)
    return out


def test_criterion_1_rd_product_table_is_reproduced_exactly():
    start = time.perf_counter()
    computed = _product_table(rhombic_dodecahedron())
    stored = _fixture_table("rd_products.json")
    assert len(computed) == 20 and set(computed) == set(stored)
    for label, m in stored.items():
        assert np.array_equal(computed[label], m), label
    # Left side: 4 identities and 6 zero matrices.
    eye6 = np.eye(6, dtype=np.int64)
    for i in range(1, 5):
        assert np.array_equal(computed[f"L{i}*R{i}"], eye6)
    zeros = [m for label, m in computed.items()
             if label.startswith("L") and "+" in label]
    assert len(zeros) == 6 and all(not m.any() for m in zeros)
    expected = np.diag(np.array([1, 0, 1, 1, 1, 1, 0, 1], dtype=np.int64))
    assert np.array_equal(computed["R1*L1"], expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 1: PASS (20/20 matrices exact, {elapsed:.3f}s)")


def test_criterion_2_ri_product_table_is_reproduced_exactly():
    start = time.perf_counter()
    computed = _product_table(rhombic_icosahedron())
    stored = _fixture_table("ri_products.json")
    assert len(computed) == 30 and set(computed) == set(stored)
    for label, m in stored.items():
        assert np.array_equal(computed[label], m), label
    l1r1 = np.diag(np.array([1, 1, 0, 0, 1, 1, 1, 0, 1, 1, 1], dtype=np.int64))
    r5l5 = np.diag(np.array([1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0], dtype=np.int64))
    assert np.array_equal(computed["L1*R1"], l1r1)
    assert np.array_equal(computed["R5*L5"], r5l5)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 2: PASS (30/30 matrices exact, {elapsed:.3f}s)")


def test_criterion_3_rd_fails_candidacy_and_only_the_right_relations():
    g = rhombic_dodecahedron()
    rep = candidacy(g)
    assert not rep.is_candidate
    assert rep.reasons[0] == "unequal counts (6 vs 8)"
    garden = garden_check(colors(g))
    assert garden.left_ok and not garden.right_ok and not garden.ok
    assert all(v.side == "right" for v in garden.violations)
    first = garden.violations[0]
    assert first == ("right", 1, 1, 2, 2, -2)
    print("criterion 3: PASS (rejected, left relations hold, right fail)")


def test_criterion_4_ri_coverage_gap_with_single_fully_covered_pair():
    g = rhombic_icosahedron()
    rep = candidacy(g)
    assert rep.equal_counts_ok and rep.counts == (11, 11)
    assert not rep.coverage_ok
    assert rep.reasons == ("incomplete color coverage (20 of 22 vertices)",)
    missing = {v.node for v, _ in rep.coverage_misses}
    full_bosons = [i for i in range(1, 12) if ("B", i) not in missing]
    full_fermions = [j for j in range(1, 12) if ("F", j) not in missing]
    assert len(full_bosons) == 1 and len(full_fermions) == 1
    print(
        "criterion 4: PASS (coverage fails, fully covered: "
        f"boson {full_bosons[0]}, fermion {full_fermions[0]})"
    )


def test_criterion_5_lifted_rd_mirror_vertices_lack_colors_signs_ignored():
    g = lifted_rd()
    assert (g.d, g.d_hat, g.n_colors, len(g.edges)) == (14, 14, 5, 62)
    mirrors = {("B", i) for i in range(7, 15)}
    rng = np.random.default_rng(20260815)
    for trial in range(10):
        signs = [int(s) for s in rng.choice((-1, 1), size=len(g.edges))]
        rep = candidacy(g.with_signs(signs))
        assert not rep.coverage_ok
        missing = {v.node for v, _ in rep.coverage_misses}
        assert mirrors <= missing, trial
    print("criterion 5: PASS (8 mirror bosons uncovered in 10 dashings)")


def test_criterion_6_hypercube_family_garden_and_exhaustive_counts():
    for n in range(1, 7):
        assert garden_check(colors(hypercube(n))).ok, n
    two = search_dashings(hypercube(2), exhaustive=True)
    three = search_dashings(hypercube(3), exhaustive=True)
    assert two.feasible and two.count_total == 8
    assert three.feasible and three.count_total == 128
    assert raw_feasible_count(hypercube(2)) == 8
    print("criterion 6: PASS (garden n=1..6; 8 and 128 dashings)")


def test_criterion_7_search_recovers_diamond_and_cube_within_budget():
    start = time.perf_counter()
    small = run_search(SearchSpec(2, 2))
    assert len(small.solutions) == 1
    assert is_isomorphic(small.solutions[0].graph, diamond(), signs="ignore")

    fast = run_search(SearchSpec(4, 3))
    assert fast.raw_size == 576
    connected = fast.connected_solutions()
    assert len(connected) == 1
    sol = connected[0]
    assert sol.multiplicity == 6
    assert sol.canonical_key == canonical_form(cube())
    assert is_isomorphic(sol.graph, cube(), signs="ignore")
    assert garden_check(colors(sol.graph)).ok

    slow = run_search(SearchSpec(4, 3), prune=False)
    assert slow.solutions == fast.solutions
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    print(f"criterion 7: PASS (diamond and cube recovered, {elapsed:.2f}s)")


def test_criterion_8_round_trips_gauge_orbit_and_quad_rule():
    rng = np.random.default_rng(8)

    for tag in range(1000):
        g = random_valise_graph(rng, tag=tag)
        assert from_json(to_json(g)) == g

    for trial in range(100):
        g = random_valise_graph(rng, tag=trial)
        base = candidacy(g).reasons
        signs = [int(s) for s in rng.choice((-1, 1), size=len(g.edges))]
        assert candidacy(g.with_signs(signs)).reasons == base

    witness = search_dashings(cube()).witness
    dashed = apply_dashing(cube(), witness)
    nodes = [v.node for v in dashed.vertices()]
    current = dashed
    for _ in range(100):
        current = vertex_flip(current, nodes[int(rng.integers(len(nodes)))])
        assert garden_check(colors(current)).ok

    for g in (hypercube(2), hypercube(3)):
        for signs in all_sign_vectors(len(g.edges)):
            s = g.with_signs(signs)
            assert odd_quad_check(s)[0] == garden_check(colors(s)).ok
    print(
        "criterion 8: PASS (1000 round trips, 100 sign perturbations, "
        "100 gauge flips, quad rule exhaustive on 2- and 3-cubes)"
    )
