"""Catalog builders: counts, structure, lift, tesseract deletion."""

from collections import Counter

import numpy as np
import pytest

from adinkra import (
    GraphFormatError,
    bow_tie,
    builtin,
    canonical_form,
    colors,
    cube,
    diamond,
    find_isomorphism,
    garden_check,
    hypercube,
    lift,
    lifted_rd,
    rd_from_tesseract_deletion,
    rhombic_dodecahedron,
    rhombic_icosahedron,
    tesseract,
    to_matrices,
    validate,
)

ALL_BUILTINS = (
    "bow-tie",
    "diamond",
    "cube",
    "tesseract",
    "rhombic-dodecahedron",
    "rhombic-icosahedron",
    "lifted-rd",
    "rd-from-tesseract",
    "hypercube-5",
)


def test_every_builtin_is_valid():
    for name in ALL_BUILTINS:
        assert validate(builtin(name)) == [], name


def test_rd_counts_and_degrees():
    g = rhombic_dodecahedron()
    assert (g.d, g.d_hat, g.n_colors, len(g.edges)) == (6, 8, 4, 24)
    b_deg = Counter(e.boson for e in g.edges)
    f_deg = Counter(e.fermion for e in g.edges)
    assert set(b_deg.values()) == {4}
    assert set(f_deg.values()) == {3}


def test_rd_matrix_spot_checks():
    mats = to_matrices(rhombic_dodecahedron())
    # Third matrix is near-diagonal with a lone -1 at (2, 2).
    assert mats[2][1, 1] == -1
    assert mats[2][0, 0] == 1
    # Color 1 misses fermions 2 and 7: zero columns of the first matrix.
    assert not mats[0][:, 1].any() and not mats[0][:, 6].any()
    nonzeros = {
        (i + 1, j + 1): int(mats[0][i, j])
        for i, j in zip(*np.nonzero(mats[0]))
    }
    assert nonzeros == {
        (1, 3): -1, (2, 5): 1, (3, 1): 1, (4, 8): 1, (5, 4): 1, (6, 6): -1,
    }


def test_ri_matrix_spot_checks():
    mats = to_matrices(rhombic_icosahedron())
    assert not mats[2][0].any()  # color 3 misses boson 1
    assert mats[2][2].tolist() == [-1] + [0] * 10


def test_ri_counts_and_degree_multiset():
    g = rhombic_icosahedron()
    assert (g.d, g.d_hat, g.n_colors, len(g.edges)) == (11, 11, 5, 40)
    per_color = Counter(e.color for e in g.edges)
    assert set(per_color.values()) == {8}
    degrees = Counter()
    for e in g.edges:
        degrees[("B", e.boson)] += 1
        degrees[("F", e.fermion)] += 1
    assert Counter(degrees.values()) == {5: 2, 4: 10, 3: 10}


def test_bow_tie_shape():
    g = bow_tie()
    assert (g.d, g.d_hat, g.n_colors, len(g.edges)) == (1, 2, 2, 2)


def test_hypercube_counts():
    assert (hypercube(1).d, hypercube(1).d_hat) == (1, 1)
    assert (hypercube(3).d, hypercube(3).d_hat, len(hypercube(3).edges)) == (4, 4, 12)
    assert (hypercube(4).d, hypercube(4).d_hat, len(hypercube(4).edges)) == (8, 8, 32)
    # The largest whose 11 x 1024 x 1024 matrix cells fit MAX_MATRIX_CELLS.
    assert len(hypercube(11).edges) == 11 * 1024
    with pytest.raises(ValueError, match="MAX_MATRIX_CELLS"):
        hypercube(12)
    with pytest.raises(ValueError):
        hypercube(0)
    with pytest.raises(ValueError):
        hypercube(17)


def test_hypercube_garden_passes():
    for n in range(1, 7):
        assert garden_check(colors(hypercube(n))).ok, n


def test_diamond_is_hypercube_2():
    assert diamond().edges == hypercube(2).edges
    assert diamond().name == "diamond"
    assert cube().edges == hypercube(3).edges
    assert tesseract().edges == hypercube(4).edges


def test_lift_counts():
    g = lift(rhombic_dodecahedron())
    assert (g.d, g.d_hat, g.n_colors, len(g.edges)) == (14, 14, 5, 62)
    assert lifted_rd().edges == g.edges
    # Mirror labels carry a prime.
    assert g.bosons[6] == "1'"
    assert g.fermions[8] == "1'"


def test_lift_smallest_case_is_diamond_topology():
    lifted = lift(hypercube(1))
    assert (lifted.d, lifted.d_hat, lifted.n_colors, len(lifted.edges)) == (2, 2, 2, 4)
    assert canonical_form(lifted) == canonical_form(diamond())


def test_lift_of_cube_is_tesseract_unsigned():
    iso = find_isomorphism(lift(hypercube(3)), hypercube(4), signs="ignore")
    assert iso is not None


def test_lift_rejects_invalid_input():
    from adinkra import Edge, ValiseGraph

    with pytest.raises(GraphFormatError, match="^edge 1: sign must be -1 or \\+1, got 7$"):
        lift(ValiseGraph("bad", 1, ("a",), ("x",), (Edge(1, 1, 1, 7),)))


def test_tesseract_deletion_counts():
    g = rd_from_tesseract_deletion()
    assert (g.d, g.d_hat, g.n_colors, len(g.edges)) == (6, 8, 4, 24)
    assert "0000" not in g.bosons and "1111" not in g.bosons


def test_tesseract_deletion_matches_rd_up_to_gauge():
    g = rd_from_tesseract_deletion()
    iso = find_isomorphism(g, rhombic_dodecahedron(), signs="gauge")
    assert iso is not None
    rep = garden_check(colors(g))
    assert rep.left_ok and not rep.right_ok


def test_builtin_lookup_and_aliases():
    assert builtin("rd").edges == rhombic_dodecahedron().edges
    assert builtin("RI").name == "rhombic-icosahedron"
    assert builtin("hypercube-5").n_colors == 5
    with pytest.raises(GraphFormatError, match="unknown builtin"):
        builtin("dodecahedron")
    with pytest.raises(GraphFormatError, match="dimension"):
        builtin("hypercube-0")


def test_builtin_serves_every_catalog_builder():
    assert builtin("diamond").name == "diamond"
    assert builtin("hypercube-3").name == "hypercube-3"
    assert builtin("lifted-rd").n_colors == 5
    for name, make in (("bow-tie", bow_tie), ("rhombic-dodecahedron", rhombic_dodecahedron),
                       ("rhombic-icosahedron", rhombic_icosahedron)):
        assert builtin(name).edges == make().edges
    with pytest.raises(GraphFormatError, match="unknown builtin"):
        builtin("hypercube")
