"""Garden relations: exact products, residuals, violation reporting.

The signed-permutation kernel, which reads each color straight from the
graph, is compared against the dense int64 matrix products of conftest
on builtins, hypercubes and random graphs.
"""

import numpy as np
import pytest

from adinkra import (
    BUILTIN_NAMES,
    Violation,
    builtin,
    color_pairs,
    colors,
    diamond,
    from_matrices,
    format_matrix,
    garden_check,
    hypercube,
    product_tables,
    rhombic_dodecahedron,
    rhombic_icosahedron,
    to_matrices,
)
from adinkra.graph import as_exact
from conftest import dense_garden_check, dense_product_tables, random_valise_graph


def test_color_pairs_order():
    assert color_pairs(3) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    assert len(color_pairs(5)) == 15


def test_as_exact_accepts_exact_floats_only():
    assert as_exact(np.array([[2.0, 0.0]])).dtype == np.int64
    with pytest.raises(ValueError, match="exact integers"):
        as_exact(np.array([[0.5]]))
    with pytest.raises(ValueError, match="2-d"):
        as_exact(np.array([1, 2]))


def test_garden_check_passes_hypercubes():
    for n in range(1, 5):
        rep = garden_check(colors(hypercube(n)))
        assert rep.ok and rep.left_ok and rep.right_ok
        assert rep.violations == ()


def test_garden_check_flags_undashed_diamond():
    g = diamond().with_signs([1, 1, 1, 1])
    rep = garden_check(colors(g))
    assert not rep.ok and not rep.left_ok and not rep.right_ok
    assert Violation("left", 1, 2, 1, 2, 2) in rep.violations
    assert Violation("left", 1, 2, 2, 1, 2) in rep.violations
    # Left family violations come first, ordered by (I, J, row, col).
    sides = [v.side for v in rep.violations]
    assert sides == sorted(sides, key=("left", "right").index)


def test_garden_check_residual_matrices():
    rep = garden_check(colors(diamond()))
    assert (rep.n_colors, rep.d, rep.d_hat) == (2, 2, 2)
    assert rep.violations == ()
    # Residual cells of the undashed diamond lie in the 2 x 2 residuals
    # of the pairs color_pairs(2) names, and each cell is reported once.
    bad = garden_check(colors(diamond().with_signs([1, 1, 1, 1])))
    assert {(v.color_i, v.color_j) for v in bad.violations} <= set(color_pairs(2))
    assert all(1 <= v.row <= 2 and 1 <= v.col <= 2 for v in bad.violations)
    cells = [v[:5] for v in bad.violations]
    assert len(cells) == len(set(cells))


def test_rd_split_verdict():
    rep = garden_check(colors(rhombic_dodecahedron()))
    assert rep.left_ok and not rep.right_ok and not rep.ok
    assert all(v.side == "right" for v in rep.violations)
    # Non-square case: left residuals are 6x6, right are 8x8.
    assert (rep.d, rep.d_hat) == (6, 8)
    assert max(max(v.row, v.col) for v in rep.violations) == 8


def test_ri_fails_both_sides():
    rep = garden_check(colors(rhombic_icosahedron()))
    assert not rep.left_ok and not rep.right_ok


def test_product_tables_labels_and_diagonal():
    left, right = product_tables(colors(rhombic_dodecahedron()))
    assert [lab for lab, _ in left[:3]] == [
        "L1*R1",
        "L1*R2 + L2*R1",
        "L1*R3 + L3*R1",
    ]
    assert right[0][0] == "R1*L1"
    assert len(left) == len(right) == 10
    # Diagonal products are printed single, so the left diagonal is I_6.
    assert left[0][1].tolist() == np.eye(6, dtype=int).tolist()


def test_garden_check_shape_errors():
    # Matrices reach the garden check only through from_matrices.
    with pytest.raises(ValueError, match="at least one"):
        from_matrices("x", [])
    with pytest.raises(ValueError, match="shape"):
        from_matrices("x", [[[1, 0]], [[1], [0]]])


def test_format_matrix_aligns_columns():
    text = format_matrix([[1, -1], [0, 10]])
    assert text.splitlines() == [" 1 -1", " 0 10"]
    assert format_matrix([[1]], indent="  ") == "  1"


def test_report_json_shape():
    obj = garden_check(colors(diamond())).to_json_obj()
    assert obj["ok"] and obj["violations"] == []
    assert obj["d"] == obj["d_hat"] == 2


def test_diagonal_left_right_equivalence_for_signed_permutations():
    # For square signed partial permutation matrices the diagonal left
    # residual vanishes iff the diagonal right residual does.
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        m = np.zeros((d, d), dtype=np.int64)
        cols = rng.permutation(d)
        keep = rng.random(d) < 0.8
        for r in range(d):
            if keep[r]:
                m[r, cols[r]] = rng.choice((-1, 1))
        rep = garden_check(colors(from_matrices("m", [m])))
        assert rep == dense_garden_check([m])
        left = [v for v in rep.violations if v.side == "left"]
        right = [v for v in rep.violations if v.side == "right"]
        assert (not left) == (not right)
        assert rep.ok == (not left)


def _assert_matches_dense(g, tag):
    mats = to_matrices(g)
    assert garden_check(colors(g)) == dense_garden_check(mats), tag
    for sparse, dense in zip(product_tables(colors(g)), dense_product_tables(mats)):
        assert len(sparse) == len(dense), tag
        for (lab, m), (dense_lab, dense_m) in zip(sparse, dense):
            assert lab == dense_lab, tag
            assert m.dtype == dense_m.dtype and m.shape == dense_m.shape, tag
            assert np.array_equal(m, dense_m), (tag, lab)


def test_kernel_matches_dense_on_builtins_and_hypercubes():
    graphs = [builtin(name) for name in BUILTIN_NAMES if "<" not in name]
    graphs += [hypercube(n) for n in range(1, 9)]
    for g in graphs:
        _assert_matches_dense(g, g.name)


def test_kernel_matches_dense_on_random_graphs():
    rng = np.random.default_rng(2024)
    rectangular = 0
    for t in range(320):
        g = random_valise_graph(rng, max_d=6, max_colors=4, tag=t)
        if t % 2:
            g = g.with_signs([int(s) for s in rng.choice((-1, 1), len(g.edges))])
        rectangular += g.d != g.d_hat
        _assert_matches_dense(g, g.name)
    assert rectangular >= 100


@pytest.mark.parametrize(
    "mats, message",
    [
        ([[[2, 0], [0, 1]]], "matrix 1 has entries outside -1, 0, 1: \\[2\\]"),
        ([[[1, 0], [0, 1]], [[1, -1], [0, 0]]], "matrix 2 has two nonzeros in row 1"),
        ([[[0, 1], [0, -1]]], "matrix 1 has two nonzeros in column 2"),
        ([[[1, 1], [1, 0]]], "matrix 1 has two nonzeros in row 1"),
    ],
)
def test_non_signed_permutations_are_refused(mats, message):
    with pytest.raises(ValueError, match=message):
        from_matrices("x", mats)
