"""Edge-colored isomorphism with sign modes."""

import numpy as np
import pytest

from adinkra import (
    Edge,
    ValiseGraph,
    cube,
    diamond,
    find_isomorphism,
    find_isomorphisms,
    is_isomorphic,
    lift,
    rhombic_dodecahedron,
    tesseract,
    vertex_flip,
)
from adinkra.isomorphism import Isomorphism, _gauge_compatible
from conftest import brute_gauge_compatible, random_valise_graph


def test_identity_isomorphism():
    g = diamond()
    iso = find_isomorphism(g, g, signs="exact", color_permutation=False)
    assert iso is not None
    assert iso.bosons == (1, 2) or iso.fermions != ()
    assert iso.colors == (1, 2)


def test_relabeled_graph_is_isomorphic():
    g = rhombic_dodecahedron()
    shuffled = ValiseGraph(
        "shuffled",
        g.n_colors,
        tuple(reversed(g.bosons)),
        g.fermions,
        tuple(
            sorted(
                Edge(g.d + 1 - e.boson, e.fermion, e.color, e.sign)
                for e in g.edges
            )
        ),
    )
    iso = find_isomorphism(g, shuffled, signs="exact", color_permutation=False)
    assert iso is not None
    assert iso.bosons == (6, 5, 4, 3, 2, 1)


def test_sign_modes_on_diamond():
    g = diamond()
    plain = g.with_signs([1] * 4)
    assert is_isomorphic(g, plain, signs="ignore")
    assert not is_isomorphic(g, plain, signs="exact")
    # The quad sign product differs (-1 vs +1), so no vertex flips can
    # relate the two dashings.
    assert not is_isomorphic(g, plain, signs="gauge")


def test_gauge_mode_accepts_vertex_flips():
    g = cube()
    flipped = vertex_flip(vertex_flip(g, ("B", 2)), ("F", 3))
    assert not is_isomorphic(g, flipped, signs="exact", color_permutation=False)
    assert is_isomorphic(g, flipped, signs="gauge", color_permutation=False)
    assert is_isomorphic(g, flipped, signs="gauge")


def test_color_permutation_toggle():
    a = ValiseGraph(
        "a", 2, ("p", "q"), ("x", "y"),
        (Edge(1, 1, 1, 1), Edge(1, 2, 2, 1), Edge(2, 2, 1, 1)),
    )
    swapped = ValiseGraph(
        "b", 2, ("p", "q"), ("x", "y"),
        (Edge(1, 1, 2, 1), Edge(1, 2, 1, 1), Edge(2, 2, 2, 1)),
    )
    assert not is_isomorphic(a, swapped, color_permutation=False)
    iso = find_isomorphism(a, swapped, color_permutation=True)
    assert iso is not None and iso.colors == (2, 1)


def test_automorphism_counts_of_diamond():
    g = diamond()
    # The boson swap maps the dashed edge onto an undashed one, so only
    # the identity survives exact sign matching.
    exact = list(find_isomorphisms(g, g, signs="exact", color_permutation=False))
    assert len(exact) == 1
    fixed = list(find_isomorphisms(g, g, signs="ignore", color_permutation=False))
    assert len(fixed) == 2
    free = list(find_isomorphisms(g, g, signs="ignore", color_permutation=True))
    assert len(free) > len(fixed)
    assert len(free) % len(fixed) == 0


def test_shape_mismatch_fails_fast():
    assert not is_isomorphic(diamond(), cube())
    assert not is_isomorphic(diamond(), diamond().with_name("x").__class__(
        "y", 2, ("a", "b"), ("c", "d"), diamond().edges[:-1]
    ))


def test_lift_of_cube_matches_tesseract_unsigned():
    assert is_isomorphic(lift(cube()), tesseract(), signs="ignore")


def test_isolated_vertices_are_matched():
    a = ValiseGraph("a", 1, ("p",), ("x", "y"), (Edge(1, 1, 1, 1),))
    b = ValiseGraph("b", 1, ("p",), ("x", "y"), (Edge(1, 2, 1, 1),))
    iso = find_isomorphism(a, b)
    assert iso is not None
    assert iso.fermions == (2, 1)


def test_invalid_sign_mode():
    with pytest.raises(ValueError, match="signs"):
        list(find_isomorphisms(diamond(), diamond(), signs="sometimes"))


def test_gauge_mode_keeps_parallel_edges_apart():
    # One boson and one fermion joined by a color-1 and a color-2 edge.
    # Flipping a vertex negates both edges, so (+,+) and (+,-) differ by
    # no gauge transformation.
    same = ValiseGraph(
        "same", 2, ("b",), ("f",), (Edge(1, 1, 1, 1), Edge(1, 1, 2, 1))
    )
    mixed = ValiseGraph(
        "mixed", 2, ("b",), ("f",), (Edge(1, 1, 1, 1), Edge(1, 1, 2, -1))
    )
    assert is_isomorphic(same, mixed, signs="ignore")
    assert not is_isomorphic(same, mixed, signs="gauge")
    assert not is_isomorphic(same, mixed, signs="gauge", color_permutation=False)
    flipped = vertex_flip(mixed, ("B", 1))
    assert is_isomorphic(mixed, flipped, signs="gauge")


def test_gauge_check_matches_vertex_flip_oracle():
    rng = np.random.default_rng(2024)
    agree = {True: 0, False: 0}
    for tag in range(300):
        g1 = random_valise_graph(rng, max_d=4, tag=tag)
        beta = rng.permutation(g1.d) + 1
        phi = rng.permutation(g1.d_hat) + 1
        gamma = rng.permutation(g1.n_colors) + 1
        iso = Isomorphism(
            tuple(int(b) for b in beta),
            tuple(int(f) for f in phi),
            tuple(int(c) for c in gamma),
        )
        # The image of g1 under a random vertex flip, sometimes with one
        # edge negated on top.
        eps_b = rng.choice((-1, 1), size=g1.d)
        eps_f = rng.choice((-1, 1), size=g1.d_hat)
        spoil = -1
        if g1.edges and rng.random() < 0.5:
            spoil = int(rng.integers(len(g1.edges)))
        edges = tuple(sorted(
            Edge(
                iso.bosons[e.boson - 1],
                iso.fermions[e.fermion - 1],
                iso.colors[e.color - 1],
                int(eps_b[e.boson - 1] * eps_f[e.fermion - 1] * e.sign)
                * (-1 if k == spoil else 1),
            )
            for k, e in enumerate(g1.edges)
        ))
        g2 = ValiseGraph("image", g1.n_colors, g1.bosons, g1.fermions, edges)
        expected = brute_gauge_compatible(g1, g2, iso)
        assert _gauge_compatible(g1, g2, iso) == expected, tag
        agree[expected] += 1
    assert min(agree.values()) >= 20  # both answers are exercised
