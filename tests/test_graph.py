"""Data model: validation, matrix extraction, JSON wire format."""

import dataclasses

import numpy as np
import pytest

from adinkra import (
    Edge,
    GraphFormatError,
    ValiseGraph,
    connected_components,
    cube,
    diamond,
    from_json,
    from_matrices,
    hypercube,
    is_connected,
    rhombic_dodecahedron,
    to_json,
    to_json_obj,
    to_matrices,
    validate,
)
from adinkra.fixtures import load_fixture
from adinkra.graph import MAX_COLORS, MAX_ROW_LENGTH, spanning_forest
from conftest import disjoint_union, random_valise_graph


def test_basic_shape_properties():
    g = rhombic_dodecahedron()
    assert (g.d, g.d_hat, g.n_colors, len(g.edges)) == (6, 8, 4, 24)
    assert [str(v) for v in g.boson_vertices()[:2]] == ["B1", "B2"]
    assert g.fermion_vertices()[7].node == ("F", 8)


def test_validate_clean_catalog():
    for g in (rhombic_dodecahedron(), cube(), diamond()):
        assert validate(g) == []


def test_validate_reports_every_problem_in_order():
    with pytest.raises(GraphFormatError) as exc:
        ValiseGraph(
            name="broken",
            n_colors=2,
            bosons=("a",),
            fermions=("x", "y"),
            edges=(
                Edge(1, 1, 1, 1),
                Edge(2, 1, 1, 1),  # boson out of range, also a matching clash
                Edge(1, 2, 3, 2),  # bad color and bad sign
                Edge(1, 1, 1, 1),  # duplicate of edge 1
            ),
        )
    assert str(exc.value) == "; ".join([
        "edge 2: boson index 2 out of range 1..1",
        "edge 3: color 3 out of range 1..2",
        "edge 3: sign must be -1 or +1, got 2",
        "edges 1 and 2: fermion 1 has two edges of color 1",
        "edges 1 and 4: duplicate edge (boson 1, fermion 1, color 1)",
    ])


def test_validate_names_matching_violation():
    with pytest.raises(GraphFormatError) as exc:
        ValiseGraph(
            name="clash",
            n_colors=1,
            bosons=("a",),
            fermions=("x", "y"),
            edges=(Edge(1, 1, 1, 1), Edge(1, 2, 1, 1)),
        )
    assert str(exc.value) == "edges 1 and 2: boson 1 has two edges of color 1"


def test_construction_refuses_every_invalid_graph():
    with pytest.raises(GraphFormatError, match=r"^edge 1: color 3 out of range 1\.\.1$"):
        ValiseGraph("bad", 1, ("a",), ("x",), (Edge(1, 1, 3, 1),))
    g = cube()
    with pytest.raises(GraphFormatError, match=r"^edge 1: sign must be -1 or \+1, got 0$"):
        g.with_signs([0] + [1] * (len(g.edges) - 1))
    with pytest.raises(GraphFormatError) as exc:
        dataclasses.replace(g, n_colors=0)
    assert str(exc.value).startswith("n_colors must be at least 1, got 0; ")
    with pytest.raises(GraphFormatError, match="^boson labels must be a tuple of strings$"):
        from_matrices("m", [[[1]]], boson_labels=[1])


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(n_colors="3"), "n_colors must be an integer, got str"),
        (dict(n_colors=2.0), "n_colors must be an integer, got float"),
        (dict(n_colors=True), "n_colors must be an integer, got bool"),
        (dict(name=5), "name must be a string, got int"),
        (dict(bosons=None), "boson labels must be a tuple of strings"),
        (dict(edges=[Edge(1, 1, 1, 1)]), "edges must be a tuple of Edge, got list"),
        (dict(edges=((1, 1, 1, 1),)), "edge 1 must be an Edge, got tuple"),
        (dict(edges=(Edge("1", 1, 1, 1),)), "edge 1: boson must be an integer, got str"),
        (dict(edges=(Edge(1, 1, 1, True),)), "edge 1: sign must be an integer, got bool"),
        (dict(edges=(Edge(1, np.int64(1), 1, 1),)),
         "edge 1: fermion must be an integer, got int64"),
        # A wrongly typed row or n_colors skips the range checks needing it.
        (dict(n_colors=None, bosons=["a"], edges=(
            Edge(1, 1, 1.0, 1), Edge(2, 5, 9, 1), (1, 1, 1, 1), Edge(2, 5, 9, 1),
        )), "boson labels must be a tuple of strings; "
            "n_colors must be an integer, got NoneType; "
            "edge 1: color must be an integer, got float; "
            "edge 2: fermion index 5 out of range 1..1; "
            "edge 3 must be an Edge, got tuple; "
            "edge 4: fermion index 5 out of range 1..1; "
            "edges 2 and 4: duplicate edge (boson 2, fermion 5, color 9)"),
    ],
)
def test_construction_refuses_wrongly_typed_fields(fields, message):
    # Refused with GraphFormatError: never a TypeError or AttributeError,
    # and never a graph whose to_json text from_json would not read back.
    base = dict(name="t", n_colors=1, bosons=("a",), fermions=("x",),
                edges=(Edge(1, 1, 1, 1),))
    with pytest.raises(GraphFormatError) as exc:
        ValiseGraph(**{**base, **fields})
    assert str(exc.value) == message


def test_integers_beyond_the_string_limit_are_format_errors(tmp_path):
    # Python refuses to convert an int of more than 4,300 digits to or
    # from decimal text; the refusal is still a GraphFormatError, and
    # validate names the field and the integer's bit length.
    huge = 10**5000
    size = f"a {huge.bit_length()}-bit integer"
    base = dict(name="t", n_colors=1, bosons=("a",), fermions=("x",),
                edges=(Edge(1, 1, 1, 1),))
    for fields, message in (
        (dict(edges=(Edge(huge, 1, 1, 1),)),
         f"edge 1: boson index {size} out of range 1..1"),
        (dict(edges=(Edge(1, 1, 1, -huge),)),
         f"edge 1: sign must be -1 or +1, got a negative {huge.bit_length()}"
         "-bit integer"),
        (dict(n_colors=huge), f"n_colors {size} is above the limit "
                              f"MAX_COLORS = {MAX_COLORS}"),
        (dict(edges=(Edge(1, huge, huge, 1),) * 2),
         f"edge 1: fermion index {size} out of range 1..1; "
         f"edge 1: color {size} out of range 1..1; "
         f"edge 2: fermion index {size} out of range 1..1; "
         f"edge 2: color {size} out of range 1..1; "
         f"edges 1 and 2: duplicate edge (boson 1, fermion {size}, color {size})"),
    ):
        with pytest.raises(GraphFormatError) as exc:
            ValiseGraph(**{**base, **fields})
        assert str(exc.value) == message
    text = to_json(diamond()).replace('"b": 1,', '"b": 1' + "0" * 5000 + ",", 1)
    with pytest.raises(GraphFormatError, match="^not valid JSON: .*digits"):
        from_json(text)
    (tmp_path / "big.json").write_text("1" + "0" * 5000)
    with pytest.raises(GraphFormatError,
                       match="^fixture big.json is not valid JSON: .*digits"):
        load_fixture("big.json", tmp_path)


def test_to_matrices_matches_edge_signs():
    g = diamond()
    l1, l2 = to_matrices(g)
    assert l1.tolist() == [[1, 0], [0, 1]]
    assert l2.tolist() == [[0, 1], [-1, 0]]
    assert not l1.flags.writeable


def test_validate_size_limits():
    def empty(n_colors, d=0):
        return ValiseGraph("big", n_colors, ("b",) * d, (), ())

    assert validate(empty(MAX_COLORS)) == []
    with pytest.raises(GraphFormatError) as exc:
        empty(MAX_COLORS + 1)
    assert str(exc.value) == (
        f"n_colors {MAX_COLORS + 1} is above the limit MAX_COLORS = {MAX_COLORS}"
    )
    assert validate(empty(1, MAX_ROW_LENGTH)) == []
    with pytest.raises(GraphFormatError) as exc:
        empty(1, MAX_ROW_LENGTH + 1)
    assert str(exc.value) == (
        f"boson row has {MAX_ROW_LENGTH + 1} labels, above the limit "
        f"MAX_ROW_LENGTH = {MAX_ROW_LENGTH}"
    )


def test_to_matrices_rejects_invalid():
    with pytest.raises(GraphFormatError, match="sign"):
        ValiseGraph("bad", 1, ("a",), ("x",), (Edge(1, 1, 1, 5),))


def test_from_matrices_round_trip_structure():
    g = cube()
    back = from_matrices("again", to_matrices(g))
    assert back.edges == g.edges
    assert back.d == g.d and back.d_hat == g.d_hat


def test_from_matrices_rejects_bad_entries():
    with pytest.raises(ValueError, match="outside"):
        from_matrices("x", [[[2, 0], [0, 1]]])
    with pytest.raises(ValueError, match="row 1"):
        from_matrices("x", [[[1, 1], [0, 0]]])
    with pytest.raises(ValueError, match="column 2"):
        from_matrices("x", [[[0, 1], [0, 1]]])
    with pytest.raises(ValueError, match="shape"):
        from_matrices("x", [[[1, 0]], [[1], [0]]])


def test_json_round_trip_catalog():
    for g in (rhombic_dodecahedron(), diamond(), hypercube(4)):
        assert from_json(to_json(g)) == g


def test_json_canonical_bytes_are_stable():
    g = diamond()
    text = to_json(g)
    assert text == to_json(from_json(text))
    # Edge order in the file is (b, f, c) sorted regardless of input order.
    shuffled = ValiseGraph(
        g.name, g.n_colors, g.bosons, g.fermions, tuple(reversed(g.edges))
    )
    assert to_json(shuffled) == text


def test_to_json_obj_matches_text():
    import json

    g = cube()
    assert json.loads(to_json(g)) == to_json_obj(g)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda o: o.update(extra=1), "unknown keys: extra"),
        (lambda o: o.pop("colors"), "missing keys: colors"),
        (lambda o: o.update(colors="3"), "must be an integer"),
        (lambda o: o.update(bosons=[1, 2]), "list of strings"),
        (lambda o: o["edges"].append({"b": 1, "f": 1, "c": 1}), "missing keys: s"),
        (lambda o: o["edges"].append({"b": 1, "f": 1, "c": 1, "s": 1, "w": 2}),
         "unknown keys: w"),
        (lambda o: o["edges"].append(dict(o["edges"][0])), "duplicate edge"),
        (lambda o: o["edges"].append({"b": 9, "f": 1, "c": 1, "s": 1}),
         "out of range"),
        (lambda o: o["edges"].append({"b": 1, "f": 1, "c": 1, "s": 0}),
         "sign must be -1 or"),
    ],
)
def test_from_json_rejects_malformed(mangle, message):
    import json

    obj = to_json_obj(diamond())
    mangle(obj)
    with pytest.raises(GraphFormatError, match=message):
        from_json(json.dumps(obj))


def test_from_json_rejects_non_json():
    with pytest.raises(GraphFormatError, match="not valid JSON"):
        from_json("{oops")
    with pytest.raises(GraphFormatError, match="top level"):
        from_json("[1, 2]")


def test_connected_components():
    assert is_connected(cube())
    two = disjoint_union(diamond(), diamond(), "pair")
    comps = connected_components(two)
    assert len(comps) == 2 and not is_connected(two)
    # Isolated vertices are their own components.
    lonely = ValiseGraph("lone", 1, ("a", "b"), ("x",), (Edge(1, 1, 1, 1),))
    assert len(connected_components(lonely)) == 2


def test_spanning_forest_is_breadth_first_in_edge_order():
    # Roots in vertex order, grown first in first out, edges tried in
    # edge order: gauge_fix, and so every dashing witness, reads this
    # exact forest.
    two = disjoint_union(diamond(), diamond(), "pair")
    assert spanning_forest(two) == [
        (0, ("B", 1), ("F", 1)),
        (1, ("B", 1), ("F", 2)),
        (2, ("F", 1), ("B", 2)),
        (4, ("B", 3), ("F", 3)),
        (5, ("B", 3), ("F", 4)),
        (6, ("F", 3), ("B", 4)),
    ]


def test_with_signs_validates_length():
    g = diamond()
    with pytest.raises(ValueError, match="4 edges"):
        g.with_signs([1, 1])


def test_random_round_trips():
    rng = np.random.default_rng(7)
    for tag in range(200):
        g = random_valise_graph(rng, tag=tag)
        assert validate(g) == []
        assert from_json(to_json(g)) == g
        rebuilt = from_matrices(g.name, to_matrices(g))
        assert rebuilt.edges == g.edges
