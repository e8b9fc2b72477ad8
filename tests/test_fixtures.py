"""Packaged fixtures: product tables and graph files."""

import json
from pathlib import Path

import pytest

from adinkra import (
    GraphFormatError,
    builtin,
    compare_products,
    fixture_text,
    load_fixture,
    load_graph_fixture,
    to_json,
)
from adinkra.fixtures import GRAPH_FILES, PRODUCT_FILES


def test_packaged_products_all_match():
    matches, total, diffs = compare_products()
    assert (matches, total) == (50, 50)
    assert diffs == []


def test_graph_fixtures_are_canonical_builtins():
    for name, fname in (
        ("rhombic-dodecahedron", "rhombic_dodecahedron.json"),
        ("rhombic-icosahedron", "rhombic_icosahedron.json"),
    ):
        assert fixture_text(fname) == to_json(builtin(name))
        g = load_graph_fixture(fname)
        assert g.edges == builtin(name).edges


def _copy_fixtures(dest: Path) -> None:
    for fname in PRODUCT_FILES + GRAPH_FILES:
        (dest / fname).write_text(fixture_text(fname))


def test_detects_a_corrupted_cell(tmp_path):
    _copy_fixtures(tmp_path)
    doc = json.loads((tmp_path / "rd_products.json").read_text())
    doc["left"][0]["matrix"][0][0] += 1
    (tmp_path / "rd_products.json").write_text(json.dumps(doc))
    matches, total, diffs = compare_products(directory=tmp_path)
    assert total == 50 and matches == 49
    assert len(diffs) == 1
    assert "cell (1,1)" in diffs[0]
    assert "L1*R1" in diffs[0]


def test_detects_a_label_mismatch(tmp_path):
    _copy_fixtures(tmp_path)
    doc = json.loads((tmp_path / "ri_products.json").read_text())
    doc["right"][3]["label"] = "bogus"
    (tmp_path / "ri_products.json").write_text(json.dumps(doc))
    matches, total, diffs = compare_products(directory=tmp_path)
    assert matches == 49
    assert any("label mismatch" in d for d in diffs)


def test_missing_fixture_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        fixture_text("rd_products.json", directory=tmp_path)
    with pytest.raises(FileNotFoundError):
        fixture_text("no_such_fixture.json")


def test_corrupt_json_fixture(tmp_path):
    (tmp_path / "rd_products.json").write_text("{not json")
    with pytest.raises(GraphFormatError, match="not valid JSON"):
        load_fixture("rd_products.json", directory=tmp_path)


@pytest.mark.parametrize(
    "cell, shown",
    [(1.5, "1.5"), (True, "true"), (10**400, "1" + "0" * 400)],
    ids=["float", "bool", "huge"],
)
def test_non_integer_or_huge_cells_differ(tmp_path, cell, shown):
    # The recomputed cell is 1; a float, a boolean or an integer beyond
    # int64 must not be coerced into a match, nor overflow.
    _copy_fixtures(tmp_path)
    doc = json.loads((tmp_path / "rd_products.json").read_text())
    doc["left"][0]["matrix"][0][0] = cell
    (tmp_path / "rd_products.json").write_text(json.dumps(doc))
    matches, total, diffs = compare_products(directory=tmp_path)
    assert (matches, total) == (49, 50)
    assert diffs == [
        f"rhombic-dodecahedron left L1*R1: cell (1,1) fixture {shown} recomputed 1"
    ]
