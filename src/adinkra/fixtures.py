"""Checked-in expected values and comparison against recomputation.

Two product files hold the printed product tables (left and right
families) for the rhombic dodecahedron and rhombic icosahedron,
transcribed once from the source tables; two graph files hold the
canonical JSON of the same builtins.  compare_products recomputes every
product from the builtin graphs and diffs element for element: it is
the anti-regression anchor for the matrix pipeline.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from . import catalog
from . import graph as gm
from .errors import GraphFormatError
from .garden import product_tables

PRODUCT_FILES = ("rd_products.json", "ri_products.json")
GRAPH_FILES = ("rhombic_dodecahedron.json", "rhombic_icosahedron.json")


def fixture_text(name: str, directory: str | Path | None = None) -> str:
    """Raw text of a fixture file, packaged unless a directory is given."""
    if directory is not None:
        return (Path(directory) / name).read_text(encoding="utf-8")
    return (resources.files("adinkra") / "fixtures" / name).read_text(
        encoding="utf-8"
    )


def load_fixture(name: str, directory: str | Path | None = None) -> object:
    text = fixture_text(name, directory)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphFormatError(f"fixture {name} is not valid JSON: {exc}") from exc


def load_graph_fixture(name: str, directory: str | Path | None = None) -> gm.ValiseGraph:
    return gm.from_json(fixture_text(name, directory))


def _diff_side(
    gname: str,
    side: str,
    fixture_entries: object,
    computed: list[tuple[str, np.ndarray]],
    diffs: list[str],
) -> int:
    """Compare one product family; returns the number of exact matches."""
    if not isinstance(fixture_entries, list):
        diffs.append(f"{gname} {side}: fixture entries must be a list")
        return 0
    if len(fixture_entries) != len(computed):
        diffs.append(
            f"{gname} {side}: expected {len(computed)} matrices, "
            f"fixture has {len(fixture_entries)}"
        )
    matches = 0
    for k, ((label, mat), entry) in enumerate(zip(computed, fixture_entries)):
        ok = True
        if not isinstance(entry, dict) or "label" not in entry or "matrix" not in entry:
            diffs.append(f"{gname} {side} entry {k + 1}: malformed fixture entry")
            continue
        if entry["label"] != label:
            diffs.append(
                f"{gname} {side} entry {k + 1}: label mismatch "
                f"(fixture {entry['label']!r}, recomputed {label!r})"
            )
            ok = False
        want, got = entry["matrix"], mat.tolist()
        # only a JSON integer matches: in Python 1.0 == True == 1
        if want != got or any(set(map(type, row)) - {int} for row in want):
            ok = False
            want = np.asarray(want, dtype=object)
            if want.shape != mat.shape:
                diffs.append(
                    f"{gname} {side} {label}: shape mismatch "
                    f"(fixture {want.shape}, recomputed {mat.shape})"
                )
            else:
                for (r, c), x in np.ndenumerate(want):
                    if type(x) is not int or x != got[r][c]:
                        diffs.append(
                            f"{gname} {side} {label}: cell ({r + 1},{c + 1}) "
                            f"fixture {json.dumps(x)} recomputed {got[r][c]}"
                        )
        if ok:
            matches += 1
    return matches


def compare_products(
    directory: str | Path | None = None,
) -> tuple[int, int, list[str]]:
    """Recompute both product tables and diff against the fixtures.

    Returns (matches, total, diff lines); total counts fixture-side
    matrices so missing entries also show up in the tally.
    """
    matches, total, diffs = 0, 0, []
    for name in PRODUCT_FILES:
        data = load_fixture(name, directory)
        if not isinstance(data, dict) or "graph" not in data:
            raise GraphFormatError(f"fixture {name} is missing the graph name")
        gname = data["graph"]
        if not isinstance(gname, str):
            raise GraphFormatError(f"fixture {name}: graph name must be a string, "
                                   f"got {json.dumps(gname)}")
        g = catalog.builtin(gname)
        left, right = product_tables(gm.colors(g))
        for side, computed in (("left", left), ("right", right)):
            entries = data.get(side, [])
            total += max(len(computed), len(entries) if isinstance(entries, list) else 0)
            matches += _diff_side(gname, side, entries, computed, diffs)
    return matches, total, diffs
