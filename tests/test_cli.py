"""Command-line interface, driven through main(argv)."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adinkra.graph
from adinkra import builtin, cli, to_json, to_matrices
from adinkra.cli import main
from adinkra.fixtures import GRAPH_FILES, PRODUCT_FILES, fixture_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "builtin:cube")
    assert code == 0
    assert "result: PASS" in out
    assert "garden: left ok, right ok (0 violations)" in out


def test_check_rejected_graph(capsys):
    code, out, _ = run(capsys, "check", "builtin:rd")
    assert code == 1
    assert "equal counts    FAIL (6 vs 8)" in out
    assert "garden: skipped (matrices are not square)" in out
    assert "result: FAIL" in out


def test_check_square_but_failing(capsys):
    code, out, _ = run(capsys, "check", "builtin:ri")
    assert code == 1
    assert "garden: left FAIL" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "builtin:cube", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == "cube"
    assert doc["candidacy"]["verdict"] == "candidate"
    assert doc["garden"]["ok"] is True
    assert doc["pass"] is True


def test_check_reads_file_and_stdin(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(to_json(builtin("diamond")))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and "result: PASS" in out

    monkeypatch.setattr("sys.stdin", io.StringIO(to_json(builtin("diamond"))))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0 and "result: PASS" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.json")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and "error:" in err
    assert "line 1 column 2" in err  # parse location is preserved


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError, on this.
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (["check", str(path)], ["garden", str(path)],
                 ["matrices", str(path)], ["dashings", str(path)],
                 ["export-dot", str(path), "-"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: not valid JSON:"), argv
        assert err.count("\n") == 1, argv
    for fname in PRODUCT_FILES + GRAPH_FILES:
        (tmp_path / fname).write_text(fixture_text(fname))
    (tmp_path / "rd_products.json").write_text(deep)
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: fixture rd_products.json is not valid JSON:")
    assert err.count("\n") == 1


def test_wrongly_typed_json_fields_are_usage_errors(capsys, tmp_path):
    obj = adinkra.graph.to_json_obj(builtin("diamond"))
    obj["colors"], obj["edges"][2]["s"] = 2.0, True
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: n_colors must be an integer, got float; "
                   "edge 3: sign must be an integer, got bool\n")


def test_main_builds_the_parser_at_most_once(capsys):
    cli.build_parser.cache_clear()
    run(capsys, "builtin", "--list")
    run(capsys, "search", "-d", "2", "-n", "2")
    assert cli.build_parser.cache_info().misses == 1


def test_oversized_inputs_are_refused_before_allocating(capsys, monkeypatch):
    # Without the limits, check would build a 10^12-element color set
    # and loop over 10^24 color pairs.
    huge = json.dumps({"name": "huge", "colors": 10**12, "bosons": [],
                       "fermions": [], "edges": []})
    monkeypatch.setattr("sys.stdin", io.StringIO(huge))
    code, out, err = run(capsys, "check", "-")
    assert code == 2 and out == ""
    assert "above the limit MAX_COLORS" in err
    # One 20000 x 20000 matrix would need 3.2 GB of int64 cells.
    labels = [f"v{k}" for k in range(20000)]
    wide = json.dumps({"name": "wide", "colors": 1, "bosons": labels,
                       "fermions": labels,
                       "edges": [{"b": 1, "f": 1, "c": 1, "s": 1}]})
    for command in ("check", "matrices", "garden"):
        monkeypatch.setattr("sys.stdin", io.StringIO(wide))
        code, out, err = run(capsys, command, "-")
        assert code == 2 and out == "", command
        assert "above the limit MAX_MATRIX_CELLS" in err, command


def test_product_tables_are_refused_above_the_cell_limit(capsys, monkeypatch):
    # One color on 4096 + 4096 vertices has 2^24 matrix cells, at the
    # limit, but its two 4096 x 4096 product tables would hold 2^25.
    labels = [f"v{k}" for k in range(4096)]
    sparse = json.dumps({"name": "sparse", "colors": 1, "bosons": labels,
                         "fermions": labels, "edges": []})
    for argv in (["garden", "-"], ["garden", "-", "--json"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(sparse))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == ("error: 1 x (4096^2 + 4096^2) = 33554432 product table "
                       "cells is above the limit MAX_MATRIX_CELLS = 16777216\n")
    code, out, err = run(capsys, "garden", "builtin:hypercube-10")
    assert code == 2 and out == ""
    assert "= 28835840 product table cells is above the limit" in err


def test_hypercube_above_the_matrix_limit_is_refused_unbuilt(capsys):
    # hypercube-12 would be 12 x 2048 x 2048 cells; the builder refuses it
    # before making its edges (to_matrices would refuse only after).
    for name in ("builtin:hypercube-12", "builtin:hypercube-16"):
        code, out, err = run(capsys, "check", name)
        assert code == 2 and out == "", name
        assert "hypercube dimension" in err, name
        assert "above 11" in err and "limit MAX_MATRIX_CELLS" in err, name


def test_matrices_json_round_trip(capsys):
    code, out, _ = run(capsys, "matrices", "builtin:diamond", "--json")
    assert code == 0
    doc = json.loads(out)
    mats = to_matrices(builtin("diamond"))
    assert doc["L"] == [m.tolist() for m in mats]
    assert doc["d"] == 2 and doc["d_hat"] == 2


def test_matrices_text_blocks(capsys):
    code, out, _ = run(capsys, "matrices", "builtin:diamond")
    assert code == 0
    assert "L1" in out and "R2" in out
    assert " 0  1" in out and "-1  0" in out


def test_garden_exit_codes(capsys):
    code, out, _ = run(capsys, "garden", "builtin:hypercube-2")
    assert code == 0 and "summary: left ok, right ok" in out
    code, out, _ = run(capsys, "garden", "builtin:rd")
    assert code == 1
    assert "summary: left ok, right FAIL (32 violations)" in out


def test_garden_caps_violation_listing(capsys):
    _, out, _ = run(capsys, "garden", "builtin:rd")
    assert "... and 12 more" in out


def test_dashings_feasible(capsys):
    code, out, _ = run(capsys, "dashings", "builtin:cube")
    assert code == 0
    assert "gauge: spanning forest fixes 7 edges, 5 free" in out
    assert "feasible: yes" in out
    assert "witness (edge order):" in out


def test_dashings_exhaustive_counts(capsys):
    code, out, _ = run(capsys, "dashings", "builtin:cube", "--exhaustive")
    assert code == 0
    assert "gauge orbits found: 1" in out
    assert "total dashings: 128" in out


def test_dashings_pruned(capsys):
    code, out, _ = run(capsys, "dashings", "builtin:rd")
    assert code == 1
    assert "pruned: equal-counts filter failed (6 vs 8)" in out
    assert "feasible: no" in out


def test_dashings_budget_errors(capsys):
    code, _, err = run(capsys, "dashings", "builtin:cube", "--budget", "4")
    assert code == 2
    assert "enumeration steps" in err


def test_dashings_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("ADINKRA_BUDGET", "4")
    code, _, err = run(capsys, "dashings", "builtin:cube")
    assert code == 2 and "budget is 4" in err


def test_search_finds_diamond(capsys):
    code, out, _ = run(capsys, "search", "-d", "2", "-n", "2")
    assert code == 0
    assert "scanned: 2 raw candidates" in out
    assert "solutions: 1" in out
    assert "solution 1: 2+2 vertices, 4 edges, connected, multiplicity 1" in out


def test_search_empty_result(capsys):
    # No fixed-point-free involutions exist on 3 elements.
    code, out, _ = run(capsys, "search", "-d", "3", "-n", "2")
    assert code == 1
    assert "solutions: 0" in out


def test_search_disconnected_suppression(capsys):
    code, out, _ = run(capsys, "search", "-d", "4", "-n", "2")
    assert code == 1
    assert "disconnected" in out
    code, out, _ = run(
        capsys, "search", "-d", "4", "-n", "2", "--allow-disconnected"
    )
    assert code == 0
    assert "solutions: 1" in out


def test_search_json_to_file(capsys, tmp_path):
    dest = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "search", "-d", "4", "-n", "3", "--json", str(dest)
    )
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["scanned"] == 576
    assert len(doc["solutions"]) == 1
    assert doc["solutions"][0]["multiplicity"] == 6
    assert doc["solutions"][0]["connected"] is True


def test_search_d8_json(capsys):
    # One disconnected class: the 105 fixed-point-free involutions of
    # S_8, first reached at lexicographic rank 5167 of the 8! candidates.
    code, out, _ = run(
        capsys, "search", "-d", "8", "-n", "2", "--allow-disconnected",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["scanned"] == 40320
    assert doc["pruned"] == {
        "relative permutation not a fixed-point-free involution": 40215
    }
    assert doc["disconnected_suppressed"] == 0
    [sol] = doc["solutions"]
    assert sol["graph"]["name"] == "search-d8-n2-5167"
    assert sol["multiplicity"] == 105
    assert sol["connected"] is False


def _search_json(capsys, d: int, n: int, budget: int) -> dict:
    code, out, _ = run(
        capsys, "search", "-d", str(d), "-n", str(n), "--budget", str(budget),
        "--allow-disconnected", "--json",
    )
    assert code == 0
    return json.loads(out)


def test_search_d8_n3_json(capsys):
    doc = _search_json(capsys, 8, 3, 2_000_000_000)
    assert doc["scanned"] == 1625702400
    assert doc["pruned"] == {
        "relative permutation not a fixed-point-free involution": 1625701140
    }
    assert [
        (s["graph"]["name"], s["connected"], s["multiplicity"])
        for s in doc["solutions"]
    ] == [("search-d8-n3-208344976", False, 1260)]


def test_search_d8_n4_json(capsys):
    # Two disjoint copies of the (4,4) class, then the tesseract, whose
    # multiplicity is 8! 4! / 192.
    doc = _search_json(capsys, 8, 4, 10**14)
    assert doc["scanned"] == 65548320768000
    assert doc["pruned"] == {
        "relative permutation not a fixed-point-free involution": 65548320761700
    }
    assert [
        (s["graph"]["name"], s["connected"], s["multiplicity"])
        for s in doc["solutions"]
    ] == [
        ("search-d8-n4-8400469449023", False, 1260),
        ("search-d8-n4-8400469455936", True, 5040),
    ]


def test_search_d8_n5_json(capsys):
    # One class, connected, with multiplicity 8! 5! / |Aut|.
    doc = _search_json(capsys, 8, 5, 10**19)
    assert doc["scanned"] == 2642908293365760000
    assert doc["pruned"] == {
        "relative permutation not a fixed-point-free involution":
            2642908293365734800
    }
    assert [
        (s["graph"]["name"], s["connected"], s["multiplicity"])
        for s in doc["solutions"]
    ] == [("search-d8-n5-338706928184630976", True, 25200)]


def test_search_budget_gate(capsys):
    code, _, err = run(capsys, "search", "-d", "8", "-n", "4")
    assert code == 2 and "error:" in err


def test_fixtures_ok(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "50/50 matrices match" in out


def test_fixtures_detects_damage(capsys, tmp_path):
    for fname in PRODUCT_FILES + GRAPH_FILES:
        (tmp_path / fname).write_text(fixture_text(fname))
    doc = json.loads((tmp_path / "rd_products.json").read_text())
    doc["left"][2]["matrix"][1][1] -= 2
    (tmp_path / "rd_products.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 1
    assert "49/50 matrices match" in out


@pytest.mark.parametrize("gname", [["x"], 5])
def test_fixtures_graph_name_must_be_a_string(capsys, tmp_path, gname):
    for fname in PRODUCT_FILES + GRAPH_FILES:
        (tmp_path / fname).write_text(fixture_text(fname))
    doc = json.loads((tmp_path / "ri_products.json").read_text())
    doc["graph"] = gname
    (tmp_path / "ri_products.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err == ("error: fixture ri_products.json: graph name must be a "
                   f"string, got {json.dumps(gname)}\n")


def test_fixtures_missing_dir(capsys, tmp_path):
    code, _, err = run(capsys, "fixtures", "--dir", str(tmp_path / "nope"))
    assert code == 2 and "error:" in err


def test_export_dot(capsys, tmp_path):
    dest = tmp_path / "g.dot"
    code, _, _ = run(capsys, "export-dot", "builtin:diamond", str(dest))
    assert code == 0
    text = dest.read_text()
    assert text.startswith('graph "diamond" {')
    assert "style=dashed" in text


def test_builtin_list_and_dump(capsys):
    code, out, _ = run(capsys, "builtin", "--list")
    assert code == 0
    assert "rhombic-dodecahedron" in out and "hypercube-<n>" in out
    code, out, _ = run(capsys, "builtin", "rd")
    assert code == 0
    assert out == to_json(builtin("rd"))


def test_builtin_unknown(capsys):
    code, _, err = run(capsys, "builtin", "klein-bottle")
    assert code == 2
    assert "unknown builtin graph" in err


def test_no_arguments_shows_usage(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_checks_never_build_dense_matrices(capsys, monkeypatch):
    # Every check and every printed table reads the graph's colors
    # directly.
    argvs = (
        ["matrices", "builtin:ri"],
        ["matrices", "builtin:rd", "--json"],
        ["check", "builtin:ri"],
        ["check", "builtin:tesseract", "--json"],
        ["garden", "builtin:ri"],
        ["garden", "builtin:cube", "--json"],
        ["dashings", "builtin:tesseract", "--exhaustive"],
        ["search", "-d", "4", "-n", "3"],
        ["fixtures"],
    )
    before = [run(capsys, *argv) for argv in argvs]

    def refuse(g):
        raise AssertionError("dense matrices built")

    monkeypatch.setattr(adinkra.graph, "to_matrices", refuse)
    assert [run(capsys, *argv) for argv in argvs] == before


# sha256 of stdout, and the exit code: these bytes stay fixed however a
# color is held inside.
PINNED = [
    ("check builtin:rd", 1, "a8652a93fb552b68c623136373aefd1e5039601d1e19fd9dc5c00dda139de50c"),
    ("check builtin:rd --json", 1, "ab92301f39a79e3234af15cde9283c4c379d473d1f02995b1b124680abf34de8"),
    ("garden builtin:rd", 1, "dbd5a7a60ce513d11e02c3acf18df01cec5ea68348f833b4699484cc195b453d"),
    ("garden builtin:rd --json", 1, "3ed90bbb02ec09752213a6b2b162c10f317a6e9dafc4622a53576fcc88a838df"),
    ("matrices builtin:rd", 0, "bb93f163270e8ab8156efa2308c19bd6f0707a07e38a22580ce81e37f8bb0f96"),
    ("matrices builtin:rd --json", 0, "93928f5709f223028e8d5d6979de70d37d105ccc9461c4c88cbcd49128e0d7d7"),
    ("check builtin:ri", 1, "070a49dc9b41f4df29c1aae60b1c9d3872a6315e31130b9887ee0a23345722b5"),
    ("check builtin:ri --json", 1, "730124e020c17f2dc810e1c484e35d0e406636dff6a9398351be64e2e98bd534"),
    ("garden builtin:ri", 1, "844faf729d7f8e21ee7822caee6282ca7ee68b4d525df027a66e8c127404ed27"),
    ("garden builtin:ri --json", 1, "82f1039a300cc8d621096ed9b995a045d399c948a483f7e70363d2765e7e44ae"),
    ("matrices builtin:ri", 0, "c3db21b0078325a3c28cb7add36ff6c5f6b25a007048f2677906a2a70cb3d89f"),
    ("matrices builtin:ri --json", 0, "1edc7cf87f8d06ecf6b50d1268cef019f92f6cd1cf055ebcebe7f7bc0557bd6f"),
    ("check builtin:hypercube-4", 0, "5c597ad13640281491a8a3a3d99b0149f9f2492e174bf5ffa4a265b22380022d"),
    ("check builtin:hypercube-4 --json", 0, "177503aed40c553f2878ba3bfc1394c16e8415eac3a24a212eccfbb9713f36ba"),
    ("garden builtin:hypercube-4", 0, "94b4039a75e4055ed3a08857a5ae5480e844344ada29e678ed1a7ce31d3d2419"),
    ("garden builtin:hypercube-4 --json", 0, "f7ee19a3526636234c1c7fa1ad643c173e55aa9c7e7a607eaf25f6631e2dc132"),
    ("matrices builtin:hypercube-4", 0, "91dc38f4f19b1eeff31ba2a2caf66028db2060c751d3808a5cb7f48d37e29b3d"),
    ("matrices builtin:hypercube-4 --json", 0, "e2e4d631f833570fd7de54e4f672e08799671feb42ec12444a560ee318363903"),
    ("dashings builtin:tesseract --exhaustive --json", 0, "7d753e60ad67833b28a7cf16b45181dfdcd79ca818225b5a7242763e9b71776c"),
    ("search -d 2 -n 2", 0, "115e8df4b74ed1da8a004ccbe85df1f77a98ddc5cd18d479d1be8786e8d95646"),
    ("search -d 4 -n 3", 0, "4b3b779fe8a8aff1fc2c40981c8114a83de4985b406bcc4d0833c3bac1de2710"),
    ("search -d 4 -n 3 --json", 0, "9fb81306af2ffbdb6a34a06d2240a7a20c2bbb25b3ab8ce84c8302f7151f2651"),
    ("search -d 4 -n 4 --no-dedupe", 0, "60d9f0aee2ce6a3fd9231acfff6b61b674356d598bdc179053049f1ab95cbda2"),
    ("search -d 4 -n 4 --no-dedupe --json --allow-disconnected", 0, "cddb222bc858016f2bbe657245b51ed0833f4e766e607655d516bbe7e6248a0e"),
    ("search -d 4 -n 3 --no-prune --allow-disconnected", 0, "32df49e7482775da75537223c264b1282d8b7d5bb2236b191eb4d8b6b69ef59e"),
    ("search -d 4 -n 3 --no-prune --no-dedupe --allow-disconnected --json", 0, "b92789b95e379e11dbc0e61677d3cbe29260bebf572f15abc7039078872ce743"),
    ("search -d 6 -n 2 --allow-disconnected --json", 0, "004a5756f8f78f53b418217c7d0df9c88be7aa4637ed34ae55a1aa26666ef66d"),
    ("search -d 6 -n 2 --no-dedupe --allow-disconnected", 0, "7d4158f149b926bfacbffeb514f41293dbf8275ba0f0bebd09df0db23038d474"),
    ("search -d 8 -n 3 --budget 10000000000 --allow-disconnected --json", 0, "e5fcaec3d9270abf4f8aebbaf2e7afe77b5d7cb0811f08b2f692ba7348a3a9e1"),
    ("search -d 4 -n 5 --no-dedupe --allow-disconnected --json", 1, "ddae3f1ed0933f4991ffac086d4181a92b8ba552fb7e2dcaa607859045d02e45"),
    ("garden builtin:hypercube-7", 0, "6c1f5c127d664853f29473696920ad3fc3623a66579ad29264cc7556fb95bf32"),
    ("garden builtin:hypercube-7 --json", 0, "6076586928a5880f34bd024ea721ed16d593de6dacecec6696a8f3583f1f0ad5"),
    ("matrices builtin:hypercube-7", 0, "ed8f1e741f754020d319bb84bd7378d1ec1227b723ddd128f2f8273f2f2e68b2"),
    ("matrices builtin:hypercube-7 --json", 0, "bceabb5da728841f6ad4332b085d22e44ee3381803d6a849c05bd1cdbdbd4b04"),
    ("garden builtin:lifted-rd", 1, "ac5e7e20fcc29579324dcf68045d18359acc070af1f9f22ce25f7d73d6303622"),
    ("garden builtin:lifted-rd --json", 1, "39adb86ab4a06904db1ee70d21a8a1b6082bb51f80f7564f3e548af32dffc2af"),
    ("garden builtin:rd-from-tesseract --json", 1, "c36aa0363da7b3f0ef13b33158acf8204302346b3741bdff60390ad2756747c9"),
    ("garden builtin:bow-tie", 1, "e00a96fa397e89b9a9211a02b96bd7bc81eb6ab035b546d5d216dcf2beeaf9fe"),
    ("matrices builtin:bow-tie --json", 0, "c0bbd7f3e7dbcffee4c932fce1db05085c550c3ce663f5a0de73d75a37cab385"),
    ("check builtin:lifted-rd --json", 1, "3effd5d31cd67cb100232a0fb42e60cfdc4b77bd124125678202b8f21f2cff31"),
    ("dashings builtin:cube --json", 0, "78375bfb7798c4da8460c5f92463f879e61314648e20b46a0aab6febcfa6bf9a"),
    ("fixtures", 0, "4dafa2417435e2ce9938c22b31c7a1c6b75eacca0aa76a7ce52d28eb331815c2"),
    ("fixtures --json", 0, "58f132201b513665db86db15193c64b911ed00130570abdacce98c0672a93c62"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[a for a, _, _ in PINNED])
def test_cli_bytes_are_pinned(capsys, argv, code, digest):
    got, out, err = run(capsys, *argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, "")


_NO_NUMPY = """
import contextlib, io, sys
import adinkra.cli
argvs = [[cmd, "builtin:cube"] for cmd in ("check", "garden", "matrices", "dashings")]
argvs.append(["search", "-d", "4", "-n", "3"])
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert adinkra.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_cube_commands_leave_numpy_unimported():
    """numpy is imported only where arrays cross the boundary, so a fresh
    interpreter that runs the graph commands on the cube never loads it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
