"""Tests of the benchmark itself: seeded inputs, the oracle, and smoke runs.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _fingerprint(wl):
    return [(op.label, op.argv, op.stdin, op.topology) for op in wl.ops + wl.probes]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    first = _fingerprint(workloads.build(name, 7))
    assert first == _fingerprint(workloads.build(name, 7))
    assert first != _fingerprint(workloads.build(name, 8))


def test_cube_has_one_orbit_and_128_dashings():
    assert oracle.dashing_counts(gen.hypercube(3)) == (1, 128)


def test_tesseract_has_one_orbit_and_32768_dashings():
    assert oracle.dashing_counts(gen.hypercube(4)) == (1, 32768)


def test_relabeling_keeps_the_counts():
    rng = random.Random(3)
    g = gen.relabel(gen.hypercube(4), rng, "t")
    assert oracle.dashing_counts(g) == (1, 32768)
    assert oracle.check_verdict(g)["pass"]


def test_rd_is_left_ok_right_fail_and_not_a_candidate():
    v = oracle.check_verdict(gen.rhombic("rd"))
    assert v["violations"] is None  # unequal counts: check skips the garden
    assert not v["candidacy"]["equal_counts_ok"] and not v["pass"]
    viol = oracle.garden_violations(gen.rhombic("rd"))
    assert viol and all(side == "right" for side, *_ in viol)


def test_six_cube_mod_all_ones_is_gf2_infeasible():
    g = gen.cube_quotient(6, 0b111111, random.Random(0))
    assert oracle.candidacy(g)["candidate"]
    assert oracle.dashing_counts(g) == (0, 0)


def test_sparse_garden_matches_the_dense_definition():
    rng = random.Random(5)
    for g in (gen.rhombic("ri"), gen.flip_edges(gen.hypercube(4), rng, 2, "x")):
        left, right = oracle.product_tables(g)
        mats = oracle.l_matrices(g)
        n = g["colors"]
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for (i, j), got in zip(pairs, left):
            a, b = mats[i], mats[j]
            want = [[sum(a[r][k] * b[c][k] for k in range(len(a[0])))
                     + (0 if i == j else sum(b[r][k] * a[c][k] for k in range(len(a[0]))))
                     for c in range(len(a))] for r in range(len(a))]
            assert got == want
        assert len(right) == len(pairs)


@pytest.mark.parametrize("d,n,classes", [(2, 2, 1), (2, 3, 0), (4, 2, 0), (4, 3, 1), (4, 4, 1),
                                         (4, 5, 0), (6, 4, 0), (8, 3, 0), (8, 4, 1)])
def test_connected_classes_follow_doubly_even_codes(d, n, classes):
    assert oracle.connected_classes(d, n) == classes


def test_documented_multiplicity_six():
    assert oracle.connected_candidate_tuples(4, 3) == 6
    assert oracle.connected_candidate_tuples(4, 4) == 6


def test_topology_invariant_survives_relabeling():
    rng = random.Random(2)
    topo = (tuple(range(8)), gen.random_perm(8, rng), gen.random_perm(8, rng))
    for _ in range(5):
        assert oracle.topology_invariant(gen.relabel_topology(topo, rng)) == oracle.topology_invariant(topo)


def test_tail_is_the_eleventh_largest():
    value, pct = run.tail([float(x) for x in range(100)])
    assert value == 89.0 and pct == 90.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_one_operation_of_each_kind(name):
    """Warm-ups plus one core operation of every kind, checked and traced."""
    import adinkra.cli
    import adinkra.search

    wl = workloads.build(name, 1)
    picked, kinds = [], set()
    for op in wl.ops:
        if op.kind not in kinds:
            kinds.add(op.kind)
            picked.append(op)
    wl.ops = picked
    runner = run.Runner(wl, adinkra.cli, adinkra.search)
    problems = []
    runner.warm_up(problems)
    tracer = Tracer()
    tracer.install()
    try:
        runner.round(time.perf_counter() + 120)
    finally:
        tracer.uninstall()
    assert problems == [] and runner.failed == 0, runner.failures
    assert tracer.absent == [] and not tracer.unobserved
    assert tracer.calls["cli.main"] == sum(op.topology is None for op in picked)
    assert not hasattr(adinkra.cli.main, "__wrapped__")


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_one_result_line(trace):
    res = _run(ROOT, "--workload", "dash", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in want}
    if trace == "1":
        frontier = {k: v["value"] for k, v in out["metrics"].items() if k.startswith("frontier.")}
        assert frontier["frontier.failed"] == 0 and sum(frontier.values()) == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = _run(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert res.stdout.strip() == ""
