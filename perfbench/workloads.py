"""The four workloads: seeded inputs, core operations, frontier probes,
and the check each answer must pass.

A workload is one round of core operations, repeated unchanged by the
runner.  Every operation carries its own expectation, derived from the
oracle before anything runs; outputs are parsed for their meaning
(verdicts, counts, matrices, witnesses), not compared byte for byte.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import gen
import oracle

NAMES = ("verify", "tables", "dash", "search")


@dataclass
class Op:
    label: str
    kind: str  # operations of one kind share a warm-up
    argv: tuple[str, ...] = ()
    stdin: str | None = None
    topology: tuple | None = None  # set for canonical_form operations
    group: object = None  # canonical_form: topologies of one class share it
    expect: Callable[[int, str], str | None] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmups: list[Op]
    probes: list[Op] = field(default_factory=list)


def execute(op: Op, cli, search):
    """Run one operation in-process: (exit code, stdout) for the CLI,
    (None, key) for canonical_form.  Module attributes are looked up at
    call time so that traced wrappers are used."""
    if op.topology is not None:
        return None, search.canonical_form(op.topology)
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op.stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


# --- output reading ----------------------------------------------------------


def _find(pattern: str, text: str):
    m = re.search(pattern, text, re.M)
    return m.groups() if m else None


def _ok(word: str) -> bool:
    return word == "ok"


def _viol_set(items):
    return sorted((v["side"], v["colors"][0], v["colors"][1], v["row"], v["col"], v["value"])
                  for v in items)


def _matrix_blocks(text: str):
    """[(header, rows)] where rows are the indented all-integer lines."""
    blocks = []
    for line in text.splitlines():
        if line[:1] in (" ", "\t"):
            tokens = line.split()
            if blocks and tokens and all(re.fullmatch(r"-?\d+", t) for t in tokens):
                blocks[-1][1].append([int(t) for t in tokens])
        else:
            blocks.append((line.strip(), []))
    return blocks


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _graph_from_wire(obj):
    return gen.make_graph(obj["name"], obj["colors"], obj["bosons"], obj["fermions"],
                          [(e["b"], e["f"], e["c"], e["s"]) for e in obj["edges"]])


def _exit(rc: int, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


# --- expectations --------------------------------------------------------------


def expect_check(g, as_json: bool):
    v = oracle.check_verdict(g)
    cand = v["candidacy"]
    want_rc = 0 if v["pass"] else 1

    def check(rc, out):
        bad = _exit(rc, want_rc)
        if bad:
            return bad
        if as_json:
            obj = json.loads(out)
            c = obj["candidacy"]
            facts = (obj["pass"], c["verdict"] == "candidate", c["equal_counts_ok"],
                     c["coverage_ok"], c["quad_ok"], len(c["coverage_misses"]),
                     len(c["bad_cycles"]))
            want = (v["pass"], cand["candidate"], cand["equal_counts_ok"], cand["coverage_ok"],
                    cand["quad_ok"], cand["coverage_misses"], cand["bad_cycles"])
            if facts != want:
                return f"candidacy facts {facts}, expected {want}"
            gd = obj["garden"]
            if (gd is None) != (v["violations"] is None):
                return "garden report present/absent wrongly"
            if gd is not None:
                if (gd["left_ok"], gd["right_ok"]) != (v["left_ok"], v["right_ok"]):
                    return "garden verdicts differ"
                if _viol_set(gd["violations"]) != v["violations"]:
                    return "garden violations differ"
            return None
        facts = (_find(r"equal counts\s+(ok|FAIL)", out), _find(r"color coverage\s+(ok|FAIL)", out),
                 _find(r"bi-color quads\s+(ok|FAIL)", out), _find(r"verdict:\s*(\w+)", out),
                 _find(r"result:\s*(PASS|FAIL)", out))
        want = (("ok" if cand["equal_counts_ok"] else "FAIL",),
                ("ok" if cand["coverage_ok"] else "FAIL",),
                ("ok" if cand["quad_ok"] else "FAIL",),
                ("candidate" if cand["candidate"] else "rejected",),
                ("PASS" if v["pass"] else "FAIL",))
        if facts != want:
            return f"text facts {facts}, expected {want}"
        if v["violations"] is None:
            return None if _find(r"^garden:\s*(skipped)", out) else "garden not skipped"
        got = _find(r"garden: left (ok|FAIL), right (ok|FAIL) \((\d+) violations?\)", out)
        if got is None:
            return "garden line missing"
        if (_ok(got[0]), _ok(got[1]), int(got[2])) != (v["left_ok"], v["right_ok"], len(v["violations"])):
            return f"garden line {got} wrong"
        return None

    return check


def expect_matrices(g, as_json: bool):
    mats = oracle.l_matrices(g)
    d, dh = len(g["bosons"]), len(g["fermions"])

    def check(rc, out):
        bad = _exit(rc, 0)
        if bad:
            return bad
        if as_json:
            obj = json.loads(out)
            if (obj["d"], obj["d_hat"]) != (d, dh):
                return "shape differs"
            if obj["L"] != mats or obj["R"] != [_transpose(m) for m in mats]:
                return "matrices differ"
            return None
        blocks = {h: rows for h, rows in _matrix_blocks(out) if re.fullmatch(r"[LR]\d+", h)}
        want = {f"L{c}": m for c, m in enumerate(mats, start=1)}
        want.update({f"R{c}": _transpose(m) for c, m in enumerate(mats, start=1)})
        return None if blocks == want else "printed matrices differ"

    return check


def expect_garden(g, as_json: bool):
    left, right = oracle.product_tables(g)
    viol = oracle.garden_violations(g)
    left_ok = not any(v[0] == "left" for v in viol)
    right_ok = not any(v[0] == "right" for v in viol)
    want_rc = 0 if not viol else 1

    def check(rc, out):
        bad = _exit(rc, want_rc)
        if bad:
            return bad
        if as_json:
            obj = json.loads(out)
            if [e["matrix"] for e in obj["left_products"]] != left:
                return "left products differ"
            if [e["matrix"] for e in obj["right_products"]] != right:
                return "right products differ"
            if (obj["left_ok"], obj["right_ok"]) != (left_ok, right_ok):
                return "verdicts differ"
            return None if _viol_set(obj["violations"]) == viol else "violations differ"
        head, _, tail = out.partition("\nsummary:")
        blocks = _matrix_blocks(head)
        names = [h for h, _ in blocks]
        if "left products:" not in names or "right products:" not in names:
            return "product sections missing"
        cut = names.index("right products:")
        got_left = [rows for h, rows in blocks[names.index("left products:") + 1:cut]]
        got_right = [rows for h, rows in blocks[cut + 1:]]
        if got_left != left or got_right != right:
            return "printed products differ"
        got = _find(r"^\s*left (ok|FAIL), right (ok|FAIL) \((\d+) violations?\)", tail)
        if got is None or (_ok(got[0]), _ok(got[1]), int(got[2])) != (left_ok, right_ok, len(viol)):
            return f"summary {got} wrong"
        shown = re.findall(r"^\s+(left|right) \((\d+),(\d+)\) cell \((\d+),(\d+)\): residual (-?\d+)",
                           tail, re.M)
        known = set(viol)
        if any((s, int(i), int(j), int(r), int(c), int(x)) not in known for s, i, j, r, c, x in shown):
            return "listed violation is not a violation"
        return None

    return check


def expect_fixtures(as_json: bool):
    total = sum(g["colors"] * (g["colors"] + 1) for g in (gen.rhombic("rd"), gen.rhombic("ri")))

    def check(rc, out):
        bad = _exit(rc, 0)
        if bad:
            return bad
        if as_json:
            obj = json.loads(out)
            got = (obj["matches"], obj["total"], len(obj["diffs"]))
            return None if got == (total, total, 0) else f"fixtures {got}"
        got = _find(r"(\d+)/(\d+) matrices match", out)
        return None if got == (str(total), str(total)) else f"fixtures {got}"

    return check


def expect_dashings(g, exhaustive: bool, as_json: bool):
    orbits, total = oracle.dashing_counts(g)
    feasible = orbits > 0

    def witness_ok(signs):
        if len(signs) != len(g["edges"]) or any(s not in (-1, 1) for s in signs):
            return False
        return not oracle.garden_violations(oracle.with_signs(g, signs))

    def check(rc, out):
        bad = _exit(rc, 0 if feasible else 1)
        if bad:
            return bad
        if as_json:
            obj = json.loads(out)
            got_feasible, signs = obj["feasible"], obj["witness"]
            got_orbits, got_total = obj["count_gauge_orbits"], obj["count_total"]
        else:
            f = _find(r"^feasible:\s*(yes|no)", out)
            w = _find(r"^witness \(edge order\):\s*([+-]+)", out)
            o = _find(r"^gauge orbits found:\s*(\d+)", out)
            t = _find(r"^total dashings:\s*(\d+)", out)
            if f is None or o is None:
                return "feasibility or orbit line missing"
            got_feasible = f[0] == "yes"
            signs = [1 if ch == "+" else -1 for ch in w[0]] if w else None
            got_orbits = int(o[0])
            got_total = int(t[0]) if t else None
        if got_feasible != feasible:
            return f"feasible {got_feasible}, expected {feasible}"
        if feasible and (signs is None or not witness_ok(signs)):
            return "witness missing or not a valid dashing"
        want_orbits = orbits if exhaustive else int(feasible)
        if got_orbits != want_orbits:
            return f"{got_orbits} gauge orbits, expected {want_orbits}"
        if exhaustive and got_total != total:
            return f"{got_total} dashings, expected {total}"
        return None

    return check


def expect_search(d: int, n: int, as_json: bool, dedupe: bool = True):
    classes = oracle.connected_classes(d, n)
    mult = oracle.connected_candidate_tuples(d, n) if classes == 1 and d <= 4 else None
    if dedupe:
        shown, each = classes, mult
    else:  # every raw candidate is its own class
        shown, each = mult, 1
        if mult is None:
            raise ValueError("--no-dedupe expectations need a brute-force count")
    raw = math.factorial(d) ** (n - 1)

    def check(rc, out):
        bad = _exit(rc, 0 if shown else 1)
        if bad:
            return bad
        if as_json:
            obj = json.loads(out)
            got_raw = obj.get("raw_size", obj.get("scanned"))
            sols = obj["solutions"]
            rows = [(s["connected"], s["multiplicity"]) for s in sols]
            for s in sols:
                sg = _graph_from_wire(s["graph"])
                if (len(sg["bosons"]), len(sg["fermions"]), sg["colors"]) != (d, d, n):
                    return "solution has the wrong shape"
                if oracle.components(sg) != 1 or oracle.garden_violations(sg):
                    return "solution is not a connected adinkra"
        else:
            r = _find(r"(\d+) raw", out)
            got_raw = int(r[0]) if r else None
            count = _find(r"^solutions:\s*(\d+)", out)
            rows = [(tag == "connected", int(m)) for tag, m in re.findall(
                r"solution \d+: .*?, (connected|disconnected), multiplicity (\d+)", out)]
            if count is None or int(count[0]) != len(rows):
                return "solution count line missing or inconsistent"
        if got_raw != raw:
            return f"raw size {got_raw}, expected {raw}"
        if len(rows) != shown:
            return f"{len(rows)} classes, expected {shown}"
        if not all(conn for conn, _ in rows):
            return "a shown class is disconnected"
        if each is not None and any(m != each for _, m in rows):
            return f"multiplicities {[m for _, m in rows]}, expected {each}"
        return None

    return check


# --- operation builders --------------------------------------------------------


def _graph_op(cmd: str, g, as_json: bool, exhaustive: bool = False) -> Op:
    argv = [cmd] + (["--exhaustive"] if exhaustive else []) + ["-"] + (["--json"] if as_json else [])
    kind = " ".join(a for a in argv if a != "-")
    if cmd == "check":
        expect = expect_check(g, as_json)
    elif cmd == "matrices":
        expect = expect_matrices(g, as_json)
    elif cmd == "garden":
        expect = expect_garden(g, as_json)
    else:
        expect = expect_dashings(g, exhaustive, as_json)
    return Op(label=f"{kind} {g['name']}", kind=kind, argv=tuple(argv),
              stdin=gen.to_json(g), expect=expect)


def _fixtures_op(as_json: bool) -> Op:
    argv = ("fixtures", "--json") if as_json else ("fixtures",)
    return Op(label=" ".join(argv), kind=" ".join(argv), argv=argv, expect=expect_fixtures(as_json))


def _search_op(d: int, n: int, as_json: bool, flag: str | None = None) -> Op:
    argv = ["search", "-d", str(d), "-n", str(n)] + ([flag] if flag else []) + (["--json"] if as_json else [])
    kind = " ".join(["search"] + ([flag] if flag else []) + (["--json"] if as_json else []))
    return Op(label=" ".join(argv), kind=kind, argv=tuple(argv),
              expect=expect_search(d, n, as_json, dedupe=flag != "--no-dedupe"))


def _canonical_op(topo, group, label: str) -> Op:
    return Op(label=f"canonical_form {label}", kind="canonical_form", topology=topo, group=group)


def _pass_and_fail(base, rng, name):
    """A relabeled, gauge-flipped copy and one with 1-2 edge signs negated."""
    good = gen.relabel(base, rng, name)
    bad = gen.flip_edges(gen.relabel(base, rng, name), rng, rng.choice((1, 2)), name)
    return good, bad


def _rhombic(rng):
    return [gen.relabel(gen.rhombic("rd"), rng, "rd"), gen.relabel(gen.rhombic("ri"), rng, "ri")]


def _rejects(rng):
    return _rhombic(rng) + [gen.relabel(gen.lift(gen.rhombic("rd")), rng, "lifted-rd")]


def _verify(rng) -> list[Op]:
    ops = []
    families = [(f"hypercube-{n}", gen.hypercube(n)) for n in range(3, 8)]
    families.append(("rd-from-tesseract", gen.rd_from_tesseract()))
    for name, base in families:
        for g in _pass_and_fail(base, rng, name):
            ops += [_graph_op("check", g, False), _graph_op("check", g, True)]
    hc8 = gen.hypercube(8)
    for g in _pass_and_fail(hc8, rng, "hypercube-8") + (gen.relabel(hc8, rng, "hypercube-8"),):
        ops += [_graph_op("check", g, False), _graph_op("check", g, True)]
    good, bad = _pass_and_fail(gen.hypercube(9), rng, "hypercube-9")
    ops.append(_graph_op("check", rng.choice((good, bad)), rng.random() < 0.5))
    for g in _rejects(rng):
        ops += [_graph_op("check", g, False), _graph_op("check", g, True)]
    return ops


def _tables(rng) -> list[Op]:
    ops = []
    graphs = []
    for n in range(3, 8):
        graphs += _pass_and_fail(gen.hypercube(n), rng, f"hypercube-{n}")
    graphs.append(gen.relabel(gen.rd_from_tesseract(), rng, "rd-from-tesseract"))
    graphs += _rejects(rng)
    for g in graphs:
        for cmd in ("garden", "matrices"):
            ops += [_graph_op(cmd, g, False), _graph_op(cmd, g, True)]
    ops += [_fixtures_op(False), _fixtures_op(True)]
    return ops


WITNESS_OPS = 16
WITNESS_POOL = 1024


def _spread_witnesses(rng) -> list:
    """Tesseract relabelings whose first-witness scan lengths sit near
    fixed, log-spaced targets, so a seed changes the inputs but not the
    mix of scan lengths."""
    base = gen.hypercube(4)
    pool = []
    for _ in range(WITNESS_POOL):
        g = gen.relabel(base, rng, "tesseract")
        pool.append((oracle.witness_position(g)[0], g))
    picks = []
    for i in range(WITNESS_OPS):
        target = math.log2(8) + (16.5 - 3) * (i + 0.5) / WITNESS_OPS
        k = min(range(len(pool)), key=lambda j: abs(math.log2(pool[j][0] + 1) - target))
        picks.append(pool.pop(k)[1])
    return picks


def _dash(rng) -> list[Op]:
    ops = [_graph_op("dashings", g, i % 2 == 1) for i, g in enumerate(_spread_witnesses(rng))]
    tess = gen.hypercube(4)
    ops += [_graph_op("dashings", gen.relabel(tess, rng, "tesseract"), i % 2 == 1, exhaustive=True)
            for i in range(4)]
    cube = gen.hypercube(3)
    for exhaustive in (False, True):
        g = gen.relabel(cube, rng, "cube")
        ops += [_graph_op("dashings", g, js, exhaustive) for js in (False, True)]
    infeasible = gen.relabel(gen.cube_quotient(6, 0b111111, rng), rng, "hypercube-6/111111")
    for g in [infeasible] + _rhombic(rng):
        for exhaustive in (False, True):
            ops += [_graph_op("dashings", g, js, exhaustive) for js in (False, True)]
    return ops


SEARCH_SPECS = ((2, 2), (2, 3), (4, 2), (4, 3), (4, 4), (4, 5), (6, 2), (6, 3), (6, 4))
CYCLE_TYPES = ((8,), (4, 4), (2, 2, 2, 2), (3, 5), (2, 6), (1, 7), (2, 3, 3), (1, 1, 6))


def _search(rng) -> list[Op]:
    flip = rng.randrange(2)  # which specs print text and which JSON
    ops = [_search_op(d, n, (i + flip) % 2 == 1) for i, (d, n) in enumerate(SEARCH_SPECS)]
    ops.append(_search_op(4, 4, rng.random() < 0.5, "--no-dedupe"))
    ops.append(_search_op(4, 3, rng.random() < 0.5, "--no-prune"))
    ident = tuple(range(8))
    bases = [(ident, gen.perm_with_cycle_type(ct, rng)) for ct in rng.sample(CYCLE_TYPES, 2)]
    for g, base in enumerate(bases):
        ops += [_canonical_op(gen.relabel_topology(base, rng), ("n2", g), f"d=8 N=2 class {g}")
                for _ in range(4)]
    a = (ident, gen.random_perm(8, rng), gen.random_perm(8, rng))
    b = a
    while oracle.topology_invariant(b) == oracle.topology_invariant(a):
        b = (ident, gen.random_perm(8, rng), gen.random_perm(8, rng))
    for g, base in enumerate((a, b)):
        ops += [_canonical_op(gen.relabel_topology(base, rng), ("n3", g), f"d=8 N=3 class {g}")
                for _ in range(4)]
    return ops


def _probes(name: str, rng) -> list[Op]:
    if name == "dash":
        return [_graph_op("dashings", gen.relabel(gen.hypercube(n), rng, f"hypercube-{n}"),
                          True, exhaustive=True) for n in range(5, 9)]
    if name == "search":
        return [_search_op(d, n, True) for d, n in ((6, 5), (8, 3), (8, 4))]
    return []


def build_warmups(name: str, seed: int) -> list[Op]:
    """One small operation of every kind the workload's round uses."""
    rng = random.Random(f"warm-up:{name}:{seed}")
    cube = gen.relabel(gen.hypercube(3), rng, "cube")
    both = (False, True)
    if name == "verify":
        return [_graph_op("check", cube, js) for js in both]
    if name == "tables":
        return ([_graph_op(cmd, cube, js) for cmd in ("garden", "matrices") for js in both]
                + [_fixtures_op(js) for js in both])
    if name == "dash":
        return [_graph_op("dashings", cube, js, ex) for ex in both for js in both]
    topo = gen.relabel_topology((tuple(range(4)), (1, 0, 3, 2)), rng)
    return ([_search_op(2, 2, js, flag) for flag in (None, "--no-dedupe", "--no-prune")
             for js in both] + [_canonical_op(topo, ("warm-up", 0), "d=4 N=2")])


def build(name: str, seed: int) -> Workload:
    """All inputs of one workload; the same seed gives the same inputs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    ops = {"verify": _verify, "tables": _tables, "dash": _dash, "search": _search}[name](rng)
    return Workload(name, ops, build_warmups(name, seed), _probes(name, rng))


def check_groups(keys: list[tuple[object, object]]) -> str | None:
    """canonical_form keys must agree within a class and differ across."""
    by_group: dict = {}
    for group, key in keys:
        by_group.setdefault(group, set()).add(key)
    for group, found in by_group.items():
        if len(found) != 1:
            return f"relabelings of class {group} got {len(found)} different keys"
    firsts = [next(iter(found)) for found in by_group.values()]
    if len(set(firsts)) != len(firsts):
        return "distinct classes got the same key"
    return None
