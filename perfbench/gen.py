"""Seeded input generation for the benchmark, independent of the program.

Graphs are plain dicts in the program's JSON wire layout, with edges
kept as (boson, fermion, color, sign) tuples, all 1-based.  Nothing here
imports the package under test: the same builders feed the oracle, so
expected answers never come from the program's own code.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_RHOMBIC = Path(__file__).with_name("rhombic.json")


def make_graph(name, n_colors, bosons, fermions, edges):
    return {
        "name": name,
        "colors": n_colors,
        "bosons": list(bosons),
        "fermions": list(fermions),
        "edges": [tuple(e) for e in edges],
    }


def to_json(g) -> str:
    """Wire-format text; edge order is kept as given."""
    return json.dumps(
        {
            "name": g["name"],
            "colors": g["colors"],
            "bosons": g["bosons"],
            "fermions": g["fermions"],
            "edges": [{"b": b, "f": f, "c": c, "s": s} for b, f, c, s in g["edges"]],
        }
    )


def _popcount(v: int) -> int:
    return bin(v).count("1")


def hypercube(n: int):
    """The n-cube with its standard odd dashing.

    Even-weight words are bosons, odd-weight words fermions; color c
    toggles bit c-1 and the edge at boson v carries sign
    (-1)^(set bits of v below bit c-1).
    """
    bos = [v for v in range(1 << n) if _popcount(v) % 2 == 0]
    fer = [v for v in range(1 << n) if _popcount(v) % 2 == 1]
    fi = {v: j + 1 for j, v in enumerate(fer)}
    edges = []
    for i, v in enumerate(bos, start=1):
        for c in range(1, n + 1):
            below = _popcount(v & ((1 << (c - 1)) - 1))
            edges.append((i, fi[v ^ (1 << (c - 1))], c, -1 if below % 2 else 1))
    lab = f"0{n}b"
    return make_graph(f"hypercube-{n}", n, [format(v, lab) for v in bos],
                      [format(v, lab) for v in fer], edges)


def cube_quotient(n: int, word: int, rng: random.Random):
    """The n-cube modulo the code {0, word}, with random signs.

    `word` must have even weight so the boson/fermion split survives.
    """
    reps = sorted({min(v, v ^ word) for v in range(1 << n)})
    bos = [v for v in reps if _popcount(v) % 2 == 0]
    fer = [v for v in reps if _popcount(v) % 2 == 1]
    fi = {v: j + 1 for j, v in enumerate(fer)}
    edges = []
    for i, v in enumerate(bos, start=1):
        for c in range(1, n + 1):
            w = v ^ (1 << (c - 1))
            edges.append((i, fi[min(w, w ^ word)], c, rng.choice((-1, 1))))
    lab = f"0{n}b"
    return make_graph(f"hypercube-{n}/{format(word, lab)}", n, [format(v, lab) for v in bos],
                      [format(v, lab) for v in fer], edges)


def rhombic(key: str):
    """rd or ri, as transcribed from the printed tables."""
    data = json.loads(_RHOMBIC.read_text(encoding="utf-8"))[key]
    return make_graph(data["name"], data["colors"],
                      [str(i) for i in range(1, data["bosons"] + 1)],
                      [str(j) for j in range(1, data["fermions"] + 1)],
                      [tuple(e) for e in data["edges"]])


def rd_from_tesseract():
    """The tesseract with antipodal bosons 0000 and 1111 deleted."""
    t = hypercube(4)
    keep = [i for i, lab in enumerate(t["bosons"], start=1) if lab not in ("0000", "1111")]
    renumber = {old: new for new, old in enumerate(keep, start=1)}
    edges = [(renumber[b], f, c, s) for b, f, c, s in t["edges"] if b in renumber]
    return make_graph("rd-from-tesseract", 4, [t["bosons"][i - 1] for i in keep],
                      t["fermions"], edges)


def lift(g):
    """Mirror a graph into equal counts with one new matching color."""
    d, dh, n = len(g["bosons"]), len(g["fermions"]), g["colors"]
    edges = list(g["edges"])
    edges += [(d + f, dh + b, c, s) for b, f, c, s in g["edges"]]
    edges += [(i, dh + i, n + 1, 1) for i in range(1, d + 1)]
    edges += [(d + j, j, n + 1, 1) for j in range(1, dh + 1)]
    return make_graph(f"lift({g['name']})", n + 1,
                      g["bosons"] + [x + "'" for x in g["fermions"]],
                      g["fermions"] + [x + "'" for x in g["bosons"]], edges)


def relabel(g, rng: random.Random, name: str):
    """Permute bosons, fermions and colors, flip a random vertex set
    (a gauge transformation) and shuffle the edge order."""
    d, dh, n = len(g["bosons"]), len(g["fermions"]), g["colors"]
    bp = list(range(1, d + 1))
    fp = list(range(1, dh + 1))
    cp = list(range(1, n + 1))
    rng.shuffle(bp)
    rng.shuffle(fp)
    rng.shuffle(cp)
    bflip = [rng.choice((-1, 1)) for _ in range(d + 1)]
    fflip = [rng.choice((-1, 1)) for _ in range(dh + 1)]
    edges = [(bp[b - 1], fp[f - 1], cp[c - 1], s * bflip[b] * fflip[f])
             for b, f, c, s in g["edges"]]
    rng.shuffle(edges)
    bos = [""] * d
    for old, new in enumerate(bp):
        bos[new - 1] = g["bosons"][old]
    fer = [""] * dh
    for old, new in enumerate(fp):
        fer[new - 1] = g["fermions"][old]
    return make_graph(name, n, bos, fer, edges)


def flip_edges(g, rng: random.Random, count: int, name: str):
    """Negate `count` distinct edge signs chosen at random."""
    picks = set(rng.sample(range(len(g["edges"])), count))
    edges = [(b, f, c, -s if k in picks else s)
             for k, (b, f, c, s) in enumerate(g["edges"])]
    return make_graph(name, g["colors"], g["bosons"], g["fermions"], edges)


def random_perm(d: int, rng: random.Random) -> tuple[int, ...]:
    p = list(range(d))
    rng.shuffle(p)
    return tuple(p)


def perm_with_cycle_type(cycles, rng: random.Random) -> tuple[int, ...]:
    """A random permutation whose cycle lengths are `cycles`."""
    d = sum(cycles)
    pts = list(range(d))
    rng.shuffle(pts)
    p = [0] * d
    k = 0
    for length in cycles:
        cyc = pts[k:k + length]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
        k += length
    return tuple(p)


def relabel_topology(topo, rng: random.Random):
    """beta . sigma_pi(c) . alpha^-1 for random alpha, beta, pi."""
    d = len(topo[0])
    alpha = random_perm(d, rng)
    beta = random_perm(d, rng)
    order = list(range(len(topo)))
    rng.shuffle(order)
    alpha_inv = [0] * d
    for i, a in enumerate(alpha):
        alpha_inv[a] = i
    return tuple(tuple(beta[topo[c][alpha_inv[i]]] for i in range(d)) for c in order)
