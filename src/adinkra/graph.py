"""Valise graph data model and the one representation of a color.

A valise graph is a two-level bipartite graph: one row of bosons, one row
of fermions.  Edges carry a color (one of N) and a sign (dashed = -1,
solid = +1).  For a graph to encode a pair of signed permutation matrix
lists (L_I, R_I) the edges of each color must form a partial matching:
no vertex may touch two edges of the same color.  ValiseGraph checks
this and every rule of validate when constructed, so no layer re-checks.

Matrix convention: L_I is d x dhat with L_I[i, j] equal to the sign of
the color-I edge between boson i+1 and fermion j+1 (0 if absent), and
R_I is its transpose.  colors(g) holds each L_I as a SignedPermutation
for every check; to_matrices builds dense int64 copies only for printing.

Vertices are addressed 1-based in every report and file format, matching
the usual convention for these graphs.  Internally a vertex is the pair
("B", i) or ("F", j) with 1-based i, j.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GraphFormatError

Node = tuple[str, int]

# Checked before anything is allocated in proportion to them: the filters
# and the garden check loop over color pairs, and dense matrices hold
# n_colors * d * d_hat int64 cells (hypercube-16 would need 137 GB).
MAX_COLORS = 256
MAX_ROW_LENGTH = 1 << 16
MAX_MATRIX_CELLS = 1 << 24


class Statistics(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"


class Vertex(NamedTuple):
    statistics: Statistics
    index: int  # 1-based within its row
    label: str

    @property
    def node(self) -> Node:
        return ("B" if self.statistics is Statistics.BOSON else "F", self.index)

    def __str__(self) -> str:
        return f"{self.node[0]}{self.index}"


class Edge(NamedTuple):
    boson: int  # 1-based boson index
    fermion: int  # 1-based fermion index
    color: int  # 1-based color
    sign: int  # -1 or +1


@dataclass(frozen=True)
class ValiseGraph:
    """Immutable edge-colored signed bipartite graph in valise form, valid
    by construction: GraphFormatError joins every problem validate finds."""

    name: str
    n_colors: int
    bosons: tuple[str, ...]
    fermions: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        problems = validate(self)
        if problems:
            raise GraphFormatError("; ".join(problems))

    @property
    def d(self) -> int:
        return len(self.bosons)

    @property
    def d_hat(self) -> int:
        return len(self.fermions)

    def boson_vertices(self) -> tuple[Vertex, ...]:
        return tuple(
            Vertex(Statistics.BOSON, i + 1, lab) for i, lab in enumerate(self.bosons)
        )

    def fermion_vertices(self) -> tuple[Vertex, ...]:
        return tuple(
            Vertex(Statistics.FERMION, j + 1, lab)
            for j, lab in enumerate(self.fermions)
        )

    def vertices(self) -> tuple[Vertex, ...]:
        return self.boson_vertices() + self.fermion_vertices()

    def with_name(self, name: str) -> "ValiseGraph":
        return dataclasses.replace(self, name=name)

    def with_signs(self, signs: Sequence[int]) -> "ValiseGraph":
        """Replace edge signs positionally; order follows self.edges."""
        if len(signs) != len(self.edges):
            raise ValueError(
                f"got {len(signs)} signs for {len(self.edges)} edges"
            )
        new_edges = tuple(
            Edge(e.boson, e.fermion, e.color, int(s))
            for e, s in zip(self.edges, signs)
        )
        return dataclasses.replace(self, edges=new_edges)


def node_str(node: Node) -> str:
    return f"{node[0]}{node[1]}"


def validate(g: ValiseGraph) -> list[str]:
    """Return all format violations, deterministically ordered.

    An empty list means the graph is a well-formed valise graph: name a
    str, n_colors an int within limits, label rows tuples of str within
    limits, edges a tuple of Edge with int fields, endpoints and colors
    in range, signs in {-1, +1}, no repeated (boson, fermion, color)
    triple, and each color a partial matching.  An int is exactly int,
    never a bool.  A wrongly typed field is one problem, and the checks
    that need its value are skipped.  Violations name 1-based edge
    positions.  Every ValiseGraph passes: its construction calls this.
    """
    problems = []
    if not isinstance(g.name, str):
        problems.append(f"name must be a string, got {type(g.name).__name__}")
    sizes = []  # each row's length, None when its type is wrong
    for what, labels in (("boson", g.bosons), ("fermion", g.fermions)):
        ok = isinstance(labels, tuple) and all(isinstance(x, str) for x in labels)
        sizes.append(len(labels) if ok else None)
        if not ok:
            problems.append(f"{what} labels must be a tuple of strings")
        elif len(labels) > MAX_ROW_LENGTH:
            problems.append(f"{what} row has {len(labels)} labels, above the "
                            f"limit MAX_ROW_LENGTH = {MAX_ROW_LENGTH}")
    d, dh = sizes
    n = g.n_colors
    if type(n) is not int:
        problems.append(f"n_colors must be an integer, got {type(n).__name__}")
        n = None
    elif n < 1:
        problems.append(f"n_colors must be at least 1, got {_num(n)}")
    elif n > MAX_COLORS:
        problems.append(f"n_colors {_num(n)} is above the limit "
                        f"MAX_COLORS = {MAX_COLORS}")
    if not isinstance(g.edges, tuple):
        problems.append(f"edges must be a tuple of Edge, got {type(g.edges).__name__}")
        return problems

    typed = []
    for pos, e in enumerate(g.edges, start=1):
        if not isinstance(e, Edge):
            problems.append(f"edge {pos} must be an Edge, got {type(e).__name__}")
            continue
        if not type(e.boson) is type(e.fermion) is type(e.color) is type(e.sign) is int:
            problems += [f"edge {pos}: {f} must be an integer, got {type(v).__name__}"
                         for f, v in zip(Edge._fields, e) if type(v) is not int]
            continue
        typed.append((pos, e))
        if d is not None and not 1 <= e.boson <= d:
            problems.append(
                f"edge {pos}: boson index {_num(e.boson)} out of range 1..{d}"
            )
        if dh is not None and not 1 <= e.fermion <= dh:
            problems.append(
                f"edge {pos}: fermion index {_num(e.fermion)} out of range 1..{dh}"
            )
        if n is not None and not 1 <= e.color <= n:
            problems.append(f"edge {pos}: color {_num(e.color)} out of range 1..{n}")
        if e.sign not in (-1, 1):
            problems.append(f"edge {pos}: sign must be -1 or +1, got {_num(e.sign)}")

    seen_triple: dict[tuple[int, int, int], int] = {}
    seen_slot: dict[tuple[str, int, int], int] = {}
    for pos, e in typed:
        triple = (e.boson, e.fermion, e.color)
        if triple in seen_triple:
            problems.append(
                f"edges {seen_triple[triple]} and {pos}: duplicate edge (boson "
                f"{_num(e.boson)}, fermion {_num(e.fermion)}, color {_num(e.color)})"
            )
            continue  # a duplicate would double-report the matching slots
        seen_triple[triple] = pos
        for slot in (("boson", e.boson, e.color), ("fermion", e.fermion, e.color)):
            if slot in seen_slot:
                problems.append(
                    f"edges {seen_slot[slot]} and {pos}: {slot[0]} {_num(slot[1])} "
                    f"has two edges of color {_num(slot[2])}"
                )
            else:
                seen_slot[slot] = pos
    return problems


class SignedPermutation(NamedTuple):
    """A matrix with entries in {-1, 0, 1} and at most one nonzero per
    row and per column, held by its nonzeros (all indices 0-based)."""

    shape: tuple[int, int]
    rows: dict[int, tuple[int, int]]  # row -> (col, sign)
    cols: dict[int, tuple[int, int]]  # col -> (row, sign)


def colors(g: ValiseGraph) -> list[SignedPermutation]:
    """Each color's L_I as a signed partial permutation, read from the edges;
    ValueError for more than MAX_MATRIX_CELLS cells."""
    cells = g.n_colors * g.d * g.d_hat
    if cells > MAX_MATRIX_CELLS:
        raise ValueError(f"{g.n_colors} x {g.d} x {g.d_hat} = {cells} matrix cells is "
                         f"above the limit MAX_MATRIX_CELLS = {MAX_MATRIX_CELLS}")
    perms = [SignedPermutation((g.d, g.d_hat), {}, {}) for _ in range(g.n_colors)]
    for e in g.edges:
        p = perms[e.color - 1]
        p.rows[e.boson - 1] = (e.fermion - 1, e.sign)
        p.cols[e.fermion - 1] = (e.boson - 1, e.sign)
    return perms


def to_matrices(g: ValiseGraph) -> list[np.ndarray]:
    """The L matrices as read-only d x dhat int64 arrays, for printing."""
    mats = []
    for p in colors(g):
        m = np.zeros(p.shape, dtype=np.int64)
        for r, (c, s) in p.rows.items():
            m[r, c] = s
        m.setflags(write=False)
        mats.append(m)
    return mats


def as_exact(matrix: object) -> np.ndarray:
    """Coerce to an exact int64 2-d array, refusing lossy input."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.issubdtype(a.dtype, np.integer):
        exact = np.asarray(a, dtype=np.int64)
        if not np.array_equal(exact, a):
            raise ValueError("matrix entries must be exact integers")
        a = exact
    return a.astype(np.int64, copy=False)


def _check_shapes(matrices: Sequence[object]) -> list[np.ndarray]:
    if not matrices:
        raise ValueError("need at least one matrix")
    mats = [as_exact(m) for m in matrices]
    for k, m in enumerate(mats, start=1):
        if m.shape != mats[0].shape:
            raise ValueError(f"matrix {k} has shape {m.shape}, expected {mats[0].shape}")
    return mats


def signed_permutations(matrices: Sequence[object]) -> list[SignedPermutation]:
    """Read each matrix as a signed partial permutation; ValueError for
    an empty list, unequal shapes, inexact entries, entries outside -1,
    0, 1, or two nonzeros in one row (else column, the first named)."""
    out = []
    for k, a in enumerate(_check_shapes(matrices), start=1):
        rs, cs = np.nonzero(a)
        rs, cs, vals = rs.tolist(), cs.tolist(), a[rs, cs].tolist()
        bad = sorted({v for v in vals if v not in (-1, 1)})
        if bad:
            raise ValueError(f"matrix {k} has entries outside -1, 0, 1: {bad}")
        rows = dict(zip(rs, zip(cs, vals)))
        cols = dict(zip(cs, zip(rs, vals)))
        for what, idx, held in (("row", rs, rows), ("column", cs, cols)):
            if len(held) < len(idx):
                twice = min(i for i, n in Counter(idx).items() if n > 1)
                raise ValueError(f"matrix {k} has two nonzeros in {what} {twice + 1}")
        out.append(SignedPermutation(a.shape, rows, cols))
    return out


def from_matrices(
    name: str,
    matrices: Sequence[object],
    boson_labels: Sequence[str] | None = None,
    fermion_labels: Sequence[str] | None = None,
) -> ValiseGraph:
    """Build the valise graph whose L matrices are the given arrays, each
    read by signed_permutations, which names the refusals."""
    perms = signed_permutations(matrices)
    d, dh = perms[0].shape
    edges = [
        Edge(r + 1, c + 1, ci, s)
        for ci, p in enumerate(perms, start=1)
        for r, (c, s) in p.rows.items()
    ]
    if boson_labels is None:
        boson_labels = [str(i + 1) for i in range(d)]
    if fermion_labels is None:
        fermion_labels = [str(j + 1) for j in range(dh)]
    if len(boson_labels) != d or len(fermion_labels) != dh:
        raise ValueError("label counts do not match matrix shape")
    return ValiseGraph(
        name=name,
        n_colors=len(perms),
        bosons=tuple(boson_labels),
        fermions=tuple(fermion_labels),
        edges=tuple(sorted(edges)),
    )


def spanning_forest(g: ValiseGraph) -> list[tuple[int, Node, Node]]:
    """Breadth-first spanning forest, colors ignored: roots in vertex
    order, each tree grown first in first out, a vertex's edges tried in
    edge order.  Returns the tree edges as (0-based edge index, parent,
    child) in discovery order, so a parent is a root or an earlier child.
    """
    adj: dict[Node, list[tuple[int, Node]]] = {v.node: [] for v in g.vertices()}
    for idx, e in enumerate(g.edges):
        b, f = ("B", e.boson), ("F", e.fermion)
        adj[b].append((idx, f))
        adj[f].append((idx, b))
    seen: set[Node] = set()
    forest: list[tuple[int, Node, Node]] = []
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for idx, w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    forest.append((idx, u, w))
                    queue.append(w)
    return forest


def connected_components(g: ValiseGraph) -> list[frozenset[Node]]:
    """Connected components over all vertices, ignoring colors and signs.

    Isolated vertices form singleton components.  Components are sorted
    by their smallest member for determinism.
    """
    root = {v.node: v.node for v in g.vertices()}
    for _, parent, child in spanning_forest(g):
        root[child] = root[parent]
    comps: dict[Node, set[Node]] = {}
    for node, r in root.items():
        comps.setdefault(r, set()).add(node)
    return sorted((frozenset(c) for c in comps.values()), key=min)


def is_connected(g: ValiseGraph) -> bool:
    return len(connected_components(g)) <= 1


# --- JSON wire format ---------------------------------------------------
#
# {"name": str, "colors": int, "bosons": [str], "fermions": [str],
#  "edges": [{"b": int, "f": int, "c": int, "s": -1 | 1}, ...]}
#
# to_json is canonical: edges sorted by (b, f, c), fixed key order and
# layout, so equal graphs serialize to identical bytes.

_TOP_KEYS = ("name", "colors", "bosons", "fermions", "edges")
_EDGE_KEYS = ("b", "f", "c", "s")


def to_json_obj(g: ValiseGraph) -> dict:
    """The wire format as a plain dict (same content as to_json)."""
    return {
        "name": g.name,
        "colors": g.n_colors,
        "bosons": list(g.bosons),
        "fermions": list(g.fermions),
        "edges": [
            {"b": e.boson, "f": e.fermion, "c": e.color, "s": e.sign}
            for e in sorted(g.edges)
        ],
    }


def to_json(g: ValiseGraph) -> str:
    """Serialize to the canonical JSON text (deterministic bytes)."""
    lines = [
        "{",
        f'  "name": {json.dumps(g.name)},',
        f'  "colors": {g.n_colors},',
        f'  "bosons": {json.dumps(list(g.bosons))},',
        f'  "fermions": {json.dumps(list(g.fermions))},',
        '  "edges": [',
    ]
    ordered = sorted(g.edges)
    for k, e in enumerate(ordered):
        comma = "," if k + 1 < len(ordered) else ""
        lines.append(
            f'    {{"b": {e.boson}, "f": {e.fermion}, '
            f'"c": {e.color}, "s": {e.sign}}}{comma}'
        )
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GraphFormatError(msg)


def _num(v: int) -> str:
    # Python refuses to print an int of more than 4,300 digits.
    try:
        return str(v)
    except ValueError:
        return f"a {'negative ' * (v < 0)}{v.bit_length()}-bit integer"


def from_json(text: str) -> ValiseGraph:
    """Parse the JSON wire format, rejecting malformed input loudly.

    Only the JSON shape is checked here (keys, label lists, edge
    objects); the field rules, types included, are validate's, run by
    construction.  Every refusal is a GraphFormatError naming it.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    _require(isinstance(obj, dict), "top level must be a JSON object")
    extra = sorted(set(obj) - set(_TOP_KEYS))
    _require(not extra, f"unknown keys: {', '.join(extra)}")
    missing = [k for k in _TOP_KEYS if k not in obj]
    _require(not missing, f"missing keys: {', '.join(missing)}")
    for key in ("bosons", "fermions"):
        # Checked here, or tuple() would split a string into labels.
        _require(
            isinstance(obj[key], list)
            and all(isinstance(x, str) for x in obj[key]),
            f'"{key}" must be a list of strings',
        )
    _require(isinstance(obj["edges"], list), '"edges" must be a list')
    edges = []
    for pos, raw in enumerate(obj["edges"], start=1):
        _require(isinstance(raw, dict), f"edge {pos} must be an object")
        extra = sorted(set(raw) - set(_EDGE_KEYS))
        _require(not extra, f"edge {pos}: unknown keys: {', '.join(extra)}")
        missing = [k for k in _EDGE_KEYS if k not in raw]
        _require(not missing, f"edge {pos}: missing keys: {', '.join(missing)}")
        edges.append(Edge(raw["b"], raw["f"], raw["c"], raw["s"]))
    return ValiseGraph(
        name=obj["name"],
        n_colors=obj["colors"],
        bosons=tuple(obj["bosons"]),
        fermions=tuple(obj["fermions"]),
        edges=tuple(edges),
    )


def load(path: str) -> ValiseGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def dump(g: ValiseGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(g))
