"""Builders for the valise graph catalog.

Two graphs are stored as explicit L-matrix literals transcribed from the
printed tables (rhombic dodecahedron and rhombic icosahedron); the rest
are constructed: hypercubes with the standard odd dashing, the
lift/doubling of an arbitrary valise graph, and the rhombic dodecahedron
realized by deleting two antipodal bosons from the tesseract.
"""

from __future__ import annotations

import re

from . import graph as gm
from .errors import GraphFormatError
from .graph import Edge, ValiseGraph, from_matrices

# Each inner list is one L matrix, rows = bosons, columns = fermions.
_RD_L = [
    [
        [0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1, 0, 0],
    ],
    [
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, -1, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
    ],
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    [
        [0, 1, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, -1, 0],
    ],
]

_RI_L = [
    [
        [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
    ],
    [
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    ],
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1],
    ],
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    ],
    [
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    ],
]


def rhombic_dodecahedron() -> ValiseGraph:
    """6 bosons, 8 fermions, 4 colors, 24 edges (one rhombic face each)."""
    return from_matrices("rhombic-dodecahedron", _RD_L)


def rhombic_icosahedron() -> ValiseGraph:
    """11 bosons, 11 fermions, 5 colors, 40 edges."""
    return from_matrices("rhombic-icosahedron", _RI_L)


def bow_tie() -> ValiseGraph:
    """Smallest two-color example: one boson joined to two fermions.

    The shape is folklore and its vertex content is a convention; here
    it is the 2-color graph on 1 boson + 2 fermions with one edge of
    each color at the boson (doubled color incidence is not a valid
    valise graph).
    """
    return ValiseGraph(
        name="bow-tie",
        n_colors=2,
        bosons=("1",),
        fermions=("1", "2"),
        edges=(Edge(1, 1, 1, 1), Edge(1, 2, 2, 1)),
    )


def _max_hypercube_dimension() -> int:
    """The largest n whose n matrices of 2^(n-1) x 2^(n-1) cells fit in
    MAX_MATRIX_CELLS, so that graph.colors accepts hypercube(n)."""
    n = 1
    while (n + 1) << 2 * n <= gm.MAX_MATRIX_CELLS:
        n += 1
    return n


MAX_HYPERCUBE_DIMENSION = _max_hypercube_dimension()


def hypercube(n: int) -> ValiseGraph:
    """n-cube valise: even-parity bitstrings are bosons, odd are fermions.

    Color I toggles bit I - 1 (counting from the least significant
    bit); the edge at vertex v gets sign (-1)^(number of set bits of v
    below the toggled position), which is the same for both endpoints.
    This standard dashing satisfies the garden algebra for every n.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"hypercube dimension must be an integer >= 1, got {n}")
    if n > MAX_HYPERCUBE_DIMENSION:
        raise ValueError(
            f"hypercube dimension {n} is above {MAX_HYPERCUBE_DIMENSION}, the "
            f"largest whose matrices fit in the limit MAX_MATRIX_CELLS = "
            f"{gm.MAX_MATRIX_CELLS}"
        )
    bosons = [v for v in range(1 << n) if bin(v).count("1") % 2 == 0]
    fermions = [v for v in range(1 << n) if bin(v).count("1") % 2 == 1]
    b_index = {v: i + 1 for i, v in enumerate(bosons)}
    f_index = {v: j + 1 for j, v in enumerate(fermions)}
    edges = []
    for v in bosons:
        for color in range(1, n + 1):
            w = v ^ (1 << (color - 1))
            sign = -1 if bin(v & ((1 << (color - 1)) - 1)).count("1") % 2 else 1
            edges.append(Edge(b_index[v], f_index[w], color, sign))
    label = f"0{n}b"
    return ValiseGraph(
        name=f"hypercube-{n}",
        n_colors=n,
        bosons=tuple(format(v, label) for v in bosons),
        fermions=tuple(format(v, label) for v in fermions),
        edges=tuple(sorted(edges)),
    )


def diamond() -> ValiseGraph:
    """The 4-cycle on 2 bosons + 2 fermions with 2 colors."""
    return hypercube(2).with_name("diamond")


def cube() -> ValiseGraph:
    return hypercube(3).with_name("cube")


def tesseract() -> ValiseGraph:
    return hypercube(4).with_name("tesseract")


def lift(g: ValiseGraph) -> ValiseGraph:
    """Double a valise graph into N+1 colors (the Klein-flip lift).

    The output keeps the original graph on colors 1..N, adds a mirror
    copy with statistics swapped (mirrored fermions become bosons and
    vice versa) carrying the transpose graph with the same signs, and
    joins every vertex to its mirror by a new color N+1 edge of sign +1.
    The sign conventions on the mirror block and the new matching are a
    documented choice; candidacy verdicts do not depend on them.
    """
    d, dh, n = g.d, g.d_hat, g.n_colors
    bosons = g.bosons + tuple(lab + "'" for lab in g.fermions)
    fermions = g.fermions + tuple(lab + "'" for lab in g.bosons)
    edges = [Edge(e.boson, e.fermion, e.color, e.sign) for e in g.edges]
    # Mirror block: boson d+j mirrors fermion j, fermion dh+i mirrors boson i.
    edges += [Edge(d + e.fermion, dh + e.boson, e.color, e.sign) for e in g.edges]
    edges += [Edge(i, dh + i, n + 1, 1) for i in range(1, d + 1)]
    edges += [Edge(d + j, j, n + 1, 1) for j in range(1, dh + 1)]
    return ValiseGraph(
        name=f"lift({g.name})",
        n_colors=n + 1,
        bosons=bosons,
        fermions=fermions,
        edges=tuple(sorted(edges)),
    )


def lifted_rd() -> ValiseGraph:
    return lift(rhombic_dodecahedron()).with_name("lifted-rd")


def rd_from_tesseract_deletion() -> ValiseGraph:
    """Delete the two antipodal bosons 0000 and 1111 from the tesseract.

    The leftover 6+8 graph inherits the tesseract's signs and is
    color-isomorphic to rhombic_dodecahedron() up to vertex sign flips.
    """
    t = hypercube(4)
    drop = {"0000", "1111"}
    keep = [i + 1 for i, lab in enumerate(t.bosons) if lab not in drop]
    renumber = {old: new + 1 for new, old in enumerate(keep)}
    edges = tuple(
        Edge(renumber[e.boson], e.fermion, e.color, e.sign)
        for e in t.edges
        if e.boson in renumber
    )
    return ValiseGraph(
        name="rd-from-tesseract",
        n_colors=4,
        bosons=tuple(t.bosons[i - 1] for i in keep),
        fermions=t.fermions,
        edges=edges,
    )


_BUILTINS = {
    "bow-tie": bow_tie,
    "diamond": diamond,
    "cube": cube,
    "tesseract": tesseract,
    "rhombic-dodecahedron": rhombic_dodecahedron,
    "rd": rhombic_dodecahedron,
    "rhombic-icosahedron": rhombic_icosahedron,
    "ri": rhombic_icosahedron,
    "lifted-rd": lifted_rd,
    "rd-from-tesseract": rd_from_tesseract_deletion,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS)) + ("hypercube-<n>",)


def builtin(name: str) -> ValiseGraph:
    """Look up a builtin graph by name; hypercube-<n> is parameterized."""
    key = name.strip().lower()
    if key in _BUILTINS:
        return _BUILTINS[key]()
    m = re.fullmatch(r"hypercube-(\d+)", key)
    if m:
        try:
            return hypercube(int(m.group(1)))
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from exc
    raise GraphFormatError(
        f"unknown builtin graph {name!r}; available: {', '.join(BUILTIN_NAMES)}"
    )

