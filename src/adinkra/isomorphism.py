"""Edge-colored isomorphism search for valise graphs.

Backtracking assignment of bosons with forced fermion images: once a
boson is mapped, each of its colored edges pins down one fermion image,
so contradictions surface early.  Optionally the colors themselves may
be permuted, and signs may be ignored, matched exactly, or matched up
to vertex sign flips (the gauge of the garden relations).

The gauge test per unsigned isomorphism is exact, not sampled: the
ratio of target sign to source sign defines a labeling of the source
edges, and it extends to a vertex potential iff the potentials read off
a spanning forest agree on every non-tree edge.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .graph import ValiseGraph, spanning_forest

SIGN_MODES = ("ignore", "exact", "gauge")


class Isomorphism(NamedTuple):
    bosons: tuple[int, ...]  # bosons[i-1] = image of boson i (1-based)
    fermions: tuple[int, ...]
    colors: tuple[int, ...]  # colors[c-1] = image of color c


def _incidence(
    g: ValiseGraph,
) -> tuple[list[dict[int, tuple[int, int]]], list[dict[int, tuple[int, int]]]]:
    """Per-vertex color -> (partner, sign) maps (0-based vertex lists)."""
    b_inc: list[dict[int, tuple[int, int]]] = [dict() for _ in range(g.d)]
    f_inc: list[dict[int, tuple[int, int]]] = [dict() for _ in range(g.d_hat)]
    for e in g.edges:
        b_inc[e.boson - 1][e.color] = (e.fermion, e.sign)
        f_inc[e.fermion - 1][e.color] = (e.boson, e.sign)
    return b_inc, f_inc


def _color_profile(inc: dict[int, tuple[int, int]], gamma: dict[int, int] | None):
    colors = inc.keys() if gamma is None else (gamma[c] for c in inc)
    return frozenset(colors)


def find_isomorphisms(
    g1: ValiseGraph,
    g2: ValiseGraph,
    signs: str = "ignore",
    color_permutation: bool = True,
) -> Iterator[Isomorphism]:
    """Yield all isomorphisms g1 -> g2 under the requested sign mode.

    signs: "ignore" drops signs, "exact" requires equal signs edge for
    edge, "gauge" accepts sign patterns differing by vertex flips.
    Deterministic order: color permutations lexicographically, then
    boson images tried ascending.
    """
    if signs not in SIGN_MODES:
        raise ValueError(f"signs must be one of {SIGN_MODES}, got {signs!r}")
    if (
        g1.d != g2.d
        or g1.d_hat != g2.d_hat
        or g1.n_colors != g2.n_colors
        or len(g1.edges) != len(g2.edges)
    ):
        return
    b1, f1 = _incidence(g1)
    b2, f2 = _incidence(g2)
    exact = signs == "exact"
    color_orders = (
        itertools.permutations(range(1, g1.n_colors + 1))
        if color_permutation
        else [tuple(range(1, g1.n_colors + 1))]
    )
    for order in color_orders:
        gamma = {c: order[c - 1] for c in range(1, g1.n_colors + 1)}
        profiles2 = [_color_profile(inc, None) for inc in b2]

        def backtrack(i: int, bmap: dict[int, int], fmap: dict[int, int],
                      used_b: set[int], used_f: set[int]) -> Iterator[Isomorphism]:
            if i > g1.d:
                if len(fmap) < g1.d_hat:
                    # Isolated fermions: extend over unused ones.
                    free1 = [j for j in range(1, g1.d_hat + 1)
                             if j not in fmap and not f1[j - 1]]
                    free2 = [j for j in range(1, g2.d_hat + 1)
                             if j not in used_f and not f2[j - 1]]
                    if len(free1) != len(free2):
                        return
                    for extra in itertools.permutations(free2):
                        full = dict(fmap)
                        full.update(zip(free1, extra))
                        yield Isomorphism(
                            tuple(bmap[b] for b in range(1, g1.d + 1)),
                            tuple(full[f] for f in range(1, g1.d_hat + 1)),
                            order,
                        )
                    return
                yield Isomorphism(
                    tuple(bmap[b] for b in range(1, g1.d + 1)),
                    tuple(fmap[f] for f in range(1, g1.d_hat + 1)),
                    order,
                )
                return
            want = _color_profile(b1[i - 1], gamma)
            for target in range(1, g2.d + 1):
                if target in used_b or profiles2[target - 1] != want:
                    continue
                new_f: dict[int, int] = {}
                ok = True
                for c, (fj, s) in b1[i - 1].items():
                    tf, ts = b2[target - 1][gamma[c]]
                    if exact and ts != s:
                        ok = False
                        break
                    known = fmap.get(fj, new_f.get(fj))
                    if known is not None:
                        if known != tf:
                            ok = False
                            break
                    elif tf in used_f or tf in new_f.values():
                        ok = False
                        break
                    else:
                        new_f[fj] = tf
                if not ok:
                    continue
                bmap[i] = target
                fmap.update(new_f)
                used_b.add(target)
                used_f.update(new_f.values())
                yield from backtrack(i + 1, bmap, fmap, used_b, used_f)
                del bmap[i]
                for fj in new_f:
                    del fmap[fj]
                used_b.discard(target)
                used_f.difference_update(new_f.values())

        for iso in backtrack(1, {}, {}, set(), set()):
            if signs != "gauge" or _gauge_compatible(g1, g2, iso):
                yield iso


def _gauge_compatible(g1: ValiseGraph, g2: ValiseGraph, iso: Isomorphism) -> bool:
    """Do the two sign patterns differ by a vertex sign flip?

    The per-edge ratio target/source must be a coboundary eps_u * eps_w;
    equivalently the potentials propagated along a spanning forest must
    be consistent on every edge.  The ratio is kept per edge, since
    parallel edges of different colors join the same two vertices with
    independent signs.
    """
    s2 = {(e.boson, e.fermion, e.color): e.sign for e in g2.edges}
    ratio = [  # signs are +-1, so ratio = product
        s2[(iso.bosons[e.boson - 1], iso.fermions[e.fermion - 1],
            iso.colors[e.color - 1])] * e.sign
        for e in g1.edges
    ]
    pot = {v.node: 1 for v in g1.vertices()}
    for idx, parent, child in spanning_forest(g1):
        pot[child] = pot[parent] * ratio[idx]
    return all(
        pot[("B", e.boson)] * pot[("F", e.fermion)] == r
        for e, r in zip(g1.edges, ratio)
    )


def find_isomorphism(
    g1: ValiseGraph,
    g2: ValiseGraph,
    signs: str = "ignore",
    color_permutation: bool = True,
) -> Isomorphism | None:
    """First isomorphism in deterministic order, or None."""
    return next(
        find_isomorphisms(g1, g2, signs=signs, color_permutation=color_permutation),
        None,
    )


def is_isomorphic(
    g1: ValiseGraph,
    g2: ValiseGraph,
    signs: str = "ignore",
    color_permutation: bool = True,
) -> bool:
    return find_isomorphism(g1, g2, signs, color_permutation) is not None
