"""Property tests: each fast path against its slow oracle on inputs
drawn by hypothesis (skipped when hypothesis is not installed).

- the signed-permutation garden kernel against the dense products;
- the gauge-fix forest: acyclic, spanning, E - V + #components free;
- the forest-based gauge test against the 2^V vertex-flip scan;
- the topology orbit walk against every color order and relabeling;
- canonical_form, the least-member test and |Aut| against every color
  order and relabeling;
- the topology scan with dedupe on against its own dedupe-off leaves
  grouped by canonical form;
- construction from arbitrary field values against the JSON round trip:
  a graph that builds serializes to JSON that reads back as itself.
"""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from adinkra import (
    Edge,
    GraphFormatError,
    SearchSpec,
    ValiseGraph,
    colors,
    from_json,
    from_matrices,
    garden_check,
    gauge_fix,
    product_tables,
    to_json,
)
from adinkra.isomorphism import Isomorphism, _gauge_compatible
from adinkra.search import _least, _scan, canonical_form
from conftest import (
    _orbit,
    brute_canonical_form,
    brute_gauge_compatible,
    brute_topology_orbit,
    dense_garden_check,
    dense_product_tables,
)

# Fixed example sequence, and no example database written to disk.
PROPERTY = dict(deadline=None, derandomize=True, database=None)


@st.composite
def signed_partial_permutations(draw, max_side=6, max_colors=4):
    """One to max_colors matrices of one random shape, each with
    entries in {-1, 0, 1} and at most one nonzero per row and column."""
    d = draw(st.integers(1, max_side))
    dh = draw(st.integers(1, max_side))
    mats = []
    for _ in range(draw(st.integers(1, max_colors))):
        m = np.zeros((d, dh), dtype=np.int64)
        rows = draw(st.permutations(range(d)))
        cols = draw(st.permutations(range(dh)))
        for r, c in zip(rows[:draw(st.integers(0, min(d, dh)))], cols):
            m[r, c] = draw(st.sampled_from((-1, 1)))
        mats.append(m)
    return mats


@settings(max_examples=300, **PROPERTY)
@given(signed_partial_permutations())
def test_kernel_equals_dense_oracle(mats):
    ls = colors(from_matrices("drawn", mats))
    assert garden_check(ls) == dense_garden_check(mats)
    for sparse, dense in zip(product_tables(ls), dense_product_tables(mats)):
        assert [lab for lab, _ in sparse] == [lab for lab, _ in dense]
        for (_, m), (_, dense_m) in zip(sparse, dense):
            assert m.shape == dense_m.shape and np.array_equal(m, dense_m)


@settings(max_examples=200, **PROPERTY)
@given(signed_partial_permutations(max_side=8))
def test_gauge_fix_leaves_cycle_rank_free(mats):
    g = from_matrices("drawn", mats)
    forest = gauge_fix(g)
    parent = {v.node: v.node for v in g.vertices()}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for idx in forest:
        a, b = find(("B", g.edges[idx].boson)), find(("F", g.edges[idx].fermion))
        assert a != b  # a forest edge never closes a cycle
        parent[a] = b
    # ... and the forest spans: every edge joins one forest component.
    assert all(find(("B", e.boson)) == find(("F", e.fermion)) for e in g.edges)
    components = len({find(node) for node in parent})
    free = len(g.edges) - len(forest)
    assert free == len(g.edges) - (g.d + g.d_hat) + components


@settings(max_examples=200, **PROPERTY)
@given(signed_partial_permutations(max_side=4), st.data())
def test_gauge_compatible_agrees_with_vertex_flip_scan(mats, data):
    g1 = from_matrices("drawn", mats)
    bosons = data.draw(st.permutations(range(1, g1.d + 1)))
    fermions = data.draw(st.permutations(range(1, g1.d_hat + 1)))
    colors = data.draw(st.permutations(range(1, g1.n_colors + 1)))
    iso = Isomorphism(tuple(bosons), tuple(fermions), tuple(colors))
    # The image under a vertex flip, or with signs drawn independently.
    flip = data.draw(st.booleans())
    eps = {
        node: data.draw(st.sampled_from((-1, 1)))
        for node in [("B", i) for i in range(1, g1.d + 1)]
        + [("F", j) for j in range(1, g1.d_hat + 1)]
    }
    edges = []
    for e in g1.edges:
        if flip:
            sign = eps[("B", e.boson)] * eps[("F", e.fermion)] * e.sign
        else:
            sign = data.draw(st.sampled_from((-1, 1)))
        edges.append(Edge(bosons[e.boson - 1], fermions[e.fermion - 1],
                          colors[e.color - 1], sign))
    g2 = ValiseGraph("image", g1.n_colors, g1.bosons, g1.fermions,
                     tuple(sorted(edges)))
    assert _gauge_compatible(g1, g2, iso) == brute_gauge_compatible(g1, g2, iso)


@st.composite
def normalized_topologies(draw, max_d=5, max_colors=3):
    """Color 1 the identity of range(d), colors 2..N any permutations."""
    d = draw(st.integers(1, max_d))
    rest = draw(st.lists(st.permutations(range(d)), max_size=max_colors - 1))
    return (tuple(range(d)), *map(tuple, rest))


@settings(max_examples=200, **PROPERTY)
@given(normalized_topologies())
def test_orbit_equals_brute_force_orbit(topology):
    assert _orbit(topology) == brute_topology_orbit(topology)


@st.composite
def topologies_with_repeats(draw, max_d=5, max_colors=4):
    """Color 1 the identity of range(d), colors 2..N drawn from a pool of
    one to three permutations, so colors often repeat (as only an
    unpruned search has them)."""
    d = draw(st.integers(1, max_d))
    pool = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
    rest = draw(st.lists(st.sampled_from(pool), max_size=max_colors - 1))
    return (tuple(range(d)), *map(tuple, rest))


@settings(max_examples=200, **PROPERTY)
@given(topologies_with_repeats())
def test_least_member_and_stabilizer_equal_brute_force(topology):
    d, n = len(topology[0]), len(topology)
    if n <= 3:
        assert canonical_form(topology) == brute_canonical_form(topology)
    orbit = brute_topology_orbit(topology)
    least = min(orbit)
    assert (_least(topology, stop=True) is not None) == (topology == least)
    key, aut = _least(least, stop=True)
    assert (least[0], *key) == least
    assert len(orbit) * aut == math.factorial(d) * math.factorial(n)


def test_dedupe_on_records_group_the_dedupe_off_leaves():
    # The two modes of _scan against each other: the dedupe-off leaves,
    # grouped by canonical form, are the dedupe-on classes, each with its
    # least index as first_index, its size as multiplicity and its least
    # leaf as representative, in order of first index.
    specs = [(d, n, True) for d in range(1, 7) for n in range(1, 5)]
    for d, n, prune in specs + [(4, 5, True), (8, 2, True), (8, 3, True),
                                (4, 3, False)]:
        every, every_pruned = _scan(SearchSpec(d, n, dedupe=False), prune)
        groups = {}
        for index, mult, topo in every:
            assert mult == 1, (d, n, prune)
            groups.setdefault(canonical_form(topo), []).append((index, topo))
        want = sorted(
            (min(i for i, _ in g), len(g), min(t for _, t in g))
            for g in groups.values()
        )
        assert _scan(SearchSpec(d, n), prune) == (want, every_pruned), (d, n, prune)


# Every type a caller or a JSON file might hand over for a field.
HOSTILE = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=2), st.integers(),
    st.integers(-1, 3).map(np.int64), st.lists(st.integers(-1, 3), max_size=2),
)


@st.composite
def graph_fields(draw):
    """The five ValiseGraph fields of a valid graph, then at most one of
    them, a label, an edge or an edge field replaced by a hostile value,
    or a tuple by a list."""
    d, dh, n = (draw(st.integers(1, 3)) for _ in range(3))
    labels = st.text(max_size=2)
    edges = draw(st.lists(
        st.builds(Edge, st.integers(1, d), st.integers(1, dh), st.integers(1, n),
                  st.sampled_from((-1, 1))),
        max_size=4,
        unique_by=(lambda e: (e.boson, e.color), lambda e: (e.fermion, e.color)),
    ))
    fields = dict(name=draw(labels), n_colors=n,
                  bosons=draw(st.lists(labels, min_size=d, max_size=d)),
                  fermions=draw(st.lists(labels, min_size=dh, max_size=dh)),
                  edges=edges)
    where = draw(st.sampled_from(["none", "listed", *fields, "label", "edge", "field"]))
    if where != "listed":
        fields.update((k, tuple(fields[k])) for k in ("bosons", "fermions", "edges"))
    if where in fields:
        fields[where] = draw(HOSTILE)
    elif where == "label":
        fields["bosons"] = (draw(HOSTILE),) + fields["bosons"][1:]
    elif where in ("edge", "field") and edges:
        k = draw(st.integers(0, len(edges) - 1))
        bad = (draw(HOSTILE) if where == "edge" else
               edges[k]._replace(**{draw(st.sampled_from(Edge._fields)): draw(HOSTILE)}))
        fields["edges"] = fields["edges"][:k] + (bad,) + fields["edges"][k + 1:]
    return fields


@settings(max_examples=500, **PROPERTY)
@given(graph_fields())
def test_construction_refuses_or_round_trips(fields):
    try:
        g = ValiseGraph(**fields)
    except GraphFormatError:
        return
    # to_json writes the edges sorted, its canonical order.
    assert from_json(to_json(g)) == dataclasses.replace(g, edges=tuple(sorted(g.edges)))
