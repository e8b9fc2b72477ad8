"""Independent answers for every benchmark operation.

Nothing here imports the package under test.  A color is held as a
signed partial permutation (one dict per color and side), so the garden
relations are evaluated cell by cell in O(N^2 d) instead of through
dense products.  Dashing counts come from the odd-quad system over
GF(2), which for a candidate graph is equivalent to the garden
relations; topology counts come from doubly-even codes (Doran, Faux,
Gates, Hubsch, Iga, Landweber and Miller, arXiv:1108.4124): a connected
class exists at (d, N) only if d = 2^(N-1-k) and a doubly-even [N, k]
code exists, one class per code up to coordinate permutation.
"""

from __future__ import annotations

import itertools
from collections import deque


def _maps(g):
    """Per color: boson -> (fermion, sign) and fermion -> (boson, sign)."""
    n = g["colors"]
    bmap = [dict() for _ in range(n + 1)]
    fmap = [dict() for _ in range(n + 1)]
    for b, f, c, s in g["edges"]:
        bmap[c][b] = (f, s)
        fmap[c][f] = (b, s)
    return bmap, fmap


def _pair_cells(side, i, j, bmap, fmap, include_swap=True):
    """Nonzero cells of L_i R_j (+ L_j R_i) on the left, or of
    R_i L_j (+ R_j L_i) on the right, as {(row, col): value}."""
    cells: dict[tuple[int, int], int] = {}
    terms = ((i, j), (j, i)) if include_swap else ((i, j),)
    for x, y in terms:
        src, dst = (bmap, fmap) if side == "left" else (fmap, bmap)
        for row, (mid, s1) in src[x].items():
            hit = dst[y].get(mid)
            if hit is not None:
                col, s2 = hit
                cells[(row, col)] = cells.get((row, col), 0) + s1 * s2
    return cells


def garden_violations(g):
    """Sorted (side, I, J, row, col, residual) tuples, all 1-based."""
    bmap, fmap = _maps(g)
    n = g["colors"]
    sizes = {"left": len(g["bosons"]), "right": len(g["fermions"])}
    out = []
    for side in ("left", "right"):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                cells = _pair_cells(side, i, j, bmap, fmap)
                if i == j:
                    for r in range(1, sizes[side] + 1):
                        cells[(r, r)] = cells.get((r, r), 0) - 2
                out += [(side, i, j, r, c, v) for (r, c), v in sorted(cells.items()) if v]
    return out


def product_tables(g):
    """Dense left and right product lists in (I, J) order, I <= J.

    The diagonal entry is L_I R_I once, the off-diagonal entry the
    symmetrized sum; the right side swaps L and R.
    """
    bmap, fmap = _maps(g)
    n = g["colors"]
    out = {}
    for side, size in (("left", len(g["bosons"])), ("right", len(g["fermions"]))):
        mats = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                cells = _pair_cells(side, i, j, bmap, fmap, include_swap=i != j)
                m = [[0] * size for _ in range(size)]
                for (r, c), v in cells.items():
                    m[r - 1][c - 1] = v
                mats.append(m)
        out[side] = mats
    return out["left"], out["right"]


def l_matrices(g):
    """Dense L_I, one d x d_hat list of rows per color."""
    d, dh = len(g["bosons"]), len(g["fermions"])
    mats = [[[0] * dh for _ in range(d)] for _ in range(g["colors"])]
    for b, f, c, s in g["edges"]:
        mats[c - 1][b - 1][f - 1] = s
    return mats


def bicolor_cycles(g):
    """Edge-index lists of every closed two-color walk."""
    n = g["colors"]
    by_color = [[] for _ in range(n + 1)]
    for k, (b, f, c, _) in enumerate(g["edges"]):
        by_color[c].append((k, ("B", b), ("F", f)))
    cycles = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            adj: dict = {}
            for k, u, v in by_color[i] + by_color[j]:
                adj.setdefault(u, []).append((k, v))
                adj.setdefault(v, []).append((k, u))
            seen = set()
            for start in adj:
                if start in seen:
                    continue
                seen.add(start)
                stack, verts, edges = [start], 0, set()
                while stack:
                    u = stack.pop()
                    verts += 1
                    for k, w in adj[u]:
                        edges.add(k)
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                if len(edges) == verts:  # every vertex has degree 2
                    cycles.append(sorted(edges))
    return cycles


def components(g) -> int:
    """Connected components over all vertices, isolated ones included."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in range(1, len(g["bosons"]) + 1):
        find(("B", b))
    for f in range(1, len(g["fermions"]) + 1):
        find(("F", f))
    for b, f, _, _ in g["edges"]:
        parent[find(("B", b))] = find(("F", f))
    return len({find(x) for x in list(parent)})


def candidacy(g):
    """The sign-independent filters, as plain facts."""
    n = g["colors"]
    d, dh = len(g["bosons"]), len(g["fermions"])
    seen_b = [set() for _ in range(d + 1)]
    seen_f = [set() for _ in range(dh + 1)]
    for b, f, c, _ in g["edges"]:
        seen_b[b].add(c)
        seen_f[f].add(c)
    misses = sum(1 for s in seen_b[1:] + seen_f[1:] if len(s) < n)
    cycles = bicolor_cycles(g)
    bad = sum(1 for cyc in cycles if len(cyc) != 4)
    return {
        "equal_counts_ok": d == dh,
        "coverage_ok": misses == 0,
        "coverage_misses": misses,
        "quad_ok": bad == 0,
        "bad_cycles": bad,
        "candidate": d == dh and misses == 0 and bad == 0,
        "quads": [cyc for cyc in cycles if len(cyc) == 4],
    }


def check_verdict(g):
    """What `check` must conclude about g."""
    cand = candidacy(g)
    square = len(g["bosons"]) == len(g["fermions"])
    viol = garden_violations(g) if square else None
    return {
        "candidacy": cand,
        "violations": viol,
        "left_ok": None if viol is None else not any(v[0] == "left" for v in viol),
        "right_ok": None if viol is None else not any(v[0] == "right" for v in viol),
        "pass": cand["candidate"] and viol is not None and not viol,
    }


def gf2_solve(rows, n_vars):
    """Reduce rows (ints: bit t = variable t, bit n_vars = rhs).

    Returns (consistent, rank, solution) where the solution sets every
    non-pivot variable to 0.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        for bit in range(n_vars - 1, -1, -1):
            if not (row >> bit) & 1:
                continue
            if bit in pivots:
                row ^= pivots[bit]
            else:
                pivots[bit] = row
                break
        else:
            if row:
                return False, len(pivots), None
    x = 0
    for bit in sorted(pivots):  # lower pivots are already final
        row = pivots[bit]
        val = (row >> n_vars) & 1
        val ^= bin(row & x & ((1 << bit) - 1)).count("1") & 1
        if val:
            x |= 1 << bit
    return True, len(pivots), x


def dashing_counts(g):
    """(gauge orbits, total dashings) satisfying the garden relations.

    For a candidate the relations hold iff every bi-color quad carries an
    odd number of dashed edges; the solutions form an affine space over
    GF(2), and vertex flips act freely on it with orbits of size
    2^(V - #components).
    """
    cand = candidacy(g)
    if not cand["candidate"]:
        return 0, 0
    e = len(g["edges"])
    rows = []
    for quad in cand["quads"]:
        row = 1 << e
        for k in quad:
            row ^= 1 << k
        rows.append(row)
    ok, rank, _ = gf2_solve(rows, e)
    if not ok:
        return 0, 0
    v = len(g["bosons"]) + len(g["fermions"])
    gauge = v - components(g)
    total = 1 << (e - rank)
    return total >> gauge, total


def with_signs(g, signs):
    return dict(g, edges=[(b, f, c, s) for (b, f, c, _), s in zip(g["edges"], signs)])


def spanning_forest(g):
    """Breadth-first spanning forest in the documented gauge-fix order:
    roots bosons 1..d then fermions 1..d_hat, neighbours by edge index."""
    adj = {("B", i): [] for i in range(1, len(g["bosons"]) + 1)}
    adj.update({("F", j): [] for j in range(1, len(g["fermions"]) + 1)})
    for k, (b, f, _, _) in enumerate(g["edges"]):
        adj[("B", b)].append((k, ("F", f)))
        adj[("F", f)].append((k, ("B", b)))
    seen, forest = set(), []
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for k, w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    forest.append(k)
                    queue.append(w)
    return sorted(forest)


def witness_position(g):
    """Scan position of the first gauge-fixed dashing in witness mode.

    With the forest edges at +1, the free edges are read as a binary
    number (first free edge most significant, +1 = 1); the scan visits
    numbers in increasing order.  Returns (position, free edge count),
    or None when no dashing exists.  Used only to spread scan lengths
    evenly across seeds, never as an expected answer.
    """
    cand = candidacy(g)
    if not cand["candidate"]:
        return None
    forest = set(spanning_forest(g))
    free = [k for k in range(len(g["edges"])) if k not in forest]
    n = len(free)
    pos = {k: n - 1 - t for t, k in enumerate(free)}  # bit = dashed
    rows = []
    for quad in cand["quads"]:
        row = 1 << n
        for k in quad:
            if k in pos:
                row ^= 1 << pos[k]
        rows.append(row)
    ok, rank, x = gf2_solve(rows, n)
    if not ok:
        return None
    if rank != n:
        raise ValueError("witness position is only defined for one orbit")
    return ((1 << n) - 1) ^ x, n


# --- topologies and codes ------------------------------------------------


def doubly_even_code_classes(n: int, k: int) -> int:
    """Doubly-even [n, k] binary codes up to coordinate permutation."""
    if k == 0:
        return 1
    words = [w for w in range(1, 1 << n) if bin(w).count("1") % 4 == 0]
    codes = set()
    for basis in itertools.combinations(words, k):
        span = {0}
        for w in basis:
            span |= {x ^ w for x in span}
        if len(span) == 1 << k and all(bin(x).count("1") % 4 == 0 for x in span):
            codes.add(frozenset(span))
    classes = set()
    for code in codes:
        best = None
        for p in itertools.permutations(range(n)):
            key = tuple(sorted(
                sum(1 << p[t] for t in range(n) if (w >> t) & 1) for w in code))
            if best is None or key < best:
                best = key
        classes.add(best)
    return len(classes)


def connected_classes(d: int, n_colors: int) -> int:
    """Connected adinkra chromotopology classes at d + d vertices."""
    if d < 1 or d & (d - 1):
        return 0
    k = n_colors - 1 - (d.bit_length() - 1)
    return 0 if k < 0 else doubly_even_code_classes(n_colors, k)


def _fpf_involution(p) -> bool:
    return all(p[i] != i and p[p[i]] == i for i in range(len(p)))


def _relative(p, q):
    """q^-1 . p on bosons."""
    qinv = [0] * len(q)
    for i, v in enumerate(q):
        qinv[v] = i
    return tuple(qinv[v] for v in p)


def _topology_connected(topo) -> bool:
    d = len(topo[0])
    seen, stack = {0}, [0]
    while stack:
        b = stack.pop()
        for p in topo:
            f = p[b]
            for q in topo:
                b2 = q.index(f)
                if b2 not in seen:
                    seen.add(b2)
                    stack.append(b2)
    return len(seen) == d


def connected_candidate_tuples(d: int, n_colors: int) -> int:
    """Raw search candidates (color 1 = identity) that are connected and
    whose every two-color subgraph is a union of quads."""
    perms = list(itertools.permutations(range(d)))
    count = 0

    def rec(chosen):
        nonlocal count
        if len(chosen) == n_colors:
            count += _topology_connected(chosen)
            return
        for p in perms:
            if all(_fpf_involution(_relative(p, q)) for q in chosen):
                rec(chosen + [p])

    rec([tuple(range(d))])
    return count


def _cycle_type(p):
    seen, lengths = set(), []
    for s in range(len(p)):
        if s in seen:
            continue
        n, x = 0, s
        while x not in seen:
            seen.add(x)
            x = p[x]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths))


def topology_invariant(topo):
    """Cycle types of every relative permutation sigma_j^-1 sigma_i.

    Unchanged by boson and fermion relabeling and color permutation, so
    topologies with different invariants are in different classes.
    """
    return tuple(sorted(
        _cycle_type(_relative(topo[i], topo[j]))
        for i in range(len(topo)) for j in range(i + 1, len(topo))))
