"""Exhaustive search over color matchings."""

from adinkra import SearchSpec, canonical_form, cube, diamond, run_search

# Colors are perfect matchings between d bosons and d fermions; color 1
# is pinned to the identity, the rest are drawn from the fixed-point-free
# involutions, and every other raw candidate is counted as pruned.
for d, n in ((2, 2), (4, 2), (4, 3)):
    out = run_search(SearchSpec(d, n))
    print(f"d={d}, colors={n}: scanned {out.raw_size} raw candidates")
    for reason, count in out.pruned:
        print(f"  pruned {count}: {reason}")
    for k, sol in enumerate(out.solutions, start=1):
        shape = "connected" if sol.connected else "disconnected"
        print(f"  class {k}: multiplicity {sol.multiplicity}, {shape}")
    print()

# The two feasible connected classes above are the known small cubes.
assert run_search(SearchSpec(2, 2)).solutions[0].canonical_key == \
    canonical_form(diamond())
assert run_search(SearchSpec(4, 3)).solutions[0].canonical_key == \
    canonical_form(cube())
print("the d=2 and d=4 connected classes are the 2-cube and the 3-cube")

# The support prune never changes the outcome, only the running time.
fast = run_search(SearchSpec(4, 3), prune=True)
slow = run_search(SearchSpec(4, 3), prune=False)
assert fast.solutions == slow.solutions
print("prune on and off agree on all solution classes")
