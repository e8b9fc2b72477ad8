"""Building new topologies: the lift and vertex deletion."""

from adinkra import (
    builtin,
    candidacy,
    colors,
    cube,
    garden_check,
    is_isomorphic,
    lift,
    tesseract,
)

# Lifting doubles the graph: fermions acquire mirror bosons and a new
# color matches each vertex with its mirror.
rd = builtin("rhombic-dodecahedron")
lifted = lift(rd)
print(f"lift({rd.name}): {lifted.d}+{lifted.d_hat} vertices, "
      f"{lifted.n_colors} colors, {len(lifted.edges)} edges")
rep = candidacy(lifted)
print(f"candidacy: {rep.verdict} ({'; '.join(rep.reasons)})")

# The lift of the 3-cube is the 4-cube, up to signs.
assert is_isomorphic(lift(cube()), tesseract(), signs="ignore")
print("lift(cube) is isomorphic to the tesseract (signs ignored)")

# Deleting an antipodal boson pair from the tesseract leaves a graph
# isomorphic to the rhombic dodecahedron.
deleted = builtin("rd-from-tesseract")
print(f"{deleted.name}: {deleted.d}+{deleted.d_hat} vertices")
assert is_isomorphic(deleted, rd, signs="ignore")
print("tesseract minus an antipodal boson pair matches the rhombic "
      "dodecahedron")

# The deletion inherits a valid left family only.
report = garden_check(colors(deleted))
print(f"garden after deletion: left_ok={report.left_ok} "
      f"right_ok={report.right_ok}")
