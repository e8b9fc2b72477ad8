"""Adjacency-sign matrices and the garden product tables."""

from adinkra import (
    builtin,
    colors,
    format_matrix,
    garden_check,
    product_tables,
)
from adinkra.garden import color_tables

# Each color is held as a signed partial permutation read from the
# graph; a Table keeps only its stored cells and prints every other
# cell as 0.
g = builtin("diamond")
print(f"{g.name}: L matrices (rows = bosons, columns = fermions)")
left, _ = color_tables(colors(g))
for table in left:
    print(table.label)
    print(format_matrix(table, indent="  "))

# The garden relations demand L_I R_J + L_J R_I = 2 delta_IJ and the
# transposed family likewise; the report lists every nonzero residual
# cell as a violation.
report = garden_check(colors(g))
print(f"garden: left_ok={report.left_ok} right_ok={report.right_ok}")

# The rhombic dodecahedron satisfies only the left family.
rd = builtin("rhombic-dodecahedron")
report = garden_check(colors(rd))
print(
    f"{rd.name}: left_ok={report.left_ok} right_ok={report.right_ok} "
    f"({len(report.violations)} violations, all on the right side)"
)

left, right = product_tables(colors(rd))
print(f"first left product {left[0].label}:")
print(format_matrix(left[0], indent="  "))
print(f"as lists: {left[0].rows()[:2]} ...")
