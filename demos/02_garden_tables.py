"""Adjacency-sign matrices and the garden product tables."""

from adinkra import (
    builtin,
    colors,
    format_matrix,
    garden_check,
    product_tables,
    to_matrices,
)

# Dense matrices are built only to be printed; the checks below read
# each color from the graph as a signed partial permutation.
g = builtin("diamond")
print(f"{g.name}: L matrices (rows = bosons, columns = fermions)")
for i, m in enumerate(to_matrices(g), start=1):
    print(f"L{i}")
    print(format_matrix(m, indent="  "))

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
label, product = left[0]
print(f"first left product {label}:")
print(format_matrix(product, indent="  "))
