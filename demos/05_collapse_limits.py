"""Classify where the space collapses to when the metric degenerates.

A boundary point of the simplex is a metric with one or two vanishing
summand coefficients.  The vanished summands generate (through the
bracket table) a subalgebra h, and the collapsed limit is the quotient
by the group H it generates: a point if h is everything, a named
homogeneous space otherwise.  Kernels and closures are plain sets of
summand indices.  Symmetric pairs and the maximal-rank (Borel-de
Siebenthal style) subgroups are told apart by the bracket criterion
[m, m] contained in h.
"""

from flagricci import (
    classify_limit,
    family_from_id,
    kernel_summands,
    subalgebra_closure,
    symmetric_pair_check,
)
from flagricci.catalog import bracket_table


def walk(family, point):
    kernel = kernel_summands(point)
    closure = subalgebra_closure(bracket_table(family), kernel)
    label = classify_limit(family, point)
    print(f"  point ({point[0]:.2f}, {point[1]:.2f}):"
          f" vanished summands {sorted(kernel)} ->"
          f" closure {sorted(closure)}"
          f" -> {label.name} (dim {label.dim}, {label.space_class})")


if __name__ == "__main__":
    su = family_from_id("su", (2, 1, 1))
    print(f"{su.group_name} / {su.isotropy_name}")
    walk(su, (0.0, 0.5))
    walk(su, (0.5, 0.5))
    walk(su, (0.0, 0.0))
    print()

    g2 = family_from_id("g2u2")
    print(f"{g2.group_name} / {g2.isotropy_name}")
    walk(g2, (0.0, 0.5))   # first summand vanishing generates everything
    walk(g2, (0.5, 0.0))
    walk(g2, (0.5, 0.5))
    print()

    # the symmetric-pair dichotomy for the exceptional full flags
    for fid in ("g2u2", "f4su3su2u1", "e8su8u1"):
        fam = family_from_id(fid)
        table = bracket_table(fam)
        print(f"{fam.group_name}: h = k+m2 symmetric pair:"
              f" {symmetric_pair_check(table, frozenset({2}))},"
              f" h = k+m3: {symmetric_pair_check(table, frozenset({3}))}")
