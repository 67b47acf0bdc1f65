"""Find every invariant Einstein metric as an equilibrium of the flow.

Zeros of the projected field are exactly the Einstein metrics (up to
scale), plus the degenerate boundary points.  Eliminating one variable
with a resultant finds them all exactly; the Jacobian eigenvalues classify
each as attractor, repeller, or saddle; and verify_catalog checks the
result row-by-row against the expected table for the family.
"""

from flagricci import (
    corner_class,
    family_from_id,
    find_equilibria,
    projected_field,
    verify_catalog,
)


def show(family):
    field = projected_field(family)
    eqs = find_equilibria(field)
    print(f"{family.group_name} / {family.isotropy_name}: {len(eqs)} equilibria")
    for eq in sorted(eqs, key=lambda e: e.matched_label or "~"):
        x, y = eq.position
        ev = ", ".join(f"{complex(w).real:+.4f}" for w in eq.eigenvalues)
        where = "boundary" if eq.boundary_flag else "interior"
        note = ""
        if eq.stability == "nonhyperbolic":
            # some corners have an exactly zero linearization; the sign of
            # the field's lowest radial form still decides the dynamic type
            note = f"  (lowest radial form: {corner_class(field, eq.exact)})"
        print(f"  {eq.matched_label}  ({x:.6f}, {y:.6f})  {eq.stability:9s}"
              f"  eigenvalues [{ev}]  {where}{note}")
    report = verify_catalog(family)
    print(f"  catalog verification: {'PASS' if report.passed else 'FAIL'}"
          f" ({len(report.checks)} rows)")
    print()


if __name__ == "__main__":
    show(family_from_id("su", (2, 1, 1)))
    show(family_from_id("so", (6,)))
    show(family_from_id("f4su3su2u1"))
