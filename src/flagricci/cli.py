"""Command line front end over the library.

Subcommands: families, field, equilibria, orbit, basins, portrait,
gh-limit, verify.  JSON and CSV artifacts go to stdout unless --out is
given; SVG artifacts always require a file path.  Identical flags (and
seed) produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage error or an
output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .catalog import bracket_table, family_from_id, gh_catalog, list_families, reference_equilibria
from .dynamics import (
    BASIN_MARGIN, ORBIT_ATOL, ORBIT_MAX_STEPS, ORBIT_MAX_TIME, ORBIT_RTOL,
    basin_map, field_for, integrate_orbit,
)
from .equilibria import find_equilibria, verify_catalog
from .flowgen import projected_field
from .ghlimit import classify_limit, kernel_summands, subalgebra_closure
from .render import PORTRAIT_ORBITS, basins_svg, portrait_svg


class UsageError(ValueError):
    """Bad flag combination or value; reported with the usage block.

    main reports every ValueError this way, as the library raises it for
    the input it rejects.
    """


# ----------------------------------------------------------------------
# plumbing

def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _resolve_family(args):
    params = None
    if getattr(args, "params", None):
        try:
            params = tuple(int(tok) for tok in args.params.split(","))
        except ValueError:
            raise UsageError(f"--params must be comma-separated integers, got {args.params!r}")
    return family_from_id(args.family, params)


def _eig_pairs(eigs) -> Optional[list]:
    if eigs is None:
        return None
    return [[complex(e).real, complex(e).imag] for e in eigs]


def _family_json(fam) -> dict:
    recs = reference_equilibria(fam)
    gh = gh_catalog(fam)
    return {
        "id": fam.id,
        "kind": fam.display_kind(),
        "params": list(fam.params),
        "dims": list(fam.dims),
        "total_dim": fam.total_dim,
        "group": fam.group_name,
        "isotropy": fam.isotropy_name,
        "equilibria": [
            {
                "label": r.label,
                "position": list(r.position_float()),
                "position_exact": r.position_exact,
                "metric": r.metric_kind,
                "class": r.expected_class,
                "eigenvalues": _eig_pairs(r.eigenvalues),
            }
            for r in recs
        ],
        "gh": [
            {
                "kernel": sorted(pattern),
                "kind": label.kind,
                "name": label.name,
                "class": label.space_class,
                "dim": label.dim,
                "metric": label.metric,
            }
            for pattern, label in sorted(
                gh.items(), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0])))
            )
        ],
    }


# ----------------------------------------------------------------------
# subcommand handlers

def _cmd_families(args) -> int:
    fams = list_families(mnp_bound=args.mnp_bound, ell_bound=args.ell_bound)
    doc = {"schema": 1, "families": [_family_json(f) for f in fams]}
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_field(args) -> int:
    fam = _resolve_family(args)
    f = projected_field(fam)
    utext, vtext = f.u.to_text(), f.v.to_text()
    doc = {
        "schema": 1,
        "family": fam.id,
        "params": list(fam.params),
        "degree": f.degree(),
        "u": utext,
        "v": vtext,
    }
    _emit(f"u = {utext}\nv = {vtext}\n{_json_text(doc)}", args.out)
    return 0


def _cmd_equilibria(args) -> int:
    fam = _resolve_family(args)
    found = find_equilibria(projected_field(fam))
    doc = {
        "schema": 1,
        "family": fam.id,
        "params": list(fam.params),
        "equilibria": [e.as_dict() for e in found],
    }
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_orbit(args) -> int:
    fam = _resolve_family(args)
    # the orbit's end is matched against equilibria_for(fam), which reads
    # the same cached field
    field = field_for(fam)
    direction = "backward" if args.backward else "forward"
    traj = integrate_orbit(
        field,
        (args.x0, args.y0),
        direction=direction,
        rtol=args.rtol,
        atol=args.atol,
        max_time=args.max_time,
        max_steps=args.max_steps,
    )
    rows = ["t,x,y,L"]
    for t, x, y, lv in traj.samples:
        rows.append(f"{t!r},{x!r},{y!r},{lv!r}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_basins(args) -> int:
    fam = _resolve_family(args)
    grid = basin_map(fam, args.res, margin=args.margin)
    rows = ["ix,iy,x,y,label"]
    for iy in range(grid.resolution):
        for ix in range(grid.resolution):
            lab = grid.labels[iy][ix]
            if lab is None:
                continue
            rows.append(f"{ix},{iy},{grid.xs[ix]!r},{grid.ys[iy]!r},{lab}")
    _emit("\n".join(rows) + "\n", args.out)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(basins_svg(grid))
    return 0


def _cmd_portrait(args) -> int:
    fam = _resolve_family(args)
    if not args.out:
        raise UsageError("portrait emits SVG and requires --out <path>")
    svg = portrait_svg(fam, seed=args.seed, n_orbits=args.orbits)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


def _cmd_gh_limit(args) -> int:
    fam = _resolve_family(args)
    # an interior (NotDegenerate) or invalid point raises ValueError
    kernel = kernel_summands((args.x, args.y))
    label = classify_limit(fam, (args.x, args.y))
    closure = subalgebra_closure(bracket_table(fam), kernel)
    doc = {
        "schema": 1,
        "family": fam.id,
        "params": list(fam.params),
        "x": args.x,
        "y": args.y,
        "kernel": sorted(kernel.vanished),
        "h_summands": sorted(closure.summands),
        "is_point": label.kind == "Point",
        "space": {
            "name": label.name,
            "dim": label.dim,
            "class": label.space_class,
            "metric": label.metric,
        },
    }
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    fam = _resolve_family(args)
    report = verify_catalog(fam)
    doc = {"schema": 1}
    doc.update(report.as_dict())
    _emit(_json_text(doc), args.out)
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# parser

def _add_family_flags(sp) -> None:
    sp.add_argument("--family", required=True, help="family id (su, so, e6so8u1u1, or a Type I id)")
    sp.add_argument(
        "--params",
        help="comma-separated parameters: m,n,p for su, l for so; forbidden otherwise",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagricci",
        description="Projected Ricci flow on three-summand flag manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("families", help="emit the family catalog as JSON")
    sp.add_argument("--mnp-bound", type=int, help="enumerate su families up to this bound")
    sp.add_argument("--ell-bound", type=int, help="enumerate so families up to this l")
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_families, usage_parser=sp)

    sp = sub.add_parser("field", help="print the projected field u, v")
    _add_family_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_field, usage_parser=sp)

    sp = sub.add_parser("equilibria", help="find all equilibria exactly, emit JSON")
    _add_family_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_equilibria, usage_parser=sp)

    sp = sub.add_parser("orbit", help="integrate one orbit, emit CSV t,x,y,L")
    _add_family_flags(sp)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--backward", action="store_true")
    sp.add_argument("--rtol", type=float, default=ORBIT_RTOL)
    sp.add_argument("--atol", type=float, default=ORBIT_ATOL)
    sp.add_argument("--max-time", type=float, default=ORBIT_MAX_TIME)
    sp.add_argument("--max-steps", type=int, default=ORBIT_MAX_STEPS)
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_orbit, usage_parser=sp)

    sp = sub.add_parser("basins", help="basin-of-attraction grid, CSV plus optional SVG")
    _add_family_flags(sp)
    sp.add_argument("--res", type=int, required=True)
    sp.add_argument("--margin", type=float, default=BASIN_MARGIN)
    sp.add_argument("--svg", help="also write an SVG heat map to this path")
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_basins, usage_parser=sp)

    sp = sub.add_parser("portrait", help="phase portrait SVG")
    _add_family_flags(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--orbits", type=int, default=PORTRAIT_ORBITS)
    sp.set_defaults(handler=_cmd_portrait, usage_parser=sp)

    sp = sub.add_parser("gh-limit", help="classify the collapse limit at a boundary point")
    _add_family_flags(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_gh_limit, usage_parser=sp)

    sp = sub.add_parser("verify", help="check found equilibria against the catalog")
    _add_family_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_verify, usage_parser=sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"flagricci {args.command}: error: {exc}", file=sys.stderr)
        print(args.usage_parser.format_usage(), end="", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out or --svg path that cannot be written
        print(f"flagricci {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
