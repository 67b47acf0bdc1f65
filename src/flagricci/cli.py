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
import os
import sys
from typing import Optional

from .catalog import (
    bracket_table, family_from_id, gh_catalog, list_families, reference_equilibria,
    subalgebra_closure,
)
from .dynamics import (
    BASIN_MARGIN, ORBIT_ATOL, ORBIT_MAX_STEPS, ORBIT_MAX_TIME, ORBIT_RTOL,
    basin_map, field_for, integrate_orbit,
)
from .equilibria import find_equilibria, verify_catalog
from .flowgen import projected_field
from .ghlimit import kernel_summands
from .render import PORTRAIT_ORBITS, basins_svg, portrait_svg


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
            raise ValueError(f"--params must be comma-separated integers, got {args.params!r}")
    return family_from_id(args.family, params)


def _eig_pairs(eigs) -> Optional[list]:
    if eigs is None:
        return None
    return [[complex(e).real, complex(e).imag] for e in eigs]


def _family_json(fam) -> dict:
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
            for r in reference_equilibria(fam)
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
            for pattern, label in gh_catalog(fam).items()
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
    # each column's "ix,x," and row's "iy,y," piece is formatted once
    cols = [(f"{ix},", f"{x!r},") for ix, x in enumerate(grid.xs)]
    for iy, (y, row) in enumerate(zip(grid.ys, grid.labels)):
        iy_text, y_text = f"{iy},", f"{y!r},"
        rows += [ix_text + iy_text + x_text + y_text + lab
                 for (ix_text, x_text), lab in zip(cols, row) if lab is not None]
    # the SVG goes first and is removed if the CSV cannot be written, so
    # a path that fails leaves neither artifact behind
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(basins_svg(grid))
    try:
        _emit("\n".join(rows) + "\n", args.out)
    except OSError:
        if args.svg:
            os.remove(args.svg)
        raise
    return 0


def _cmd_portrait(args) -> int:
    fam = _resolve_family(args)
    if not args.out:
        raise ValueError("portrait emits SVG and requires --out <path>")
    svg = portrait_svg(fam, seed=args.seed, n_orbits=args.orbits)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


def _cmd_gh_limit(args) -> int:
    fam = _resolve_family(args)
    # an interior (NotDegenerate) or invalid point raises ValueError
    kernel = kernel_summands((args.x, args.y))
    label = gh_catalog(fam)[kernel]
    closure = subalgebra_closure(bracket_table(fam), kernel)
    doc = {
        "schema": 1,
        "family": fam.id,
        "params": list(fam.params),
        "x": args.x,
        "y": args.y,
        "kernel": sorted(kernel),
        "h_summands": sorted(closure),
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


def _families_flags(sp) -> None:
    sp.add_argument("--mnp-bound", type=int, help="enumerate su families up to this bound")
    sp.add_argument("--ell-bound", type=int, help="enumerate so families up to this l")
    sp.add_argument("--out")


def _family_out_flags(sp) -> None:
    _add_family_flags(sp)
    sp.add_argument("--out")


def _orbit_flags(sp) -> None:
    _add_family_flags(sp)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--backward", action="store_true")
    sp.add_argument("--rtol", type=float, default=ORBIT_RTOL)
    sp.add_argument("--atol", type=float, default=ORBIT_ATOL)
    sp.add_argument("--max-time", type=float, default=ORBIT_MAX_TIME)
    sp.add_argument("--max-steps", type=int, default=ORBIT_MAX_STEPS)
    sp.add_argument("--out")


def _basins_flags(sp) -> None:
    _add_family_flags(sp)
    sp.add_argument("--res", type=int, required=True)
    sp.add_argument("--margin", type=float, default=BASIN_MARGIN)
    sp.add_argument("--svg", help="also write an SVG heat map to this path")
    sp.add_argument("--out")


def _portrait_flags(sp) -> None:
    _add_family_flags(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--orbits", type=int, default=PORTRAIT_ORBITS)


def _gh_limit_flags(sp) -> None:
    _add_family_flags(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--out")


# each subcommand's help, flags and handler, in the order the usage lists them
COMMANDS = {
    "families": ("emit the family catalog as JSON", _families_flags, _cmd_families),
    "field": ("print the projected field u, v", _family_out_flags, _cmd_field),
    "equilibria": ("find all equilibria exactly, emit JSON", _family_out_flags, _cmd_equilibria),
    "orbit": ("integrate one orbit, emit CSV t,x,y,L", _orbit_flags, _cmd_orbit),
    "basins": ("basin-of-attraction grid, CSV plus optional SVG", _basins_flags, _cmd_basins),
    "portrait": ("phase portrait SVG", _portrait_flags, _cmd_portrait),
    "gh-limit": ("classify the collapse limit at a boundary point", _gh_limit_flags, _cmd_gh_limit),
    "verify": ("check found equilibria against the catalog", _family_out_flags, _cmd_verify),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The flagricci parser: with command one of COMMANDS, only that
    command's subparser is built, and the usage still lists them all;
    otherwise every subparser is built."""
    parser = argparse.ArgumentParser(
        prog="flagricci",
        description="Projected Ricci flow on three-summand flag manifolds.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # a metavar would also rename the argument in the full parser's errors
    every = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        help_text, add_flags, handler = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        add_flags(sp)
        sp.set_defaults(handler=handler, usage_parser=sp)
    return parser


def _attach_negative_values(argv: list) -> list:
    """argv with each negative number that follows a long option joined to it.

    argparse takes a token that starts with "-" for an option unless it
    looks like a negative number to its pattern, which takes -0.5 but
    not -5e-07; as --flag=-5e-07 any value reaches the flag.
    """
    out: list = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and prev != "--" and "=" not in prev and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    """Run the subcommand argv names (default sys.argv[1:]); its exit code.

    Only the named subcommand's parser is built; with no command first in
    argv (none at all, -h, or an unknown name) every one is, so help and
    errors list them all.
    """
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser(argv[0] if argv else None)
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
