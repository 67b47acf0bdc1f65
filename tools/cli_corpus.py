"""Record and compare the output of a fixed corpus of flagricci CLI invocations.

Run from the repository root:

    python3 tools/cli_corpus.py record src corpus-new.json
    python3 tools/cli_corpus.py record ../parent/src corpus-old.json
    python3 tools/cli_corpus.py diff corpus-old.json corpus-new.json

`record` imports flagricci from the given source directory and runs every
invocation of corpus() through `flagricci.cli.main(argv)` in one process,
each in an empty working directory with every warning shown.  For each it
stores the exit code and the sha256 of stdout, of stderr and of every file
the call wrote.  `diff` lists the invocations whose records differ (or
that only one side has) and exits 1 if any do, 0 otherwise.  Recording
the 354 invocations takes 5-8 s on one core of a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
import warnings

CONSTANT_FAMILIES = (
    "e6so8u1u1", "e8e6su2u1", "e8su8u1", "e7su5su3u1", "e7su6su2u1", "e6su3su3su2u1", "f4su3su2u1", "g2u2",
)
# the eleven families whose theorem tables are reproduced, as CLI arguments
TABLE_FAMILIES = (("su", "2,1,1"), ("su", "1,1,1"), ("so", "6")) + tuple((fid, None) for fid in CONSTANT_FAMILIES)
# boundary points of the simplex, and one interior point that gh-limit rejects
GH_POINTS = ((0, 0), (1, 0), (0, 1), (0, 0.5), (0.5, 0), (0.5, 0.5), (0.3, 0.3))
COMMANDS = ("families", "field", "equilibria", "orbit", "basins", "portrait", "gh-limit", "verify")


def _family_args(fid: str, params) -> list:
    return ["--family", fid] + (["--params", params] if params else [])


def _listed_families() -> list:
    """The 73 families of list_families(6, 12): su(m, n, p) with 6 >= m >= n >= p,
    so(l) for 4 <= l <= 12 and the eight constant families."""
    su = [("su", f"{m},{n},{p}") for m in range(1, 7) for n in range(1, m + 1) for p in range(1, n + 1)]
    return su + [("so", str(ell)) for ell in range(4, 13)] + [(fid, None) for fid in CONSTANT_FAMILIES]


def corpus() -> list:
    """The invocations, each an argv list."""
    out = [["families"], ["families", "--mnp-bound", "6", "--ell-bound", "12"]]
    for cmd in ("field", "equilibria", "verify"):
        out += [[cmd] + _family_args(*fam) for fam in _listed_families()]
    for fam in TABLE_FAMILIES:
        out += [["gh-limit"] + _family_args(*fam) + ["--x", str(x), "--y", str(y)] for x, y in GH_POINTS]
    out += [["basins"] + _family_args(*fam) + ["--res", "64", "--svg", "basins.svg"] for fam in TABLE_FAMILIES]
    out.append(["basins", "--family", "g2u2", "--res", "256", "--svg", "basins.svg"])
    for seed in ("0", "1"):
        out += [["portrait"] + _family_args(*fam) + ["--seed", seed, "--out", "portrait.svg"] for fam in TABLE_FAMILIES]
    out += [
        ["orbit", "--family", "g2u2", "--x0", "0.3", "--y0", "0.3"],
        ["orbit", "--family", "su", "--params", "2,1,1", "--x0", "0.3", "--y0", "0.2", "--backward"],
        ["orbit", "--family", "e8e6su2u1", "--x0", "0.33", "--y0", "0.33", "--backward"],
        # a start just inside an edge, where the Lyapunov value is taken exactly
        ["orbit", "--family", "su", "--params", "2,1,1", "--x0", "0.25", "--y0", "2.2250738585072014e-308",
         "--max-steps", "400", "--rtol", "5.960464477539063e-08", "--atol", "6.432049958169953e-08"],
        # a negative value that argparse would take for an option
        ["orbit", "--family", "g2u2", "--x0", "-5e-07", "--y0", "0.3"],
        # a start inside the slack outside the simplex, whose samples keep x < 0
        ["orbit", "--family", "g2u2", "--x0", "-5e-10", "--y0", "0.3"],
    ]
    # help, and the usage errors argparse reports
    out += [[], ["-h"], ["bogus"]] + [[cmd, "-h"] for cmd in COMMANDS]
    out += [
        ["verify"],
        ["verify", "--family", "g2u2", "--bogus"],
        ["verify", "--family", "g2u2", "extra"],
        ["--family", "g2u2", "verify"],
        ["families", "--mnp-bound", "x"],
    ]
    return out


def _digest(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _import_cli(src_dir: str):
    """flagricci.cli imported from src_dir; raises if another copy is loaded."""
    sys.path.insert(0, os.path.abspath(src_dir))
    cli = importlib.import_module("flagricci.cli")
    if os.path.commonpath([os.path.realpath(cli.__file__), os.path.realpath(src_dir)]) != os.path.realpath(src_dir):
        raise RuntimeError(f"flagricci is already imported from {cli.__file__}, not from {src_dir}")
    return cli


def record(src_dir: str, out_path: str, commands=None) -> dict:
    """Run commands (default: the corpus) and write {argv text: record} to out_path as JSON."""
    cli = _import_cli(src_dir)
    records, cwd = {}, os.getcwd()
    for argv in corpus() if commands is None else commands:
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("always")
                    code = cli.main(argv)
                files = {}
                for name in sorted(os.listdir(tmp)):
                    with open(name, "rb") as fh:
                        files[name] = _digest(fh.read())
            finally:
                os.chdir(cwd)
        records[" ".join(argv)] = {
            "exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue()), "files": files,
        }
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    return records


def diff(a: dict, b: dict) -> list:
    """The invocations whose records differ between a and b, or that one lacks, in order."""
    return [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("record", help="run the corpus and write its digests as JSON")
    sp.add_argument("src_dir", help="directory holding the flagricci package")
    sp.add_argument("out", help="JSON file to write")
    sp = sub.add_parser("diff", help="list the invocations whose digests differ")
    sp.add_argument("a")
    sp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        records = record(args.src_dir, args.out)
        print(f"recorded {len(records)} invocations to {args.out}")
        return 0
    docs = []
    for path in (args.a, args.b):
        with open(path) as fh:
            docs.append(json.load(fh))
    changed = diff(*docs)
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(set(docs[0]) | set(docs[1]))} invocations differ", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
