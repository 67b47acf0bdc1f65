"""Record the reference outputs the benchmark checks against.

Run once from the repository root at the commit whose outputs define
"correct":

    python3 perfbench/record_reference.py

It writes verify.json (the (label, class) multiset per table family),
basins_g2u2_256.txt (the label grid) and portrait.json (separatrix count
and marker labels per portrait family).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from flagricci import cli  # noqa: E402


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return buf.getvalue()


def dump(doc: dict) -> str:
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()) + "\n}\n"


def main() -> None:
    out_dir = checks.REFERENCE_DIR
    out_dir.mkdir(exist_ok=True)
    tmp = Path.cwd() / ".perfbench" / "reference.svg"
    tmp.parent.mkdir(exist_ok=True)

    verify = {}
    for fid, params in run.TABLE_FAMILIES:
        doc = json.loads(cli_stdout(["verify", *run.family_flags(fid, params)]))
        verify[run.family_key(fid, params)] = checks.verify_pairs(doc)
    (out_dir / "verify.json").write_text(dump(verify))

    portrait = {}
    for fid, params in run.PORTRAIT_FAMILIES:
        cli_stdout(["portrait", *run.family_flags(fid, params), "--seed", "0", "--out", str(tmp)])
        _orbits, seps, markers = checks.portrait_shape(tmp.read_text())
        portrait[run.family_key(fid, params)] = {"separatrices": seps, "markers": markers}
    (out_dir / "portrait.json").write_text(dump(portrait))

    stdout = cli_stdout(
        ["basins", *run.family_flags(*run.BASINS_FAMILY), "--res", str(run.BASINS_RES), "--svg", str(tmp)]
    )
    grid = checks.parse_basins_csv(stdout)
    (out_dir / "basins_g2u2_256.txt").write_text(checks.write_grid(grid, run.BASINS_RES))
    tmp.unlink()


if __name__ == "__main__":
    main()
