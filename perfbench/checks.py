"""Output checks against the recorded reference outputs in perfbench/reference.

Each check returns (attempted, failed) for one CLI call.  A verify or
portrait call is one operation; a basins call is one operation per
labelled cell, so a single wrong cell counts as one failure.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SVG_NS = "{http://www.w3.org/2000/svg}"


def load_references(ref_dir: Path = REFERENCE_DIR) -> dict:
    return {
        "verify": json.loads((ref_dir / "verify.json").read_text()),
        "portrait": json.loads((ref_dir / "portrait.json").read_text()),
        "basins": read_grid((ref_dir / "basins_g2u2_256.txt").read_text()),
    }


# ----------------------------------------------------------------------
# verify

def verify_pairs(doc: dict) -> list:
    """Sorted (label, class) pairs of every equilibrium verify reports."""
    pairs = [(c["label"], c["found_class"]) for c in doc["checks"]]
    pairs += [(e["matched_label"], e["class"]) for e in doc["extras"]]
    return sorted(pairs, key=lambda p: (str(p[0]), str(p[1])))


def check_verify(rc: int, stdout: str, reference: list) -> tuple:
    try:
        doc = json.loads(stdout)
        ok = (
            rc == 0
            and doc["passed"] is True
            and all(c["passed"] is True for c in doc["checks"])
            and Counter(verify_pairs(doc)) == Counter(tuple(p) for p in reference)
        )
    except (ValueError, KeyError, TypeError):
        ok = False
    return 1, 0 if ok else 1


# ----------------------------------------------------------------------
# basins

def read_grid(text: str) -> dict:
    """Reference grid text, one row per line from iy = 0; '.' is no cell."""
    lines = text.splitlines()
    legend = dict(tok.split("=", 1) for tok in lines[0].split())
    grid = {}
    for iy, row in enumerate(lines[1:]):
        for ix, ch in enumerate(row):
            if ch != ".":
                grid[(ix, iy)] = legend[ch]
    return grid


def write_grid(grid: dict, resolution: int) -> str:
    codes = {lab: chr(ord("a") + i) for i, lab in enumerate(sorted(set(grid.values())))}
    lines = [" ".join(f"{c}={lab}" for lab, c in codes.items())]
    for iy in range(resolution):
        lines.append("".join(codes[grid[(ix, iy)]] if (ix, iy) in grid else "." for ix in range(resolution)))
    return "\n".join(lines) + "\n"


def parse_basins_csv(stdout: str) -> dict:
    rows = stdout.splitlines()
    if not rows or rows[0] != "ix,iy,x,y,label":
        raise ValueError("basins CSV header missing")
    grid = {}
    for row in rows[1:]:
        ix, iy, _x, _y, label = row.split(",")
        grid[(int(ix), int(iy))] = label
    return grid


def svg_root(text: str):
    """Parsed SVG root element, or None when the text is not well-formed."""
    try:
        return ET.fromstring(text)
    except ET.ParseError:
        return None


def check_basins(rc: int, stdout: str, svg_text: str, reference: dict) -> tuple:
    """One operation per reference cell; each differing cell fails."""
    attempted = len(reference)
    try:
        grid = parse_basins_csv(stdout)
    except ValueError:
        return attempted, attempted
    root = svg_root(svg_text)
    if rc != 0 or root is None or len(root.findall(f"{SVG_NS}rect")) < len(grid):
        return attempted, attempted
    failed = sum(1 for cell, lab in reference.items() if grid.get(cell) != lab)
    extra = len(set(grid) - set(reference))
    return attempted + extra, failed + extra


# ----------------------------------------------------------------------
# portrait

def portrait_shape(svg_text: str):
    """(orbit polylines, separatrix polylines, sorted marker labels)."""
    root = svg_root(svg_text)
    if root is None:
        return None
    lines = root.findall(f"{SVG_NS}polyline")
    dashed = sum(1 for el in lines if el.get("stroke-dasharray"))
    labels = sorted(el.text for el in root.findall(f"{SVG_NS}text") if el.get("font-size") == "16")
    return len(lines) - dashed, dashed, labels


def check_portrait(rc: int, svg_text: str, orbits: int, reference: dict, digests: dict, key) -> tuple:
    """Shape against the reference; bytes against earlier calls with the same key."""
    digest = hashlib.sha256(svg_text.encode()).hexdigest()
    same_bytes = digests.setdefault(key, digest) == digest
    shape = portrait_shape(svg_text)
    ok = (
        rc == 0
        and same_bytes
        and shape == (orbits, reference["separatrices"], sorted(reference["markers"]))
    )
    return 1, 0 if ok else 1
