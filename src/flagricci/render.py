"""Standalone SVG diagnostics: basin heat maps and phase portraits.

Both renderers map the closed simplex onto a fixed 800 x 800 viewport
with a 5 percent margin and emit self-contained SVG (no external
assets).  Styling lives in the constants below; portraits are meant as
diagnostics rather than publication figures.
"""

from __future__ import annotations

import numpy as np

from .catalog import (
    ATTRACTOR,
    FamilyDescriptor,
    REPELLER,
    SADDLE,
    reference_equilibria,
)
from .dynamics import BasinGrid, phase_portrait, random_interior_points

VIEW = 800
MARGIN = 0.05 * VIEW

BACKGROUND = "#ffffff"
SIMPLEX_EDGE = "#333333"
ORBIT_STROKE = "#8899aa"
SEPARATRIX_STROKE = "#cc3333"
MARKER_FILL = {ATTRACTOR: "#2266cc", REPELLER: "#cc3333", SADDLE: "#22aa55"}
MARKER_SIZE = 7.0
UNDETERMINED_FILL = "#bbbbbb"
# sample orbits per phase portrait, by default and at most (a recorded
# orbit holds ~44 KB while the portrait is built)
PORTRAIT_ORBITS = 12
PORTRAIT_MAX_ORBITS = 1000

# basin fill colors, assigned to attractor labels in sorted order
BASIN_PALETTE = (
    "#7fc4e8",
    "#f2b37f",
    "#9fd49f",
    "#d4a7d8",
    "#e8e07f",
    "#c4a484",
)


def _xy(x: float, y: float) -> tuple:
    """Simplex coordinates to SVG viewport coordinates (y axis flipped)."""
    span = VIEW - 2 * MARGIN
    return (MARGIN + span * x, VIEW - MARGIN - span * y)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _svg_header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="{BACKGROUND}"/>',
        f'<title>{title}</title>',
    ]


def _simplex_outline() -> str:
    o = _xy(0.0, 0.0)
    q = _xy(1.0, 0.0)
    p = _xy(0.0, 1.0)
    pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in (o, q, p))
    return (
        f'<polygon points="{pts}" fill="none" stroke="{SIMPLEX_EDGE}" '
        f'stroke-width="1.5"/>'
    )


def _family_title(family: FamilyDescriptor) -> str:
    if family.params:
        return f"{family.id}{family.params}"
    return family.id


def basins_svg(grid: BasinGrid) -> str:
    """Heat map of a basin grid: one colored cell per grid point."""
    labels = sorted(grid.attractor_labels)
    color = {lab: BASIN_PALETTE[i % len(BASIN_PALETTE)] for i, lab in enumerate(labels)}
    color["Undetermined"] = UNDETERMINED_FILL
    res = grid.resolution
    span = VIEW - 2 * MARGIN
    cell = span / res
    out = _svg_header(f"basins {_family_title(grid.family)} {res}x{res}")
    for iy in range(res):
        for ix in range(res):
            lab = grid.labels[iy][ix]
            if lab is None:
                continue
            cx, cy = _xy(grid.xs[ix], grid.ys[iy])
            out.append(
                f'<rect x="{_fmt(cx - cell / 2)}" y="{_fmt(cy - cell / 2)}" '
                f'width="{_fmt(cell)}" height="{_fmt(cell)}" '
                f'fill="{color[lab]}"/>'
            )
    out.append(_simplex_outline())
    # legend in the top-right corner
    lx, ly = VIEW - MARGIN - 150, MARGIN
    for i, lab in enumerate(labels + ["Undetermined"]):
        yy = ly + 22 * i
        out.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(yy)}" width="14" height="14" '
            f'fill="{color[lab]}"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 20)}" y="{_fmt(yy + 12)}" '
            f'font-family="monospace" font-size="14">{lab}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _marker(x: float, y: float, stability: str, label: str) -> str:
    cx, cy = _xy(x, y)
    r = MARKER_SIZE
    fill = MARKER_FILL.get(stability, UNDETERMINED_FILL)
    if stability == ATTRACTOR:
        shape = f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>'
    elif stability == REPELLER:
        shape = (
            f'<rect x="{_fmt(cx - r)}" y="{_fmt(cy - r)}" width="{_fmt(2 * r)}" '
            f'height="{_fmt(2 * r)}" fill="{fill}"/>'
        )
    else:
        pts = " ".join(
            f"{_fmt(a)},{_fmt(b)}"
            for a, b in (
                (cx, cy - 1.3 * r),
                (cx + 1.3 * r, cy),
                (cx, cy + 1.3 * r),
                (cx - 1.3 * r, cy),
            )
        )
        shape = f'<polygon points="{pts}" fill="{fill}"/>'
    text = (
        f'<text x="{_fmt(cx + 10)}" y="{_fmt(cy - 10)}" '
        f'font-family="monospace" font-size="16">{label}</text>'
    )
    return shape + "\n" + text


def _polyline(points, stroke: str, width: float, dashed: bool = False) -> str:
    if len(points) < 2:
        return ""
    pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in (_xy(x, y) for x, y in points))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}"{dash}/>'
    )


def _thin(points, limit: int = 400):
    if len(points) <= limit:
        return points
    idx = np.linspace(0, len(points) - 1, limit).astype(int)
    return [points[i] for i in idx]


def portrait_svg(family: FamilyDescriptor, seed: int = 0, n_orbits: int = PORTRAIT_ORBITS) -> str:
    """Phase portrait: sample orbits, separatrices, equilibrium markers.

    Attractors are drawn as circles, repellers as squares, saddles as
    diamonds; separatrices are dashed.  Sample orbits start from seeded
    random interior points, so identical seeds give identical output.
    Raises ValueError for a negative seed or an orbit count outside [0, PORTRAIT_MAX_ORBITS].
    """
    for name, value in (("seed", seed), ("orbit count", n_orbits)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if n_orbits > PORTRAIT_MAX_ORBITS:
        raise ValueError(f"orbit count must be at most {PORTRAIT_MAX_ORBITS}, got {n_orbits!r}")
    out = _svg_header(f"portrait {_family_title(family)}")
    out.append(_simplex_outline())

    rng = np.random.default_rng(seed)
    orbits, seps = phase_portrait(family, random_interior_points(n_orbits, rng))
    for orbit in orbits:
        line = _polyline(_thin(orbit), ORBIT_STROKE, 1.0)
        if line:
            out.append(line)

    for sep in seps:
        line = _polyline(_thin(sep.points), SEPARATRIX_STROKE, 1.8, dashed=True)
        if line:
            out.append(line)

    for rec in reference_equilibria(family):
        x, y = rec.position_float()
        out.append(_marker(x, y, rec.expected_class, rec.label))

    out.append("</svg>")
    return "\n".join(out) + "\n"
