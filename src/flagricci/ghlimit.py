"""Collapse classification for degenerate limit metrics.

An orbit of the projected flow that terminates on the boundary of the
simplex describes invariant metrics whose limit kills one or more
isotropy summands.  What survives depends only on which summands vanish
and on the bracket table of the family: the vanished summands generate,
together with the isotropy algebra k, a subalgebra h, and the limit is
a single point when h is everything, or else the named homogeneous
space the catalog attaches to the kernel pattern.  This module finds the
kernel of a boundary point; classify_limit is a lookup of that kernel in
catalog.gh_catalog, which holds the closures and the space classes.
"""

from __future__ import annotations

import math

from .catalog import FamilyDescriptor, GHLimitLabel, gh_catalog

KERNEL_EPS = 1e-6


class NotDegenerate(ValueError):
    """The limit point is interior, so no summand collapses."""


def kernel_summands(limit_point) -> frozenset:
    """Indices of the summands that collapse at a boundary limit point.

    The planar point (x, y) lifts to simplex coordinates (x, y, 1-x-y);
    summand i belongs to the kernel when its lifted coordinate falls
    below KERNEL_EPS.  An interior point has no vanishing coordinate and is
    rejected with NotDegenerate; a non-finite point, or one with a
    lifted coordinate below -KERNEL_EPS (outside the closed simplex), is
    rejected with ValueError.
    """
    x, y = float(limit_point[0]), float(limit_point[1])
    lifted = (x, y, 1.0 - x - y)
    if not all(math.isfinite(c) for c in lifted):
        raise ValueError(f"point ({x}, {y}) is not finite")
    if min(lifted) < -KERNEL_EPS:
        raise ValueError(f"point ({x}, {y}) lies outside the closed simplex")
    vanished = frozenset(i + 1 for i, c in enumerate(lifted) if c < KERNEL_EPS)
    if not vanished:
        raise NotDegenerate(f"point ({x}, {y}) is interior: no lifted coordinate below {KERNEL_EPS}")
    return vanished


def classify_limit(family: FamilyDescriptor, limit_point) -> GHLimitLabel:
    """Collapsed-limit label for a degenerate boundary limit point: the
    catalog's label of its kernel pattern."""
    return gh_catalog(family)[kernel_summands(limit_point)]
