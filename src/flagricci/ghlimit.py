"""Collapse classification for degenerate limit metrics.

An orbit of the projected flow that terminates on the boundary of the
simplex describes invariant metrics whose limit kills one or more
isotropy summands.  What survives depends only on which summands vanish
and on the bracket table of the family: the vanished summands generate,
together with the isotropy algebra k, a subalgebra h, and the limit is
a single point when h is everything, or else the named homogeneous
space the catalog attaches to the kernel pattern.
"""

from __future__ import annotations

import math

from .catalog import (
    ALL_SUMMANDS,
    BOREL_DE_SIEBENTHAL,
    SYMMETRIC_PAIR,
    BracketTable,
    FamilyDescriptor,
    GHLimitLabel,
    bracket_table,
    gh_catalog,
    subalgebra_closure,
)

KERNEL_EPS = 1e-6


class NotDegenerate(ValueError):
    """The limit point is interior, so no summand collapses."""


def kernel_summands(limit_point, eps: float = KERNEL_EPS) -> frozenset:
    """Indices of the summands that collapse at a boundary limit point.

    The planar point (x, y) lifts to simplex coordinates (x, y, 1-x-y);
    summand i belongs to the kernel when its lifted coordinate falls
    below eps.  An interior point has no vanishing coordinate and is
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
    vanished = frozenset(i + 1 for i, c in enumerate(lifted) if c < eps)
    if not vanished:
        raise NotDegenerate(
            f"point ({x}, {y}) is interior: no lifted coordinate below {eps}"
        )
    return vanished


def symmetric_pair_check(table: BracketTable, h_summands) -> bool:
    """Whether k plus the given summands forms a symmetric pair with its
    complement.

    With h the given summand set and m its complement, the test asks at
    summand granularity that [h, h] lands in h and k, [h, m] lands in m,
    and [m, m] lands back in h and k.  The input must be bracket-closed;
    a set that brackets outside itself is rejected with ValueError.
    """
    h = frozenset(h_summands)
    if not h <= ALL_SUMMANDS:
        raise ValueError(f"h_summands must be a subset of {{1, 2, 3}}, got {sorted(h)}")
    m = ALL_SUMMANDS - h
    for i in h:
        for j in h:
            if not table.entry(i, j) <= h:
                raise ValueError(
                    f"h_summands is not bracket-closed: [m{i}, m{j}] leaves it"
                )
    for i in h:
        for j in m:
            if not table.entry(i, j) <= m:
                return False
    for i in m:
        for j in m:
            if not table.entry(i, j) <= h:
                return False
    return True


def classify_limit(
    family: FamilyDescriptor, limit_point, eps: float = KERNEL_EPS
) -> GHLimitLabel:
    """Collapsed-limit label for a degenerate boundary limit point.

    Looks the kernel pattern up in the catalog, which labels Point every
    pattern whose bracket closure exhausts the summands.  For the
    families whose labels record it, the symmetric-pair test on the
    closure is checked against the stored class.
    """
    kernel = kernel_summands(limit_point, eps)
    label = gh_catalog(family)[kernel]
    if label.space_class in (SYMMETRIC_PAIR, BOREL_DE_SIEBENTHAL):
        table = bracket_table(family)
        derived = (
            SYMMETRIC_PAIR
            if symmetric_pair_check(table, subalgebra_closure(table, kernel))
            else BOREL_DE_SIEBENTHAL
        )
        if label.space_class != derived:
            raise RuntimeError(
                f"catalog class {label.space_class!r} disagrees with the bracket "
                f"check for kernel {sorted(kernel)} of {family.id}"
            )
    return label
