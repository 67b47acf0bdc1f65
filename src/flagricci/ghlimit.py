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
from dataclasses import dataclass

from .catalog import (
    BOREL_DE_SIEBENTHAL,
    SYMMETRIC_PAIR,
    BracketTable,
    FamilyDescriptor,
    GHLimitLabel,
    bracket_table,
    gh_catalog,
)

KERNEL_EPS = 1e-6

_ALL = frozenset({1, 2, 3})
_SUMMAND_INDEX = {"m1": 1, "m2": 2, "m3": 3}


class NotDegenerate(ValueError):
    """The limit point is interior, so no summand collapses."""


@dataclass(frozen=True)
class KernelPattern:
    """Set of summand indices whose lifted coordinate vanished."""

    vanished: frozenset

    def __iter__(self):
        return iter(sorted(self.vanished))


@dataclass(frozen=True)
class SubalgebraClosure:
    """Summands contained in the subalgebra generated by the kernel and k."""

    summands: frozenset

    @property
    def is_all(self) -> bool:
        return self.summands == _ALL


def kernel_summands(limit_point, eps: float = KERNEL_EPS) -> KernelPattern:
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
    return KernelPattern(vanished)


def subalgebra_closure(table: BracketTable, kernel: KernelPattern) -> SubalgebraClosure:
    """Least bracket-closed set of summands containing the kernel.

    Starting from the kernel, any summand reachable as a bracket target
    of two members is added until nothing new appears; the component k
    is absorbed silently since it always belongs to the subalgebra.
    """
    if not kernel.vanished:
        raise ValueError("kernel must be nonempty")
    present = set(kernel.vanished)
    while True:
        added = set()
        for i in present:
            for j in present:
                for name in table.entry(i, j):
                    if name == "k":
                        continue
                    idx = _SUMMAND_INDEX[name]
                    if idx not in present:
                        added.add(idx)
        if not added:
            return SubalgebraClosure(frozenset(present))
        present |= added


def symmetric_pair_check(table: BracketTable, h_summands) -> bool:
    """Whether k plus the given summands forms a symmetric pair with its
    complement.

    With h the given summand set and m its complement, the test asks at
    summand granularity that [h, h] lands in h and k, [h, m] lands in m,
    and [m, m] lands back in h and k.  The input must be bracket-closed;
    a set that brackets outside itself is rejected with ValueError.
    """
    h = frozenset(h_summands)
    if not h <= _ALL:
        raise ValueError(f"h_summands must be a subset of {{1, 2, 3}}, got {sorted(h)}")
    m = _ALL - h

    def targets(i: int, j: int) -> set:
        return {_SUMMAND_INDEX[name] for name in table.entry(i, j) if name != "k"}

    for i in h:
        for j in h:
            if not targets(i, j) <= h:
                raise ValueError(
                    f"h_summands is not bracket-closed: [m{i}, m{j}] leaves it"
                )
    for i in h:
        for j in m:
            if not targets(i, j) <= m:
                return False
    for i in m:
        for j in m:
            if not targets(i, j) <= h:
                return False
    return True


def classify_limit(
    family: FamilyDescriptor, limit_point, eps: float = KERNEL_EPS
) -> GHLimitLabel:
    """Collapsed-limit label for a degenerate boundary limit point.

    Computes the kernel pattern, closes it under the bracket table, and
    returns Point when the closure exhausts every summand; otherwise the
    catalog entry for the kernel pattern is returned, after verifying
    for the families whose labels record it that the symmetric-pair test
    agrees with the stored class.
    """
    kernel = kernel_summands(limit_point, eps)
    table = bracket_table(family)
    closure = subalgebra_closure(table, kernel)
    catalog = gh_catalog(family)
    if closure.is_all:
        return catalog[_ALL]
    label = catalog[kernel.vanished]
    if label.space_class in (SYMMETRIC_PAIR, BOREL_DE_SIEBENTHAL):
        derived = (
            SYMMETRIC_PAIR
            if symmetric_pair_check(table, closure.summands)
            else BOREL_DE_SIEBENTHAL
        )
        if label.space_class != derived:
            raise RuntimeError(
                f"catalog class {label.space_class!r} disagrees with the bracket "
                f"check for kernel {sorted(kernel.vanished)} of {family.id}"
            )
    return label
