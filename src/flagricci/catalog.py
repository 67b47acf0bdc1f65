"""Static data for every flag family with three isotropy summands.

For each family this module records the summand dimensions, the Lie
bracket relations between summands (with their closure and the
symmetric-pair test), the known equilibria of the projected flow (with
closed-form eigenvalues where available), and the collapsed-limit
target spaces keyed by which summands degenerate.

Two families are parametric (the SU and SO series); the rest are eight
fixed spaces: one exceptional Type II flag and the seven Type I flags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional

F = Fraction

KIND_SU = "TypeII_SU"
KIND_SO = "TypeII_SO"
KIND_E6 = "TypeII_E6"
KIND_TYPE1 = "TypeI"
# the ids that name a Type II kind; every other id is a Type I flag
_TYPE2_KINDS = {"su": KIND_SU, "so": KIND_SO, "e6so8u1u1": KIND_E6}

DEGENERATE = "degenerate"
KAHLER_EINSTEIN = "KahlerEinstein"
EINSTEIN_NON_KAHLER = "EinsteinNonKahler"

REPELLER = "repeller"
ATTRACTOR = "attractor"
SADDLE = "saddle"


# ----------------------------------------------------------------------
# families

@dataclass(frozen=True)
class FamilyDescriptor:
    id: str
    params: tuple
    dims: tuple
    group_name: str
    isotropy_name: str

    @property
    def kind(self) -> str:
        return _TYPE2_KINDS.get(self.id, KIND_TYPE1)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_type_two(self) -> bool:
        return self.kind != KIND_TYPE1

    def display_kind(self) -> str:
        if self.kind == KIND_SU:
            return "TypeII_SU({},{},{})".format(*self.params)
        if self.kind == KIND_SO:
            return f"TypeII_SO({self.params[0]})"
        if self.kind == KIND_E6:
            return "TypeII_E6"
        return f"TypeI({self.group_name}/{self.isotropy_name})"


def su_family(m: int, n: int, p: int) -> FamilyDescriptor:
    """Full or partial complex flag SU(m+n+p)/S(U(m)xU(n)xU(p))."""
    if not (m >= n >= p > 0):
        raise ValueError(f"SU family requires m >= n >= p > 0, got ({m},{n},{p})")
    s = m + n + p
    return FamilyDescriptor(
        id="su",
        params=(m, n, p),
        dims=(2 * m * n, 2 * m * p, 2 * n * p),
        group_name=f"SU({s})",
        isotropy_name=f"S(U({m})xU({n})xU({p}))",
    )


def so_family(ell: int) -> FamilyDescriptor:
    """Real flag SO(2l)/(U(1)xU(l-1)), l >= 4."""
    if ell < 4:
        raise ValueError(f"SO family requires l >= 4, got {ell}")
    return FamilyDescriptor(
        id="so",
        params=(ell,),
        dims=(2 * (ell - 1), 2 * (ell - 1), (ell - 1) * (ell - 2)),
        group_name=f"SO({2 * ell})",
        isotropy_name=f"U(1)xU({ell - 1})",
    )


def e6_family() -> FamilyDescriptor:
    """The exceptional Type II flag with three 16-dimensional summands."""
    return FamilyDescriptor(
        id="e6so8u1u1",
        params=(),
        dims=(16, 16, 16),
        group_name="E6",
        isotropy_name="SO(8)xU(1)xU(1)",
    )


# The seven Type I flags: (d1, d2, d3), group, isotropy, the off-center
# saddles (R, S) to five decimals, and the (name, dim) of the limits of
# collapsing m2 (a symmetric space) and m3 (a maximal-rank non-symmetric
# space).  The (60, 30, 10) family shares its saddles with the (24, 12, 4)
# family: the projected field is homogeneous of degree 3 in the summand
# dimensions, so proportional dimension vectors give the identical system
# and identical equilibria.
_TYPE1_ROWS = {
    "e8e6su2u1": ((108, 54, 4), "E8", "E6xSU(2)xU(1)", ((0.46847, 0.47077), (0.28932, 0.26453)),
                  (("E8/(E7xSU(2))", 112), ("E8/(E6xSU(3))", 162))),
    "e8su8u1": ((112, 56, 16), "E8", "SU(8)xU(1)", ((0.33648, 0.24145), (0.39343, 0.42039)),
                (("E8/Spin(16)", 128), ("E8/SU(9)", 168))),
    "e7su5su3u1": ((60, 30, 10), "E7", "SU(5)xSU(3)xU(1)", ((0.34725, 0.23562), (0.37927, 0.41362)),
                   (("E7/SU(8)", 70), ("E7/(SU(6)xSU(3))", 90))),
    "e7su6su2u1": ((60, 30, 4), "E7", "SU(6)xSU(2)xU(1)", ((0.44544, 0.45244), (0.30245, 0.25819)),
                   (("E7/(SO(12)xSU(2))", 64), ("E7/(SU(6)xSU(3))", 90))),
    "e6su3su3su2u1": ((36, 18, 4), "E6", "SU(3)xSU(3)xSU(2)xU(1)", ((0.32220, 0.24866), (0.41388, 0.43154)),
                      (("E6/(SU(6)xSU(2))", 40), ("E6/(SU(3)xSU(3)xSU(3))", 54))),
    "f4su3su2u1": ((24, 12, 4), "F4", "SU(3)xSU(2)xU(1)", ((0.34725, 0.23562), (0.37927, 0.41362)),
                   (("F4/(Sp(3)xSU(2))", 28), ("F4/(SU(3)xSU(3))", 36))),
    "g2u2": ((4, 2, 4), "G2", "U(2)", ((0.21154, 0.35427), (0.46117, 0.08619)),
             (("G2/SO(4)", 8), ("G2/SU(3)", 6))),
}

TYPE1_IDS = tuple(_TYPE1_ROWS)


def type1_family(fid: str) -> FamilyDescriptor:
    if fid not in _TYPE1_ROWS:
        raise ValueError(f"unknown Type I family {fid!r}")
    dims, group, isotropy = _TYPE1_ROWS[fid][:3]
    return FamilyDescriptor(
        id=fid,
        params=(),
        dims=dims,
        group_name=group,
        isotropy_name=isotropy,
    )


def family_from_id(fid: str, params: Optional[tuple] = None) -> FamilyDescriptor:
    """Build a descriptor from an id plus parameters where required."""
    if fid == "su":
        if params is None or len(params) != 3:
            raise ValueError("family 'su' needs params (m, n, p)")
        return su_family(*params)
    if fid == "so":
        if params is None or len(params) != 1:
            raise ValueError("family 'so' needs params (l,)")
        return so_family(*params)
    if params is not None:
        raise ValueError(f"family {fid!r} takes no params")
    if fid == "e6so8u1u1":
        return e6_family()
    return type1_family(fid)


# list_families' largest bounds: 2600 SU and 997 SO families, ~15 and ~6 MB of JSON
MNP_BOUND_MAX, ELL_BOUND_MAX = 24, 1000


def list_families(mnp_bound: Optional[int] = None, ell_bound: Optional[int] = None) -> list:
    """All constant families, plus parametric ones enumerated within bounds.

    mnp_bound enumerates SU families with m >= n >= p and all of m, n, p
    at most the bound; ell_bound enumerates SO families with 4 <= l <=
    ell_bound.  The seven Type I families and the exceptional Type II
    family are always present.  A bound above its *_BOUND_MAX is rejected.
    """
    for name, bound, top in (("mnp_bound", mnp_bound, MNP_BOUND_MAX), ("ell_bound", ell_bound, ELL_BOUND_MAX)):
        if bound is not None and bound < 1:
            raise ValueError(f"bounds must be positive, got {bound}")
        if bound is not None and bound > top:
            raise ValueError(f"{name} must be at most {top}, got {bound}")
    out = []
    if mnp_bound is not None:
        for m in range(1, mnp_bound + 1):
            for n in range(1, m + 1):
                for p in range(1, n + 1):
                    out.append(su_family(m, n, p))
    if ell_bound is not None:
        for ell in range(4, ell_bound + 1):
            out.append(so_family(ell))
    out.append(e6_family())
    out.extend(type1_family(fid) for fid in TYPE1_IDS)
    return out


# ----------------------------------------------------------------------
# bracket tables

ALL_SUMMANDS = frozenset({1, 2, 3})


@dataclass(frozen=True)
class BracketTable:
    """Symmetric 3x3 table of bracket targets between isotropy summands.

    entry(i, j) is the set of summand indices (among 1, 2, 3) that can
    receive [m_i, m_j]; the isotropy algebra k, which may receive any
    bracket of a summand with itself, is left out.  The rules
    [k, m_i] in m_i and [k, k] in k are implicit.
    """

    entries: tuple

    def entry(self, i: int, j: int) -> frozenset:
        return self.entries[i - 1][j - 1]


def _table(rows: dict) -> BracketTable:
    """Table from its nonempty entries; every other entry lands in k alone."""
    grid = [[frozenset()] * 3 for _ in range(3)]
    for (i, j), targets in rows.items():
        grid[i - 1][j - 1] = frozenset(targets)
        grid[j - 1][i - 1] = frozenset(targets)
    return BracketTable(tuple(tuple(row) for row in grid))


_TYPE2_TABLE = _table({(1, 2): {3}, (1, 3): {2}, (2, 3): {1}})

_TYPE1_TABLE = _table({(1, 1): {2}, (1, 2): {1, 3}, (1, 3): {2}, (2, 3): {1}})


def bracket_table(family: FamilyDescriptor) -> BracketTable:
    return _TYPE2_TABLE if family.is_type_two else _TYPE1_TABLE


def subalgebra_closure(table: BracketTable, kernel) -> frozenset:
    """Least bracket-closed set of summands containing the kernel.

    Starting from the kernel, any summand reachable as a bracket target
    of two members is added until nothing new appears; k always belongs
    to the subalgebra and is not listed.  The kernel must be a nonempty
    subset of {1, 2, 3}, or ValueError is raised.
    """
    present = frozenset(kernel)
    if not present or not present <= ALL_SUMMANDS:
        raise ValueError(f"kernel must be a nonempty subset of {{1, 2, 3}}, got {sorted(present)}")
    while True:
        grown = present.union(*(table.entry(i, j) for i in present for j in present))
        if grown == present:
            return present
        present = grown


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
    leaving = next(((i, j) for i in h for j in h if not table.entry(i, j) <= h), None)
    if leaving:
        raise ValueError("h_summands is not bracket-closed: [m{}, m{}] leaves it".format(*leaving))
    m = ALL_SUMMANDS - h
    return all(table.entry(i, j) <= m for i in h for j in m) and all(
        table.entry(i, j) <= h for i in m for j in m
    )


# ----------------------------------------------------------------------
# reference equilibria

# relative tolerance on a record's closed-form eigenvalues
EIGEN_REL_TOL = 1e-7
# distance within which a found zero is the record: the exact closed-form
# positions are met up to rounding, while the Type I saddle table gives
# its positions to five decimals only
POSITION_TOL_EXACT = 1e-9
POSITION_TOL_DECIMAL = 1e-4


@dataclass(frozen=True)
class EquilibriumRecord:
    label: str
    position: tuple
    metric_kind: str
    expected_class: str
    eigenvalues: Optional[tuple] = None

    @property
    def position_exact(self) -> bool:
        """Whether both coordinates are Fractions; the Type I saddles' are five-decimal floats."""
        return all(isinstance(c, Fraction) for c in self.position)

    @property
    def position_tol(self) -> float:
        """Distance within which a found zero is this record."""
        return POSITION_TOL_EXACT if self.position_exact else POSITION_TOL_DECIMAL

    @property
    def eigen_rel_tol(self) -> Optional[float]:
        """Tolerance on the closed-form eigenvalues; None where there are none."""
        return None if self.eigenvalues is None else EIGEN_REL_TOL

    def position_float(self) -> tuple:
        return (float(self.position[0]), float(self.position[1]))


def _su_interior_eigs(m: int, n: int, p: int) -> tuple:
    """Eigenvalues at the interior equilibrium of the SU series."""
    s = m + n + p
    a = F(m * m * (n + p) + m * (n + p) ** 2 + n * n * p + n * p * p, 4 * s * s)
    disc = F((m + n) * (m + p) * (n + p)) * (
        m * m * (n + p) + m * (n * n - 6 * n * p + p * p) + n * p * (n + p)
    )
    disc = disc / F(16 * s**4)
    if disc >= 0:
        root = math.sqrt(disc)
        return (float(a) - root, float(a) + root)
    root = math.sqrt(-disc)
    return (complex(float(a), -root), complex(float(a), root))


def _su_records(m: int, n: int, p: int) -> list:
    s = m + n + p
    rec = EquilibriumRecord
    return [
        rec("O", (F(0), F(0)), DEGENERATE, REPELLER, (F(m + p), F(m + n))),
        rec("P", (F(0), F(1)), DEGENERATE, REPELLER, (F(n + p), F(m + n))),
        rec("Q", (F(1), F(0)), DEGENERATE, REPELLER, (F(n + p), F(m + p))),
        rec("K", (F(0), F(1, 2)), DEGENERATE, ATTRACTOR, (F(-(m + n), 2), F(-(m + n), 2))),
        rec("L", (F(1, 2), F(1, 2)), DEGENERATE, ATTRACTOR, (F(-(n + p), 2), F(-(n + p), 2))),
        rec("M", (F(1, 2), F(0)), DEGENERATE, ATTRACTOR, (F(-(m + p), 2), F(-(m + p), 2))),
        rec(
            "N",
            (F(m + n, 2 * s), F(m + p, 2 * s)),
            EINSTEIN_NON_KAHLER,
            REPELLER,
            _su_interior_eigs(m, n, p),
        ),
        rec(
            "R",
            (F(m + n, 2 * (2 * m + n + p)), F(m + p, 2 * (2 * m + n + p))),
            KAHLER_EINSTEIN,
            SADDLE,
            (F(-m * (m + n) * (m + p), (2 * m + n + p) ** 2), F((m + n) * (m + p), 2 * (2 * m + n + p))),
        ),
        rec(
            "S",
            (F(1, 2), F(m + p, 2 * (m + n + 2 * p))),
            KAHLER_EINSTEIN,
            SADDLE,
            (F(-p * (m + p) * (n + p), (m + n + 2 * p) ** 2), F((m + p) * (n + p), 2 * (m + n + 2 * p))),
        ),
        rec(
            "T",
            (F(m + n, 2 * (m + 2 * n + p)), F(1, 2)),
            KAHLER_EINSTEIN,
            SADDLE,
            (F(-n * (m + n) * (n + p), (m + 2 * n + p) ** 2), F((m + n) * (n + p), 2 * (m + 2 * n + p))),
        ),
    ]


def _so_kl_saddle_eigs(ell: int) -> tuple:
    """Eigenvalues at the two off-center SO saddles S and T.

    The discriminant of their Jacobian is the square ((l-2)(5l-8)/9)^2,
    so both eigenvalues are rational.
    """
    return (F(-2 * ell * (ell - 2) ** 2, (3 * ell - 4) ** 2), F(ell * (ell - 2), 3 * ell - 4))


def _so_records(ell: int) -> list:
    rec = EquilibriumRecord
    kl = _so_kl_saddle_eigs(ell)
    return [
        rec("O", (F(0), F(0)), DEGENERATE, REPELLER, (F(ell), F(ell))),
        # the field is symmetric under swapping x and y (the first two
        # summands share a dimension), so P and Q carry the same spectrum
        rec("P", (F(0), F(1)), DEGENERATE, REPELLER, (F(ell), F(2 * (ell - 2)))),
        rec("Q", (F(1), F(0)), DEGENERATE, REPELLER, (F(ell), F(2 * (ell - 2)))),
        rec("K", (F(0), F(1, 2)), DEGENERATE, ATTRACTOR, (F(-ell, 2), F(-ell, 2))),
        rec("L", (F(1, 2), F(1, 2)), DEGENERATE, ATTRACTOR, (F(2 - ell), F(2 - ell))),
        rec("M", (F(1, 2), F(0)), DEGENERATE, ATTRACTOR, (F(-ell, 2), F(-ell, 2))),
        rec(
            "N",
            (F(ell, 4 * (ell - 1)), F(ell, 4 * (ell - 1))),
            EINSTEIN_NON_KAHLER,
            REPELLER,
            (F((ell - 2) * ell, 2 * (ell - 1) ** 2), F((ell - 2) ** 2 * ell, 4 * (ell - 1) ** 2)),
        ),
        rec("R", (F(1, 4), F(1, 4)), KAHLER_EINSTEIN, SADDLE, (F(-1, 2), F(ell, 4))),
        rec(
            "S",
            (F(ell, 6 * ell - 8), F(1, 2)),
            KAHLER_EINSTEIN,
            SADDLE,
            kl,
        ),
        rec(
            "T",
            (F(1, 2), F(ell, 6 * ell - 8)),
            KAHLER_EINSTEIN,
            SADDLE,
            kl,
        ),
    ]


def _type1_records(fid: str) -> list:
    rec = EquilibriumRecord
    saddle_r, saddle_s = _TYPE1_ROWS[fid][3]
    return [
        rec("O", (F(0), F(0)), DEGENERATE, REPELLER),
        rec("P", (F(0), F(1)), DEGENERATE, REPELLER),
        rec("Q", (F(1), F(0)), DEGENERATE, REPELLER),
        rec("L", (F(1, 2), F(1, 2)), DEGENERATE, ATTRACTOR),
        rec("M", (F(1, 2), F(0)), DEGENERATE, ATTRACTOR),
        rec("N", (F(1, 6), F(1, 3)), KAHLER_EINSTEIN, ATTRACTOR),
        rec("R", saddle_r, EINSTEIN_NON_KAHLER, SADDLE),
        rec("S", saddle_s, EINSTEIN_NON_KAHLER, SADDLE),
    ]


def reference_equilibria(family: FamilyDescriptor) -> list:
    """Known equilibria of the projected flow for the family."""
    if family.kind == KIND_SU:
        return _su_records(*family.params)
    if family.kind == KIND_SO:
        return _so_records(family.params[0])
    if family.kind == KIND_E6:
        # same dynamics as the smallest SU family
        return _su_records(1, 1, 1)
    return _type1_records(family.id)


# ----------------------------------------------------------------------
# collapsed-limit targets

GRASSMANNIAN = "Grassmannian"
COMPLEX_STRUCTURES = "ComplexStructures"
ORIENTED_GRASSMANNIAN = "OrientedGrassmannian"
SYMMETRIC_PAIR = "SymmetricPair"
BOREL_DE_SIEBENTHAL = "BorelDeSiebenthal"
POINT = "Point"


@dataclass(frozen=True)
class GHLimitLabel:
    name: str
    space_class: str
    dim: int
    metric: ClassVar[str] = "normal"

    @property
    def kind(self) -> str:
        return "Point" if self.space_class == POINT else "NamedSpace"


_POINT_LABEL = GHLimitLabel(name="point", space_class=POINT, dim=0)


def _su_gh(m: int, n: int, p: int) -> dict:
    s = m + n + p
    def gr(a: int, dim: int) -> GHLimitLabel:
        return GHLimitLabel(f"Gr_{a}(C^{s})", GRASSMANNIAN, dim)
    # collapsing summand i removes its dimension from the total
    return {
        frozenset({1}): gr(m + n, 2 * p * (m + n)),
        frozenset({2}): gr(m + p, 2 * n * (m + p)),
        frozenset({3}): gr(n + p, 2 * m * (n + p)),
    }


def _so_gh(ell: int) -> dict:
    cx = GHLimitLabel(f"SO({2 * ell})/U({ell})", COMPLEX_STRUCTURES, ell * (ell - 1))
    gr2 = GHLimitLabel(f"SO({2 * ell})/(SO({2 * ell - 2})xSO(2))", ORIENTED_GRASSMANNIAN, 4 * (ell - 1))
    return {frozenset({1}): cx, frozenset({2}): cx, frozenset({3}): gr2}


def _named_spaces(family: FamilyDescriptor) -> dict:
    """(name, dim) of the limit of each single-summand kernel of the E6 or a Type I flag."""
    if family.kind == KIND_E6:
        return {frozenset({i}): ("E6/(SO(10)xU(1))", 32) for i in (1, 2, 3)}
    symmetric, maximal_rank = _TYPE1_ROWS[family.id][4]
    return {frozenset({2}): symmetric, frozenset({3}): maximal_rank}


def gh_catalog(family: FamilyDescriptor) -> dict:
    """Map each nonempty kernel pattern to its collapsed-limit label.

    A pattern whose bracket closure reaches every summand collapses to a
    point; each other pattern is a single summand and takes the named
    space stored for it.  The SU and SO series store their spaces'
    classes; the E6 and Type I limits are SymmetricPair or
    BorelDeSiebenthal by symmetric_pair_check on the pattern's closure.
    """
    table = bracket_table(family)
    if family.kind == KIND_SU:
        named = _su_gh(*family.params)
    elif family.kind == KIND_SO:
        named = _so_gh(family.params[0])
    else:
        named = {}
        for pattern, (name, dim) in _named_spaces(family).items():
            symmetric = symmetric_pair_check(table, subalgebra_closure(table, pattern))
            named[pattern] = GHLimitLabel(name, SYMMETRIC_PAIR if symmetric else BOREL_DE_SIEBENTHAL, dim)
    out = {}
    for r in (1, 2, 3):
        for pattern in map(frozenset, itertools.combinations(sorted(ALL_SUMMANDS), r)):
            is_point = subalgebra_closure(table, pattern) == ALL_SUMMANDS
            out[pattern] = _POINT_LABEL if is_point else named[pattern]
    return out
