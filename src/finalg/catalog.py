"""Embedded catalog of small minimal Taylor algebras.

Covers the three 2-element algebras, the 24 3-element algebras, the 18
4-element 2-generated algebras, and the two extra 4-element affine algebras
(Z4 and Z2xZ2), as transcribed from the published classification.  Entries
defined by a partially specified table plus constraints (cyclic/symmetric,
pair restrictions) are completed by the constrained search at load time and
compared bit-exactly against golden files, so a transcription slip anywhere
surfaces as a hard load error rather than as silently wrong mathematics.

Letter-labeled source tables use the fixed normalization a=0 b=1 c=2 d=3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources

from .core import (
    Algebra,
    AlgebraError,
    OperationTable,
    PartialTable,
    is_commutative,
    is_cyclic,
    is_idempotent,
    is_symmetric,
    parse_algebra,
    restrict,
    serialize_algebra,
)
from .congruence import Partition, all_congruences, is_congruence, quotient_algebra
from .search import Cyclic, Idempotent, RestrictionEquals, Symmetric, unique_completion
from .subpower import clone_membership, free_algebra, term_closure
from .structure import all_subuniverses, clone_excluded


class UnknownNameError(AlgebraError):
    pass


class CatalogIntegrityError(AlgebraError):
    pass


LETTER_MAP = {"a": 0, "b": 1, "c": 2, "d": 3}


# ---------------------------------------------------------------------------
# two-element pair tables (restriction targets); bottom is a local label

def min_table(arity: int, bottom: int) -> OperationTable:
    top = 1 - bottom
    vals = tuple(
        top if args == (top,) * arity else bottom
        for args in itertools.product(range(2), repeat=arity)
    )
    return OperationTable("min", arity, 2, vals)


def maj_table() -> OperationTable:
    vals = tuple(
        1 if sum(a) >= 2 else 0 for a in itertools.product(range(2), repeat=3)
    )
    return OperationTable("maj", 3, 2, vals)


def aff_table() -> OperationTable:
    vals = tuple(x ^ y ^ z for x, y, z in itertools.product(range(2), repeat=3))
    return OperationTable("aff", 3, 2, vals)


def pair_table(kind: str, subset, arity=3) -> OperationTable:
    """Resolve a restriction label.  `min<b>` uses the original bottom label b."""
    if kind == "maj":
        return maj_table()
    if kind == "aff":
        return aff_table()
    if kind.startswith("min"):
        bottom = int(kind[3:])
        u, v = sorted(subset)
        return min_table(arity, 0 if bottom == u else 1)
    raise AlgebraError(f"unknown pair kind {kind!r}")


def zn_aff(n: int, name="g") -> OperationTable:
    return OperationTable(
        name, 3, n,
        tuple((x - y + z) % n for x, y, z in itertools.product(range(n), repeat=3)),
    )


def klein_aff(name="g") -> OperationTable:
    return OperationTable(
        name, 3, 4,
        tuple(x ^ y ^ z for x, y, z in itertools.product(range(4), repeat=3)),
    )


# ---------------------------------------------------------------------------
# transcribed data
#
# 3-element symmetric entries: restrictions to {0,1} and {0,2} plus the
# values g(1,1,2), g(1,2,2), g(0,1,2).

_SYM3 = {
    "T1N": ("maj", "min0", 1, 0, 0),
    "T2N": ("aff", "min0", 0, 1, 1),
    "T3N": ("maj", "aff", 2, 0, 2),
}

# conservative cyclic entries: restrictions to {0,1}, {1,2}, {0,2} plus
# g(0,1,2) and g(0,2,1)
_CYC3 = {
    "T1C": ("min0", "min1", "maj", 0, 0),
    "T2C": ("min0", "maj", "min0", 0, 0),
    "T3C": ("maj", "min1", "min0", 0, 1),
    "T4C": ("min0", "maj", "maj", 0, 0),
    "T5C": ("min0", "aff", "min0", 0, 0),
    "T6C": ("min0", "min1", "aff", 0, 0),
    "T7C": ("aff", "min1", "min0", 0, 1),
    "T8C": ("min0", "aff", "aff", 2, 2),
    "T9C": ("min0", "aff", "maj", 0, 0),
    "T10C": ("min0", "maj", "aff", 2, 2),
    "T11C": ("maj", "aff", "maj", 1, 2),
    "T12C": ("aff", "maj", "aff", 0, 0),
    "T13C": ("aff", "aff", "aff", 0, 0),
    "T14C": ("maj", "maj", "maj", 0, 0),
    "T15C": ("maj", "maj", "maj", 1, 2),
}

# 4-element cyclic entries: pair restrictions plus values on the listed
# argument triples (one representative per rotation orbit)
_CYC4_ROWS = (
    (0, 0, 3), (0, 3, 3), (1, 1, 2), (1, 2, 2), (1, 1, 3), (1, 3, 3),
    (2, 2, 3), (2, 3, 3), (0, 1, 2), (0, 2, 1), (0, 1, 3), (0, 3, 1),
    (0, 2, 3), (0, 3, 2), (1, 2, 3), (1, 3, 2),
)

_CYC4 = {
    "T4,1": ({(0, 1): "maj", (0, 2): "min0"},
             dict(zip(_CYC4_ROWS, (0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1)))),
    "T4,2": ({(0, 1): "aff", (0, 2): "min0"},
             dict(zip(_CYC4_ROWS, (1, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0)))),
    "T4,3": ({(0, 1): "maj", (0, 2): "aff"},
             dict(zip(_CYC4_ROWS, (0, 1, 2, 0, 1, 1, 0, 2, 2, 2, 1, 1, 2, 2, 2, 2)))),
    "T4,4": ({(0, 1): "maj", (0, 2): "aff"},
             dict(zip(_CYC4_ROWS, (2, 0, 2, 0, 2, 0, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0)))),
    "T4,5": ({(0, 1): "maj", (0, 2): "min0"},
             dict(zip(_CYC4_ROWS, (0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1)))),
    "T4,6": ({(0, 1): "aff", (0, 2): "min0"},
             dict(zip(_CYC4_ROWS, (0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1)))),
    "T4,8": ({(0, 2): "min0", (1, 3): "min1", (0, 1): "maj",
              (0, 3): "maj", (1, 2): "maj"},
             {(2, 2, 3): 0, (2, 3, 3): 1, (0, 1, 2): 0, (0, 2, 1): 0,
              (0, 1, 3): 1, (0, 3, 1): 1, (0, 2, 3): 0, (0, 3, 2): 0,
              (1, 2, 3): 1, (1, 3, 2): 1}),
    "T4,9": ({(0, 2): "aff", (1, 3): "aff", (0, 3): "maj", (1, 2): "maj"},
             {(0, 0, 1): 2, (0, 1, 1): 3, (2, 2, 3): 0, (2, 3, 3): 1,
              (0, 1, 2): 0, (0, 2, 1): 0, (0, 1, 3): 1, (0, 3, 1): 1,
              (0, 2, 3): 2, (0, 3, 2): 2, (1, 2, 3): 3, (1, 3, 2): 3}),
    "T4,10": ({(0, 2): "aff", (1, 3): "aff"},
              {(0, 0, 1): 0, (0, 1, 1): 3, (0, 0, 3): 2, (0, 3, 3): 3,
               (1, 1, 2): 1, (1, 2, 2): 0, (2, 2, 3): 2, (2, 3, 3): 1,
               (0, 1, 2): 2, (0, 2, 1): 2, (0, 1, 3): 1, (0, 3, 1): 1,
               (0, 2, 3): 0, (0, 3, 2): 0, (1, 2, 3): 3, (1, 3, 2): 3}),
    "T4,11": ({(0, 2): "maj", (1, 3): "maj", (2, 3): "aff"},
              {(0, 0, 1): 3, (0, 1, 1): 2, (0, 0, 3): 3, (0, 3, 3): 2,
               (1, 1, 2): 2, (1, 2, 2): 3, (0, 1, 2): 3, (0, 2, 1): 3,
               (0, 1, 3): 2, (0, 3, 1): 2, (0, 2, 3): 3, (0, 3, 2): 3,
               (1, 2, 3): 2, (1, 3, 2): 2}),
    "T4,12": ({(0, 2): "aff", (1, 3): "aff"},
              {(0, 0, 1): 3, (0, 1, 1): 2, (0, 0, 3): 1, (0, 3, 3): 2,
               (1, 1, 2): 0, (1, 2, 2): 3, (2, 2, 3): 1, (2, 3, 3): 0,
               (0, 1, 2): 1, (0, 2, 1): 1, (0, 1, 3): 0, (0, 3, 1): 0,
               (0, 2, 3): 3, (0, 3, 2): 3, (1, 2, 3): 2, (1, 3, 2): 2}),
    "T4,13": ({(0, 2): "aff", (1, 3): "aff"},
              {(0, 0, 1): 3, (0, 1, 1): 0, (0, 0, 3): 1, (0, 3, 3): 0,
               (1, 1, 2): 2, (1, 2, 2): 3, (2, 2, 3): 1, (2, 3, 3): 2,
               (0, 1, 2): 1, (0, 2, 1): 1, (0, 1, 3): 2, (0, 3, 1): 2,
               (0, 2, 3): 3, (0, 3, 2): 3, (1, 2, 3): 0, (1, 3, 2): 0}),
}

# T2P: the dual of the dual discriminator -- minority where two arguments
# agree, first argument on pairwise-distinct triples.  Determined during
# development by exhaustive search over all pairs-minority candidates
# (simple + no commutative binary term + no cyclic ternary term + minimal).
_T2P_DISTINCT_FIRST = True

# binary entries with full tables (row-major)
_T47_VALUES = (0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 3)
_T414_VALUES = (0, 2, 1, 0, 2, 1, 3, 2, 1, 3, 2, 1, 0, 2, 1, 3)

# shared values of the operations of T4,15..T4,18 (letters a..d as 0..3)
_T4_15_18_COMMON = {
    (0, 0, 1): 1, (0, 0, 2): 2, (0, 1, 0): 2, (0, 1, 2): 1, (0, 1, 3): 2,
    (0, 2, 0): 1, (0, 2, 1): 2, (0, 2, 3): 1, (0, 3, 1): 1, (0, 3, 2): 2,
    (1, 0, 0): 1, (1, 0, 1): 2, (1, 0, 3): 1, (1, 1, 2): 2, (1, 2, 0): 2,
    (1, 2, 2): 1, (1, 2, 3): 2, (1, 3, 0): 1, (1, 3, 1): 2, (1, 3, 3): 1,
    (2, 0, 0): 2, (2, 0, 2): 1, (2, 0, 3): 2, (2, 1, 0): 1, (2, 1, 1): 2,
    (2, 1, 3): 1, (2, 2, 1): 1, (2, 3, 0): 2, (2, 3, 2): 1, (2, 3, 3): 2,
    (3, 0, 1): 1, (3, 0, 2): 2, (3, 1, 0): 2, (3, 1, 2): 1, (3, 1, 3): 2,
    (3, 2, 0): 1, (3, 2, 1): 2, (3, 2, 3): 1, (3, 3, 1): 1, (3, 3, 2): 2,
}
_T4_15_18_REST_CELLS = (
    (0, 1, 1), (0, 2, 2), (1, 0, 2), (1, 1, 0), (1, 1, 3), (1, 2, 1),
    (1, 3, 2), (2, 0, 1), (2, 1, 2), (2, 2, 0), (2, 2, 3), (2, 3, 1),
    (3, 1, 1), (3, 2, 2),
)
_T4_15_18 = {
    "T4,15": ("maj", (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3)),
    "T4,16": ("maj", (0, 3, 0, 0, 0, 3, 3, 0, 0, 3, 3, 3, 0, 3)),
    "T4,17": ("aff", (3, 3, 0, 3, 3, 3, 3, 0, 3, 3, 3, 3, 3, 3)),
    "T4,18": ("aff", (0, 3, 3, 0, 0, 3, 3, 3, 0, 3, 3, 0, 0, 3)),
}

# the two polynomial group tables attached to the Mal'cev presentation of
# T4,13 (letters a..d as 0..3): x +_a y and x +_b y
T413_PLUS_A = (
    (0, 1, 2, 3),
    (1, 2, 3, 0),
    (2, 3, 0, 1),
    (3, 0, 1, 2),
)
T413_PLUS_B = (
    (1, 0, 3, 2),
    (0, 1, 2, 3),
    (3, 2, 1, 0),
    (2, 3, 0, 1),
)
T413_SIGMA = (2, 1, 0, 3)  # swaps a and c
T413_TAU = (0, 3, 2, 1)  # swaps b and d


def t413_malcev_table() -> OperationTable:
    """The Mal'cev operation p with p(x,a,z), p(x,b,z) the group tables above
    and p commuting with the transpositions sigma=(a c), tau=(b d)."""
    vals = [None] * 64
    for x, z in itertools.product(range(4), repeat=2):
        vals[x * 16 + 0 * 4 + z] = T413_PLUS_A[x][z]
        vals[x * 16 + 1 * 4 + z] = T413_PLUS_B[x][z]
        s, t = T413_SIGMA, T413_TAU
        vals[x * 16 + 2 * 4 + z] = s[T413_PLUS_A[s[x]][s[z]]]
        vals[x * 16 + 3 * 4 + z] = t[T413_PLUS_B[t[x]][t[z]]]
    return OperationTable("p", 3, 4, tuple(vals))


# ---------------------------------------------------------------------------
# builders

def _build_t2p() -> OperationTable:
    vals = []
    for args in itertools.product(range(3), repeat=3):
        s = set(args)
        if len(s) == 1:
            vals.append(args[0])
        elif len(s) == 3:
            vals.append(args[0])
        else:
            vals.append([v for v in args if args.count(v) == 1][0])
    return OperationTable("g", 3, 3, tuple(vals))


def _build_t1p() -> OperationTable:
    vals = []
    for a in itertools.product(range(3), repeat=3):
        if a[0] == a[1] or a[0] == a[2]:
            vals.append(a[0])
        elif a[1] == a[2]:
            vals.append(a[1])
        else:
            vals.append(a[0])
    return OperationTable("g", 3, 3, tuple(vals))


def build_algebra(name: str) -> Algebra:
    """Construct a catalog algebra from its source data (no golden check)."""
    if name == "S":
        return Algebra(2, [OperationTable("t", 2, 2, (0, 0, 0, 1))], label="S")
    if name == "M":
        return Algebra(2, [OperationTable("g", 3, 2, maj_table().values)], label="M")
    if name == "Z2aff":
        return Algebra(2, [zn_aff(2)], label="Z2aff")
    if name in _SYM3:
        k01, k02, v112, v122, v012 = _SYM3[name]
        partial = PartialTable.from_entries(
            "g", 3, 3, {(1, 1, 2): v112, (1, 2, 2): v122, (0, 1, 2): v012}
        )
        table = unique_completion(partial, [
            Idempotent(), Symmetric(),
            RestrictionEquals((0, 1), pair_table(k01, (0, 1))),
            RestrictionEquals((0, 2), pair_table(k02, (0, 2))),
        ], name="g")
        return Algebra(3, [table], label=name)
    if name == "T4N":
        return Algebra(3, [OperationTable("t", 2, 3, (0, 0, 0, 0, 1, 0, 0, 0, 2))],
                       label=name)
    if name == "T5N":
        return Algebra(3, [zn_aff(3)], label=name)
    if name == "T1S":
        return Algebra(3, [OperationTable("t", 2, 3, (0, 0, 2, 0, 1, 1, 2, 1, 2))],
                       label=name)
    if name == "T2S":
        return Algebra(3, [OperationTable("t", 2, 3, (0, 0, 0, 0, 1, 1, 0, 1, 2))],
                       label=name)
    if name == "T1P":
        return Algebra(3, [_build_t1p()], label=name)
    if name == "T2P":
        return Algebra(3, [_build_t2p()], label=name)
    if name in _CYC3:
        k01, k12, k02, v1, v2 = _CYC3[name]
        partial = PartialTable.from_entries("g", 3, 3, {(0, 1, 2): v1, (0, 2, 1): v2})
        table = unique_completion(partial, [
            Idempotent(), Cyclic(),
            RestrictionEquals((0, 1), pair_table(k01, (0, 1))),
            RestrictionEquals((1, 2), pair_table(k12, (1, 2))),
            RestrictionEquals((0, 2), pair_table(k02, (0, 2))),
        ], name="g")
        return Algebra(3, [table], label=name)
    if name in _CYC4:
        pairs, values = _CYC4[name]
        partial = PartialTable.from_entries("g", 3, 4, values)
        cons = [Idempotent(), Cyclic()]
        for subset, kind in sorted(pairs.items()):
            cons.append(RestrictionEquals(subset, pair_table(kind, subset)))
        table = unique_completion(partial, cons, name="g")
        return Algebra(4, [table], label=name)
    if name == "T4,7":
        return Algebra(4, [OperationTable("t", 2, 4, _T47_VALUES)], label=name)
    if name == "T4,14":
        return Algebra(4, [OperationTable("t", 2, 4, _T414_VALUES)], label=name)
    if name in _T4_15_18:
        kind, rest = _T4_15_18[name]
        full = dict(_T4_15_18_COMMON)
        for x in range(4):
            full[(x, x, x)] = x
        for args in itertools.product((0, 3), repeat=3):
            if len(set(args)) == 1:
                continue
            lone = [v for v in args if args.count(v) == 1][0]
            twice = [v for v in args if args.count(v) == 2][0]
            full[args] = twice if kind == "maj" else lone
        for cell, v in zip(_T4_15_18_REST_CELLS, rest):
            full[cell] = v
        vals = tuple(full[a] for a in itertools.product(range(4), repeat=3))
        return Algebra(4, [OperationTable("g", 3, 4, vals)], label=name)
    if name == "Z4aff":
        return Algebra(4, [zn_aff(4)], label=name)
    if name == "Z2xZ2aff":
        return Algebra(4, [klein_aff()], label=name)
    raise UnknownNameError(f"unknown catalog name {name!r}")


# ---------------------------------------------------------------------------
# entries

@dataclass
class CatalogEntry:
    name: str
    algebra: Algebra
    source: str
    letter_map: dict | None
    facts: tuple  # declared, independently re-checkable expectations

    def op(self) -> OperationTable:
        return self.algebra.operations[0]


_NAMES = (
    ["S", "M", "Z2aff"]
    + [f"T{i}N" for i in range(1, 6)]
    + ["T1S", "T2S", "T1P", "T2P"]
    + [f"T{i}C" for i in range(1, 16)]
    + [f"T4,{i}" for i in range(1, 19)]
    + ["Z4aff", "Z2xZ2aff"]
)

_ALIASES = {"Z3aff": "T5N"}


def names():
    """All catalog names in their fixed order."""
    return list(_NAMES)


def _facts_for(name: str):
    facts = []
    if name in _SYM3:
        k01, k02, *_ = _SYM3[name]
        facts.append(("restriction", (0, 1), k01))
        facts.append(("restriction", (0, 2), k02))
        facts.append(("symmetric",))
    elif name == "T4N":
        facts.append(("restriction", (0, 1), "min0"))
        facts.append(("restriction", (0, 2), "min0"))
        facts.append(("commutative",))
    elif name == "T1S":
        facts += [("restriction", (0, 1), "min0"), ("restriction", (1, 2), "min1"),
                  ("restriction", (0, 2), "min2"), ("commutative",), ("conservative",)]
    elif name == "T2S":
        facts += [("restriction", (0, 1), "min0"), ("restriction", (1, 2), "min1"),
                  ("restriction", (0, 2), "min0"), ("commutative",), ("conservative",)]
    elif name == "T1P":
        facts += [("restriction", p, "maj") for p in ((0, 1), (1, 2), (0, 2))]
        facts.append(("conservative",))
    elif name == "T2P":
        facts += [("restriction", p, "aff") for p in ((0, 1), (1, 2), (0, 2))]
        facts.append(("conservative",))
    elif name in _CYC3:
        k01, k12, k02, *_ = _CYC3[name]
        facts += [("restriction", (0, 1), k01), ("restriction", (1, 2), k12),
                  ("restriction", (0, 2), k02), ("cyclic",), ("conservative",)]
    elif name in _CYC4:
        pairs, _ = _CYC4[name]
        for subset, kind in sorted(pairs.items()):
            facts.append(("restriction", subset, kind))
        facts.append(("cyclic",))
    elif name in ("T4,7", "T4,14"):
        facts.append(("commutative",))
    elif name in _T4_15_18:
        kind, _ = _T4_15_18[name]
        facts.append(("restriction", (0, 3), kind))
    return tuple(facts)


_SOURCES = {
    "S": "2-element semilattice",
    "M": "2-element majority algebra",
    "Z2aff": "affine algebra of Z2",
    "T4N": "3-element, nonconservative: semilattice below 1 and 2",
    "T5N": "3-element, nonconservative: affine algebra of Z3",
    "T1S": "3-element, conservative commutative binary (rock-paper-scissors)",
    "T2S": "3-element, conservative commutative binary",
    "T1P": "3-element, conservative, dual discriminator",
    "T2P": "3-element, conservative, simple nonabelian Mal'cev",
    "Z4aff": "affine algebra of Z4",
    "Z2xZ2aff": "affine algebra of Z2 x Z2",
}


def _source_for(name):
    if name in _SOURCES:
        return _SOURCES[name]
    if name in _SYM3:
        return "3-element, nonconservative symmetric family"
    if name in _CYC3:
        return "3-element, conservative cyclic family"
    if name in _CYC4:
        return "4-element 2-generated, cyclic operation"
    if name in ("T4,7", "T4,14"):
        return "4-element 2-generated, commutative binary operation"
    if name in _T4_15_18:
        return "4-element 2-generated, three-class affine quotient"
    return ""


def _letter_map_for(name):
    if name in _T4_15_18 or name in ("T4,13", "T4,14"):
        return dict(LETTER_MAP)
    return None


_cache: dict = {}


def _golden_text(name: str) -> str:
    fname = name.lower().replace(",", "_") + ".alg"
    return resources.files("finalg").joinpath("data").joinpath("catalog").joinpath(fname).read_text()


def get(name: str) -> CatalogEntry:
    """Look up a catalog entry; name may be an alias (e.g. Z3aff -> T5N)."""
    name = _ALIASES.get(name, name)
    if name in _cache:
        return _cache[name]
    if name not in _NAMES:
        raise UnknownNameError(f"unknown catalog name {name!r}")
    alg = build_algebra(name)
    try:
        golden = parse_algebra(_golden_text(name), label=name)
    except FileNotFoundError:
        raise CatalogIntegrityError(f"golden file for {name} missing") from None
    if golden.domain != alg.domain or tuple(
        (o.name, o.arity, o.values) for o in golden.operations
    ) != tuple((o.name, o.arity, o.values) for o in alg.operations):
        raise CatalogIntegrityError(
            f"{name}: constructed table disagrees with the golden file"
        )
    if not alg.is_idempotent():
        raise CatalogIntegrityError(f"{name}: operation not idempotent")
    entry = CatalogEntry(
        name=name,
        algebra=alg,
        source=_source_for(name),
        letter_map=_letter_map_for(name),
        facts=_facts_for(name),
    )
    _cache[name] = entry
    return entry


def check_facts(entry: CatalogEntry):
    """Re-check the declared facts; returns a list of failure strings."""
    failures = []
    op = entry.op()
    for fact in entry.facts:
        kind = fact[0]
        if kind == "restriction":
            _, subset, label = fact
            want = pair_table(label, subset, arity=op.arity)
            try:
                got = restrict(op, subset)
            except AlgebraError as exc:
                failures.append(f"{entry.name}: {subset} not closed ({exc})")
                continue
            if got.values != want.values:
                failures.append(f"{entry.name}: restriction to {subset} is not {label}")
        elif kind == "cyclic":
            if not is_cyclic(op):
                failures.append(f"{entry.name}: operation not cyclic")
        elif kind == "symmetric":
            if not is_symmetric(op):
                failures.append(f"{entry.name}: operation not symmetric")
        elif kind == "commutative":
            if not is_commutative(op):
                failures.append(f"{entry.name}: operation not commutative")
        elif kind == "conservative":
            from .core import is_conservative

            if not is_conservative(op):
                failures.append(f"{entry.name}: operation not conservative")
        else:
            failures.append(f"{entry.name}: unknown fact {fact!r}")
    return failures


def export_entry(name: str) -> str:
    return serialize_algebra(get(name).algebra)


def write_golden_files(directory):
    """Development helper: write every constructed table as a golden file."""
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in _NAMES:
        alg = build_algebra(name)
        fname = name.lower().replace(",", "_") + ".alg"
        (directory / fname).write_text(f"# {name}\n" + serialize_algebra(alg))


# ---------------------------------------------------------------------------
# term equivalence and isomorphism

def transport(alg: Algebra, perm) -> Algebra:
    """Relabel an algebra along a domain bijection."""
    n = alg.domain
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    ops = []
    for op in alg.operations:
        vals = tuple(
            perm[op.values[op.index(tuple(inv[x] for x in args))]]
            for args in itertools.product(range(n), repeat=op.arity)
        )
        ops.append(OperationTable(op.name, op.arity, n, vals))
    return Algebra(n, tuple(ops), label=alg.label)


def term_equivalent(a: Algebra, b: Algebra, cap=None, max_steps=None):
    """Do the two algebras generate the same clone?  True/False/None.

    Every basic operation of each algebra must be a term operation of the
    other.  Cheap exclusion certificates are tried before closure search, so
    a negative answer rarely needs a full free algebra.
    """
    if a.domain != b.domain:
        raise AlgebraError("term_equivalent requires equal domains")
    inconclusive = False
    for src, dst in ((a, b), (b, a)):
        for op in dst.operations:
            if clone_excluded(src, op):
                return False
            member, _ = clone_membership(src, op, cap=cap, max_steps=max_steps)
            if member is False:
                return False
            if member is None:
                inconclusive = True
    return None if inconclusive else True


def _proj_closure(alg, cells, cap=None, max_steps=None):
    """Projection of the ternary term space onto selected argument cells."""
    g = term_closure(alg, 3, cells, cap=cap, max_steps=max_steps)
    if g.truncated:
        return None
    return frozenset(g.tuples())


def _fp_cells(n):
    two_distinct = tuple(
        c for c in itertools.product(range(n), repeat=3) if len(set(c)) == 2
    )
    distinct = tuple(
        c for c in itertools.product(range(n), repeat=3) if len(set(c)) == 3
    )
    return two_distinct, distinct


_FP_BUDGET = 3_000_000
_fp_cache: dict = {}


def invariant_fingerprint(alg: Algebra, cap=None):
    """Clone-determined, relabeling-covariant invariants used to separate
    algebras quickly.  Components that exceed their budget come back None
    and are skipped by comparisons."""
    from .structure import semilattice_edge

    key = (alg.domain, tuple((o.name, o.arity, o.values) for o in alg.operations))
    if key in _fp_cache:
        return _fp_cache[key]
    n = alg.domain
    subs = frozenset(all_subuniverses(alg))
    congs = frozenset(p.blocks for p in all_congruences(alg))
    sl = frozenset(
        (x, y)
        for x in range(n)
        for y in range(n)
        if x != y and semilattice_edge(alg, x, y)[0] is True
    )
    f2 = free_algebra(alg, 2, cap=cap, max_steps=_FP_BUDGET)
    clo2 = None if f2.truncated else frozenset(f2.tuples())
    two_distinct, distinct = _fp_cells(n)
    proj2 = _proj_closure(alg, two_distinct, cap=cap, max_steps=_FP_BUDGET)
    proj3 = _proj_closure(alg, distinct, cap=cap, max_steps=_FP_BUDGET)
    fp = {
        "subuniverses": subs,
        "congruences": congs,
        "semilattice_edges": sl,
        "clo2": clo2,
        "proj_two_distinct": proj2,
        "proj_distinct": proj3,
    }
    _fp_cache[key] = fp
    return fp


def _transport_fingerprint(fp, perm, n):
    """The fingerprint of transport(alg, perm), derived without recomputation."""
    def tset(s):
        return tuple(sorted(perm[x] for x in s))

    def ttable(vals):
        inv = [0] * n
        for i, v in enumerate(perm):
            inv[v] = i
        return tuple(
            perm[vals[inv[x] * n + inv[y]]]
            for x, y in itertools.product(range(n), repeat=2)
        )

    def tproj(cells):
        # position map: transported element at cell c is perm[f(perm^-1 c)]
        inv = [0] * n
        for i, v in enumerate(perm):
            inv[v] = i
        pos = {c: i for i, c in enumerate(cells)}
        src = [pos[tuple(inv[x] for x in c)] for c in cells]

        def tr(t):
            return tuple(perm[t[j]] for j in src)

        return tr

    out = {}
    out["subuniverses"] = frozenset(tset(s) for s in fp["subuniverses"])
    out["congruences"] = frozenset(
        tuple(sorted((tset(b) for b in blocks), key=min))
        for blocks in fp["congruences"]
    )
    out["semilattice_edges"] = frozenset(
        (perm[x], perm[y]) for x, y in fp["semilattice_edges"]
    )
    out["clo2"] = (
        None if fp["clo2"] is None else frozenset(ttable(v) for v in fp["clo2"])
    )
    two_distinct, distinct = _fp_cells(n)
    for key, cells in (("proj_two_distinct", two_distinct), ("proj_distinct", distinct)):
        if fp[key] is None:
            out[key] = None
        else:
            tr = tproj(cells)
            out[key] = frozenset(tr(t) for t in fp[key])
    return out


def _fingerprints_differ(fa, fb):
    for key in fa:
        va, vb = fa[key], fb[key]
        if va is not None and vb is not None and va != vb:
            return True
    return False


def equivalent_up_to_iso(a: Algebra, b: Algebra, cap=None, max_steps=None):
    """First bijection (lexicographic) making b term-equivalent to a.

    Returns (perm, conclusive): perm is None when no bijection works;
    conclusive=False when some candidate could not be settled within budget.
    """
    if a.domain != b.domain:
        raise AlgebraError("equivalent_up_to_iso requires equal domains")
    fa = invariant_fingerprint(a, cap=cap)
    fb = invariant_fingerprint(b, cap=cap)
    conclusive = True
    for perm in itertools.permutations(range(a.domain)):
        if _fingerprints_differ(fa, _transport_fingerprint(fb, perm, a.domain)):
            continue
        r = term_equivalent(a, transport(b, perm), cap=cap, max_steps=max_steps)
        if r is True:
            return perm, True
        if r is None:
            conclusive = False
    return None, conclusive


def verify_subdirect(alg: Algebra, theta1: Partition, theta2: Partition,
                     name1: str, name2: str, cap=None):
    """Check a subdirect-product presentation: the two congruences meet to
    the identity and the quotients match the named catalog entries up to
    isomorphism and term equivalence."""
    for theta in (theta1, theta2):
        ok, violation = is_congruence(alg, theta)
        if not ok:
            from .congruence import NotACongruenceError

            raise NotACongruenceError(f"not a congruence: {violation}")
    if not theta1.meet(theta2).is_identity():
        return False
    for theta, nm in ((theta1, name1), (theta2, name2)):
        quo, _ = quotient_algebra(alg, theta)
        want = get(nm).algebra
        if quo.domain != want.domain:
            return False
        perm, conclusive = equivalent_up_to_iso(quo, want, cap=cap)
        if perm is None:
            return None if not conclusive else False
    return True
