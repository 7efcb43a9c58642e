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

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from types import MappingProxyType

from .core import (
    Algebra,
    AlgebraError,
    OperationTable,
    TABLE_PROPERTIES,
    check_budget,
    parse_algebra,
    relabeling,
    restrict,
)
from .congruence import Partition, all_congruences, quotient_algebra
from .search import LAWS, AgreesOnTuples, Idempotent, SearchSpec, restriction, solutions
from .memo import per_algebra, table_key
from .subpower import free_algebra
from .structure import all_subuniverses, decide_clone_membership, semilattice_edge


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


def zn_aff(n: int) -> OperationTable:
    return OperationTable(
        "g", 3, n,
        tuple((x - y + z) % n for x, y, z in itertools.product(range(n), repeat=3)),
    )


def klein_aff() -> OperationTable:
    return OperationTable(
        "g", 3, 4,
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

# 4-element binary entries with full tables (row-major)
_BINARY4 = {
    "T4,7": (0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 3),
    "T4,14": (0, 2, 1, 0, 2, 1, 3, 2, 1, 3, 2, 1, 0, 2, 1, 3),
}

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
    """T2P: the dual of the dual discriminator -- minority where two
    arguments agree, first argument on pairwise-distinct triples.  Determined
    by exhaustive search over all pairs-minority candidates (simple, no
    commutative binary term, no cyclic ternary term, minimal)."""
    return OperationTable("g", 3, 3, tuple(
        min(a, key=a.count) if len(set(a)) == 2 else a[0]
        for a in itertools.product(range(3), repeat=3)
    ))


def _build_t1p() -> OperationTable:
    """T1P: the dual discriminator -- y where y = z, x otherwise."""
    return OperationTable("g", 3, 3, tuple(
        a[1] if a[1] == a[2] else a[0] for a in itertools.product(range(3), repeat=3)
    ))


def _build_t4_15_18(kind: str, rest) -> OperationTable:
    """The operation of T4,15..T4,18: the shared values, the pair {a,d}
    (`kind` on it) and the entry's own values on the remaining cells."""
    full = dict(_T4_15_18_COMMON)
    for x in range(4):
        full[(x, x, x)] = x
    for args in itertools.product((0, 3), repeat=3):
        full[args] = (max if kind == "maj" else min)(args, key=args.count)
    for cell, v in zip(_T4_15_18_REST_CELLS, rest):
        full[cell] = v
    return OperationTable("g", 3, 4, tuple(full[a] for a in itertools.product(range(4), repeat=3)))


# ---------------------------------------------------------------------------
# the table: one record per name, in catalog order

@dataclass(frozen=True)
class _Record:
    source: str
    build: Callable[[], OperationTable]  # the one operation, from source data
    facts: tuple  # declared, independently re-checkable expectations
    letters: bool  # transcribed in letters a..d


_TABLE: dict = {}


def _add(name, source, build, pairs=MappingProxyType({}), laws=(), letters=False):
    """Record an entry; its facts are the restrictions to `pairs` (subset ->
    kind, in order) followed by the whole-table properties `laws`."""
    facts = tuple(("restriction", subset, kind) for subset, kind in pairs.items())
    _TABLE[name] = _Record(source, build, facts + tuple((law,) for law in laws), letters)


def _complete(name, source, domain, pairs, values, laws, letters=False):
    """Record an entry whose ternary table is the one idempotent table with
    the transcribed `values` ({args: value}), the law laws[0] and the
    restrictions to `pairs`: the same pairs give the search its pins and the
    entry its facts.  The search reads at most two solutions; no table or
    two is a transcription slip, a CatalogIntegrityError naming the entry."""
    def build():
        constraints = [Idempotent(), LAWS[laws[0]](), AgreesOnTuples(tuple(values.items()))]
        constraints += [restriction(s, pair_table(k, s)) for s, k in pairs.items()]
        found = list(itertools.islice(solutions(SearchSpec(domain, 3, constraints)), 2))
        if len(found) != 1:
            raise CatalogIntegrityError(
                f"{name}: {'more than one' if found else 'no'} completion of its transcription")
        return OperationTable("g", 3, domain, found[0])

    _add(name, source, build, pairs, laws, letters)


def _fill():
    """Fill _TABLE in catalog order: one line per fixed table, one loop per
    completed family and one over T4,1..T4,18 keyed on each name's family."""
    _add("S", "2-element semilattice", lambda: OperationTable("t", 2, 2, (0, 0, 0, 1)))
    _add("M", "2-element majority algebra", lambda: OperationTable("g", 3, 2, maj_table().values))
    _add("Z2aff", "affine algebra of Z2", lambda: zn_aff(2))
    for name, (k01, k02, v112, v122, v012) in _SYM3.items():
        _complete(name, "3-element, nonconservative symmetric family", 3,
                  {(0, 1): k01, (0, 2): k02},
                  {(1, 1, 2): v112, (1, 2, 2): v122, (0, 1, 2): v012}, ("symmetric",))
    _add("T4N", "3-element, nonconservative: semilattice below 1 and 2",
         lambda: OperationTable("t", 2, 3, (0, 0, 0, 0, 1, 0, 0, 0, 2)),
         {(0, 1): "min0", (0, 2): "min0"}, ("commutative",))
    _add("T5N", "3-element, nonconservative: affine algebra of Z3", lambda: zn_aff(3))
    _add("T1S", "3-element, conservative commutative binary (rock-paper-scissors)",
         lambda: OperationTable("t", 2, 3, (0, 0, 2, 0, 1, 1, 2, 1, 2)),
         {(0, 1): "min0", (1, 2): "min1", (0, 2): "min2"}, ("commutative", "conservative"))
    _add("T2S", "3-element, conservative commutative binary",
         lambda: OperationTable("t", 2, 3, (0, 0, 0, 0, 1, 1, 0, 1, 2)),
         {(0, 1): "min0", (1, 2): "min1", (0, 2): "min0"}, ("commutative", "conservative"))
    _add("T1P", "3-element, conservative, dual discriminator", _build_t1p,
         dict.fromkeys(((0, 1), (1, 2), (0, 2)), "maj"), ("conservative",))
    _add("T2P", "3-element, conservative, simple nonabelian Mal'cev", _build_t2p,
         dict.fromkeys(((0, 1), (1, 2), (0, 2)), "aff"), ("conservative",))
    for name, (k01, k12, k02, v1, v2) in _CYC3.items():
        _complete(name, "3-element, conservative cyclic family", 3,
                  {(0, 1): k01, (1, 2): k12, (0, 2): k02},
                  {(0, 1, 2): v1, (0, 2, 1): v2}, ("cyclic", "conservative"))
    for i in range(1, 19):
        # T4,13 onwards are transcribed in letters a..d
        name, letters = f"T4,{i}", i >= 13
        if name in _CYC4:
            pairs, values = _CYC4[name]
            _complete(name, "4-element 2-generated, cyclic operation", 4,
                      dict(sorted(pairs.items())), values, ("cyclic",), letters)
        elif name in _BINARY4:
            _add(name, "4-element 2-generated, commutative binary operation",
                 functools.partial(OperationTable, "t", 2, 4, _BINARY4[name]),
                 laws=("commutative",), letters=letters)
        else:
            kind, rest = _T4_15_18[name]
            _add(name, "4-element 2-generated, three-class affine quotient",
                 functools.partial(_build_t4_15_18, kind, rest), {(0, 3): kind},
                 letters=letters)
    _add("Z4aff", "affine algebra of Z4", lambda: zn_aff(4))
    _add("Z2xZ2aff", "affine algebra of Z2 x Z2", klein_aff)


_fill()


def build_algebra(name: str) -> Algebra:
    """Construct a catalog algebra from its source data (no golden check)."""
    record = _TABLE.get(name)
    if record is None:
        raise UnknownNameError(f"unknown catalog name {name!r}")
    op = record.build()
    return Algebra(op.domain, [op], label=name)


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


_ALIASES = {"Z3aff": "T5N"}


def names():
    """All catalog names in their fixed order."""
    return list(_TABLE)


_cache: dict = {}


def _golden_text(name: str) -> str:
    fname = name.lower().replace(",", "_") + ".alg"
    return resources.files("finalg").joinpath("data").joinpath("catalog").joinpath(fname).read_text()


def get(name: str) -> CatalogEntry:
    """Look up a catalog entry; name may be an alias (e.g. Z3aff -> T5N)."""
    name = _ALIASES.get(name, name)
    if name in _cache:
        return _cache[name]
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
    record = _TABLE[name]
    entry = CatalogEntry(
        name=name,
        algebra=alg,
        source=record.source,
        letter_map=dict(LETTER_MAP) if record.letters else None,
        facts=record.facts,
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
        elif kind in TABLE_PROPERTIES:
            if not TABLE_PROPERTIES[kind](op):
                failures.append(f"{entry.name}: operation not {kind}")
        else:
            failures.append(f"{entry.name}: unknown fact {fact!r}")
    return failures


# ---------------------------------------------------------------------------
# term equivalence and isomorphism

def transport(alg: Algebra, perm) -> Algebra:
    """Relabel an algebra along a domain bijection (`core.relabeling`)."""
    n, perm = alg.domain, tuple(perm)
    return Algebra(n, tuple(
        OperationTable(op.name, op.arity, n, relabeling(n, op.arity, perm)(op.values))
        for op in alg.operations), label=alg.label)


def term_equivalent(a: Algebra, b: Algebra, max_steps=None):
    """Do the two algebras generate the same clone?  True/False/None.

    Every basic operation of each algebra must be a term operation of the
    other (`structure.decide_clone_membership`, which tries the cheap
    exclusion certificates first, so a "no" rarely needs a full free algebra).
    A k-ary table that is a basic operation of the other side is a member
    without a decision if the budget covers the decision closure's first
    round, sum k**arity(f) over that side's f, which applies it to the
    projections; under a smaller budget it is decided as any other.
    """
    check_budget(max_steps)
    if a.domain != b.domain:
        raise AlgebraError("term_equivalent requires equal domains")
    inconclusive = False
    for src, dst in ((a, b), (b, a)):
        basic = {(f.arity, f.values) for f in src.operations}
        for op in dst.operations:
            if (op.arity, op.values) in basic and (
                    max_steps is None
                    or max_steps >= sum(op.arity ** f.arity for f in src.operations)):
                continue
            member = decide_clone_membership(src, op, max_steps=max_steps).holds
            if member is False:
                return False
            if member is None:
                inconclusive = True
    return None if inconclusive else True


_FP_BUDGET = 3_000_000


@per_algebra
def invariant_fingerprint(alg: Algebra):
    """Clone-determined, relabeling-covariant invariants used to separate
    algebras quickly: subuniverses, congruences, semilattice edges and the
    binary term operations Clo_2.  Clo_2 comes back None when it exceeds its
    budget, and comparisons skip it then.

    Its closures never take the caller's budget, since the result is
    memoized by the operation tables alone (`memo.per_algebra`): Clo_2 runs
    under the fixed _FP_BUDGET, and the semilattice edges are read off it
    (`_semilattice_edges`), so a semilattice test runs its own closure (in
    A^2, under no budget) only for a pair that a cut-short Clo_2 does not
    witness.  Every call returns the one stored, read-only mapping."""
    return _fingerprint(alg, free_algebra(alg, 2, max_steps=_FP_BUDGET))


def _fingerprint(alg: Algebra, f2):
    """The fingerprint of `alg` whose Clo_2 is read off the closure `f2`."""
    return MappingProxyType({
        "subuniverses": frozenset(all_subuniverses(alg)),
        "congruences": frozenset(p.blocks for p in all_congruences(alg)),
        "semilattice_edges": _semilattice_edges(alg, f2),
        "clo2": None if f2.truncated else frozenset(f2.tuples()),
    })


def _semilattice_edges(alg: Algebra, f2):
    """The pairs (x, y), x != y, with a binary term t(x,y) = t(y,x) = y.

    Every element of the closure `f2` of the two projections is the table of
    a binary term, so one whose cells (x,y) and (y,x) both hold y witnesses
    the edge.  A complete f2 is all of Clo_2, and a pair it does not witness
    is no edge; only a cut-short f2 leaves an unwitnessed pair to
    `semilattice_edge`."""
    n = alg.domain
    edges = set()
    for x, y in itertools.combinations(range(n), 2):
        seen = set(map(itemgetter(x * n + y, y * n + x), f2.elements))
        for a, b in ((x, y), (y, x)):
            if (b, b) in seen or (f2.truncated and semilattice_edge(alg, a, b)[0] is True):
                edges.add((a, b))
    return frozenset(edges)


# the fingerprint store under its own name: perfbench reads its size
_fp_cache = invariant_fingerprint.memo


def _transport_differs(fa, fb, perm, n) -> bool:
    """Does some part of fb, relabeled along perm, differ from fa's?  The
    parts are relabeled and compared one at a time, cheapest first, and the
    first that differs ends the comparison; a Clo_2 past its budget (None)
    on either side is skipped."""
    def tset(s):
        return tuple(sorted(perm[x] for x in s))

    moved = {
        "subuniverses": lambda part: frozenset(map(tset, part)),
        "semilattice_edges": lambda part: frozenset((perm[x], perm[y]) for x, y in part),
        "congruences": lambda part: frozenset(tuple(sorted(map(tset, blocks), key=min))
                                              for blocks in part),
        "clo2": lambda part: frozenset(map(relabeling(n, 2, tuple(perm)), part)),
    }
    return any(fa[key] is not None and fb[key] is not None and move(fb[key]) != fa[key]
               for key, move in moved.items())


def _fingerprint_shape(fp):
    """Summaries of a fingerprint that no relabeling changes: the multisets
    of subuniverse sizes and of the block-size profiles of the congruences,
    the number of semilattice edges and the size of Clo_2 (None when Clo_2
    ran out of its budget)."""
    return {
        "subuniverses": sorted(map(len, fp["subuniverses"])),
        "congruences": sorted(tuple(sorted(map(len, blocks))) for blocks in fp["congruences"]),
        "semilattice_edges": len(fp["semilattice_edges"]),
        "clo2": None if fp["clo2"] is None else len(fp["clo2"]),
    }


@per_algebra
def cheap_shape(alg: Algebra) -> tuple:
    """The sorted subuniverse sizes and the sorted block-size profiles of
    the congruences: the first two entries of `_fingerprint_shape`, read
    without Clo_2.  No relabeling and no term equivalence changes it."""
    return (tuple(sorted(map(len, all_subuniverses(alg)))),
            tuple(sorted(tuple(sorted(map(len, p.blocks))) for p in all_congruences(alg))))


def _clo2_sizes_differ(a: Algebra, b: Algebra) -> bool:
    """True when the two Clo_2s surely differ in size.  The side whose
    fingerprint is stored (else a) gives its complete Clo_2; the other
    side's closure is grown only until it holds one element more.  A stop
    there, or a smaller complete closure, is a sound "differ"; a stop on
    steps proves nothing, and neither does a first Clo_2 past its budget.
    A complete closure of equal size is the other side's whole Clo_2, the
    closure its fingerprint runs, so that fingerprint is stored from it."""
    stored = [_fp_cache.get(table_key(x)) is not None for x in (a, b)]
    if all(stored):
        return False  # both fingerprints are compared whole
    first, other = (b, a) if stored[1] else (a, b)
    clo2 = invariant_fingerprint(first)["clo2"]
    if clo2 is None or _fp_cache.get(table_key(other)) is not None:
        return False  # the second: other has first's tables
    count = itertools.count(1)
    grown = free_algebra(other, 2, max_steps=_FP_BUDGET,
                         stop_predicate=lambda e: next(count) > len(clo2))
    if grown.truncated:
        return grown.stop_reason == "predicate"
    if len(grown) != len(clo2):
        return True
    _fp_cache.put(table_key(other), _fingerprint(other, grown))
    return False


def _fingerprints_differ(fa, fb):
    for key in fa:
        va, vb = fa[key], fb[key]
        if va is not None and vb is not None and va != vb:
            return True
    return False


def equivalent_up_to_iso(a: Algebra, b: Algebra, max_steps=None):
    """First bijection (lexicographic) making b term-equivalent to a.

    Returns (perm, conclusive): perm is None when no bijection works, and
    (None, True) when the domains differ; conclusive=False when some
    candidate could not be settled within budget.

    The scan runs only if three stages, each cheaper than the next, find
    nothing that no bijection changes and that differs.  First the cheap
    shapes (`cheap_shape`: subuniverse sizes and congruence block profiles),
    two memo reads.  Then the sizes of the Clo_2s (`_clo2_sizes_differ`):
    algebras term-equivalent up to a relabeling have Clo_2s of one size, so
    one side's complete Clo_2 bounds the other side's closure, which is
    grown only one element past it.  Then the whole fingerprints' shapes
    (`_fingerprint_shape`).  Otherwise each bijection is tried whose
    relabeling of b's fingerprint matches a's part by part, cheapest part
    first (`_transport_differs`), and `term_equivalent` skips the
    operations the two sides share.
    """
    check_budget(max_steps)
    if a.domain != b.domain:
        return None, True
    if cheap_shape(a) != cheap_shape(b) or _clo2_sizes_differ(a, b):
        return None, True
    fa = invariant_fingerprint(a)
    fb = invariant_fingerprint(b)
    if _fingerprints_differ(_fingerprint_shape(fa), _fingerprint_shape(fb)):
        return None, True
    conclusive = True
    for perm in itertools.permutations(range(a.domain)):
        if _transport_differs(fa, fb, perm, a.domain):
            continue
        r = term_equivalent(a, transport(b, perm), max_steps=max_steps)
        if r is True:
            return perm, True
        if r is None:
            conclusive = False
    return None, conclusive


def equivalent_to_entry(alg: Algebra, name: str, max_steps=None):
    """`equivalent_up_to_iso(alg, entry)` for the catalog entry `name`."""
    return equivalent_up_to_iso(alg, get(name).algebra, max_steps=max_steps)


def verify_subdirect(alg: Algebra, theta1: Partition, theta2: Partition,
                     name1: str, name2: str, max_steps=None):
    """Check a subdirect-product presentation: the two congruences meet to
    the identity and the quotients match the named catalog entries up to
    isomorphism and term equivalence.  True/False/None."""
    quotients = [quotient_algebra(alg, theta)[0] for theta in (theta1, theta2)]
    if not theta1.meet(theta2).is_identity():
        return False
    for quo, nm in zip(quotients, (name1, name2)):
        perm, conclusive = equivalent_to_entry(quo, nm, max_steps=max_steps)
        if perm is None:
            return None if not conclusive else False
    return True
