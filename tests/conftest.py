import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import settings

import finalg
from finalg.core import Algebra, OperationTable, compose, projection
from finalg import catalog

# One fixed draw for every Hypothesis test, so that two runs of the suite
# (two trees, or before and after a change) time the same examples:
# `pytest --hypothesis-profile=timing`.  The default profile keeps its
# random draw.
settings.register_profile("timing", derandomize=True)


@pytest.fixture(scope="session")
def entries():
    return {name: catalog.get(name) for name in catalog.names()}


@pytest.fixture(scope="session")
def alg():
    def load(name):
        return catalog.get(name).algebra

    return load


def naive_clone(algebra: Algebra, k: int, max_rounds=30):
    """Independent clone oracle: fixpoint of whole-table composition.

    Works directly on OperationTable values via core.compose, no subpower
    machinery involved.  Only usable when the clone is small.
    """
    tables = {}
    order = []
    for i in range(k):
        p = projection(k, i, algebra.domain)
        if p.values not in tables:
            tables[p.values] = p
            order.append(p)
    for _ in range(max_rounds):
        new = []
        for op in algebra.operations:
            for combo in itertools.product(order, repeat=op.arity):
                t = compose(op, list(combo))
                if t.values not in tables:
                    tables[t.values] = t
                    new.append(t)
        if not new:
            return set(tables)
        order.extend(new)
    raise RuntimeError("naive clone did not converge")


def reference_relabel(op: OperationTable, perm) -> tuple:
    """The values of op relabeled along the bijection perm, cell by cell:
    the cell (perm[x1], ..., perm[xk]) holds perm[op(x1, ..., xk)].  Reads
    the table through `eval` alone, no cell map."""
    moved = {tuple(perm[x] for x in args): perm[op.eval(args)] for args in op.all_args()}
    return tuple(moved[args] for args in op.all_args())


class UnionFind:
    """Disjoint sets over range(size), with path halving: an independent
    reference for the label arrays the library merges (`core.merge`)."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of x and y; False when they already were one set."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True

    def blocks(self, universe=None) -> tuple:
        """The sets restricted to `universe` (default: all of range(size)) in
        canonical form: elements ascending, blocks ordered by minimum."""
        groups = {}
        for x in sorted(universe) if universe is not None else range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return tuple(tuple(b) for b in groups.values())


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


# `ulimit -v 1000000`: a million KiB of address space
MEMORY_CAP = 1_000_000 * 1024


def run_capped(args, timeout):
    """`python args...` in a child process whose address space is capped at
    MEMORY_CAP and which is killed after `timeout` seconds (TimeoutExpired).
    A regression that lists cells it cannot hold, or runs on, fails there
    instead of exhausting the test run.  The child imports the same finalg
    package as the tests.  Returns (exit code, stdout, stderr)."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(finalg.__file__)))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=cap)
    return done.returncode, done.stdout, done.stderr
