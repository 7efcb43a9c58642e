import itertools

import pytest
from hypothesis import settings

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
