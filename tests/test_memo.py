"""The per-algebra memo layer: `memo.per_algebra` and the invariants behind it."""

import inspect

import pytest

from finalg import catalog, congruence, structure
from finalg.core import Algebra, OperationTable
from finalg.memo import INVARIANT_LIMIT, Memo, per_algebra

INVARIANTS = (
    (structure, "all_subuniverses"),
    (congruence, "all_congruences"),
    (congruence, "translation_pairs"),
    (catalog, "invariant_fingerprint"),
    (catalog, "cheap_shape"),
)


def _renamed(a):
    return Algebra(a.domain, [
        OperationTable("r" + op.name, op.arity, op.domain, op.values)
        for op in a.operations
    ], label="renamed")


@pytest.mark.parametrize("module, name", INVARIANTS)
def test_renamed_copy_gets_the_stored_value(alg, module, name):
    fn = getattr(module, name)
    a = alg("T4,7")
    first = fn(a)
    assert fn(a) is first
    assert fn(_renamed(a)) is first


@pytest.mark.parametrize("module, name", INVARIANTS)
def test_invariants_are_plain_functions_of_their_module(module, name):
    # perfbench/tracer.py wraps plain module functions only
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__ and fn.__name__ == name
    assert inspect.isfunction(fn.__wrapped__)
    assert isinstance(fn.memo, Memo) and fn.memo.limit == INVARIANT_LIMIT


def test_fingerprint_store_keeps_its_name():
    assert catalog._fp_cache is catalog.invariant_fingerprint.memo


def test_per_algebra_computes_once_per_tables():
    calls = []

    @per_algebra
    def domain_size(alg):
        calls.append(alg)
        return (alg.domain,)

    a = Algebra(2, [OperationTable("f", 2, 2, (0, 0, 0, 1))])
    b = Algebra(2, [OperationTable("f", 2, 2, (0, 1, 1, 1))])
    assert domain_size(a) == (2,) and domain_size(_renamed(a)) is domain_size(a)
    assert calls == [a]
    domain_size(b)
    assert calls == [a, b] and len(domain_size.memo) == 2
