"""Process-lifetime memos for per-algebra invariants.

Keys are built from operation tables only: the domain, then (arity, values)
of each operation in declaration order.  Names and labels are left out, so
an algebra and a renamed copy of it share entries; whatever a memoized
result reports by name is rebuilt on the caller's algebra.  Nothing is
written to disk: a memo lives exactly as long as the process.
Per-algebra invariants are memoized by one decorator, `per_algebra`, the
one cache of the package: `subpower` keeps no closure between calls.
"""

from __future__ import annotations

import functools
import threading

# The most algebras each `per_algebra` function keeps a value for.
INVARIANT_LIMIT = 1024


def table_key(alg) -> tuple:
    """The algebra's operation tables, without names or label."""
    return (alg.domain, tuple((op.arity, op.values) for op in alg.operations))


def per_algebra(fn):
    """Memoizes `fn(alg, *args)` by `table_key(alg) + args` in `.memo`
    (`table_key(alg)` alone for `fn(alg)`); `args` must be hashable.

    `fn` must return an immutable value that names no operation: every
    caller gets the stored value itself, a renamed copy of the algebra too.
    The result is a plain function, so it can be wrapped and rebound like
    any other module function."""
    memo = Memo(limit=INVARIANT_LIMIT)

    @functools.wraps(fn)
    def memoized(alg, *args):
        key = table_key(alg) + args
        value = memo.get(key)
        if value is None:
            value = fn(alg, *args)
            memo.put(key, value)
        return value

    memoized.memo = memo
    return memoized


class Memo:
    """Map of at most `limit` entries; least recently used entries are
    evicted first.  Safe to share between threads."""

    def __init__(self, limit: int):
        self.limit = limit
        self.entries = {}  # key -> value, least recently used first
        self.lock = threading.Lock()

    def __len__(self):
        return len(self.entries)

    def get(self, key):
        with self.lock:
            value = self.entries.pop(key, None)
            if value is not None:
                self.entries[key] = value
            return value

    def put(self, key, value):
        with self.lock:
            self.entries.pop(key, None)
            while self.entries and len(self.entries) >= self.limit:
                del self.entries[next(iter(self.entries))]
            self.entries[key] = value

    def clear(self):
        with self.lock:
            self.entries.clear()
