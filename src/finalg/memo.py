"""Process-lifetime memos for closures and per-algebra invariants.

Keys are built from operation tables only: the domain, then (arity, values)
of each operation in declaration order.  Names and labels are left out, so
an algebra and a renamed copy of it share entries; whatever a memoized
result reports by name is rebuilt on the caller's algebra.  Nothing is
written to disk: a memo lives exactly as long as the process.
"""

from __future__ import annotations

import threading


def table_key(alg) -> tuple:
    """The algebra's operation tables, without names or label."""
    return (alg.domain, tuple((op.arity, op.values) for op in alg.operations))


class Memo:
    """Map bounded by the total weight of its values; least recently used
    entries are evicted first, and a value heavier than the limit is never
    stored.  Safe to share between threads."""

    def __init__(self, limit: int, weight=lambda value: 1):
        self.limit = limit
        self.weight = weight
        self.entries = {}  # key -> (value, weight), least recently used first
        self.total = 0
        self.lock = threading.Lock()

    def __len__(self):
        return len(self.entries)

    def get(self, key):
        with self.lock:
            hit = self.entries.pop(key, None)
            if hit is None:
                return None
            self.entries[key] = hit
            return hit[0]

    def put(self, key, value):
        w = self.weight(value)
        if w > self.limit:
            return
        with self.lock:
            old = self.entries.pop(key, None)
            if old is not None:
                self.total -= old[1]
            while self.entries and self.total + w > self.limit:
                oldest = next(iter(self.entries))
                self.total -= self.entries.pop(oldest)[1]
            self.entries[key] = (value, w)
            self.total += w

    def clear(self):
        with self.lock:
            self.entries.clear()
            self.total = 0
