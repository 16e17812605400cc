"""Shared numeric and execution helpers.

Two cross-cutting contracts live here:

* compensated reductions: every place where contributions are merged across
  work items (h-tuples, scenario cases) goes through :func:`fsum`, which is
  exactly rounded and therefore independent of summation order.  Combined
  with ordered result collection in :func:`pmap`, summary values are
  bit-identical for any thread count.
* budget guard: expensive operations estimate their cost up front and refuse
  to start when the estimate exceeds the configured budget (parameter or the
  ``WWLAB_BUDGET`` environment variable).

It also holds the in-process memo of repeated evaluations: a result is
stored under a digest of the system and observable contents plus every
numeric argument, in a least-recently-used table capped at _MEMO_BYTES.
"""
from __future__ import annotations

import hashlib
import math
import os
import threading
from collections import OrderedDict
from typing import Callable, Iterable, Sequence

DEFAULT_BUDGET = 2.0e10
_MEMO_BYTES = 16 << 20  # memo capacity, counting result arrays
_MEMO_ENTRY_BYTES = 512  # charged per entry on top of its arrays (key, objects)


class BudgetExceeded(RuntimeError):
    """An operation refused to start because its estimated cost is too high."""

    def __init__(self, estimate: float, budget: float, what: str = ""):
        tag = f" for {what}" if what else ""
        super().__init__(
            f"estimated cost {estimate:.4g} exceeds budget {budget:.4g}{tag}; "
            f"raise WWLAB_BUDGET or pass a larger budget to proceed"
        )
        self.estimate = float(estimate)
        self.budget = float(budget)


def current_budget(budget: float | None = None) -> float:
    if budget is not None:
        return float(budget)
    env = os.environ.get("WWLAB_BUDGET")
    if env:
        return float(env)
    return DEFAULT_BUDGET


def check_budget(estimate: float, budget: float | None = None, what: str = "") -> None:
    cap = current_budget(budget)
    if estimate > cap:
        raise BudgetExceeded(estimate, cap, what)


def float_power(base: float, exponent: int) -> float:
    """``base ** exponent`` as a float for a cost estimate, inf past the float range."""
    return math.inf if exponent * math.log2(max(base, 1)) >= 1024 else float(base) ** exponent


def fsum(values: Iterable[float]) -> float:
    """Exactly rounded sum of real floats (order independent)."""
    return math.fsum(values)


def fsum_complex(values: Iterable[complex]) -> complex:
    vals = list(values)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


def pmap(fn: Callable, items: Sequence, threads: int = 1) -> list:
    """Map ``fn`` over ``items`` preserving input order.

    With ``threads > 1`` a thread pool is used; results are still collected
    in input order, so downstream compensated reductions do not depend on
    scheduling.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor  # imported here: serial runs load neither it nor logging

    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, items))


def content_key(system, observables, *args) -> tuple:
    """Memo key: a digest of what the result depends on, plus ``args``.

    The digest covers the system's map and weights and each observable's
    values, never ``system.spec``, which custom systems share.
    """
    h = hashlib.blake2b(digest_size=20)
    for arr in (system.forward, system.weights, *(obs.values for obs in observables)):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return (h.hexdigest(), *args)


class _Memo:
    """Thread-safe least-recently-used table with a byte cap."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()  # key -> (value, bytes)
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        """The stored value, or None."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return None
            self._entries.move_to_end(key)
            return hit[0]

    def put(self, key, value, nbytes: int = 0) -> None:
        """Store ``value``, charging ``nbytes`` plus a fixed entry cost."""
        size = int(nbytes) + _MEMO_ENTRY_BYTES
        if size > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size)
            self._bytes += size
            while self._bytes > self.max_bytes:
                _, (_, freed) = self._entries.popitem(last=False)
                self._bytes -= freed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)


memo = _Memo(_MEMO_BYTES)


def clear_memo() -> None:
    """Forget every memoised evaluation of this process."""
    memo.clear()
