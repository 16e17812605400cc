"""Budget guard, order-independent reductions and the evaluation memo."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from wwlab._util import (
    _MEMO_ENTRY_BYTES,
    BudgetExceeded,
    _Memo,
    check_budget,
    current_budget,
    fsum_complex,
    pmap,
)


def test_check_budget_refuses_large_estimates():
    check_budget(10.0, budget=100.0)
    with pytest.raises(BudgetExceeded) as err:
        check_budget(1e12, budget=100.0, what="unit test")
    assert err.value.estimate == 1e12
    assert "unit test" in str(err.value)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("WWLAB_BUDGET", "123.5")
    assert current_budget() == 123.5
    # explicit argument still wins
    assert current_budget(7.0) == 7.0


def test_budget_flows_through_operations():
    from wwlab.averages import ww_average
    from wwlab.systems import cyclic_shift, random_mean_zero

    system = cyclic_shift(7)
    f = random_mean_zero(system, 0)
    with pytest.raises(BudgetExceeded):
        ww_average(system, f, 2, 64, budget=10.0)


def test_fsum_complex_is_order_independent():
    rng = np.random.default_rng(0)
    vals = (rng.standard_normal(500) * 10.0**rng.integers(-8, 8, 500)).astype(complex)
    vals += 1j * rng.standard_normal(500)
    a = fsum_complex(vals.tolist())
    b = fsum_complex(vals[::-1].tolist())
    assert a == b


def test_pmap_preserves_order_across_thread_counts():
    items = list(range(40))
    serial = pmap(lambda x: x * x, items, threads=1)
    parallel = pmap(lambda x: x * x, items, threads=8)
    assert serial == parallel == [x * x for x in items]


def test_serial_runs_load_no_thread_pool():
    # concurrent.futures pulls in logging, which a serial run never uses
    code = "import sys, wwlab.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_memo_byte_cap_evicts_least_recently_used():
    entry = 1000 + _MEMO_ENTRY_BYTES
    memo = _Memo(3 * entry)
    for key in "abc":
        memo.put(key, key.upper(), 1000)
    assert memo.get("a") == "A"  # now b is the oldest
    memo.put("d", "D", 1000)
    assert memo.get("b") is None
    assert [memo.get(key) for key in "acd"] == ["A", "C", "D"]
    memo.put("e", "E", 2 * 1000 + _MEMO_ENTRY_BYTES)  # takes two places
    assert memo.get("a") is None and memo.get("c") is None
    assert len(memo) == 2 and memo.get("d") == "D"
    memo.put("huge", "H", 4 * entry)  # larger than the cap: not stored
    assert memo.get("huge") is None and len(memo) == 2
    memo.clear()
    assert len(memo) == 0 and memo.get("d") is None


def test_memo_keeps_its_byte_count_under_concurrent_use():
    entry = 100 + _MEMO_ENTRY_BYTES
    memo = _Memo(20 * entry)
    errors = []

    def worker(w):
        try:
            for i in range(5000):
                memo.put(i % 30, i % 30, 100)
                memo.get((i + w) % 30)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert memo._bytes == sum(size for _, size in memo._entries.values()) <= memo.max_bytes
    assert all(memo.get(key) == key for key in list(memo._entries))
