"""Seeded inputs are a pure function of the seed."""

import numpy as np

from inputs import COMPILE_CASES, LibPool, ServePool, compile_op, schedule


def _request_bytes(seed):
    pool = ServePool(seed)
    return [pool.line(a.rid, a.op, a.mask, a.array) for a in schedule(seed, 50.0, 2.0)]


def test_same_seed_same_schedule():
    assert schedule(7, 220.0, 3.0) == schedule(7, 220.0, 3.0)


def test_same_seed_same_request_bytes():
    assert _request_bytes(7) == _request_bytes(7)


def test_other_seed_other_inputs():
    assert schedule(7, 220.0, 3.0) != schedule(8, 220.0, 3.0)
    assert _request_bytes(7) != _request_bytes(8)


def test_schedule_has_exact_count_and_mix():
    arrivals = schedule(3, 220.0, 10.0)
    assert len(arrivals) == 2200
    assert all(0.0 <= a.due < 10.0 for a in arrivals)
    assert [a.due for a in arrivals] == sorted(a.due for a in arrivals)
    share = sum(a.op == "pack" for a in arrivals) / len(arrivals)
    assert 0.55 < share < 0.65


def test_warmup_ids_do_not_collide():
    warm = {a.rid for a in schedule(3, 220.0, 2.0, prefix="w")}
    measured = {a.rid for a in schedule(3, 220.0, 2.0)}
    assert not warm & measured


def test_lib_pool_and_compile_ops_repeat():
    a, b = LibPool(5), LibPool(5)
    assert [a.op(i) for i in range(5000)] == [b.op(i) for i in range(5000)]
    assert all(np.array_equal(x, y) for x, y in zip(a.masks, b.masks))
    for i in range(len(COMPILE_CASES)):
        c1, m1, x1 = compile_op(5, i)
        c2, m2, x2 = compile_op(5, i)
        assert c1 == c2 and np.array_equal(m1, m2) and np.array_equal(x1, x2)
    # a fresh mask on every call
    assert not np.array_equal(compile_op(5, 0)[1], compile_op(5, len(COMPILE_CASES))[1])
