"""Percentiles, the oracle check and the host stamp."""

import json

import numpy as np
import pytest

import common
from inputs import ServePool
from openloop import check_responses


def test_percentile_reports_sample_count():
    p = common.percentile(range(1, 1001), 99)
    assert p.n == 1000
    assert p.q == 99
    assert p.beyond == 10
    assert p.value == pytest.approx(np.percentile(np.arange(1, 1001), 99))


def test_percentile_of_nothing_is_nan_with_zero_count():
    p = common.percentile([], 50)
    assert p.n == 0 and p.value != p.value


def test_oracle_flags_one_flipped_byte():
    a = np.arange(100, dtype=np.float64)
    b = a.copy()
    assert common.same_output(b, a)
    b.view(np.uint8)[403] ^= 0x01
    assert not common.same_output(b, a)


def test_oracle_flags_dtype_shape_and_non_arrays():
    a = np.arange(8, dtype=np.int64)
    assert not common.same_output(a.astype(np.float64), a)
    assert not common.same_output(a.reshape(2, 4), a)
    assert not common.same_output(None, a)
    assert not common.same_output(a.tolist(), a)


def _response(rid, arr):
    import base64

    blob = {"dtype": str(arr.dtype), "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode()}
    return json.dumps({"id": rid, "ok": True, "result": blob}).encode() + b"\n"


def test_serve_check_flags_flipped_byte_and_counts_failures():
    from inputs import Arrival

    pool = ServePool(1)
    arrivals = [Arrival(0.0, "r0", "pack", 0, 0), Arrival(0.1, "r1", "pack", 0, 0),
                Arrival(0.2, "r2", "ranking", 1, 0), Arrival(0.3, "r3", "unpack", 2, 1)]
    good = pool.expected("pack", 0, 0)
    flipped = good.copy()
    flipped.view(np.uint8)[5] ^= 0x80
    received = [
        (1.0, _response("r0", good)),
        (1.1, _response("r1", flipped)),
        (1.2, json.dumps({"id": "r2", "ok": False,
                          "error": {"code": "overloaded", "message": "x"}}).encode()),
        (1.3, b"not json\n"),
    ]
    res = check_responses(pool, arrivals, received)
    assert res["ok"] == [True, False, False, False]
    assert res["kinds"] == {"error": 0, "shed": 1, "mismatch": 1, "timeout": 1}
    malformed = json.dumps({"id": "r3", "ok": True, "result": {"dtype": "<f8"}}).encode()
    res = check_responses(pool, arrivals, received + [(1.4, malformed)])
    assert res["kinds"] == {"error": 0, "shed": 1, "mismatch": 2, "timeout": 0}


def test_host_stamp_fields():
    stamp = common.host_stamp()
    assert set(stamp) == {"nproc", "arch", "python", "numpy"}
    assert common.host_class(stamp) == (stamp["nproc"], stamp["arch"])
