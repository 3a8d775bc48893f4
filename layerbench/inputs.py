"""Seeded inputs for every workload.

The program under test receives only what these functions generate; the
same seed always yields the same arrays, masks, op sequence, request
bytes and arrival schedule.  Oracle outputs come from
``repro.serial.reference`` and are computed off the clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# ------------------------------------------------------------ lib-warm/cold
LIB_N = 65536
LIB_PROCS = 2
LIB_DENSITY = 0.5
LIB_POOL = 4  # masks (and arrays) in the pool
LIB_PACK_SHARE = 0.7


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


@dataclass(frozen=True)
class LibOp:
    op: str  # "pack" / "unpack"
    mask: int
    array: int


class LibPool:
    """Masks, arrays and an op sequence for the lib-warm/lib-cold callers."""

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        self.masks = [rng.random(LIB_N) < LIB_DENSITY for _ in range(LIB_POOL)]
        self.arrays = [rng.random(LIB_N) for _ in range(LIB_POOL)]
        self._seq_rng = _rng(seed, 2)
        self._kinds = np.empty(0, dtype=bool)
        self._mi = self._ai = np.empty(0, dtype=np.int64)

    def op(self, i: int) -> LibOp:
        """Op ``i`` of the seeded sequence (drawn in chunks as needed)."""
        while i >= len(self._kinds):
            r, n = self._seq_rng, 4096
            self._kinds = np.concatenate([self._kinds, r.random(n) < LIB_PACK_SHARE])
            self._mi = np.concatenate([self._mi, r.integers(0, LIB_POOL, n)])
            self._ai = np.concatenate([self._ai, r.integers(0, LIB_POOL, n)])
        return LibOp("pack" if self._kinds[i] else "unpack",
                     int(self._mi[i]), int(self._ai[i]))

    def args(self, op: LibOp):
        """Positional arguments of ``repro.pack`` / ``repro.unpack``."""
        mask, arr = self.masks[op.mask], self.arrays[op.array]
        if op.op == "pack":
            return (arr, mask, LIB_PROCS)
        # UNPACK scatters the first |mask| values of the array into a
        # field made of the array reversed.
        return (arr[: int(mask.sum())], mask, arr[::-1].copy(), LIB_PROCS)


# --------------------------------------------------------------- lib-compile
@dataclass(frozen=True)
class CompileCase:
    name: str
    shape: tuple
    grid: tuple
    block: object
    scheme: str
    redistribute: str | None = None
    op: str = "pack"


#: One cycle of lib-compile.  1-D cases keep n divisible by P*W (the
#: paper's assumption) for both BLOCK and CYCLIC(64).
COMPILE_CASES = (
    CompileCase("1d-block", (8192,), (16,), None, "cms"),
    CompileCase("1d-cyclic64", (8192,), (16,), 64, "cms"),
    CompileCase("2d-cyclic4", (128, 128), (4, 4), 4, "cms"),
    CompileCase("3d-block", (32, 32, 16), (2, 2, 2), None, "cms"),
    CompileCase("1d-sss", (8192,), (16,), 64, "sss"),
    CompileCase("1d-css", (8192,), (16,), 64, "css"),
    CompileCase("red1", (8192,), (16,), 64, "cms", "selected"),
    CompileCase("red2", (8192,), (16,), 64, "cms", "whole"),
    CompileCase("unpack", (8192,), (16,), 64, "css", None, "unpack"),
)
COMPILE_DENSITY = 0.5
#: lib-compile's plan cache is smaller than one cycle, so it evicts.
COMPILE_CACHE_CAPACITY = 4


def compile_op(seed: int, i: int):
    """Op ``i`` of lib-compile: its case and a fresh mask and array."""
    case = COMPILE_CASES[i % len(COMPILE_CASES)]
    rng = _rng(seed, 3, i)
    mask = rng.random(case.shape) < COMPILE_DENSITY
    array = rng.random(case.shape)
    return case, mask, array


# ----------------------------------------------------------------- serve-sim
SERVE_N = 4096
SERVE_PROCS = 4
SERVE_DENSITY = 0.3
SERVE_POOL = 4
SERVE_MIX = (("pack", 0.6), ("unpack", 0.2), ("ranking", 0.2))
_ID_SLOT = "@@ID@@"


def _blob(a: np.ndarray) -> dict:
    import base64

    a = np.ascontiguousarray(a)
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


class ServePool:
    """Request templates for serve-sim: every (op, mask, array) body is
    serialized once; a request is its template with the id spliced in."""

    def __init__(self, seed: int):
        rng = _rng(seed, 4)
        self.masks = [rng.random(SERVE_N) < SERVE_DENSITY for _ in range(SERVE_POOL)]
        self.arrays = [rng.random(SERVE_N) for _ in range(SERVE_POOL)]
        self._templates: dict[tuple, tuple[bytes, bytes]] = {}

    def body(self, op: str, mi: int, ai: int) -> dict:
        mask, arr = self.masks[mi], self.arrays[ai]
        doc = {"id": _ID_SLOT, "op": op, "grid": [SERVE_PROCS],
               "mask": _blob(mask), "options": {"validate": False}}
        if op == "pack":
            doc["scheme"] = "cms"
            doc["array"] = _blob(arr)
        elif op == "unpack":
            doc["scheme"] = "css"
            doc["vector"] = _blob(arr[: int(mask.sum())])
            doc["field"] = _blob(arr[::-1].copy())
        return doc

    def template(self, op: str, mi: int, ai: int) -> tuple[bytes, bytes]:
        key = (op, mi, ai)
        if key not in self._templates:
            text = json.dumps(self.body(op, mi, ai), separators=(",", ":"))
            head, tail = text.split(_ID_SLOT)
            self._templates[key] = (head.encode(), (tail + "\n").encode())
        return self._templates[key]

    def line(self, rid: str, op: str, mi: int, ai: int) -> bytes:
        head, tail = self.template(op, mi, ai)
        return head + rid.encode() + tail

    def expected(self, op: str, mi: int, ai: int) -> np.ndarray:
        from repro.serial.reference import mask_ranks, pack_reference, unpack_reference

        mask, arr = self.masks[mi], self.arrays[ai]
        if op == "pack":
            return pack_reference(arr, mask)
        if op == "unpack":
            return unpack_reference(arr[: int(mask.sum())], mask, arr[::-1].copy())
        return mask_ranks(mask)


@dataclass(frozen=True)
class Arrival:
    due: float  # seconds after the schedule starts
    rid: str
    op: str
    mask: int
    array: int


def schedule(seed: int, rate: float, seconds: float, prefix: str = "r") -> list[Arrival]:
    """Open-loop Poisson arrivals: exactly ``round(rate*seconds)`` requests,
    uniformly placed (a Poisson process conditioned on its count), with a
    seeded op mix over the request pool.  Ids are ``prefix`` + index; each
    prefix draws from its own seeded stream."""
    rng = _rng(seed, 5, ord(prefix))
    count = max(1, round(rate * seconds))
    due = np.sort(rng.uniform(0.0, seconds, count))
    names = [m[0] for m in SERVE_MIX]
    ops = rng.choice(len(names), size=count, p=[m[1] for m in SERVE_MIX])
    mi = rng.integers(0, SERVE_POOL, count)
    ai = rng.integers(0, SERVE_POOL, count)
    return [
        Arrival(float(t), f"{prefix}{k}", names[o], int(m), int(a))
        for k, (t, o, m, a) in enumerate(zip(due, ops, mi, ai))
    ]
