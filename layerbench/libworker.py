"""Closed-loop library caller for lib-warm, lib-cold and lib-compile.

Run by ``run.py`` in a fresh process, with ``PYTHONPATH`` pointing at the
checkout's ``src``::

    python3 layerbench/libworker.py --workload lib-warm --seed 1 \
        --seconds 15 --t0 <perf_counter at launch> --mode measure

``--mode setup`` stops after the first correct op; ``--mode measure``
then warms up and measures; ``--spans-out`` adds a traced phase after the
untraced one.  Input generation and oracle checks run off the clock:
they are excluded from each op's latency and from the phase's wall and
CPU time.
The last stdout line is this process's JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter, process_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from spec import WARMUP_S  # noqa: E402


class PoolCaller:
    """lib-warm / lib-cold: a pool of 4 masks, 70/30 pack/unpack."""

    def __init__(self, seed: int, backend: str, cached: bool):
        import repro
        from inputs import LibPool

        self.repro = repro
        self.pool = LibPool(seed)
        self.backend = backend
        self.cache = repro.PlanCache(capacity=16) if cached else None
        self._args: dict = {}
        self._expected: dict = {}

    def _key(self, i):
        op = self.pool.op(i)
        return op, (op.op, op.mask, op.array)

    def _call(self, op, args, backend, cache):
        r = self.repro
        if op.op == "pack":
            res = r.pack(*args, backend=backend, validate=False, plan_cache=cache)
            return res, res.vector
        res = r.unpack(*args, scheme="css", backend=backend, validate=False,
                       plan_cache=cache)
        return res, res.array

    def prepare(self, i: int):
        op, key = self._key(i)
        args = self._args.get(key)
        if args is None:
            args = self._args[key] = self.pool.args(op)
        return op, args

    def run(self, prepared):
        op, args = prepared
        return self._call(op, args, self.backend, self.cache)[1]

    def expected(self, i: int):
        from repro.serial.reference import pack_reference, unpack_reference

        op, key = self._key(i)
        exp = self._expected.get(key)
        if exp is None:
            args = self._args[key]
            exp = (pack_reference(args[0], args[1]) if op.op == "pack"
                   else unpack_reference(args[0], args[1], args[2]))
            self._expected[key] = exp
        return exp

    def cm5_sim_ms(self) -> float:
        """Simulated CM-5 time per op of the workload's mix: every pool
        mask packed and unpacked on sim, weighted 70/30."""
        from inputs import LIB_PACK_SHARE, LIB_POOL, LibOp

        def mean_ms(kind):
            ops = [LibOp(kind, m, m) for m in range(LIB_POOL)]
            return sum(self._call(op, self.pool.args(op), "sim", None)[0].total_ms
                       for op in ops) / len(ops)

        return LIB_PACK_SHARE * mean_ms("pack") + (1 - LIB_PACK_SHARE) * mean_ms("unpack")


class CompileCaller:
    """lib-compile: a fresh mask every call through a small plan cache."""

    def __init__(self, seed: int):
        import repro
        from inputs import COMPILE_CACHE_CAPACITY, COMPILE_CASES

        self.repro = repro
        self.seed = seed
        self.cache = repro.PlanCache(capacity=COMPILE_CACHE_CAPACITY)
        self.cm5_n = 2 * len(COMPILE_CASES)
        self.cm5_samples: list[float] = []
        self._current = None

    def prepare(self, i: int):
        from inputs import compile_op

        case, mask, array = compile_op(self.seed, i)
        if case.op == "unpack":
            args = (array[: int(mask.sum())], mask, array[::-1].copy())
        else:
            args = (array, mask)
        self._current = (i, case, args)
        return self._current

    def run(self, prepared):
        i, case, args = prepared
        r = self.repro
        if case.op == "pack":
            res = r.pack(*args, case.grid, block=case.block, scheme=case.scheme,
                         redistribute=case.redistribute, validate=False,
                         plan_cache=self.cache)
            out = res.vector
        else:
            res = r.unpack(*args, case.grid, block=case.block,
                           scheme=case.scheme, validate=False,
                           plan_cache=self.cache)
            out = res.array
        if i < self.cm5_n:
            self.cm5_samples.append(res.total_ms)
        return out

    def expected(self, i: int):
        from repro.serial.reference import pack_reference, unpack_reference

        _i, case, args = self._current
        return pack_reference(*args) if case.op == "pack" else unpack_reference(*args)

    def cm5_sim_ms(self) -> float:
        if len(self.cm5_samples) < self.cm5_n:
            raise RuntimeError("lib-compile ran fewer ops than its CM-5 set")
        return sum(self.cm5_samples) / len(self.cm5_samples)


class Loop:
    """Drives a caller, counting attempts and oracle failures."""

    def __init__(self, caller):
        self.caller = caller
        self.i = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self):
        """One op: returns ``(t0, t1, ok, off_wall_s, off_cpu_s)``, the last
        two being the wall and CPU time of the off-clock input preparation
        and oracle check."""
        i = self.i
        self.i += 1
        self.attempted += 1
        w0, c0 = perf_counter(), process_time()
        try:
            prepared = self.caller.prepare(i)
            t0 = perf_counter()
            c1 = process_time()
            out = self.caller.run(prepared)
            t1 = perf_counter()
            c2 = process_time()
        except Exception as exc:  # any failure of the program is a failed op
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            now = perf_counter()
            return now, now, False, 0.0, 0.0
        ok = common.same_output(out, self.caller.expected(i))
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i}: output differs from the oracle")
        w3, c3 = perf_counter(), process_time()
        return t0, t1, ok, (t0 - w0) + (w3 - t1), (c1 - c0) + (c3 - c2)

    def phase(self, seconds: float) -> dict:
        """Ops for ``seconds``; wall and process-tree CPU exclude the
        off-clock work."""
        pid = os.getpid()
        cpu0 = common.tree_cpu_s(pid)
        begin = perf_counter()
        ops, off_wall, off_cpu = [], 0.0, 0.0
        while perf_counter() - begin < seconds:
            t0, t1, ok, ow, oc = self.one()
            off_wall += ow
            off_cpu += oc
            ops.append((t0, t1, ok))
        end = perf_counter()
        cpu = common.tree_cpu_s(pid) - cpu0
        return {
            "begin": begin, "end": end,
            "wall_s": (end - begin) - off_wall,
            "cpu_s": cpu - off_cpu,
            "off_cpu_s": off_cpu,
            "ops": ops,
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("lib-warm", "lib-cold", "lib-compile"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() of the launching process at launch")
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import repro  # noqa: F401  (import time is part of set-up)

    common.require_checkout_repro()
    gen0 = perf_counter()
    spawn_ms = None
    if args.workload == "lib-compile":
        caller = CompileCaller(args.seed)
    else:
        warm = args.workload == "lib-warm"
        caller = PoolCaller(args.seed, "supervised" if warm else "mp", cached=warm)
    bench_s = perf_counter() - gen0
    if args.workload == "lib-warm":
        from inputs import LIB_PROCS
        from repro.runtime.supervisor import default_supervisor

        w0 = perf_counter()
        default_supervisor().warm(LIB_PROCS)
        spawn_ms = (perf_counter() - w0) * 1e3

    loop = Loop(caller)
    op0 = perf_counter()
    t0, t1, ok, _ow, _oc = loop.one()
    # The first op's input preparation ran between its set-up and t0.
    setup_s = t1 - args.t0 - bench_s - (t0 - op0)
    print(json.dumps({"ready": True, "setup_s": setup_s, "ok": ok}), flush=True)
    if args.mode == "setup":
        return 0 if ok else 1

    loop.phase(WARMUP_S)
    untraced = loop.phase(args.seconds)
    traced = None
    extra = {}
    if args.spans_out:
        from repro.hpf.caches import layout_cache_stats
        from tracing import Recorder, install

        rec = Recorder()
        install(rec)
        layout0 = layout_cache_stats()
        evicted0 = caller.cache.stats().evictions if caller.cache else 0
        traced = loop.phase(args.seconds)
        rec.enabled = False
        extra = {"layout0": layout0, "layout1": layout_cache_stats(),
                 "spawn_ms": spawn_ms,
                 "evictions": rec.plan_cache_evictions() - evicted0}
        if args.workload == "lib-warm":
            from repro.runtime.supervisor import default_supervisor

            st = default_supervisor().stats
            extra.update(retries=st.retries, rebuilds=st.rebuilds)
        rec.dump(args.spans_out, extra)

    cm5 = caller.cm5_sim_ms()
    gang = 0
    if args.workload == "lib-cold":
        from inputs import LIB_PROCS

        gang = LIB_PROCS
    rss = common.tree_peak_rss_mib(os.getpid(), reaped_gang=gang)
    print(json.dumps({
        "setup_s": setup_s,
        "untraced": untraced,
        "traced": traced,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "cm5_sim_ms": cm5,
        "peak_rss_mib": rss,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
