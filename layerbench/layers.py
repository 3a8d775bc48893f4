"""Per-layer metrics from one traced phase.

Every metric named in ``spec.PER_LAYER`` is computed for every workload;
a layer that is not on a workload's path reads 0.  Times come from span
durations and self times; counts are read off the calls' return values
(``RunResult.stats``, ``plan_info``, ``PlanCache.stats()``, the layout
caches' ``cache_info``, ``GangSupervisor.stats``).
"""

from __future__ import annotations

from collections import defaultdict

from common import percentile
from spec import LAYERS, PER_LAYER
from tracing import layer_self_times, self_times, union_length


def _p(xs, q=50) -> float:
    return percentile(xs, q).value if xs else 0.0


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _layout_hit_frac(before: dict, after: dict) -> float:
    hits = misses = 0
    for name, info in after.items():
        b = before.get(name, {"hits": 0, "misses": 0})
        hits += info["hits"] - b["hits"]
        misses += info["misses"] - b["misses"]
    return _ratio(hits, hits + misses)


def derive(spans, n_ops: int, extra: dict, latencies_ms, op_windows=None,
           serve: dict | None = None, untraced_p50_ms: float = 0.0) -> dict:
    """All per-layer metrics of one traced phase.

    ``spans`` are the phase's spans; ``n_ops`` its end-to-end ops;
    ``latencies_ms`` their latencies.  Library callers pass each op's
    ``(start, end)`` in ``op_windows``; serve passes ``serve`` with
    per-request ``lat_ms``/``bytes`` keyed by request id and the phase
    bounds.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s)

    def durs(name, scale=1.0):
        return [(s[2] - s[1]) * scale for s in by_name[name]]

    m = {name: 0.0 for name, *_ in PER_LAYER}

    # serve front door
    m["serve.protocol.parse_us_p50"] = _p(durs("serve.protocol.parse", 1e6))
    m["serve.protocol.encode_us_p50"] = _p(durs("serve.protocol.encode", 1e6))
    admits = by_name["serve.admission.try_admit"]
    m["serve.admission.shed_frac"] = _ratio(
        sum(1 for s in admits if s[5] is not None), len(admits))
    submit_t = {s[4][0]: s[1] for s in by_name["serve.batcher.submit"]}
    execs = by_name["serve.engine.execute"]
    exec_of = {}
    for s in execs:
        for rid in s[4]:
            exec_of[rid] = s
    waits = {rid: (exec_of[rid][1] - t) for rid, t in submit_t.items() if rid in exec_of}
    m["serve.batcher.wait_ms_p50"] = _p([w * 1e3 for w in waits.values()])
    m["serve.batcher.wait_ms_p99"] = _p([w * 1e3 for w in waits.values()], 99)
    sizes = [len(s[4]) for s in execs]
    m["serve.batcher.batch_size_mean"] = _mean(sizes)
    m["serve.batcher.coalesced_frac"] = _ratio(sum(k for k in sizes if k > 1), sum(sizes))
    m["serve.engine.exec_ms_p50"] = _p(durs("serve.engine.execute", 1e3))
    many = by_name["core.multi.pack_many"]
    m["core.multi.ms_per_array"] = _ratio(
        sum((s[2] - s[1]) * 1e3 for s in many), sum(s[5] for s in many))

    residuals = []
    if serve is not None:
        t0, t1 = serve["begin"], serve["end"]
        m["serve.engine.busy_frac"] = _ratio(
            union_length([(max(s[1], t0), min(s[2], t1)) for s in execs
                          if s[2] > t0 and s[1] < t1]), t1 - t0)
        m["serve.protocol.bytes_per_req"] = _mean(list(serve["bytes"].values()))
        parse = {s[4][0]: s[2] - s[1] for s in by_name["serve.protocol.parse"]}
        encode = {s[4][0]: s[2] - s[1] for s in by_name["serve.protocol.encode"]}
        for rid, lat in serve["lat_ms"].items():
            if rid in parse and rid in waits and rid in encode:
                layer_ms = (parse[rid] + waits[rid] + (exec_of[rid][2] - exec_of[rid][1])
                            + encode[rid]) * 1e3
                residuals.append(lat - layer_ms)
        m["serve.residual_ms_p50"] = _p(residuals)
    elif op_windows:
        tops = sorted((s[1], s[2]) for s in spans if s[3] is None)
        j = 0
        for (a, b), lat in zip(op_windows, latencies_ms):
            covered = 0.0
            while j < len(tops) and tops[j][0] < a:
                j += 1
            k = j
            while k < len(tops) and tops[k][0] <= b:
                covered += tops[k][1] - tops[k][0]
                k += 1
            residuals.append(lat - covered * 1e3)
    m["trace.residual_ms_p50"] = _p(residuals)

    # core
    selfs = list(zip(spans, self_times(spans)))
    m["core.api.self_ms_p50"] = _p([t * 1e3 for s, t in selfs if s[0].startswith("core.api.")])
    api_notes = [s[5] for s in spans if s[0].startswith("core.api.") and s[5]]
    m["core.plan.compile_ms_mean"] = _mean([
        n["plan"]["compile_ms"] for n in api_notes
        if n.get("plan") and n["plan"].get("cache") == "miss"])
    m["core.plan.fingerprint_us_p50"] = _p(durs("core.plan.fingerprint", 1e6))
    gets = by_name["core.plan_cache.get"]
    m["core.plan_cache.hit_frac"] = _ratio(sum(1 for s in gets if s[5]), len(gets))
    m["core.plan_cache.lookup_us_p50"] = _p(durs("core.plan_cache.get", 1e6))
    m["core.plan_cache.evictions_per_op"] = _ratio(extra.get("evictions", 0), n_ops)

    # hpf
    m["hpf.layout_cache_hit_frac"] = _layout_hit_frac(extra["layout0"], extra["layout1"])
    m["hpf.layout_create_us_p50"] = _p(durs("hpf.create", 1e6))

    # simulator + machine
    sims = by_name["runtime.sim.run_spmd"]
    m["runtime.sim.run_ms_p50"] = _p(durs("runtime.sim.run_spmd", 1e3))
    notes = [s[5] for s in sims if s[5]]
    m["machine.msgs_per_op"] = _ratio(sum(n["sends"] for n in notes), n_ops)
    m["machine.words_per_op"] = _ratio(sum(n["words"] for n in notes), n_ops)
    m["machine.ctrl_ops_per_op"] = _ratio(sum(n["ctrl"] for n in notes), n_ops)
    sim_notes = [n for n in api_notes if "local_ms" in n]
    m["machine.sim_local_ms"] = _mean([n["local_ms"] for n in sim_notes])
    m["machine.sim_prs_ms"] = _mean([n["prs_ms"] for n in sim_notes])
    m["machine.sim_m2m_ms"] = _mean([n["m2m_ms"] for n in sim_notes])
    m["machine.idle_frac"] = _ratio(sum(n["idle"] for n in notes),
                                    sum(n["nprocs"] * n["elapsed"] for n in notes))

    # process backends
    def overhead(spans_):
        return _p([1.0 - s[5]["busy"] / (s[2] - s[1]) for s in spans_
                   if s[5] and s[2] > s[1]])

    sup = by_name["runtime.supervisor.run_spmd"]
    mp = by_name["runtime.mp.run_spmd"]
    m["runtime.supervisor.op_ms_p50"] = _p(durs("runtime.supervisor.run_spmd", 1e3))
    m["runtime.supervisor.op_ms_p99"] = _p(durs("runtime.supervisor.run_spmd", 1e3), 99)
    m["runtime.supervisor.overhead_frac"] = overhead(sup)
    m["runtime.supervisor.retries"] = float(extra.get("retries") or 0)
    m["runtime.supervisor.rebuilds"] = float(extra.get("rebuilds") or 0)
    m["runtime.supervisor.spawn_ms"] = float(extra.get("spawn_ms") or 0.0)
    m["runtime.mp.op_ms_p50"] = _p(durs("runtime.mp.run_spmd", 1e3))
    m["runtime.mp.overhead_frac"] = overhead(mp)
    gang_notes = [s[5] for s in sup + mp if s[5]]
    m["runtime.mp.msgs_per_op"] = _ratio(sum(n["sends"] for n in gang_notes), n_ops)
    m["runtime.mp.words_per_op"] = _ratio(sum(n["words"] for n in gang_notes), n_ops)

    per_layer = layer_self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = _ratio(per_layer.get(layer, 0.0) * 1e3, n_ops)
    m["trace.overhead_ms"] = _p(latencies_ms) - untraced_p50_ms
    return m

