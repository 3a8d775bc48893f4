"""Outside-in span recording for the traced run.

The benchmark wraps each layer's public function at the binding its
callers read (``repro.serve.server.parse_request``, ``PlanCache.get``,
``GangSupervisor.run_spmd`` ...); no file of the program changes.  A
span is ``[name, start, end, parent, request ids, note]``: ``parent`` is
the index of the enclosing span on the same thread (``None`` at top
level), ``note`` holds exact counts read off the call's return value.
Spans stay in memory and are written once, at exit.

A span's name is ``<layer>.<function>``; its layer is everything before
the last dot.
"""

from __future__ import annotations

import json
import threading
import weakref
from collections import defaultdict
from time import perf_counter


class Recorder:
    """In-memory span store; thread-safe, one per traced process."""

    def __init__(self):
        self.spans: list = []
        self.enabled = True
        #: Every PlanCache a wrapped lookup went to.
        self.plan_caches = weakref.WeakSet()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, ids=None, note=None):
        """``fn`` recording one span per call.  ``ids(args, kwargs,
        result)`` and ``note(args, kwargs, result)`` fill the span's
        request ids and note; they run after the span has ended."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            out, failed = None, True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                span_ids = ids(args, kwargs, out) if ids and not failed else None
                span_note = note(args, kwargs, out) if note and not failed else None
                if failed:
                    span_note = {"error": True}
                self.spans[idx] = [name, t0, t1, parent, span_ids, span_note]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def plan_cache_evictions(self) -> int:
        return sum(c.stats().evictions for c in self.plan_caches)

    def dump(self, path, extra: dict | None = None) -> None:
        with open(path, "w") as f:
            json.dump({"spans": [s for s in self.spans if s is not None],
                       "extra": extra or {}}, f)


# ------------------------------------------------------------------ notes
def _run_note(args, kwargs, run):
    """Exact per-op counts from a backend's ``RunResult.stats``."""
    st = run.stats
    return {
        "sends": sum(s.sends for s in st),
        "words": sum(s.words_sent for s in st),
        "ctrl": sum(s.ctrl_ops for s in st),
        "busy": max(sum(s.phase_times.values()) for s in st),
        "idle": sum(s.idle_time for s in st),
        "elapsed": run.elapsed,
        "nprocs": len(st),
    }


def _cache_get_note(rec):
    """Notes a lookup's hit and remembers the cache, whose ``stats()``
    give the evictions once the phase is over."""

    def note(args, kwargs, plan):
        rec.plan_caches.add(args[0])
        return plan is not None

    return note


def _api_note(args, kwargs, res):
    note = {"plan": res.plan_info}
    if res.time_domain == "simulated":
        note.update(total_ms=res.total_ms, local_ms=res.local_ms,
                    prs_ms=res.prs_ms, m2m_ms=res.m2m_ms)
    return note


# ----------------------------------------------------------- installation
def install(rec: Recorder, serve: bool = False) -> None:
    """Wrap every layer's public entry points for the rest of the process.

    ``serve=True`` also wraps the serve front door and the core entry
    points at the bindings ``repro.serve.engine`` calls; otherwise the
    core entry points are wrapped where library callers read them
    (``repro.pack`` / ``repro.unpack`` / ``repro.ranking``).
    """
    import repro
    import repro.core.plan as plan_mod
    from repro.core.plan_cache import PlanCache
    from repro.hpf.grid import GridLayout
    from repro.runtime.mp import MpBackend
    from repro.runtime.sim import SimBackend
    from repro.runtime.supervisor import GangSupervisor

    def P(owner, attr, name, **kw):
        setattr(owner, attr, rec.wrap(name, owner.__dict__[attr], **kw))

    P(plan_mod, "mask_fingerprint", "core.plan.fingerprint")
    P(PlanCache, "get", "core.plan_cache.get", note=_cache_get_note(rec))
    create = GridLayout.__dict__["create"].__func__
    GridLayout.create = classmethod(rec.wrap("hpf.create", create))
    P(SimBackend, "run_spmd", "runtime.sim.run_spmd", note=_run_note)
    P(GangSupervisor, "run_spmd", "runtime.supervisor.run_spmd", note=_run_note)
    P(MpBackend, "run_spmd", "runtime.mp.run_spmd", note=_run_note)

    if serve:
        import repro.serve.engine as engine_mod
        import repro.serve.server as server_mod
        from repro.serve.admission import AdmissionController
        from repro.serve.batcher import Batcher
        from repro.serve.engine import ExecutionEngine

        P(server_mod, "parse_request", "serve.protocol.parse",
          ids=lambda a, k, out: [out.id])
        P(server_mod, "encode_response", "serve.protocol.encode",
          ids=lambda a, k, out: [a[0].get("id")])
        P(AdmissionController, "try_admit", "serve.admission.try_admit",
          note=lambda a, k, out: out)
        P(Batcher, "submit", "serve.batcher.submit",
          ids=lambda a, k, out: [a[1].req.id])
        P(ExecutionEngine, "execute", "serve.engine.execute",
          ids=lambda a, k, out: [r.id for r in a[1]])
        for op in ("pack", "unpack", "ranking"):
            P(engine_mod, op, f"core.api.{op}", note=_api_note)
        P(engine_mod, "pack_many", "core.multi.pack_many",
          note=lambda a, k, out: len(a[0]))
    else:
        for op in ("pack", "unpack", "ranking"):
            P(repro, op, f"core.api.{op}", note=_api_note)


# --------------------------------------------------------------- analysis
def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    kids = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            kids[s[3]].append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s[1]), min(b, s[2])) for a, b in kids.get(i, ())
                   if min(b, s[2]) > max(a, s[1])]
        out.append((s[2] - s[1]) - union_length(clipped))
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Summed self time (seconds) per layer."""
    out: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        out[layer_of(s[0])] += t
    return dict(out)


def window(spans, t0: float, t1: float) -> list:
    """Spans that start inside ``[t0, t1]``, parents re-indexed."""
    keep = [i for i, s in enumerate(spans) if t0 <= s[1] <= t1]
    index = {old: new for new, old in enumerate(keep)}
    return [
        [s[0], s[1], s[2], index.get(s[3]), s[4], s[5]]
        for s in (spans[i] for i in keep)
    ]
