"""Supervised persistent gangs: warm reuse, failure recovery, degradation.

:class:`~repro.runtime.mp.MpBackend` forks a throwaway gang per call and
fails fast on any child death.  That is the right *hygiene* baseline,
but ``BENCH_profile.json`` shows fork/reap/shm lifecycle is about half
of the mp slowdown at P=8 — and the paper's PACK/UNPACK primitives
assume a gang of processors that survives the whole computation.
:class:`GangSupervisor` provides that gang on the same plumbing as the
cold backend (:mod:`repro.runtime.gang`: one rank body, one collect
loop, one reap); what it adds is policy:

* **Persistent & warm** — ranks are forked *once* per gang epoch, report
  ready, and then serve ``(op_id, op)`` commands from a per-rank control
  queue, attaching the host's shared-memory arena *by name* (the arena
  did not exist at fork time).  A warm dispatch replaces a fork.
* **Supervised** — every rank beats a shared-memory heartbeat board, so
  the shared collect loop can tell a ``heartbeat_miss`` (a SIGSTOPped or
  livelocked rank) from an ``op_timeout`` (deadline with fresh
  heartbeats — a deadlock), a ``rank_death``, a ``poisoned_result``, a
  ``spawn_failure`` (death before ready) and the non-retryable
  ``program_error`` (the rank itself raised).
* **Recovering** — on a retryable failure the supervisor reaps the whole
  gang, rebuilds it under a new epoch, and retries the in-flight op
  under a seeded exponential-backoff-with-jitter :class:`RetryPolicy`.
  Every message a rank sends is stamped ``(epoch, op_id)`` and stale
  stamps are dropped at the receiver, so an op retried after a rebuild
  is exactly-once from the caller's view: one ``run_spmd`` call, one
  result, bit-identical to a fault-free run.
* **Degrading** — when the retry budget is exhausted,
  ``on_exhaustion="fallback"`` reruns the op on the in-process
  :class:`~repro.runtime.sim.SimBackend` (results identical, times in
  the ``"simulated"`` domain) instead of raising; ``"raise"`` (default)
  surfaces :class:`~repro.runtime.mp.MpGangError`.

With ``RetryPolicy(max_retries=0)`` a failure surfaces with the same
failing rank and message as on :class:`~repro.runtime.mp.MpBackend`.
Programs and ``make_rank_args`` closures reach the warm ranks frozen
(:func:`~repro.runtime.gang.freeze_callable`).

Lifecycle events (``rank_death``, ``rebuild``, ``retry``, ``fallback``,
``heartbeat_miss``, ...) are appended to :attr:`SupervisorStats.events`,
counted into the active :class:`~repro.obs.registry.MetricsRegistry`
(``supervisor.*``), and — for a profiled op — appended to the profile's
gang lanes as ``supervisor.*`` spans.

Chaos (:class:`~repro.faults.chaos.ChaosPlan`) is first-class: the
supervisor decrements each event's ``times`` budget per delivery, so a
``times=1`` kill recovers on the first retry while ``times > budget``
exercises exhaustion and fallback deterministically.
"""

from __future__ import annotations

import atexit
import random
import threading
import time
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Callable, Mapping, Sequence

from ..codecs.wire import resolve_codec
from ..faults.chaos import ChaosEvent, ChaosPlan
from ..machine.stats import RunResult
from .base import Backend, resolve_transport
from .gang import (
    GangFailure,
    _Gang,
    assemble_run,
    check_run_args,
    freeze_callable,
    rank_ops,
)
from .mp import MpGangError, _build_mp_profile, _ProfileBuffers, _ShmArena

__all__ = [
    "GangSupervisor",
    "RetryPolicy",
    "SupervisorEvent",
    "SupervisorStats",
    "default_supervisor",
    "shutdown_default_supervisor",
]


# ------------------------------------------------------------ retry policy
@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter.

    ``delays()`` yields ``max_retries`` sleep lengths:
    ``min(max_delay, base_delay * multiplier**i)`` scaled by a uniform
    jitter factor in ``[1 - jitter, 1 + jitter]`` drawn from
    ``random.Random(seed)`` — deterministic per policy instance, so a
    chaos run's recovery timeline is reproducible.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (0 <= self.jitter < 1):
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delays(self):
        rng = random.Random(self.seed)
        for i in range(self.max_retries):
            base = min(self.max_delay, self.base_delay * self.multiplier ** i)
            yield base * (1 + self.jitter * (2 * rng.random() - 1))


# ------------------------------------------------------- events and stats
@dataclass(frozen=True)
class SupervisorEvent:
    """One lifecycle event: what happened, when (monotonic), to whom."""

    kind: str
    t: float
    op_id: int | None = None
    rank: int | None = None
    detail: str = ""


@dataclass
class SupervisorStats:
    """Aggregate lifecycle counters for one supervisor instance."""

    ops: int = 0
    warm_ops: int = 0
    cold_ops: int = 0
    retries: int = 0
    rebuilds: int = 0
    fallbacks: int = 0
    gang_epoch: int = 0
    stale_dropped: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    events: list[SupervisorEvent] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "warm_ops": self.warm_ops,
            "cold_ops": self.cold_ops,
            "retries": self.retries,
            "rebuilds": self.rebuilds,
            "fallbacks": self.fallbacks,
            "gang_epoch": self.gang_epoch,
            "stale_dropped": self.stale_dropped,
            "failures": dict(self.failures),
            "events": [
                {"kind": e.kind, "t": e.t, "op_id": e.op_id,
                 "rank": e.rank, "detail": e.detail}
                for e in self.events
            ],
        }


# --------------------------------------------------------------- chaos state
class _ChaosState:
    """Per-supervisor delivery bookkeeping over an immutable ChaosPlan."""

    def __init__(self, plan: ChaosPlan | None):
        self.plan = plan
        self._left = [ev.times for ev in plan.events] if plan is not None else []

    def take(self, op_index: int, rank: int, spawn: bool) -> tuple[ChaosEvent, ...]:
        """Consume (decrement) and return the events due for this attempt."""
        if self.plan is None:
            return ()
        out = []
        for i, ev in enumerate(self.plan.events):
            if self._left[i] <= 0:
                continue
            if ev.rank != rank or ev.op_index != op_index:
                continue
            if spawn != (ev.phase == "spawn"):
                continue
            self._left[i] -= 1
            out.append(ev)
        return tuple(out)


# ---------------------------------------------------------------- backend
class GangSupervisor(Backend):
    """A persistent, supervised, self-healing mp gang behind the Backend seam.

    Parameters
    ----------
    timeout:
        per-op wall deadline in seconds (``None`` = none; heartbeat and
        exit supervision still apply).
    retry:
        the :class:`RetryPolicy`; default retries twice with seeded
        jittered exponential backoff.
    on_exhaustion:
        ``"raise"`` (default) surfaces :class:`MpGangError` once the
        retry budget is spent; ``"fallback"`` degrades the op to
        :class:`~repro.runtime.sim.SimBackend` (results identical,
        ``time_domain="simulated"``).
    heartbeat_interval / heartbeat_timeout:
        workers beat every ``interval`` seconds; a pending op whose rank
        has not beaten for ``timeout`` seconds is classified
        ``heartbeat_miss``.  The default timeout is deliberately large —
        on a loaded single-core host a busy gang legitimately starves its
        heartbeat threads for whole seconds.
    chaos:
        optional :class:`~repro.faults.chaos.ChaosPlan`; events are
        delivered at most ``times`` attempts each (see module docstring).
    transport / codec:
        message transport (``"ring"`` / ``"queue"``) and wire codec mode,
        resolved exactly as in :class:`~repro.runtime.mp.MpBackend` —
        each gang epoch gets its own ring matrix, torn down on reap.

    A supervisor instance is a context manager; :meth:`shutdown` reaps
    the gang.  The process-wide instance behind ``backend="supervised"``
    (see :func:`default_supervisor`) is shut down atexit.
    """

    name = "supervised"
    time_domain = "wall"
    supports_faults = False

    def __init__(
        self,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        on_exhaustion: str = "raise",
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 15.0,
        chaos: ChaosPlan | None = None,
        transport: str | None = None,
        codec: str | None = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if on_exhaustion not in ("raise", "fallback"):
            raise ValueError(
                f"on_exhaustion must be 'raise' or 'fallback', got {on_exhaustion!r}"
            )
        if heartbeat_interval <= 0 or heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "need 0 < heartbeat_interval < heartbeat_timeout, got "
                f"{heartbeat_interval} / {heartbeat_timeout}"
            )
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.on_exhaustion = on_exhaustion
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.transport = resolve_transport(transport)
        self.codec = resolve_codec(codec)
        self.stats = SupervisorStats()
        self._chaos = _ChaosState(chaos)
        self._gang: _Gang | None = None
        self._next_epoch = 1
        self._next_op_id = 0
        self._metrics = None  # registry in scope for the current op
        # One op at a time: a long-lived server submits from many asyncio
        # tasks (each in an executor thread), and the dispatch loop's
        # mutable state (gang, op ids, metrics-in-scope) is single-op by
        # design — the lock makes concurrent submissions queue instead of
        # interleaving.
        self._dispatch_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "GangSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def shutdown(self) -> None:
        """Gracefully stop the gang (idempotent; the supervisor stays
        usable — the next op forks a fresh gang).  See :meth:`close` for
        the terminal variant a long-lived server should call."""
        with self._dispatch_lock:
            gang, self._gang = self._gang, None
        if gang is not None:
            gang.reap(graceful=gang.healthy())

    def close(self) -> None:
        """Shut the gang down *and* retire the supervisor: any later
        :meth:`run_spmd` raises :class:`RuntimeError` instead of silently
        re-forking (or, racing a teardown, hanging on a reaped gang)."""
        self._closed = True
        self.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    def warm(self, nprocs: int) -> None:
        """Pre-fork the gang so the first op dispatches warm."""
        if self._closed:
            raise RuntimeError("GangSupervisor is closed; create a new one")
        with self._dispatch_lock:
            self._ensure_gang(nprocs, op_index=self.stats.ops)

    # --------------------------------------------------------------- events
    def _event(self, kind: str, op_id: int | None = None,
               rank: int | None = None, detail: str = "") -> SupervisorEvent:
        ev = SupervisorEvent(kind=kind, t=monotonic(), op_id=op_id,
                             rank=rank, detail=detail)
        self.stats.events.append(ev)
        if len(self.stats.events) > 1000:
            del self.stats.events[:-1000]
        if self._metrics is not None:
            self._metrics.inc(f"supervisor.{kind}")
        return ev

    # ----------------------------------------------------------- gang build
    def _ensure_gang(self, nprocs: int, op_index: int) -> _Gang:
        gang = self._gang
        if gang is not None and gang.nprocs == nprocs and gang.healthy():
            return gang
        if gang is not None:
            # One warm gang at a time: a different width rebuilds cold,
            # and a gang that died between ops (e.g. a program error last
            # op) is replaced.
            self._gang = None
            gang.reap(graceful=gang.healthy())
        epoch = self._next_epoch
        self._next_epoch += 1
        gang = _Gang(
            nprocs, epoch, self.transport, self.codec,
            spawn_chaos=[self._chaos.take(op_index, r, spawn=True)
                         for r in range(nprocs)],
            heartbeat=(self.heartbeat_interval, self.heartbeat_timeout),
        )
        self._event("gang_start", detail=f"epoch {epoch}, P={nprocs}")
        gang.start()
        self._gang = gang
        self.stats.gang_epoch = epoch
        if self._metrics is not None:
            self._metrics.set("supervisor.gang_epoch", epoch)
        return gang

    # -------------------------------------------------------------- run_spmd
    def run_spmd(
        self,
        program: Callable,
        nprocs: int,
        *,
        make_rank_args: Callable[[int, Mapping[str, Any]], tuple] | None = None,
        rank_args: Sequence[tuple] | None = None,
        shared: Mapping[str, Any] | None = None,
        spec=None,
        tracer=None,
        metrics=None,
        faults=None,
        step_budget: int | None = None,
        time_budget: float | None = None,
        profile=None,
    ) -> RunResult:
        spec, metrics = check_run_args(
            self, nprocs, make_rank_args, rank_args, faults, step_budget,
            time_budget, spec, metrics,
        )
        with self._dispatch_lock:
            # Checked under the lock: a close() racing this submission
            # must not revive the gang.
            if self._closed:
                raise RuntimeError(
                    "GangSupervisor is closed; ops submitted after close() "
                    "are refused (create a new supervisor)"
                )
            return self._run_spmd_locked(
                program, nprocs, make_rank_args, rank_args, shared, spec,
                tracer, metrics, profile,
            )

    def _run_spmd_locked(
        self, program, nprocs, make_rank_args, rank_args, shared, spec,
        tracer, metrics, profile,
    ) -> RunResult:
        self._metrics = metrics

        op_index = self.stats.ops
        op_id = self._next_op_id
        self._next_op_id += 1
        self.stats.ops += 1
        frozen = {
            "spec": spec,
            "program": freeze_callable(program),
            "make_rank_args": freeze_callable(make_rank_args),
            "want_metrics": metrics is not None,
            "want_trace": tracer is not None,
        }
        lifecycle: list[SupervisorEvent] = []
        last_failure: GangFailure | None = None
        try:
            delays = [None, *self.retry.delays()]
            for attempt, delay in enumerate(delays):
                if delay is not None:
                    lifecycle.append(self._event(
                        "backoff", op_id=op_id,
                        detail=f"sleep {delay * 1e3:.0f}ms before attempt "
                               f"{attempt + 1}/{len(delays)}"))
                    time.sleep(delay)
                try:
                    was_warm = self._gang is not None and self._gang.healthy() \
                        and self._gang.nprocs == nprocs
                    gang = self._ensure_gang(nprocs, op_index)
                    if attempt > 0:
                        self.stats.retries += 1
                        lifecycle.append(self._event(
                            "retry", op_id=op_id,
                            detail=f"attempt {attempt + 1}/{len(delays)} on "
                                   f"epoch {gang.epoch}"))
                    if was_warm:
                        self.stats.warm_ops += 1
                    else:
                        self.stats.cold_ops += 1
                    return self._run_once(
                        gang, op_index, op_id, attempt, frozen,
                        rank_args, shared, tracer, metrics, profile,
                        lifecycle,
                    )
                except GangFailure as failure:
                    last_failure = failure
                    self.stats.failures[failure.kind] = (
                        self.stats.failures.get(failure.kind, 0) + 1)
                    lifecycle.append(self._event(
                        failure.kind, op_id=op_id, rank=failure.rank,
                        detail=failure.detail))
                    gang, self._gang = self._gang, None
                    if gang is not None:
                        gang.reap()
                        self.stats.rebuilds += 1
                        lifecycle.append(self._event(
                            "rebuild", op_id=op_id,
                            detail=f"reaped epoch {gang.epoch} after "
                                   f"{failure.kind}"))
                    if failure.kind == "program_error":
                        # Deterministic program bugs don't heal by retry.
                        raise MpGangError(
                            failure.rank, failure.detail,
                            child_traceback=failure.child_traceback,
                        ) from None
            # Retry budget exhausted.
            assert last_failure is not None
            if self.on_exhaustion == "fallback":
                self.stats.fallbacks += 1
                self._event(
                    "fallback", op_id=op_id, rank=last_failure.rank,
                    detail=f"degrading to SimBackend after {len(delays)} "
                           f"attempts; last: {last_failure.kind}: "
                           f"{last_failure.detail}")
                from .sim import SimBackend

                return SimBackend().run_spmd(
                    program, nprocs,
                    make_rank_args=make_rank_args, rank_args=rank_args,
                    shared=shared, spec=spec, tracer=tracer, metrics=metrics,
                    profile=profile,
                )
            raise MpGangError(
                last_failure.rank,
                f"retry budget exhausted after {len(delays)} attempts; "
                f"last failure: {last_failure.kind}: {last_failure.detail}",
                child_traceback=last_failure.child_traceback,
            )
        finally:
            self._metrics = None

    # -------------------------------------------------------------- one try
    def _run_once(
        self, gang: _Gang, op_index: int, op_id: int, attempt: int,
        frozen: dict, rank_args, shared, tracer, metrics, profile,
        lifecycle: list[SupervisorEvent],
    ) -> RunResult:
        nprocs = gang.nprocs
        t_attempt0 = monotonic()
        arena = _ShmArena(shared or {})
        prof_bufs = None
        if profile is not None:
            prof_bufs = _ProfileBuffers(nprocs, profile.ring_capacity)
        prof_data = None
        try:
            # The gang forked before this op existed: ship descriptors
            # the ranks attach by name.
            ops = rank_ops({
                **frozen, "arena": arena.descriptor(),
                "profile": prof_bufs.descriptor() if prof_bufs is not None else None,
            }, rank_args, [self._chaos.take(op_index, r, spawn=False)
                           for r in range(nprocs)])
            t_dispatch0 = monotonic()
            for r in range(nprocs):
                gang.ctl[r].put((op_id, ops[r]))
            t_dispatched = monotonic()
            reports = gang.collect(op_id, self.timeout, on_stale=self._stale)
            t_collected = monotonic()
            if prof_bufs is not None:
                prof_data = prof_bufs.copy_out()
        finally:
            arena.destroy()
            if prof_bufs is not None:
                prof_bufs.destroy()

        run = assemble_run(reports, tracer, metrics)
        lifecycle.append(self._event(
            "op_ok", op_id=op_id,
            detail=f"attempt {attempt + 1}, epoch {gang.epoch}"))
        if prof_data is not None:
            prof = _build_mp_profile(
                nprocs, prof_data, run,
                t_attempt0, t_dispatch0, t_dispatched, t_collected, monotonic(),
                transport=self.transport,
            )
            prof.backend = self.name
            # Lifecycle spans: clamp into the final attempt's window (the
            # Chrome-trace schema refuses negative timestamps; a failed
            # earlier attempt predates this attempt's origin).
            for ev in lifecycle:
                t = max(ev.t - t_attempt0, 0.0)
                prof.gang_spans.append((f"supervisor.{ev.kind}", t, t))
            profile.profile = prof
        return run

    def _stale(self) -> None:
        self.stats.stale_dropped += 1


# ------------------------------------------------------- default instance
_DEFAULT: GangSupervisor | None = None


def default_supervisor() -> GangSupervisor:
    """The process-wide supervisor behind ``backend="supervised"``.

    One shared instance means every string-name caller reuses the same
    warm gang; it is shut down atexit (and by
    :func:`shutdown_default_supervisor`, which tests use to assert
    leak-freedom deterministically).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = GangSupervisor()
        atexit.register(shutdown_default_supervisor)
    return _DEFAULT


def shutdown_default_supervisor() -> None:
    """Reap the default supervisor's gang (idempotent)."""
    global _DEFAULT
    sup, _DEFAULT = _DEFAULT, None
    if sup is not None:
        sup.shutdown()
