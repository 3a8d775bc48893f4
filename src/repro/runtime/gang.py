"""One gang of rank processes: the plumbing both mp lifecycles share.

A gang is ``P`` forked rank processes plus what they inherit at fork:
the message transport, one result queue and, for a warm gang, a control
queue per rank and a heartbeat board.  The two lifecycles differ only in
how ops reach the ranks:

* **cold** (:class:`~repro.runtime.mp.MpBackend`) forks a gang per op.
  Each rank inherits its op — program, arguments, shared-memory arena —
  runs it, posts the result and exits on its own: no control queue, no
  ready handshake, no shutdown command.
* **warm** (:class:`~repro.runtime.supervisor.GangSupervisor`) forks a
  gang once per epoch.  Ranks report ready, then serve ops shipped over
  their control queues (callables frozen by :func:`freeze_callable`,
  arenas attached by segment name) until told to stop.

Everything else exists once, here:

* :func:`_rank_main` / :func:`_run_op` — the body of every rank process.
  Each op's outcome goes home as ``(status, rank, epoch, op_id, blob)``.
* :meth:`_Gang.collect` — the one result-collect loop.  It waits on the
  result pipe, every pending rank's exit sentinel, the heartbeat board
  and the op deadline at once, validates every message, and classifies
  a failure as a :class:`GangFailure`: ``rank_death``,
  ``poisoned_result``, ``op_timeout``, ``heartbeat_miss`` or
  ``program_error`` (``spawn_failure`` while a warm gang starts).
* :meth:`_Gang.reap` — kills and joins every rank and unlinks every
  shared-memory segment and semaphore the gang owns.
* :func:`check_run_args` and :func:`assemble_run` — the ``run_spmd``
  argument check and the :class:`~repro.machine.stats.RunResult`
  assembly.

The cold backend turns a :class:`GangFailure` into
:class:`~repro.runtime.mp.MpGangError`; the supervisor uses its kind to
decide between retry, rebuild, fallback and raising.
"""

from __future__ import annotations

import importlib
import marshal
import multiprocessing as _mp
import os
import pickle
import queue as _queue_mod
import sys
import threading
import traceback
import types
from multiprocessing.connection import wait as _conn_wait
from time import monotonic
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..faults.chaos import ChaosEvent, fire_chaos
from ..machine.spec import CM5
from ..machine.stats import RunResult, stats_from_snapshot
from .base import BackendError, Deadline, check_rank_args
from .mp import (
    _ProfileBuffers,
    _ShmArena,
    _make_transport,
    _release,
    _run_program,
    register_for_cleanup,
)

#: Seconds to wait for a rank to exit before SIGKILL; a finished rank's
#: result is already home by then, so a straggler is harmless.
JOIN_GRACE = 5.0
#: Seconds a warm gang may take from fork until every rank reports ready.
SPAWN_TIMEOUT = 60.0
#: Seconds to keep reading the result pipe after a rank is seen dead: it
#: may have posted just before exiting (the queue feeder races the exit).
_DEATH_GRACE = 0.5
#: Exit code of a rank whose op raised (after the traceback was posted).
_CHILD_FAILED = 70


class GangFailure(Exception):
    """One op failed on the gang; ``kind`` says how.

    ``rank`` is the rank at fault, or ``None`` when the gang as a whole
    failed (a deadline passed with every rank still alive).
    """

    def __init__(self, kind: str, rank: int | None, detail: str,
                 child_traceback: str | None = None):
        self.kind = kind
        self.rank = rank
        self.detail = detail
        self.child_traceback = child_traceback
        super().__init__(f"{kind}: {detail}")


# --------------------------------------------------------- heartbeat board
class _HeartbeatBoard:
    """One float64 per rank in shared memory: last beat, CLOCK_MONOTONIC.

    Created by the host *before* the fork, so workers inherit the mapping
    and beat it from a daemon thread.  Single-writer per slot; an 8-byte
    aligned store is atomic on every platform we run on.  A SIGSTOPped
    worker freezes all its threads — heartbeat included — which is
    exactly what makes a stopped rank distinguishable from a slow one.
    """

    def __init__(self, nprocs: int):
        from multiprocessing import shared_memory

        self._seg = shared_memory.SharedMemory(create=True, size=8 * nprocs)
        self._arr = np.ndarray((nprocs,), dtype=np.float64, buffer=self._seg.buf)
        self._arr[:] = monotonic()
        register_for_cleanup(self)

    def beat(self, rank: int) -> None:
        self._arr[rank] = monotonic()

    def ages(self) -> list[float]:
        now = monotonic()
        return [float(now - t) for t in self._arr]

    def destroy(self) -> None:
        self._arr = None
        seg, self._seg = self._seg, None
        if seg is not None:
            _release(seg, unlink=True)

    _emergency_cleanup = destroy


# ---------------------------------------------------------- freeze / thaw
def freeze_callable(fn: Callable | None):
    """Make ``fn`` shippable to a worker forked before ``fn`` existed.

    Module-level functions pickle by reference and import cleanly, so try
    that first.  Local closures (``pack``'s ``make_rank_args``, a test's
    inline program) don't pickle — for plain Python functions we marshal
    the code object and recursively freeze defaults and closure cells,
    rebuilding the function in the worker against its fork-inherited
    module globals (the worker forked *after* the defining module was
    imported, including ``__main__`` and test modules, so the globals are
    there).
    """
    if fn is None:
        return None
    try:
        return ("pickle", pickle.dumps(fn, pickle.HIGHEST_PROTOCOL))
    except Exception:
        pass
    if not isinstance(fn, types.FunctionType):
        raise BackendError(
            f"supervised gang cannot ship {fn!r}: not picklable and not a "
            f"plain Python function"
        )
    try:
        code = marshal.dumps(fn.__code__)
        defaults = tuple(_freeze_value(v) for v in (fn.__defaults__ or ()))
        kwdefaults = {
            k: _freeze_value(v) for k, v in (fn.__kwdefaults__ or {}).items()
        }
        closure = tuple(
            _freeze_value(c.cell_contents) for c in (fn.__closure__ or ())
        )
    except Exception as exc:
        raise BackendError(
            f"supervised gang cannot ship {fn.__qualname__}: closure state "
            f"is not picklable ({exc})"
        ) from exc
    return ("code", code, fn.__module__, defaults, kwdefaults, closure)


def _freeze_value(v):
    if isinstance(v, types.FunctionType):
        return ("fn", freeze_callable(v))
    return ("val", pickle.dumps(v, pickle.HIGHEST_PROTOCOL))


def _thaw_value(blob):
    tag, data = blob
    if tag == "fn":
        return _thaw_callable(data)
    return pickle.loads(data)


def _thaw_callable(blob) -> Callable | None:
    """Rebuild a :func:`freeze_callable` blob; a callable (a cold op's,
    inherited at fork) or ``None`` passes through unchanged."""
    if blob is None or callable(blob):
        return blob
    if blob[0] == "pickle":
        return pickle.loads(blob[1])
    _, code_b, module, defaults, kwdefaults, closure = blob
    code = marshal.loads(code_b)
    mod = sys.modules.get(module)
    if mod is None:  # pragma: no cover - fork inherits loaded modules
        mod = importlib.import_module(module)
    cells = tuple(types.CellType(_thaw_value(v)) for v in closure)
    fn = types.FunctionType(
        code, mod.__dict__, code.co_name,
        tuple(_thaw_value(v) for v in defaults) or None,
        cells or None,
    )
    if kwdefaults:
        fn.__kwdefaults__ = {k: _thaw_value(v) for k, v in kwdefaults.items()}
    return fn


# --------------------------------------------------------------- rank side
def rank_ops(op: Mapping[str, Any], rank_args: Sequence[tuple] | None,
             chaos: Sequence[tuple[ChaosEvent, ...]]) -> list[dict]:
    """One op description per rank: ``op`` plus that rank's own
    arguments and chaos events."""
    return [
        {**op, "rank_args": tuple(rank_args[r]) if rank_args is not None else None,
         "chaos": events}
        for r, events in enumerate(chaos)
    ]


def _run_op(rank: int, nprocs: int, epoch: int, op_id: int, op: Mapping[str, Any],
            transport, result_q, opened: list, t_entry: float) -> None:
    """Run one op in this rank process and post its outcome home.

    ``op["arena"]`` / ``op["profile"]`` are the host's objects (a cold
    rank inherited them) or their descriptors (a warm rank attaches by
    name and appends the attachment to ``opened`` for the caller to
    close).  Posts ``("ok", rank, epoch, op_id, blob)`` with the pickled
    ``(result, stats snapshot, metrics, trace events)``; a ``poison``
    chaos event posts a truncated message instead, exercising the
    host's validation.  If the op raises, posts
    ``("error", rank, epoch, op_id, traceback)`` and exits the process at
    once: a failing rank must not hang flushing mailbox messages nobody
    will ever read.
    """
    try:
        recorder = None
        prof = op["profile"]
        if prof is not None:
            if not isinstance(prof, _ProfileBuffers):
                prof = _ProfileBuffers.attach(prof)
                opened.append(prof)
            recorder = prof.recorder(rank)
            recorder.mark(0, t_entry)
        arena = op["arena"]
        if not isinstance(arena, _ShmArena):
            arena = _ShmArena.attach(arena)
            opened.append(arena)
        chaos = op["chaos"]
        report = _run_program(
            rank, nprocs, op["spec"],
            _thaw_callable(op["program"]), _thaw_callable(op["make_rank_args"]),
            op["rank_args"], arena.views(), transport, recorder,
            op["want_metrics"], op["want_trace"],
            t_entry=t_entry, stamp=(epoch, op_id), chaos=chaos,
        )
        if any(ev.kind == "poison" for ev in chaos):
            result_q.put(("ok", rank, epoch))
        else:
            # Serialize now, while the arena is still mapped: the queue
            # feeder pickles asynchronously, and a warm rank unmaps the
            # op's segments before its next op — a result referencing
            # arena-backed memory would race the feeder into a segfault.
            blob = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
            result_q.put(("ok", rank, epoch, op_id, blob))
    except BaseException:
        try:
            result_q.put(("error", rank, epoch, op_id, traceback.format_exc()))
            result_q.close()
            result_q.join_thread()
        finally:
            os._exit(_CHILD_FAILED)


def _rank_main(rank: int, nprocs: int, epoch: int, transport, result_q,
               spawn_chaos: tuple[ChaosEvent, ...], ops, board,
               heartbeat_interval: float) -> None:
    """Body of every rank process.

    A cold rank gets ``ops`` as a one-item ``[(op_id, op)]`` list it
    inherited at fork; it runs the op, posts, and returns, so the normal
    process exit flushes its mailbox feeders for peers still receiving.
    A warm rank gets its control queue instead: it beats ``board``,
    reports ready, and serves ``(op_id, op)`` commands until a ``None``.
    """
    # Fork hygiene: drop the layout-layer LRU caches inherited from the
    # parent — they hold index maps for *every* rank and would inflate
    # this rank's resident memory; it re-fills only its own entries.
    from ..hpf.caches import clear_layout_caches

    clear_layout_caches()
    warm = board is not None
    if warm:
        stop = threading.Event()

        def _beat():
            while not stop.is_set():
                board.beat(rank)
                stop.wait(heartbeat_interval)

        threading.Thread(target=_beat, daemon=True, name="heartbeat").start()
    if spawn_chaos:
        fire_chaos(spawn_chaos, "spawn")
    if warm:
        result_q.put(("ready", rank, epoch, None, None))
        ops = iter(ops.get, None)
    # A warm rank must NOT close an op's shm (arena, profile rings) when
    # the op finishes: queue feeder threads serialize outgoing mailbox
    # payloads sliced from arena views asynchronously, and
    # ``SharedMemory.close()`` unmaps even under live numpy views — the
    # race is a feeder-thread segfault.  By the time the *next* command
    # arrives the host has collected every rank's result, so every
    # message of the previous op was received: only then is unmapping
    # safe.
    opened: list = []
    for op_id, op in ops:
        t_entry = monotonic()
        for res in opened:
            res.close()
        opened.clear()
        _run_op(rank, nprocs, epoch, op_id, op, transport, result_q, opened,
                t_entry)
    if warm:
        stop.set()
        result_q.close()
        result_q.join_thread()
        # Skip interpreter teardown: atexit hooks and queue flushing
        # belong to the parent; a worker's job ends here.
        os._exit(0)


# --------------------------------------------------------------- host side
class _Gang:
    """``nprocs`` rank processes and the plumbing they inherit at fork.

    ``ops`` (one description per rank) makes a cold gang: each rank runs
    its op and exits.  Without it the gang is warm: ranks beat a
    heartbeat board every ``heartbeat[0]`` seconds — a pending rank
    silent for ``heartbeat[1]`` seconds is a ``heartbeat_miss`` — and
    serve ops put on :attr:`ctl` as ``(op_id, op)``.  Construction only
    builds the plumbing; :meth:`start` forks.
    """

    def __init__(self, nprocs: int, epoch: int, transport: str, codec: str, *,
                 spawn_chaos: Sequence[tuple[ChaosEvent, ...]],
                 ops: Sequence[Mapping[str, Any]] | None = None,
                 heartbeat: tuple[float, float] | None = None):
        mpctx = _mp.get_context("fork")
        self.nprocs = nprocs
        self.epoch = epoch
        self.heartbeat = heartbeat
        self.transport = _make_transport(transport, mpctx, nprocs, codec)
        self.result_q = mpctx.Queue()
        warm = ops is None
        self.ctl = [mpctx.Queue() for _ in range(nprocs)] if warm else []
        self.board = _HeartbeatBoard(nprocs) if warm else None
        self.procs = [
            mpctx.Process(
                target=_rank_main,
                args=(r, nprocs, epoch, self.transport, self.result_q,
                      spawn_chaos[r], self.ctl[r] if warm else [(0, ops[r])],
                      self.board, heartbeat[0] if warm else 0.0),
                daemon=True,
                name=f"repro-mp-rank-{r}-e{epoch}",
            )
            for r in range(nprocs)
        ]
        self._reaped = False
        register_for_cleanup(self)

    def start(self) -> None:
        """Fork every rank; a warm gang also waits until all are ready.

        On any failure the gang is reaped before the error propagates; a
        warm rank that dies or stalls before reporting ready raises
        :class:`GangFailure` of kind ``spawn_failure``.
        """
        try:
            for p in self.procs:
                p.start()
            if self.board is not None:
                self.collect(None, SPAWN_TIMEOUT)
        except GangFailure as failure:
            self.reap()
            raise GangFailure("spawn_failure", failure.rank,
                              failure.detail) from None
        except BaseException:
            self.reap()
            raise

    def healthy(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    # ------------------------------------------------------------- collect
    def collect(self, op_id: int | None, timeout: float | None,
                on_stale: Callable[[], None] | None = None) -> dict[int, Any]:
        """Gather one report per rank for ``op_id`` (``None``: ready).

        One ``connection.wait`` blocks on the result pipe and every
        pending rank's exit sentinel, bounded by the deadline and — on a
        warm gang — the heartbeat interval: no polling loop burning host
        CPU, and a silent death wakes the wait at once.  Messages stamped
        with another epoch or op are dropped (``on_stale``); every
        failure raises :class:`GangFailure`.
        """
        deadline = Deadline(timeout)
        pending = set(range(self.nprocs))
        reports: dict[int, Any] = {}
        wake = self.heartbeat[0] if self.heartbeat is not None else None
        while pending:
            try:
                msg = self.result_q.get_nowait()
            except _queue_mod.Empty:
                msg = None
            except Exception as exc:
                # A rank killed mid-write can corrupt the stream.
                raise GangFailure("poisoned_result", None,
                                  f"result stream corrupted: {exc!r}") from None
            if msg is None:
                dead = [r for r in sorted(pending)
                        if self.procs[r].exitcode is not None]
                if not dead:
                    self._check_live(pending, deadline, op_id)
                    _conn_wait(
                        [self.result_q._reader,
                         *(self.procs[r].sentinel for r in sorted(pending))],
                        timeout=deadline.remaining(cap=wake),
                    )
                    continue
                try:
                    msg = self.result_q.get(timeout=_DEATH_GRACE)
                except Exception:
                    msg = None
                if msg is None:
                    r = dead[0]
                    raise GangFailure(
                        "rank_death", r,
                        f"process exited with code {self.procs[r].exitcode} "
                        f"without reporting a result")
            rank, report = self._validate(msg, op_id)
            if rank is None:
                if on_stale is not None:
                    on_stale()
                continue
            reports[rank] = report
            pending.discard(rank)
        return reports

    def _check_live(self, pending: set[int], deadline: Deadline,
                    op_id: int | None) -> None:
        """Raise for a stopped pending rank or a passed deadline, with
        every pending rank still alive."""
        if self.heartbeat is not None:
            ages = self.board.ages()
            for r in sorted(pending):
                if ages[r] > self.heartbeat[1]:
                    raise GangFailure(
                        "heartbeat_miss", r,
                        f"rank {r} heartbeat stale for {ages[r]:.2f}s "
                        f"(> {self.heartbeat[1]:g}s): hung or stopped")
        if deadline.expired():
            subject = "gang start" if op_id is None else f"op {op_id}"
            raise GangFailure("op_timeout", None,
                              deadline.describe(subject, pending))

    def _validate(self, msg, op_id: int | None) -> tuple[int | None, Any]:
        """``(rank, report)`` of one result message, ``(None, None)`` for
        a stale one; raise :class:`GangFailure` for an error report or a
        malformed (poisoned, truncated) message."""
        rank = msg[1] if isinstance(msg, tuple) and len(msg) > 1 \
            and isinstance(msg[1], int) else None
        if not (isinstance(msg, tuple) and len(msg) == 5
                and msg[0] in ("ok", "error", "ready")
                and rank is not None and 0 <= rank < self.nprocs):
            raise GangFailure("poisoned_result", rank,
                              f"malformed result message: {msg!r}")
        status, rank, epoch, msg_op, blob = msg
        if epoch != self.epoch or msg_op != op_id:
            return None, None
        if status == "error":
            raise GangFailure("program_error", rank, "program raised",
                              child_traceback=blob)
        if status == "ready":
            return rank, None
        try:
            return rank, pickle.loads(blob)
        except Exception as exc:
            raise GangFailure("poisoned_result", rank,
                              f"undecodable result payload: {exc!r}") from None

    # ---------------------------------------------------------------- reap
    def reap(self, graceful: bool = False) -> None:
        """Stop every rank and release the gang's shm and semaphores.

        ``graceful`` first lets the ranks exit on their own (a cold rank
        does after posting; a warm one on a ``None`` command); whatever
        is still alive after :data:`JOIN_GRACE` is SIGKILLed — never
        SIGTERM: a SIGSTOPped rank cannot run a handler, but KILL reaps
        stopped processes too.  Idempotent.
        """
        if self._reaped:
            return
        self._reaped = True
        # A fork that failed part-way leaves later ranks unstarted.
        procs = [p for p in self.procs if p.pid is not None]
        if graceful:
            for q in self.ctl:
                try:
                    q.put(None)
                except (OSError, ValueError):
                    pass
            for p in procs:
                p.join(timeout=JOIN_GRACE)
        for p in procs:
            if p.is_alive():
                p.kill()
        for p in procs:
            p.join(timeout=JOIN_GRACE)
        if self.board is not None:
            self.board.destroy()
        try:
            self.transport.host_destroy()
        except (OSError, ValueError):
            pass
        for q in [*self.ctl, self.result_q]:
            q.close()
            # Never let host teardown block on unread queue residue.
            q.cancel_join_thread()

    def _emergency_cleanup(self) -> None:
        for p in self.procs:
            if p.is_alive():
                try:
                    p.kill()
                except (OSError, ValueError):
                    pass
        if self.board is not None:
            self.board.destroy()


# ------------------------------------------------------------ run_spmd glue
def check_run_args(backend, nprocs: int, make_rank_args, rank_args, faults,
                   step_budget, time_budget, spec, metrics) -> tuple:
    """Validate a gang backend's ``run_spmd`` arguments; return the
    ``(spec, metrics)`` to run with (CM-5 and the process-global
    registry by default)."""
    check_rank_args(nprocs, make_rank_args, rank_args)
    backend.reject_unsupported(faults=faults)
    if step_budget is not None or time_budget is not None:
        raise BackendError(
            f"{backend.name} backend: watchdog budgets count simulated "
            f"steps/seconds; use {type(backend).__name__}(timeout=wall_seconds) "
            f"instead"
        )
    if "fork" not in _mp.get_all_start_methods():
        raise BackendError(
            f"{backend.name} backend requires the 'fork' start method "
            f"(POSIX); it is unavailable on this platform"
        )
    if metrics is None:
        from ..obs.registry import current_global_metrics

        metrics = current_global_metrics()
    return (spec if spec is not None else CM5), metrics


def assemble_run(reports: Mapping[int, tuple], tracer, metrics) -> RunResult:
    """One wall-time :class:`RunResult` from every rank's report, merging
    the ranks' metrics and trace events into the caller's."""
    results = []
    stats = []
    for r in range(len(reports)):
        result, snapshot, child_metrics, child_events = reports[r]
        results.append(result)
        stats.append(stats_from_snapshot(snapshot))
        if metrics is not None and child_metrics is not None:
            metrics.merge(child_metrics)
        if tracer is not None and child_events:
            tracer.events.extend(child_events)
    return RunResult(results=results, stats=stats, time_domain="wall")
