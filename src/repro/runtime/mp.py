"""Process-per-rank execution backend over ``multiprocessing``.

:class:`MpBackend` runs the same SPMD generator programs as the simulator,
but on real cores: one forked OS process per rank, global input arrays in
POSIX shared memory (each rank slices out only its own block —
:meth:`~repro.hpf.grid.GridLayout.local_block` — so no block is ever
pickled through a pipe), and message passing over one of two pluggable
transports:

``ring`` (default)
    zero-copy shared-memory SPSC ring buffers
    (:mod:`repro.runtime.shm_ring`): a send frames the payload with the
    wire codec (:mod:`repro.codecs`) — raw bytes for numpy arrays, the
    paper's CMS ``(base_rank, count, data...)`` run-length segments for
    pair messages past the β₂ crossover, pickle only as a fallback —
    and memcpys it straight into a ring slot (or streams it through the
    pair's slab ring when large) that the receiver already has mapped.
    No pickle for array traffic, no pipe, no feeder thread.
``queue``
    the original per-rank ``multiprocessing.Queue`` mailboxes (pickled
    payloads over pipes), kept for A/B measurement and as a portability
    fallback — ``MpBackend(transport="queue")``, the CLI's
    ``--transport``, or ``REPRO_MP_TRANSPORT=queue``.

How the same programs run on both transports
--------------------------------------------
A program interacts with the machine only through its context and the ops
it yields.  The child-side driver (:class:`_Driver`) replays the engine's
contract over IPC:

* ``ctx.send(...)`` posts the payload through the transport (eager and
  buffered — ring slots and queue feeder threads both mean sends only
  block on sustained backpressure, and a ring send that does block
  drains its own incoming rings while it waits, so even a cycle of
  ranks all mid-send completes — matching the simulator's eager-send
  model);
* ``yield ctx.recv(...)`` reads from the rank's own mailbox through a
  *pending buffer*: every incoming item passes through one matcher, and
  items that do not match the current pattern are buffered in arrival
  order, preserving the engine's FIFO-per-(source, tag) guarantee and
  keeping the collective protocol's internal messages from being stolen
  by ``source=ANY`` receives (library receives all use explicit tags;
  the protocol uses reserved negative tags programs may not send on);
* ``yield CollectiveOp(...)`` runs a root-gather protocol: members send
  their contribution to the lowest-ranked member, which applies the op's
  own ``combine`` callable and scatters the per-rank results.  Because
  every member constructs the op (and its combine closure) inside its own
  process, nothing about the collective needs to be picklable except the
  contributions and results.

Time is **wall** time: each rank accumulates ``perf_counter`` deltas into
a genuine :class:`~repro.machine.stats.ProcStats`, flushed to the current
phase label on every phase switch — so per-phase breakdowns, the profiler
and the metrics registry all work unchanged, just in a different
``time_domain`` (``"wall"``).

Failure hygiene
---------------
:class:`MpBackend` forks one gang per op through the plumbing it shares
with the supervisor (:mod:`repro.runtime.gang`): each rank inherits its
op, posts ``(status, rank, epoch, op_id, blob)`` home and exits.  The
shared collect loop watches the result pipe and every rank's exit
sentinel, and the backend turns a classified failure — a rank that
raised (its traceback attached), died without reporting, posted a
malformed result, or a gang past its ``timeout`` — into
:class:`MpGangError`.  The gang is reaped on every path (children
killed and joined, every shared-memory segment unlinked), so no
children or ``/dev/shm`` segments outlive a run.

If the *parent* itself dies mid-run (SIGTERM, interpreter exit with a
gang still up), a process-wide emergency registry unlinks every live
shared-memory segment and kills stray children — see
:func:`register_for_cleanup`.

Simulator-only features — fault injection, the reliable transport
(``auto_ack``), timed receives, watchdog budgets in simulated seconds —
are rejected with a clear :class:`~repro.runtime.base.BackendError`.

Real-process faults *are* supported: ``MpBackend(chaos=ChaosPlan(...))``
ships each rank its seeded :class:`~repro.faults.chaos.ChaosEvent`
placements, which the rank inflicts on itself (SIGKILL / SIGSTOP /
delay / poisoned result) at exact phase boundaries.  The bare backend
fails fast on them, exercising the failure-hygiene paths; recovery is
the supervisor's job (:mod:`repro.runtime.supervisor`).
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal as _signal
import weakref
from time import monotonic, perf_counter
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..codecs.wire import decode_payload, encode_payload, resolve_codec
from ..faults.chaos import ChaosEvent, fire_chaos
from ..machine.context import payload_words
from ..machine.errors import CollectiveMismatchError, MessageError, ProgramError
from ..machine.ops import ANY, CollectiveOp, Message, Recv
from ..machine.spec import MachineSpec
from ..machine.stats import ProcStats, RunResult
from .base import Backend, BackendError, resolve_transport
from .shm_ring import RingMatrix

__all__ = ["MpBackend", "MpGangError", "register_for_cleanup"]

#: Reserved mailbox tags for the collective protocol.  Program sends must
#: use non-negative tags, so these can never collide.
_COLL_CONTRIB = -101
_COLL_RESULT = -102

#: Profile span kinds, as stored in the shared-memory ring buffers (see
#: :class:`_ProfileBuffers`).  ``fork`` and ``compute`` have no ring kind:
#: fork is derived from the spawn/entry marks and compute is the lane
#: residual between instrumented spans.
_PK_SHM = 1
_PK_PICKLE = 2
_PK_QSEND = 3
_PK_QWAIT = 4
_PK_COLL = 5
_PK_ENC = 6
_PK_RSEND = 7
_PK_RWAIT = 8
_PK_NAMES = {
    _PK_SHM: "shm",
    _PK_PICKLE: "pickle",
    _PK_QSEND: "queue_send",
    _PK_QWAIT: "queue_wait",
    _PK_COLL: "collective",
    _PK_ENC: "encode",
    _PK_RSEND: "ring_send",
    _PK_RWAIT: "ring_wait",
}
#: Ring kinds that also accumulate into the per-rank phase table (the shm
#: phase comes from the entry/ready marks instead, so it is ring-only).
#: The queue transport fills the first four, the ring transport the last
#: three (+ collective); either way the non-zero columns sum with compute
#: to the lane body.
_PK_ACC = {_PK_PICKLE: 0, _PK_QSEND: 1, _PK_QWAIT: 2, _PK_COLL: 3,
           _PK_ENC: 4, _PK_RSEND: 5, _PK_RWAIT: 6}
_ACC_NAMES = ("pickle", "queue_send", "queue_wait", "collective",
              "encode", "ring_send", "ring_wait")


class MpGangError(BackendError):
    """The process gang failed; carries the originating rank's story.

    Attributes
    ----------
    rank:
        the rank that caused the failure, or ``None`` when the gang as a
        whole failed (e.g. a timeout with every child still blocked).
    child_traceback:
        the formatted traceback from the failing child, when one was
        reported before the gang was torn down.
    """

    def __init__(self, rank: int | None, detail: str, child_traceback: str | None = None):
        self.rank = rank
        self.child_traceback = child_traceback
        who = "gang" if rank is None else f"rank {rank}"
        msg = f"mp backend: {who} failed: {detail}"
        if child_traceback:
            msg += f"\n--- rank {rank} traceback ---\n{child_traceback.rstrip()}"
        super().__init__(msg)


# ------------------------------------------------------- emergency cleanup
# If the *parent* dies mid-run — SIGTERM from a CI harness, sys.exit from
# a signal handler, an unhandled exception past the backend's finally —
# whatever shm segments and children were live at that moment would leak
# (POSIX shm survives its creator).  Every owner of leak-prone state
# registers itself here; one atexit + SIGTERM hook per process walks the
# registry and destroys what is left.  Fork children inherit the hook but
# the owner-pid guard makes it a no-op there (workers exit via os._exit,
# which skips atexit anyway).
_CLEANUP_PID: int | None = None
_CLEANUP_OBJS: "weakref.WeakSet[Any]" = weakref.WeakSet()
_PREV_SIGTERM: Any = None


def register_for_cleanup(obj: Any) -> None:
    """Arrange for ``obj._emergency_cleanup()`` to run if this process dies.

    Installed once per pid (lazily re-armed after fork); objects are held
    weakly, so normal teardown needs no deregistration.
    """
    global _CLEANUP_PID, _PREV_SIGTERM
    if _CLEANUP_PID != os.getpid():
        _CLEANUP_PID = os.getpid()
        atexit.register(_emergency_cleanup)
        try:
            _PREV_SIGTERM = _signal.signal(_signal.SIGTERM, _on_sigterm)
        except ValueError:
            # Not the main thread: atexit coverage only.
            _PREV_SIGTERM = None
    _CLEANUP_OBJS.add(obj)


def _emergency_cleanup() -> None:
    if os.getpid() != _CLEANUP_PID:
        return
    for obj in list(_CLEANUP_OBJS):
        try:
            obj._emergency_cleanup()
        except Exception:
            pass


def _on_sigterm(signum, frame) -> None:
    _emergency_cleanup()
    prev = _PREV_SIGTERM
    if callable(prev):
        prev(signum, frame)
    else:
        # Re-raise with the default disposition so the exit status still
        # says "terminated by SIGTERM".
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        os.kill(os.getpid(), _signal.SIGTERM)


def _attach_shm(name: str):
    """Attach an existing segment *without* resource-tracker registration.

    On 3.11 ``SharedMemory(name=...)`` registers with the tracker even on
    the attach path; a worker attaching a host-owned segment would then
    fight the host over who unlinks it.  The host is the sole owner —
    suppress registration for the duration of the attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig


def _release(seg, unlink: bool) -> None:
    """Unmap ``seg`` and, for its owner, unlink its name.

    ``BufferError`` means a numpy view is still exported; the mapping then
    lives until the rank's next op or exit — harmless, the owner's unlink
    removes the name either way.
    """
    try:
        seg.close()
    except (OSError, BufferError):
        pass
    if unlink:
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


# --------------------------------------------------------------------- shm
class _ShmArena:
    """Host-owned shared-memory segments holding the global input arrays.

    Two ways for a rank to see the arrays: a cold gang is forked *after*
    the arena exists, so its ranks inherit the mappings directly; a warm
    gang (forked before the op existed) instead receives the picklable
    :meth:`descriptor` and re-attaches by name — :meth:`attach` /
    :meth:`close` — with tracker registration suppressed.
    Either way the host stays the sole owner and the only unlinker, on
    every path up to and including parent death (``register_for_cleanup``).
    """

    def __init__(self, shared: Mapping[str, Any]):
        from multiprocessing import shared_memory

        self._owner = True
        self._meta: dict[str, tuple[Any, tuple, np.dtype]] = {}
        self._segments: list[Any] = []
        for name, arr in shared.items():
            arr = np.ascontiguousarray(arr)
            if arr.nbytes == 0:
                # Zero-extent arrays (empty masks, empty vectors) need no
                # segment; children rebuild them from shape and dtype.
                self._meta[name] = (None, arr.shape, arr.dtype)
                continue
            seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
            self._segments.append(seg)
            self._meta[name] = (seg, arr.shape, arr.dtype)
        register_for_cleanup(self)

    def descriptor(self) -> dict[str, tuple[str | None, tuple, np.dtype]]:
        """Picklable (segment-name, shape, dtype) map for name-attaching."""
        return {
            name: (seg.name if seg is not None else None, shape, dtype)
            for name, (seg, shape, dtype) in self._meta.items()
        }

    @classmethod
    def attach(cls, desc: Mapping[str, tuple[str | None, tuple, np.dtype]]) -> "_ShmArena":
        """Worker-side view of a host-owned arena (never unlinks)."""
        self = cls.__new__(cls)
        self._owner = False
        self._meta = {}
        self._segments = []
        for name, (segname, shape, dtype) in desc.items():
            if segname is None:
                self._meta[name] = (None, shape, dtype)
            else:
                seg = _attach_shm(segname)
                self._segments.append(seg)
                self._meta[name] = (seg, shape, dtype)
        return self

    def views(self) -> dict[str, np.ndarray]:
        """Numpy views over the segments (call in the child, post-fork)."""
        out: dict[str, np.ndarray] = {}
        for name, (seg, shape, dtype) in self._meta.items():
            if seg is None:
                out[name] = np.empty(shape, dtype=dtype)
            else:
                out[name] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        return out

    def close(self) -> None:
        """Drop this view's mappings; the host's owning view also unlinks
        the segments (exactly once: a second call finds none left)."""
        segments, self._segments = self._segments, []
        self._meta = {}
        for seg in segments:
            _release(seg, unlink=self._owner)

    destroy = _emergency_cleanup = close


# --------------------------------------------------------------- profiling
class _Pickled:
    """A payload the sender already serialized (profiled sends only).

    Profiling pre-pickles every payload so the pickle time and exact byte
    volume are measured at the source; the queue then only re-serializes
    this thin wrapper around the ready-made bytes, and the receiver
    unpickles (timed again) on delivery.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def __reduce__(self):
        return (_Pickled, (self.data,))


class _ProfileBuffers:
    """Per-rank profile state in one host-owned shared-memory segment.

    Layout (all rows 8-byte aligned, one row per rank):

    * ``times   (P, 3) f8`` — monotonic marks: child entry, args ready,
      program done;
    * ``acc     (P, 7) f8`` — per-phase accumulated seconds (the
      :data:`_ACC_NAMES` columns: pickle/queue_send/queue_wait for the
      queue transport, encode/ring_send/ring_wait for the ring transport,
      collective for both), kept exact even when the ring overflows;
    * ``hdr     (P, 2) i8`` — ring event count, dropped-span count;
    * ``counters(P, 4) i8`` — pickled bytes sent, collectives joined,
      program messages received, pickled bytes received;
    * ``msgs / bytes (P, P) i8`` — communication matrices, rows = senders;
    * ``events  (P, cap, 3) f8`` — the span rings: (kind, t0, t1).

    Lock-free by construction: each row has exactly one writer (its rank),
    and the parent reads only after the gang has reported.  Marks and ring
    timestamps are raw ``time.monotonic()`` values — CLOCK_MONOTONIC is
    shared by every process on the same boot, so the parent can align all
    lanes on one wall clock by subtracting its own start mark.
    """

    def __init__(self, nprocs: int, capacity: int):
        from multiprocessing import shared_memory

        self.nprocs = nprocs
        self.capacity = capacity
        self._owner = True
        self._shapes = self._layout(nprocs, capacity)
        size = sum(
            int(np.prod(shape)) * np.dtype(dt).itemsize
            for shape, dt in self._shapes.values()
        )
        # POSIX shm is zero-filled by the kernel; no explicit init needed.
        self._seg = shared_memory.SharedMemory(create=True, size=size)
        register_for_cleanup(self)

    @staticmethod
    def _layout(nprocs: int, capacity: int) -> dict:
        p = nprocs
        return {
            "times": ((p, 3), np.float64),
            "acc": ((p, len(_ACC_NAMES)), np.float64),
            "hdr": ((p, 2), np.int64),
            "counters": ((p, 4), np.int64),
            "msgs": ((p, p), np.int64),
            "bytes": ((p, p), np.int64),
            "events": ((p, capacity, 3), np.float64),
        }

    def descriptor(self) -> tuple[str, int, int]:
        """Picklable handle: (segment name, nprocs, ring capacity)."""
        return (self._seg.name, self.nprocs, self.capacity)

    @classmethod
    def attach(cls, desc: tuple[str, int, int]) -> "_ProfileBuffers":
        """Worker-side view of host-owned buffers (never unlinks)."""
        name, nprocs, capacity = desc
        self = cls.__new__(cls)
        self.nprocs = nprocs
        self.capacity = capacity
        self._owner = False
        self._shapes = cls._layout(nprocs, capacity)
        self._seg = _attach_shm(name)
        return self

    def _views(self) -> dict[str, np.ndarray]:
        out = {}
        offset = 0
        for name, (shape, dt) in self._shapes.items():
            nbytes = int(np.prod(shape)) * np.dtype(dt).itemsize
            out[name] = np.ndarray(
                shape, dtype=dt, buffer=self._seg.buf, offset=offset
            )
            offset += nbytes
        return out

    def recorder(self, rank: int) -> "_RankRecorder":
        """The single-writer view of rank ``rank``'s rows (child side)."""
        return _RankRecorder(rank, self._views(), self.capacity)

    def copy_out(self) -> dict[str, np.ndarray]:
        """Host-side copies of every array (call before :meth:`destroy`)."""
        return {name: arr.copy() for name, arr in self._views().items()}

    def close(self) -> None:
        """Unmap the buffers; the host's owning view also unlinks them."""
        seg, self._seg = self._seg, None
        if seg is not None:
            _release(seg, unlink=self._owner)

    destroy = _emergency_cleanup = close


class _RankRecorder:
    """One rank's lock-free writer over its :class:`_ProfileBuffers` rows."""

    __slots__ = ("rank", "_times", "_acc", "_hdr", "_counters",
                 "_msgs", "_bytes", "_events", "_cap")

    def __init__(self, rank: int, views: dict[str, np.ndarray], capacity: int):
        self.rank = rank
        self._times = views["times"][rank]
        self._acc = views["acc"][rank]
        self._hdr = views["hdr"][rank]
        self._counters = views["counters"][rank]
        self._msgs = views["msgs"][rank]
        self._bytes = views["bytes"][rank]
        self._events = views["events"][rank]
        self._cap = capacity

    def mark(self, slot: int, t: float) -> None:
        self._times[slot] = t

    def span(self, kind: int, t0: float, t1: float) -> None:
        acc = _PK_ACC.get(kind)
        if acc is not None:
            self._acc[acc] += t1 - t0
        n = int(self._hdr[0])
        if n < self._cap:
            ev = self._events[n]
            ev[0] = kind
            ev[1] = t0
            ev[2] = t1
            self._hdr[0] = n + 1
        else:
            self._hdr[1] += 1

    def sent(self, dest: int, nbytes: int) -> None:
        self._msgs[dest] += 1
        self._bytes[dest] += nbytes
        self._counters[0] += nbytes

    def received(self, nbytes: int) -> None:
        self._counters[2] += 1
        self._counters[3] += nbytes

    def collective(self) -> None:
        self._counters[1] += 1


class _MpMetrics:
    """Pre-bound metric handles for the mp transport's per-message paths.

    Same idea as the engine's ``_EngineMetrics``: bind the Counter /
    Histogram objects once per rank process so each send/recv/collective
    records through attribute loads guarded by the registry's cached
    enabled flag, not per-event name lookups.
    """

    __slots__ = (
        "registry", "sends", "words_sent", "message_words",
        "recvs", "collectives", "collective_group_size",
    )

    def __init__(self, registry):
        self.registry = registry
        self.sends = registry.counter("machine.sends")
        self.words_sent = registry.counter("machine.words_sent")
        self.message_words = registry.histogram("machine.message_words")
        self.recvs = registry.counter("machine.recvs")
        self.collectives = registry.counter("machine.collectives")
        self.collective_group_size = registry.histogram("machine.collective_group_size")


# -------------------------------------------------------------- transports
class _QueueTransport:
    """The original mailbox transport: one ``multiprocessing.Queue`` per
    rank, pickled payloads over pipes.

    Kept as the A/B baseline and the portability fallback.  Its hot-path
    behaviour (eager pickled puts, ``_Pickled`` pre-serialization when
    profiled, blocking gets with stale-stamp drops) is byte-for-byte the
    PR 5/6 wire.
    """

    kind = "queue"

    def __init__(self, mpctx, nprocs: int):
        self.mailboxes = [mpctx.Queue() for _ in range(nprocs)]

    def child_init(self, rank: int) -> "_QueueTransport":
        return self

    # Program sends — profiled sends pre-pickle so serialization time and
    # the exact wire byte volume are charged at the source; the queue then
    # re-serializes only the thin _Pickled wrapper (effectively a memcpy).
    def post(self, driver: "_Driver", dest: int, tag: int, payload: Any,
             words: int, clock: float) -> None:
        rec = driver._recorder
        if rec is None:
            if dest == driver.rank:
                # The queue's feeder thread pickles asynchronously, so a
                # self-send could deliver a *later* mutation of the
                # payload.  Serialize synchronously to pin the copy at
                # post time — ctx.send promises mutate-after-send safety
                # (profiled sends already pre-pickle, and remote sends
                # hand the buffer to another process).
                payload = pickle.loads(
                    pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                )
            self.mailboxes[dest].put(
                (driver._stamp, driver.rank, tag, payload, words, clock)
            )
            return
        t0 = monotonic()
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        t1 = monotonic()
        rec.span(_PK_PICKLE, t0, t1)
        rec.sent(dest, len(data))
        self.mailboxes[dest].put(
            (driver._stamp, driver.rank, tag, _Pickled(data), words, clock)
        )
        rec.span(_PK_QSEND, t1, monotonic())

    # Collective-protocol traffic: no per-message profiling (the whole
    # round is inside the collective span) and words=0 (protocol bytes
    # are excluded from the comm matrix by contract).
    def post_protocol(self, driver: "_Driver", dest: int, tag: int,
                      payload: Any) -> None:
        self.mailboxes[dest].put(
            (driver._stamp, driver.rank, tag, payload, 0, 0.0)
        )

    def get(self, driver: "_Driver") -> tuple:
        """Blocking receive of one current-stamp item for ``driver.rank``.

        Returns ``(source, tag, payload, words, send_clock)``; drops
        stale-stamped residue from earlier attempts on a persistent gang.
        """
        rec = driver._recorder
        t0m = monotonic() if rec is not None else 0.0
        t0 = perf_counter()
        inbox = self.mailboxes[driver.rank]
        while True:
            item = inbox.get()
            if item[0] == driver._stamp:
                break
        # Queue-blocked time is idle; it still lands in the current phase
        # via the next flush (a wall clock can't tell waiting from work).
        driver._stats.idle_time += perf_counter() - t0
        if rec is not None and not driver._in_collective:
            rec.span(_PK_QWAIT, t0m, monotonic())
        return item[1:]

    # ------------------------------------------------------- host lifecycle
    def host_destroy(self) -> None:
        for q in self.mailboxes:
            q.close()
            # Never let host teardown block on unread mailbox residue.
            q.cancel_join_thread()


class _RingTransport:
    """Zero-copy transport over a :class:`~repro.runtime.shm_ring.RingMatrix`.

    Payloads are framed by the wire codec (:mod:`repro.codecs.wire`) and
    memcpy'd into the destination's SPSC ring — no pickle for arrays or
    pair/segment messages, pickle fallback for everything else (protocol
    tuples, scalars).  Self-sends bypass the fabric (streaming a slab
    payload to yourself would deadlock a single thread) but still
    round-trip the codec, so the program receives an independent
    writable copy — the same mutate-after-send safety every other
    transport gives.

    A send blocked on ring backpressure drains this rank's *own*
    incoming rings into the driver's pending buffer (:meth:`_progress`):
    consuming is what frees a peer blocked sending to us, so the
    eager-send patterns the engine allows — every rank firing all its
    ``alltoallv`` sends before draining a single arrival — cannot
    deadlock on the bounded slab space.

    Fork-shared: the host builds the matrix pre-fork; each rank binds its
    endpoint lazily on first use (idempotent — a persistent worker reuses
    its binding across ops of one gang epoch).
    """

    kind = "ring"

    def __init__(self, matrix: RingMatrix, codec: str):
        self.matrix = matrix
        self.codec = codec
        self._ep = None

    def child_init(self, rank: int) -> "_RingTransport":
        if self._ep is None or self._ep.rank != rank:
            self._ep = self.matrix.endpoint(rank)
        return self

    def _progress(self, driver: "_Driver") -> bool:
        """Consume incoming traffic, without blocking, for a stalled send.

        Invoked by the endpoint while one of our sends is blocked on a
        full peer ring.  Complete records land in ``driver._pending``
        in arrival order — exactly where a later ``_take`` looks first —
        so the FIFO-per-(source, tag) guarantee is preserved; a payload
        the peer is still streaming is drained partially (which frees
        its slab space — the progress that matters) and finished on a
        later call.  Returns True when anything moved — a consumed
        record, drained slab bytes, or dropped stale-stamped residue.
        """
        r = self._ep.progress()
        if r is True or r is False:
            return r
        if (r.epoch, r.op_id) != driver._stamp:
            return True  # stale residue from an earlier attempt: dropped
        payload = decode_payload(r.wire, r.data)
        rec = driver._recorder
        if rec is not None and r.tag >= 0:
            rec.received(r.nbytes)
        driver._pending.append((r.src, r.tag, payload, r.words, r.clock))
        return True

    def post(self, driver: "_Driver", dest: int, tag: int, payload: Any,
             words: int, clock: float) -> None:
        rec = driver._recorder
        if dest == driver.rank:
            # Self-send: round-trip through the wire codec so the
            # payload delivered from the pending buffer is an
            # independent writable copy — ``ctx.send`` promises
            # mutate-after-send safety on every transport — carrying
            # the same bytes a remote send would put on the wire.
            t0 = monotonic() if rec is not None else 0.0
            wire, parts, nbytes = encode_payload(payload, self.codec)
            buf = bytearray(nbytes)
            off = 0
            for part in parts:
                pv = memoryview(part).cast("B")
                buf[off : off + len(pv)] = pv
                off += len(pv)
            payload = decode_payload(wire, buf)
            if rec is not None:
                rec.span(_PK_ENC, t0, monotonic())
                rec.sent(dest, nbytes)
                rec.received(nbytes)
            driver._pending.append((driver.rank, tag, payload, words, clock))
            return
        epoch, op_id = driver._stamp
        progress = lambda: self._progress(driver)  # noqa: E731
        if rec is None:
            wire, parts, nbytes = encode_payload(payload, self.codec)
            self._ep.send(dest, epoch=epoch, op_id=op_id, tag=tag, kind=0,
                          wire=wire, words=words, clock=clock,
                          parts=parts, nbytes=nbytes, progress=progress)
            return
        t0 = monotonic()
        wire, parts, nbytes = encode_payload(payload, self.codec)
        t1 = monotonic()
        rec.span(_PK_ENC, t0, t1)
        rec.sent(dest, nbytes)
        self._ep.send(dest, epoch=epoch, op_id=op_id, tag=tag, kind=0,
                      wire=wire, words=words, clock=clock,
                      parts=parts, nbytes=nbytes, progress=progress)
        rec.span(_PK_RSEND, t1, monotonic())

    def post_protocol(self, driver: "_Driver", dest: int, tag: int,
                      payload: Any) -> None:
        epoch, op_id = driver._stamp
        wire, parts, nbytes = encode_payload(payload, self.codec)
        self._ep.send(dest, epoch=epoch, op_id=op_id, tag=tag, kind=0,
                      wire=wire, words=0, clock=0.0,
                      parts=parts, nbytes=nbytes,
                      progress=lambda: self._progress(driver))

    def get(self, driver: "_Driver") -> tuple:
        rec = driver._recorder
        t0m = monotonic() if rec is not None else 0.0
        t0 = perf_counter()
        on_block = None
        ctx = driver.ctx
        if ctx is not None and ctx._chaos and not driver._ring_wait_fired:
            def on_block() -> None:
                # The kill-during-ring-wait pseudo-phase: fires exactly
                # when this rank transitions from polling to blocking.
                driver._ring_wait_fired = True
                fire_chaos(ctx._chaos, "ring_wait")
        while True:
            r = self._ep.wait(on_block=on_block)
            if (r.epoch, r.op_id) == driver._stamp:
                break
            # Stale stamp: residue from an earlier attempt/op on a
            # persistent gang.  Its slab bytes were already drained by
            # the pop (stream alignment), so dropping is safe.
        driver._stats.idle_time += perf_counter() - t0
        if rec is None or driver._in_collective:
            # Inside a collective both the wait and the decode fold into
            # the enclosing collective span (single-writer span order).
            payload = decode_payload(r.wire, r.data)
        else:
            rec.span(_PK_RWAIT, t0m, monotonic())
            t0 = monotonic()
            payload = decode_payload(r.wire, r.data)
            rec.span(_PK_ENC, t0, monotonic())
        if rec is not None and r.tag >= 0:
            # Protocol traffic is excluded from the comm matrix.
            rec.received(r.nbytes)
        return (r.src, r.tag, payload, r.words, r.clock)

    # ------------------------------------------------------- host lifecycle
    def host_destroy(self) -> None:
        self.matrix.destroy()


def _make_transport(name: str, mpctx, nprocs: int, codec: str):
    """Host-side transport factory (pre-fork; registered for cleanup)."""
    if name == "ring":
        matrix = RingMatrix(nprocs)
        register_for_cleanup(matrix)
        return _RingTransport(matrix, codec)
    return _QueueTransport(mpctx, nprocs)


# ----------------------------------------------------------------- context
class MpContext:
    """Per-rank context for real-process execution.

    Mirrors :class:`~repro.machine.context.Context`'s full surface so
    library code (prefix-reduction-sum, the m2m exchange, PACK/UNPACK
    programs) runs unmodified.  Differences, all dictated by the wall
    time domain:

    * :meth:`work` charges op *counts* only — the time they take accrues
      by itself;
    * :meth:`elapse` is a no-op (a wall clock cannot be advanced by fiat);
    * :meth:`send` copies the payload — pickle on the queue transport,
      wire framing on the ring, self-sends included — so the simulator's
      "don't mutate after send" rule is automatically safe here.
    """

    #: Plan replay (:func:`repro.core.plan.replay_charges`) checks this:
    #: under a wall clock, skipped compile work simply takes ~0 seconds —
    #: nothing to restore.
    time_domain = "wall"

    __slots__ = (
        "rank", "size", "spec", "stats", "scratch",
        "_driver", "_tracer", "_metrics", "_mx", "_recorder", "_last",
        "_chaos",
    )

    def __init__(self, rank, size, spec, stats, driver, tracer=None,
                 metrics=None, recorder=None, chaos=()):
        self.rank = rank
        self.size = size
        self.spec = spec
        self.stats = stats
        self.scratch: dict = {}
        self._driver = driver
        self._tracer = tracer
        self._metrics = metrics
        self._mx = _MpMetrics(metrics) if metrics is not None else None
        self._recorder = recorder
        self._last = perf_counter()
        self._chaos = tuple(chaos)

    # ----------------------------------------------------------- wall clock
    def _flush(self) -> None:
        """Attribute wall time since the last flush to the current phase."""
        now = perf_counter()
        delta = now - self._last
        self._last = now
        if delta > 0:
            self.stats.advance(delta)

    # ------------------------------------------------------------ local ops
    def work(self, ops: float) -> None:
        if ops < 0:
            raise MessageError(f"rank {self.rank}: negative work {ops}")
        if ops:
            self.stats.charge_ops(ops)

    def elapse(self, seconds: float) -> None:
        """No-op: wall time passes on its own; simulated charges don't apply."""

    def phase(self, name: str) -> None:
        self._flush()
        self.stats.set_phase(name)
        if self._tracer is not None and self._tracer.capture_phases:
            self._tracer.record(self.stats.clock, self.rank, "phase", name=name)
        if self._chaos:
            # Self-inflicted chaos fires at the exact phase switch — the
            # deterministic anchor a host-side killer could never hit.
            fire_chaos(self._chaos, name)

    @property
    def clock(self) -> float:
        self._flush()
        return self.stats.clock

    @property
    def current_phase(self) -> str:
        return self.stats.phase

    # -------------------------------------------------------------- metrics
    @property
    def metrics(self):
        return self._metrics

    def count(self, name: str, n: float = 1) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, n)

    def observe(self, name: str, value: float) -> None:
        if self._metrics is not None:
            self._metrics.observe(name, value)

    # ---------------------------------------------------------------- sends
    def send(
        self,
        dest: int,
        payload: Any,
        words: int | None = None,
        tag: int = 0,
        auto_ack: tuple[Any, int] | None = None,
    ) -> None:
        if auto_ack is not None:
            raise BackendError(
                "mp backend: auto-ack sends belong to the reliable transport, "
                "which only exists on the simulated network; use backend='sim'"
            )
        if not (0 <= dest < self.size):
            raise MessageError(f"rank {self.rank}: bad destination {dest}")
        if tag < 0:
            raise MessageError(
                f"rank {self.rank}: negative tag {tag} is reserved for the "
                f"runtime's collective protocol"
            )
        if words is None:
            words = payload_words(payload)
        if words < 0:
            raise MessageError(f"rank {self.rank}: negative message size {words}")
        self._flush()
        self.stats.sends += 1
        self.stats.words_sent += words
        mx = self._mx
        if mx is not None and mx.registry._enabled:
            mx.sends.inc()
            mx.words_sent.inc(words)
            mx.message_words.observe(words)
        if self._tracer is not None:
            self._tracer.record(
                self.stats.clock, self.rank, "send", dest=dest, tag=tag, words=words
            )
        # Serialization/wire accounting is the transport's business: the
        # queue transport pre-pickles profiled payloads, the ring
        # transport frames them with the wire codec.
        self._driver.post(dest, tag, payload, words, self.stats.clock)

    def local_copy(self, words: int, charge: bool = False) -> None:
        if charge:
            self.work(words)

    # ------------------------------------------------------------- blocking
    def recv(self, source: Any = ANY, tag: Any = ANY) -> Recv:
        if source is not ANY and not (0 <= source < self.size):
            raise MessageError(f"rank {self.rank}: bad source {source}")
        return Recv(source=source, tag=tag)

    def barrier(self, group: Sequence[int] | None = None, key: int = 0) -> CollectiveOp:
        from ..machine.ops import Barrier

        if group is None:
            group = range(self.size)
        return Barrier(group, key=key)

    # ------------------------------------------------------------- helpers
    def words_of(self, payload: Any) -> int:
        return payload_words(payload)

    # -------------------------------------------------- aggregated alltoallv
    def alltoallv_native(
        self,
        outgoing: Mapping[int, Any],
        sizes: Mapping[int, int],
        tag: int,
        count_key: int,
        self_copy_charge: bool = False,
    ) -> dict[int, Any]:
        """One aggregated many-to-many exchange, driven imperatively.

        The generator-based linear schedule costs a yield round-trip and a
        :class:`~repro.machine.ops.Message` object per peer message.  On a
        real-process backend the driver executes ops imperatively anyway,
        so :func:`repro.machine.m2m.exchange` dispatches here: one
        counts-collective (the same ``m2m-counts`` root-gather the linear
        schedule uses on a control-network machine), then every non-empty
        send fired in linear-permutation order as bulk ring/slab writes,
        then one arrival-order drain loop — no per-message generator
        suspension, no head-of-line blocking on a fixed receive order.

        Bit-compatible with the linear schedule: the same messages carry
        the same payloads, only the host-side mechanics differ.  Returns
        ``source -> payload`` including the self entry.
        """
        P = self.size
        rank = self.rank
        driver = self._driver
        received: dict[int, Any] = {}
        if rank in outgoing:
            self.local_copy(sizes[rank], charge=self_copy_charge)
            received[rank] = outgoing[rank]

        # Counts exchange: who will send me data?  One combining collective
        # (identical to exchange_counts' control-network path).
        self.count("m2m.count_exchanges")

        def _combine(payloads: dict) -> tuple[dict, int]:
            results: dict = {r: {} for r in payloads}
            for s, c in payloads.items():
                for r, w in c.items():
                    if r != s and int(w):
                        results[r][s] = int(w)
            return results, P

        incoming = driver._run_collective(CollectiveOp(
            group=tuple(range(P)),
            kind="m2m-counts",
            payload={d: int(w) for d, w in sizes.items() if d != rank},
            key=count_key,
            combine=_combine,
        ))

        # Fire every send in linear-permutation order (stagger the traffic
        # like the paper's schedule), then drain in arrival order.
        st = self.stats
        mx = self._mx
        for k in range(1, P):
            dest = (rank + k) % P
            if dest in outgoing and sizes.get(dest, 0) > 0:
                self.send(dest, outgoing[dest], words=sizes[dest], tag=tag)
        expected = {s for s in incoming if s != rank}
        while expected:
            source, got_tag, payload, words, _clock = driver._take(
                lambda item: item[1] == tag and item[0] in expected
            )
            expected.discard(source)
            rec = driver._recorder
            if rec is not None and type(payload) is _Pickled:
                data = payload.data
                t0 = monotonic()
                payload = pickle.loads(data)
                rec.span(_PK_PICKLE, t0, monotonic())
                rec.received(len(data))
            received[source] = payload
            self._flush()
            st.recvs += 1
            st.words_received += words
            if mx is not None and mx.registry._enabled:
                mx.recvs.inc()
            if self._tracer is not None:
                self._tracer.record(
                    st.clock, rank, "recv", source=source, tag=got_tag,
                    words=words,
                )
            driver._seq += 1
        return received

    def __repr__(self) -> str:
        return f"MpContext(rank={self.rank}/{self.size}, spec={self.spec.name})"


# ------------------------------------------------------------------ driver
class _Driver:
    """Child-side generator driver: satisfies yielded ops over a transport.

    All transport reads funnel through :meth:`_take`, which buffers items
    that do not match the requested pattern — the single point that keeps
    program receives and the collective protocol from stealing each
    other's messages.  The transport (queue or ring) only moves stamped
    ``(source, tag, payload, words, clock)`` items; matching, pending
    buffering and the collective protocol are transport-independent.
    """

    def __init__(self, rank: int, transport, stats: ProcStats, recorder=None,
                 stamp: tuple[int, int] = (0, 0)):
        self.rank = rank
        self._transport = transport
        self._stats = stats
        self._recorder = recorder
        self._ring_wait_fired = False
        #: (epoch, op_id) wire stamp.  Every message carries its sender's
        #: stamp; the receiver silently drops mismatches.  On a cold
        #: gang the stamp is constant; on a supervised persistent gang it
        #: is what keeps residue from a killed attempt (messages parked in
        #: mailbox pipes when a rank died) from satisfying a receive of
        #: the retried — or any later — operation.
        self._stamp = stamp
        #: Inside a collective: queue waits belong to the collective span
        #: (which wraps them), not to queue_wait.
        self._in_collective = False
        #: Buffered (source, tag, payload, words, send_clock) items in
        #: arrival order.
        self._pending: list[tuple] = []
        self._seq = 0
        self.ctx: MpContext | None = None

    # ---------------------------------------------------------- transport
    def post(self, dest: int, tag: int, payload: Any, words: int, clock: float) -> None:
        self._transport.post(self, dest, tag, payload, words, clock)

    def _blocking_get(self) -> tuple:
        return self._transport.get(self)

    def _take(self, match: Callable[[tuple], bool]) -> tuple:
        """Return the oldest item satisfying ``match``, buffering the rest."""
        for i, item in enumerate(self._pending):
            if match(item):
                return self._pending.pop(i)
        while True:
            item = self._blocking_get()
            if match(item):
                return item
            self._pending.append(item)

    # -------------------------------------------------------------- program
    def drive(self, gen) -> Any:
        send_value = None
        while True:
            try:
                op = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            send_value = None
            if isinstance(op, Recv):
                send_value = self._run_recv(op)
            elif isinstance(op, CollectiveOp):
                send_value = self._run_collective(op)
            else:
                raise ProgramError(self.rank, f"yielded unsupported op {op!r}")

    def _run_recv(self, op: Recv) -> Message:
        if op.timeout is not None:
            raise BackendError(
                "mp backend: timed receives are a simulated-clock feature "
                "(they underpin the reliable transport); use backend='sim'"
            )

        def _match(item: tuple) -> bool:
            source, tag = item[0], item[1]
            if tag < 0:
                return False  # collective protocol traffic is never a program message
            if op.source is not ANY and source != op.source:
                return False
            if op.tag is not ANY and tag != op.tag:
                return False
            return True

        source, tag, payload, words, send_clock = self._take(_match)
        rec = self._recorder
        if rec is not None and type(payload) is _Pickled:
            data = payload.data
            t0 = monotonic()
            payload = pickle.loads(data)
            rec.span(_PK_PICKLE, t0, monotonic())
            rec.received(len(data))
        ctx = self.ctx
        ctx._flush()
        st = self._stats
        st.recvs += 1
        st.words_received += words
        mx = ctx._mx
        if mx is not None and mx.registry._enabled:
            mx.recvs.inc()
        if ctx._tracer is not None:
            ctx._tracer.record(
                st.clock, self.rank, "recv", source=source, tag=tag, words=words
            )
        self._seq += 1
        return Message(
            source=source,
            dest=self.rank,
            tag=tag,
            payload=payload,
            words=words,
            send_time=send_clock,
            arrival_time=st.clock,
            seq=self._seq,
        )

    # ----------------------------------------------------------- collectives
    def _run_collective(self, op: CollectiveOp) -> Any:
        group = op.group
        if self.rank not in group:
            raise CollectiveMismatchError(
                f"rank {self.rank} not in its own group {group}"
            )
        ctx0 = self.ctx
        if ctx0 is not None and ctx0._chaos:
            fire_chaos(ctx0._chaos, "collective")
        rec = self._recorder
        if rec is not None:
            t_coll0 = monotonic()
            self._in_collective = True
        stamp = (op.kind, op.key, group)
        root = group[0]
        if self.rank == root:
            # Per-sender FIFO means the next contribution from a member of
            # this group *must* belong to this collective — a different
            # stamp is a genuine SPMD divergence, reported exactly like
            # the engine would, not buffered into a silent deadlock.
            payloads = {root: op.payload}
            others = set(group) - {root}
            while others:
                item = self._take(
                    lambda item: item[1] == _COLL_CONTRIB and item[0] in others
                )
                got_stamp, src_rank, contribution = item[2]
                self._check_stamp(got_stamp, stamp, item[0])
                payloads[src_rank] = contribution
                others.discard(item[0])
            if op.combine is not None:
                results, _words = op.combine(payloads)
            else:
                results = {r: None for r in group}
            for r in group:
                if r != root:
                    self._transport.post_protocol(
                        self, r, _COLL_RESULT, (stamp, results.get(r))
                    )
            value = results.get(root)
        else:
            self._transport.post_protocol(
                self, root, _COLL_CONTRIB, (stamp, self.rank, op.payload)
            )
            item = self._take(
                lambda item: item[0] == root and item[1] == _COLL_RESULT
            )
            self._check_stamp(item[2][0], stamp, root)
            value = item[2][1]
        if rec is not None:
            self._in_collective = False
            rec.span(_PK_COLL, t_coll0, monotonic())
            rec.collective()
        ctx = self.ctx
        ctx._flush()
        self._stats.ctrl_ops += 1
        mx = ctx._mx
        if mx is not None and mx.registry._enabled:
            mx.collectives.inc()
            mx.collective_group_size.observe(len(group))
        if ctx._tracer is not None:
            ctx._tracer.record(
                self._stats.clock, self.rank, "collective",
                op=op.kind, group_size=len(group),
            )
        return value

    def _check_stamp(self, got, expected, source: int) -> None:
        if got != expected:
            raise CollectiveMismatchError(
                f"rank {source} joined kind {got[0]!r} (key={got[1]}, "
                f"group={got[2]}), group started {expected[0]!r} "
                f"(key={expected[1]}, group={expected[2]})"
            )


# ------------------------------------------------------------- child entry
def _run_program(
    rank: int,
    nprocs: int,
    spec: MachineSpec,
    program: Callable,
    make_rank_args,
    rank_args,
    views: Mapping[str, np.ndarray],
    transport,
    recorder,
    want_metrics: bool,
    want_trace: bool,
    *,
    t_entry: float,
    stamp: tuple[int, int] = (0, 0),
    chaos: tuple[ChaosEvent, ...] = (),
) -> tuple:
    """Execute one SPMD op in the calling rank process.

    The core of every rank op, cold or warm
    (:func:`repro.runtime.gang._run_op`).  ``views`` are the rank's numpy
    views over the arena (inherited or attached — the caller decides),
    ``rank_args`` is already this rank's own tuple (or ``None``),
    ``transport`` is the fork-shared queue/ring transport (bound to this
    rank here), and ``stamp`` is the ``(epoch, op_id)`` wire stamp for
    every message.  Returns
    ``(result, stats_snapshot, metrics, trace_events)``.
    """
    tracer = None
    metrics = None
    if want_trace:
        from ..machine.trace import Tracer

        tracer = Tracer()
    if want_metrics:
        from ..obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
    if make_rank_args is not None:
        call_args = tuple(make_rank_args(rank, views))
    elif rank_args is not None:
        call_args = tuple(rank_args)
    else:
        call_args = ()
    if recorder is not None:
        # Everything from entry (fork, or op receipt on a warm gang) to
        # here is shm/argument setup: attaching views, slicing blocks.
        t_ready = monotonic()
        recorder.mark(1, t_ready)
        recorder.span(_PK_SHM, t_entry, t_ready)
    stats = ProcStats(rank)
    transport = transport.child_init(rank)
    driver = _Driver(rank, transport, stats, recorder=recorder, stamp=stamp)
    ctx = MpContext(rank, nprocs, spec, stats, driver, tracer=tracer,
                    metrics=metrics, recorder=recorder, chaos=chaos)
    driver.ctx = ctx
    if chaos:
        fire_chaos(chaos, "start")
    gen_or_value = program(ctx, *call_args)
    if hasattr(gen_or_value, "send") and hasattr(gen_or_value, "throw"):
        result = driver.drive(gen_or_value)
    else:
        result = gen_or_value
    ctx._flush()
    if chaos:
        fire_chaos(chaos, "flush")
    if recorder is not None:
        recorder.mark(2, monotonic())
    return (
        result,
        stats.snapshot(),
        metrics,
        tracer.events if tracer is not None else None,
    )


# ----------------------------------------------------------------- backend
class MpBackend(Backend):
    """Run SPMD programs with one OS process per rank (fork + shm + queues).

    Parameters
    ----------
    timeout:
        optional gang wall-clock budget in seconds; on expiry the gang is
        terminated and :class:`MpGangError` raised.  ``None`` (default)
        waits indefinitely — the host still detects crashed children.
    chaos:
        optional :class:`~repro.faults.chaos.ChaosPlan` of real process
        faults (op 0 events only — a cold gang runs one op).  The
        bare backend does not recover: a killed rank surfaces as
        :class:`MpGangError` through the normal failure-hygiene paths.
        Recovery belongs to
        :class:`~repro.runtime.supervisor.GangSupervisor`.
    transport:
        ``"ring"`` (default: zero-copy shared-memory ring buffers) or
        ``"queue"`` (pickled ``multiprocessing.Queue`` mailboxes).
        ``None`` resolves ``REPRO_MP_TRANSPORT`` then the default — see
        :func:`~repro.runtime.base.resolve_transport`.
    codec:
        wire codec mode for the ring transport: ``"auto"`` (default,
        per-message CMS-vs-SSS choice), ``"cms"``, ``"sss"``, or
        ``"pickle"``.  ``None`` resolves ``REPRO_WIRE_CODEC`` then auto.
    """

    name = "mp"
    time_domain = "wall"
    supports_faults = False

    def __init__(self, timeout: float | None = None, chaos=None,
                 transport: str | None = None, codec: str | None = None):
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self.chaos = chaos
        self.transport = resolve_transport(transport)
        self.codec = resolve_codec(codec)

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
        from .gang import GangFailure, _Gang, assemble_run, check_run_args, rank_ops

        t_host0 = monotonic() if profile is not None else 0.0
        spec, metrics = check_run_args(
            self, nprocs, make_rank_args, rank_args, faults, step_budget,
            time_budget, spec, metrics,
        )
        chaos = [
            self.chaos.events_for(0, r) if self.chaos is not None else ()
            for r in range(nprocs)
        ]
        arena = _ShmArena(shared or {})
        prof_bufs = None
        if profile is not None:
            prof_bufs = _ProfileBuffers(nprocs, profile.ring_capacity)
        gang = reports = prof_data = None
        t_spawn0 = t_spawned = t_collected = 0.0
        try:
            # Every rank inherits its op at fork: the callables as they
            # are, the arena and profile rings already mapped.
            gang = _Gang(nprocs, 0, self.transport, self.codec, spawn_chaos=chaos,
                         ops=rank_ops({
                             "spec": spec, "program": program,
                             "make_rank_args": make_rank_args,
                             "want_metrics": metrics is not None,
                             "want_trace": tracer is not None,
                             "arena": arena, "profile": prof_bufs,
                         }, rank_args, chaos))
            if profile is not None:
                t_spawn0 = monotonic()
            gang.start()
            if profile is not None:
                t_spawned = monotonic()
            reports = gang.collect(0, self.timeout)
            if prof_bufs is not None:
                t_collected = monotonic()
                # Every rank has reported: its rows are final.  Copy
                # before the finally block unlinks the segment.
                prof_data = prof_bufs.copy_out()
        except GangFailure as failure:
            raise MpGangError(failure.rank, failure.detail,
                              child_traceback=failure.child_traceback) from None
        finally:
            if gang is not None:
                gang.reap(graceful=reports is not None)
            arena.destroy()
            if prof_bufs is not None:
                prof_bufs.destroy()

        run = assemble_run(reports, tracer, metrics)
        if prof_data is not None:
            profile.profile = _build_mp_profile(
                nprocs, prof_data, run,
                t_host0, t_spawn0, t_spawned, t_collected, monotonic(),
                transport=self.transport,
            )
        return run


# ----------------------------------------------------------- profile merge
def _build_mp_profile(
    nprocs: int,
    data: Mapping[str, np.ndarray],
    run: RunResult,
    t_host0: float,
    t_spawn0: float,
    t_spawned: float,
    t_collected: float,
    t_end: float,
    transport: str = "queue",
):
    """Merge the per-rank shm rows into a wall-aligned ``RunProfile``.

    All child marks and ring timestamps are raw CLOCK_MONOTONIC values on
    the same boot as the parent's marks, so subtracting ``t_host0`` puts
    every lane on one common clock starting at the host call.

    The attribution table is built from the exact decomposition of each
    rank's view of the call::

        host_wall = shm_parent                (arena setup, same for all)
                  + (entry_r  - t_spawn0)     fork
                  + (ready_r  - entry_r)      shm (child view/arg build)
                  + (done_r   - ready_r)      pickle+queue+collective+compute
                  + (t_end    - done_r)       reap

    averaged over ranks — the per-rank identities each telescope to
    ``host_wall - shm_parent``, so the table sums to ``host_wall`` by
    construction (compute is the in-lane residual).
    """
    from ..obs.runtime import RankLane, RunProfile

    times = data["times"]
    acc = data["acc"]
    hdr = data["hdr"]
    counters = data["counters"]
    events = data["events"]

    def h(t: float) -> float:
        return t - t_host0

    lanes = []
    fork_s = []
    shm_child_s = []
    lane_acc = np.zeros(len(_ACC_NAMES))
    compute_s = []
    reap_s = []
    for r in range(nprocs):
        entry, ready, done = (float(t) for t in times[r])
        spans: list[tuple[str, float, float]] = [("fork", h(t_spawn0), h(entry))]
        n = int(hdr[r, 0])
        for kind, t0, t1 in events[r, :n]:
            spans.append((_PK_NAMES[int(kind)], h(float(t0)), h(float(t1))))
        per = {name: float(acc[r, i]) for i, name in enumerate(_ACC_NAMES)}
        per["fork"] = entry - t_spawn0
        per["shm"] = ready - entry
        per["compute"] = max((done - ready) - float(acc[r].sum()), 0.0)
        lanes.append(RankLane(
            rank=r, t_start=h(t_spawn0), t_ready=h(ready), t_done=h(done),
            spans=spans, phase_seconds=per,
        ))
        fork_s.append(per["fork"])
        shm_child_s.append(per["shm"])
        lane_acc += acc[r]
        compute_s.append(per["compute"])
        reap_s.append(t_end - done)

    def mean(xs) -> float:
        return float(sum(xs) / len(xs)) if len(xs) else 0.0

    shm_parent = t_spawn0 - t_host0
    phase_seconds = {
        "fork": mean(fork_s),
        "shm": shm_parent + mean(shm_child_s),
        "compute": mean(compute_s),
        "reap": mean(reap_s),
    }
    for i, name in enumerate(_ACC_NAMES):
        phase_seconds[name] = float(lane_acc[i]) / nprocs
    return RunProfile(
        op="run",
        backend="mp",
        time_domain="wall",
        transport=transport,
        nprocs=nprocs,
        total_seconds=t_end - t_host0,
        host_wall_seconds=t_end - t_host0,
        phase_seconds=phase_seconds,
        lanes=lanes,
        gang_spans=[
            ("shm_setup", 0.0, h(t_spawn0)),
            ("spawn", h(t_spawn0), h(t_spawned)),
            ("collect", h(t_spawned), h(t_collected)),
            ("reap", h(t_collected), h(t_end)),
        ],
        comm_msgs=[[int(v) for v in row] for row in data["msgs"]],
        comm_bytes=[[int(v) for v in row] for row in data["bytes"]],
        sends_per_rank=[s.sends for s in run.stats],
        recvs_per_rank=[int(counters[r, 2]) for r in range(nprocs)],
        recv_bytes_per_rank=[int(counters[r, 3]) for r in range(nprocs)],
        pickle_bytes_per_rank=[int(counters[r, 0]) for r in range(nprocs)],
        collectives_per_rank=[int(counters[r, 1]) for r in range(nprocs)],
        dropped_events=int(hdr[:, 1].sum()),
    )
