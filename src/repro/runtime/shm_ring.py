"""Shared-memory SPSC ring-buffer transport for the mp backends.

One :class:`RingMatrix` per gang: a single POSIX shared-memory segment
holding, for every ordered rank pair ``(src, dst)``, a fixed-slot
single-producer/single-consumer **record ring** plus a byte-stream
**slab ring** for payloads too large for a slot.  Replacing the
per-rank ``multiprocessing.Queue`` mailboxes with these rings removes
the pickle + pipe + feeder-thread cost per message: a send is one
header ``pack_into`` and one or two ``memoryview`` copies into memory
the receiver already has mapped.

Layout (all offsets 8-byte aligned)::

    [ waiting flags: P * 8 bytes ]                 one per receiving rank
    [ pair headers:  P*P * 128 bytes ]             2 cache lines per pair
        line 0 (producer-written): slot_head, byte_head
        line 1 (consumer-written): slot_tail, byte_tail
    [ slot rings:    P*P * nslots * slot_bytes ]
    [ slab rings:    P*P * slab_bytes ]

Synchronisation is futex-free, as on the CM-5 data network the paper
targets: heads/tails are monotonically increasing int64 sequence
counters.  A producer publishes a record by filling the slot **then**
advancing ``slot_head``; the consumer reads ``slot_head``, consumes,
then advances ``slot_tail``.  int64 aligned stores are atomic on every
platform CPython runs on, and each side writes only its own cache line,
so no locks are needed.  The payload-before-head *ordering*, however,
holds only under a total-store-order memory model (x86/x86-64): plain
stores carry no release barrier, so a weakly-ordered CPU (aarch64,
ppc64le) may let the consumer observe the advanced head before the
payload bytes are visible.  :func:`repro.runtime.base.resolve_transport`
therefore defaults to the queue transport off x86 and warns when the
ring is forced there.  Waits spin briefly, then ``sched_yield``, then
block on a per-receiver **doorbell** (``os.eventfd``, falling back to a
pipe): the receiver sets its waiting flag, re-checks the rings, and
blocks in ``select`` with a bounded timeout; a producer that observes
the flag writes the doorbell.  The flag re-check bounds the classic
lost-wakeup race to one timeout slice.

Records are 40-byte headers (epoch, op id, tag, payload kind, wire
codec, flags, words, nbytes, clock); payloads at most
``slot_bytes - 40`` ride inline in the slot, larger ones stream through
the pair's slab ring *after* the record is published (flag bit 0 set).
The consumer drains slab bytes as part of popping the record, so record
order and stream order coincide and arbitrarily large payloads move
through bounded memory with flow control on ``byte_tail``.

Stale records (wrong ``(epoch, op_id)`` under the supervisor's retry
loop) must still drain their slab bytes before being dropped — skipping
them would desynchronise the byte stream for every later record.

Backpressure is **cooperative**.  A send blocked on a full slot ring or
slab invokes its ``progress`` callback between re-checks; the mp
transport wires that callback to :meth:`RingEndpoint.progress`, which
consumes the sender's *own* incoming rings into the driver's pending
buffer.  Draining is what frees a peer blocked sending to us, so a
cycle of ranks all mid-send — exactly what ``alltoallv_native``
produces by firing every send before its drain loop — makes progress
instead of deadlocking when every per-pair payload exceeds the bounded
slab space.  Crucially the hook itself **never blocks**: an incoming
slab payload whose producer is still streaming is drained *partially*
(per-source resumable state, freeing slab space as it goes) and control
returns to the blocked send — blocking the hook on the peer's stream
would just re-create the cycle one level down, with both ranks stuck
draining streams whose producers are their own suspended send loops.

SIGKILL of a peer mid-wait leaves counters frozen; nothing in here
detects that, by design.  The host side (the gang's collect loop,
:meth:`repro.runtime.gang._Gang.collect`) watches process sentinels and
the heartbeat board and reaps the whole gang, which is what unblocks the survivors — the same recovery
contract the queue transport had, now exercised by the ``ring_wait``
chaos phase.
"""

from __future__ import annotations

import os
import select
import struct
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "RECORD",
    "RingConfig",
    "RingEndpoint",
    "RingMatrix",
    "RingRecord",
]

#: Record header: epoch i32, op_id i32, tag i32, kind i16, wire u8,
#: flags u8, words i64, nbytes i64, clock f8 — 40 bytes.
RECORD = struct.Struct("<iiihBBqqd")
assert RECORD.size == 40

_F_SLAB = 1  # flags bit 0: payload streamed through the slab ring

_CACHE_LINE = 64
_PAIR_HDR = 2 * _CACHE_LINE  # producer line + consumer line

# Backoff schedule for a single-core-friendly wait: a handful of pure
# spins (cheap when the producer is truly concurrent), then yield the
# core (essential when producer and consumer share one CPU, as in CI),
# then block on the doorbell.
_SPINS = 20
_YIELDS = 40
_DOORBELL_SLICE = 0.05  # select timeout; bounds the lost-wakeup race


@dataclass(frozen=True)
class RingConfig:
    """Geometry of one gang's ring matrix.

    Defaults keep a P=8 gang under 8 MiB of /dev/shm while letting a
    whole conformance-sized message ride inline.  Env overrides
    (``REPRO_RING_SLOTS``, ``REPRO_RING_SLOT_BYTES``,
    ``REPRO_RING_SLAB_BYTES``) exist for the backpressure/spill tests
    and for tuning on bigger machines.
    """

    nslots: int = 64
    slot_bytes: int = 2048
    slab_bytes: int = 1 << 16

    @classmethod
    def from_env(cls, **overrides) -> "RingConfig":
        def _pick(key: str, env: str, default: int) -> int:
            if key in overrides and overrides[key] is not None:
                return int(overrides[key])
            return int(os.environ.get(env, default))

        cfg = cls(
            nslots=_pick("nslots", "REPRO_RING_SLOTS", cls.nslots),
            slot_bytes=_pick("slot_bytes", "REPRO_RING_SLOT_BYTES", cls.slot_bytes),
            slab_bytes=_pick("slab_bytes", "REPRO_RING_SLAB_BYTES", cls.slab_bytes),
        )
        if cfg.nslots < 2 or cfg.slot_bytes < RECORD.size + 8:
            raise ValueError(f"ring config too small: {cfg}")
        if cfg.slab_bytes < 64:
            raise ValueError(f"slab ring too small: {cfg}")
        return cfg

    @property
    def inline_max(self) -> int:
        """Largest payload that fits inline in one slot."""
        return self.slot_bytes - RECORD.size


@dataclass(frozen=True)
class RingRecord:
    """One received message header + its payload bytes.

    ``data`` is a writable ``bytearray`` (the consumer's copy out of
    shared memory), so numpy views the wire codec decodes over it are
    mutable — receive semantics match the queue transport's unpickled
    copies.
    """

    src: int
    epoch: int
    op_id: int
    tag: int
    kind: int
    wire: int
    words: int
    nbytes: int
    clock: float
    data: bytearray


def _now() -> float:
    return time.monotonic()


class _Doorbell:
    """Per-receiver wakeup fd: eventfd where available, else a pipe.

    Created before fork and inherited by every rank; any producer may
    ring it, only the owner waits on it.  Non-blocking on both ends so
    a full pipe never stalls a producer (a pending byte is wakeup
    enough).
    """

    def __init__(self) -> None:
        if hasattr(os, "eventfd"):
            fd = os.eventfd(0, os.EFD_NONBLOCK)
            self._rfd = self._wfd = fd
            self._pipe = False
        else:  # pragma: no cover - all target platforms have eventfd
            r, w = os.pipe()
            os.set_blocking(r, False)
            os.set_blocking(w, False)
            self._rfd, self._wfd = r, w
            self._pipe = True

    def ring(self) -> None:
        try:
            os.write(self._wfd, b"\x01\x00\x00\x00\x00\x00\x00\x00")
        except (BlockingIOError, InterruptedError):
            pass  # already pending — the sleeper will wake regardless

    def drain(self) -> None:
        try:
            os.read(self._rfd, 8)
        except (BlockingIOError, InterruptedError):
            pass

    def wait(self, timeout: float) -> None:
        try:
            select.select([self._rfd], [], [], timeout)
        except (OSError, ValueError):  # pragma: no cover - fd torn down
            time.sleep(min(timeout, 0.001))
        self.drain()

    def close(self) -> None:
        try:
            os.close(self._rfd)
        finally:
            if self._pipe:
                try:
                    os.close(self._wfd)
                except OSError:
                    pass


class RingMatrix:
    """The P×P ring fabric for one gang, backed by one shm segment.

    The host constructs it (``create=True``) before forking; children
    inherit the mapping through fork and build per-rank
    :class:`RingEndpoint` views with :meth:`endpoint`.  The segment is
    zero-initialised by the kernel, which is exactly the initial
    counter state.
    """

    def __init__(self, nprocs: int, config: RingConfig | None = None, *,
                 create: bool = True, name: str | None = None) -> None:
        self.nprocs = int(nprocs)
        self.config = config or RingConfig.from_env()
        p, cfg = self.nprocs, self.config
        self._off_flags = 0
        self._off_hdr = p * 8
        self._off_slots = self._off_hdr + p * p * _PAIR_HDR
        self._off_slab = self._off_slots + p * p * cfg.nslots * cfg.slot_bytes
        self.nbytes = self._off_slab + p * p * cfg.slab_bytes
        if create:
            self._shm = shared_memory.SharedMemory(create=True, size=self.nbytes)
            self._owner = True
        else:
            self._shm = _attach(name)
            self._owner = False
        self.name = self._shm.name
        buf = self._shm.buf
        self._flags = np.frombuffer(buf, dtype=np.int64, count=p,
                                    offset=self._off_flags)
        # Counters as a (p, p, 2, 8) int64 view: [src, dst, line, word].
        # Line 0 word 0/1 = slot_head/byte_head (producer); line 1
        # word 0/1 = slot_tail/byte_tail (consumer).
        self._ctr = np.frombuffer(
            buf, dtype=np.int64, count=p * p * (_PAIR_HDR // 8),
            offset=self._off_hdr,
        ).reshape(p, p, 2, _CACHE_LINE // 8)
        self._raw = buf
        # Doorbells exist only on the creating (pre-fork) side; an
        # attach-by-name user (tests, tooling) gets ring state but no
        # blocking wakeups.
        self.doorbells = [_Doorbell() for _ in range(p)] if create else []
        self._endpoints: list["RingEndpoint"] = []

    # -- geometry -----------------------------------------------------
    def _slot_view(self, src: int, dst: int, slot: int) -> memoryview:
        cfg = self.config
        base = self._off_slots + ((src * self.nprocs + dst) * cfg.nslots + slot) * cfg.slot_bytes
        return self._raw[base : base + cfg.slot_bytes]

    def _slab_view(self, src: int, dst: int) -> memoryview:
        cfg = self.config
        base = self._off_slab + (src * self.nprocs + dst) * cfg.slab_bytes
        return self._raw[base : base + cfg.slab_bytes]

    def endpoint(self, rank: int) -> "RingEndpoint":
        ep = RingEndpoint(self, rank)
        self._endpoints.append(ep)
        return ep

    # -- lifecycle ----------------------------------------------------
    def close(self) -> None:
        for ep in self._endpoints:
            ep._release()
        self._endpoints = []
        self._flags = self._ctr = None  # release buffer exports
        self._raw = None
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        for bell in self.doorbells:
            try:
                bell.close()
            except OSError:
                pass
        self.doorbells = []

    def destroy(self) -> None:
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def _emergency_cleanup(self) -> None:  # register_for_cleanup hook
        self.destroy()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach without registering with the resource tracker (host owns it)."""
    from .mp import _attach_shm

    return _attach_shm(name)


class RingEndpoint:
    """One rank's producer/consumer view of the gang's ring matrix.

    Single-producer/single-consumer per ``(src, dst)`` pair: only rank
    ``src`` ever writes that pair's producer line and only rank ``dst``
    its consumer line, so plain int64 stores publish safely.
    """

    def __init__(self, matrix: RingMatrix, rank: int) -> None:
        self.matrix = matrix
        self.rank = int(rank)
        self.nprocs = matrix.nprocs
        cfg = matrix.config
        self._nslots = cfg.nslots
        self._slot_bytes = cfg.slot_bytes
        self._slab_bytes = cfg.slab_bytes
        self._inline_max = cfg.inline_max
        self._ctr = matrix._ctr
        self._flags = matrix._flags
        # Cached local copies of the consumer's own tails (authoritative:
        # only we write them) to avoid shm reads on the hot path.
        self._my_slot_tail = [int(self._ctr[src, self.rank, 1, 0])
                              for src in range(self.nprocs)]
        self._my_byte_tail = [int(self._ctr[src, self.rank, 1, 1])
                              for src in range(self.nprocs)]
        self._my_slot_head = [int(self._ctr[self.rank, dst, 0, 0])
                              for dst in range(self.nprocs)]
        self._my_byte_head = [int(self._ctr[self.rank, dst, 0, 1])
                              for dst in range(self.nprocs)]
        self._rr = 0
        #: In-progress slab drains, src -> [header, out bytearray, got]:
        #: a record whose payload the producer is still streaming, begun
        #: by the non-blocking :meth:`progress` path.  At most one per
        #: source (record order == stream order), and it must complete
        #: before any later record from that source is surfaced.
        self._partials: dict[int, list] = {}

    # ------------------------------------------------------------ send
    def send(self, dst: int, *, epoch: int, op_id: int, tag: int, kind: int,
             wire: int, words: int, clock: float, parts, nbytes: int,
             on_wait=None, progress=None) -> None:
        """Publish one record (and payload) to ``dst``'s ring.

        Blocks (spin → yield → sleep) on slot or slab backpressure;
        ``on_wait`` is invoked once if the send had to block, letting
        the caller attribute the stall.  ``progress`` is invoked between
        backpressure re-checks and should consume this endpoint's *own*
        incoming traffic (returning True when it did) — the cooperative
        drain that keeps a cycle of ranks all blocked mid-send from
        deadlocking.  Must not be used for ``dst == rank`` — self-sends
        bypass the transport entirely.
        """
        m = self.matrix
        rank = self.rank
        head = self._my_slot_head[dst]
        # Wait for a free slot (consumer lags by at most nslots).
        self._wait_until(
            lambda: head - int(self._ctr[rank, dst, 1, 0]) < self._nslots,
            on_wait, progress,
        )
        slot = m._slot_view(rank, dst, head % self._nslots)
        use_slab = nbytes > self._inline_max
        flags = _F_SLAB if use_slab else 0
        RECORD.pack_into(slot, 0, epoch, op_id, tag, kind, wire, flags,
                         words, nbytes, clock)
        if not use_slab:
            off = RECORD.size
            for part in parts:
                pv = memoryview(part).cast("B")
                slot[off : off + len(pv)] = pv
                off += len(pv)
            self._my_slot_head[dst] = head + 1
            self._ctr[rank, dst, 0, 0] = head + 1  # publish
            self._ring_doorbell(dst)
            return
        # Slab path: publish the record first (so the consumer can start
        # draining), then stream the payload with flow control.
        self._my_slot_head[dst] = head + 1
        self._ctr[rank, dst, 0, 0] = head + 1
        self._ring_doorbell(dst)
        slab = m._slab_view(rank, dst)
        byte_head = self._my_byte_head[dst]
        size = self._slab_bytes
        for part in parts:
            pv = memoryview(part).cast("B")
            sent = 0
            while sent < len(pv):
                # Space = ring size minus unconsumed bytes.
                def _free() -> int:
                    return size - (byte_head - int(self._ctr[rank, dst, 1, 1]))

                self._wait_until(lambda: _free() > 0, on_wait, progress)
                avail = _free()
                pos = byte_head % size
                chunk = min(len(pv) - sent, avail, size - pos)
                slab[pos : pos + chunk] = pv[sent : sent + chunk]
                sent += chunk
                byte_head += chunk
                self._ctr[rank, dst, 0, 1] = byte_head  # publish bytes
                self._ring_doorbell(dst)
        self._my_byte_head[dst] = byte_head

    def _ring_doorbell(self, dst: int) -> None:
        if self._flags[dst] and self.matrix.doorbells:
            self.matrix.doorbells[dst].ring()

    # ------------------------------------------------------------ recv
    def poll(self) -> RingRecord | None:
        """Pop the next available record from any source, or ``None``.

        Scans sources round-robin from the last served rank so no pair
        starves.  Popping a slab record drains its full payload from
        the slab ring (blocking on the producer if it is still
        streaming) — including any drain the non-blocking
        :meth:`progress` path left partial.
        """
        rank = self.rank
        for i in range(self.nprocs):
            src = (self._rr + i) % self.nprocs
            if src == rank:
                continue
            if src in self._partials:
                self._rr = (src + 1) % self.nprocs
                rec, _ = self._drain_partial(src, block=True)
                return rec
            tail = self._my_slot_tail[src]
            if int(self._ctr[src, rank, 0, 0]) > tail:
                self._rr = (src + 1) % self.nprocs
                return self._pop(src, tail)
        return None

    def progress(self) -> "RingRecord | bool":
        """One bounded, **non-blocking** step of incoming consumption.

        The cooperative-backpressure hook for a blocked send: returns a
        complete :class:`RingRecord` if one could be consumed without
        waiting, ``True`` if partial progress was made (slab bytes
        drained or a new drain started — producer space was freed), and
        ``False`` if there was nothing to do.  Never waits on a
        producer: the caller *is* a suspended producer, and blocking
        here would rebuild the very send-send cycle this hook breaks.
        """
        rank = self.rank
        made = False
        for i in range(self.nprocs):
            src = (self._rr + i) % self.nprocs
            if src == rank:
                continue
            if src in self._partials:
                rec, moved = self._drain_partial(src, block=False)
                if rec is not None:
                    self._rr = (src + 1) % self.nprocs
                    return rec
                made = made or moved
                continue
            tail = self._my_slot_tail[src]
            if int(self._ctr[src, rank, 0, 0]) > tail:
                rec = self._pop(src, tail, block=False)
                if rec is not None:
                    self._rr = (src + 1) % self.nprocs
                    return rec
                made = True  # started a partial drain
        return made

    def _pop(self, src: int, tail: int, block: bool = True) -> RingRecord | None:
        m = self.matrix
        rank = self.rank
        slot = m._slot_view(src, rank, tail % self._nslots)
        epoch, op_id, tag, kind, wire, flags, words, nbytes, clock = (
            RECORD.unpack_from(slot, 0)
        )
        # Free the slot before draining any slab payload: the header is
        # copied out, and the producer cannot reuse the slot until after
        # it finishes streaming this very payload (sends are sequential
        # per pair), so early release is safe and lets an nslots-deep
        # pipeline refill sooner.
        self._my_slot_tail[src] = tail + 1
        self._ctr[src, rank, 1, 0] = tail + 1
        if flags & _F_SLAB:
            self._partials[src] = [
                (epoch, op_id, tag, kind, wire, words, clock),
                bytearray(nbytes), 0,
            ]
            rec, _ = self._drain_partial(src, block=block)
            return rec
        # bytearray, not bytes: decoded numpy views over the payload
        # stay writable, like an unpickled queue-transport copy.
        data = bytearray(slot[RECORD.size : RECORD.size + nbytes])
        return RingRecord(src, epoch, op_id, tag, kind, wire, words,
                          nbytes, clock, data)

    def _drain_partial(self, src: int, block: bool) -> tuple[RingRecord | None, bool]:
        """Advance the in-progress slab drain for ``src``.

        Returns ``(record, moved)``: the completed record (and the
        partial state retired), or ``None`` with ``moved`` telling
        whether any bytes were drained.  ``block=True`` waits for the
        producer to finish streaming; ``block=False`` (the send-side
        progress hook) drains only what is already published.
        """
        rank = self.rank
        state = self._partials[src]
        hdr, out, got = state
        nbytes = len(out)
        slab = self.matrix._slab_view(src, rank)
        size = self._slab_bytes
        byte_tail = self._my_byte_tail[src]
        moved = False
        while got < nbytes:
            avail = int(self._ctr[src, rank, 0, 1]) - byte_tail
            if avail <= 0:
                if not block:
                    break
                self._wait_until(
                    lambda: int(self._ctr[src, rank, 0, 1]) > byte_tail, None
                )
                continue
            pos = byte_tail % size
            chunk = min(nbytes - got, avail, size - pos)
            out[got : got + chunk] = slab[pos : pos + chunk]
            got += chunk
            byte_tail += chunk
            self._ctr[src, rank, 1, 1] = byte_tail  # open space for producer
            moved = True
        self._my_byte_tail[src] = byte_tail
        if got < nbytes:
            state[2] = got
            return None, moved
        del self._partials[src]
        epoch, op_id, tag, kind, wire, words, clock = hdr
        return RingRecord(src, epoch, op_id, tag, kind, wire, words,
                          nbytes, clock, out), moved

    def wait(self, *, deadline: float | None = None, on_block=None) -> RingRecord | None:
        """Block until a record arrives; ``None`` only on deadline expiry.

        ``on_block`` is invoked once when the endpoint transitions from
        polling to blocking (used by chaos injection's ``ring_wait``
        phase and by profiling).
        """
        rec = self.poll()
        if rec is not None:
            return rec
        for _ in range(_SPINS):
            rec = self.poll()
            if rec is not None:
                return rec
        blocked = False
        yields = 0
        bells = self.matrix.doorbells
        bell = bells[self.rank] if bells else None
        while True:
            rec = self.poll()
            if rec is not None:
                if blocked:
                    self._flags[self.rank] = 0
                return rec
            if deadline is not None and time.monotonic() >= deadline:
                if blocked:
                    self._flags[self.rank] = 0
                return None
            if not blocked and on_block is not None:
                on_block()
            blocked = True
            if yields < _YIELDS:
                yields += 1
                os.sched_yield()
                continue
            if bell is None:
                time.sleep(0.0005)
                continue
            # Doorbell protocol: announce, re-check, then block bounded.
            self._flags[self.rank] = 1
            rec = self.poll()
            if rec is not None:
                self._flags[self.rank] = 0
                return rec
            slice_ = _DOORBELL_SLICE
            if deadline is not None:
                slice_ = min(slice_, max(deadline - time.monotonic(), 0.0))
            bell.wait(slice_)
            self._flags[self.rank] = 0

    def _release(self) -> None:
        """Drop shm views so the matrix buffer can be closed."""
        self._ctr = self._flags = None

    # ------------------------------------------------------------ util
    def _wait_until(self, cond, on_wait, progress=None) -> None:
        if cond():
            return
        if on_wait is not None:
            on_wait()
        spins = 0
        while not cond():
            if progress is not None and progress():
                # We consumed incoming traffic: a peer blocked sending
                # to us can now advance (and eventually drain *our*
                # ring), so re-check immediately without backing off.
                continue
            if spins < _SPINS:
                spins += 1
            elif spins < _SPINS + _YIELDS:
                spins += 1
                os.sched_yield()
            else:
                time.sleep(0.0002)
