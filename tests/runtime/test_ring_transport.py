"""Ring transport integration: bit-equality, conformance corpus, chaos.

The platform picks the mp transport (ring on x86, queue on
weakly-ordered CPUs) and these tests reach each one by faking the
platform (``fake_platform`` in ``conftest.py``).  The ring must be
invisible to results: every configuration that passes on the queue
transport (and on the simulator, and against the serial oracle) must
produce bit-identical output over the rings, at P=2 and P=4, on either
side of the wire codec's SSS/CMS crossover.  And a SIGKILL delivered
while a rank is blocked in a ring wait must classify as ``rank_death``
and recover under the supervisor — never deadlock the gang.
"""

import os
import pickle
import platform
import time
import warnings

import numpy as np
import pytest

import repro.runtime.mp as mp_module
from repro.codecs.wire import (W_PAIR_CMS, W_PAIR_SSS, W_PICKLE,
                               encode_payload, pair_runs)
from repro.conformance import replay_corpus
from repro.core.api import pack, unpack
from repro.core.messages import PairMessage
from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.machine import MachineSpec
from repro.obs import RuntimeProfiler
from repro.runtime import GangSupervisor, MpBackend, RetryPolicy
from repro.serve import ServeConfig
from repro.serve.engine import ExecutionEngine

from .conftest import fake_platform

TRANSPORTS = ("queue", "ring")

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")
CORPUS = "tests/conformance/corpus"

FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.05,
                         jitter=0.0, seed=0)


def _workload(n=96, density=0.5, seed=3):
    rng = np.random.default_rng(seed)
    return rng.random(n), rng.random(n) < density


def _force_pair_wire(msg, form):
    """Encode a PairMessage in one wire form, whatever its run lengths.

    An SSS pair message is the framed ranks then the framed values, a
    CMS one the framed run bases, run counts and values — each array
    framed as ``encode_payload`` frames a lone ndarray.
    """
    if form == "pickle":
        data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        return W_PICKLE, [data], len(data)
    if form == "sss":
        kind, arrays = W_PAIR_SSS, (msg.ranks, msg.values)
    else:
        kind, arrays = W_PAIR_CMS, (*pair_runs(msg.ranks), msg.values)
    parts, nbytes = [], 0
    for arr in arrays:
        _, p, n = encode_payload(arr)
        parts += p
        nbytes += n
    return kind, parts, nbytes


class TestTransportResolution:
    def test_default_is_ring(self, monkeypatch):
        monkeypatch.setattr(platform, "machine", lambda: "x86_64")
        assert MpBackend().transport == "ring"

    def test_weakly_ordered_platform_defaults_to_queue(self, monkeypatch):
        # The ring's lock-free head publication assumes total store
        # order; off x86 the safe queue transport is the only choice.
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
        assert MpBackend().transport == "queue"
        assert GangSupervisor().transport == "queue"

    def test_no_warning_on_tso_platform(self, monkeypatch):
        monkeypatch.setattr(platform, "machine", lambda: "x86_64")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert MpBackend().transport == "ring"
            assert GangSupervisor().transport == "ring"

    def test_unknown_rejected(self):
        # The platform chooses the wire: naming a transport or a codec
        # is not an option the constructors accept.
        for make in (MpBackend, GangSupervisor, ExecutionEngine, ServeConfig):
            with pytest.raises(TypeError, match="transport"):
                make(transport="queue")
        for make in (MpBackend, GangSupervisor):
            with pytest.raises(TypeError, match="codec"):
                make(codec="auto")

    def test_transport_is_read_only(self):
        with pytest.raises(AttributeError):
            MpBackend().transport = "queue"
        with pytest.raises(AttributeError):
            GangSupervisor().transport = "queue"

    @pytest.mark.parametrize("machine, expected", [
        ("aarch64", "queue"), ("x86_64", "ring"),
    ])
    @pytest.mark.parametrize("make", [MpBackend, GangSupervisor],
                             ids=["mp", "supervised"])
    def test_platform_picks_the_wire_a_run_uses(self, monkeypatch, make,
                                                machine, expected):
        # The run itself, not just the label: only the chosen wire's
        # send phase accrues time, and the comm matrix must conserve
        # messages over it.
        monkeypatch.setattr(platform, "machine", lambda: machine)
        array, mask = _workload()
        backend = make(timeout=120)
        try:
            prof = RuntimeProfiler()
            res = pack(array, mask, grid=(2,), spec=SPEC, validate=True,
                       backend=backend, profile=prof)
        finally:
            if isinstance(backend, GangSupervisor):
                backend.close()
        np.testing.assert_array_equal(res.vector, array[mask])
        phases = prof.profile.phase_seconds
        other = "queue" if expected == "ring" else "ring"
        assert prof.profile.transport == expected
        assert phases[f"{expected}_send"] > 0
        assert phases[f"{other}_send"] == 0
        prof.profile.validate_conservation()


class TestBitEquality:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_ring_equals_queue_equals_sim(self, nprocs, monkeypatch):
        array, mask = _workload()
        sim = pack(array, mask, grid=(nprocs,), spec=SPEC, validate=False,
                   backend="sim")
        by_transport = {}
        for t in TRANSPORTS:
            fake_platform(monkeypatch, t)
            backend = MpBackend(timeout=120)
            assert backend.transport == t
            by_transport[t] = pack(array, mask, grid=(nprocs,), spec=SPEC,
                                   validate=False, backend=backend)
        for t, res in by_transport.items():
            np.testing.assert_array_equal(res.vector, sim.vector, err_msg=t)
            assert res.vector.dtype == sim.vector.dtype

    @pytest.mark.parametrize("codec", ["auto", "sss", "cms", "pickle"])
    def test_every_codec_mode_is_bit_identical(self, codec, ring,
                                               monkeypatch, tmp_path):
        # ``auto`` is the wire as the runtime ships it: the codec picks
        # SSS or CMS per pair message (the byte-level beta_2 crossover),
        # and this workload's messages land on both sides — one- and
        # two-element messages go SSS, long runs go CMS.  The other
        # modes force every pair message into one wire form, which the
        # decoder must accept whatever the encoder would have picked.
        # A spy in the ranks records every wire kind sent; the result
        # must match the simulator in every mode.
        kinds_file = tmp_path / "wire_kinds"

        def spy(payload):
            if codec == "auto" or not isinstance(payload, PairMessage):
                kind, parts, nbytes = encode_payload(payload)
            else:
                kind, parts, nbytes = _force_pair_wire(payload, codec)
            fd = os.open(kinds_file, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, bytes([kind]))
            finally:
                os.close(fd)
            return kind, parts, nbytes

        monkeypatch.setattr(mp_module, "encode_payload", spy)
        array, mask = _workload(seed=11)
        sim = pack(array, mask, grid=(4,), scheme="sss", spec=SPEC,
                   validate=False, backend="sim")
        mp = pack(array, mask, grid=(4,), scheme="sss", spec=SPEC,
                  validate=False, backend=MpBackend(timeout=120))
        np.testing.assert_array_equal(mp.vector, sim.vector)
        kinds = set(kinds_file.read_bytes())
        if codec == "auto":
            assert {W_PAIR_SSS, W_PAIR_CMS} <= kinds
        else:
            forced = {"sss": W_PAIR_SSS, "cms": W_PAIR_CMS,
                      "pickle": W_PICKLE}[codec]
            assert forced in kinds
            assert not kinds & ({W_PAIR_SSS, W_PAIR_CMS} - {forced})

    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_unpack_roundtrip_over_ring(self, nprocs, ring):
        array, mask = _workload(seed=23)
        backend = MpBackend(timeout=120)
        packed = pack(array, mask, grid=(nprocs,), spec=SPEC, validate=True,
                      backend=backend)
        restored = unpack(packed.vector, mask, array, grid=(nprocs,),
                          scheme="css", spec=SPEC, validate=True,
                          backend=backend)
        np.testing.assert_array_equal(restored.array, array)


class TestConformanceCorpus:
    def test_corpus_replays_clean_over_tiny_rings(self, ring, tiny_rings):
        # The corpus entries fix their own grids (P=2, 4, and 8 among
        # them); what we vary here is the transport geometry — tiny
        # rings force wraparound and slab spill on real corpus traffic.
        failures = [
            (path.name, outcome.detail)
            for path, _bug, outcome in replay_corpus(CORPUS, backend="mp")
            if not outcome.ok
        ]
        assert failures == []


def _eager_exchange_prog(ctx, n):
    # Every rank fires all of its sends before receiving anything — the
    # pattern alltoallv_native uses.  With payloads far larger than the
    # slab ring, every pair hits slab backpressure mid-send; only the
    # cooperative drain (a blocked send consuming its own incoming
    # rings) lets the cycle complete.
    data = np.full(n, float(ctx.rank), dtype=np.float64)
    for k in range(1, ctx.size):
        ctx.send((ctx.rank + k) % ctx.size, data, words=n, tag=7)
    total = 0.0
    for _ in range(ctx.size - 1):
        msg = yield ctx.recv(tag=7)
        total += float(np.asarray(msg.payload).sum())
    return total


class TestSendBackpressure:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_all_sends_before_any_recv_exceeding_slab(self, nprocs, ring,
                                                      tiny_rings):
        # Every per-pair payload (32 KiB) dwarfs the slab ring (256 B),
        # and every rank is mid-send at once.  The timeout bounds a
        # regression to a clean MpGangError instead of a hung gang.
        n = 4096
        run = MpBackend(timeout=120).run_spmd(
            _eager_exchange_prog, nprocs, rank_args=[(n,)] * nprocs
        )
        expected = [
            float(sum(n * s for s in range(nprocs) if s != me))
            for me in range(nprocs)
        ]
        assert run.results == expected


def _mutate_recv_prog(ctx):
    if ctx.rank == 0:
        ctx.send(1, np.arange(4, dtype=np.float64), words=4, tag=3)
        return 0.0
    msg = yield ctx.recv(0, 3)
    msg.payload[:] *= 2.0  # received payloads are writable on every transport
    return float(msg.payload.sum())


def _self_send_mutate_prog(ctx):
    a = np.arange(4, dtype=np.float64)
    ctx.send(ctx.rank, a, words=4, tag=2)
    a[:] = -1.0  # mutate-after-send must never reach the receiver
    msg = yield ctx.recv(ctx.rank, 2)
    msg.payload[0] += 1.0  # and the copy is writable
    return float(np.asarray(msg.payload).sum())


class TestReceiveContract:
    def test_received_payloads_are_writable(self, transport):
        run = MpBackend(timeout=60).run_spmd(
            _mutate_recv_prog, 2
        )
        assert run.results == [0.0, 12.0]

    def test_self_send_delivers_an_independent_copy(self, transport):
        run = MpBackend(timeout=60).run_spmd(
            _self_send_mutate_prog, 1
        )
        assert run.results == [7.0]


def _late_send_prog(ctx):
    # Rank 1 blocks in a ring wait; rank 0 sleeps in real wall time
    # first, so the kill fires while rank 1 is parked on its doorbell.
    if ctx.rank == 0:
        time.sleep(0.3)
        ctx.send(1, np.arange(4, dtype=np.int64), words=4, tag=5)
        return 0
    msg = yield ctx.recv(0, 5)
    return int(np.asarray(msg.payload).sum())


class TestChaosRingWait:
    def test_sigkill_mid_ring_wait_recovers_not_deadlocks(self, ring):
        plan = ChaosPlan(events=(
            ChaosEvent(kind="kill", rank=1, op_index=0, phase="ring_wait"),
        ))
        sup = GangSupervisor(timeout=60, retry=FAST_RETRY, chaos=plan)
        assert sup.transport == "ring"
        with sup:
            run = sup.run_spmd(_late_send_prog, 2, spec=SPEC)
            assert run.results == [0, 6]
            assert sup.stats.failures.get("rank_death", 0) >= 1
            assert sup.stats.retries >= 1
            assert sup.stats.rebuilds >= 1

    def test_ring_wait_phase_never_fires_on_queue_transport(self,
                                                             monkeypatch):
        # The same plan on the queue transport must be a no-op: the op
        # completes first try, no retries.
        fake_platform(monkeypatch, "queue")
        plan = ChaosPlan(events=(
            ChaosEvent(kind="kill", rank=1, op_index=0, phase="ring_wait"),
        ))
        sup = GangSupervisor(timeout=60, retry=FAST_RETRY, chaos=plan)
        assert sup.transport == "queue"
        with sup:
            run = sup.run_spmd(_late_send_prog, 2, spec=SPEC)
            assert run.results == [0, 6]
            assert sup.stats.retries == 0
