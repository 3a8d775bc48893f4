"""Shared fixtures for the runtime suite: the mp leak check.

Every test in this directory runs under an autouse fixture asserting
that it left behind **zero** gang children, **zero** POSIX shared-memory
segments (``/dev/shm/psm_*``) and **zero** named semaphores
(``/dev/shm/sem.*`` — each ``multiprocessing.Queue`` owns several; a
leaked queue is a leaked semaphore).  The default supervisor gang is
shut down between tests, so ``backend="supervised"`` may be used freely
without tripping the child check.

Semaphores are unlinked when their queue is garbage-collected, so the
comparison retries with ``gc.collect()`` for a few seconds before
declaring a leak — CPython frees them promptly, but not synchronously
with test teardown.
"""

import gc
import multiprocessing
import os
import time

import pytest

SHM_DIR = "/dev/shm"
#: Entry prefixes owned by multiprocessing: shm segments and semaphores.
SHM_PREFIXES = ("psm_", "sem.")


def shm_entries():
    """Current multiprocessing-owned /dev/shm entries (segments + sems)."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-POSIX hosts
        return set()
    return {f for f in os.listdir(SHM_DIR) if f.startswith(SHM_PREFIXES)}


# Back-compat aliases for tests that check segments mid-test.
def _shm_segments():
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-POSIX hosts
        return set()
    return {f for f in os.listdir(SHM_DIR) if f.startswith("psm_")}


def live_gang():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-mp-rank-")]


def settle(deadline=5.0):
    """Give just-terminated children a moment to be reaped."""
    t0 = time.monotonic()
    while live_gang() and time.monotonic() - t0 < deadline:
        time.sleep(0.02)


def assert_no_leaks(before, deadline=5.0):
    """Assert /dev/shm is back to ``before``, retrying while gc settles."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if shm_entries() <= before:
            return
        gc.collect()
        time.sleep(0.05)
    leaked = shm_entries() - before
    assert not leaked, f"leaked /dev/shm entries: {sorted(leaked)}"


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test must leave zero gang children, segments and semaphores."""
    before = shm_entries()
    yield
    # The default supervisor keeps a warm gang alive by design; reap it
    # so the child/semaphore checks are deterministic per test.
    from repro.runtime.supervisor import shutdown_default_supervisor

    shutdown_default_supervisor()
    settle()
    assert live_gang() == []
    assert_no_leaks(before)


def fake_platform(monkeypatch, transport):
    """Make the mp backends built from here on run over ``transport``.

    The platform's TSO check (``base._ring_memory_model_safe``) is the
    only thing that picks ring or queue, and backends read it in the
    host before forking, so faking it reaches the queue on x86 (and the
    ring on a weakly-ordered host).
    """
    monkeypatch.setattr("repro.runtime.base._ring_memory_model_safe",
                        lambda: transport == "ring")


@pytest.fixture(params=["queue", "ring"])
def transport(request, monkeypatch):
    """Run the test once over each mp transport; yields its name."""
    fake_platform(monkeypatch, request.param)
    return request.param


@pytest.fixture
def ring(monkeypatch):
    """Run the test over the ring transport, whatever the host."""
    fake_platform(monkeypatch, "ring")


@pytest.fixture
def tiny_rings(monkeypatch):
    """Build every gang's ring matrix tiny (4 x 128 B slots, 256 B slab),
    forcing wraparound and slab spill on ordinary traffic."""
    from repro.runtime import shm_ring

    monkeypatch.setattr(shm_ring, "_DEFAULT_CONFIG", shm_ring.RingConfig(
        nslots=4, slot_bytes=128, slab_bytes=256))
