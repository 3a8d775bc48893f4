"""The execution-backend seam: one program, pluggable machines.

Every phase of the Bae–Ranka algorithm — local scan, dimension-by-dimension
prefix-reduction-sum, many-to-many redistribution — is written once as an
SPMD generator program against :class:`~repro.machine.context.Context`.
A :class:`Backend` decides *where* those programs execute:

* :class:`~repro.runtime.sim.SimBackend` — the deterministic cooperative
  simulator (:class:`~repro.machine.engine.Machine`), charging the paper's
  two-level cost model.  Times are **simulated** CM-5-scale seconds, and a
  run is bit-for-bit reproducible.
* :class:`~repro.runtime.mp.MpBackend` — one OS process per rank over
  ``multiprocessing``, with shared-memory-backed input arrays and
  shm-ring or queue message transport, forked afresh for every op.
  Times are **wall** seconds measured on the host's cores.
* :class:`~repro.runtime.supervisor.GangSupervisor` — the same rank
  processes kept as a warm gang across ops, with heartbeat supervision,
  retry on a rebuilt gang and fallback to the simulator.

The two process-per-rank backends share one set of gang plumbing
(:mod:`repro.runtime.gang`): rank body, result collection with failure
classification, reap, argument check and result assembly.  Only how an
op reaches the ranks differs — inherited at fork, or shipped to a warm
gang.

Every backend runs the *same* program source: the cooperative yield
protocol (``yield ctx.recv(...)``, ``yield CollectiveOp(...)``) doubles as
the transport-neutral op language, so the backend boundary sits exactly
between the redistribution plan and the transport that executes it.

Rank-argument construction goes through ``make_rank_args(rank, shared)``
rather than a pre-built list: the host hands the backend the *global*
arrays once (``shared``), and each rank extracts only the blocks it owns
(:meth:`~repro.hpf.grid.GridLayout.local_block`).  Under the simulator
this is the same lazy view-slicing as before; under the multiprocessing
backend it is what keeps the per-rank block extraction inside the rank's
own process — the host never pickles ``P`` blocks through a pipe.
"""

from __future__ import annotations

import os
import platform
import time
import warnings
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..machine.stats import RunResult

__all__ = [
    "Backend",
    "BackendError",
    "BACKEND_NAMES",
    "Deadline",
    "TRANSPORT_NAMES",
    "get_backend",
    "available_backends",
    "default_transport",
    "resolve_transport",
]

#: Registered backend names, in preference order.
BACKEND_NAMES = ("sim", "mp", "supervised")

#: Message transports accepted by the process-per-rank backends.
#: ``ring`` is the zero-copy shared-memory ring matrix
#: (:mod:`repro.runtime.shm_ring`); ``queue`` is the original pickled
#: ``multiprocessing.Queue`` mailbox per rank.
TRANSPORT_NAMES = ("queue", "ring")

#: Architectures with a total-store-order memory model, where the ring
#: transport's plain-store head publication (payload bytes first, then
#: the int64 sequence counter) is safe without explicit barriers.  On
#: weakly-ordered CPUs (aarch64, ppc64le, riscv64) store-store
#: reordering could let a consumer observe the advanced head before the
#: payload is visible, so the default transport there is ``queue``.
_TSO_MACHINES = frozenset(
    {"x86_64", "amd64", "i386", "i486", "i586", "i686", "x86"}
)


def _ring_memory_model_safe() -> bool:
    return platform.machine().lower() in _TSO_MACHINES


def default_transport() -> str:
    """The platform default: ``ring`` on x86 (TSO), ``queue`` elsewhere."""
    return "ring" if _ring_memory_model_safe() else "queue"


def resolve_transport(transport: str | None) -> str:
    """Resolve a transport name.

    Explicit arg > ``REPRO_MP_TRANSPORT`` > :func:`default_transport`
    (``ring`` on x86, ``queue`` on weakly-ordered architectures — see
    :data:`_TSO_MACHINES`).  Forcing ``ring`` on a non-TSO machine is
    allowed for experiments but warns: the ring's lock-free publication
    relies on total store order.
    """
    if transport is None:
        transport = os.environ.get("REPRO_MP_TRANSPORT", default_transport())
    if transport not in TRANSPORT_NAMES:
        raise ValueError(
            f"unknown transport {transport!r}; pick from {TRANSPORT_NAMES}"
        )
    if transport == "ring" and not _ring_memory_model_safe():
        warnings.warn(
            f"the ring transport's lock-free head publication assumes a "
            f"total-store-order memory model; {platform.machine()} is "
            f"weakly-ordered and records may be observed before their "
            f"payload bytes — use transport='queue' for correctness",
            RuntimeWarning,
            stacklevel=2,
        )
    return transport


class Deadline:
    """One wall-clock deadline for a wait on a gang
    (:meth:`repro.runtime.gang._Gang.collect`), with the watchdog
    attribution (which ranks are still pending, how long we waited) an
    overrun reports.

    A ``timeout`` of ``None`` never expires.
    """

    __slots__ = ("timeout", "_expiry")

    def __init__(self, timeout: float | None):
        self.timeout = timeout
        self._expiry = None if timeout is None else time.monotonic() + timeout

    def expired(self) -> bool:
        return self._expiry is not None and time.monotonic() >= self._expiry

    def remaining(self, cap: float | None = None) -> float | None:
        """Seconds to block on the next wait: the time left, at most
        ``cap`` (``None``: unbounded)."""
        if self._expiry is None:
            return cap
        left = max(0.0, self._expiry - time.monotonic())
        return left if cap is None else min(cap, left)

    def describe(self, subject: str, pending: Iterable[int]) -> str:
        """Watchdog attribution line for an expired deadline."""
        return (
            f"{subject} did not finish within {self.timeout:g}s "
            f"(ranks still pending: {sorted(pending)})"
        )


class BackendError(RuntimeError):
    """A backend could not run the gang (unsupported feature, bad config)."""


def check_rank_args(nprocs: int, make_rank_args, rank_args) -> None:
    """Reject a gang width and per-rank arguments no backend can run."""
    if make_rank_args is not None and rank_args is not None:
        raise ValueError("pass make_rank_args or rank_args, not both")
    if rank_args is not None and len(rank_args) != nprocs:
        raise ValueError(
            f"rank_args has {len(rank_args)} entries for {nprocs} ranks"
        )
    if nprocs < 1:
        raise ValueError(f"need at least one processor, got {nprocs}")


class Backend(ABC):
    """Abstract execution backend.

    Concrete backends expose the classic SPMD primitive set — barrier,
    send/recv message passing, combining collectives (allreduce /
    exclusive prefix sum via :mod:`repro.runtime.primitives`), and the
    many-to-many ``alltoallv`` (:func:`repro.machine.m2m.exchange`) — by
    executing generator programs that use those primitives through their
    per-rank :class:`~repro.machine.context.Context`.

    Attributes
    ----------
    name:
        short registry name (``"sim"``, ``"mp"``).
    time_domain:
        the domain of every time this backend reports: ``"simulated"``
        or ``"wall"``.  Copied onto the :class:`RunResult`.
    supports_faults:
        whether seeded :class:`~repro.faults.FaultPlan` injection is
        available.  Fault injection intercepts the *simulated* delivery
        path, so only the simulator supports it.
    supports_reliability:
        whether the reliable transport (auto-ack retransmit loop) is
        available; it needs the engine's NIC-level acks, so again only
        the simulator supports it.
    """

    name: str = "?"
    time_domain: str = "simulated"
    supports_faults: bool = False
    supports_reliability: bool = False

    @abstractmethod
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
        """Execute ``program`` on every rank and return results and stats.

        Exactly one of ``make_rank_args`` / ``rank_args`` supplies the
        per-rank arguments (neither means every rank gets no arguments).
        ``make_rank_args(rank, shared)`` is called once per rank — in the
        rank's own process under process-per-rank backends — with
        ``shared`` the host-provided mapping of global (read-only) arrays.

        ``profile`` is an optional
        :class:`~repro.obs.runtime.RuntimeProfiler`: after the run it
        holds a cross-rank :class:`~repro.obs.runtime.RunProfile` (per-rank
        trace lanes, P×P communication matrix, phase-attribution table) in
        the backend's own time domain.  Profiles from different domains
        refuse to be compared, like the run aggregation helpers.
        """

    # ------------------------------------------------------------- helpers
    def reject_unsupported(self, faults=None, reliability=None) -> None:
        """Raise :class:`BackendError` for simulator-only features."""
        if faults is not None and not self.supports_faults:
            raise BackendError(
                f"backend {self.name!r} does not support fault injection; "
                f"FaultPlan intercepts the simulated network — use backend='sim'"
            )
        if reliability is not None and reliability is not False and not self.supports_reliability:
            # The mp transport is an OS pipe: already reliable, and the
            # retransmit machinery needs the engine's NIC auto-acks.
            raise BackendError(
                f"backend {self.name!r} does not support the reliable "
                f"transport (its pipes are already reliable); use "
                f"backend='sim' for reliability experiments"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(time_domain={self.time_domain!r})"


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` (and the CLI ``--backend``)."""
    return BACKEND_NAMES


def get_backend(backend: "str | Backend" = "sim") -> Backend:
    """Resolve a backend name (or pass an instance through).

    ``"sim"`` → :class:`~repro.runtime.sim.SimBackend` (default, the seed
    behaviour); ``"mp"`` → :class:`~repro.runtime.mp.MpBackend`;
    ``"supervised"`` → the process-wide persistent
    :class:`~repro.runtime.supervisor.GangSupervisor` (one shared warm
    gang, reused across calls and shut down atexit — see
    :func:`~repro.runtime.supervisor.default_supervisor`).
    """
    if isinstance(backend, Backend):
        return backend
    if backend == "sim":
        from .sim import SimBackend

        return SimBackend()
    if backend == "mp":
        from .mp import MpBackend

        return MpBackend()
    if backend == "supervised":
        from .supervisor import default_supervisor

        return default_supervisor()
    raise ValueError(
        f"unknown backend {backend!r}; pick from {list(BACKEND_NAMES)}"
    )
