"""Host-level convenience API.

These functions hide the SPMD machinery: they build the layout, hand the
global arrays to an execution backend (each rank slices out only the
blocks it owns), run the program on every rank, gather the result, and
(optionally) validate it against the serial numpy oracle.  They return
rich result objects carrying per-phase times — simulated seconds under
the default ``backend="sim"``, real wall seconds under ``backend="mp"``
or ``backend="supervised"`` (a persistent, fault-tolerant mp gang; see
:mod:`repro.runtime`).

For writing custom SPMD programs against the library, use the lower-level
generators in :mod:`repro.core.pack` / :mod:`repro.core.unpack` /
:mod:`repro.core.ranking` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ..hpf.grid import GridLayout
from ..machine.spec import CM5, MachineSpec
from ..machine.stats import RunResult, same_time_domain
from ..obs.profiler import PhaseProfiler, RunReport, build_run_report
from ..runtime.base import get_backend
from ..serial.reference import mask_ranks, pack_reference, unpack_reference
from .pack import pack_program, result_vector_layout
from .plan import (
    ChargeRecorder,
    Plan,
    RankingRankPlan,
    plan_key,
    replay_charges,
)
from .plan_cache import resolve_plan_cache
from .ranking import ranking_phase_names, ranking_program
from .redistribution import pack_red1_program, pack_red2_program
from .schemes import PackConfig, Scheme
from .unpack import input_vector_layout, unpack_program

__all__ = [
    "PackResult",
    "UnpackResult",
    "RankingResult",
    "pack",
    "unpack",
    "ranking",
    "aggregate_time",
]

#: Phase-name fragments counted as communication rather than local work.
_COMM_FRAGMENTS = (".prs.", ".comm", ".red.comm", ".red.array", ".red.mask")


def aggregate_time(
    run: RunResult | Iterable[RunResult], kind: str = "total"
) -> float:
    """Paper-style time aggregates over a run (or runs), in seconds.

    ``kind``:

    * ``"total"`` — max final clock (the measured wall time);
    * ``"local"`` — max over ranks of local-computation phase time: every
      phase except the prefix-reduction-sum and the many-to-many /
      redistribution communication (matches the paper's "local
      computation" measurement, which explicitly excludes PRS);
    * ``"prs"`` — the prefix-reduction-sum phases;
    * ``"m2m"`` — the many-to-many personalized communication phases.

    A sequence of runs is summed — but only after
    :func:`~repro.machine.stats.same_time_domain` confirms they share one
    time domain.  Adding a simulated CM-5 clock to a wall clock measured
    by the multiprocessing backend raises
    :class:`~repro.machine.errors.TimeDomainError` instead of producing a
    meaningless number.
    """
    if not isinstance(run, RunResult):
        runs = tuple(run)
        same_time_domain(runs)
        return sum(aggregate_time(r, kind) for r in runs)
    if kind == "total":
        return run.elapsed

    def is_comm(name: str) -> bool:
        return any(f in name for f in _COMM_FRAGMENTS)

    def is_prs(name: str) -> bool:
        return ".prs." in name

    def is_m2m(name: str) -> bool:
        return name.endswith(".comm") or ".comm." in name or ".red.comm" in name

    best = 0.0
    for s in run.stats:
        total = 0.0
        for name, t in s.phase_times.items():
            if kind == "local" and not is_comm(name):
                total += t
            elif kind == "prs" and is_prs(name):
                total += t
            elif kind == "m2m" and is_m2m(name):
                total += t
        best = max(best, total)
    return best


@dataclass
class _TimedResult:
    """Shared timing and reporting accessors for result objects.

    ``tracer`` / ``metrics`` hold the observers the run was instrumented
    with (``None`` for plain runs); :meth:`report` always works — an
    uninstrumented run simply yields a report without traffic matrix or
    metrics snapshot.
    """

    run: RunResult = field(repr=False)
    tracer: object = field(default=None, repr=False)
    metrics: object = field(default=None, repr=False)
    _op: str = field(default="run", repr=False)
    _spec_name: str = field(default="?", repr=False)
    #: Plan-cache outcome of this call (``{"cache": "hit"|"miss"|"off",
    #: "compile_ms", "fingerprint", "plan_bytes"}``) when a ``plan_cache``
    #: was requested; ``None`` for plain calls.
    plan_info: dict | None = field(default=None, repr=False)

    def report(self) -> RunReport:
        """Structured :class:`~repro.obs.profiler.RunReport` of this run —
        per-phase wall times, traffic matrix (when traced), collective
        counts and the metrics snapshot — without touching simulator
        internals."""
        return build_run_report(
            self.run,
            tracer=self.tracer,
            metrics=self.metrics,
            op=self._op,
            spec=self._spec_name,
            plan=self.plan_info,
        )

    @property
    def time_domain(self) -> str:
        """``"simulated"`` or ``"wall"``, from the backend that ran this."""
        return self.run.time_domain

    @property
    def total_ms(self) -> float:
        return aggregate_time(self.run, "total") * 1e3

    @property
    def local_ms(self) -> float:
        return aggregate_time(self.run, "local") * 1e3

    @property
    def prs_ms(self) -> float:
        return aggregate_time(self.run, "prs") * 1e3

    @property
    def m2m_ms(self) -> float:
        return aggregate_time(self.run, "m2m") * 1e3

    @property
    def times(self) -> dict[str, float]:
        """Per-phase wall times in milliseconds."""
        return {k: v * 1e3 for k, v in self.run.phase_breakdown().items()}


@dataclass
class PackResult(_TimedResult):
    """Outcome of a host-level :func:`pack` call."""

    vector: np.ndarray = field(default=None)
    size: int = 0
    scheme: Scheme = Scheme.CMS
    layout: GridLayout = field(default=None, repr=False)
    total_words: int = 0

    def __str__(self) -> str:
        return (
            f"PackResult(size={self.size}, scheme={self.scheme.value}, "
            f"total={self.total_ms:.3f} ms, local={self.local_ms:.3f} ms)"
        )


@dataclass
class UnpackResult(_TimedResult):
    """Outcome of a host-level :func:`unpack` call."""

    array: np.ndarray = field(default=None)
    size: int = 0
    scheme: Scheme = Scheme.CSS
    layout: GridLayout = field(default=None, repr=False)

    def __str__(self) -> str:
        return (
            f"UnpackResult(size={self.size}, scheme={self.scheme.value}, "
            f"total={self.total_ms:.3f} ms, local={self.local_ms:.3f} ms)"
        )


@dataclass
class RankingResult(_TimedResult):
    """Outcome of a host-level :func:`ranking` call.

    ``ranks`` holds the global rank of every mask-true element and -1
    elsewhere (the shape of the mask).
    """

    ranks: np.ndarray = field(default=None)
    size: int = 0
    layout: GridLayout = field(default=None, repr=False)


def _resolve_observers(profiler, tracer, metrics):
    """One instrumentation story: an explicit profiler wins, else the raw
    observers (either may be None)."""
    if profiler is not None:
        if tracer is not None or metrics is not None:
            raise ValueError("pass either profiler= or tracer=/metrics=, not both")
        return profiler.tracer, profiler.metrics
    return tracer, metrics


def _make_config(
    scheme, prs, m2m_schedule, result_block, early_exit_scan,
    compress_requests=False, reliability=None,
) -> PackConfig:
    return PackConfig(
        scheme=Scheme.parse(scheme),
        prs=prs,
        m2m_schedule=m2m_schedule,
        result_block=result_block,
        early_exit_scan=early_exit_scan,
        compress_requests=compress_requests,
        reliability=reliability,
    )


def _run_op(
    op: str,
    program,
    layout: GridLayout,
    config: PackConfig,
    mask: np.ndarray,
    shared: dict,
    rank_args,
    collect,
    *,
    spec: MachineSpec,
    backend,
    plan_cache,
    plan_op: str | None = None,
    n_result: int | None = None,
    mask_on_hit: bool = False,
    faults=None,
    profiler: PhaseProfiler | None = None,
    profile=None,
    tracer=None,
    metrics=None,
    step_budget: int | None = None,
    time_budget: float | None = None,
):
    """The one host call path behind pack / unpack / ranking / pack_many.

    Resolves the observers and the backend, probes the plan cache under
    ``plan_op`` (default ``op``), and runs ``program`` on every rank with
    ``rank_args(r, shared, mask_block) + (rank plan, capture)``.  On a plan
    hit the mask stays on the host (the plan encodes it) unless
    ``mask_on_hit``.  ``collect``
    gathers and validates the run; its return value is passed through,
    and only then is a freshly captured plan stored.  Returns
    ``(collected, the _TimedResult fields of the call)``.

    ``plan_info`` is ``None`` when no cache was requested, ``"off"`` when
    one was but the call is ineligible (fault injection, reliable
    transport — their charges are not a pure function of the key), else
    ``"hit"`` / ``"miss"``.
    """
    tracer, metrics = _resolve_observers(profiler, tracer, metrics)
    exec_backend = get_backend(backend)
    exec_backend.reject_unsupported(faults=faults, reliability=config.reliability)

    cache = resolve_plan_cache(plan_cache)
    status = key = plan = None
    if cache is not None and (faults is not None or config.reliability is not None):
        status = "off"
    elif cache is not None:
        key = plan_key(
            plan_op or op, layout, config, mask,
            n_result=n_result, spec=spec.name,
            time_domain=exec_backend.time_domain,
        )
        plan = cache.get(key)
        status = "hit" if plan is not None else "miss"
    # Plain locals only: the rank-args closure is shipped to
    # supervised-gang workers, and must not drag the PlanCache (and its
    # lock) into its cells.
    rank_plans = plan.ranks if plan is not None else None
    capture = status == "miss"
    ship_mask = rank_plans is None or mask_on_hit
    if ship_mask:
        shared = dict(shared, mask=mask)

    def _rank_args(r, sh):
        mask_block = layout.local_block(sh["mask"], r, copy=False) if ship_mask else None
        plan_r = rank_plans[r] if rank_plans is not None else None
        return rank_args(r, sh, mask_block) + (plan_r, capture)

    run = exec_backend.run_spmd(
        program,
        layout.nprocs,
        make_rank_args=_rank_args,
        shared=shared,
        spec=spec,
        tracer=tracer,
        metrics=metrics,
        faults=faults,
        step_budget=step_budget,
        time_budget=time_budget,
        profile=profile,
    )
    collected = collect(run)

    plan_info = None
    if status == "off":
        plan_info = {"cache": "off", "compile_ms": None}
    elif status is not None:
        if capture:
            plan = Plan(
                key=key,
                ranks=[run.results[r].rank_plan for r in range(layout.nprocs)],
            )
            cache.put(key, plan)
            compile_ms = plan.compile_wall * 1e3
        else:
            compile_ms = 0.0  # the prefix was replayed, not computed
        plan_info = {
            "cache": status,
            "compile_ms": compile_ms,
            "fingerprint": key.fingerprint,
            "plan_bytes": plan.nbytes,
        }
        if metrics is not None:
            metrics.inc(f"plan_cache.{status}")
            metrics.observe("plan.compile_ms", compile_ms)
    if profiler is not None:
        profiler.finish(run, op=op, spec=spec.name, plan=plan_info)
    if profile is not None and profile.profile is not None:
        profile.finish(op=op, spec=spec.name)
    return collected, dict(
        run=run, tracer=tracer, metrics=metrics,
        _op=op, _spec_name=spec.name, plan_info=plan_info,
    )


def pack(
    array: np.ndarray,
    mask: np.ndarray,
    grid: Sequence[int] | int,
    block=None,
    scheme="cms",
    spec: MachineSpec = CM5,
    prs: str = "auto",
    m2m_schedule: str = "linear",
    result_block: int | None = None,
    early_exit_scan: bool = True,
    redistribute: str | None = None,
    vector: np.ndarray | None = None,
    pad: bool = False,
    validate: bool = True,
    profiler: PhaseProfiler | None = None,
    profile=None,
    tracer=None,
    metrics=None,
    faults=None,
    reliability=None,
    step_budget: int | None = None,
    time_budget: float | None = None,
    backend="sim",
    plan_cache=None,
) -> PackResult:
    """Parallel PACK of a global numpy array under a simulated machine.

    Parameters
    ----------
    array, mask:
        conformable global numpy arrays; the mask is interpreted as bool.
    vector:
        Fortran 90's optional ``VECTOR`` argument: when given, the result
        has ``vector.size`` elements (>= the number of trues) and the
        positions past the packed data take ``vector``'s values.
    pad:
        lift the paper's divisibility assumption: extents not divisible by
        ``P*W`` are padded with mask-false elements (which PACK never
        selects, so the result is unchanged).  See
        :mod:`repro.core.padding`.
    grid:
        processor grid in numpy axis order (an int for 1-D arrays).
    block:
        per-dimension block sizes (numpy order), an int/str applied to all
        dimensions, or ``None`` for BLOCK.
    scheme:
        ``"sss"`` / ``"css"`` / ``"cms"``.
    redistribute:
        ``None`` (direct pack), ``"selected"`` (Red.1 pre-pass) or
        ``"whole"`` (Red.2 pre-pass) — Section 6.3.
    validate:
        check the result against the serial oracle (always do this in
        tests; turn off in benchmarks measuring simulated time only).
    profile:
        optional :class:`~repro.obs.runtime.RuntimeProfiler`: after the
        call it holds a cross-rank :class:`~repro.obs.runtime.RunProfile`
        — per-rank trace lanes, a P×P communication matrix and a
        phase-attribution table in the backend's own time domain (host
        wall phases like fork/pickle/queue-wait under ``"mp"``).  See
        ``repro profile`` and docs/runtime.md.
    profiler / tracer / metrics:
        optional observability: a :class:`~repro.obs.PhaseProfiler` (its
        report is filled in and the result's :meth:`~_TimedResult.report`
        includes trace-derived data), or a raw
        :class:`~repro.machine.trace.Tracer` /
        :class:`~repro.obs.MetricsRegistry` pair.  All default off; plain
        calls pay nothing.
    faults:
        optional :class:`~repro.faults.FaultPlan` injected into the
        simulated network (seeded, fully reproducible).  Under message
        faults, pass ``reliability`` too or the run will (correctly)
        deadlock / fail validation.
    reliability:
        ``True`` or a :class:`~repro.faults.ReliabilityConfig` to route
        the redistribution rounds through the reliable transport; see
        :class:`~repro.core.schemes.PackConfig`.
    step_budget / time_budget:
        optional progress-watchdog bounds forwarded to
        :class:`~repro.machine.engine.Machine`; a run exceeding them
        raises :class:`~repro.machine.errors.WatchdogError`.
    backend:
        execution backend: ``"sim"`` (default — the deterministic cost
        simulator, times in simulated seconds), ``"mp"`` (one OS
        process per rank on real cores, times in wall seconds),
        ``"supervised"`` (a persistent
        :class:`~repro.runtime.GangSupervisor` gang, forked once and
        reused, with heartbeat monitoring and retry-based recovery from
        rank death), or a :class:`~repro.runtime.Backend` instance.
        Simulator-only features (``faults``, ``reliability``, watchdog
        budgets) raise :class:`~repro.runtime.BackendError` under the
        process backends.
    plan_cache:
        opt-in plan/execute split (:mod:`repro.core.plan`): ``True`` /
        ``"on"`` uses the process-default
        :class:`~repro.core.plan_cache.PlanCache`, or pass an instance.
        The mask-dependent compile prefix (ranking, send-vector
        derivation, rescan) is compiled once per (geometry, scheme, mask
        fingerprint, machine spec, time domain) and replayed on repeat
        calls — results and simulated times stay bit-identical; under the
        wall-clock backends the recompute is genuinely skipped.
        ``redistribute`` runs compile their pre-pass bookkeeping into the
        plan too (keyed as ``pack_red1`` / ``pack_red2``); only ``faults``
        / ``reliability`` calls bypass the cache (reported as
        ``plan_info["cache"] == "off"``).

    Returns a :class:`PackResult` whose ``vector`` matches Fortran 90
    ``PACK(array, mask)`` semantics exactly.
    """
    array = np.asarray(array)
    mask = np.asarray(mask, dtype=bool)
    if isinstance(grid, int):
        grid = (grid,)
    original_array, original_mask = array, mask
    if pad:
        from .padding import pad_array, pad_mask, padded_shape

        new_shape, block = padded_shape(array.shape, grid, block)
        array = pad_array(array, new_shape)
        mask = pad_mask(mask, new_shape)
    layout = GridLayout.create(array.shape, grid, block)
    config = _make_config(
        scheme, prs, m2m_schedule, result_block, early_exit_scan,
        reliability=reliability,
    )

    n_result = None
    pad_layout = None
    if vector is not None:
        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise ValueError(
                f"PACK's VECTOR must be rank 1, got rank {vector.ndim}"
            )
        trues = int(np.count_nonzero(mask))
        if vector.size < trues:
            raise ValueError(
                f"PACK's VECTOR has {vector.size} elements but the mask "
                f"selects {trues}"
            )
        n_result = int(vector.size)
        pad_layout = result_vector_layout(n_result, layout.nprocs, config)

    programs = {None: (pack_program, "pack"),
                "selected": (pack_red1_program, "pack_red1"),
                "whole": (pack_red2_program, "pack_red2")}
    if redistribute not in programs:
        raise ValueError(
            f"redistribute must be None, 'selected' or 'whole', got {redistribute!r}"
        )
    program, plan_op = programs[redistribute]
    # The direct program takes (ranking_result, phase_prefix) before the
    # plan hooks; the redistribution programs go straight to them.
    hooks_at = (None, "pack") if redistribute is None else ()

    # Each rank extracts only the blocks it owns from the shared global
    # arrays (views in-process; shared-memory slices under "mp") — the
    # host never materializes a per-rank copy of anything.
    shared = {"array": array}
    if vector is not None:
        shared["pad_vector"] = vector

    def _rank_args(r, sh, mask_block):
        pad_block = (
            pad_layout.local_block(sh["pad_vector"], r)
            if pad_layout is not None
            else None
        )
        return (
            layout.local_block(sh["array"], r, copy=False), mask_block,
            layout, config, pad_block, n_result,
        ) + hooks_at

    def _collect(run):
        size = run.results[0].size
        vec_layout = result_vector_layout(
            n_result if n_result is not None else size, layout.nprocs, config
        )
        out = vec_layout.gather(
            [run.results[r].vector_block for r in range(layout.nprocs)],
            dtype=array.dtype,
        )
        if validate:
            expected = pack_reference(original_array, original_mask, vector)
            if out.shape != expected.shape or not np.array_equal(out, expected):
                raise AssertionError(
                    f"parallel PACK mismatch vs serial oracle "
                    f"(scheme={config.scheme.value}, layout={layout.describe()})"
                )
        return out, size

    # Red.2's pre-pass redistributes the mask for real even on a plan hit
    # (the traffic is part of the measured algorithm).
    (out, size), common = _run_op(
        "pack", program, layout, config, mask, shared, _rank_args, _collect,
        spec=spec, backend=backend, plan_cache=plan_cache, plan_op=plan_op,
        n_result=n_result, mask_on_hit=redistribute == "whole",
        faults=faults, profiler=profiler, profile=profile,
        tracer=tracer, metrics=metrics,
        step_budget=step_budget, time_budget=time_budget,
    )
    return PackResult(
        vector=out,
        size=size,
        scheme=config.scheme,
        layout=layout,
        total_words=common["run"].total_words,
        **common,
    )


def unpack(
    vector: np.ndarray,
    mask: np.ndarray,
    field_array: np.ndarray,
    grid: Sequence[int] | int,
    block=None,
    scheme="css",
    spec: MachineSpec = CM5,
    prs: str = "auto",
    m2m_schedule: str = "linear",
    result_block: int | None = None,
    early_exit_scan: bool = True,
    compress_requests: bool = False,
    pad: bool = False,
    validate: bool = True,
    profiler: PhaseProfiler | None = None,
    profile=None,
    tracer=None,
    metrics=None,
    faults=None,
    reliability=None,
    step_budget: int | None = None,
    time_budget: float | None = None,
    backend="sim",
    plan_cache=None,
) -> UnpackResult:
    """Parallel UNPACK: scatter ``vector`` into the trues of ``mask``, with
    ``field_array`` filling the falses.  See :func:`pack` for parameters
    (including ``faults`` / ``reliability`` / the watchdog budgets, and
    ``plan_cache`` — an UNPACK plan additionally records each rank's
    incoming request tables, so a hit skips the whole phase-A request
    exchange); ``scheme`` must be ``"sss"`` or ``"css"``.  ``field_array``
    may be a scalar (Fortran 90 allows a scalar FIELD).
    ``compress_requests`` run-length-encodes the rank requests (CSS only;
    a library extension — see :class:`repro.core.schemes.PackConfig`)."""
    vector = np.asarray(vector)
    mask = np.asarray(mask, dtype=bool)
    field_array = np.asarray(field_array)
    if vector.ndim != 1:
        raise ValueError(
            f"UNPACK input vector must be rank 1, got rank {vector.ndim}"
        )
    trues = int(np.count_nonzero(mask))
    if vector.size < trues:
        raise ValueError(
            f"UNPACK vector has {vector.size} elements but the mask selects "
            f"{trues}"
        )
    if field_array.ndim == 0:
        field_array = np.full(mask.shape, field_array[()])
    if isinstance(grid, int):
        grid = (grid,)
    original_shape = mask.shape
    original_mask, original_field = mask, field_array
    if pad:
        from .padding import pad_array, pad_mask, padded_shape

        new_shape, block = padded_shape(mask.shape, grid, block)
        mask = pad_mask(mask, new_shape)
        field_array = pad_array(field_array, new_shape)
    layout = GridLayout.create(mask.shape, grid, block)
    config = _make_config(
        scheme, prs, m2m_schedule, result_block, early_exit_scan,
        compress_requests=compress_requests, reliability=reliability,
    )

    vec_layout = input_vector_layout(int(vector.size), layout.nprocs, config)
    n_vector = int(vector.size)

    # Each rank slices only its own blocks from the shared global arrays
    # (views in-process, shared-memory slices under "mp").  On a plan hit
    # the mask stays on the host: the plan already encodes it.
    def _rank_args(r, sh, mask_block):
        return (
            vec_layout.local_block(sh["vector"], r, copy=False),
            mask_block,
            layout.local_block(sh["field"], r, copy=False),
            layout, n_vector, config, "unpack",
        )

    def _collect(run):
        array = layout.gather(
            [run.results[r].array_block for r in range(layout.nprocs)]
        )
        if pad:
            from .padding import crop

            array = crop(array, original_shape)
        if validate:
            expected = unpack_reference(vector, original_mask, original_field)
            if not np.array_equal(array, expected):
                raise AssertionError(
                    f"parallel UNPACK mismatch vs serial oracle "
                    f"(scheme={config.scheme.value}, layout={layout.describe()})"
                )
        return array

    array, common = _run_op(
        "unpack", unpack_program, layout, config, mask,
        {"vector": vector, "field": field_array}, _rank_args, _collect,
        spec=spec, backend=backend, plan_cache=plan_cache, n_result=n_vector,
        faults=faults, profiler=profiler, profile=profile,
        tracer=tracer, metrics=metrics,
        step_budget=step_budget, time_budget=time_budget,
    )
    return UnpackResult(
        array=array,
        size=common["run"].results[0].size,
        scheme=config.scheme,
        layout=layout,
        **common,
    )


@dataclass
class _RankingLocal:
    """Per-rank outcome of :func:`_ranking_host_program`."""

    ranks: np.ndarray
    size: int
    rank_plan: RankingRankPlan | None = None


def _ranking_host_program(
    ctx, block_mask, layout, scheme, prs, plan=None, capture=False
):
    """Per-rank program behind the host-level :func:`ranking`.

    The ranking result is *entirely* mask-derived, so a plan execution is
    pure replay: restore the recorded charges, hand back the stored array.
    """
    if plan is not None:
        replay_charges(ctx, plan.charges, "ranking")
        return _RankingLocal(plan.ranks_local, plan.size)
    recorder = ChargeRecorder(ctx) if capture else None
    t_compile = perf_counter() if capture else 0.0
    result = yield from ranking_program(
        ctx, block_mask, layout, scheme=scheme, prs=prs
    )
    ranks_local = result.masked_element_ranks(block_mask, layout.local_shape)
    rank_plan = None
    if capture:
        rank_plan = RankingRankPlan(
            ranks_local=ranks_local,
            size=result.size,
            charges=recorder.finish(
                ctx, ranking_phase_names(layout.d), "ranking"
            ),
            compile_wall=perf_counter() - t_compile,
        )
    return _RankingLocal(ranks_local, result.size, rank_plan)


def ranking(
    mask: np.ndarray,
    grid: Sequence[int] | int,
    block=None,
    spec: MachineSpec = CM5,
    prs: str = "auto",
    scheme="css",
    validate: bool = True,
    profiler: PhaseProfiler | None = None,
    profile=None,
    tracer=None,
    metrics=None,
    faults=None,
    step_budget: int | None = None,
    time_budget: float | None = None,
    pad: bool = False,
    backend="sim",
    plan_cache=None,
) -> RankingResult:
    """Run only the ranking stage and return the global rank array.

    Ranking communicates via hardware collectives only (no point-to-point
    data), so there is no ``reliability`` knob; ``faults`` can still
    crash ranks or stretch straggler clocks.  ``pad`` lifts the ``P*W | N``
    divisibility assumption exactly as in :func:`pack`: padding cells are
    mask-false, contribute nothing to the prefix sums, and are cropped away
    before the ranks are returned."""
    mask = np.asarray(mask, dtype=bool)
    if isinstance(grid, int):
        grid = (grid,)
    original_mask = mask
    original_shape = mask.shape
    if pad:
        from .padding import pad_mask, padded_shape

        new_shape, block = padded_shape(mask.shape, grid, block)
        mask = pad_mask(mask, new_shape)
    layout = GridLayout.create(mask.shape, grid, block)
    config_scheme = Scheme.parse(scheme)

    def _rank_args(r, sh, mask_block):
        return (mask_block, layout, config_scheme, prs)

    def _collect(run):
        ranks = layout.gather([run.results[r].ranks for r in range(layout.nprocs)])
        size = run.results[0].size
        if pad:
            from .padding import crop

            ranks = crop(ranks, original_shape)
        if validate:
            expected = mask_ranks(original_mask)
            if not np.array_equal(ranks, expected):
                raise AssertionError("parallel ranking mismatch vs serial oracle")
            if size != int(np.count_nonzero(original_mask)):
                raise AssertionError(
                    f"Size {size} != oracle {np.count_nonzero(original_mask)}")
        return ranks, size

    (ranks, size), common = _run_op(
        "ranking", _ranking_host_program, layout,
        # Ranking has no PackConfig; key it under the knobs that exist
        # (scheme, prs) with the remaining fields at their defaults.
        _make_config(scheme, prs, "linear", None, True),
        mask, {}, _rank_args, _collect,
        spec=spec, backend=backend, plan_cache=plan_cache,
        faults=faults, profiler=profiler, profile=profile,
        tracer=tracer, metrics=metrics,
        step_budget=step_budget, time_budget=time_budget,
    )
    return RankingResult(ranks=ranks, size=size, layout=layout, **common)
