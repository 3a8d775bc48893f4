"""Gang PACK: many arrays, one mask, one ranking.

HPF programs routinely pack several attribute arrays under the same mask
(`xs = PACK(x, alive); vs = PACK(v, alive); qs = PACK(q, alive)`), and a
good runtime ranks the mask *once*: the ranking stage (and for the
compact schemes the second scan's bookkeeping) depends only on the mask,
so k packs share one ranking, one send-vector derivation and one count
detection — only the per-array message composition, data exchange and
placement repeat.

A gang PACK is therefore solo PACK with its data-movement step repeated:
:func:`pack_many_program` runs :mod:`repro.core.pack`'s compile prefix
once under ``gang.*`` phases, then PACK's data movement once per array
under ``gang.{compose,comm,decompose}.<k>`` (exchange tag ``910 + k``).
:func:`pack_many` is the host wrapper; it shares
:func:`repro.core.api.pack`'s call path, so the plan it compiles is keyed
as ``op="pack"`` and replays under either function (the charges are
recorded prefix-relative).  A one-array gang costs exactly one solo PACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

import numpy as np

from ..hpf.grid import GridLayout
from ..machine.context import Context
from .api import _run_op, _TimedResult
from .costs import StepCosts
from .pack import _check_block, move_data, pack_prefix, result_vector_layout
from .plan import PackRankPlan
from .schemes import PackConfig
from .storage import selected_from_plan

__all__ = ["PackManyLocal", "PackManyResult", "pack_many_program", "pack_many"]

_GANG_TAG_BASE = 910


@dataclass
class PackManyLocal:
    """Per-rank outcome of a gang PACK."""

    vector_blocks: list[np.ndarray]
    size: int
    e_i: int
    rank_plan: PackRankPlan | None = None


@dataclass
class PackManyResult(_TimedResult):
    """Outcome of a host-level :func:`pack_many` call: ``vectors[k]`` is
    ``PACK(arrays[k], mask)``."""

    vectors: list = field(default=None)
    size: int = 0


def pack_many_program(
    ctx: Context,
    local_arrays: Sequence[np.ndarray],
    local_mask: np.ndarray | None,
    grid: GridLayout,
    config: PackConfig,
    phase_prefix: str = "gang",
    plan: PackRankPlan | None = None,
    capture: bool = False,
) -> Generator[Any, Any, PackManyLocal]:
    """SPMD gang PACK on one rank: k arrays, one mask, one ranking.

    ``plan`` / ``capture`` are the plan/execute hooks shared with
    :func:`~repro.core.pack.pack_program` — the gang's compile prefix is
    PACK's, so the same :class:`~repro.core.plan.PackRankPlan` serves both.
    """
    arrays = [np.asarray(a) for a in local_arrays]
    for k, a in enumerate(arrays):
        _check_block(ctx.rank, f"array {k}", a, grid)
    costs = StepCosts(local=ctx.spec.local, scheme=config.scheme, d=grid.d)
    sel0, vec, size, captured = yield from pack_prefix(
        ctx, arrays[0], local_mask, grid, config, costs, phase_prefix,
        plan=plan, capture=capture,
    )
    blocks = []
    for k, a in enumerate(arrays):
        # Everything but the values is mask-derived: rebind, don't rederive.
        sel = sel0 if k == 0 else selected_from_plan(sel0, a)
        block, _e_a, _gr, _words = yield from move_data(
            ctx, sel, vec, size, config, costs, a.dtype, phase_prefix,
            suffix=f".{k}", tag=_GANG_TAG_BASE + k,
        )
        blocks.append(block)
    return PackManyLocal(
        vector_blocks=blocks, size=size, e_i=sel0.count, rank_plan=captured,
    )


def pack_many(
    arrays: Sequence[np.ndarray],
    mask: np.ndarray,
    grid,
    block=None,
    scheme="cms",
    spec=None,
    validate: bool = True,
    faults=None,
    plan_cache=None,
    backend="sim",
    tracer=None,
    metrics=None,
    **config_kw,
) -> PackManyResult:
    """Host-level gang PACK: returns a :class:`PackManyResult`.

    Each ``result.vectors[k]`` equals ``PACK(arrays[k], mask)`` exactly;
    the simulated cost amortizes the mask-dependent stages across the
    gang.  ``faults`` injects a :class:`~repro.faults.FaultPlan`; pass
    ``reliability=True`` (forwarded to :class:`PackConfig`) alongside it
    to keep the gang exchanges correct under message faults.

    ``plan_cache`` (``True`` / a :class:`~repro.core.plan_cache.PlanCache`)
    compiles the mask-dependent prefix into a plan keyed as ``op="pack"``
    — shared with :func:`repro.core.api.pack` — and replays it on repeat
    calls with the same mask and geometry; ``result.plan_info`` reports
    the outcome exactly as ``pack`` does.

    ``backend`` runs the gang on any execution backend (``"sim"`` /
    ``"mp"`` / ``"supervised"`` / a :class:`~repro.runtime.Backend`
    instance), exactly like :func:`repro.core.api.pack` — this is the
    batching seam ``repro.serve`` coalesces concurrent requests through.
    """
    from ..machine.spec import CM5
    from ..serial.reference import pack_reference

    if not arrays:
        raise ValueError("pack_many needs at least one array")
    arrays = [np.asarray(a) for a in arrays]
    mask = np.asarray(mask, dtype=bool)
    if isinstance(grid, int):
        grid = (grid,)
    layout = GridLayout.create(mask.shape, grid, block)
    config = PackConfig(scheme=scheme, **config_kw)
    nk = len(arrays)

    def _rank_args(r, sh, mask_block):
        blocks = [
            layout.local_block(sh[f"array_{k}"], r, copy=False)
            for k in range(nk)
        ]
        return (blocks, mask_block, layout, config, "gang")

    def _collect(run):
        size = run.results[0].size
        vec = result_vector_layout(size, layout.nprocs, config)
        vectors = [
            vec.gather(
                [run.results[r].vector_blocks[k] for r in range(layout.nprocs)],
                dtype=a.dtype,
            )
            for k, a in enumerate(arrays)
        ]
        if validate:
            for k, a in enumerate(arrays):
                if not np.array_equal(vectors[k], pack_reference(a, mask)):
                    raise AssertionError(f"gang PACK mismatch on array {k}")
        return vectors, size

    (vectors, size), common = _run_op(
        "pack_many", pack_many_program, layout, config, mask,
        {f"array_{k}": a for k, a in enumerate(arrays)}, _rank_args, _collect,
        spec=spec if spec is not None else CM5, backend=backend,
        plan_cache=plan_cache, plan_op="pack", faults=faults,
        tracer=tracer, metrics=metrics,
    )
    return PackManyResult(vectors=vectors, size=size, **common)
