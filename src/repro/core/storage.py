"""Selected-element bookkeeping — what the storage schemes store or derive.

The *simple storage scheme* materializes, during the initial ranking scan,
one record per selected element (local index per dimension, tile number,
in-slice rank, destination).  The *compact* schemes store nothing and
re-derive everything from the counter array ``PS_c`` and the final
base-rank array ``PS_f``.

Either way, the redistribution stage needs the same three vectors per rank
— flat local positions, global ranks, destination processors, all in local
element order (ascending global order, hence ascending rank).  This module
produces them; the *cost* difference between the schemes is charged by
:class:`~repro.core.costs.StepCosts`, and the *data* difference (records
vs rescan) shows up in which charge functions the pack/unpack programs
invoke.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hpf.grid import GridLayout
from ..hpf.vector import VectorLayout
from .ranking import LocalRanking

__all__ = ["SelectedElements", "extract_selected", "selected_from_plan"]


@dataclass
class SelectedElements:
    """The selected (mask-true) elements of one rank, in ascending-rank order.

    Attributes
    ----------
    positions:
        flat local indices (C order over the local block).
    values:
        the selected array elements.
    ranks:
        global ranks (ascending — local storage order is ascending global
        order, and rank is monotone in global index).
    dests:
        destination rank of each element under the result vector's layout.
    slice_ids:
        local slice number of each element (``positions // W_0`` —
        dimension-0 slices are contiguous in the C-order flat local
        index).  Consecutive elements sharing a slice have *consecutive*
        ranks, the property the compact message scheme exploits.
    """

    positions: np.ndarray
    values: np.ndarray
    ranks: np.ndarray
    dests: np.ndarray
    slice_ids: np.ndarray
    _breaks: np.ndarray | None = None
    _seg_count: int | None = None

    @property
    def count(self) -> int:
        return int(self.positions.size)

    def segment_breaks(self) -> np.ndarray:
        """Boolean vector marking the first element of each message segment.

        A segment is a maximal run of elements in one slice bound for one
        destination; within it, ranks are consecutive by the slice
        property, so ``(base-rank, count)`` describes all of them.

        Computed once and cached — cost charging, composition, and request
        grouping all consult it.
        """
        if self._breaks is not None:
            return self._breaks
        n = self.count
        brk = np.ones(n, dtype=bool)
        if n > 1:
            np.not_equal(self.slice_ids[1:], self.slice_ids[:-1], out=brk[1:])
            brk[1:] |= self.dests[1:] != self.dests[:-1]
        self._breaks = brk
        return brk

    @property
    def segment_count(self) -> int:
        """``Gs_i``: total message segments this rank would compose."""
        if self._seg_count is None:
            self._seg_count = int(self.segment_breaks().sum())
        return self._seg_count


def selected_from_plan(plan, local_array: np.ndarray) -> SelectedElements:
    """Rebind mask-derived vectors to fresh data.

    ``plan`` is anything carrying ``positions`` / ``ranks`` / ``dests`` /
    ``slice_ids``: a compiled :class:`~repro.core.plan.PackRankPlan` (a
    plan hit, across calls) or another array's :class:`SelectedElements`
    (the later arrays of one gang PACK).  Only the gather of the selected
    values happens per array.
    """
    return SelectedElements(
        positions=plan.positions,
        values=np.asarray(local_array).ravel()[plan.positions],
        ranks=plan.ranks,
        dests=plan.dests,
        slice_ids=plan.slice_ids,
    )


def extract_selected(
    local_array: np.ndarray | None,
    local_mask: np.ndarray,
    ranking: LocalRanking,
    grid: GridLayout,
    vec: VectorLayout,
) -> SelectedElements:
    """Produce the per-rank selected-element vectors (see module docstring).

    This is the *data* computation shared by every scheme; the schemes
    differ in the time charged for obtaining it.  ``local_array=None``
    compiles the mask-derived vectors only (``values`` stays ``None``) —
    the plan/execute split's compile path, which never sees data.
    """
    local_mask = np.asarray(local_mask, dtype=bool)
    flat_mask = local_mask.ravel()
    positions = np.flatnonzero(flat_mask)
    if local_array is None:
        values = None
    else:
        values = np.asarray(local_array).ravel()[positions]
    w0 = grid.dims[0].w
    slice_ids = positions // w0
    # Rank of a selected element = its in-slice rank plus its slice's base
    # rank — gathered for the E selected elements only, instead of
    # materialising the full L-element rank array
    # (``ranking.element_ranks``) just to index E entries out of it.
    ranks = ranking.initial.ravel()[positions] + ranking.ps_f.ravel()[slice_ids]
    dests = vec.owners(ranks) if ranks.size else np.empty(0, dtype=np.int64)
    if ranks.size > 1 and not np.all(ranks[1:] > ranks[:-1]):
        raise AssertionError("internal error: local ranks not strictly increasing")
    return SelectedElements(
        positions=positions,
        values=values,
        ranks=ranks.astype(np.int64, copy=False),
        dests=np.asarray(dests, dtype=np.int64),
        slice_ids=slice_ids.astype(np.int64, copy=False),
    )
