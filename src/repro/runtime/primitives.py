"""Backend-agnostic SPMD primitives.

The classic coarse-grained combining primitives — barrier, allreduce,
exclusive prefix sum — expressed as generator helpers over the context /
op protocol, so the same call works verbatim on every backend: the
simulator executes the :class:`~repro.machine.ops.CollectiveOp` on its
modeled control network; the multiprocessing backend runs it through the
root-gather protocol over real pipes.

Use with ``yield from`` inside a program::

    def program(ctx, value):
        yield from barrier(ctx)
        total = yield from allreduce(ctx, value)
        offset = yield from exclusive_prefix_sum(ctx, value)
        return total, offset

The many-to-many personalized exchange (alltoallv) is
:func:`repro.machine.m2m.exchange`.

These are also what the ``repro runtime`` smoke command exercises to
prove a backend's transport end to end before trusting it with a full
PACK/UNPACK run.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Sequence

from ..machine.context import Context, payload_words
from ..machine.ops import CollectiveOp

__all__ = ["barrier", "allreduce", "exclusive_prefix_sum"]


def _resolve_group(ctx, group: Sequence[int] | None) -> tuple[int, ...]:
    return tuple(sorted(group)) if group is not None else tuple(range(ctx.size))


def barrier(ctx: Context, group: Sequence[int] | None = None, key: int = 0):
    """Synchronize ``group`` (default: all ranks)."""
    yield ctx.barrier(group, key=key)


def allreduce(
    ctx: Context,
    value: Any,
    op=None,
    group: Sequence[int] | None = None,
    key: int = 0,
) -> Generator[Any, Any, Any]:
    """Combine one value per rank; every rank receives the total.

    ``op`` is a binary reduction applied left-to-right in rank order
    (default ``+``), so non-commutative reductions are deterministic.
    """
    members = _resolve_group(ctx, group)

    def _combine(payloads: Mapping[int, Any]) -> tuple[dict, int]:
        total = None
        first = True
        for r in sorted(payloads):
            v = payloads[r]
            if first:
                total, first = v, False
            elif op is not None:
                total = op(total, v)
            else:
                total = total + v
        words = payload_words(total)
        return ({r: total for r in members}, words)

    result = yield CollectiveOp(
        group=members, kind="allreduce", payload=value, key=key, combine=_combine
    )
    return result


def exclusive_prefix_sum(
    ctx: Context,
    value: Any,
    group: Sequence[int] | None = None,
    key: int = 0,
    zero: Any = 0,
) -> Generator[Any, Any, Any]:
    """Exclusive scan in rank order: rank ``r`` receives the sum of the
    values contributed by group members with smaller rank (``zero`` for
    the lowest rank).

    This is the collective at the heart of PACK's ranking step — a rank's
    global offset is the count of selected elements on all lower ranks.
    """
    members = _resolve_group(ctx, group)

    def _combine(payloads: Mapping[int, Any]) -> tuple[dict, int]:
        results: dict[int, Any] = {}
        running = zero
        words = 0
        for r in sorted(payloads):
            results[r] = running
            running = running + payloads[r]
            words += payload_words(payloads[r])
        return (results, words)

    result = yield CollectiveOp(
        group=members, kind="xprefix", payload=value, key=key, combine=_combine
    )
    return result

