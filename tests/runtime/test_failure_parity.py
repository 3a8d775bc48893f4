"""Cold and supervised gangs report the same failure the same way.

``MpBackend`` and ``GangSupervisor`` share one collect loop and one
failure classification (``repro.runtime.gang``).  With retries off, each
failure below must surface from both as ``MpGangError`` naming the same
failing rank and carrying the same message fragment.  The autouse
fixture in ``conftest.py`` checks that neither path leaks children,
segments or semaphores.
"""

import os

import pytest

from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.machine import MachineSpec
from repro.runtime import GangSupervisor, MpBackend, MpGangError, RetryPolicy

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")


def _silent_exit(ctx):
    if ctx.rank == 1:
        os._exit(9)  # dies without reporting a result
    yield ctx.recv(1, 1)


def _quick(ctx):
    ctx.work(1)
    return ctx.rank


def _raises(ctx):
    if ctx.rank == 1:
        raise ValueError("boom on rank one")
    yield ctx.recv(1, 1)


def _deadlock(ctx):
    yield ctx.recv((ctx.rank + 1) % ctx.size, 99)  # never sent


POISON = ChaosPlan(events=(
    ChaosEvent(kind="poison", rank=1, op_index=0, phase="flush"),
))

#: name -> (program, chaos plan, wall timeout, failing rank, fragment)
CASES = {
    "silent_exit": (_silent_exit, None, 60, 1, "without reporting"),
    "poisoned_result": (_quick, POISON, 60, 1, "malformed result"),
    "program_raised": (_raises, None, 60, 1, "program raised"),
    "wall_timeout": (_deadlock, None, 1.0, None, "did not finish within"),
}


def _failure(backend, program):
    with pytest.raises(MpGangError) as err:
        backend.run_spmd(program, 2, spec=SPEC)
    return err.value


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_and_supervised_fail_alike(case):
    program, chaos, timeout, rank, fragment = CASES[case]
    cold = _failure(MpBackend(timeout=timeout, chaos=chaos), program)
    with GangSupervisor(timeout=timeout, chaos=chaos,
                        retry=RetryPolicy(max_retries=0)) as sup:
        warm = _failure(sup, program)
    for err in (cold, warm):
        assert err.rank == rank, (case, str(err))
        assert fragment in str(err), (case, str(err))
    if case == "program_raised":
        for err in (cold, warm):
            assert "ValueError: boom on rank one" in err.child_traceback
            assert "rank 1 traceback" in str(err)
