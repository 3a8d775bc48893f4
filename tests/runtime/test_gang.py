"""The gang plumbing both process-per-rank lifecycles share.

``MpBackend`` (cold, a gang per op) and ``GangSupervisor`` (warm, a gang
per epoch) run on one argument check, one result validation and one
reap (``repro.runtime.gang``).  These tests pin those pieces directly,
without forking where the piece does not need it.
"""

import pickle

import pytest

from repro.faults import FaultPlan
from repro.machine import MachineSpec
from repro.runtime import (
    BackendError,
    Deadline,
    GangSupervisor,
    MpBackend,
    resolve_transport,
)
from repro.runtime.gang import GangFailure, _Gang

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")


def _noop(ctx):
    return ctx.rank


#: name -> (run_spmd keyword arguments for 2 ranks, error type, match)
BAD_ARGS = {
    "both_arg_styles": (
        {"rank_args": [(), ()], "make_rank_args": lambda r, s: ()},
        ValueError, "not both"),
    "rank_args_length": ({"rank_args": [()]}, ValueError, "1 entries for 2"),
    "faults": ({"faults": FaultPlan(seed=0)}, BackendError, "fault injection"),
    "step_budget": ({"step_budget": 10}, BackendError, "watchdog budgets"),
    "time_budget": ({"time_budget": 1.0}, BackendError, "watchdog budgets"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGS))
@pytest.mark.parametrize("make", [MpBackend, GangSupervisor],
                         ids=["mp", "supervised"])
def test_run_args_rejected_alike(make, case):
    kwargs, exc, match = BAD_ARGS[case]
    backend = make(timeout=30)
    try:
        with pytest.raises(exc, match=match):
            backend.run_spmd(_noop, 2, spec=SPEC, **kwargs)
    finally:
        if isinstance(backend, GangSupervisor):
            backend.close()


@pytest.mark.parametrize("make", [MpBackend, GangSupervisor],
                         ids=["mp", "supervised"])
def test_budget_error_names_the_backend(make):
    backend = make(timeout=30)
    try:
        with pytest.raises(BackendError,
                           match=rf"{make.__name__}\(timeout=wall_seconds\)"):
            backend.run_spmd(_noop, 2, spec=SPEC, step_budget=1)
    finally:
        if isinstance(backend, GangSupervisor):
            backend.close()


class TestValidate:
    """Result-message validation on an unstarted gang (nothing forks)."""

    @pytest.fixture
    def gang(self):
        g = _Gang(2, 3, resolve_transport(None), "auto",
                  spawn_chaos=[(), ()], ops=[{}, {}])
        yield g
        g.reap()

    def test_ok_report_decoded(self, gang):
        blob = pickle.dumps(("result", "snapshot", None, None))
        assert gang._validate(("ok", 1, 3, 7, blob), 7) == (
            1, ("result", "snapshot", None, None))

    @pytest.mark.parametrize("msg", [
        ("ok", 1, 2, 7, b""),       # an earlier epoch
        ("ok", 1, 3, 6, b""),       # an earlier op
        ("ready", 0, 3, None, None),  # the start-up handshake
    ])
    def test_stale_dropped(self, gang, msg):
        assert gang._validate(msg, 7) == (None, None)

    def test_error_is_program_error_with_traceback(self, gang):
        with pytest.raises(GangFailure) as err:
            gang._validate(("error", 1, 3, 7, "Traceback: boom"), 7)
        assert err.value.kind == "program_error"
        assert err.value.rank == 1
        assert err.value.child_traceback == "Traceback: boom"

    @pytest.mark.parametrize("msg, rank", [
        (("ok", 1, 3), 1),             # truncated (a poisoned rank)
        (("ok", 5, 3, 7, b""), 5),     # rank outside the gang
        (("done", 0, 3, 7, b""), 0),   # unknown status
        ("garbage", None),
    ])
    def test_malformed_is_poisoned(self, gang, msg, rank):
        with pytest.raises(GangFailure, match="malformed result") as err:
            gang._validate(msg, 7)
        assert (err.value.kind, err.value.rank) == ("poisoned_result", rank)

    def test_undecodable_blob_is_poisoned(self, gang):
        with pytest.raises(GangFailure, match="undecodable") as err:
            gang._validate(("ok", 0, 3, 7, b"not a pickle"), 7)
        assert (err.value.kind, err.value.rank) == ("poisoned_result", 0)


class TestDeadline:
    def test_unbounded_wait_without_timeout_or_cap(self):
        assert Deadline(None).remaining() is None
        assert Deadline(None).remaining(cap=0.25) == 0.25

    def test_capped_by_time_left(self):
        d = Deadline(60.0)
        assert d.remaining(cap=0.25) == 0.25
        assert 59.0 < d.remaining() <= 60.0
        assert not d.expired()
