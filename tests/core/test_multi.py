"""Gang PACK: k arrays under one mask share one ranking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.multi import pack_many
from repro.core.plan_cache import PlanCache
from repro.machine import MachineSpec
from repro.obs import MetricsRegistry
from repro.serial import pack_reference

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")


class TestGangCorrectness:
    @pytest.mark.parametrize("scheme", ["sss", "css", "cms"])
    def test_each_vector_matches_solo_pack(self, scheme):
        rng = np.random.default_rng(0)
        arrays = [rng.random(128) for _ in range(3)]
        m = rng.random(128) < 0.5
        vectors = pack_many(arrays, m, grid=4, block=4, scheme=scheme,
                            spec=SPEC).vectors
        for a, v in zip(arrays, vectors):
            np.testing.assert_array_equal(v, pack_reference(a, m))

    def test_2d(self):
        rng = np.random.default_rng(1)
        arrays = [rng.random((16, 16)) for _ in range(2)]
        m = rng.random((16, 16)) < 0.3
        vectors = pack_many(arrays, m, grid=(2, 2), block=(2, 2), spec=SPEC).vectors
        for a, v in zip(arrays, vectors):
            np.testing.assert_array_equal(v, pack_reference(a, m))

    def test_mixed_dtypes(self):
        rng = np.random.default_rng(2)
        arrays = [rng.random(64), (rng.random(64) * 100).astype(np.int64)]
        m = rng.random(64) < 0.5
        vectors = pack_many(arrays, m, grid=4, block=2, spec=SPEC).vectors
        assert vectors[0].dtype == np.float64
        assert vectors[1].dtype == np.int64

    def test_empty_gang_rejected(self):
        with pytest.raises(ValueError):
            pack_many([], np.ones(8, bool), grid=2, block=2, spec=SPEC)

    def test_single_array_gang(self):
        rng = np.random.default_rng(3)
        a = rng.random(64)
        m = rng.random(64) < 0.7
        vectors = pack_many([a], m, grid=4, block=2, spec=SPEC).vectors
        np.testing.assert_array_equal(vectors[0], pack_reference(a, m))


class TestAmortization:
    def test_gang_cheaper_than_solo_packs(self):
        """k gang-packed arrays must cost well under k solo packs — the
        ranking, PRS, send-vector and rescan stages are shared."""
        rng = np.random.default_rng(4)
        k = 4
        arrays = [rng.random(2048) for _ in range(k)]
        m = rng.random(2048) < 0.5

        gang_run = pack_many(arrays, m, grid=16, block=4,
                             scheme="css", spec=SPEC).run
        solo_total = sum(
            repro.pack(a, m, grid=16, block=4, scheme="css", spec=SPEC).run.elapsed
            for a in arrays
        )
        assert gang_run.elapsed < 0.75 * solo_total

    def test_ranking_charged_once(self):
        rng = np.random.default_rng(5)
        arrays = [rng.random(512) for _ in range(3)]
        m = rng.random(512) < 0.5
        run = pack_many(arrays, m, grid=4, block=4, scheme="css", spec=SPEC).run
        names = set(run.phase_names())
        # One ranking phase set; three per-array comm/compose phases.
        assert "gang.ranking.initial" in names
        assert {f"gang.comm.{k}" for k in range(3)} <= names
        assert "gang.ranking.initial.1" not in names


def _relative_phases(run, prefix):
    """Per-rank phase times with the program prefix and the gang's ``.0``
    array suffix stripped, so a one-array gang lines up with solo PACK."""
    out = []
    for st in run.stats:
        phases = {}
        for name, t in st.phase_times.items():
            assert name.startswith(prefix), name
            rel = name[len(prefix):]
            phases[rel[:-2] if rel.endswith(".0") else rel] = t
        out.append(phases)
    return out


def _assert_same_run(gang_run, solo_run):
    assert gang_run.elapsed == solo_run.elapsed
    assert gang_run.total_words == solo_run.total_words
    assert (_relative_phases(gang_run, "gang.")
            == _relative_phases(solo_run, "pack."))


class TestOneArrayGangIsSoloPack:
    """A gang of one is solo PACK: same prefix, same data movement, so the
    same simulated time, traffic and phase charges — and the plan either
    one compiles replays under the other."""

    LAYOUTS = {
        "1d-block": ((256,), 4, None),
        "1d-cyclic4": ((256,), 4, 4),
        "2d-cyclic4": ((32, 32), (2, 2), 4),
    }

    @pytest.mark.parametrize("scheme", ["sss", "css", "cms"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_identical_run(self, scheme, layout):
        shape, grid, block = self.LAYOUTS[layout]
        rng = np.random.default_rng(11)
        a = rng.random(shape)
        m = rng.random(shape) < 0.5
        solo = repro.pack(a, m, grid, block=block, scheme=scheme)
        gang = pack_many([a], m, grid, block=block, scheme=scheme)
        np.testing.assert_array_equal(gang.vectors[0], solo.vector)
        _assert_same_run(gang.run, solo.run)

        # A plan compiled by either replays under the other, bit-identically.
        cache = PlanCache()
        repro.pack(a, m, grid, block=block, scheme=scheme, plan_cache=cache)
        hit = pack_many([a], m, grid, block=block, scheme=scheme,
                        plan_cache=cache)
        assert hit.plan_info["cache"] == "hit"
        _assert_same_run(hit.run, solo.run)

        cache = PlanCache()
        pack_many([a], m, grid, block=block, scheme=scheme, plan_cache=cache)
        hit = repro.pack(a, m, grid, block=block, scheme=scheme,
                         plan_cache=cache)
        assert hit.plan_info["cache"] == "hit"
        _assert_same_run(gang.run, hit.run)


class TestPlanReporting:
    """pack_many reports its plan-cache outcome exactly as pack does."""

    def test_miss_then_hit_with_metrics(self):
        rng = np.random.default_rng(12)
        arrays = [rng.random(256) for _ in range(3)]
        m = rng.random(256) < 0.5
        cache = PlanCache()
        reg = MetricsRegistry()
        first = pack_many(arrays, m, 4, block=4, plan_cache=cache, metrics=reg)
        second = pack_many(arrays, m, 4, block=4, plan_cache=cache, metrics=reg)
        assert first.plan_info["cache"] == "miss"
        assert second.plan_info["cache"] == "hit"
        assert second.plan_info["compile_ms"] == 0.0
        assert first.plan_info["fingerprint"] == second.plan_info["fingerprint"]
        solo = repro.pack(arrays[0], m, 4, block=4, plan_cache=PlanCache())
        assert set(first.plan_info) == set(solo.plan_info)
        assert reg.value("plan_cache.miss") == 1
        assert reg.value("plan_cache.hit") == 1
        assert reg.get("plan.compile_ms").count == 2
        for a, v in zip(arrays, second.vectors):
            np.testing.assert_array_equal(v, pack_reference(a, m))

    def test_reliability_is_off_and_stores_nothing(self):
        rng = np.random.default_rng(13)
        arrays = [rng.random(128) for _ in range(2)]
        m = rng.random(128) < 0.5
        cache = PlanCache()
        res = pack_many(arrays, m, 4, block=4, plan_cache=cache,
                        reliability=True)
        assert res.plan_info == {"cache": "off", "compile_ms": None}
        assert len(cache) == 0

    def test_no_cache_no_plan_info(self):
        res = pack_many([np.arange(16.0)], np.ones(16, bool), 4, block=2)
        assert res.plan_info is None


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(1, 4),
    density=st.floats(0, 1),
    w=st.integers(1, 4),
    seed=st.integers(0, 99),
)
def test_property_gang_matches_solo(k, density, w, seed):
    rng = np.random.default_rng(seed)
    n = 4 * w * 4
    arrays = [rng.random(n) for _ in range(k)]
    m = rng.random(n) < density
    vectors = pack_many(arrays, m, grid=4, block=w, spec=SPEC).vectors
    for a, v in zip(arrays, vectors):
        np.testing.assert_array_equal(v, pack_reference(a, m))
