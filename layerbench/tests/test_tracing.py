"""Span recording and self-time arithmetic."""

import threading

import pytest

from tracing import Recorder, layer_self_times, self_times, union_length, window


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_times_hand_built_tree():
    #   a [0, 10]
    #   |- b [1, 4]
    #   |   `- c [2, 3]
    #   `- d [5, 9]
    #       `- e [6, 7]  and  f [6.5, 8]  (overlapping children)
    # g [20, 21] is a second top-level span.
    spans = [
        ["x.a", 0.0, 10.0, None, None, None],
        ["y.b", 1.0, 4.0, 0, None, None],
        ["z.c", 2.0, 3.0, 1, None, None],
        ["y.d", 5.0, 9.0, 0, None, None],
        ["z.e", 6.0, 7.0, 3, None, None],
        ["z.f", 6.5, 8.0, 3, None, None],
        ["x.g", 20.0, 21.0, None, None, None],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5, 1.0])
    # Without overlapping siblings self times telescope to the top-level
    # durations (11); e and f overlap by 0.5, which both keep.
    assert sum(self_times(spans)) == pytest.approx(11.5)
    assert layer_self_times(spans) == pytest.approx({"x": 4.0, "y": 4.0, "z": 3.5})


def test_child_sticking_out_of_parent_is_clipped():
    spans = [["a.p", 0.0, 2.0, None, None, None], ["a.c", 1.0, 5.0, 0, None, None]]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recorder_nests_per_thread_and_notes_results():
    rec = Recorder()
    inner = rec.wrap("l.inner", lambda x: x * 2, note=lambda a, k, out: out)
    outer = rec.wrap("l.outer", lambda x: inner(x) + 1, ids=lambda a, k, out: [f"r{a[0]}"])
    assert outer(3) == 7
    t = threading.Thread(target=inner, args=(5,))
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    names = {s[0]: s for s in rec.spans}
    assert names["l.outer"][3] is None and names["l.outer"][4] == ["r3"]
    in_main = [s for s in rec.spans if s[0] == "l.inner" and s[5] == 6]
    in_thread = [s for s in rec.spans if s[0] == "l.inner" and s[5] == 10]
    assert rec.spans[in_main[0][3]][0] == "l.outer"
    assert in_thread[0][3] is None


def test_recorder_records_failures_and_can_be_disabled():
    rec = Recorder()

    def boom():
        raise ValueError("x")

    f = rec.wrap("l.boom", boom)
    with pytest.raises(ValueError):
        f()
    assert rec.spans[0][5] == {"error": True}
    rec.enabled = False
    with pytest.raises(ValueError):
        f()
    assert len(rec.spans) == 1


def test_window_reindexes_parents():
    spans = [
        ["a.x", 0.0, 1.0, None, None, None],
        ["a.y", 5.0, 9.0, None, None, None],
        ["a.z", 6.0, 7.0, 1, None, None],
    ]
    w = window(spans, 4.0, 10.0)
    assert [s[0] for s in w] == ["a.y", "a.z"]
    assert w[1][3] == 0
