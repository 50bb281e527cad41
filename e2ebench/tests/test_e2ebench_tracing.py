"""Self-time subtraction, nesting checks, and wrapper install/restore."""

import threading

from tracing import Span, Tracer, check_nesting, install, layer_totals, self_times


def span(sid, start, end, parent=None, layer="x", name=None):
    return Span(sid, name or f"s{sid}", layer, start, end, parent, 0, 1)


def test_self_time_subtracts_children():
    spans = [span(0, 0, 100), span(1, 10, 30, 0), span(2, 50, 90, 0)]
    assert self_times(spans) == {0: 40, 1: 20, 2: 40}


def test_self_time_counts_overlapping_children_once():
    # children from another thread may overlap; their union is subtracted
    spans = [span(0, 0, 100), span(1, 10, 60, 0), span(2, 40, 80, 0)]
    assert self_times(spans)[0] == 30


def test_self_time_clips_overhanging_children():
    spans = [span(0, 0, 100), span(1, 90, 130, 0)]
    assert self_times(spans)[0] == 90


def test_grandchildren_only_subtract_from_their_own_parent():
    spans = [span(0, 0, 100), span(1, 0, 50, 0), span(2, 10, 40, 1)]
    assert self_times(spans) == {0: 50, 1: 20, 2: 30}


def test_layer_totals_split_self_time_by_layer():
    spans = [
        span(0, 0, 100, layer="exec", name="exec.run"),
        span(1, 20, 60, 0, layer="storage", name="storage.page"),
        span(2, 30, 50, 1, layer="storage", name="storage.decode"),
    ]
    totals = layer_totals(spans)
    assert totals["exec"]["self_ms"] * 1e6 == 60
    assert totals["storage"]["self_ms"] * 1e6 == 40
    assert totals["storage"]["calls"] == 2
    assert totals["storage.decode"]["ms"] * 1e6 == 20


def test_check_nesting_flags_children_outside_or_past_their_parent():
    assert check_nesting([span(0, 0, 100), span(1, 10, 20, 0)]) == []
    assert check_nesting([span(0, 0, 100), span(1, 90, 110, 0)])
    assert check_nesting([span(0, 0, 10), span(1, 0, 8, 0), span(2, 2, 9, 0)])
    assert check_nesting([span(1, 0, 8, 5)])  # parent missing


class Owner:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2


class Child(Owner):
    pass


def test_install_records_nested_spans_and_restore_undoes_it():
    original_outer, original_inner = Owner.outer, Owner.inner
    tracer = Tracer()
    seen = []
    patches = install(tracer, [
        (Owner, "outer", "outer", "a"),
        (Owner, "inner", "inner", "b", lambda op, result: seen.append((op, result))),
    ])
    tracer.op = 7
    assert Owner().outer(3) == 7
    patches.restore()
    assert Owner.outer is original_outer and Owner.inner is original_inner
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["outer"].parent is None
    assert {s.op for s in tracer.spans} == {7}
    assert seen == [(7, 6)]
    assert check_nesting(tracer.spans) == []


def test_install_shadows_inherited_attributes_and_removes_them_again():
    tracer = Tracer()
    patches = install(tracer, [(Child, "inner", "inner", "b")])
    assert "inner" in vars(Child)
    assert Child().inner(2) == 4 and len(tracer.spans) == 1
    patches.restore()
    assert "inner" not in vars(Child)


def test_spans_on_other_threads_have_their_own_parents():
    tracer = Tracer()
    work = tracer.wrap("work", "t", lambda: None)
    outer = tracer.wrap("outer", "t", lambda: thread_run(work))

    def thread_run(fn):
        thread = threading.Thread(target=fn)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["work"].parent is None
