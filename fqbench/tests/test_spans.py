"""Self-time arithmetic and boundary wrapping of the traced run."""

import sys
import types

import layers
from spans import BOOKKEEPING, Tracer, metric_seconds, self_times


def fake_clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 6], which holds b [2, 4]; then c [7, 9].
    t = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 9.0, 10.0))

    def a():
        return t.call("b", "m.b", lambda: "done")

    def root():
        t.call("a", "m.a", a)
        t.call("c", "m.c", lambda: None)

    t.call("root", "m.root", root)
    assert [s[0] for s in t.spans] == ["root", "a", "b", "c"]
    assert [s[2] for s in t.spans] == [None, 0, 1, 0]
    assert self_times(t.spans) == [3.0, 3.0, 2.0, 2.0]
    seconds = metric_seconds(t.spans)
    assert seconds == {"m.root": 3.0, "m.a": 3.0, "m.b": 2.0, "m.c": 2.0}
    assert sum(seconds.values()) == 10.0


def test_spans_of_one_metric_add_up_and_scale_per_command():
    t = Tracer(clock=fake_clock(0.0, 1.0, 1.0, 4.0))
    t.command = 0
    t.call("x", "m", lambda: None)
    t.command = 1
    t.call("y", "m", lambda: None)
    assert [s[5] for s in t.spans] == [0, 1]
    assert metric_seconds(t.spans) == {"m": 4.0}
    assert metric_seconds(t.spans, factors=[2.0, 0.5]) == {"m": 2.0 + 1.5}


def test_counter_runs_in_a_bookkeeping_span_after_the_call():
    t = Tracer(clock=fake_clock(0.0, 1.0, 1.0, 1.5))

    def count(counts, args, kwargs, result):
        counts["work"] += args[0] * len(result)

    wrapped = t.wrap(lambda n: "ab", "f", "m.f", count)
    assert wrapped(3) == "ab"
    assert dict(t.counts) == {"work": 6}
    assert [(s[1], s[2]) for s in t.spans] == [("m.f", None), (BOOKKEEPING, None)]
    assert metric_seconds(t.spans) == {"m.f": 1.0, BOOKKEEPING: 0.5}


def test_a_broken_counter_does_not_fail_the_call():
    t = Tracer()

    def count(counts, args, kwargs, result):
        raise KeyError("pts")

    assert t.wrap(lambda: 7, "f", "m.f", count)() == 7
    assert t.counts["trace.counter_errors"] == 1


def test_an_exception_still_closes_the_span():
    t = Tracer(clock=fake_clock(0.0, 2.0))

    def boom():
        raise ValueError("bad input")

    try:
        t.call("f", "m.f", boom)
    except ValueError:
        pass
    assert metric_seconds(t.spans) == {"m.f": 2.0}
    assert t._stack == []


def test_install_skips_boundaries_that_no_longer_exist(monkeypatch):
    module = types.ModuleType("fake_program")
    module.present = lambda: "here"
    monkeypatch.setitem(sys.modules, "fake_program", module)
    monkeypatch.setattr(
        layers,
        "BOUNDARIES",
        (
            ("fake_program:present", "m.present", None),
            ("fake_program:removed", "m.removed", None),
            ("fake_program:Gone.method", "m.gone", None),
            ("no_such_module_anywhere:f", "m.f", None),
        ),
    )
    t = Tracer()
    assert layers.install(t) == ["fake_program:present"]
    assert module.present() == "here"
    assert [s[1] for s in t.spans] == ["m.present"]
