import types

import pytest

from spans import Span, Tracer, self_times


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_of_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("other-root", 11.0, 12.5, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_recorded_nest_has_parents_and_self_times():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]))
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("leaf", 1)]
    assert self_times(tracer.spans) == [10.0 - 3.0, 3.0 - 1.0, 1.0]


def test_out_of_order_close_is_an_error():
    tracer = Tracer()
    first = tracer.open("first")
    tracer.open("second")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_patch_records_spans_and_restore_brings_back_originals():
    def double(x):
        return 2 * x

    class Base:
        def run(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    mod = types.SimpleNamespace(double=double)
    originals = (mod.double, vars(Base)["run"], vars(Child)["own"])
    tracer = Tracer()
    tracer.patch(mod, "double", "mod.double")
    tracer.patch_method(Base, "run", lambda self: f"{type(self).__name__}.run")
    tracer.patch_method(Child, "own", lambda self: "Child.own")
    assert mod.double(3) == 6
    assert Child().run() == "base" and Child().own() == "own"
    assert [s.name for s in tracer.spans] == ["mod.double", "Child.run", "Child.own"]
    assert mod.double is not originals[0]

    tracer.restore()
    assert tracer.patched == 0
    assert (mod.double, vars(Base)["run"], vars(Child)["own"]) == originals
    assert "run" not in vars(Child)


def test_patch_method_rejects_inherited_attribute():
    class Base:
        def run(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().patch_method(Child, "run", lambda self: "x")


def test_exception_closes_span():
    def boom():
        raise ValueError("boom")

    mod = types.SimpleNamespace(boom=boom)
    tracer = Tracer()
    tracer.patch(mod, "boom", "boom")
    with pytest.raises(ValueError):
        mod.boom()
    tracer.restore()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert not tracer._stack
