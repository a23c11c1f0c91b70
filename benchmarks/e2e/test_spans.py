"""Self-tests: span recorder, self-time arithmetic, wrapper install/remove."""

from contextlib import contextmanager

import pytest

from .spans import LAYER, NAME, OP_ID, PARENT, SIZE, Recorder, self_times


class FakeClock:
    """Every reading advances time by one tick, unless work() adds more."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now

    def work(self, seconds):
        self.now += seconds


def by_name(rec):
    own = self_times(rec.spans)
    return {span[NAME]: (span, own[i]) for i, span in enumerate(rec.spans)}


def test_nested_and_sibling_self_time():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("root", "a"):
        clock.work(10)
        with rec.span("child1", "b"):
            clock.work(5)
            with rec.span("grandchild", "c"):
                clock.work(2)
        with rec.span("child2", "b"):
            clock.work(3)
    spans = by_name(rec)
    # Durations include one tick per clock reading taken inside them.
    root, root_self = spans["root"]
    child1, child1_self = spans["child1"]
    assert child1[PARENT] == 0 and spans["child2"][0][PARENT] == 0
    assert spans["grandchild"][0][PARENT] == rec.spans.index(child1)
    assert spans["grandchild"][1] == 3.0  # 2 work + its closing tick
    assert child1_self == pytest.approx((child1[3] - child1[2]) - 3.0)
    total = sum(self_times(rec.spans))
    assert total == pytest.approx(root[3] - root[2])  # self times sum to the root


def test_reentrant_spans_do_not_double_count():
    clock = FakeClock()
    rec = Recorder(clock)

    def fact(n):
        clock.work(1)
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = rec.wrap(fact, "fact", "math")
    assert wrapped(3) == 6
    assert len(rec.spans) == 4
    assert [span[PARENT] for span in rec.spans] == [-1, 0, 1, 2]
    root = rec.spans[0]
    assert sum(self_times(rec.spans)) == pytest.approx(root[3] - root[2])


def test_generator_result_is_attributed_to_the_consuming_op():
    clock = FakeClock()
    rec = Recorder(clock)

    def chunks(n):
        for i in range(n):
            clock.work(4)
            yield i

    produce = rec.wrap(chunks, "chunks", "pfs")
    rec.op_id = 1
    stream = produce(2)  # created under op 1, no work done yet
    rec.op_id = 2
    with rec.span("consumer", "tls"):
        assert list(stream) == [0, 1]
    consumer = next(i for i, s in enumerate(rec.spans) if s[NAME] == "consumer")
    drains = [s for s in rec.spans if s[NAME] == "chunks" and s[PARENT] == consumer]
    assert len(drains) == 3  # two items and the final StopIteration resume
    assert all(s[OP_ID] == 2 for s in drains)
    assert sum(s[3] - s[2] for s in drains) >= 8.0
    own = self_times(rec.spans)
    assert own[consumer] < 8.0  # the generator's work is not the consumer's self time


def test_context_manager_wrapper_splits_enter_and_exit():
    clock = FakeClock()
    rec = Recorder(clock)
    events = []

    @contextmanager
    def transaction(label):
        clock.work(2)
        events.append("enter " + label)
        try:
            yield "handle"
        finally:
            clock.work(7)
            events.append("exit " + label)

    wrapped = rec.wrap_context(transaction, "txn", "engine")
    with wrapped("t1") as value:
        clock.work(100)  # the caller's work: in no engine span
    assert value == "handle" and events == ["enter t1", "exit t1"]
    names = [s[NAME] for s in rec.spans]
    assert names == ["txn.enter", "txn.exit"]
    assert sum(s[3] - s[2] for s in rec.spans) < 20.0

    with pytest.raises(KeyError):
        with wrapped("t2"):
            raise KeyError("boom")
    assert events[-1] == "exit t2" and rec.spans[-1][NAME] == "txn.exit"


def test_size_callback_and_op_id():
    rec = Recorder(FakeClock())
    put = rec.wrap(lambda key, value: None, "put", "store", size=lambda r, a, k: len(a[1]))
    rec.op_id = 9
    put("k", b"12345")
    assert rec.spans[0][SIZE] == 5 and rec.spans[0][OP_ID] == 9 and rec.spans[0][LAYER] == "store"


def test_install_and_remove_leave_classes_identical():
    class Base:
        def inherited(self):
            return "base"

    class Thing(Base):
        def own(self, x):
            return x + 1

    before = dict(Thing.__dict__)
    rec = Recorder(FakeClock())
    rec.install(Thing, "own", "layer")
    rec.install(Thing, "inherited", "layer")
    thing = Thing()
    assert thing.own(1) == 2 and thing.inherited() == "base"
    assert [s[NAME] for s in rec.spans] == ["Thing.own", "Thing.inherited"]
    rec.remove()
    assert dict(Thing.__dict__) == before
    assert "inherited" not in Thing.__dict__ and Base.inherited is Thing.inherited
    assert thing.own(1) == 2 and len(rec.spans) == 2
