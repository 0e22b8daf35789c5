"""Tests for the benchmark's own helpers: inputs, tracing and statistics."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = inputs.WORKLOADS[name]
    assert inputs.gold_corpus(workload, 3) == inputs.gold_corpus(workload, 3)
    assert inputs.classify_stream(workload, 3) == inputs.classify_stream(workload, 3)
    assert inputs.gold_corpus(workload, 3) != inputs.gold_corpus(workload, 4)
    assert inputs.classify_stream(workload, 3) != inputs.classify_stream(workload, 4)


def test_gold_corpus_has_both_classes_for_every_emotion():
    for workload in inputs.WORKLOADS.values():
        docs = inputs.gold_corpus(workload, 0)
        assert len(docs) == workload.n_gold
        for emotion in workload.emotions:
            positives = sum(labels[emotion] for _, _, labels in docs)
            assert 0 < positives < len(docs)


def is_hostile(text):
    return "<code>x <code>x " in text


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_hostile_share_is_exact(seed):
    forum = inputs.WORKLOADS["forum-markup"]
    stream = inputs.classify_stream(forum, seed)
    hostile = [text for _, text in stream if is_hostile(text)]
    assert len(stream) == inputs.STREAM_DOCS
    assert len(hostile) == round(forum.hostile_share * inputs.STREAM_DOCS) == 20
    assert all(7_500 <= len(text) <= 9_500 for text in hostile)
    assert all("<<<" in text for text in hostile)
    plain = inputs.classify_stream(inputs.WORKLOADS["train-c07"], seed)
    assert not any(is_hostile(text) for _, text in plain)


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def middle():
        tracer.call("c", lambda: None)

    def outer():
        tracer.call("a", lambda: None)
        return tracer.call("b", middle)

    tracer.call("outer", outer)
    stats = tracer.phase_stats("setup")
    assert {name: s.self_s for name, s in stats.items()} == {
        "outer": 4.0, "a": 2.0, "b": 3.0, "c": 1.0,
    }
    assert stats["b"].total_s == 4.0
    assert sum(s.self_s for s in stats.values()) == stats["outer"].total_s


def test_self_time_is_kept_when_a_span_raises():
    ticks = iter([0.0, 2.0, 5.0, 6.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def fails():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            tracer.call("inner", fails)

    tracer.call("outer", outer)
    stats = tracer.phase_stats("setup")
    assert stats["inner"].self_s == 3.0 and stats["outer"].self_s == 3.0


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_lib")

    def leaf(x):
        return x + 1

    def entry(x):
        return module.leaf(x) * 2

    class Factory:
        @classmethod
        def build(cls, x):
            return cls, x

    module.leaf, module.entry, module.Factory = leaf, entry, Factory
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_wrap_traces_calls_and_reports_absent_names(fake_module):
    original_leaf = fake_module.leaf
    original_build = vars(fake_module.Factory)["build"]
    tracer = spans.Tracer()
    tracer.wrap("perfbench_fake_lib.entry", "entry")
    tracer.wrap("perfbench_fake_lib.leaf", "leaf")
    tracer.wrap("perfbench_fake_lib.Factory.build", "build")
    tracer.wrap("perfbench_fake_lib.renamed_away", "gone")
    tracer.wrap("perfbench_fake_lib.NoSuchClass.method", "gone")
    tracer.wrap("no_such_package_for_perfbench.func", "gone")

    tracer.phase = "train"
    assert fake_module.entry(1) == 4
    assert fake_module.Factory.build(5) == (fake_module.Factory, 5)
    stats = tracer.phase_stats("train")
    assert {name: s.calls for name, s in stats.items()} == {"entry": 1, "leaf": 1, "build": 1}
    assert tracer.wrapped == ["perfbench_fake_lib.entry", "perfbench_fake_lib.leaf",
                              "perfbench_fake_lib.Factory.build"]
    assert tracer.absent == ["perfbench_fake_lib.renamed_away",
                             "perfbench_fake_lib.NoSuchClass.method",
                             "no_such_package_for_perfbench.func"]

    tracer.unwrap_all()
    assert fake_module.leaf is original_leaf
    assert vars(fake_module.Factory)["build"] is original_build


def test_phase_as_restores_the_phase():
    tracer = spans.Tracer()
    tracer.phase = "classify"
    with tracer.phase_as("check"):
        tracer.call("x", lambda: None)
    assert tracer.phase == "classify"
    assert list(tracer.phase_stats("check")) == ["x"]


def test_p90_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]          # 100 samples
    assert measure.tail_percentile(samples) == 90.0       # 91..100 lie above it
    assert measure.tail_percentile(samples[:99]) is None  # only nine above
    assert measure.tail_percentile([]) is None
    shuffled = samples[50:] + samples[:50]
    assert measure.tail_percentile(shuffled) == 90.0
    assert measure.tail_percentile(samples, q=0.5, min_beyond=50) == 50.0
