"""Self-time arithmetic on hand-built span trees, and the wrappers' undo."""

import pytest

import spans
from spans import Span


def _span(id, name, parent, start, end, request=None):
    return Span(id=id, name=name, parent=parent, request=request, thread="t", start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, "serve.batch", None, 0.0, 10.0),
        # Overlapping children cover [1, 5] once, not 2 + 3 times.
        _span(2, "pipeline.answer_query", 1, 1.0, 3.0),
        _span(3, "gsp.propagate", 1, 2.0, 5.0),
        # A child running past its parent only covers the parent's part.
        _span(4, "crowd.probe", 1, 8.0, 12.0),
        _span(5, "ocs.select", 2, 1.5, 2.5),
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)


def test_layer_totals_skip_client_waits():
    tree = [
        _span(1, "serve.result", None, 0.0, 9.0),
        _span(2, "serve.batch", None, 1.0, 8.0),
        _span(3, "gsp.propagate_batch", 2, 2.0, 7.0),
        _span(4, "gsp.propagate", 3, 2.0, 6.0),
    ]
    busy = spans.layer_self_seconds(tree)
    assert busy["serve"] == pytest.approx(2.0)
    assert busy["core.gsp"] == pytest.approx(5.0)
    assert sum(busy.values()) == pytest.approx(7.0)


def test_recorder_nests_spans_and_inherits_the_request():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    with recorder.span("pipeline.answer_query", request=7):
        with recorder.span("gsp.propagate") as inner:
            pass
    outer = next(s for s in recorder.spans if s.name == "pipeline.answer_query")
    assert inner.parent == outer.id and inner.request == 7
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)


def test_installed_wraps_then_restores():
    from repro.core import pipeline
    from repro.core.gsp import GSPEngine

    before = (GSPEngine.__dict__["propagate"], dict(pipeline.SELECTORS), pipeline.trivial_solution)
    with spans.installed(spans.Recorder()):
        assert GSPEngine.__dict__["propagate"] is not before[0]
        assert pipeline.SELECTORS["hybrid"] is not before[1]["hybrid"]
    after = (GSPEngine.__dict__["propagate"], dict(pipeline.SELECTORS), pipeline.trivial_solution)
    assert after == before
