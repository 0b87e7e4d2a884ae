"""The same seed gives the same inputs; another seed gives other inputs."""

import pytest

import inputs
from repro.datasets import SemiSynConfig, build_semisyn

SLOTS = tuple(range(84, 108))


@pytest.fixture(scope="module")
def history():
    config = SemiSynConfig(
        n_roads=60, n_queried=12, n_train_days=4, n_test_days=6, n_slots=4, seed=3
    )
    return build_semisyn(config).test_history


@pytest.mark.parametrize("make", [inputs.citywide_specs, inputs.hotspot_plan, inputs.refresh_plan])
def test_plans_depend_only_on_the_seed(make):
    assert make(7, SLOTS, 607, 20) == make(7, SLOTS, 607, 20)
    assert make(7, SLOTS, 607, 20) != make(8, SLOTS, 607, 20)


def test_plan_shapes_match_the_workloads():
    city = inputs.citywide_specs(1, SLOTS, 607, 20)
    assert len({spec.queried for spec in city}) == len(city) == inputs.CITYWIDE_REQUESTS
    assert {spec.slot for spec in city} == set(SLOTS)
    assert all(len(spec.queried) == inputs.PAPER_QUERIED for spec in city)

    hot = inputs.hotspot_plan(1, SLOTS, 607, 20)
    assert len(hot.pairs) == inputs.HOTSPOT_PAIRS * inputs.HOTSPOT_EPOCHS
    assert len(hot.bursts) == inputs.HOTSPOT_BURSTS * inputs.HOTSPOT_EPOCHS
    assert len({pair.slot for pair in hot.pairs}) == inputs.HOTSPOT_EPOCHS
    for epoch in range(inputs.HOTSPOT_EPOCHS):
        bursts = hot.bursts[epoch * inputs.HOTSPOT_BURSTS:(epoch + 1) * inputs.HOTSPOT_BURSTS]
        asked = {k for burst in bursts for k in burst}
        assert asked <= set(range(epoch * inputs.HOTSPOT_PAIRS, (epoch + 1) * inputs.HOTSPOT_PAIRS))
        assert len({hot.pairs[k].slot for k in asked}) == 1
        assert all(len(burst) == inputs.HOTSPOT_BURST for burst in bursts)

    refresh = inputs.refresh_plan(1, SLOTS, 607, 20)
    assert list(refresh.days) == list(range(refresh.days[0], refresh.days[0] + inputs.REFRESH_DAYS))
    assert set(refresh.reads) == {(d, s) for d in refresh.days for s in SLOTS}


def test_feed_depends_only_on_the_seed(history):
    slots = history.global_slots
    plan = inputs.refresh_plan(4, slots, history.n_roads, history.n_days)
    again = inputs.refresh_plan(4, slots, history.n_roads, history.n_days)
    other = inputs.refresh_plan(5, slots, history.n_roads, history.n_days)
    feed = inputs.day_feeds(history, plan)
    assert feed == inputs.day_feeds(history, again)
    assert feed != inputs.day_feeds(history, other)
    assert all(len(day) > 0 for day in feed)
