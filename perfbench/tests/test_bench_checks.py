"""The correctness and fixed-work checks reject what they must."""

import numpy as np

import checks

COUNTS = {
    "served": 100, "degraded": 0, "errors": 0, "coalesced": 12,
    "gsp_sweeps": 2763, "probes_bought": 3000, "publishes": 0,
}


def _answer(estimates, truths=(50.0, 40.0), per=(60.0, 30.0)):
    return checks.Answer(
        queried=(3, 9), estimates=np.asarray(estimates, dtype=float),
        truths=np.asarray(truths), per=np.asarray(per),
    )


def test_good_answers_pass():
    assert checks.answer_problems([_answer([51.0, 39.0]), _answer([49.0, 41.0])]) == []


def test_corrupted_answers_are_rejected():
    assert checks.answer_problems([_answer([51.0, np.nan])])
    assert checks.answer_problems([_answer([51.0, -2.0])])
    assert checks.answer_problems([_answer([51.0])])
    assert checks.answer_problems([])


def test_answers_no_better_than_per_are_rejected():
    problems = checks.answer_problems([_answer([60.0, 30.0])])
    assert problems and "Per baseline" in problems[0]


def test_a_different_sweep_count_is_different_work():
    assert checks.work_problems(COUNTS, dict(COUNTS), "pass 2") == []
    problems = checks.work_problems(COUNTS, {**COUNTS, "gsp_sweeps": 2764}, "pass 2")
    assert len(problems) == 1 and "gsp_sweeps" in problems[0]


def test_counts_are_recorded_then_enforced(tmp_path):
    record = tmp_path / "work" / "citywide-1.json"
    assert checks.recorded_work_problems(record, COUNTS) == []
    assert record.is_file()
    assert checks.recorded_work_problems(record, COUNTS) == []
    assert checks.recorded_work_problems(record, {**COUNTS, "coalesced": 11})
