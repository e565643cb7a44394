"""The seed must not change any pinned answer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_seed.py

Runs every job of every workload on two seeds (about a minute in all) and
checks each answer against answers.json, that each seed keeps the job set
while permuting it, and that the diagonal scalings really move the inputs.
"""

from __future__ import annotations

import pytest

import workloads

SEEDS = (1, 2)


def test_every_job_has_a_pinned_answer():
    answers = workloads.load_answers()
    keys = {k for name in workloads.WORKLOADS for s in workloads.JOBS[name] for k in s.answer_keys()}
    assert keys == set(answers)
    assert all(answers[k]["source"] for k in keys)


def test_seeds_permute_jobs_and_scale_inputs():
    for name in workloads.WORKLOADS:
        orders = [[s.id for s in workloads.job_order(name, seed)] for seed in SEEDS]
        assert sorted(orders[0]) == sorted(orders[1]) == sorted(s.id for s in workloads.JOBS[name])
        assert orders[0] != orders[1]
    scales = [workloads.scalings(seed) for seed in SEEDS]
    odd = [n for n, inp in workloads.INPUTS.items() if inp.char > 2]
    assert any(scales[0][n] != scales[1][n] for n in odd)
    for c in scales:
        for n, inp in workloads.INPUTS.items():
            assert all(1 <= ci < inp.char for ci in c[n])
    moved = 0
    for n in odd:
        inp = workloads.INPUTS[n]
        plain = workloads.build_input(inp, (1,) * len(inp.variables), None).ideal
        scaled = workloads.build_input(inp, scales[0][n], None).ideal
        assert [sorted(e for e, _ in g.terms) for g in plain.generators] == [
            sorted(e for e, _ in g.terms) for g in scaled.generators
        ]
        moved += plain != scaled
    assert moved


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pinned_answers_hold_for_seed(workload, seed, tmp_path):
    answers = workloads.load_answers()
    jobs = workloads.build(workload, seed, tmp_path)
    assert [j.id for j in jobs] == [s.id for s in workloads.job_order(workload, seed)]
    for job in jobs:
        assert workloads.check(job, job.run(), answers) is None
