"""Checks of the seeded scenario generator.

Run from the root of a checkout: python3 -m pytest perfbench/test_scenarios.py
"""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from scenarios import (  # noqa: E402
    MAX_STEP_POINTS,
    WORKLOADS,
    build_plan,
    exact_cases,
    step_bound,
    write_plan,
)

SEEDS = range(200)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    for seed in (0, 1, 12345):
        first, second = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
        first.mkdir()
        second.mkdir()
        write_plan(build_plan(workload, seed), first)
        write_plan(build_plan(workload, seed), second)
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
    assert build_plan(workload, 0).files != build_plan(workload, 1).files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_seed_exceeds_the_cost_cap(workload):
    costs = [build_plan(workload, seed).step_points for seed in SEEDS]
    assert max(costs) <= MAX_STEP_POINTS
    # Seeds move the work by at most the jitter, so every seed costs about the same.
    assert max(costs) <= 1.05 * min(costs)


def test_step_bound_covers_the_step_policy():
    sys.path.insert(0, str(Path.cwd() / "src"))
    dynamics = pytest.importorskip("fps.dynamics")
    policy = getattr(dynamics, "default_step_count", None)
    if policy is None:
        pytest.skip("this fps has no default_step_count")
    from checks import objects

    for seed in range(5):
        for _, flat, _ in exact_cases(random.Random(seed)):
            fiber, pump, grid = objects(flat)
            for length in flat["lengths_km"]:
                fiber_l = replace(fiber, length=length)
                steps = policy(fiber_l, pump, flat["regime"], grid.omegas)
                assert step_bound(flat, length) >= steps


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        build_plan("no-such-workload", 0)
