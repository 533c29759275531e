"""Smoke test of the benchmark: every workload at smoke size, untraced and
traced, must emit every metric named in BENCHMARK.json and pass every
output check.  Not part of the tier-1 suite; run it with

    python -m pytest perfbench
"""

import pytest

import run


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke(workload, trace):
    assert run.smoke_problems(workload, trace) == []
