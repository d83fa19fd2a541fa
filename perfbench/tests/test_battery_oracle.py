"""The exact answer for battery check 3 agrees with the check itself,
on seeds where it passes and on seeds where its 1e-4 gap is exceeded.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import pytest

import rigidlab
import workloads


@pytest.mark.parametrize("seed, passes", [
    (0, True), (1, True), (788766534, False), (930287327, False),
])
def test_limit_check_truth_matches_check(seed, passes):
    ok, gap = workloads.limit_check_truth(seed)
    result = rigidlab.run_check(workloads.LIMIT_CHECK, seed, None)
    assert ok is passes is result.passed
    if not ok:
        assert gap > workloads.LIMIT_TOL
        assert workloads._reports_gap(result.details, gap)
        assert not workloads._reports_gap(result.details, 2 * gap)

