"""Times at the reference speed, on synthetic kernel runs."""

import pytest

from hostspeed import REF_S, Reference


def _reference(runs):
    ref = Reference()
    for start, seconds in runs:
        ref.starts.append(start)
        ref.ends.append(start + seconds)
    return ref


def test_scaled_divides_out_the_host_speed():
    # Kernel runs every 20 ms; the host runs at half speed after t = 10 s.
    runs = [(k * 0.02, REF_S if k * 0.02 < 10 else 2 * REF_S) for k in range(1000)]
    ref = _reference(runs)
    assert ref.scaled(2.0005, 2.0105) == pytest.approx(0.01)
    assert ref.scaled(15.0005, 15.0105) == pytest.approx(0.005)


def test_scaled_leaves_out_kernel_runs_inside_the_window():
    ref = _reference([(k * 0.02, REF_S) for k in range(100)])
    # [0.5, 0.7] holds the runs starting at 0.50, 0.52, ..., 0.68.
    assert ref.scaled(0.5, 0.7) == pytest.approx(0.2 - 10 * REF_S)


def test_trimmed_mean_ignores_one_slow_run():
    runs = [(k * 0.02, REF_S) for k in range(100)]
    runs[50] = (1.0, 5 * REF_S)  # an interrupt during one run
    ref = _reference(runs)
    assert ref.speed(0.95, 1.05) == pytest.approx(1.0)


def test_burst_returns_its_sample_indices():
    ref = Reference()
    first = ref.burst(3)
    second = ref.burst(2)
    assert list(first) == [0, 1, 2] and list(second) == [3, 4]
    assert ref.mean_speed(second) > 0
