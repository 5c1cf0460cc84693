import statistics

import pytest

from stats import TAIL_SAMPLES_BEYOND, median, quantile, tail_percentile


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    value, percentile, count = tail_percentile(samples)
    assert (percentile, count) == (90.0, 100)
    assert value == pytest.approx(90.9, abs=0.5)
    assert sum(1 for s in samples if s > value) == TAIL_SAMPLES_BEYOND


def test_tail_ignores_input_order():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
    assert tail_percentile(samples) == tail_percentile(sorted(samples))
    assert tail_percentile(samples)[1] == 60.0


def test_tail_of_twenty_one_samples_is_above_the_median():
    samples = [float(i) for i in range(21)]
    value, percentile, count = tail_percentile(samples)
    assert count == 21
    assert percentile == pytest.approx(100.0 * 11 / 21)
    assert value > median(samples)


@pytest.mark.parametrize("n", [3, 11, 20])
def test_thin_tail_reports_the_maximum_as_p100(n):
    samples = [float(i) for i in range(n, 0, -1)]
    assert tail_percentile(samples) == (float(n), 100.0, n)


def test_empty_samples_are_rejected():
    with pytest.raises(ValueError):
        tail_percentile([])
    with pytest.raises(ValueError):
        median([])


def test_median_of_symmetric_samples():
    assert median([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    assert quantile([7.0], 0.5) == 7.0


def test_median_moves_smoothly_across_a_gap_between_clusters():
    # Two clusters of re-run times; one sample crossing the gap moves
    # the sample median by the whole gap, the estimate by a fraction.
    low = [1.0] * 49 + [2.0] * 51
    high = [1.0] * 51 + [2.0] * 49
    assert statistics.median(low) - statistics.median(high) == 1.0
    assert median(low) - median(high) < 0.2
