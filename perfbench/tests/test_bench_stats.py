import pytest

from perfbench.stats import MIN_BEYOND, median, tail_percentile


def test_percentile_reported_with_ten_samples_beyond():
    values = list(range(1, 101))  # nearest-rank p90 is 90, with 91..100 beyond it
    assert tail_percentile(values, 90) == 90


def test_percentile_withheld_with_fewer_than_ten_beyond():
    assert tail_percentile(list(range(1, 100)), 90) is None  # p90 = 90, only 9 beyond
    assert tail_percentile(list(range(1, 1000)), 99.5) is None
    assert tail_percentile([], 50) is None


@pytest.mark.parametrize("n", [20, 37, 100, 1001])
def test_reported_percentile_always_has_enough_samples_beyond(n):
    values = [float((7 * i) % n) for i in range(n)]
    for q in (50, 75, 90, 95, 99):
        p = tail_percentile(values, q)
        if p is not None:
            assert sum(v > p for v in values) >= MIN_BEYOND or values.count(p) > 1


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
