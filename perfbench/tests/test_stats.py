import pytest

from perfbench import stats


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="at least 10"):
        stats.percentile([float(i) for i in range(199)], 95)


def test_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(200)]
    assert stats.percentile(samples, 95) == 189.0
    assert sum(1 for s in samples if s > 189.0) == 10


def test_median_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 19, 50)
    assert stats.percentile([float(i) for i in range(20)], 50) == 9.0

