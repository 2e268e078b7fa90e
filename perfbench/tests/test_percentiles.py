import pytest

from percentiles import percentile, samples_beyond, supported


def test_evenly_spaced_values():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == pytest.approx(50.5, abs=1e-6)
    assert percentile(values, 90) == pytest.approx(90.5, abs=1e-6)


def test_constant_and_single_samples():
    assert percentile([7.0], 90) == pytest.approx(7.0)
    assert percentile([0.2] * 13, 50) == pytest.approx(0.2)


def test_weights_sit_on_the_ranks_next_to_the_percentile():
    # one outlier far from the median hardly moves it; at the median rank
    # it moves it by that rank's weight only
    base = [float(i) for i in range(1, 102)]
    far = base[:-1] + [1000.0]
    assert percentile(far, 50) == pytest.approx(percentile(base, 50), abs=1e-6)
    near = base[:50] + [60.0] + base[51:]
    shift = percentile(near, 50) - percentile(base, 50)
    assert 0 < shift < 1.0


def test_stays_within_the_samples_and_grows_with_q():
    values = [0.3, 0.1, 0.2, 0.9, 0.05, 0.4]
    estimates = [percentile(values, q) for q in (10, 50, 90)]
    assert min(values) <= estimates[0] < estimates[1] < estimates[2] <= max(values)


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert samples_beyond(100, 90) == 10
    assert supported(100, 90)
    assert samples_beyond(99, 90) == 9
    assert not supported(99, 90)
    assert supported(128, 90)
    assert supported(20, 50)
    assert not supported(19, 50)


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 100)
