"""Self-tests: the percentile helper and its ">= 10 samples beyond" rule."""

import statistics

import pytest

from . import stats


def test_percentile_interpolates():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 50) == 2.5
    assert stats.percentile(samples, 100) == 4.0
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0)],
)
def test_tail_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected > 50.0:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_tail_reports_percentile_and_value():
    samples = [float(i) for i in range(1000)]
    q, value = stats.tail(samples)
    assert q == 99.0
    assert value == pytest.approx(989.01)


def test_spread_matches_the_drivers_formula():
    values = [10.0, 10.5, 9.8, 10.2, 10.1, 9.9, 10.4, 10.0, 10.3, 9.7]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.iqr_share(values) == (q3 - q1) / q2


def test_wall_percentiles_are_medians_over_blocks():
    from .harness import Round, blocks, wall_percentile

    def round_of(latency_s, count=100):
        return Round(["GET"] * count, 1.0, 1.0, [latency_s] * count, [0.0] * count, 0, 0, [])

    rounds = [round_of(1.0), round_of(1.0), round_of(9.0), round_of(9.0), round_of(1.0)]
    grouped = blocks(rounds)
    assert [sum(r.count for r in block) for block in grouped] == [200, 300]
    # Pooled, the slow phase (a quarter of the samples) would own p95; by
    # blocks it spoils one block of four.
    assert wall_percentile(rounds + [round_of(1.0)] * 3, 95) == 1.0
    assert len(blocks([round_of(1.0, 50)])) == 1  # a lone short round is still a block


def test_calibration_factor_is_relative_to_nominal_and_resets():
    from . import calibration

    yardstick = calibration.Calibration()
    yardstick.sample()
    yardstick.sample()
    kernel_s = stats.median(yardstick._samples)
    assert yardstick.take_factor() == kernel_s / calibration.NOMINAL_S > 0
    with pytest.raises(statistics.StatisticsError):
        yardstick.take_factor()  # nothing sampled since the last call
