"""The op_s estimator and the raw fast floor on synthetic two-phase timings."""
import numpy as np
import pytest

import stats

FAST, SLOW = 0.45e-3, 1.0e-3  # one n = 2 sampled trial in a fast and a slow phase
REF_FAST = 3.3e-3  # the reference kernel in the fast phase


def two_phase(rng, n_ops, fast_share):
    """Per-op times from a host that spends ``fast_share`` of a run in a fast
    phase and the rest in a slow one, with a few percent of jitter."""
    n_fast = int(round(n_ops * fast_share))
    base = np.r_[np.full(n_fast, FAST), np.full(n_ops - n_fast, SLOW)]
    return list(base * rng.lognormal(0.0, 0.03, size=n_ops))


def two_phase_with_reference(rng, n_ops, fast_share):
    """Per-op times and reference times from a host whose slow phase slows
    both by the same factor, each with a few percent of its own jitter."""
    n_fast = int(round(n_ops * fast_share))
    speed = np.r_[np.ones(n_fast), np.full(n_ops - n_fast, SLOW / FAST)]
    times = FAST * speed * rng.lognormal(0.0, 0.03, size=n_ops)
    refs = REF_FAST * speed * rng.lognormal(0.0, 0.03, size=n_ops)
    return list(times), list(refs)


@pytest.mark.parametrize("n_ops", [25, 200, 12_000])  # ops per run of each workload
def test_op_s_ignores_the_phase_mix_even_in_a_wholly_slow_run(n_ops):
    values, floors = [], []
    for i, fast_share in enumerate((0.0, 0.2, 0.5, 0.8, 1.0)):
        times, refs = two_phase_with_reference(np.random.default_rng(i), n_ops, fast_share)
        values.append(stats.host_corrected(times, refs, REF_FAST))
        floors.append(stats.fast_floor(times))
        assert 0.85 * FAST < values[-1] < FAST
    assert max(values) / min(values) < 1.1
    # the raw floor of the run that never saw a fast phase is a slow op
    assert max(floors) / min(floors) > 2.0


def test_op_s_needs_one_reference_per_op():
    with pytest.raises(ValueError):
        stats.host_corrected([1.0, 2.0], [1.0], 1.0)


@pytest.mark.parametrize("n_ops", [20, 150, 600, 10_000])  # ops per run of each workload
def test_floor_ignores_the_phase_mix_and_the_median_does_not(n_ops):
    floors, medians = [], []
    for i, fast_share in enumerate((0.2, 0.35, 0.5, 0.65, 0.8)):
        times = two_phase(np.random.default_rng(i), n_ops, fast_share)
        floors.append(stats.fast_floor(times))
        medians.append(stats.median(times))
        assert 0.85 * FAST < floors[-1] < FAST
    assert max(floors) / min(floors) < 1.1
    assert max(medians) / min(medians) > 2.0


def test_floor_rank_grows_with_the_sample_count():
    times = [float(i) for i in range(1, 10_001)]
    assert stats.fast_floor(times[:999]) == 1.0
    assert stats.fast_floor(times) == 10.0


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(values, 0.1) == 1.0
    assert stats.nearest_rank(values, 0.5) == 3.0
    assert stats.nearest_rank(values, 1.0) == 5.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


def test_tail_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    value, pct = stats.tail(values)
    assert (value, pct) == (90.0, 90.0)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    few = values[:39]
    assert stats.tail(few) == (stats.median(few), 50.0)
