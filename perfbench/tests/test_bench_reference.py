"""The speed scale from reference-unit timings, and the fixed design batch."""

import pytest

from perfbench import inputs, reference


def test_steady_host_gives_one_scale():
    refs = [[2 * reference.NOMINAL_S] * 4 for _ in range(6)]
    assert reference.scales(refs, 4) == [0.5] * 5


def test_scale_follows_a_change_of_host_speed():
    slow, fast = 2 * reference.NOMINAL_S, reference.NOMINAL_S
    refs = [[slow] * 100] * 3 + [[fast] * 100] * 4   # one chunk per gap between operations
    got = reference.scales(refs, 100)
    # the operation between the last slow and the first fast chunk sees both
    assert got == pytest.approx([0.5, 0.5, 1 / 1.5, 1.0, 1.0, 1.0])
    assert len(got) == len(refs) - 1


def test_window_rests_on_about_twenty_timings():
    for units in (1, 2, 5, 10, 100, 300):
        w = reference.half_width(units)
        assert (2 * w + 2) * units >= reference.SAMPLES_PER_WINDOW
        assert w == 0 or 2 * w * units < reference.SAMPLES_PER_WINDOW


def test_window_is_clipped_at_the_ends():
    refs = [[float(i + 1) * reference.NOMINAL_S] * 2 for i in range(12)]
    got = reference.scales(refs, 2)   # half width 4: up to 10 chunks of 2
    assert got[0] == pytest.approx(1 / 3.5)   # chunks 1..6, median 3.5
    assert got[-1] == pytest.approx(1 / 9.5)  # chunks 7..12


def test_unit_reports_positive_cpu_time():
    assert all(t > 0 for t in reference.sample(3))


def test_design_batch_is_fixed_by_the_run_length():
    assert inputs.design_batch(25) == 25 * inputs.DESIGN_REQUESTS_PER_S
    assert inputs.design_batch(25.0) == inputs.design_batch(25)
    assert inputs.design_batch(1e9) == inputs.DESIGN_REQUESTS
    assert inputs.design_batch(1e-9) == 2
