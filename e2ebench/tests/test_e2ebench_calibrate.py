"""Calibration factors: the median of the calibrations around each item."""

import pytest

from calibrate import CAL_REF_S, Calibrator, local_factors


def test_steady_calibrations_scale_to_the_reference():
    marks = [(0, 2 * CAL_REF_S), (5, 2 * CAL_REF_S), (10, 2 * CAL_REF_S)]
    assert local_factors(marks, 10) == [0.5] * 10


def test_items_take_the_calibrations_nearest_to_them():
    # calibrations every ten items; slow ones at items 20, 30 and 40
    slow = {20, 30, 40}
    marks = [(pos, (2 if pos in slow else 1) * CAL_REF_S) for pos in range(0, 70, 10)]
    factors = local_factors(marks, 60, window=3)
    assert factors[0] == 1.0
    assert factors[35] == 0.5
    assert factors[59] == 1.0


def test_one_burst_does_not_rescale_its_neighbours():
    marks = [(0, CAL_REF_S), (10, CAL_REF_S), (20, 9 * CAL_REF_S), (30, CAL_REF_S), (40, CAL_REF_S)]
    assert set(local_factors(marks, 40, window=5)) == {1.0}


def test_window_shrinks_to_the_marks_there_are():
    marks = [(0, CAL_REF_S), (3, 3 * CAL_REF_S)]
    assert local_factors(marks, 3) == [0.5] * 3


def test_no_calibration_is_an_error():
    with pytest.raises(ValueError):
        local_factors([], 1)


def test_calibrator_times_a_fixed_task():
    parents = [-1] + [i - 1 for i in range(1, 500)]  # a path
    calibrator = Calibrator(parents)
    assert calibrator.measure() > 0
