import gc

import run


def test_calibrated_returns_result_time_and_scale():
    result, seconds, scale = run.calibrated(lambda: 7)
    assert result == 7
    assert seconds >= 0
    # the two calibrations take about CAL_REF_S each on any sane host
    assert 0.01 < scale < 100


def test_calibrate_leaves_the_garbage_collector_on():
    assert gc.isenabled()
    assert run.calibrate() > 0
    assert gc.isenabled()


def test_scaled_time_is_seconds_times_scale():
    a = run.Attempt(0, 0.2, 1, None, 3, 2, 0, scale=1.5)
    assert abs(a.scaled - 0.3) < 1e-12
