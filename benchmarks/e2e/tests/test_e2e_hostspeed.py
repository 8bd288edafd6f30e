"""Reference-speed arithmetic and the meter's sampling."""

import time

import pytest

import hostspeed

REF = hostspeed.REFERENCE_SPIN_S


def test_a_host_at_reference_speed_reads_as_measured():
    samples = [(0.0, REF, REF), (1.0, 1.0 + REF, REF),
               (3.0, 3.0 + REF, REF)]
    reference, measured = hostspeed.reference_seconds(samples)
    # The two stretches between the spins, the spins themselves left out.
    assert measured == pytest.approx(3.0 - 2 * REF)
    assert reference == pytest.approx(measured)


def test_a_slow_stretch_is_scaled_by_the_spins_around_it():
    slow = 2 * REF
    samples = [(0.0, REF, REF),            # reference speed ...
               (1.0, 1.0 + REF, REF),
               (2.0, 2.0 + slow, slow),    # ... then half speed
               (4.0, 4.0 + slow, slow)]
    reference, measured = hostspeed.reference_seconds(samples)
    assert measured == pytest.approx((1.0 - REF) + (1.0 - REF) + (2.0 - slow))
    assert reference == pytest.approx(
        (1.0 - REF)                         # 1x / 1x
        + (1.0 - REF) / 1.5                 # 1x / 2x: the mean of the two
        + (2.0 - slow) / 2.0)               # 2x / 2x
    assert hostspeed.reference_seconds(samples[:1]) == (0.0, 0.0)


def test_the_meter_samples_a_busy_region_and_stops():
    meter = hostspeed.SpeedMeter()
    first = meter.mark()
    meter.start()
    try:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    finally:
        meter.stop()
    last = meter.mark()
    assert last - first >= 4               # a sample every 50 ms
    reference, measured = meter.seconds(first, last)
    assert 0.2 < measured < 0.45
    # Whatever the host's pace, it is within an order of magnitude of the
    # reference box's.
    assert measured / 10 < reference < measured * 10
    n = len(meter.samples)
    time.sleep(2.5 * hostspeed.PERIOD_S)
    assert len(meter.samples) == n         # the timer is off
